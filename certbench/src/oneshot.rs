//! The one-shot workloads: cold `certify_global_affine` on one Table I net
//! at one seeded δ, repeated.

use crate::nets::{self, NetId};
use crate::probe::HostProbe;
use crate::replay::{self, PHASES};
use crate::stats::{describe, median, percentile};
use crate::stream::{Digest, Stream};
use crate::trace::Tracer;
use crate::{bits, peak_rss_mb, ratio, Args, Outcome, THREADS};
use itne_core::{certify_global_affine, CertifyOptions, GlobalReport};
use itne_nn::AffineNetwork;
use std::time::Instant;

/// Rounds of (traced, untraced) serial replays in a traced run.
const TRACE_ROUNDS: usize = 3;

/// A one-shot workload: which net, at which Algorithm 1 setting, over
/// which δ range.
pub struct OneShot {
    pub name: &'static str,
    pub net: NetId,
    pub window: usize,
    pub refine: usize,
    pub delta: (f64, f64),
}

/// Table I row 3 (Auto-MPG w8) at the paper setting `W = 2, refine = 8`:
/// branch-and-bound and small-LP simplex do almost all the work.
pub const FC: OneShot = OneShot {
    name: "oneshot_fc",
    net: NetId::AutoMpgW8,
    window: 2,
    refine: 8,
    delta: (5e-4, 2e-3),
};

/// Table I row 6 (digits `Conv:1 FC:1+out`) at `W = 3, refine = 0`: large
/// sparse LPs, no branch-and-bound, FTRAN/BTRAN-bound.
pub const CONV: OneShot = OneShot {
    name: "oneshot_conv",
    net: NetId::DigitsC1,
    window: 3,
    refine: 0,
    delta: (1.5 / 255.0, 2.5 / 255.0),
};

impl OneShot {
    fn options(&self, check: bool) -> CertifyOptions {
        CertifyOptions {
            window: self.window,
            refine: self.refine,
            threads: THREADS,
            check_certificates: check,
            ..Default::default()
        }
    }

    pub fn run(&self, args: &Args) -> Result<Outcome, String> {
        let setup = nets::setup(self.net, |_| Ok(()))?;
        let mut stream = Stream::new(args.seed, self.name);
        let mut out = Outcome::new(args.trace);
        if args.trace {
            self.traced(&setup.aff, &mut stream, &mut out)?;
            out.put("nn.lower_s", setup.lower_s);
            out.put("failed_frac", out.failed_frac());
        } else {
            let scale = self.timed(&setup.aff, args, &mut stream, &mut out)?;
            out.put("setup_s", setup.setup_s * scale);
            out.put("peak_rss_mb", peak_rss_mb()?);
        }
        Ok(out)
    }

    fn certify(&self, aff: &AffineNetwork, delta: f64, check: bool) -> (Option<GlobalReport>, f64) {
        let t0 = Instant::now();
        let r = certify_global_affine(aff, &self.net.domain(), delta, &self.options(check));
        let secs = t0.elapsed().as_secs_f64();
        match r {
            Ok(rep) => (Some(rep), secs),
            Err(e) => {
                eprintln!("-- certification at δ {delta} failed: {e}");
                (None, secs)
            }
        }
    }

    /// Untraced: one warm-up certification, then cold certifications of the
    /// same δ until `args.seconds` of certification time are measured, so
    /// the samples are repeats of one workload. The host probe is read
    /// before each; returns its scale, which the timings are reported at.
    fn timed(
        &self,
        aff: &AffineNetwork,
        args: &Args,
        stream: &mut Stream,
        out: &mut Outcome,
    ) -> Result<f64, String> {
        let delta = stream.uniform(self.delta.0, self.delta.1);
        // The warm-up's bits are the run's answer: the digest covers them,
        // and every timed certification must repeat them.
        let (warm, _) = self.certify(aff, delta, true);
        let Some(warm) = warm else {
            return Err("warm-up certification failed".into());
        };
        out.op(sound(&warm));
        let want = bits(&warm.epsilons);
        let mut digest = Digest::default();
        digest.eat_bits(&warm.epsilons);
        let mut probe = HostProbe::start();
        let mut secs = Vec::new();
        while secs.is_empty() || secs.iter().sum::<f64>() < args.seconds {
            probe.sample();
            let (rep, dt) = self.certify(aff, delta, true);
            out.op(rep
                .as_ref()
                .is_some_and(|r| sound(r) && bits(&r.epsilons) == want));
            secs.push(dt);
        }
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        eprintln!(
            "-- {}: δ {delta}, digest {:016x}",
            self.name,
            digest.value()
        );
        eprintln!("-- certification: {}", describe(&ms, "ms"));
        eprintln!("-- certification ms, in order: {ms:.0?}");
        eprintln!("-- {}", probe.describe());
        let k = probe.scale();
        let p50 = median(&secs) * k;
        out.put("cert_s_p50", p50);
        // A one-shot query is a cold certification, so the query latencies
        // are the certification latencies; every one also starts without
        // warm state, as the first query after a weight update would.
        out.put("query_ms_p50", p50 * 1e3);
        // With a few seconds per certification, this is the largest of the
        // run's few samples (nearest rank below 20 samples).
        out.put("query_ms_p95", percentile(&ms, 0.95) * k);
        out.put(
            "queries_per_s",
            secs.len() as f64 / (secs.iter().sum::<f64>() * k),
        );
        out.put("update_query_ms_p50", p50 * 1e3);
        Ok(k)
    }

    /// Traced: the parallel reference certification, then [`TRACE_ROUNDS`]
    /// rounds of a traced and an untraced serial replay on the first δ of
    /// the stream, then one replay that pairs every `lp_relax` call with an
    /// unchecked twin. Tracing overhead is the gap between the traced and
    /// untraced medians; the spans come from the median traced replay.
    fn traced(
        &self,
        aff: &AffineNetwork,
        stream: &mut Stream,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let delta = stream.uniform(self.delta.0, self.delta.1);
        let domain = self.net.domain();
        let opts = self.options(true);
        // The first certification doubles as warm-up; the second is timed
        // and must repeat the first's bits.
        let (warm, _) = self.certify(aff, delta, true);
        let (reference, parallel_wall) = self.certify(aff, delta, true);
        let (Some(warm), Some(reference)) = (warm, reference) else {
            return Err("reference certification failed".into());
        };
        out.op(sound(&warm));
        out.op(sound(&reference) && bits(&reference.epsilons) == bits(&warm.epsilons));
        let want = bits(&reference.epsilons);
        let same_bits = |out: &mut Outcome, r: &replay::Replay, what: &str| {
            let same = bits(&r.epsilons) == want;
            if !same {
                eprintln!("-- {what} replay ε̄ bits differ from certify_global_affine");
            }
            out.op(same && r.stats.cert_failures == 0);
        };

        let mut traced_runs = Vec::new();
        let mut untraced_s = Vec::new();
        for _ in 0..TRACE_ROUNDS {
            let mut tracer = Tracer::new(true);
            let traced = replay::replay(aff, &domain, delta, &opts, &mut tracer, false);
            same_bits(out, &traced, "traced");
            traced_runs.push((traced, tracer));
            let untraced =
                replay::replay(aff, &domain, delta, &opts, &mut Tracer::new(false), false);
            same_bits(out, &untraced, "untraced");
            untraced_s.push(untraced.wall_s);
        }
        let paired = replay::replay(aff, &domain, delta, &opts, &mut Tracer::new(false), true);
        same_bits(out, &paired, "paired");
        traced_runs.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
        let (traced, tracer) = traced_runs.swap_remove(traced_runs.len() / 2);
        let untraced_p50 = median(&untraced_s);
        let check_s = paired.checked_s - paired.unchecked_s;

        let q = traced.stats;
        let lp_busy = tracer.total("lp_relax_y") + tracer.total("lp_relax_x");
        let covered: f64 = PHASES.iter().map(|p| tracer.total(p)).sum();
        eprintln!(
            "-- {}: δ {delta}, parallel {parallel_wall:.3} s, serial replay traced {:.3} s \
             (median) / untraced p50 {untraced_p50:.3} s; paired lp_relax checked {:.3} s / \
             unchecked {:.3} s",
            self.name, traced.wall_s, paired.checked_s, paired.unchecked_s
        );
        out.put("milp.solves", q.solves as f64);
        out.put("milp.pivots", q.pivots as f64);
        out.put("milp.bb_nodes", q.nodes as f64);
        out.put("milp.pivots_per_solve", ratio(q.pivots, q.solves));
        out.put("milp.us_per_pivot", 1e6 * lp_busy / q.pivots.max(1) as f64);
        out.put("milp.ftran_btran_s", q.ftran_btran_time_ns as f64 * 1e-9);
        out.put("milp.refactor_s", q.refactor_time_ns as f64 * 1e-9);
        out.put("milp.refactorizations", q.refactorizations as f64);
        out.put("milp.lu_fill_nnz", q.lu_fill_nnz as f64);
        out.put("milp.max_nnz", q.nnz as f64);
        out.put("milp.warm_hit_ratio", ratio(q.warm_hits, q.solves));
        out.put("milp.fallbacks", q.fallbacks as f64);
        out.put("query.lp_relax_y.calls", traced.lp_relax_y_calls as f64);
        out.put("query.lp_relax_y.busy_s", tracer.total("lp_relax_y"));
        out.put("query.lp_relax_x.calls", traced.lp_relax_x_calls as f64);
        out.put("query.lp_relax_x.busy_s", tracer.total("lp_relax_x"));
        out.put("query.closed_form_hits", traced.closed_form_hits as f64);
        out.put("encode.calls", traced.encode_calls as f64);
        out.put("encode.busy_s", tracer.total("encode"));
        out.put("encode.rows", traced.encode_rows as f64);
        out.put("decompose.busy_s", tracer.total("decompose"));
        out.put("refine.select_s", tracer.total("refine_select"));
        out.put("ibp.seed_s", tracer.total("ibp"));
        out.put("certcheck.certs_checked", q.certs_checked as f64);
        out.put("certcheck.cert_failures", q.cert_failures as f64);
        out.put("certcheck.busy_s", check_s);
        out.put("certcheck.share", check_s / untraced_p50);
        let sched = replay::schedule(&tracer, aff.layers.len(), THREADS, parallel_wall);
        out.put("schedule.serial_busy_s", sched.serial_busy_s);
        out.put("schedule.efficiency", sched.efficiency);
        out.put("schedule.critical_path_s", sched.critical_path_s);
        for (i, (busy, longest)) in sched.layers.iter().enumerate() {
            out.put(format!("layer.{i}.busy_s"), *busy);
            out.put(format!("layer.{i}.max_task_s"), *longest);
        }
        out.put("trace.overhead_s", traced.wall_s - untraced_p50);
        out.put(
            "trace.overhead_frac",
            (traced.wall_s - untraced_p50) / untraced_p50,
        );
        out.put("trace.span_coverage", covered / traced.wall_s);
        match tracer.write(&format!("{}.jsonl", self.name)) {
            Ok(path) => eprintln!(
                "-- {} spans written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => return Err(format!("writing spans: {e}")),
        }
        Ok(())
    }
}

/// An answer the benchmark accepts: no failed certificate, every ε̄ finite.
fn sound(r: &GlobalReport) -> bool {
    r.stats.query.cert_failures == 0 && r.epsilons.iter().all(|e| e.is_finite())
}
