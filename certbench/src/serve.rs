//! `serve_mix`: one client in a closed loop against one resident
//! `CertEngine`, modelling certification inside a fine-tuning loop.
//!
//! An engine lives for one fine-tuning run of [`WINDOWS_PER_ENGINE`]
//! windows. Each window sends [`QUERIES_PER_WINDOW`] queries
//! `(δ = DELTA, W ∈ {2, 3, 4}, refine 0)` in seeded order; between windows
//! the client moves every weight and bias by ±[`PERTURBATION`] and
//! re-registers the same id, which invalidates the encodings keyed by the
//! old weight hash and seeds the new sessions from the old ones. A fresh
//! engine per run keeps peak memory a property of the stream, not of how
//! many windows fit in the measured time.
//!
//! A timed run replays the same seeded engine lifetime until its time is
//! up, so every run times repeats of the same queries and every repeat must
//! reproduce the first one's ε̄ bits.

use crate::nets::{self, NetId};
use crate::probe::HostProbe;
use crate::stats::{describe, median, percentile};
use crate::stream::{Digest, Stream};
use crate::trace::Tracer;
use crate::{bits, peak_rss_mb, ratio, Args, Outcome, THREADS};
use itne_core::query::QueryStats;
use itne_core::{certify_global_affine, CertifyOptions};
use itne_nn::AffineNetwork;
use itne_serve::{CertEngine, QueryRequest};
use std::collections::BTreeSet;
use std::time::Instant;

const NET: NetId = NetId::AutoMpgW48;
const ID: &str = "auto_mpg_w48";
const WINDOWS: [usize; 3] = [2, 3, 4];
/// Window size of the first query after each weight update.
const UPDATE_W: usize = 2;
/// Window size of each window's last query, the one re-certified cold.
const CHECKED_W: usize = 3;
/// The fine-tuning loop certifies one robustness target; only the
/// decomposition window varies per query, so repeated `(δ, W)` pairs within
/// a window are the resident engine's hot path. (A δ drawn per seed or per
/// window made the per-seed medians differ by up to 2×.)
const DELTA: f64 = 1e-3;
const QUERIES_PER_WINDOW: usize = 24;
const WINDOWS_PER_ENGINE: usize = 8;
const PERTURBATION: f64 = 1e-3;
/// One engine lifetime of queries: the digest covers it, and every pass
/// runs a whole number of repeats of it.
const CYCLE: usize = QUERIES_PER_WINDOW * WINDOWS_PER_ENGINE;
/// The grid the certifier snaps every LP bound to (2⁻³⁰).
const BOUND_GRID: f64 = 1.0 / (1u64 << 30) as f64;
/// The widest gap between a resident answer and its cold re-certification
/// the cross-check accepts, in [`BOUND_GRID`] steps: the largest gap seen
/// when the benchmark was written (see the README's findings).
const MAX_GRID_STEPS: f64 = 8.0;

/// How a query met the engine's caches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Tag {
    /// First query of a session with no predecessor state: a cold miss.
    Miss,
    /// First query after a weight update.
    Update,
    /// Another session's first query after an update (seeded from the old
    /// weights' session).
    Seeded,
    /// Every other query: a session hit.
    Hot,
}

impl Tag {
    fn name(self) -> &'static str {
        match self {
            Tag::Miss => "miss",
            Tag::Update => "update",
            Tag::Seeded => "seeded",
            Tag::Hot => "hot",
        }
    }
}

/// When a pass stops; it always stops at the end of an engine cycle, so
/// every pass times whole cycles with the same mix of query kinds.
#[derive(Copy, Clone)]
enum Stop {
    /// After the first cycle that ends this many seconds after the pass
    /// began, cross-checks included.
    Seconds(f64),
    /// After exactly one engine cycle.
    OneCycle,
}

/// Everything one pass over the query stream measured.
#[derive(Default)]
struct Pass {
    /// Per query: tag, window size and latency in seconds.
    queries: Vec<(Tag, usize, f64)>,
    register_s: Vec<f64>,
    /// Seconds inside `certify` and `register_affine` calls.
    loop_s: f64,
    /// Seconds inside `certify` calls alone.
    query_s: f64,
    /// Seconds inside the unchecked twin engine's `certify` calls.
    twin_query_s: f64,
    stats: QueryStats,
    sessions: u64,
    delta_seeded: u64,
    digest: Digest,
    /// ε̄ bits per query, in order.
    answers: Vec<Vec<u64>>,
    /// Seconds per cold cross-check certification.
    cold_s: Vec<f64>,
    /// Cross-checks whose bits differ from the cold answer by at most
    /// [`MAX_GRID_STEPS`].
    cold_mismatches: u64,
    attempted: u64,
    failed: u64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let domain = NET.domain();
    let setup = nets::setup(NET, |aff| {
        let engine = CertEngine::new(THREADS, 1);
        engine
            .register_affine(ID, aff.clone(), &domain)
            .map_err(|e| format!("register: {e}"))?;
        Ok(engine)
    })?;
    drop(setup.extra);
    let stream = Stream::new(args.seed, "serve_mix");
    let mut out = Outcome::new(args.trace);
    if args.trace {
        traced(&setup.aff, &stream, &mut out)?;
        out.put("nn.lower_s", setup.lower_s);
        out.put("failed_frac", out.failed_frac());
        return Ok(out);
    }

    let mut tracer = Tracer::new(false);
    let mut probe = HostProbe::start();
    let pass = run_pass(
        &setup.aff,
        stream,
        Stop::Seconds(args.seconds),
        true,
        false,
        &mut tracer,
        Some(&mut probe),
    );
    let k = probe.scale();
    out.attempted = pass.attempted;
    out.failed = pass.failed;
    let lat = |keep: &dyn Fn(Tag) -> bool| -> Vec<f64> {
        pass.queries
            .iter()
            .filter(|(t, _, _)| keep(*t))
            .map(|&(_, _, s)| s * 1e3)
            .collect()
    };
    let all = lat(&|t| t != Tag::Miss);
    let updates = lat(&|t| t == Tag::Update);
    eprintln!(
        "-- serve_mix: digest {:016x} over the first {CYCLE} queries; {} cycles, {:.3} s of loop time",
        pass.digest.value(),
        pass.queries.len() / CYCLE,
        pass.loop_s
    );
    for tag in [Tag::Miss, Tag::Update, Tag::Seeded, Tag::Hot] {
        for w in WINDOWS {
            let ms: Vec<f64> = pass
                .queries
                .iter()
                .filter(|&&(t, win, _)| t == tag && win == w)
                .map(|&(_, _, s)| s * 1e3)
                .collect();
            eprintln!(
                "-- {:<6} queries, W {w}: {}",
                tag.name(),
                describe(&ms, "ms")
            );
        }
    }
    eprintln!("-- cold cross-checks: {}", describe(&pass.cold_s, "s"));
    eprintln!("-- {}", probe.describe());
    out.put("setup_s", setup.setup_s * k);
    out.put("cert_s_p50", median(&pass.cold_s) * k);
    out.put("query_ms_p50", median(&all) * k);
    out.put("query_ms_p95", percentile(&all, 0.95) * k);
    // Over the same queries as the latencies: misses and registrations are
    // left out of both.
    out.put(
        "queries_per_s",
        1e3 * all.len() as f64 / (all.iter().sum::<f64>() * k),
    );
    out.put("update_query_ms_p50", median(&updates) * k);
    out.put("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Passes over the same one-cycle stream: an untimed warm-up, a traced
/// pass (spans, counters, cross-checks), an untraced pass, and a pass in
/// lockstep with an unchecked twin engine. The tracing overhead is the gap
/// between the traced and untraced passes; checking's cost is the gap
/// between the engines' query times, paired query by query.
fn traced(base: &AffineNetwork, stream: &Stream, out: &mut Outcome) -> Result<(), String> {
    let pass = |tracer: &mut Tracer, verify: bool, twin: bool| {
        run_pass(
            base,
            stream.clone(),
            Stop::OneCycle,
            verify,
            twin,
            tracer,
            None,
        )
    };
    let mut untraced = Tracer::new(false);
    pass(&mut untraced, false, false);
    let mut tracer = Tracer::new(true);
    let a = pass(&mut tracer, true, false);
    let plain = pass(&mut untraced, false, false);
    let paired = pass(&mut untraced, false, true);
    // Same stream: every pass must repeat the traced pass's bits.
    out.attempted = a.attempted + plain.attempted + paired.attempted;
    out.failed = a.failed
        + plain.failed
        + paired.failed
        + u64::from(plain.answers != a.answers)
        + u64::from(paired.answers != a.answers);
    let check_s = paired.query_s - paired.twin_query_s;
    let n = a.queries.len() as u64;
    eprintln!(
        "-- serve_mix: loop traced {:.3} s / untraced {:.3} s over {n} queries; paired queries \
         checked {:.3} s / unchecked {:.3} s",
        a.loop_s, plain.loop_s, paired.query_s, paired.twin_query_s
    );
    let q = a.stats;
    out.put("milp.solves", q.solves as f64);
    out.put("milp.pivots", q.pivots as f64);
    out.put("milp.bb_nodes", q.nodes as f64);
    out.put("milp.pivots_per_solve", ratio(q.pivots, q.solves));
    out.put("milp.us_per_pivot", 1e6 * a.loop_s / q.pivots.max(1) as f64);
    out.put("milp.ftran_btran_s", q.ftran_btran_time_ns as f64 * 1e-9);
    out.put("milp.refactor_s", q.refactor_time_ns as f64 * 1e-9);
    out.put("milp.refactorizations", q.refactorizations as f64);
    out.put("milp.lu_fill_nnz", q.lu_fill_nnz as f64);
    out.put("milp.max_nnz", q.nnz as f64);
    out.put("milp.warm_hit_ratio", ratio(q.warm_hits, q.solves));
    out.put("milp.fallbacks", q.fallbacks as f64);
    out.put("certcheck.certs_checked", q.certs_checked as f64);
    out.put("certcheck.cert_failures", q.cert_failures as f64);
    out.put("certcheck.busy_s", check_s);
    out.put("certcheck.share", check_s / paired.query_s);
    out.put("serve.register_s", median(&a.register_s));
    let misses: Vec<f64> = a
        .queries
        .iter()
        .filter(|(t, _, _)| *t == Tag::Miss)
        .map(|&(_, _, s)| s * 1e3)
        .collect();
    out.put("serve.miss_query_ms", median(&misses));
    out.put("serve.pivots_per_query", ratio(q.pivots, n));
    out.put("serve.sessions", a.sessions as f64);
    out.put("serve.cold_bit_mismatches", a.cold_mismatches as f64);
    out.put("serve.delta_seeded_sessions", a.delta_seeded as f64);
    out.put(
        "resident.enc_hit_ratio",
        ratio(
            q.encoding_cache_hits,
            q.encoding_cache_hits + q.encoding_cache_misses,
        ),
    );
    out.put(
        "resident.cross_query_warm_ratio",
        ratio(q.cross_query_warm_hits, q.solves),
    );
    out.put("trace.overhead_s", a.loop_s - plain.loop_s);
    out.put(
        "trace.overhead_frac",
        (a.loop_s - plain.loop_s) / plain.loop_s,
    );
    let covered = tracer.total("certify") + tracer.total("register");
    out.put("trace.span_coverage", covered / a.loop_s);
    match tracer.write("serve_mix.jsonl") {
        Ok(path) => eprintln!(
            "-- {} spans written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => return Err(format!("writing spans: {e}")),
    }
    Ok(())
}

/// Replays one engine lifetime of the query stream, each time against a
/// fresh engine, until `stop`; every replay must repeat the first one's
/// ε̄ bits. With `verify`, the last query of every window is
/// re-certified cold right after it, outside the timed loop, and must
/// agree with it (see [`cross_check`]). With `twin`, a second engine with
/// certificate checking off answers every query too, right before or after
/// the checked one (alternating); its time goes to `twin_query_s`. A
/// `probe` is read before every replay.
fn run_pass(
    base: &AffineNetwork,
    stream: Stream,
    stop: Stop,
    verify: bool,
    twin: bool,
    tracer: &mut Tracer,
    mut probe: Option<&mut HostProbe>,
) -> Pass {
    let domain = NET.domain();
    let mut pass = Pass::default();
    let started = Instant::now();
    'cycles: loop {
        if let Some(p) = probe.as_deref_mut() {
            p.sample();
        }
        let mut stream = stream.clone();
        let engine = CertEngine::new(THREADS, 1);
        let twin = twin.then(|| CertEngine::new(THREADS, 1));
        let mut aff = base.clone();
        let mut seen = BTreeSet::new();
        for w in 0..WINDOWS_PER_ENGINE {
            if w > 0 {
                fine_tune_step(&mut aff);
            }
            let windows = window_sizes(&mut stream);
            let span = tracer.begin("register", None, Some(pass.queries.len()), None);
            let t0 = Instant::now();
            let registered = engine.register_affine(ID, aff.clone(), &domain);
            let dt = t0.elapsed().as_secs_f64();
            tracer.end(span);
            tracer.tag(span, if w == 0 { "initial" } else { "update" });
            pass.register_s.push(dt);
            pass.loop_s += dt;
            if let Some(t) = &twin {
                if let Err(e) = t.register_affine(ID, aff.clone(), &domain) {
                    eprintln!("-- twin register failed: {e}");
                    pass.failed += 1;
                }
            }
            let Ok(hash) = registered else {
                eprintln!("-- register failed: {:?}", registered.err());
                pass.attempted += 1;
                pass.failed += 1;
                break 'cycles;
            };
            for (k, &window) in windows.iter().enumerate() {
                let q = QueryRequest {
                    delta: DELTA,
                    window,
                    refine: 0,
                    check_certs: true,
                };
                let index = pass.queries.len();
                let twin_first = index % 2 == 1;
                if twin_first {
                    twin_query(&mut pass, twin.as_ref(), q);
                }
                let span = tracer.begin("certify", None, Some(index), None);
                let t0 = Instant::now();
                let resp = engine.certify(ID, &q);
                let dt = t0.elapsed().as_secs_f64();
                tracer.end(span);
                if !twin_first {
                    twin_query(&mut pass, twin.as_ref(), q);
                }
                pass.loop_s += dt;
                pass.query_s += dt;
                pass.attempted += 1;
                let resp = match resp {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("-- query {index} failed: {e}");
                        pass.failed += 1;
                        pass.answers.push(Vec::new());
                        pass.queries.push((Tag::Hot, q.window, dt));
                        continue;
                    }
                };
                let new_session = seen.insert((hash, q.window));
                let tag = if k == 0 && w > 0 {
                    Tag::Update
                } else if new_session && resp.delta_seeded {
                    Tag::Seeded
                } else if new_session {
                    Tag::Miss
                } else {
                    Tag::Hot
                };
                tracer.tag(span, tag.name());
                pass.sessions += u64::from(new_session);
                pass.delta_seeded += u64::from(resp.delta_seeded);
                pass.stats.absorb(resp.stats.query);
                let sound = resp.stats.query.cert_failures == 0
                    && resp.epsilons.iter().all(|e| e.is_finite());
                let repeated = index < CYCLE || pass.answers[index % CYCLE] == bits(&resp.epsilons);
                if !repeated {
                    eprintln!("-- query {index} differs from its first replay's ε̄ bits");
                }
                if !(sound && repeated) {
                    pass.failed += 1;
                }
                if index < CYCLE {
                    pass.digest.eat_bits(&resp.epsilons);
                }
                pass.answers.push(bits(&resp.epsilons));
                pass.queries.push((tag, q.window, dt));
                if verify && k + 1 == QUERIES_PER_WINDOW {
                    // Right away rather than after the cycle, so the cold
                    // timings are spread over the run like the queries.
                    cross_check(&mut pass, &aff, &q, index);
                }
            }
        }
        drop((engine, twin));
        let done = match stop {
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Stop::OneCycle => true,
        };
        if done {
            break;
        }
    }
    pass
}

/// The unchecked twin engine's answer to `q`, timed into `twin_query_s`.
fn twin_query(pass: &mut Pass, twin: Option<&CertEngine>, q: QueryRequest) {
    let Some(twin) = twin else { return };
    let q = QueryRequest {
        check_certs: false,
        ..q
    };
    let t0 = Instant::now();
    let resp = twin.certify(ID, &q);
    pass.twin_query_s += t0.elapsed().as_secs_f64();
    if let Err(e) = resp {
        eprintln!("-- twin query failed: {e}");
        pass.failed += 1;
    }
}

/// Re-certifies query `index`, asked as `q` of `aff`, cold. Identical bits pass; a gap of at
/// most [`MAX_GRID_STEPS`] snap-grid steps passes but is counted (the engine
/// promises identical bits); anything wider is a failed query.
fn cross_check(pass: &mut Pass, aff: &AffineNetwork, q: &QueryRequest, index: usize) {
    let domain = NET.domain();
    let opts = CertifyOptions {
        window: q.window,
        refine: 0,
        threads: THREADS,
        check_certificates: true,
        ..Default::default()
    };
    let t0 = Instant::now();
    let cold = certify_global_affine(aff, &domain, q.delta, &opts);
    pass.cold_s.push(t0.elapsed().as_secs_f64());
    let cold = cold.map(|r| r.epsilons);
    let resident: Vec<f64> = pass.answers[index]
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    match cold {
        Ok(cold) if bits(&cold) == pass.answers[index] => {}
        Ok(cold) if grid_steps(&resident, &cold) <= MAX_GRID_STEPS => {
            // Both bounds are certified sound; the warm-started
            // resident solves took another path to the optimum.
            eprintln!(
                "-- query {} (δ {}, W {}): resident ε̄ {resident:?} differs from cold \
                 {cold:?} by {} grid steps",
                index,
                q.delta,
                q.window,
                grid_steps(&resident, &cold)
            );
            pass.cold_mismatches += 1;
        }
        cold => {
            eprintln!(
                "-- query {} (δ {}, W {}) differs from its cold re-certification: \
                 resident ε̄ {resident:?}, cold {cold:?}",
                index, q.delta, q.window
            );
            pass.failed += 1;
        }
    }
}

/// The largest gap between two ε̄ vectors, in [`BOUND_GRID`] steps
/// (infinite when their lengths differ).
fn grid_steps(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let steps = (x - y).abs() / BOUND_GRID;
            if steps.is_nan() {
                f64::INFINITY
            } else {
                steps
            }
        })
        .fold(0.0, f64::max)
}

/// The decomposition windows of one window's queries: each size equally
/// often, in seeded order, except that the first query (the update query)
/// always uses `W = 2` and the last (the cross-checked one) `W = 3`, so
/// every seed times the same kinds of update and cold queries.
fn window_sizes(stream: &mut Stream) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..QUERIES_PER_WINDOW)
        .map(|i| WINDOWS[i % WINDOWS.len()])
        .collect();
    stream.shuffle(&mut sizes);
    let n = sizes.len();
    let at = sizes
        .iter()
        .position(|&s| s == UPDATE_W)
        .expect("every size occurs");
    sizes.swap(0, at);
    let at = 1 + sizes[1..]
        .iter()
        .position(|&s| s == CHECKED_W)
        .expect("every size occurs twice");
    sizes.swap(n - 1, at);
    sizes
}

/// One fine-tuning step: every weight and bias moves by ±[`PERTURBATION`]
/// along one fixed direction, so all seeds follow the same weight
/// trajectory and differ only in their query order. (Seeded signs made some
/// seeds' updates flip ReLU phases far more often than others'.)
fn fine_tune_step(aff: &mut AffineNetwork) {
    let mut direction = Stream::new(0, "fine-tune direction");
    for layer in &mut aff.layers {
        for row in &mut layer.rows {
            for term in &mut row.terms {
                term.1 += direction.sign() * PERTURBATION;
            }
            row.bias += direction.sign() * PERTURBATION;
        }
    }
}
