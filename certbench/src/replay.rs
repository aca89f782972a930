//! A serial replay of Algorithm 1 built only from the core crate's public
//! layer entry points, so each layer's calls can be timed from outside:
//! IBP seed → per layer, per neuron: decompose → encode → `lp_relax_y` →
//! closed-form check (refine select) or encode → `lp_relax_x` → merge.
//!
//! It mirrors `itne_core::algorithm::run_task` step for step, and the
//! traced run requires its ε̄ bits to equal `certify_global_affine`'s, so a
//! drift between the two shows up as a failed operation.
//!
//! [`fallback_dx`], [`closed_form_applies`] and [`closed_form_x`] copy the
//! library's private closed-form rule for `LpRelaxX`. Once `itne_core`
//! exports that rule (for instance as `itne_core::algorithm::closed_form`),
//! the replay should call it and these copies should go.

use crate::trace::Tracer;
use itne_core::encode::{
    encode_subnet, encode_subnet_with, EncodeOptions, EncodedSubNet, EncodingKind, Relaxation,
    TargetKind, TargetOverride,
};
use itne_core::ibp::ibp_twin;
use itne_core::interval::{distance_relaxation_bounds, relu_distance_range, Interval};
use itne_core::query::{lp_relax_x, lp_relax_y, QueryStats};
use itne_core::refine::select_refined;
use itne_core::subnet::SubNetwork;
use itne_core::{CertifyOptions, TwinBounds};
use itne_milp::TelemetryClock;
use itne_nn::AffineNetwork;
use std::time::Instant;

/// Span names of the replay's phases, in pipeline order. Their totals must
/// cover the replay's wall time (`trace.span_coverage`).
pub const PHASES: [&str; 7] = [
    "ibp",
    "decompose",
    "encode",
    "lp_relax_y",
    "refine_select",
    "lp_relax_x",
    "merge",
];

/// What one replay produced.
pub struct Replay {
    pub epsilons: Vec<f64>,
    pub stats: QueryStats,
    pub closed_form_hits: u64,
    pub encode_calls: u64,
    pub encode_rows: u64,
    pub lp_relax_y_calls: u64,
    pub lp_relax_x_calls: u64,
    pub wall_s: f64,
    /// With `paired` checking: seconds of the `lp_relax` calls with
    /// checking on and of their unchecked twins.
    pub checked_s: f64,
    pub unchecked_s: f64,
}

/// Replays `certify_global_affine(aff, domain, delta, opts)` on one thread.
/// With `tracer` enabled, every phase call is a span (parented to its
/// neuron, each neuron to its layer) and the solver gets a
/// [`TelemetryClock`] for its FTRAN/BTRAN and refactorization timers. With
/// `paired`, every `lp_relax` call also runs with checking off on a copy of
/// its encoding, right before or after the checked call (alternating), so
/// the checking cost is measured call by call, immune to slow drift.
pub fn replay(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &CertifyOptions,
    tracer: &mut Tracer,
    paired: bool,
) -> Replay {
    let t0 = Instant::now();
    let dom: Vec<Interval> = domain
        .iter()
        .map(|&(lo, hi)| Interval::new(lo, hi))
        .collect();
    let mut solver = opts.solver.clone();
    if tracer.enabled() {
        let epoch = Instant::now();
        solver.telemetry = Some(TelemetryClock::new(move || {
            epoch.elapsed().as_nanos() as u64
        }));
    }
    let enc_opts = EncodeOptions {
        kind: opts.encoding,
        relax: opts.relaxation,
        refine: opts.refine,
        y_aware_distance: opts.y_aware_distance,
        delta,
    };
    let check = opts.check_certificates;
    let mut out = Replay {
        epsilons: Vec::new(),
        stats: QueryStats::default(),
        closed_form_hits: 0,
        encode_calls: 0,
        encode_rows: 0,
        lp_relax_y_calls: 0,
        lp_relax_x_calls: 0,
        wall_s: 0.0,
        checked_s: 0.0,
        unchecked_s: 0.0,
    };

    let s = tracer.begin("ibp", None, None, None);
    let mut bounds = ibp_twin(aff, &dom, delta);
    if opts.encoding == EncodingKind::Btne {
        bounds.decouple_distances();
    }
    tracer.end(s);

    for li in 0..aff.layers.len() {
        let layer_span = tracer.begin("layer", Some(li), None, None);
        let relu = aff.layers[li].relu;
        let mut results = Vec::with_capacity(aff.layers[li].width());
        for j in 0..aff.layers[li].width() {
            let n = tracer.begin("neuron", Some(li), Some(j), Some(layer_span));
            let at = |tracer: &mut Tracer, name| tracer.begin(name, Some(li), Some(j), Some(n));

            let s = at(tracer, "decompose");
            let sub = SubNetwork::decompose(aff, li, j, opts.window);
            tracer.end(s);

            let s = at(tracer, "encode");
            let mut enc_y = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &enc_opts);
            tracer.end(s);
            out.encode_calls += 1;
            out.encode_rows += enc_y.model.num_constraints() as u64;

            let s = at(tracer, "lp_relax_y");
            let (yr, dyr) = solve(&mut out, &mut enc_y, check, paired, |enc, check, stats| {
                lp_relax_y(
                    enc,
                    bounds.y[li][j],
                    bounds.dy[li][j],
                    &solver,
                    check,
                    stats,
                )
            });
            drop(enc_y);
            tracer.end(s);
            out.lp_relax_y_calls += 1;

            let closed_form = relu && opts.closed_form_x && {
                let s = at(tracer, "refine_select");
                let applies = closed_form_applies(&sub, &bounds, yr, dyr, opts, &enc_opts);
                tracer.end(s);
                applies
            };
            let (x, dx) = if !relu {
                (yr, dyr)
            } else if closed_form {
                out.closed_form_hits += 1;
                closed_form_x(yr, dyr, opts.encoding)
            } else {
                let over = TargetOverride {
                    y: yr,
                    dy: dyr,
                    x: yr.relu(),
                    dx: fallback_dx(yr, dyr, opts.encoding),
                };
                let s = at(tracer, "encode");
                let mut enc_x = encode_subnet_with(
                    &sub,
                    &bounds,
                    TargetKind::PostActivation,
                    &enc_opts,
                    Some(over),
                );
                tracer.end(s);
                out.encode_calls += 1;
                out.encode_rows += enc_x.model.num_constraints() as u64;

                let s = at(tracer, "lp_relax_x");
                let r = solve(&mut out, &mut enc_x, check, paired, |enc, check, stats| {
                    lp_relax_x(enc, over.x, over.dx, &solver, check, stats)
                });
                drop(enc_x);
                tracer.end(s);
                out.lp_relax_x_calls += 1;
                r
            };
            results.push((yr, dyr, x, dx));
            tracer.end(n);
        }
        let s = tracer.begin("merge", Some(li), None, Some(layer_span));
        merge(&mut bounds, li, results);
        tracer.end(s);
        tracer.end(layer_span);
    }
    out.epsilons = bounds.epsilons();
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// One `lp_relax` call with the replay's checking setting, plus — when
/// `paired` — its unchecked twin on a copy of the encoding (stats
/// discarded), run first on every other call so neither side always gets
/// the warm cache.
fn solve<R>(
    out: &mut Replay,
    enc: &mut EncodedSubNet,
    check: bool,
    paired: bool,
    lp: impl Fn(&mut EncodedSubNet, bool, &mut QueryStats) -> R,
) -> R {
    if !paired {
        return lp(enc, check, &mut out.stats);
    }
    let mut twin = enc.clone();
    let twin_first = (out.lp_relax_y_calls + out.lp_relax_x_calls) % 2 == 1;
    let mut run_twin = |out: &mut Replay| {
        let t0 = Instant::now();
        lp(&mut twin, false, &mut QueryStats::default());
        out.unchecked_s += t0.elapsed().as_secs_f64();
    };
    if twin_first {
        run_twin(out);
    }
    let t0 = Instant::now();
    let r = lp(enc, check, &mut out.stats);
    out.checked_s += t0.elapsed().as_secs_f64();
    if !twin_first {
        run_twin(out);
    }
    r
}

fn merge(
    bounds: &mut TwinBounds,
    li: usize,
    results: Vec<(Interval, Interval, Interval, Interval)>,
) {
    for (j, (y, dy, x, dx)) in results.into_iter().enumerate() {
        bounds.y[li][j] = y;
        bounds.dy[li][j] = dy;
        bounds.x[li][j] = x;
        bounds.dx[li][j] = dx;
    }
}

/// Sound fallback for the target's `Δx` given fresh `(y, Δy)` ranges.
fn fallback_dx(yr: Interval, dyr: Interval, kind: EncodingKind) -> Interval {
    match kind {
        EncodingKind::Single => Interval::point(0.0),
        EncodingKind::Itne => relu_distance_range(yr, dyr),
        EncodingKind::Btne => {
            let x = yr.relu();
            Interval::new(x.lo - x.hi, x.hi - x.lo)
        }
    }
}

/// Whether the `LpRelaxX` optimum has the closed form the certifier
/// substitutes for the solve (same rule as the library's private check).
fn closed_form_applies(
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    yr: Interval,
    dyr: Interval,
    opts: &CertifyOptions,
    enc_opts: &EncodeOptions,
) -> bool {
    if opts.relaxation != Relaxation::Lpr || opts.y_aware_distance {
        return false;
    }
    if opts.encoding == EncodingKind::Btne {
        return false;
    }
    if opts.refine > 0 {
        let target = (sub.cone.layer, sub.target());
        if select_refined(sub, bounds, TargetKind::PostActivation, enc_opts).contains(&target) {
            return false;
        }
    }
    match opts.encoding {
        EncodingKind::Single => true,
        EncodingKind::Itne => {
            let yhr = yr.add(dyr);
            let both_stable = (yr.stable_active() && yhr.stable_active())
                || (yr.stable_inactive() && yhr.stable_inactive());
            let both_unstable = !(yr.stable_active()
                || yr.stable_inactive()
                || yhr.stable_active()
                || yhr.stable_inactive());
            both_stable || both_unstable
        }
        EncodingKind::Btne => false,
    }
}

/// The closed form of the `LpRelaxX` optimum (see [`closed_form_applies`]).
fn closed_form_x(yr: Interval, dyr: Interval, kind: EncodingKind) -> (Interval, Interval) {
    let xr = yr.relu();
    match kind {
        EncodingKind::Single => (xr, Interval::point(0.0)),
        EncodingKind::Itne => {
            let yhr = yr.add(dyr);
            if yr.stable_active() && yhr.stable_active() {
                (xr, dyr)
            } else if yr.stable_inactive() && yhr.stable_inactive() {
                (Interval::point(0.0), Interval::point(0.0))
            } else {
                let (l, u) = distance_relaxation_bounds(dyr);
                (xr, Interval::new(l, u))
            }
        }
        EncodingKind::Btne => unreachable!("closed form never applies to BTNE"),
    }
}

/// Schedule figures derived from a traced replay's neuron spans, for a
/// parallel run on `threads` workers that took `parallel_wall_s`.
pub struct Schedule {
    pub serial_busy_s: f64,
    pub efficiency: f64,
    pub critical_path_s: f64,
    /// Per layer: (busy seconds, longest neuron chain seconds).
    pub layers: Vec<(f64, f64)>,
}

pub fn schedule(tracer: &Tracer, depth: usize, threads: usize, parallel_wall_s: f64) -> Schedule {
    let mut layers = vec![(0.0f64, 0.0f64); depth];
    for s in tracer.spans.iter().filter(|s| s.name == "neuron") {
        let l = &mut layers[s.layer.expect("neuron spans carry their layer")];
        l.0 += s.secs();
        l.1 = l.1.max(s.secs());
    }
    let serial_busy_s: f64 = layers.iter().map(|l| l.0).sum();
    let critical_path_s = layers
        .iter()
        .map(|&(busy, longest)| (busy / threads as f64).max(longest))
        .sum();
    Schedule {
        serial_busy_s,
        efficiency: serial_busy_s / (threads as f64 * parallel_wall_s),
        critical_path_s,
        layers,
    }
}
