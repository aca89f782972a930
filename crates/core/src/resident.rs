//! Resident certification state: the per-network caches that let repeated
//! certification queries skip work a one-shot run redoes every time.
//!
//! A [`ResidentState`] owns, per neuron and per pass (`LpRelaxY` /
//! `LpRelaxX`), a `SubCache`: the encoded sub-network, the refined-neuron
//! set it was built for, and one simplex [`Basis`] per directed objective
//! from the previous query's sweep. Across queries the engine then
//!
//! 1. **re-parameterizes instead of re-encoding**: a new δ (or a small
//!    weight update) changes relaxation coefficients and RHS values but
//!    usually not the constraint *skeleton*; the cached encoding is replayed
//!    in place (`crate::encode::reencode_subnet`) and only rebuilt from
//!    scratch when the structure actually changed (counted in
//!    [`QueryStats::encoding_cache_misses`]);
//! 2. **warm-starts across queries**: each directed solve restores the basis
//!    the *previous query* stored for the same objective
//!    ([`QueryStats::cross_query_warm_hits`]). A repeated query finds it
//!    still optimal and takes no pivots. When a new δ or a fine-tuning step
//!    moved the RHS, the restored point may be primal infeasible; the
//!    bounded dual simplex repairs it in a few pivots instead of
//!    re-solving cold. Because a [`ResidentState`] can go on to a network's
//!    next weight version, this extends to **delta re-certification** after
//!    a fine-tuning step. Only a singular or misshapen basis, a repair that
//!    fails or hits the pivot cap, or a failed residual check re-solves cold
//!    ([`QueryStats::warm_misses`]).
//!
//! Both reuse layers are pure optimizations: replay verifies the skeleton
//! bit-for-bit and falls back to a fresh encode, and warm starts fall back
//! to cold solves, so resident results are bit-identical to a one-shot run
//! (asserted by the tests below and the golden suite). A one-shot run takes
//! the same path with an empty state and drops each neuron's caches as
//! soon as that neuron is done.

use crate::algorithm::{propagate_cached, validate, CertifyOptions, GlobalReport};
use crate::bounds::TwinBounds;
use crate::encode::{
    encode_subnet_refined, reencode_subnet, refined_for, EncodeOptions, EncodedSubNet, TargetKind,
    TargetOverride,
};
use crate::error::CertifyError;
use crate::ibp::ValuePreBounds;
use crate::interval::Interval;
use crate::query::{QueryStats, BASIS_SLOTS};
use crate::refine::RefinedSet;
use crate::subnet::SubNetwork;
use itne_milp::Basis;
use itne_nn::AffineNetwork;

/// One pass's artifacts for one neuron: the encoded sub-network, the refined
/// set that keys its structure, and the per-objective [`Basis`] slots the
/// previous query's sweep stored — the seeds the next query's directed
/// solves restore ([`crate::query::lp_relax`]).
#[derive(Clone)]
pub(crate) struct SubCache {
    pub(crate) enc: EncodedSubNet,
    pub(crate) refined: RefinedSet,
    pub(crate) bases: [Option<Basis>; BASIS_SLOTS],
}

/// Resident artifacts of one neuron: the `LpRelaxY` encoding and, when the
/// neuron ever needed an LP `LpRelaxX` pass, that encoding too.
#[derive(Clone, Default)]
pub(crate) struct NeuronCache {
    pub(crate) y: Option<SubCache>,
    pub(crate) x: Option<SubCache>,
}

/// All cached per-neuron state of one resident certification session.
///
/// A state is implicitly keyed by the `(network, domain, options)` triple it
/// was populated under; the serve layer keeps one per registered id and
/// `(window, refine)` shape. Using it with *changed* options or a perturbed
/// network is safe — every reuse is verified structurally and falls back to
/// fresh work — it only costs cache misses. Running the next query against
/// an updated network on the state the previous weights left is exactly the
/// delta re-certification warm start.
#[derive(Clone, Default)]
pub struct ResidentState {
    layers: Vec<Vec<Option<Box<NeuronCache>>>>,
}

impl ResidentState {
    /// An empty state: the first query populates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detaches layer `li`'s caches so the scheduler can move each neuron's
    /// cache into its task (single owner, no locking). Resizes to `width`
    /// (dropping stale caches) when the stored shape disagrees.
    pub(crate) fn take_layer(&mut self, li: usize, width: usize) -> Vec<Option<Box<NeuronCache>>> {
        if self.layers.len() <= li {
            self.layers.resize_with(li + 1, Vec::new);
        }
        let layer = &mut self.layers[li];
        if layer.len() != width {
            layer.clear();
            layer.resize_with(width, || None);
        }
        std::mem::take(layer)
    }

    /// Returns neuron `(li, j)`'s cache after its task finished.
    /// Results merge back in neuron index order, so this is a push.
    pub(crate) fn put(&mut self, li: usize, j: usize, cache: Option<Box<NeuronCache>>) {
        let layer = &mut self.layers[li];
        debug_assert_eq!(layer.len(), j, "cache returned out of index order");
        layer.push(cache);
    }
}

/// Readies `slot` for a solve against the current `bounds`: replays the
/// cached encoding in place when its structure (refined set + skeleton)
/// still matches, else encodes fresh (an empty slot — every slot of a
/// one-shot run — always encodes fresh). The stored bases survive either
/// way — a basis restore is shape-checked downstream and at worst re-runs
/// cold.
pub(crate) fn prepare_subcache<'c>(
    slot: &'c mut Option<SubCache>,
    sub: &SubNetwork<'_>,
    bounds: &TwinBounds,
    target: TargetKind,
    opts: &EncodeOptions,
    over: Option<TargetOverride>,
    stats: &mut QueryStats,
) -> &'c mut SubCache {
    let refined = refined_for(sub, bounds, target, opts);
    let hit = match slot.as_mut() {
        Some(sc) if sc.refined == refined => {
            reencode_subnet(&mut sc.enc, sub, bounds, target, opts, over, &refined)
        }
        _ => false,
    };
    if hit {
        stats.encoding_cache_hits += 1;
    } else {
        stats.encoding_cache_misses += 1;
        let bases = slot.take().map(|sc| sc.bases).unwrap_or_default();
        *slot = Some(SubCache {
            enc: encode_subnet_refined(sub, bounds, target, opts, over, &refined),
            refined,
            bases,
        });
    }
    slot.as_mut().expect("slot was just filled")
}

/// How many leading layers of a network `depth` layers deep two runs of
/// Algorithm 1 share when they differ only in their windows. Layer `i`
/// decomposes over `min(W, i + 1)` layers, so windows `W ≠ W′` pose the same
/// sub-problems, and certify the same ranges, on their first `min(W, W′)`
/// layers; two windows that both reach the depth ask the same query and
/// share every layer.
pub fn shared_layers(depth: usize, window: usize, other: usize) -> usize {
    if window.min(depth) == other.min(depth) {
        depth
    } else {
        window.min(other)
    }
}

/// [`crate::algorithm::certify_global_affine`] against resident state:
/// identical inputs produce bit-identical [`GlobalReport`]s, but repeated
/// queries reuse `state`'s encodings and bases (and `pre`, when given, skips
/// the δ-independent half of the IBP seed — it must come from
/// [`crate::ibp::ibp_values`] over the same network and domain).
///
/// `earlier`, when given, is an earlier answer's [`GlobalReport::bounds`]
/// and the window that answer used. It must come from a run over the same
/// network, domain and δ with the same options apart from the window
/// (refinement and certificate checking included). The run copies the
/// [`shared_layers`] leading layers from it, IBP-seeds the rest as always
/// and runs Algorithm 1 from the next layer, so its counters cover only the
/// layers it ran. Started from a cold run's answer, it equals a cold run
/// bit for bit.
///
/// # Errors
///
/// See [`crate::algorithm::certify_global`];
/// [`CertifyError::InvalidInput`] also when `earlier`'s window is 0 or its
/// shared layers are not shaped like the network's.
pub fn certify_global_resident(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &CertifyOptions,
    pre: Option<&ValuePreBounds>,
    state: &mut ResidentState,
    earlier: Option<(&TwinBounds, usize)>,
) -> Result<GlobalReport, CertifyError> {
    validate(aff, domain, delta, opts)?;
    let copied = match earlier {
        Some((bounds, window)) => {
            let layers = shared_layers(aff.layers.len(), opts.window, window);
            let fits = |v: &Vec<Vec<Interval>>| {
                v.len() >= layers
                    && v.iter()
                        .zip(&aff.layers)
                        .take(layers)
                        .all(|(b, l)| b.len() == l.width())
            };
            let shaped = [&bounds.y, &bounds.dy, &bounds.x, &bounds.dx]
                .into_iter()
                .all(fits);
            if window == 0 || !shaped {
                return Err(CertifyError::InvalidInput(
                    "the earlier answer does not fit this network".into(),
                ));
            }
            Some((bounds, layers))
        }
        None => None,
    };
    let domain: Vec<Interval> = domain
        .iter()
        .map(|&(lo, hi)| Interval::new(lo, hi))
        .collect();
    #[allow(clippy::disallowed_methods)]
    // lint:allow(wall-clock): telemetry only — wall time never feeds certified bounds
    let t0 = std::time::Instant::now();
    let (bounds, mut stats) = propagate_cached(aff, &domain, delta, opts, pre, Some(state), copied);
    // lint:allow(wall-clock): telemetry only — wall time never feeds certified bounds
    stats.wall = t0.elapsed();
    Ok(GlobalReport {
        epsilons: bounds.epsilons(),
        bounds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::certify_global_affine;
    use crate::example::{dense_net, fig1_affine};
    use crate::ibp::ibp_values;
    use itne_milp::Engine;

    fn perturbed(net: &AffineNetwork, magnitude: f64) -> AffineNetwork {
        let mut out = net.clone();
        let mut sign = 1.0;
        for l in &mut out.layers {
            for r in &mut l.rows {
                for t in &mut r.terms {
                    t.1 += sign * magnitude;
                    sign = -sign;
                }
                r.bias += sign * magnitude;
            }
        }
        out
    }

    fn bits(r: &GlobalReport) -> Vec<u64> {
        r.epsilons.iter().map(|e| e.to_bits()).collect()
    }

    #[test]
    fn resident_queries_match_cold_bitwise() {
        let net = dense_net(0xC0FFEE);
        let domain = [(-1.0, 1.0); 4];
        let opts = CertifyOptions {
            threads: 1,
            ..Default::default()
        };
        let dom_iv: Vec<Interval> = domain.iter().map(|&(l, h)| Interval::new(l, h)).collect();
        let pre = ibp_values(&net, &dom_iv);
        let mut state = ResidentState::new();
        for (i, delta) in [0.001, 0.002, 0.001, 0.0005].into_iter().enumerate() {
            let cold = certify_global_affine(&net, &domain, delta, &opts).unwrap();
            let res =
                certify_global_resident(&net, &domain, delta, &opts, Some(&pre), &mut state, None)
                    .unwrap();
            assert_eq!(bits(&cold), bits(&res), "ε̄ bits diverged at query {i}");
            assert_eq!(res.stats.query.cert_failures, 0);
            if i == 0 {
                assert!(res.stats.query.encoding_cache_misses > 0);
            } else {
                assert!(
                    res.stats.query.encoding_cache_hits > 0,
                    "repeat query never reused an encoding: {:?}",
                    res.stats.query
                );
                // Only the LU engine warm-starts; the dense oracle runs cold.
                assert!(
                    opts.solver.engine != Engine::Lu || res.stats.query.cross_query_warm_hits > 0,
                    "repeat query never warm-started from the basis store: {:?}",
                    res.stats.query
                );
            }
        }
        // Revisiting an earlier δ must also still match its cold run.
        let cold = certify_global_affine(&net, &domain, 0.002, &opts).unwrap();
        let res =
            certify_global_resident(&net, &domain, 0.002, &opts, Some(&pre), &mut state, None)
                .unwrap();
        assert_eq!(bits(&cold), bits(&res));
    }

    /// The ISSUE acceptance criterion: after a ≤ 1e-3 weight perturbation,
    /// re-certifying with the predecessor's cloned resident state takes
    /// strictly fewer total pivots than a cold run of the perturbed net —
    /// while producing bit-identical bounds.
    #[test]
    fn delta_recertification_pivots_strictly_fewer_than_cold() {
        let net = dense_net(0xBADA55);
        let domain = [(-1.0, 1.0); 4];
        let opts = CertifyOptions {
            threads: 1,
            ..Default::default()
        };
        let dom_iv: Vec<Interval> = domain.iter().map(|&(l, h)| Interval::new(l, h)).collect();

        // Build up resident state on the original net.
        let pre = ibp_values(&net, &dom_iv);
        let mut state = ResidentState::new();
        certify_global_resident(&net, &domain, 0.001, &opts, Some(&pre), &mut state, None).unwrap();

        // Fine-tuning step: perturb every weight by 1e-4 (≤ 1e-3).
        let tuned = perturbed(&net, 1e-4);
        let cold = certify_global_affine(&tuned, &domain, 0.001, &opts).unwrap();

        // Delta path: clone the predecessor session's state, rebuild only
        // bounds/RHS, warm-start every sweep from its stored bases.
        let tuned_pre = ibp_values(&tuned, &dom_iv);
        let mut delta_state = state.clone();
        let warm = certify_global_resident(
            &tuned,
            &domain,
            0.001,
            &opts,
            Some(&tuned_pre),
            &mut delta_state,
            None,
        )
        .unwrap();

        assert_eq!(
            bits(&cold),
            bits(&warm),
            "delta path changed certified bits"
        );
        assert_eq!(warm.stats.query.cert_failures, 0);
        // Only the LU engine warm-starts; the dense oracle runs cold.
        if opts.solver.engine == Engine::Lu {
            assert!(
                warm.stats.query.pivots < cold.stats.query.pivots,
                "delta re-certification did not save pivots: warm {} vs cold {}",
                warm.stats.query.pivots,
                cold.stats.query.pivots
            );
            assert!(
                warm.stats.query.cross_query_warm_hits > 0,
                "delta path never used the predecessor's bases: {:?}",
                warm.stats.query
            );
        }
    }

    /// A W = 3 run that starts from a W = 2 answer copies the two layers
    /// both windows share: it equals a cold W = 3 run bit for bit and runs no
    /// sub-problem on the copied layers. Every window at or past the depth
    /// asks the W = depth query, so such a run copies every layer.
    #[test]
    fn a_run_starts_from_the_layers_another_window_certified() {
        let net = dense_net(0x5A4ED);
        let domain = [(-1.0, 1.0); 4];
        let at = |window| CertifyOptions {
            window,
            threads: 1,
            ..Default::default()
        };
        let cold = |window| certify_global_affine(&net, &domain, 1e-3, &at(window)).unwrap();
        let from = |window, earlier: &GlobalReport, earlier_window| {
            let mut state = ResidentState::new();
            let earlier = Some((&earlier.bounds, earlier_window));
            certify_global_resident(&net, &domain, 1e-3, &at(window), None, &mut state, earlier)
                .unwrap()
        };
        assert_eq!(shared_layers(3, 3, 2), 2);
        let (w2, w3) = (cold(2), cold(3));
        let started = from(3, &w2, 2);
        assert_eq!(started.bounds, w3.bounds);
        assert_eq!(bits(&started), bits(&w3));
        assert_eq!(started.stats.query.cert_failures, 0);
        // One LpRelaxY sweep per output of the affine last layer, and no
        // other sub-problem.
        assert_eq!(started.stats.subproblems, net.layers[2].width() as u64);
        assert!(started.stats.query.solves > 0);
        assert!(started.stats.query.solves < w3.stats.query.solves);

        assert_eq!(shared_layers(3, 5, 3), 3);
        assert_eq!(cold(5).bounds, w3.bounds);
        let repeat = from(5, &w3, 3);
        assert_eq!(repeat.bounds, w3.bounds);
        assert_eq!(
            (repeat.stats.subproblems, repeat.stats.query.solves),
            (0, 0)
        );
    }

    /// An earlier answer shaped for another network is refused, as is a
    /// window of 0.
    #[test]
    fn an_earlier_answer_of_another_shape_is_rejected() {
        let net = dense_net(0x5A4ED);
        let domain = [(-1.0, 1.0); 4];
        let opts = CertifyOptions {
            window: 3,
            threads: 1,
            ..Default::default()
        };
        let other = certify_global_affine(&fig1_affine(), &[(-1.0, 1.0); 2], 1e-3, &opts)
            .unwrap()
            .bounds;
        let own = certify_global_affine(&net, &domain, 1e-3, &opts)
            .unwrap()
            .bounds;
        for earlier in [(&other, 2), (&own, 0)] {
            let got = certify_global_resident(
                &net,
                &domain,
                1e-3,
                &opts,
                None,
                &mut ResidentState::new(),
                Some(earlier),
            );
            assert!(matches!(got, Err(CertifyError::InvalidInput(_))));
        }
    }

    /// Resident certification is thread-count invariant like the one-shot
    /// path, on a net wider than the pool and at refine 2 so that
    /// branch-and-bound runs: a first and a repeated query return the
    /// serial run's bits for every bound and its work counters at every
    /// thread count, and match the cold run.
    #[test]
    fn resident_parallel_matches_serial() {
        let net = dense_net(0x7EA5);
        let domain = [(-1.0, 1.0); 4];
        let at = |threads| CertifyOptions {
            threads,
            refine: 2,
            ..Default::default()
        };
        let run = |threads| {
            let opts = at(threads);
            let mut state = ResidentState::new();
            let first = certify_global_resident(&net, &domain, 1e-3, &opts, None, &mut state, None)
                .unwrap();
            let second =
                certify_global_resident(&net, &domain, 1e-3, &opts, None, &mut state, None)
                    .unwrap();
            [first, second]
        };
        let serial = run(1);
        let cold = certify_global_affine(&net, &domain, 1e-3, &at(1)).unwrap();
        assert!(
            serial[0].stats.query.nodes > 0,
            "{:?}",
            serial[0].stats.query
        );
        assert!(serial[1].stats.query.encoding_cache_hits > 0);
        for r in &serial {
            assert_eq!(cold.bounds.bits(), r.bounds.bits());
        }
        for threads in [2usize, 3, 8] {
            for (a, b) in serial.iter().zip(&run(threads)) {
                assert_eq!(a.bounds.bits(), b.bounds.bits(), "threads = {threads}");
                let (a, b) = (a.stats, b.stats);
                assert_eq!(a.subproblems, b.subproblems, "threads = {threads}");
                assert_eq!(
                    a.closed_form_hits, b.closed_form_hits,
                    "threads = {threads}"
                );
                assert_eq!(a.query, b.query, "threads = {threads}");
            }
        }
    }
}
