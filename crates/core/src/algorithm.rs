//! The efficient global robustness over-approximation algorithm
//! (paper Algorithm 1), generalized over encoding kind, window, relaxation
//! and refinement so that every baseline and ablation shares one engine.
//!
//! Layer by layer, neuron by neuron (optionally in parallel — the paper's
//! stated future work), the engine decomposes the network into window-`W`
//! sub-networks, encodes them, and derives the ranges `(y, Δy)` via
//! `LpRelaxY` then `(x, Δx)` via `LpRelaxX`. The final layer's `Δx` ranges
//! yield `ε̄ = max(|Δx⁽ⁿ⁾.lo|, |Δx⁽ⁿ⁾.hi|)` per output.
//!
//! Parallelism runs on the deterministic work-stealing executor in
//! `crate::schedule`: each neuron contributes an `LpRelaxY` sweep task
//! that may spawn its `LpRelaxX` follow-up, idle workers steal units from
//! busy ones (so one expensive conv-window neuron no longer idles the rest
//! of the pool at the layer barrier), and results merge back by neuron
//! index — bit-identical bounds at every thread count and steal schedule.

use crate::bounds::TwinBounds;
use crate::encode::{EncodeOptions, EncodingKind, Relaxation, TargetKind, TargetOverride};
use crate::error::CertifyError;
use crate::ibp::{ibp_twin, ibp_twin_from_values, ValuePreBounds};
use crate::interval::Interval;
use crate::query::{lp_relax, QueryStats};
use crate::resident::{prepare_subcache, NeuronCache, ResidentState};
use crate::schedule::{run_steal, Step};
use crate::subnet::SubNetwork;
use itne_milp::{Engine, SolveOptions};
use itne_nn::{AffineNetwork, Network};
use std::time::{Duration, Instant};

/// Configuration of the certification engine.
#[derive(Clone, Debug)]
pub struct CertifyOptions {
    /// Window size `W` (sub-network depth). The effective window for layer
    /// `i` is `min(W, i+1)`.
    pub window: usize,
    /// Twin encoding for the certification (the contribution is
    /// [`EncodingKind::Itne`]; [`EncodingKind::Btne`] reproduces the
    /// baseline).
    pub encoding: EncodingKind,
    /// Exact (MILP) or relaxed (LP) treatment of unstable ReLUs per
    /// sub-problem. `Exact` + small window = the paper's "ND"; `Lpr` +
    /// window = Algorithm 1.
    pub relaxation: Relaxation,
    /// Number of selectively-refined neurons per sub-problem (under `Lpr`).
    pub refine: usize,
    /// Extension (default off = paper-faithful): y-aware distance bounds.
    pub y_aware_distance: bool,
    /// Skip `LpRelaxX` solves whose LP optimum has a provably equal closed
    /// form (pure engineering; results are identical — see the
    /// `closed_form_equals_lp` test).
    pub closed_form_x: bool,
    /// Worker threads for the per-neuron loop (1 = serial). Work runs on
    /// the deterministic work-stealing executor (`crate::schedule`): each
    /// neuron's `LpRelaxY` sweep and `LpRelaxX` follow-up are separate task
    /// units, idle workers steal queued units from busy ones, and results
    /// merge back by neuron index — so bounds are bit-identical for every
    /// thread count and steal schedule. Neurons of a layer only read the
    /// previous layers' bounds, and each worker runs its own warm-start
    /// chains, so batching composes with parallelism with no shared solver
    /// state.
    ///
    /// [`CertifyOptions::default`] reads the `ITNE_TEST_THREADS` environment
    /// variable (once, at first use) so CI can pin the whole test suite to a
    /// specific count; unset or invalid falls back to the machine's
    /// available parallelism, capped at 8.
    pub threads: usize,
    /// Validate every certified LP bound in exact rational arithmetic
    /// against the solver's dual certificate before trusting it; a failed
    /// check falls back to the sound IBP range (counted in
    /// [`crate::query::QueryStats::cert_failures`]).
    ///
    /// [`CertifyOptions::default`] reads the `ITNE_CHECK_CERTS` environment
    /// variable (once, at first use); unset, `0`, `false`, or `off` means
    /// disabled.
    pub check_certificates: bool,
    /// Per-solve limits, engine, warm-start switch and stop signal. The
    /// per-neuron loop polls [`SolveOptions::stop`] before every solve, so a
    /// deadline for the whole run is a stop signal built by
    /// [`crate::deadline::stop_at`] (or [`crate::deadline::solver_with_budget`]);
    /// once it fires, the remaining neurons keep their sound IBP ranges (the
    /// result stays sound, only looser).
    pub solver: SolveOptions,
}

/// Default worker-thread count: `ITNE_TEST_THREADS` when set to a sane
/// value, else the machine's available parallelism capped at 8 (the
/// per-neuron loop saturates around there on the paper's workloads; beyond
/// it the extra workers mostly contend for memory bandwidth). Read once —
/// the certifier is deterministic across thread counts, so this only
/// changes *how* a run executes, never its results.
fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("ITNE_TEST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| (1..=64).contains(&t))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get().min(8))
                    .unwrap_or(1)
            })
    })
}

/// Default LP engine: `ITNE_TEST_ENGINE` (`lu` or `dense`) when set, else
/// the solver's own default ([`Engine::Lu`]). Read once — the golden and
/// metamorphic suites certify identical ε̄ bits whichever engine runs, so CI
/// forces the dense oracle through the whole pipeline this way.
fn default_engine() -> Engine {
    static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
    *ENGINE.get_or_init(|| match std::env::var("ITNE_TEST_ENGINE").as_deref() {
        Ok("lu") => Engine::Lu,
        Ok("dense") => Engine::Dense,
        _ => Engine::default(),
    })
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            window: 2,
            encoding: EncodingKind::Itne,
            relaxation: Relaxation::Lpr,
            refine: 0,
            y_aware_distance: false,
            closed_form_x: true,
            threads: default_threads(),
            check_certificates: crate::query::default_check_certificates(),
            solver: SolveOptions {
                // Per-query budget: a rare degenerate-stalling LP must not
                // dominate the run — it falls back to the sound IBP range
                // (counted in `CertifyStats::query::fallbacks`).
                max_pivots: 30_000,
                engine: default_engine(),
                ..SolveOptions::default()
            },
        }
    }
}

impl CertifyOptions {
    /// The paper's headline configuration: ITNE + LPR with the given window
    /// and per-sub-problem refinement count.
    pub fn paper(window: usize, refine: usize) -> Self {
        CertifyOptions {
            window,
            refine,
            ..Default::default()
        }
    }

    fn encode_options(&self, delta: f64) -> EncodeOptions {
        EncodeOptions {
            kind: self.encoding,
            relax: self.relaxation,
            refine: self.refine,
            y_aware_distance: self.y_aware_distance,
            delta,
        }
    }
}

/// Work counters and timing for one certification run.
#[derive(Copy, Clone, Debug, Default)]
pub struct CertifyStats {
    /// Accumulated query counters: LP solves, pivots, nodes, IBP fallbacks,
    /// the warm-start sweep telemetry (`warm_hits`, `warm_misses`,
    /// `pivots_saved`) of the batched LP subsystem, and the sparse-engine
    /// factorization telemetry (`refactorizations`, peak `eta_len`, and the
    /// worst-case matrix `nnz`).
    pub query: QueryStats,
    /// Sub-problems processed (one per neuron per pass).
    pub subproblems: u64,
    /// `LpRelaxX` solves replaced by their provably-equal closed form.
    pub closed_form_hits: u64,
    /// Wall-clock time.
    pub wall: Duration,
}

/// The result of a global robustness certification.
#[derive(Clone, Debug)]
pub struct GlobalReport {
    /// `ε̄` per network output: the certified output variation bound.
    pub epsilons: Vec<f64>,
    /// All derived ranges (inputs to further analysis, e.g. the case study).
    pub bounds: TwinBounds,
    /// Work counters.
    pub stats: CertifyStats,
}

impl GlobalReport {
    /// The certified bound for output `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn epsilon(&self, j: usize) -> f64 {
        self.epsilons[j]
    }

    /// The largest certified bound across outputs.
    pub fn max_epsilon(&self) -> f64 {
        self.epsilons.iter().fold(0.0f64, |m, &e| m.max(e))
    }
}

/// Certifies `(δ, ε)`-global robustness of `net` over the box `domain`,
/// returning the minimal certified `ε̄` per output (Problem 1).
///
/// # Errors
///
/// [`CertifyError::InvalidInput`] for dimension mismatches, a malformed
/// domain, a non-finite weight or bias, or a negative `delta` (see
/// [`validate_network`]); [`CertifyError::Lower`] if the network cannot be
/// lowered.
pub fn certify_global(
    net: &Network,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &CertifyOptions,
) -> Result<GlobalReport, CertifyError> {
    let aff = AffineNetwork::from_network(net).map_err(CertifyError::Lower)?;
    certify_global_affine(&aff, domain, delta, opts)
}

/// [`certify_global`] on an already-lowered network.
///
/// # Errors
///
/// See [`certify_global`].
pub fn certify_global_affine(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &CertifyOptions,
) -> Result<GlobalReport, CertifyError> {
    validate(aff, domain, delta, opts)?;
    let domain: Vec<Interval> = domain
        .iter()
        .map(|&(lo, hi)| Interval::new(lo, hi))
        .collect();
    #[allow(clippy::disallowed_methods)]
    // lint:allow(wall-clock): telemetry only — wall time never feeds certified bounds
    let t0 = Instant::now();
    let (bounds, mut stats) = propagate(aff, &domain, delta, opts);
    // lint:allow(wall-clock): telemetry only — wall time never feeds certified bounds
    stats.wall = t0.elapsed();
    Ok(GlobalReport {
        epsilons: bounds.epsilons(),
        bounds,
        stats,
    })
}

pub(crate) fn validate(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    opts: &CertifyOptions,
) -> Result<(), CertifyError> {
    validate_network(aff, domain)?;
    validate_query(delta, opts.window)
}

/// Checks the per-query parameters of a certification: `delta` is a number
/// `≥ 0` and the window has at least one layer. The certifier runs it on
/// every call; a service can run it before a query touches any cached
/// state.
///
/// # Errors
///
/// [`CertifyError::InvalidInput`] naming the first problem found.
pub fn validate_query(delta: f64, window: usize) -> Result<(), CertifyError> {
    validate_delta(delta)?;
    if window == 0 {
        return Err(CertifyError::InvalidInput("window must be ≥ 1".into()));
    }
    Ok(())
}

/// The δ half of [`validate_query`], for the entry points that take no
/// window: `delta` is a number `≥ 0`.
pub(crate) fn validate_delta(delta: f64) -> Result<(), CertifyError> {
    if delta.is_nan() || delta < 0.0 {
        return Err(CertifyError::InvalidInput(format!(
            "delta must be ≥ 0, got {delta}"
        )));
    }
    Ok(())
}

/// Checks a local query's network and sample before anything is built from
/// them: the sample `x0` matches the network's input and is finite, and
/// the network passes [`validate_network`] over `domain`, or over the
/// sample's own zero-width box when there is no domain.
pub(crate) fn validate_local(
    aff: &AffineNetwork,
    x0: &[f64],
    domain: Option<&[(f64, f64)]>,
) -> Result<(), CertifyError> {
    if x0.len() != aff.input_dim {
        return Err(CertifyError::InvalidInput(format!(
            "sample has {} dims, network input is {}",
            x0.len(),
            aff.input_dim
        )));
    }
    if x0.iter().any(|v| !v.is_finite()) {
        return Err(CertifyError::InvalidInput("sample must be finite".into()));
    }
    let point: Vec<(f64, f64)> = x0.iter().map(|&v| (v, v)).collect();
    validate_network(aff, domain.unwrap_or(&point))
}

/// Checks a network and its input domain before anything is built from
/// them: the domain matches the input dimension and is a finite, ordered
/// box, the network has layers, and every weight and bias is finite. A NaN
/// or infinite parameter would otherwise flow into the interval bounds and
/// the LP data, where it surfaces as a silently wrong ε̄ or a solve that
/// never ends.
///
/// # Errors
///
/// [`CertifyError::InvalidInput`] naming the first problem found.
pub fn validate_network(aff: &AffineNetwork, domain: &[(f64, f64)]) -> Result<(), CertifyError> {
    if domain.len() != aff.input_dim {
        return Err(CertifyError::InvalidInput(format!(
            "domain has {} dimensions, network input is {}",
            domain.len(),
            aff.input_dim
        )));
    }
    if domain
        .iter()
        .any(|&(lo, hi)| !lo.is_finite() || !hi.is_finite() || lo > hi)
    {
        return Err(CertifyError::InvalidInput(
            "domain box must be finite and ordered".into(),
        ));
    }
    if aff.layers.is_empty() {
        return Err(CertifyError::InvalidInput("network has no layers".into()));
    }
    for (li, layer) in aff.layers.iter().enumerate() {
        for (j, row) in layer.rows.iter().enumerate() {
            if !row.bias.is_finite() || row.terms.iter().any(|&(_, c)| !c.is_finite()) {
                return Err(CertifyError::InvalidInput(format!(
                    "layer {li} neuron {j} has a non-finite weight or bias"
                )));
            }
        }
    }
    Ok(())
}

/// The engine: runs the layered range derivation and returns the tightened
/// bounds. This is Algorithm 1 when `opts` = ITNE/LPR, the ND baseline when
/// `opts.relaxation = Exact`, and the BTNE baseline when
/// `opts.encoding = Btne`.
pub fn propagate(
    aff: &AffineNetwork,
    domain: &[Interval],
    delta: f64,
    opts: &CertifyOptions,
) -> (TwinBounds, CertifyStats) {
    propagate_cached(aff, domain, delta, opts, None, None, None)
}

/// [`propagate`] with optional resident cache state. There is one path: a
/// one-shot run is a resident run with an empty state that keeps nothing.
/// `pre` skips the δ-independent half of the IBP seed (it must come from
/// [`crate::ibp::ibp_values`] over the same network and domain); `resident`
/// reuses per-neuron encodings and basis snapshots across calls and stores
/// the updated state back, which is the engine behind
/// [`crate::resident::certify_global_resident`]. Without it, each neuron's
/// cache is dropped as soon as its task chain finishes. `copied` is an
/// earlier answer's bounds and how many leading layers of it this run
/// shares ([`crate::resident::shared_layers`]): those layers are copied over
/// their IBP seeds, and Algorithm 1 runs from the next layer.
pub(crate) fn propagate_cached(
    aff: &AffineNetwork,
    domain: &[Interval],
    delta: f64,
    opts: &CertifyOptions,
    pre: Option<&ValuePreBounds>,
    mut resident: Option<&mut ResidentState>,
    copied: Option<(&TwinBounds, usize)>,
) -> (TwinBounds, CertifyStats) {
    // IBP seeds every range soundly (Algorithm 1 lines 1-2 plus the
    // pre-pass that makes the relaxation ranges and big-M constants valid).
    let mut bounds = match pre {
        Some(p) => ibp_twin_from_values(aff, domain, delta, p),
        None => ibp_twin(aff, domain, delta),
    };
    if opts.encoding == EncodingKind::Btne {
        bounds.decouple_distances();
    }
    let first = copied.map_or(0, |(earlier, layers)| {
        for li in 0..layers {
            bounds.y[li].clone_from(&earlier.y[li]);
            bounds.dy[li].clone_from(&earlier.dy[li]);
            bounds.x[li].clone_from(&earlier.x[li]);
            bounds.dx[li].clone_from(&earlier.dx[li]);
        }
        layers
    });
    let caching = resident.is_some();
    let mut stats = CertifyStats::default();

    for li in first..aff.layers.len() {
        let width = aff.layers[li].width();
        let caches: Vec<Option<Box<NeuronCache>>> = match resident.as_deref_mut() {
            Some(r) => r.take_layer(li, width),
            None => (0..width).map(|_| None).collect(),
        };
        let initial: Vec<LayerTask<'_>> = caches
            .into_iter()
            .enumerate()
            .map(|(j, cache)| LayerTask::Sweep { j, cache })
            .collect();
        let (results, accs) = run_steal(opts.threads, initial, width, |task, acc| {
            run_task(aff, &bounds, li, delta, opts, caching, task, acc)
        });
        for (j, r) in results.into_iter().enumerate() {
            bounds.y[li][j] = r.y;
            bounds.dy[li][j] = r.dy;
            bounds.x[li][j] = r.x;
            bounds.dx[li][j] = r.dx;
            if let Some(rs) = resident.as_deref_mut() {
                rs.put(li, j, r.cache);
            }
        }
        // Worker order, but every merge is order-insensitive (saturating
        // sums / maxes), so the totals are schedule-invariant.
        for acc in accs {
            stats.query.absorb(acc.stats);
            stats.subproblems = stats.subproblems.saturating_add(acc.subproblems);
            stats.closed_form_hits = stats.closed_form_hits.saturating_add(acc.closed_form);
        }
    }
    (bounds, stats)
}

/// One schedulable unit of the per-layer loop: a neuron's `LpRelaxY` sweep,
/// or the `LpRelaxX` follow-up it spawned (kept separate so an idle worker
/// can steal the X part of a neighboring neuron while its Y owner is still
/// deep in another unit). Each unit carries the neuron's cache by value
/// (`None` before a first touch), so cached state needs no locking:
/// exactly one worker owns a neuron's cache at any time.
enum LayerTask<'a> {
    Sweep {
        j: usize,
        cache: Option<Box<NeuronCache>>,
    },
    Post {
        j: usize,
        sub: SubNetwork<'a>,
        yr: Interval,
        dyr: Interval,
        cache: Box<NeuronCache>,
    },
}

/// The per-neuron ranges a task chain finishes with; merged into
/// [`TwinBounds`] by neuron index (the task's slot), the cache handed back
/// to the [`ResidentState`] (`None` when the run keeps no caches).
struct NeuronResult {
    y: Interval,
    dy: Interval,
    x: Interval,
    dx: Interval,
    cache: Option<Box<NeuronCache>>,
}

/// Per-worker telemetry accumulator, merged once at the join instead of
/// per-neuron through a shared lock.
#[derive(Default)]
struct WorkerAcc {
    stats: QueryStats,
    subproblems: u64,
    closed_form: u64,
}

/// Lines 5-11 of Algorithm 1 as scheduler steps. `Sweep` decomposes,
/// encodes and runs `LpRelaxY`; it finishes the neuron inline when no
/// `LpRelaxX` solve is needed (affine layer, or the provably-equal closed
/// form) and otherwise spawns the `Post` follow-up carrying the fresh
/// `(y, Δy)` ranges into the `LpRelaxX` solve. Both passes ready the
/// neuron's cached encoding ([`prepare_subcache`]) and sweep it with its
/// basis slots; a finished chain hands the cache back only when
/// `caching` is set, and otherwise drops it on the spot.
#[allow(clippy::too_many_arguments)]
fn run_task<'a>(
    aff: &'a AffineNetwork,
    bounds: &TwinBounds,
    li: usize,
    delta: f64,
    opts: &CertifyOptions,
    caching: bool,
    task: LayerTask<'a>,
    acc: &mut WorkerAcc,
) -> Step<LayerTask<'a>, NeuronResult> {
    let enc_opts = opts.encode_options(delta);
    let solver = &opts.solver;
    let check = opts.check_certificates;
    let done = |j, y, dy, x, dx, cache| Step::Done {
        slot: j,
        result: NeuronResult {
            y,
            dy,
            x,
            dx,
            cache: caching.then_some(cache),
        },
    };
    match task {
        LayerTask::Sweep { j, cache } => {
            let sub = SubNetwork::decompose(aff, li, j, opts.window);
            let mut cache = cache.unwrap_or_default();

            // --- LpRelaxY: ranges of (y, Δy). ---
            let target = TargetKind::PreActivation;
            let sc = prepare_subcache(
                &mut cache.y,
                &sub,
                bounds,
                target,
                &enc_opts,
                None,
                &mut acc.stats,
            );
            let fallbacks = [bounds.y[li][j], bounds.dy[li][j]];
            let (yr, dyr) = lp_relax(
                &mut sc.enc,
                target,
                fallbacks,
                solver,
                check,
                &mut sc.bases,
                &mut acc.stats,
            );
            acc.subproblems = acc.subproblems.saturating_add(1);

            if !aff.layers[li].relu {
                done(j, yr, dyr, yr, dyr, cache)
            } else if opts.closed_form_x
                && closed_form::closed_form_applies(&sub, bounds, yr, dyr, opts, &enc_opts)
            {
                acc.closed_form = acc.closed_form.saturating_add(1);
                let (x, dx) = closed_form::closed_form_x(yr, dyr, opts.encoding);
                done(j, yr, dyr, x, dx, cache)
            } else {
                Step::Follow(LayerTask::Post {
                    j,
                    sub,
                    yr,
                    dyr,
                    cache,
                })
            }
        }

        // --- LpRelaxX: ranges of (x, Δx). ---
        LayerTask::Post {
            j,
            sub,
            yr,
            dyr,
            mut cache,
        } => {
            acc.subproblems = acc.subproblems.saturating_add(1);
            // Thread the freshly-derived target ranges through so the
            // target's own relaxation uses them rather than the stale
            // stored ones.
            let over = TargetOverride {
                y: yr,
                dy: dyr,
                x: yr.relu(),
                dx: closed_form::fallback_dx(yr, dyr, opts.encoding),
            };
            let target = TargetKind::PostActivation;
            let sc = prepare_subcache(
                &mut cache.x,
                &sub,
                bounds,
                target,
                &enc_opts,
                Some(over),
                &mut acc.stats,
            );
            let (x, dx) = lp_relax(
                &mut sc.enc,
                target,
                [over.x, over.dx],
                solver,
                check,
                &mut sc.bases,
                &mut acc.stats,
            );
            done(j, yr, dyr, x, dx, cache)
        }
    }
}

pub mod closed_form {
    //! The closed form of the `LpRelaxX` optimum. Where it provably equals
    //! the LP's answer ([`closed_form_applies`]), the certifier substitutes
    //! [`closed_form_x`] for the solve (see
    //! [`CertifyOptions::closed_form_x`]); [`fallback_dx`] is the sound `Δx`
    //! interval every `LpRelaxX` solve is clipped to. Exported so an outside
    //! replay of Algorithm 1 applies the same rule.

    use super::CertifyOptions;
    use crate::bounds::TwinBounds;
    use crate::encode::{EncodeOptions, EncodingKind, Relaxation, TargetKind};
    use crate::interval::{distance_relaxation_bounds, relu_distance_range, Interval};
    use crate::refine::select_refined;
    use crate::subnet::SubNetwork;

    /// Sound fallback for the target's `Δx` given fresh `(y, Δy)` ranges.
    pub fn fallback_dx(yr: Interval, dyr: Interval, kind: EncodingKind) -> Interval {
        match kind {
            EncodingKind::Single => Interval::point(0.0),
            EncodingKind::Itne => relu_distance_range(yr, dyr),
            EncodingKind::Btne => {
                // Decoupled copies: Δx ranges over x̂_range − x_range.
                let x = yr.relu();
                Interval::new(x.lo - x.hi, x.hi - x.lo)
            }
        }
    }

    /// Whether the `LpRelaxX` optimum equals the closed form (ITNE/Single,
    /// LPR, target unrefined, paper-faithful distance relaxation, and a
    /// phase combination whose relaxed LP optimum is attained at the range
    /// corners).
    pub fn closed_form_applies(
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
            return false; // input-coupled windows make the LP strictly tighter
        }
        // The target itself must not be selectively refined.
        if opts.refine > 0 {
            let layer = sub.cone.layer;
            let target = sub.target();
            let refined = select_refined(sub, bounds, TargetKind::PostActivation, enc_opts);
            if refined.contains(&(layer, target)) {
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
                // Mixed phases admit exact linear couplings (x̂ = ŷ etc.)
                // that make the LP strictly tighter than the corner formula,
                // so only the two symmetric cases use the closed form.
                both_stable || both_unstable
            }
            EncodingKind::Btne => false,
        }
    }

    /// The closed form of the `LpRelaxX` LP optimum (see
    /// [`closed_form_applies`]): `x = relu(y)` ranges and the Eq. 6 corner
    /// box for `Δx` (or `Δy` when both copies are provably active).
    ///
    /// # Panics
    ///
    /// Panics under [`EncodingKind::Btne`], where the closed form never
    /// applies.
    pub fn closed_form_x(yr: Interval, dyr: Interval, kind: EncodingKind) -> (Interval, Interval) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::{fig1_affine, fig1_network};

    const DOM: [(f64, f64); 2] = [(-1.0, 1.0), (-1.0, 1.0)];

    /// Fig. 4 "Interleaving ND" row: window-1 exact sub-networks give
    /// Δx⁽¹⁾ ∈ [-0.15, 0.15]², Δx⁽²⁾ ∈ [-0.3, 0.3] → ε = 0.3 (1.5× exact).
    #[test]
    fn fig4_itne_nd_row() {
        let net = fig1_network();
        let opts = CertifyOptions {
            window: 1,
            relaxation: Relaxation::Exact,
            ..Default::default()
        };
        let r = certify_global(&net, &DOM, 0.1, &opts).unwrap();
        for j in 0..2 {
            let d = r.bounds.dx[0][j];
            assert!(
                (d.lo + 0.15).abs() < 1e-5 && (d.hi - 0.15).abs() < 1e-5,
                "Δx⁽¹⁾ {d}"
            );
        }
        assert!((r.epsilon(0) - 0.3).abs() < 1e-5, "ε = {}", r.epsilon(0));
    }

    /// Fig. 4 "Basic Encoding ND" row: distance information is lost between
    /// sub-networks, giving Δx⁽²⁾ ∈ [-1.5, 1.5] → ε = 1.5 (7.5× exact).
    #[test]
    fn fig4_btne_nd_row() {
        let net = fig1_network();
        let opts = CertifyOptions {
            window: 1,
            encoding: EncodingKind::Btne,
            relaxation: Relaxation::Exact,
            ..Default::default()
        };
        let r = certify_global(&net, &DOM, 0.1, &opts).unwrap();
        assert!((r.epsilon(0) - 1.5).abs() < 1e-5, "ε = {}", r.epsilon(0));
        // Per-copy ranges stay exact: x⁽¹⁾ ∈ [0, 1.5].
        assert!((r.bounds.x[0][0].hi - 1.5).abs() < 1e-5);
    }

    /// Algorithm 1 defaults (ITNE + LPR, W = 2) on the example give
    /// ε = 0.25 — *tighter* than Fig. 4's one-shot LPR value 0.275, because
    /// `LpRelaxX` reuses the fresh `Δy⁽²⁾ ∈ [-0.25, 0.25]` from `LpRelaxY`
    /// (Algorithm 1 lines 8 → 11) instead of the IBP range `[-0.3, 0.3]`
    /// that the §II-D illustration relaxes against.
    #[test]
    fn algorithm1_default_matches_lpr() {
        let net = fig1_network();
        let r = certify_global(&net, &DOM, 0.1, &CertifyOptions::default()).unwrap();
        assert!((r.epsilon(0) - 0.25).abs() < 1e-5, "ε = {}", r.epsilon(0));
        let dy_out = r.bounds.dy[1][0];
        assert!((dy_out.hi - 0.25).abs() < 1e-5, "Δy⁽²⁾ {dy_out}");
        assert!(r.stats.query.fallbacks == 0);
    }

    /// The closed-form LpRelaxX fast path is bit-identical to solving the LP.
    #[test]
    fn closed_form_equals_lp() {
        let net = fig1_network();
        for refine in [0usize, 1, 2] {
            let mk = |closed: bool| CertifyOptions {
                closed_form_x: closed,
                refine,
                ..Default::default()
            };
            let a = certify_global(&net, &DOM, 0.1, &mk(true)).unwrap();
            let b = certify_global(&net, &DOM, 0.1, &mk(false)).unwrap();
            for (da, db) in a
                .bounds
                .dx
                .iter()
                .flatten()
                .zip(b.bounds.dx.iter().flatten())
            {
                assert!(
                    (da.lo - db.lo).abs() < 1e-6 && (da.hi - db.hi).abs() < 1e-6,
                    "closed form {da} vs LP {db} (refine {refine})"
                );
            }
            assert!(a.stats.closed_form_hits > 0 || refine > 0);
        }
    }

    /// A one-shot run is a resident run whose state is empty and kept by
    /// nobody: every sub-problem encodes fresh and no basis survives into a
    /// later query.
    #[test]
    fn one_shot_runs_keep_nothing_across_queries() {
        let aff = fig1_affine();
        for _ in 0..2 {
            let r = certify_global_affine(&aff, &DOM, 0.1, &CertifyOptions::default()).unwrap();
            let q = r.stats.query;
            assert_eq!(q.cross_query_warm_hits, 0, "{q:?}");
            assert_eq!(q.encoding_cache_hits, 0, "{q:?}");
            assert_eq!(q.encoding_cache_misses, r.stats.subproblems, "{q:?}");
        }
    }

    /// Parallel execution returns bit-identical bounds at every thread
    /// count, with schedule-invariant work counters.
    #[test]
    fn parallel_matches_serial() {
        let net = fig1_network();
        let serial_opts = CertifyOptions {
            threads: 1,
            ..Default::default()
        };
        let serial = certify_global(&net, &DOM, 0.1, &serial_opts).unwrap();
        for threads in [2usize, 3, 8] {
            let parallel = certify_global(
                &net,
                &DOM,
                0.1,
                &CertifyOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            for (a, b) in serial.epsilons.iter().zip(&parallel.epsilons) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
            assert_eq!(
                serial.stats.subproblems, parallel.stats.subproblems,
                "threads = {threads}"
            );
            assert_eq!(
                serial.stats.query.solves, parallel.stats.query.solves,
                "threads = {threads}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(12))]
        /// Forced randomized steal schedules (the scheduler's fake-steal
        /// hook) are invisible: ε̄ bits and all bound bits equal the serial
        /// run for every seed.
        #[test]
        fn randomized_steal_schedules_are_invisible(seed in 0u64..u64::MAX) {
            let net = fig1_network();
            let serial = certify_global(
                &net,
                &DOM,
                0.1,
                &CertifyOptions {
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            crate::schedule::set_test_steal_seed(Some(seed));
            let stolen = certify_global(
                &net,
                &DOM,
                0.1,
                &CertifyOptions {
                    threads: 3,
                    ..Default::default()
                },
            );
            crate::schedule::set_test_steal_seed(None);
            let stolen = stolen.unwrap();
            for (a, b) in serial.epsilons.iter().zip(&stolen.epsilons) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (sa, sb) in [
                (&serial.bounds.dx, &stolen.bounds.dx),
                (&serial.bounds.dy, &stolen.bounds.dy),
            ] {
                for (ia, ib) in sa.iter().flatten().zip(sb.iter().flatten()) {
                    proptest::prop_assert_eq!(ia.lo.to_bits(), ib.lo.to_bits());
                    proptest::prop_assert_eq!(ia.hi.to_bits(), ib.hi.to_bits());
                }
            }
        }
    }

    /// Refinement tightens monotonically toward the exact 0.2.
    #[test]
    fn refinement_tightens_layered_bound() {
        let net = fig1_network();
        let eps = |r: usize| {
            certify_global(
                &net,
                &DOM,
                0.1,
                &CertifyOptions {
                    refine: r,
                    ..Default::default()
                },
            )
            .unwrap()
            .epsilon(0)
        };
        let (e0, e3) = (eps(0), eps(3));
        assert!(e3 <= e0 + 1e-9, "refined {e3} worse than unrefined {e0}");
        assert!(e3 >= 0.2 - 1e-6, "refined bound {e3} below exact");
    }

    /// A wider perturbation bound can only widen the certified ε.
    #[test]
    fn epsilon_monotone_in_delta() {
        let net = fig1_network();
        let mut last = 0.0;
        for delta in [0.01, 0.05, 0.1, 0.2] {
            let e = certify_global(&net, &DOM, delta, &CertifyOptions::default())
                .unwrap()
                .epsilon(0);
            assert!(e + 1e-9 >= last, "ε not monotone in δ");
            last = e;
        }
    }

    /// Invalid inputs are rejected with informative errors.
    #[test]
    fn invalid_inputs_rejected() {
        let aff = fig1_affine();
        let opts = CertifyOptions::default();
        assert!(certify_global_affine(&aff, &[(-1.0, 1.0)], 0.1, &opts).is_err());
        assert!(certify_global_affine(&aff, &DOM, -0.1, &opts).is_err());
        assert!(certify_global_affine(
            &aff,
            &DOM,
            0.1,
            &CertifyOptions {
                window: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(certify_global_affine(&aff, &[(1.0, -1.0), (0.0, 1.0)], 0.1, &opts).is_err());
    }

    /// A NaN or infinite weight or bias is a typed input error, never a
    /// certified answer (or a solve that does not terminate).
    #[test]
    fn non_finite_weights_rejected() {
        let opts = CertifyOptions::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut weight = fig1_affine();
            weight.layers[0].rows[0].terms[0].1 = bad;
            let mut bias = fig1_affine();
            bias.layers[1].rows[0].bias = bad;
            for aff in [weight, bias] {
                match certify_global_affine(&aff, &DOM, 0.1, &opts) {
                    Err(CertifyError::InvalidInput(why)) => {
                        assert!(why.contains("non-finite"), "{bad}: {why}");
                    }
                    other => panic!("{bad}: expected InvalidInput, got {other:?}"),
                }
            }
        }
    }

    /// The other public entry points reject what `certify_global_affine`
    /// rejects, with the same typed error, instead of answering for it: a
    /// NaN weight, an inverted domain, an infinite domain bound, a NaN or
    /// negative δ, and, for the local ones, a non-finite sample (and, for
    /// `certify_local`, a window of 0).
    #[test]
    fn every_entry_point_rejects_malformed_inputs() {
        use crate::local::certify_local;
        use crate::oneshot::{oneshot_global, oneshot_local};
        use crate::split::{split_global_affine, SplitOptions};
        use itne_nn::NetworkBuilder;
        fn invalid<T: std::fmt::Debug>(got: Result<T, CertifyError>, what: &str) {
            assert!(
                matches!(got, Err(CertifyError::InvalidInput(_))),
                "{what}: {got:?}"
            );
        }
        let solver = SolveOptions::default();
        let opts = CertifyOptions::default();
        let good = fig1_affine();
        let mut nan_weight = fig1_affine();
        nan_weight.layers[0].rows[0].terms[0].1 = f64::NAN;
        let inverted = [(1.0, -1.0), (-1.0, 1.0)];
        let unbounded = [(f64::NEG_INFINITY, 1.0), (-1.0, 1.0)];
        let global = |aff: &AffineNetwork, dom: &[(f64, f64)], delta: f64, what: &str| {
            invalid(certify_global_affine(aff, dom, delta, &opts), what);
            let split = split_global_affine(aff, dom, delta, &SplitOptions::default());
            invalid(split, what);
            let kind = EncodingKind::Itne;
            let oneshot = oneshot_global(aff, dom, delta, kind, Relaxation::Lpr, 0, &solver);
            invalid(oneshot, what);
        };
        global(&nan_weight, &DOM, 0.1, "NaN weight");
        global(&good, &inverted, 0.1, "inverted domain");
        global(&good, &unbounded, 0.1, "infinite domain bound");
        global(&good, &DOM, f64::NAN, "NaN δ");
        global(&good, &DOM, -0.1, "negative δ");

        let nan_net = NetworkBuilder::input(2)
            .dense(&[&[f64::NAN, 0.5], &[-0.5, 1.0]], &[0.0, 0.0], true)
            .and_then(|b| b.dense(&[&[1.0, -1.0]], &[0.0], true))
            .expect("static shapes are valid")
            .build();
        let net = fig1_network();
        let origin = [0.0, 0.0];
        let nan_sample = [f64::NAN, 0.0];
        let local = |net: &Network,
                     aff: &AffineNetwork,
                     x0: &[f64],
                     delta: f64,
                     dom: Option<&[(f64, f64)]>,
                     what: &str| {
            invalid(certify_local(net, x0, delta, dom, &opts), what);
            let oneshot = oneshot_local(aff, x0, delta, dom, Relaxation::Lpr, 0, &solver);
            invalid(oneshot, what);
        };
        local(&nan_net, &nan_weight, &origin, 0.1, None, "NaN weight");
        for (dom, what) in [(inverted, "inverted domain"), (unbounded, "infinite bound")] {
            local(&net, &good, &origin, 0.1, Some(&dom), what);
        }
        local(&net, &good, &origin, f64::NAN, None, "NaN δ");
        local(&net, &good, &origin, -0.1, None, "negative δ");
        local(&net, &good, &nan_sample, 0.1, None, "NaN sample");
        let what = "NaN sample in a domain";
        local(&net, &good, &nan_sample, 0.1, Some(&DOM), what);
        let no_window = CertifyOptions { window: 0, ..opts };
        let got = certify_local(&net, &origin, 0.1, None, &no_window);
        invalid(got, "window 0");
    }

    /// An expired global deadline degrades to (sound) IBP ranges.
    #[test]
    fn expired_deadline_returns_ibp() {
        let net = fig1_network();
        let mut opts = CertifyOptions::default();
        opts.solver.stop = Some(crate::deadline::stop_at(crate::deadline::already_expired()));
        let r = certify_global(&net, &DOM, 0.1, &opts).unwrap();
        // IBP ε for the example is 0.3; sound and loose.
        assert!((r.epsilon(0) - 0.3).abs() < 1e-9);
        assert!(r.stats.query.fallbacks > 0);
    }
}
