//! Range queries over encoded sub-networks: the paper's `LpRelaxY` and
//! `LpRelaxX` sub-problems.
//!
//! Every query returns a *sound* interval: LP/MILP relaxation optima are
//! outer bounds by construction; solver failures fall back to the caller's
//! interval (typically IBP), and successful results are intersected with
//! that fallback (both are sound, so the intersection is sound and tighter).
//!
//! Every LP optimum passes through one pipeline before it becomes a bound
//! (`certified_bound`): pad outward by `SOUND_SLACK` plus a relative
//! term, snap outward onto `BOUND_GRID`, and — when certificate checking
//! is on — validate the *snapped* claim against the solve's
//! [`itne_milp::DualCertificate`] in exact rational arithmetic
//! ([`Model::check_bound`]). A bound whose certificate fails the check is
//! discarded in favor of the sound IBP fallback and counted in
//! [`QueryStats::cert_failures`].
//!
//! One sweep path, `lp_relax`, serves one-shot and resident runs alike.
//! Each sub-problem encodes its skeleton **once** and sweeps all of its
//! objectives (min/max of the target's value and distance expressions)
//! through one [`BatchSolver`], each directed solve with its own basis slot
//! ([`BatchSolver::solve_slot`]). A resident run passes the slots the
//! previous query stored, so every solve restores the basis last optimal
//! for its objective. A one-shot run passes empty slots: the first solve
//! runs cold, and every later one warm-starts from the previous optimal
//! basis and skips simplex phase 1. Warm starting is a pure optimization —
//! a basis that cannot be restored falls back to a cold solve inside the
//! batch layer — so certified ranges are identical to the per-objective
//! cold path (asserted bit-for-bit by the golden regression suite; disable
//! via [`SolveOptions::warm_start`]).

use crate::encode::{EncodedSubNet, TargetKind};
use crate::interval::Interval;
use itne_milp::{
    Basis, BatchSolver, BatchStats, LinExpr, Model, Sense, Solution, SolveOptions, StopWhen,
};
use serde::Serialize;

/// Slack added to LP optima before use as bounds, absorbing solver
/// tolerances.
const SOUND_SLACK: f64 = 1e-7;

/// Grid the padded optima are snapped *outward* onto (2⁻³⁰ ≈ 9.3e-10, two
/// orders below [`SOUND_SLACK`]). Different pivot paths to the same optimum
/// — cold vs warm-started, or a future alternative backend — land within a
/// few ulps of each other; snapping outward collapses them onto the same
/// representable bound *unless the two values straddle a grid line*, so
/// path-independence is overwhelmingly likely per solve rather than
/// absolute. For a fixed network it is deterministic either way, which is
/// what the golden suite locks; a straddle would surface there as a stable,
/// investigable diff, not flakiness. Snapping away from the feasible region
/// only ever *loosens* the bound, so soundness is unconditional.
const BOUND_GRID: f64 = 1.0 / (1024.0 * 1024.0 * 1024.0);

/// Magnitude past which grid snapping degenerates (the quotient leaves the
/// exactly-representable integer range); such bounds are kept un-snapped —
/// their relative slack term (`|v|·1e-9`) already dwarfs any path noise.
const GRID_LIMIT: f64 = 1e6;

/// Rounds a padded bound outward (`up` for upper bounds, down for lower) to
/// the [`BOUND_GRID`] lattice. `grid` is the per-interval snapping decision
/// from [`interval_grid`]; non-finite values always pass through.
fn snap_outward(v: f64, up: bool, grid: bool) -> f64 {
    if !grid || !v.is_finite() {
        return v;
    }
    let q = v / BOUND_GRID;
    let q = if up { q.ceil() } else { q.floor() };
    q * BOUND_GRID
}

/// Whether both bounds of an interval snap onto [`BOUND_GRID`]: only when
/// every present LP optimum sits strictly inside [`GRID_LIMIT`]. Decided
/// once per interval on the *raw* optima — before outward padding — so the
/// padding can never push one side across the cutoff while its twin stays
/// inside, which would snap one bound of the interval and not the other.
/// Absent sides (solver failure → IBP fallback) and non-finite optima
/// (which fall back anyway) don't participate in the decision.
fn interval_grid(sides: [Option<f64>; 2]) -> bool {
    sides
        .iter()
        .flatten()
        .all(|v| !v.is_finite() || v.abs() < GRID_LIMIT)
}

/// Work counters accumulated across queries.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct QueryStats {
    /// LP/MILP solves issued.
    pub solves: u64,
    /// Total simplex pivots, including those burned by warm restores that
    /// were rejected and re-solved cold ([`BatchStats::pivots`]). A solve
    /// that ends in a solver error still loses its pivots: the error
    /// carries no counters.
    pub pivots: u64,
    /// Total branch-and-bound nodes.
    pub nodes: u64,
    /// Queries that fell back to the caller's interval (solver failure or
    /// early-out on a fired stop signal).
    pub fallbacks: u64,
    /// Solves completed from a warm-started simplex basis (phase 1 skipped).
    pub warm_hits: u64,
    /// Warm-start attempts that were rejected and re-ran cold.
    pub warm_misses: u64,
    /// Estimated simplex pivots avoided by warm starts (see
    /// [`BatchStats::pivots_saved`]).
    pub pivots_saved: u64,
    /// Total basis refactorizations across all solves (sparse-engine
    /// fill-triggered rebuilds plus warm-restore factorizations).
    pub refactorizations: u64,
    /// Peak basis-update count (Forrest–Tomlin replacements plus
    /// product-form etas on top of the LU factors) in any single solve.
    pub eta_len: u64,
    /// Structural non-zeros of the largest constraint matrix solved — the
    /// sparsity the revised simplex exploits on that worst-case sub-problem.
    pub nnz: u64,
    /// Bounds validated against their dual certificate in exact rational
    /// arithmetic (certificate checking enabled and the solve emitted one).
    pub certs_checked: u64,
    /// Certificate checks that *failed*: the reported bound could not be
    /// re-derived from the solve's own duals. Each failure falls back to the
    /// sound IBP interval (also counted in `fallbacks`), so results stay
    /// sound; a non-zero count flags solver numerics worth investigating.
    pub cert_failures: u64,
    /// Nanoseconds spent refactorizing the basis, summed across all solves.
    /// Zero unless a [`itne_milp::TelemetryClock`] is installed on the
    /// solver options (see [`crate::deadline::telemetry_clock`]).
    pub refactor_time_ns: u64,
    /// Nanoseconds spent in FTRAN/BTRAN passes, summed across all solves.
    /// Zero without a telemetry clock.
    pub ftran_btran_time_ns: u64,
    /// Peak LU fill (`L` + `U` stored non-zeros) observed in any single
    /// solve ([`itne_milp::Engine::Lu`] only).
    pub lu_fill_nnz: u64,
    /// Resident sub-problem encodings reused in place: the cached constraint
    /// skeleton matched and only bounds/RHS were re-parameterized
    /// ([`crate::resident::ResidentState`]).
    pub encoding_cache_hits: u64,
    /// Resident encodings that could not be reused (first touch, refined-set
    /// change, or a structural mismatch during replay) and were rebuilt.
    pub encoding_cache_misses: u64,
    /// Warm starts seeded from a basis stored by a *previous* query (the
    /// resident basis store), as opposed to the within-sweep chain. A subset
    /// of `warm_hits`.
    pub cross_query_warm_hits: u64,
    /// Branch-and-bound nodes re-solved warm from their parent's basis
    /// ([`itne_milp::Stats::warm_nodes`]).
    pub warm_nodes: u64,
    /// Branch-and-bound nodes pruned on an exactly checked Farkas ray
    /// ([`itne_milp::Stats::farkas_pruned`]).
    pub farkas_pruned: u64,
    /// Branch-and-bound nodes cut off at the incumbent on exactly checked
    /// duals ([`itne_milp::Stats::cutoff_pruned`]).
    pub cutoff_pruned: u64,
    /// Branch-and-bound nodes whose warm re-solve fell back cold
    /// ([`itne_milp::Stats::cold_fallbacks`]). A rise here, with
    /// `warm_nodes` falling, is the tree sliding back to cold nodes.
    pub cold_fallbacks: u64,
}

impl QueryStats {
    /// Accumulates another counter set. Saturating rather than wrapping:
    /// these are telemetry merged from per-worker accumulators at thread
    /// joins, and a pegged counter on a pathological run must degrade to
    /// "at least this much", never to a small wrapped lie (or a panic in
    /// debug builds) inside an otherwise-sound certification.
    pub fn absorb(&mut self, other: QueryStats) {
        self.solves = self.solves.saturating_add(other.solves);
        self.pivots = self.pivots.saturating_add(other.pivots);
        self.nodes = self.nodes.saturating_add(other.nodes);
        self.fallbacks = self.fallbacks.saturating_add(other.fallbacks);
        self.warm_hits = self.warm_hits.saturating_add(other.warm_hits);
        self.warm_misses = self.warm_misses.saturating_add(other.warm_misses);
        self.pivots_saved = self.pivots_saved.saturating_add(other.pivots_saved);
        self.refactorizations = self.refactorizations.saturating_add(other.refactorizations);
        self.eta_len = self.eta_len.max(other.eta_len);
        self.nnz = self.nnz.max(other.nnz);
        self.certs_checked = self.certs_checked.saturating_add(other.certs_checked);
        self.cert_failures = self.cert_failures.saturating_add(other.cert_failures);
        self.refactor_time_ns = self.refactor_time_ns.saturating_add(other.refactor_time_ns);
        self.ftran_btran_time_ns = self
            .ftran_btran_time_ns
            .saturating_add(other.ftran_btran_time_ns);
        self.lu_fill_nnz = self.lu_fill_nnz.max(other.lu_fill_nnz);
        self.encoding_cache_hits = self
            .encoding_cache_hits
            .saturating_add(other.encoding_cache_hits);
        self.encoding_cache_misses = self
            .encoding_cache_misses
            .saturating_add(other.encoding_cache_misses);
        self.cross_query_warm_hits = self
            .cross_query_warm_hits
            .saturating_add(other.cross_query_warm_hits);
        self.warm_nodes = self.warm_nodes.saturating_add(other.warm_nodes);
        self.farkas_pruned = self.farkas_pruned.saturating_add(other.farkas_pruned);
        self.cutoff_pruned = self.cutoff_pruned.saturating_add(other.cutoff_pruned);
        self.cold_fallbacks = self.cold_fallbacks.saturating_add(other.cold_fallbacks);
    }

    /// Folds in the counters of one finished batch sweep that only the
    /// batch sees: the pivots of every attempt (rejected warm restores
    /// included) and the warm-start telemetry.
    fn absorb_batch(&mut self, batch: BatchStats) {
        self.pivots = self.pivots.saturating_add(batch.pivots);
        self.warm_hits = self.warm_hits.saturating_add(batch.warm_hits);
        self.warm_misses = self.warm_misses.saturating_add(batch.warm_misses);
        self.pivots_saved = self.pivots_saved.saturating_add(batch.pivots_saved);
        // Seed hits are warm starts from a basis stored by an *earlier*
        // query over the same encoding (a slot the caller kept).
        self.cross_query_warm_hits = self.cross_query_warm_hits.saturating_add(batch.seed_hits);
    }
}

/// Default for [`crate::algorithm::CertifyOptions::check_certificates`]:
/// the `ITNE_CHECK_CERTS` environment variable, read once at first use.
/// Unset, empty, `0`, `false`, or `off` disable checking; anything else
/// enables it. Checking is a pure validation layer — it never tightens a
/// bound, only replaces an unverifiable one with the IBP fallback — so CI
/// can force it on without perturbing default results.
pub fn default_check_certificates() -> bool {
    static CHECK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CHECK.get_or_init(|| {
        std::env::var("ITNE_CHECK_CERTS")
            .map(|v| !matches!(v.trim(), "" | "0" | "false" | "off"))
            .unwrap_or(false)
    })
}

/// Minimizes and maximizes `expr` in an open batch sweep (`slots[0]` =
/// min, `slots[1]` = max), returning a sound interval clipped to
/// `fallback`. Consecutive ranges over the same skeleton share one
/// warm-start chain.
fn range_in_slots(
    batch: &mut BatchSolver<'_>,
    expr: LinExpr,
    fallback: Interval,
    solver: &SolveOptions,
    check: bool,
    slots: &mut [Option<Basis>],
    stats: &mut QueryStats,
) -> Interval {
    let (slot_lo, rest) = slots.split_first_mut().expect("two basis slots");
    let (slot_hi, _) = rest.split_first_mut().expect("two basis slots");
    let lo_sol = directed_solve(batch, expr.clone(), Sense::Minimize, solver, slot_lo, stats);
    let hi_sol = directed_solve(batch, expr, Sense::Maximize, solver, slot_hi, stats);
    let grid = interval_grid([
        lo_sol.as_ref().map(Solution::bound_value),
        hi_sol.as_ref().map(Solution::bound_value),
    ]);
    // Both solves installed the same objective expression, so the model
    // data behind `batch.model()` matches both certificates (the sense is
    // passed per side below).
    let lo = certified_bound(
        batch.model(),
        lo_sol,
        Sense::Minimize,
        grid,
        check,
        fallback.lo,
        stats,
    );
    let hi = certified_bound(
        batch.model(),
        hi_sol,
        Sense::Maximize,
        grid,
        check,
        fallback.hi,
        stats,
    );
    // Both [lo, hi] and fallback are sound outer ranges; intersect.
    Interval::new(lo.min(hi), hi.max(lo))
        .intersect(fallback, 1e-9)
        .unwrap_or(fallback)
}

/// One directed solve through [`BatchSolver::solve_slot`]. Returns `None`
/// when the solver cannot produce a solution (errors, or an early-out on a
/// fired stop signal) — the caller then uses its fallback bound. Pivots are
/// not counted here: [`QueryStats::absorb_batch`] takes them from the batch,
/// which also sees the pivots of rejected warm restores.
fn directed_solve(
    batch: &mut BatchSolver<'_>,
    expr: LinExpr,
    sense: Sense,
    solver: &SolveOptions,
    slot: &mut Option<Basis>,
    stats: &mut QueryStats,
) -> Option<Solution> {
    if solver.stop.as_ref().is_some_and(StopWhen::should_stop) {
        stats.fallbacks += 1;
        return None;
    }
    stats.solves += 1;
    match batch.solve_slot(sense, expr, solver, slot) {
        Ok(sol) => {
            stats.nodes += sol.stats.nodes;
            stats.refactorizations += sol.stats.refactorizations;
            stats.eta_len = stats.eta_len.max(sol.stats.eta_len);
            stats.nnz = stats.nnz.max(sol.stats.nnz);
            stats.refactor_time_ns += sol.stats.refactor_time_ns;
            stats.ftran_btran_time_ns += sol.stats.ftran_btran_time_ns;
            stats.lu_fill_nnz = stats.lu_fill_nnz.max(sol.stats.lu_fill_nnz);
            stats.warm_nodes += sol.stats.warm_nodes;
            stats.farkas_pruned += sol.stats.farkas_pruned;
            stats.cutoff_pruned += sol.stats.cutoff_pruned;
            stats.cold_fallbacks += sol.stats.cold_fallbacks;
            Some(sol)
        }
        Err(_) => {
            stats.fallbacks += 1;
            None
        }
    }
}

/// Converts one directed solve into a *certified* sound bound — the single
/// gate every LP optimum passes before it is used as a bound (enforced by
/// the `cert-audit` lint rule):
///
/// 1. a non-optimal MILP incumbent is replaced by the search frontier's
///    relaxation bound ([`Solution::bound_value`] — an incumbent's own
///    objective is *not* an outer bound), and anything non-finite (a NaN
///    or overflowed objective proves nothing) falls back to IBP;
/// 2. the value is padded outward by [`SOUND_SLACK`] plus a relative term
///    and snapped outward onto [`BOUND_GRID`];
/// 3. when `check` is on and the solve carries a dual certificate, the
///    *snapped* claim is re-derived from the duals in exact rational
///    arithmetic; an unverifiable claim falls back to IBP and increments
///    [`QueryStats::cert_failures`].
#[allow(clippy::too_many_arguments)]
fn certified_bound(
    model: &Model,
    sol: Option<Solution>,
    sense: Sense,
    grid: bool,
    check: bool,
    fallback_bound: f64,
    stats: &mut QueryStats,
) -> f64 {
    let Some(sol) = sol else {
        return fallback_bound;
    };
    let v = sol.bound_value();
    if !v.is_finite() {
        stats.fallbacks += 1;
        return fallback_bound;
    }
    let snapped = match sense {
        Sense::Maximize => snap_outward(v + SOUND_SLACK + v.abs() * 1e-9, true, grid),
        Sense::Minimize => snap_outward(v - SOUND_SLACK - v.abs() * 1e-9, false, grid),
    };
    if check && sol.is_certified() {
        stats.certs_checked += 1;
        // The model must still hold the objective the solve installed
        // (guaranteed by `BatchSolver::model` within a sweep).
        let valid = sol
            .certificate()
            .is_some_and(|c| model.check_bound(sense, &c.row_duals, snapped).is_valid());
        if !valid {
            stats.cert_failures += 1;
            stats.fallbacks += 1;
            return fallback_bound;
        }
    }
    snapped
}

/// Number of persistent basis slots a sub-problem sweep keeps: one per
/// directed objective, in the fixed order
/// `[value min, value max, distance min, distance max]`.
pub(crate) const BASIS_SLOTS: usize = 4;

/// One sub-problem sweep of Algorithm 1: `LpRelaxY` for a
/// [`TargetKind::PreActivation`] encoding (ranges of the target's `y` and
/// its distance `Δy`) or `LpRelaxX` for a [`TargetKind::PostActivation`]
/// one (`x` and `Δx`). For ITNE encodings the distance is the target's
/// distance variable, for BTNE encodings the expression `ŷ − y` (or
/// `x̂ − x`), and for single-copy encodings `[0, 0]`. `fallbacks` holds the
/// sound `[value, distance]` intervals every result is clipped to.
///
/// All four directed solves (min/max value, min/max distance) run as one
/// warm-started sweep over the encoding, each starting from its slot of
/// `bases` and writing its final basis back. A resident run passes the
/// slots the previous query stored: a repeated query finds each basis still
/// optimal, and a new δ or new weights get it repaired by the dual simplex.
/// A one-shot run passes empty slots. Results are bit-identical either way:
/// warm starting never changes certified ranges.
pub(crate) fn lp_relax(
    enc: &mut EncodedSubNet,
    target: TargetKind,
    fallbacks: [Interval; 2],
    solver: &SolveOptions,
    check: bool,
    bases: &mut [Option<Basis>; BASIS_SLOTS],
    stats: &mut QueryStats,
) -> (Interval, Interval) {
    let t = enc.target_vars();
    let (value, distance, hat) = match target {
        TargetKind::PreActivation => (
            t.y.expect("target has a pre-activation variable"),
            t.dy,
            t.yh,
        ),
        TargetKind::PostActivation => (
            t.x.expect("target has a post-activation variable"),
            t.dx,
            t.xh,
        ),
    };
    let distance = match (distance, hat) {
        (Some(d), _) => Some((1.0 * d).compact()),
        (None, Some(h)) => Some(1.0 * h - 1.0 * value),
        (None, None) => None,
    };
    let [fallback_value, fallback_distance] = fallbacks;
    let (value_slots, distance_slots) = bases.split_at_mut(2);
    let mut batch = BatchSolver::new(&mut enc.model);
    let value_range = range_in_slots(
        &mut batch,
        (1.0 * value).compact(),
        fallback_value,
        solver,
        check,
        value_slots,
        stats,
    );
    let distance_range = match distance {
        Some(e) => range_in_slots(
            &mut batch,
            e,
            fallback_distance,
            solver,
            check,
            distance_slots,
            stats,
        ),
        None => Interval::point(0.0),
    };
    stats.absorb_batch(batch.stats());
    (value_range, distance_range)
}

/// `LpRelaxY`: ranges of the target's pre-activation and its distance,
/// `(y, Δy)` — the crate's one sweep (`lp_relax`) over a
/// [`TargetKind::PreActivation`] encoding with empty basis slots, as a
/// one-shot run sweeps it.
pub fn lp_relax_y(
    enc: &mut EncodedSubNet,
    fallback_y: Interval,
    fallback_dy: Interval,
    solver: &SolveOptions,
    check: bool,
    stats: &mut QueryStats,
) -> (Interval, Interval) {
    let mut bases = Default::default();
    let fallbacks = [fallback_y, fallback_dy];
    lp_relax(
        enc,
        TargetKind::PreActivation,
        fallbacks,
        solver,
        check,
        &mut bases,
        stats,
    )
}

/// `LpRelaxX`: ranges of the target's post-activation and its distance,
/// `(x, Δx)` — the crate's one sweep (`lp_relax`) over a
/// [`TargetKind::PostActivation`] encoding with empty basis slots, as a
/// one-shot run sweeps it.
pub fn lp_relax_x(
    enc: &mut EncodedSubNet,
    fallback_x: Interval,
    fallback_dx: Interval,
    solver: &SolveOptions,
    check: bool,
    stats: &mut QueryStats,
) -> (Interval, Interval) {
    let mut bases = Default::default();
    let fallbacks = [fallback_x, fallback_dx];
    lp_relax(
        enc,
        TargetKind::PostActivation,
        fallbacks,
        solver,
        check,
        &mut bases,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_subnet, EncodeOptions, EncodingKind, Relaxation, TargetKind};
    use crate::example::fig1_affine;
    use crate::ibp::ibp_twin;
    use crate::subnet::SubNetwork;
    use itne_milp::Cmp;

    #[test]
    fn query_clips_to_fallback() {
        // Query with an artificially tight fallback: result must stay inside.
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let bounds = ibp_twin(&net, &domain, 0.1);
        let sub = SubNetwork::decompose(&net, 0, 0, 1);
        let opts = EncodeOptions {
            delta: 0.1,
            ..Default::default()
        };
        let mut enc = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &opts);
        let tight = Interval::new(-0.5, 0.5);
        let mut stats = QueryStats::default();
        let (yr, _) = lp_relax_y(
            &mut enc,
            tight,
            Interval::symmetric(0.15),
            &SolveOptions::default(),
            true,
            &mut stats,
        );
        assert!(tight.encloses(yr, 1e-9));
        assert_eq!(stats.fallbacks, 0);
        assert!(stats.solves >= 2);
        // Checking was on and every solve was a pure LP: every bound was
        // validated in exact arithmetic and none failed.
        assert_eq!(stats.certs_checked, stats.solves);
        assert_eq!(stats.cert_failures, 0);
    }

    #[test]
    fn first_layer_ranges_are_exact() {
        // Layer 1 of Fig. 1 is affine in the inputs: LP ranges must be exact:
        // y⁽¹⁾₁ ∈ [-1.5, 1.5], Δy⁽¹⁾₁ ∈ [-0.15, 0.15].
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let bounds = ibp_twin(&net, &domain, 0.1);
        let sub = SubNetwork::decompose(&net, 0, 0, 1);
        let opts = EncodeOptions {
            kind: EncodingKind::Itne,
            relax: Relaxation::Lpr,
            delta: 0.1,
            ..Default::default()
        };
        let mut enc = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &opts);
        let mut stats = QueryStats::default();
        let (yr, dyr) = lp_relax_y(
            &mut enc,
            bounds.y[0][0],
            bounds.dy[0][0],
            &SolveOptions::default(),
            false,
            &mut stats,
        );
        assert!(
            (yr.lo + 1.5).abs() < 1e-5 && (yr.hi - 1.5).abs() < 1e-5,
            "{yr}"
        );
        assert!(
            (dyr.lo + 0.15).abs() < 1e-5 && (dyr.hi - 0.15).abs() < 1e-5,
            "{dyr}"
        );
        // Four directed solves over one skeleton: the first is cold, the
        // remaining three reuse the basis (or legitimately re-run cold, but
        // never silently vanish).
        assert_eq!(stats.solves, 4);
        assert!(
            stats.warm_hits + stats.warm_misses >= 3,
            "sweep did not attempt warm starts: {stats:?}"
        );
    }

    #[test]
    fn warm_and_cold_sweeps_agree_bitwise() {
        // The same sub-problem solved with and without warm starts must give
        // identical intervals — batching is a pure optimization.
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let bounds = ibp_twin(&net, &domain, 0.1);
        for (li, j) in [(0usize, 0usize), (0, 1), (1, 0)] {
            let sub = SubNetwork::decompose(&net, li, j, 2);
            let opts = EncodeOptions {
                delta: 0.1,
                ..Default::default()
            };
            let run = |warm: bool| {
                let mut enc = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &opts);
                let solver = SolveOptions {
                    warm_start: warm,
                    ..Default::default()
                };
                let mut stats = QueryStats::default();
                lp_relax_y(
                    &mut enc,
                    bounds.y[li][j],
                    bounds.dy[li][j],
                    &solver,
                    true,
                    &mut stats,
                )
            };
            let (wy, wdy) = run(true);
            let (cy, cdy) = run(false);
            assert_eq!(wy, cy, "y range diverged at ({li}, {j})");
            assert_eq!(wdy, cdy, "Δy range diverged at ({li}, {j})");
        }
    }

    #[test]
    fn resident_sweep_matches_batch_and_warm_starts_across_queries() {
        // A sweep over kept basis slots (the resident path) must reproduce
        // the one-shot sweep bit-for-bit, and a repeat query over the same
        // encoding must warm-start from the stored per-objective bases.
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let bounds = ibp_twin(&net, &domain, 0.1);
        for (li, j) in [(0usize, 0usize), (0, 1), (1, 0)] {
            let sub = SubNetwork::decompose(&net, li, j, 2);
            let opts = EncodeOptions {
                delta: 0.1,
                ..Default::default()
            };
            let mut enc = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &opts);
            let mut stats = QueryStats::default();
            let batch_r = lp_relax_y(
                &mut enc,
                bounds.y[li][j],
                bounds.dy[li][j],
                &SolveOptions::default(),
                true,
                &mut stats,
            );
            let mut enc = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &opts);
            let mut bases: [Option<Basis>; BASIS_SLOTS] = Default::default();
            let fallbacks = [bounds.y[li][j], bounds.dy[li][j]];
            let mut s1 = QueryStats::default();
            let r1 = lp_relax(
                &mut enc,
                TargetKind::PreActivation,
                fallbacks,
                &SolveOptions::default(),
                true,
                &mut bases,
                &mut s1,
            );
            assert_eq!(r1, batch_r, "kept slots diverged at ({li}, {j})");
            assert_eq!(
                s1.cross_query_warm_hits, 0,
                "first query has no stored basis"
            );
            assert_eq!(s1.cert_failures, 0);
            assert!(
                bases.iter().any(Option::is_some),
                "sweep stored no basis at ({li}, {j})"
            );
            // Second query over the same resident encoding: each directed
            // solve restores its own slot instead of running cold phase-1.
            let mut s2 = QueryStats::default();
            let r2 = lp_relax(
                &mut enc,
                TargetKind::PreActivation,
                fallbacks,
                &SolveOptions::default(),
                true,
                &mut bases,
                &mut s2,
            );
            assert_eq!(r2, batch_r, "repeat resident query diverged at ({li}, {j})");
            assert!(
                s2.cross_query_warm_hits > 0,
                "repeat query never used the stored basis: {s2:?}"
            );
            assert!(
                s2.pivots <= s1.pivots,
                "warm repeat did more pivots than cold: {} > {}",
                s2.pivots,
                s1.pivots
            );
        }
    }

    #[test]
    fn snapping_is_outward_and_idempotent() {
        for v in [0.0, 0.25, -0.25, 1.0e-3, -7.77e2, 123.456] {
            let up = snap_outward(v, true, true);
            let down = snap_outward(v, false, true);
            assert!(up >= v, "upper snap moved inward: {v} -> {up}");
            assert!(down <= v, "lower snap moved inward: {v} -> {down}");
            assert!(up - v <= BOUND_GRID, "upper snap too coarse");
            assert!(v - down <= BOUND_GRID, "lower snap too coarse");
            // Grid points are fixed points, so snapping twice is snapping once.
            assert_eq!(snap_outward(up, true, true), up);
            assert_eq!(snap_outward(down, false, true), down);
        }
        // Values within a grid cell of each other snap together (the warm vs
        // cold pivot-path property) unless they straddle a grid line.
        let a = 0.1234567891;
        let b = a + 1e-13;
        assert_eq!(snap_outward(a, true, true), snap_outward(b, true, true));
        // With snapping vetoed for the interval, values pass through.
        assert_eq!(snap_outward(3.0e7, true, false), 3.0e7);
        assert_eq!(snap_outward(0.25, true, false), 0.25);
        assert_eq!(snap_outward(f64::INFINITY, true, true), f64::INFINITY);
    }

    #[test]
    fn grid_cutoff_is_consistent_per_interval() {
        // The decision is made on the raw optima, so an interval's two sides
        // always agree — even when outward padding pushes one padded value
        // across GRID_LIMIT while the other stays below (the old per-value
        // check snapped one side and not the other in that regime).
        let pad = |v: f64, up: bool| {
            if up {
                v + SOUND_SLACK + v.abs() * 1e-9
            } else {
                v - SOUND_SLACK - v.abs() * 1e-9
            }
        };
        let near = GRID_LIMIT - 1e-9; // padded value crosses the cutoff
        let far = GRID_LIMIT - 1.0; // padded value stays inside
        for (lo, hi) in [
            (far, near),
            (-near, far),
            (-near, near),
            (near, near),
            (-near, -far),
        ] {
            assert!(lo.abs() < GRID_LIMIT && hi.abs() < GRID_LIMIT);
            let grid = interval_grid([Some(lo), Some(hi)]);
            let slo = snap_outward(pad(lo, false), false, grid);
            let shi = snap_outward(pad(hi, true), true, grid);
            // Outward and ordered, regardless of which regime we are in.
            assert!(slo <= pad(lo, false) && shi >= pad(hi, true));
            assert!(slo <= shi);
            // Consistency: both sides snapped, or neither did.
            let lo_snapped = slo != pad(lo, false);
            let hi_snapped = shi != pad(hi, true);
            assert!(
                !(lo_snapped ^ hi_snapped)
                    || pad(lo, false).abs() >= GRID_LIMIT
                    || pad(hi, true).abs() >= GRID_LIMIT,
                "asymmetric snap at ({lo}, {hi})"
            );
        }
        // At or past the cutoff (raw), the whole interval passes through.
        assert!(!interval_grid([Some(GRID_LIMIT), Some(0.0)]));
        assert!(!interval_grid([Some(0.0), Some(-2.0 * GRID_LIMIT)]));
        // Absent or non-finite sides don't veto the other side's snap.
        assert!(interval_grid([None, Some(0.5)]));
        assert!(interval_grid([Some(f64::NAN), Some(0.5)]));
        assert!(interval_grid([None, None]));
    }

    proptest::proptest! {
        /// Property sweep over the GRID_LIMIT boundary (both signs, values
        /// straddling the cutoff): the per-interval decision never snaps one
        /// side without the other, and snapping stays outward.
        #[test]
        fn grid_boundary_property(
            mag_lo in 0.0f64..2.0e6,
            mag_hi in 0.0f64..2.0e6,
            neg_lo in proptest::prelude::any::<bool>(),
            neg_hi in proptest::prelude::any::<bool>(),
        ) {
            let raw_lo = if neg_lo { -mag_lo } else { mag_lo };
            let raw_hi = if neg_hi { -mag_hi } else { mag_hi };
            let (raw_lo, raw_hi) = (raw_lo.min(raw_hi), raw_lo.max(raw_hi));
            let grid = interval_grid([Some(raw_lo), Some(raw_hi)]);
            proptest::prop_assert_eq!(
                grid,
                raw_lo.abs() < GRID_LIMIT && raw_hi.abs() < GRID_LIMIT
            );
            let plo = raw_lo - SOUND_SLACK - raw_lo.abs() * 1e-9;
            let phi = raw_hi + SOUND_SLACK + raw_hi.abs() * 1e-9;
            let slo = snap_outward(plo, false, grid);
            let shi = snap_outward(phi, true, grid);
            proptest::prop_assert!(slo <= plo);
            proptest::prop_assert!(shi >= phi);
            proptest::prop_assert!(slo <= shi);
            // Within a cell of the padded value, or untouched.
            proptest::prop_assert!(plo - slo <= BOUND_GRID);
            proptest::prop_assert!(shi - phi <= BOUND_GRID);
        }
    }

    #[test]
    fn solver_failures_never_invert_the_interval() {
        let fb = Interval::new(-1.0, 2.0);

        // Infeasible skeleton: both directed solves error; the fallback
        // comes back untouched and ordered.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        m.add_constraint(1.0 * x, Cmp::Ge, 3.0);
        m.add_constraint(1.0 * x, Cmp::Le, 2.0);
        let mut batch = BatchSolver::new(&mut m);
        let mut stats = QueryStats::default();
        let r = range_in_slots(
            &mut batch,
            (1.0 * x).compact(),
            fb,
            &SolveOptions::default(),
            true,
            &mut [None, None],
            &mut stats,
        );
        assert_eq!(r, fb);
        assert!(r.lo <= r.hi);
        assert_eq!(stats.fallbacks, 2);
        assert_eq!(stats.cert_failures, 0);

        // Objective unbounded in both directions: same contract.
        let mut m = Model::new();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY);
        let s = m.add_var(0.0, 1.0);
        m.add_constraint(1.0 * s, Cmp::Le, 1.0);
        let mut batch = BatchSolver::new(&mut m);
        let mut stats = QueryStats::default();
        let r = range_in_slots(
            &mut batch,
            (1.0 * x).compact(),
            fb,
            &SolveOptions::default(),
            true,
            &mut [None, None],
            &mut stats,
        );
        assert_eq!(r, fb);
        assert!(r.lo <= r.hi);
        assert!(stats.fallbacks >= 1);
    }

    #[test]
    fn rejected_restores_count_their_pivots() {
        // A sweep stores both slots of `3x + 2y + z`. Two right-hand sides
        // then move, so the max slot's vertex leaves the feasible region,
        // and the next sweep runs under a one-pivot cap: the repair of the
        // max slot is rejected after burning a pivot, and its cold re-solve
        // hits the cap. The burned pivot is real work and must be counted.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        let z = m.add_var(0.0, 10.0);
        m.add_constraint(x + y + z, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        m.add_constraint(1.0 * y + 2.0 * z, Cmp::Le, 8.0);
        m.add_constraint(x - y, Cmp::Ge, -5.0);
        let expr = (3.0 * x + 2.0 * y + 1.0 * z).compact();
        let fb = Interval::new(-100.0, 100.0);
        let mut slots = [None, None];
        let mut stats = QueryStats::default();
        let mut batch = BatchSolver::new(&mut m);
        let opts = SolveOptions::default();
        range_in_slots(
            &mut batch,
            expr.clone(),
            fb,
            &opts,
            false,
            &mut slots,
            &mut stats,
        );
        assert!(slots.iter().all(Option::is_some), "sweep stored no basis");

        m.update_rhs(0, 4.0);
        m.update_rhs(2, 6.0);
        let capped = SolveOptions {
            max_pivots: 1,
            ..Default::default()
        };
        let mut stats = QueryStats::default();
        let mut batch = BatchSolver::new(&mut m);
        range_in_slots(&mut batch, expr, fb, &capped, false, &mut slots, &mut stats);
        let b = batch.stats();
        stats.absorb_batch(b);
        assert_eq!(b.warm_misses, 1, "{b:?}");
        assert_eq!(
            stats.fallbacks, 1,
            "the cold re-solve hit the cap: {stats:?}"
        );
        assert!(b.pivots > 0, "{b:?}");
        assert_eq!(stats.pivots, b.pivots, "{stats:?} vs {b:?}");
    }

    #[test]
    fn nan_objective_falls_back_instead_of_inverting() {
        // Two variables fixed at ±1e308 with ±1e308 objective coefficients:
        // the float objective evaluates to inf − inf = NaN while the solve
        // itself terminates Optimal. The non-finite guard must discard it.
        let mut m = Model::new();
        let x = m.add_var(1.0e308, 1.0e308);
        let y = m.add_var(1.0e308, 1.0e308);
        m.add_constraint(1.0 * x - 1.0 * y, Cmp::Le, 1.0e308);
        let fb = Interval::new(-5.0, 5.0);
        let mut batch = BatchSolver::new(&mut m);
        let mut stats = QueryStats::default();
        let r = range_in_slots(
            &mut batch,
            (1.0e308 * x - 1.0e308 * y).compact(),
            fb,
            &SolveOptions::default(),
            true,
            &mut [None, None],
            &mut stats,
        );
        assert_eq!(r, fb);
        assert!(r.lo <= r.hi);
        assert!(
            stats.fallbacks >= 1,
            "NaN objective must fall back: {stats:?}"
        );
    }

    /// A row that moves between the solve and the check leaves the duals
    /// proving a different problem: the claim is rejected through
    /// [`Model::check_bound`], counted, and the bound falls back.
    #[test]
    fn certificate_of_a_changed_row_is_rejected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let sol = m.solve().expect("feasible");
        assert!(sol.is_certified());
        let check = |m: &Model, stats: &mut QueryStats| {
            certified_bound(
                m,
                Some(sol.clone()),
                Sense::Maximize,
                true,
                true,
                99.0,
                stats,
            )
        };
        // Loosening `x + y ≤ 6` to 7 raises the maximum from 15 to 16, so
        // the duals no longer prove the snapped claim just above 15.
        m.update_rhs(0, 7.0);
        let mut stats = QueryStats::default();
        assert_eq!(check(&m, &mut stats), 99.0);
        assert_eq!(
            (stats.certs_checked, stats.cert_failures, stats.fallbacks),
            (1, 1, 1),
            "{stats:?}"
        );
        // Against the row it was solved with, the same claim passes.
        m.update_rhs(0, 6.0);
        let mut stats = QueryStats::default();
        let b = check(&m, &mut stats);
        assert!(b > 15.0 && b < 15.0 + 1e-6, "{b}");
        assert_eq!((stats.certs_checked, stats.cert_failures), (1, 0));
    }

    #[test]
    fn expired_deadline_falls_back() {
        let net = fig1_affine();
        let domain = vec![Interval::new(-1.0, 1.0); 2];
        let bounds = ibp_twin(&net, &domain, 0.1);
        let sub = SubNetwork::decompose(&net, 0, 0, 1);
        let opts = EncodeOptions {
            delta: 0.1,
            ..Default::default()
        };
        let mut enc = encode_subnet(&sub, &bounds, TargetKind::PreActivation, &opts);
        let solver = SolveOptions {
            stop: Some(crate::deadline::stop_at(crate::deadline::already_expired())),
            ..Default::default()
        };
        let mut stats = QueryStats::default();
        let fb = Interval::new(-9.0, 9.0);
        let (yr, _) = lp_relax_y(&mut enc, fb, fb, &solver, true, &mut stats);
        assert_eq!(yr, fb);
        assert!(stats.fallbacks >= 2);
    }
}
