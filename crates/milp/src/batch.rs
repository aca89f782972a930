//! Warm-started objective sweeps over one constraint skeleton.
//!
//! The certifier's dominant query pattern is "one model, many objectives":
//! each `LpRelaxY`/`LpRelaxX` sub-problem minimizes *and* maximizes several
//! expressions over the identical constraint set. A cold simplex solve pays
//! phase 1 (driving artificial variables out of every equality row) each
//! time, even though feasibility does not depend on the objective at all.
//! [`BatchSolver`] amortizes that: the first solve runs cold and snapshots
//! its final [`Basis`]; each subsequent solve restores the snapshot — already
//! primal feasible — and reoptimizes phase 2 only. A basis stored by an
//! earlier sweep over since-moved RHS or bounds
//! ([`BatchSolver::solve_slot`]) is brought back to feasibility by the dual
//! simplex first. Whenever a restore cannot complete (singular
//! refactorization, an unrepairable snapshot, numerical trouble), the solve
//! transparently falls back to a cold solve, so results never depend on
//! whether a warm start succeeded.
//!
//! Mixed-integer models are accepted for uniformity and solved by
//! branch-and-bound, whose tree starts cold for every objective (inside the
//! tree, nodes warm-start from their parent's basis); the
//! continuous/integer dispatch matches [`Model::solve_with`] exactly.

use crate::error::SolveError;
use crate::model::{Model, Sense};
use crate::options::SolveOptions;
use crate::simplex::{self, Basis, Resident, ResolveOutcome, WarmResidentOutcome};
use crate::{branch_bound, LinExpr, Solution};

/// Work counters for one [`BatchSolver`]'s lifetime.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Objectives solved (in any way).
    pub solves: u64,
    /// Solves completed from a restored basis (phase 1 skipped).
    pub warm_hits: u64,
    /// Warm attempts that were rejected and fell back to a cold solve.
    pub warm_misses: u64,
    /// Solves that ran cold because no snapshot was available (the first
    /// solve of every sweep, MILP solves, and everything after a failure).
    pub cold_solves: u64,
    /// Total simplex pivots across all solves, *including* the pivots burned
    /// by warm attempts that were later rejected (that work is real even
    /// though its result was discarded). A solve that ends in an error
    /// contributes nothing: [`SolveError`] carries no counters.
    pub pivots: u64,
    /// Estimated pivots avoided by warm-starting: for each warm hit, the
    /// pivot count of the most recent *cold* solve on this skeleton minus
    /// the warm solve's own pivots, saturating at zero. An estimate — the
    /// true counterfactual would require solving cold again.
    pub pivots_saved: u64,
    /// Warm hits whose basis came from a caller-provided cross-sweep slot
    /// ([`BatchSolver::solve_slot`]) rather than this sweep's own previous
    /// solve. Every seed hit is also counted in [`BatchStats::warm_hits`].
    pub seed_hits: u64,
}

impl BatchStats {
    /// Accumulates another counter set.
    pub fn absorb(&mut self, other: BatchStats) {
        self.solves += other.solves;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.cold_solves += other.cold_solves;
        self.pivots += other.pivots;
        self.pivots_saved += other.pivots_saved;
        self.seed_hits += other.seed_hits;
    }
}

/// Sweeps a list of objectives over one [`Model`] skeleton, warm-starting
/// each solve from the previous one's optimal basis.
///
/// ```
/// use itne_milp::{BatchSolver, Cmp, Model, Sense, SolveOptions};
///
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 10.0);
/// let y = m.add_var(0.0, 10.0);
/// m.add_constraint(x + y, Cmp::Le, 6.0);
/// m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
///
/// let opts = SolveOptions::default();
/// let mut batch = BatchSolver::new(&mut m);
/// let hi = batch.solve(Sense::Maximize, 3.0 * x + 2.0 * y, &opts).unwrap();
/// let lo = batch.solve(Sense::Minimize, 3.0 * x + 2.0 * y, &opts).unwrap();
/// assert!((hi.objective - 15.0).abs() < 1e-6);
/// assert!((lo.objective - 0.0).abs() < 1e-6);
/// assert_eq!(batch.stats().warm_hits, 1); // the second solve reused the basis
/// ```
pub struct BatchSolver<'m> {
    model: &'m mut Model,
    /// The previous solve's live factorized tableau. Reoptimizing it in
    /// place is strictly cheaper than restoring a [`crate::Basis`] snapshot
    /// (no `B⁻¹` refactorization per solve); snapshots carry warm starts
    /// *across* sweeps ([`BatchSolver::solve_slot`]).
    resident: Option<Resident>,
    /// Pivot count of the most recent cold solve, the baseline for
    /// [`BatchStats::pivots_saved`].
    last_cold_pivots: u64,
    stats: BatchStats,
}

impl<'m> BatchSolver<'m> {
    /// Wraps a model skeleton. The model's constraints and bounds must stay
    /// fixed for the sweep's duration (the borrow enforces exclusivity); the
    /// objective is overwritten by every solve.
    pub fn new(model: &'m mut Model) -> Self {
        BatchSolver {
            model,
            resident: None,
            last_cold_pivots: 0,
            stats: BatchStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Flattens the current resident factorization to a restorable [`Basis`]
    /// snapshot for cross-sweep warm starts ([`BatchSolver::solve_slot`]).
    /// `None` when no resident is held or the final basis still contains an
    /// artificial column (redundant equality rows).
    pub fn snapshot(&self) -> Option<Basis> {
        self.resident.as_ref().and_then(Resident::snapshot)
    }

    /// Read-only view of the model being swept — the exact problem data the
    /// most recent [`BatchSolver::solve`]'s certificate refers to (including
    /// the objective that solve installed).
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Sets `sense expr` as the objective and solves, warm-starting from the
    /// previous solve's basis when one is available (and
    /// [`SolveOptions::warm_start`] is on): [`BatchSolver::solve_slot`] with
    /// an empty slot.
    ///
    /// # Errors
    ///
    /// See [`SolveError`]; identical failure modes to [`Model::solve_with`].
    pub fn solve(
        &mut self,
        sense: Sense,
        expr: impl Into<LinExpr>,
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        self.solve_slot(sense, expr, opts, &mut None)
    }

    /// Sets `sense expr` as the objective and solves it, with a persistent
    /// per-objective basis `slot` spanning sweeps: the solve starts from the
    /// basis the *previous sweep* stored for this same objective (a
    /// cross-sweep warm start, counted in [`BatchStats::seed_hits`]) and
    /// writes its own final basis back for the next one. With an empty slot
    /// it chains from the previous solve of this sweep instead, and the
    /// sweep's first solve runs cold.
    ///
    /// With a live resident the restore reuses the compiled skeleton and
    /// working arrays and pays only a basis refactorization
    /// ([`Resident::resolve_from`]); the sweep's first solve rebuilds the
    /// engine from the snapshot. A stored basis whose point is no longer
    /// primal feasible — the model's RHS or bounds moved since the slot was
    /// written — is repaired in place by the sparse engine's bounded dual
    /// simplex and still counts as a seed hit. A restore that cannot
    /// complete (shape mismatch, singular basis, a repair that finds no
    /// entering column or hits the pivot cap, a failed residual check, or
    /// any stale point on the dense engine) is a warm miss and falls back to
    /// a cold solve, so the slot is advisory and never affects results, only
    /// the work counters.
    ///
    /// # Errors
    ///
    /// See [`SolveError`]; identical failure modes to [`Model::solve_with`].
    pub fn solve_slot(
        &mut self,
        sense: Sense,
        expr: impl Into<LinExpr>,
        opts: &SolveOptions,
        slot: &mut Option<Basis>,
    ) -> Result<Solution, SolveError> {
        self.model.set_objective(sense, expr);
        self.stats.solves += 1;
        self.model.validate()?;

        if self.model.num_integers() > 0 {
            // Mixed models: no warm start, same dispatch as `solve_with`.
            self.stats.cold_solves += 1;
            let sol = branch_bound::solve_milp(self.model, opts)?;
            self.stats.pivots += sol.stats.pivots;
            return Ok(sol);
        }

        // A resident factorization belongs to the engine that ran the cold
        // solve; if the caller switches `opts.engine` mid-sweep (e.g. for a
        // differential run), answering from the old engine's resident would
        // silently compare an engine against itself. Drop it and solve cold
        // with the engine actually requested.
        if self
            .resident
            .as_ref()
            .is_some_and(|r| r.engine() != opts.engine)
        {
            self.resident = None;
        }

        if opts.warm_start {
            let attempt = match (slot.as_ref(), self.resident.as_mut()) {
                // Slot restore against the live engine: skeleton and working
                // arrays are reused, only the basis is refactorized.
                (Some(warm), Some(resident)) => Some(resident.resolve_from(self.model, opts, warm)),
                // Empty slot: chain from the previous solve of this sweep.
                (None, Some(resident)) => Some(resident.resolve(self.model, opts)),
                // First solve of the sweep: rebuild the engine once from the
                // stored snapshot; later slot solves rebase it.
                (Some(warm), None) => {
                    match simplex::solve_lp_warm_resident(self.model, opts, warm)? {
                        WarmResidentOutcome::Solved(sol, resident) => {
                            self.stats.warm_hits += 1;
                            self.stats.seed_hits += 1;
                            self.stats.pivots += sol.stats.pivots;
                            self.resident = resident;
                            self.store_slot(slot);
                            return Ok(sol);
                        }
                        WarmResidentOutcome::Rejected { wasted_pivots } => {
                            self.stats.warm_misses += 1;
                            self.stats.pivots += wasted_pivots;
                        }
                    }
                    None
                }
                (None, None) => None,
            };
            match attempt {
                Some(Ok(ResolveOutcome::Solved(sol))) => {
                    self.stats.warm_hits += 1;
                    self.stats.seed_hits += u64::from(slot.is_some());
                    self.stats.pivots += sol.stats.pivots;
                    self.stats.pivots_saved +=
                        self.last_cold_pivots.saturating_sub(sol.stats.pivots);
                    self.store_slot(slot);
                    return Ok(sol);
                }
                Some(Ok(ResolveOutcome::Rejected { wasted_pivots })) => {
                    // The failed attempt may have left the engine
                    // inconsistent; a full rebuild from the same snapshot
                    // would reject for the same reason, so go straight to a
                    // cold solve.
                    self.stats.warm_misses += 1;
                    self.stats.pivots += wasted_pivots;
                    self.resident = None;
                }
                Some(Err(e)) => {
                    self.resident = None;
                    return Err(e);
                }
                None => {}
            }
        }

        self.stats.cold_solves += 1;
        match simplex::solve_lp_resident(self.model, opts) {
            Ok((sol, resident)) => {
                self.stats.pivots += sol.stats.pivots;
                self.last_cold_pivots = sol.stats.pivots;
                self.resident = if opts.warm_start { resident } else { None };
                self.store_slot(slot);
                Ok(sol)
            }
            Err(e) => {
                self.resident = None;
                Err(e)
            }
        }
    }

    /// Writes the current resident's final basis into `slot` for the next
    /// sweep. A basis that cannot be snapshotted (artificial still basic)
    /// leaves the previous slot content in place — it is still the best
    /// known start for this objective.
    fn store_slot(&self, slot: &mut Option<Basis>) {
        if let Some(b) = self.snapshot() {
            *slot = Some(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cmp;

    fn skeleton() -> (Model, crate::VarId, crate::VarId) {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        m.add_constraint(x - y, Cmp::Ge, -5.0);
        (m, x, y)
    }

    #[test]
    fn sweep_matches_cold_solves() {
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions::default();
        let objectives: Vec<(Sense, LinExpr)> = vec![
            (Sense::Maximize, 3.0 * x + 2.0 * y),
            (Sense::Minimize, 3.0 * x + 2.0 * y),
            (Sense::Maximize, 1.0 * y - 1.0 * x),
            (Sense::Minimize, 1.0 * y),
            (Sense::Maximize, 1.0 * x),
        ];

        let cold: Vec<f64> = objectives
            .iter()
            .map(|(s, e)| {
                let mut fresh = m.clone();
                fresh.set_objective(*s, e.clone());
                fresh.solve().expect("cold solves").objective
            })
            .collect();

        let mut batch = BatchSolver::new(&mut m);
        let mut slots: Vec<Option<Basis>> = vec![None; objectives.len()];
        let warm: Vec<f64> = objectives
            .into_iter()
            .zip(&mut slots)
            .map(|((sense, e), slot)| {
                let sol = batch.solve_slot(sense, e, &opts, slot);
                sol.expect("warm sweep solves").objective
            })
            .collect();

        for (w, c) in warm.iter().zip(&cold) {
            assert!((w - c).abs() < 1e-9, "warm {w} vs cold {c}");
        }
        assert!(
            slots.iter().all(Option::is_some),
            "every solve stores its basis"
        );
        let stats = batch.stats();
        assert_eq!(stats.solves, 5);
        assert_eq!(stats.cold_solves + stats.warm_hits + stats.warm_misses, 5);
        assert!(stats.warm_hits >= 4, "expected warm hits, got {stats:?}");
    }

    #[test]
    fn dense_engine_sweep_still_warm_starts() {
        // The dense resident tableau stays available behind
        // `SolveOptions::engine` for differential testing; its sweep path
        // must keep warm-starting and agreeing with cold solves.
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions {
            engine: crate::Engine::Dense,
            ..Default::default()
        };
        let cold_hi = {
            let mut fresh = m.clone();
            fresh.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
            fresh.solve_with(&opts).expect("cold solves").objective
        };
        let mut batch = BatchSolver::new(&mut m);
        let hi = batch
            .solve(Sense::Maximize, 3.0 * x + 2.0 * y, &opts)
            .unwrap();
        let lo = batch
            .solve(Sense::Minimize, 3.0 * x + 2.0 * y, &opts)
            .unwrap();
        assert!((hi.objective - cold_hi).abs() < 1e-9);
        assert!(lo.objective.abs() < 1e-9);
        assert_eq!(batch.stats().warm_hits, 1);
    }

    #[test]
    fn engine_switch_mid_sweep_discards_resident() {
        // Flipping `opts.engine` between solves must not answer from the
        // previous engine's resident — the differential-testing use case
        // depends on the requested engine actually running.
        let (mut m, x, y) = skeleton();
        let sparse = SolveOptions::default();
        let dense = SolveOptions {
            engine: crate::Engine::Dense,
            ..Default::default()
        };
        let mut batch = BatchSolver::new(&mut m);
        batch.solve(Sense::Maximize, x + y, &sparse).unwrap();
        batch.solve(Sense::Minimize, x + y, &dense).unwrap();
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2, "engine switch must re-solve cold");
        assert_eq!(stats.warm_hits, 0);
        // The switched engine's own resident chains from there.
        batch.solve(Sense::Maximize, 1.0 * x, &dense).unwrap();
        assert_eq!(batch.stats().warm_hits, 1);
    }

    #[test]
    fn warm_start_disabled_runs_every_solve_cold() {
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions {
            warm_start: false,
            ..Default::default()
        };
        let mut batch = BatchSolver::new(&mut m);
        batch.solve(Sense::Maximize, x + y, &opts).unwrap();
        batch.solve(Sense::Minimize, x + y, &opts).unwrap();
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.warm_hits, 0);
        assert_eq!(stats.warm_misses, 0);
    }

    #[test]
    fn integer_models_solve_cold_through_branch_and_bound() {
        let mut m = Model::new();
        let a = m.add_binary();
        let b = m.add_binary();
        m.add_constraint(3.0 * a + 4.0 * b, Cmp::Le, 6.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        let hi = batch
            .solve(Sense::Maximize, 10.0 * a + 13.0 * b, &opts)
            .unwrap();
        assert!((hi.objective - 13.0).abs() < 1e-6);
        let lo = batch
            .solve(Sense::Minimize, 10.0 * a + 13.0 * b, &opts)
            .unwrap();
        assert!(lo.objective.abs() < 1e-9);
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2);
        assert_eq!(stats.warm_hits, 0);
    }

    #[test]
    fn redundant_equality_rows_stay_warm() {
        // The duplicated hyperplane keeps a frozen artificial in the final
        // basis. A `Basis` snapshot cannot represent that (see
        // `BatchSolver::snapshot`), but the live resident tableau carries
        // the frozen artificial along, so the sweep still warm-starts — and
        // must still agree with `Model::solve`.
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0);
        let y = m.add_var(0.0, 5.0);
        m.add_constraint(x + y, Cmp::Eq, 4.0);
        m.add_constraint(2.0 * x + 2.0 * y, Cmp::Eq, 8.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        let hi = batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap();
        let lo = batch.solve(Sense::Minimize, 1.0 * x, &opts).unwrap();
        assert!((hi.objective - 4.0).abs() < 1e-6);
        assert!(lo.objective.abs() < 1e-6);
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.warm_hits, 1);
    }

    #[test]
    fn infeasible_skeleton_errors_on_every_solve() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(2.0 * x, Cmp::Ge, 3.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        for _ in 0..2 {
            assert_eq!(
                batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap_err(),
                SolveError::Infeasible
            );
        }
        assert_eq!(batch.stats().cold_solves, 2);
    }

    #[test]
    fn unbounded_objective_is_reported_warm_or_cold() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(y - x, Cmp::Le, 1.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut m);
        // Bounded objective first, to install a basis.
        batch.solve(Sense::Maximize, 1.0 * y, &opts).unwrap();
        assert_eq!(
            batch.solve(Sense::Maximize, 1.0 * x, &opts).unwrap_err(),
            SolveError::Unbounded
        );
    }

    /// The certifier's outward pad-and-snap onto the 2⁻³⁰ grid.
    fn snapped(v: f64, sense: Sense) -> f64 {
        let grid = 1.0 / f64::from(1u32 << 30);
        let pad = 1e-7 + v.abs() * 1e-9;
        match sense {
            Sense::Maximize => ((v + pad) / grid).ceil() * grid,
            Sense::Minimize => ((v - pad) / grid).floor() * grid,
        }
    }

    /// Whether `sol`'s dual certificate proves `claim` on `model` in exact
    /// arithmetic.
    fn certifies(model: &Model, sol: &Solution, claim: f64) -> bool {
        let Some(cert) = sol.certificate() else {
            return false;
        };
        let rows: Vec<_> = model.rows.iter().map(branch_bound::row_ref).collect();
        let bounds: Vec<(f64, f64)> = model.cols.iter().map(|c| (c.lo, c.hi)).collect();
        itne_certcheck::verify_bound(
            model.num_vars(),
            &rows,
            &bounds,
            model.objective_terms(),
            model.objective_constant(),
            model.objective_sense() == Some(Sense::Maximize),
            &cert.row_duals,
            claim,
        )
        .is_valid()
    }

    /// Slots stored before the RHS moved hold bases whose restored points
    /// are primal infeasible (`x + y ≤ 6 → 12` puts both optima's vertices
    /// outside the box or past `2x + y ≤ 9`). The sparse engine repairs them
    /// warm — the sweep's first slot through a rebuilt engine, the second
    /// through the in-core rebase — and lands on the cold optimum.
    #[test]
    fn stale_slots_are_repaired_by_the_dual_simplex() {
        let opts = SolveOptions::default();
        let (mut m, x, y) = skeleton();
        let objectives = [3.0 * x + 2.0 * y, 1.0 * x + 3.0 * y];
        let mut slots = [None, None];
        let mut batch = BatchSolver::new(&mut m);
        for (e, slot) in objectives.iter().zip(&mut slots) {
            batch
                .solve_slot(Sense::Maximize, e.clone(), &opts, slot)
                .unwrap();
        }
        m.update_rhs(0, 12.0);

        let mut batch = BatchSolver::new(&mut m);
        for ((e, slot), want) in objectives.iter().zip(&mut slots).zip([50.0, 61.0]) {
            let warm = batch
                .solve_slot(Sense::Maximize, e.clone(), &opts, slot)
                .unwrap();
            let cold = batch.model().solve_with(&opts).unwrap();
            assert!((warm.objective - want / 3.0).abs() < 1e-9);
            let claim = snapped(warm.objective, Sense::Maximize);
            assert_eq!(
                claim.to_bits(),
                snapped(cold.objective, Sense::Maximize).to_bits(),
                "warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(certifies(batch.model(), &warm, claim));
        }
        let stats = batch.stats();
        assert_eq!(stats.warm_misses, 0, "{stats:?}");
        assert_eq!(stats.seed_hits, 2, "{stats:?}");
        assert_eq!(stats.cold_solves, 0, "{stats:?}");
    }
}
