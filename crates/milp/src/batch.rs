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
//! whether a warm start succeeded. Warm starts run on [`Engine::Lu`] only:
//! the dense oracle ([`Engine::Dense`]) solves every objective cold.
//!
//! Mixed-integer models are accepted for uniformity and solved by
//! branch-and-bound, whose tree starts cold for every objective (inside the
//! tree, nodes warm-start from their parent's basis); the
//! continuous/integer dispatch matches [`Model::solve_with`] exactly.

use crate::error::SolveError;
use crate::model::{Model, Sense};
use crate::options::{Engine, SolveOptions};
use crate::simplex::{self, Basis};
use crate::sparse::{self, ResolveOutcome, SparseResident, WarmResidentOutcome};
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
    /// solve of every sweep, MILP solves, every dense-engine solve, and
    /// everything after a failure).
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
    /// The previous LU solve's live factorized engine. Reoptimizing it in
    /// place is strictly cheaper than restoring a [`crate::Basis`] snapshot
    /// (no `B⁻¹` refactorization per solve); snapshots carry warm starts
    /// *across* sweeps ([`BatchSolver::solve_slot`]).
    resident: Option<SparseResident>,
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
        self.resident.as_ref().and_then(SparseResident::snapshot)
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
    /// working arrays and pays only a basis refactorization; the sweep's
    /// first solve rebuilds the engine from the snapshot. A stored basis
    /// whose point is no longer primal feasible — the model's RHS or bounds
    /// moved since the slot was written — is repaired in place by the
    /// bounded dual simplex and still counts as a seed hit. A slot shaped
    /// for another model (a row came or went since it was written) is not
    /// restored into a live resident: the solve chains from the previous one
    /// instead, a warm hit but not a seed hit, so only a sweep's first solve
    /// can run cold on it. A restore that cannot complete (shape mismatch,
    /// singular basis, a repair that finds no entering column or hits the
    /// pivot cap, or a failed residual check) is a warm miss and falls back
    /// to a cold solve, so the slot is advisory and never affects results,
    /// only the work counters.
    ///
    /// All of this is [`Engine::Lu`]'s. A solve on [`Engine::Dense`] drops
    /// the live resident, runs cold, and neither reads nor writes `slot`:
    /// the oracle keeps no warm state, so it never answers from a basis the
    /// LU engine left.
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

        if opts.engine == Engine::Dense {
            // The oracle keeps no warm state: it never answers from a basis
            // the LU engine left, and the LU solve after it starts cold.
            self.resident = None;
            self.stats.cold_solves += 1;
            let sol = simplex::solve_lp(self.model, opts)?;
            self.stats.pivots += sol.stats.pivots;
            return Ok(sol);
        }

        if opts.warm_start {
            let attempt = match (slot.as_ref(), self.resident.as_mut()) {
                // Slot restore against the live engine: skeleton and working
                // arrays are reused, only the basis is refactorized.
                (Some(warm), Some(resident)) if resident.fits(warm) => {
                    Some((true, resident.resolve_from(self.model, opts, warm)))
                }
                // Empty slot, or one shaped for another model: chain from
                // the previous solve of this sweep.
                (_, Some(resident)) => Some((false, resident.resolve(self.model, opts))),
                // First solve of the sweep: rebuild the engine once from the
                // stored snapshot; later slot solves rebase it.
                (Some(warm), None) => {
                    match sparse::solve_warm_resident(self.model, opts, warm)? {
                        WarmResidentOutcome::Solved(sol, resident) => {
                            self.stats.warm_hits += 1;
                            self.stats.seed_hits += 1;
                            self.stats.pivots += sol.stats.pivots;
                            self.resident = Some(resident);
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
                Some((seeded, Ok(ResolveOutcome::Solved(sol)))) => {
                    self.stats.warm_hits += 1;
                    self.stats.seed_hits += u64::from(seeded);
                    self.stats.pivots += sol.stats.pivots;
                    self.stats.pivots_saved +=
                        self.last_cold_pivots.saturating_sub(sol.stats.pivots);
                    self.store_slot(slot);
                    return Ok(sol);
                }
                Some((_, Ok(ResolveOutcome::Rejected { wasted_pivots }))) => {
                    // The failed attempt may have left the engine
                    // inconsistent; a full rebuild from the same snapshot
                    // would reject for the same reason, so go straight to a
                    // cold solve.
                    self.stats.warm_misses += 1;
                    self.stats.pivots += wasted_pivots;
                    self.resident = None;
                }
                Some((_, Err(e))) => {
                    self.resident = None;
                    return Err(e);
                }
                None => {}
            }
        }

        self.stats.cold_solves += 1;
        match sparse::solve_resident(self.model, opts) {
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

    /// The dense oracle keeps no warm state: every solve of a dense sweep
    /// runs cold and returns exactly what an independent cold solve of the
    /// same objective returns. It neither writes empty slots nor reads the
    /// ones an LU sweep filled.
    #[test]
    fn dense_engine_sweep_runs_every_solve_cold() {
        let (mut m, x, y) = skeleton();
        let opts = SolveOptions {
            engine: Engine::Dense,
            ..Default::default()
        };
        let objectives = [
            (Sense::Maximize, 3.0 * x + 2.0 * y),
            (Sense::Minimize, 3.0 * x + 2.0 * y),
            (Sense::Maximize, 1.0 * y - 1.0 * x),
        ];
        let cold: Vec<Solution> = objectives
            .iter()
            .map(|(sense, e)| {
                let mut fresh = m.clone();
                fresh.set_objective(*sense, e.clone());
                fresh.solve_with(&opts).expect("cold solves")
            })
            .collect();
        let mut empty: Vec<Option<Basis>> = vec![None; objectives.len()];
        let mut lu_filled = empty.clone();
        let mut batch = BatchSolver::new(&mut m);
        for ((sense, e), slot) in objectives.iter().zip(&mut lu_filled) {
            let lu = SolveOptions::default();
            batch.solve_slot(*sense, e.clone(), &lu, slot).unwrap();
        }
        for slots in [&mut empty, &mut lu_filled] {
            let mut batch = BatchSolver::new(&mut m);
            for (((sense, e), slot), want) in objectives.iter().zip(slots).zip(&cold) {
                let got = batch.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
                assert_eq!(got.objective.to_bits(), want.objective.to_bits());
                assert_eq!(got.stats.pivots, want.stats.pivots);
            }
            let stats = batch.stats();
            let counts = (stats.cold_solves, stats.warm_hits, stats.seed_hits);
            assert_eq!(counts, (3, 0, 0), "{stats:?}");
        }
        assert!(empty.iter().all(Option::is_none), "dense wrote a slot");
    }

    #[test]
    fn engine_switch_mid_sweep_discards_resident() {
        // Flipping `opts.engine` between solves must not answer from the
        // previous engine's resident — the differential-testing use case
        // depends on the requested engine actually running.
        let (mut m, x, y) = skeleton();
        let sparse = SolveOptions::default();
        let dense = SolveOptions {
            engine: Engine::Dense,
            ..Default::default()
        };
        let mut batch = BatchSolver::new(&mut m);
        batch.solve(Sense::Maximize, x + y, &sparse).unwrap();
        batch.solve(Sense::Minimize, x + y, &dense).unwrap();
        let stats = batch.stats();
        assert_eq!(stats.cold_solves, 2, "engine switch must re-solve cold");
        assert_eq!(stats.warm_hits, 0);
        // The dense chain stays cold.
        batch.solve(Sense::Maximize, 1.0 * x, &dense).unwrap();
        assert_eq!(batch.stats().warm_hits, 0);
        assert_eq!(batch.stats().cold_solves, 3);
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
            let cert = warm.certificate().expect("warm optimum carries duals");
            let verdict = batch
                .model()
                .check_bound(Sense::Maximize, &cert.row_duals, claim);
            assert!(verdict.is_valid(), "{verdict:?}");
        }
        let stats = batch.stats();
        assert_eq!(stats.warm_misses, 0, "{stats:?}");
        assert_eq!(stats.seed_hits, 2, "{stats:?}");
        assert_eq!(stats.cold_solves, 0, "{stats:?}");
    }

    /// Slots stored before the model lost a row no longer fit it. The
    /// sweep's first solve tries its slot, misses and runs cold; every later
    /// solve chains from the live engine instead of trying its slot, so the
    /// sweep runs one cold solve, and its values equal a cold sweep's. The
    /// slots it writes fit again.
    #[test]
    fn misfit_slots_chain_from_the_live_engine() {
        let opts = SolveOptions::default();
        let (mut m, x, y) = skeleton();
        let objectives = [
            (Sense::Maximize, 3.0 * x + 2.0 * y),
            (Sense::Minimize, 1.0 * x - 1.0 * y),
            (Sense::Maximize, 1.0 * y),
            (Sense::Minimize, 1.0 * x + 1.0 * y),
        ];
        let mut slots: Vec<Option<Basis>> = vec![None; objectives.len()];
        let mut batch = BatchSolver::new(&mut m);
        for ((sense, e), slot) in objectives.iter().zip(&mut slots) {
            batch.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
        }
        // The same skeleton without its last row.
        let mut fewer = Model::new();
        let (x2, y2) = (fewer.add_var(0.0, 10.0), fewer.add_var(0.0, 10.0));
        assert_eq!((x2, y2), (x, y));
        fewer.add_constraint(x + y, Cmp::Le, 6.0);
        fewer.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        let cold: Vec<f64> = objectives
            .iter()
            .map(|(sense, e)| {
                let mut fresh = fewer.clone();
                fresh.set_objective(*sense, e.clone());
                fresh.solve_with(&opts).unwrap().objective
            })
            .collect();

        for sweep in 0..2 {
            let mut batch = BatchSolver::new(&mut fewer);
            for (((sense, e), slot), want) in objectives.iter().zip(&mut slots).zip(&cold) {
                let got = batch.solve_slot(*sense, e.clone(), &opts, slot).unwrap();
                assert!((got.objective - want).abs() < 1e-9, "{got:?} vs {want}");
            }
            let stats = batch.stats();
            let n = objectives.len() as u64;
            let want = if sweep == 0 {
                // One miss on the first slot, then chains.
                (1, 1, n - 1, 0)
            } else {
                (0, 0, n, n)
            };
            assert_eq!(
                (
                    stats.cold_solves,
                    stats.warm_misses,
                    stats.warm_hits,
                    stats.seed_hits
                ),
                want,
                "sweep {sweep}: {stats:?}"
            );
        }
    }
}
