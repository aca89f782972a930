//! Property-based cross-checks of the LP/MILP solver.
//!
//! * Any solution reported `Optimal` must be feasible and must dominate every
//!   feasible point we can find by sampling.
//! * Branch-and-bound must agree with brute-force enumeration over all binary
//!   assignments (each completed by an LP on the continuous remainder).
//! * Warm-started batched sweeps ([`BatchSolver`]) and basis-slot restore
//!   chains ([`BatchSolver::solve_slot`]) must agree with independent cold
//!   solves on every objective of randomly generated *feasible* skeletons —
//!   including when a restore is rejected and falls back to a cold solve.

use itne_milp::{
    BatchSolver, Cmp, Engine, LinExpr, Model, Sense, Solution, SolveError, SolveOptions,
};
use proptest::prelude::*;

/// Both LP engines, differentially tested against each other below. The LU
/// engine folds `≤/≥` range pairs into bounded slacks, so it exercises a
/// genuinely different internal row space than the dense oracle.
const ENGINES: [Engine; 2] = [Engine::Lu, Engine::Dense];

fn engine_opts(engine: Engine) -> SolveOptions {
    SolveOptions {
        engine,
        ..Default::default()
    }
}

// Mirror of the certifier's outward pad-and-snap (`itne_core::query`): pad
// by an absolute-plus-relative slack dominating simplex round-off, then snap
// outward onto the 2⁻³⁰ dyadic grid. Engines that take different pivot paths
// to the same optimum land within a few ulps of each other, so their snapped
// bounds must be *bitwise* equal — the property the golden suite relies on.
const SOUND_SLACK: f64 = 1e-7;
const BOUND_GRID: f64 = 1.0 / (1024.0 * 1024.0 * 1024.0);

fn snap_bound(v: f64, sense: Sense) -> f64 {
    let (padded, up) = match sense {
        Sense::Maximize => (v + SOUND_SLACK + v.abs() * 1e-9, true),
        Sense::Minimize => (v - SOUND_SLACK - v.abs() * 1e-9, false),
    };
    let q = padded / BOUND_GRID;
    let q = if up { q.ceil() } else { q.floor() };
    q * BOUND_GRID
}

/// Validates the solution's dual certificate against its own snapped claim
/// in exact arithmetic, exactly as the certifier would under
/// `ITNE_CHECK_CERTS=1`.
fn certificate_checks(model: &Model, sol: &itne_milp::Solution) -> bool {
    let Some(cert) = sol.certificate() else {
        return false;
    };
    let sense = model.objective_sense().unwrap_or(Sense::Minimize);
    model
        .check_bound(sense, &cert.row_duals, snap_bound(sol.objective, sense))
        .is_valid()
}

#[derive(Debug, Clone)]
struct RandomLp {
    n: usize,
    bounds: Vec<(f64, f64)>,
    rows: Vec<(Vec<f64>, Cmp, f64)>,
    obj: Vec<f64>,
    sense: Sense,
}

fn cmp_strategy() -> impl Strategy<Value = Cmp> {
    prop_oneof![Just(Cmp::Le), Just(Cmp::Ge), Just(Cmp::Eq)]
}

fn coef() -> impl Strategy<Value = f64> {
    // Small integers keep instances well-scaled and make failures readable.
    (-4i32..=4).prop_map(|v| v as f64)
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (
        2usize..=5,
        1usize..=4,
        prop_oneof![Just(Sense::Minimize), Just(Sense::Maximize)],
    )
        .prop_flat_map(|(n, m, sense)| {
            let bounds = proptest::collection::vec((-3i32..=0, 0i32..=3), n)
                .prop_map(|bs| bs.into_iter().map(|(l, h)| (l as f64, h as f64)).collect());
            let rows = proptest::collection::vec(
                (
                    proptest::collection::vec(coef(), n),
                    cmp_strategy(),
                    -5i32..=5,
                ),
                m,
            )
            .prop_map(|rs| {
                rs.into_iter()
                    .map(|(cs, cmp, rhs)| (cs, cmp, rhs as f64))
                    .collect::<Vec<_>>()
            });
            let obj = proptest::collection::vec(coef(), n);
            (Just(n), bounds, rows, obj, Just(sense))
        })
        .prop_map(|(n, bounds, rows, obj, sense)| RandomLp {
            n,
            bounds,
            rows,
            obj,
            sense,
        })
}

fn build(lp: &RandomLp) -> (Model, Vec<itne_milp::VarId>) {
    assert_eq!(lp.bounds.len(), lp.n, "strategy produced inconsistent LP");
    let mut m = Model::new();
    let vars: Vec<_> = lp.bounds.iter().map(|&(l, h)| m.add_var(l, h)).collect();
    for (cs, cmp, rhs) in &lp.rows {
        let e = LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);
        m.add_constraint(e, *cmp, *rhs);
    }
    let obj = LinExpr::from_terms(vars.iter().copied().zip(lp.obj.iter().copied()), 0.0);
    m.set_objective(lp.sense, obj);
    (m, vars)
}

/// Deterministic low-discrepancy point in the variable box.
fn sample_point(lp: &RandomLp, k: usize) -> Vec<f64> {
    lp.bounds
        .iter()
        .enumerate()
        .map(|(j, &(l, h))| {
            let t = ((k * 2654435761 + j * 40503) % 1000) as f64 / 999.0;
            l + t * (h - l)
        })
        .collect()
}

fn feasible(lp: &RandomLp, x: &[f64]) -> bool {
    lp.rows.iter().all(|(cs, cmp, rhs)| {
        let lhs: f64 = cs.iter().zip(x).map(|(c, v)| c * v).sum();
        match cmp {
            Cmp::Le => lhs <= rhs + 1e-9,
            Cmp::Ge => lhs >= rhs - 1e-9,
            Cmp::Eq => (lhs - rhs).abs() <= 1e-9,
        }
    })
}

fn objective(lp: &RandomLp, x: &[f64]) -> f64 {
    lp.obj.iter().zip(x).map(|(c, v)| c * v).sum()
}

/// A random LP skeleton that is feasible *by construction* (every row's rhs
/// is offset from the activity of a known in-box point), plus a batch of
/// objectives to sweep over it — the certifier's query shape.
#[derive(Debug, Clone)]
struct FeasibleSweep {
    bounds: Vec<(f64, f64)>,
    /// The known feasible point, used only to build `rows`.
    point: Vec<f64>,
    rows: Vec<(Vec<f64>, Cmp, f64)>,
    objectives: Vec<(Sense, Vec<f64>)>,
    /// Append a scaled copy of row 0's hyperplane pinned at the witness
    /// point, as an equality. Linearly dependent rows routinely strand a
    /// frozen artificial in the final basis, which makes basis snapshots
    /// unavailable (`solve_slot` stores none) and forces restore chains
    /// through their cold-fallback path.
    duplicate_row: bool,
}

fn sense_strategy() -> impl Strategy<Value = Sense> {
    prop_oneof![Just(Sense::Minimize), Just(Sense::Maximize)]
}

fn feasible_sweep() -> impl Strategy<Value = FeasibleSweep> {
    (2usize..=5, 1usize..=4, 2usize..=6, any::<bool>())
        .prop_flat_map(|(n, m, k, duplicate_row)| {
            let bounds = proptest::collection::vec((-3i32..=0, 0i32..=3), n).prop_map(|bs| {
                bs.into_iter()
                    .map(|(l, h)| (l as f64, h as f64))
                    .collect::<Vec<_>>()
            });
            // Interior-ish point, parameterized on a coarse grid.
            let point_t = proptest::collection::vec(0u32..=8, n);
            let rows = proptest::collection::vec(
                (
                    proptest::collection::vec(coef(), n),
                    cmp_strategy(),
                    0i32..=2,
                ),
                m,
            );
            let objectives = proptest::collection::vec(
                (sense_strategy(), proptest::collection::vec(coef(), n)),
                k,
            );
            (bounds, point_t, rows, objectives, Just(duplicate_row))
        })
        .prop_map(|(bounds, point_t, raw_rows, objectives, duplicate_row)| {
            let point: Vec<f64> = bounds
                .iter()
                .zip(&point_t)
                .map(|(&(l, h), &t)| l + (t as f64 / 8.0) * (h - l))
                .collect();
            let rows = raw_rows
                .into_iter()
                .map(|(cs, cmp, margin)| {
                    let activity: f64 = cs.iter().zip(&point).map(|(c, x)| c * x).sum();
                    let rhs = match cmp {
                        Cmp::Le => activity + margin as f64,
                        Cmp::Ge => activity - margin as f64,
                        Cmp::Eq => activity,
                    };
                    (cs, cmp, rhs)
                })
                .collect();
            FeasibleSweep {
                bounds,
                point,
                rows,
                objectives,
                duplicate_row,
            }
        })
}

/// `s` with its witness point reflected through the box center and every
/// row's RHS moved with it (margins kept), so the skeleton stays feasible by
/// construction while the old optima's vertices may not.
fn moved_witness(s: &FeasibleSweep) -> FeasibleSweep {
    let point: Vec<f64> = s
        .bounds
        .iter()
        .zip(&s.point)
        .map(|(&(l, h), &p)| l + h - p)
        .collect();
    let activity = |cs: &[f64], x: &[f64]| -> f64 { cs.iter().zip(x).map(|(c, v)| c * v).sum() };
    let rows = s
        .rows
        .iter()
        .map(|(cs, cmp, rhs)| {
            let margin = rhs - activity(cs, &s.point);
            (cs.clone(), *cmp, activity(cs, &point) + margin)
        })
        .collect();
    FeasibleSweep {
        point,
        rows,
        ..s.clone()
    }
}

fn build_sweep_model(s: &FeasibleSweep) -> (Model, Vec<itne_milp::VarId>) {
    let mut m = Model::new();
    let vars: Vec<_> = s.bounds.iter().map(|&(l, h)| m.add_var(l, h)).collect();
    for (cs, cmp, rhs) in &s.rows {
        let e = LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);
        m.add_constraint(e, *cmp, *rhs);
    }
    if s.duplicate_row {
        let (cs, _, _) = &s.rows[0];
        let e = LinExpr::from_terms(vars.iter().copied().zip(cs.iter().map(|&c| 2.0 * c)), 0.0);
        // Pin the duplicated hyperplane at the witness point's activity so
        // the skeleton stays feasible by construction.
        let activity: f64 = cs.iter().zip(&s.point).map(|(c, x)| c * x).sum();
        m.add_constraint(e, Cmp::Eq, 2.0 * activity);
    }
    (m, vars)
}

proptest! {
    // Fixed seed + bounded case count: CI runs are deterministic and any
    // failure reproduces locally with no persistence files.
    #![proptest_config(ProptestConfig {
        rng_seed: 0x17de_c0de_0002,
        ..ProptestConfig::with_cases(256)
    })]

    #[test]
    fn lp_solutions_are_feasible_and_dominant(lp in random_lp()) {
        let (model, _) = build(&lp);
        match model.solve() {
            Ok(sol) => {
                prop_assert!(model.violation(sol.values()) < 1e-6,
                    "reported optimal point violates constraints by {}",
                    model.violation(sol.values()));
                // Sampled feasible points must not beat the reported optimum.
                for k in 0..400 {
                    let p = sample_point(&lp, k);
                    if feasible(&lp, &p) {
                        let v = objective(&lp, &p);
                        match lp.sense {
                            Sense::Maximize =>
                                prop_assert!(v <= sol.objective + 1e-6,
                                    "sample {v} beats reported max {}", sol.objective),
                            Sense::Minimize =>
                                prop_assert!(v >= sol.objective - 1e-6,
                                    "sample {v} beats reported min {}", sol.objective),
                        }
                    }
                }
            }
            Err(SolveError::Infeasible) => {
                // No sampled point may be feasible. (Equality rows are thin:
                // samples rarely hit them, so only check inequality-only LPs.)
                if lp.rows.iter().all(|(_, cmp, _)| *cmp != Cmp::Eq) {
                    for k in 0..400 {
                        let p = sample_point(&lp, k);
                        prop_assert!(!feasible(&lp, &p),
                            "solver said infeasible but {p:?} is feasible");
                    }
                }
            }
            Err(SolveError::Unbounded) => {
                // All variables are boxed, so LPs here are never unbounded.
                prop_assert!(false, "bounded LP reported unbounded");
            }
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }

    #[test]
    fn min_never_exceeds_max_over_same_feasible_set(lp in random_lp()) {
        let (mut model, vars) = build(&lp);
        let e = LinExpr::from_terms(vars.iter().copied().zip(lp.obj.iter().copied()), 0.0);
        let opts = SolveOptions::default();
        let mut batch = BatchSolver::new(&mut model);
        let lo = batch.solve_slot(Sense::Minimize, e.clone(), &opts, &mut None);
        let hi = batch.solve_slot(Sense::Maximize, e, &opts, &mut None);
        if let (Ok(lo), Ok(hi)) = (lo, hi) {
            prop_assert!(lo.objective <= hi.objective + 1e-9,
                "min {} > max {}", lo.objective, hi.objective);
        }
    }

    #[test]
    fn branch_and_bound_matches_binary_enumeration(
        nb in 2usize..=6,
        nc in 1usize..=2,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-3i32..=3, 8), cmp_strategy(), -4i32..=6), 1..=3),
        obj in proptest::collection::vec(-3i32..=3, 8),
    ) {
        let mut m = Model::new();
        let bins: Vec<_> = (0..nb).map(|_| m.add_binary()).collect();
        let conts: Vec<_> = (0..nc).map(|_| m.add_var(-2.0, 2.0)).collect();
        let all: Vec<_> = bins.iter().chain(&conts).copied().collect();
        for (cs, cmp, rhs) in &rows {
            let e = LinExpr::from_terms(
                all.iter().copied().zip(cs.iter().map(|&c| c as f64)), 0.0);
            m.add_constraint(e, *cmp, *rhs as f64);
        }
        let objective = LinExpr::from_terms(
            all.iter().copied().zip(obj.iter().map(|&c| c as f64)), 0.0);
        m.set_objective(Sense::Maximize, objective.clone());

        // Every engine, with warm nodes (dual simplex from the parent basis,
        // Farkas-pruned children) and with every node cold.
        let arms: Vec<(Engine, bool, Result<Solution, SolveError>)> =
            ENGINES
                .into_iter()
                .flat_map(|engine| [true, false].map(|warm_start| (engine, warm_start)))
                .map(|(engine, warm_start)| {
                    let opts = SolveOptions { engine, warm_start, ..SolveOptions::default() };
                    (engine, warm_start, m.solve_with(&opts))
                })
                .collect();

        // Brute force: fix each binary assignment, solve the continuous rest.
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << nb) {
            let mut fixed = m.clone();
            for (i, &b) in bins.iter().enumerate() {
                let v = ((mask >> i) & 1) as f64;
                fixed.set_bounds(b, v, v);
            }
            if let Ok(s) = fixed.solve() {
                best = Some(best.map_or(s.objective, |b: f64| b.max(s.objective)));
            }
        }

        for (engine, warm, got) in arms {
            match (got, best) {
                (Ok(sol), Some(b)) => prop_assert!(
                    (sol.objective - b).abs() < 1e-5,
                    "{engine:?} warm={warm}: B&B {} vs enumeration {b}", sol.objective),
                (Err(SolveError::Infeasible), None) => {}
                (Ok(sol), None) => prop_assert!(false,
                    "{engine:?} warm={warm}: B&B found {} but enumeration says infeasible",
                    sol.objective),
                (Err(SolveError::Infeasible), Some(b)) => prop_assert!(false,
                    "{engine:?} warm={warm}: B&B says infeasible but enumeration found {b}"),
                (Err(e), _) => prop_assert!(false, "{engine:?} warm={warm}: unexpected error: {e}"),
            }
        }
    }

    /// The tentpole property: a warm-started `BatchSolver` sweep over one
    /// feasible skeleton agrees with an independent cold solve of every
    /// objective, to solver tolerance — including after any fallback.
    #[test]
    fn warm_sweeps_match_independent_cold_solves(s in feasible_sweep()) {
        let (mut model, vars) = build_sweep_model(&s);
        let opts = SolveOptions::default();

        let cold: Vec<Result<f64, SolveError>> = s.objectives.iter().map(|(sense, cs)| {
            let mut fresh = model.clone();
            fresh.set_objective(
                *sense,
                LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0),
            );
            fresh.solve_with(&opts).map(|sol| sol.objective)
        }).collect();

        let mut batch = BatchSolver::new(&mut model);
        for ((sense, cs), cold_result) in s.objectives.iter().zip(&cold) {
            let e = LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);
            match (batch.solve(*sense, e, &opts), cold_result) {
                (Ok(w), Ok(c)) => prop_assert!(
                    (w.objective - c).abs() < 1e-6,
                    "warm {} vs cold {c} ({sense:?} over {cs:?})", w.objective),
                (Err(_), Err(_)) => {}
                (w, c) => prop_assert!(false,
                    "paths disagree on solvability: warm {:?} vs cold {c:?}",
                    w.map(|sol| sol.objective)),
            }
        }

        // The skeleton is feasible by construction (witness point in-box and
        // on the right side of every row), so nothing may report Infeasible.
        for c in &cold {
            prop_assert!(!matches!(c, Err(SolveError::Infeasible)),
                "feasible-by-construction skeleton reported infeasible");
        }
        let st = batch.stats();
        prop_assert_eq!(st.solves, s.objectives.len() as u64);
        prop_assert_eq!(st.warm_hits + st.warm_misses + st.cold_solves, st.solves);
    }

    /// Differential property of the engine rewrite: the dense tableau and
    /// the LU-factorized engine (with its range-row folding) must agree on
    /// every random skeleton — the same
    /// verdict on solvability, *bitwise-identical* snapped certified bounds,
    /// and a dual certificate that validates the snapped claim in exact
    /// arithmetic on every arm.
    #[test]
    fn all_engines_agree_with_checkable_certificates(lp in random_lp()) {
        let (model, _) = build(&lp);
        let results: Vec<_> = ENGINES.iter()
            .map(|&e| model.solve_with(&engine_opts(e)))
            .collect();
        match &results[0] {
            Ok(first) => {
                let want = snap_bound(first.objective, lp.sense);
                for (engine, res) in ENGINES.iter().zip(&results) {
                    prop_assert!(res.is_ok(),
                        "{engine:?} failed ({:?}) where {:?} solved",
                        res.as_ref().err(), ENGINES[0]);
                    let sol = res.as_ref().unwrap();
                    let got = snap_bound(sol.objective, lp.sense);
                    prop_assert!(got.to_bits() == want.to_bits(),
                        "{engine:?} snapped bound {got} differs from {want}");
                    prop_assert!(sol.is_certified(),
                        "{engine:?} optimal LP solve must carry a certificate");
                    prop_assert!(certificate_checks(&model, sol),
                        "{engine:?} certificate fails on its snapped claim");
                }
            }
            Err(SolveError::Infeasible) => {
                for (engine, res) in ENGINES.iter().zip(&results) {
                    prop_assert!(
                        matches!(res, Err(SolveError::Infeasible)),
                        "{engine:?} says {:?} where {:?} says infeasible",
                        res.as_ref().map(|s| s.objective), ENGINES[0]);
                }
            }
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }

    /// The same differential property through the warm-started sweep path:
    /// `BatchSolver` sweeps (resident reoptimization, refactorizations and
    /// all) on each engine match objective by objective on every feasible
    /// skeleton — again with bitwise-identical snapped bounds and checkable
    /// certificates on every arm.
    #[test]
    fn warm_sweeps_agree_across_all_engines(s in feasible_sweep()) {
        let run = |engine: Engine| {
            let (mut model, vars) = build_sweep_model(&s);
            let opts = engine_opts(engine);
            let mut batch = BatchSolver::new(&mut model);
            s.objectives.iter().map(|(sense, cs)| {
                let e = LinExpr::from_terms(
                    vars.iter().copied().zip(cs.iter().copied()), 0.0);
                let sol = batch.solve(*sense, e, &opts)?;
                if !sol.is_certified() || !certificate_checks(batch.model(), &sol) {
                    return Err(SolveError::Numerical("certificate check".into()));
                }
                Ok(snap_bound(sol.objective, *sense))
            }).collect::<Vec<Result<f64, SolveError>>>()
        };
        let arms: Vec<_> = ENGINES.iter().map(|&e| run(e)).collect();
        for (engine, arm) in ENGINES.iter().zip(&arms).skip(1) {
            for (i, (got, want)) in arm.iter().zip(&arms[0]).enumerate() {
                match (got, want) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "objective {i}: {engine:?} snapped {a} vs {:?} {b}",
                        ENGINES[0]),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false,
                        "objective {i}: {engine:?} {got:?} vs {:?} {want:?}",
                        ENGINES[0]),
                }
            }
        }
    }

    /// Basis-slot restores across *separate* sweeps
    /// ([`BatchSolver::solve_slot`] on a fresh solver) also agree with cold
    /// solves; when no snapshot is available (e.g. a frozen artificial from
    /// the duplicated row) the chain silently degrades to cold solves and
    /// must stay exact. Every stored slot is also restored into a copy of the
    /// model whose witness point, and so its RHS, has moved: the restored
    /// point may now be primal infeasible, which the sparse engine repairs
    /// with the dual simplex, and the answer must still match a cold solve
    /// of the moved model with a certificate that checks.
    #[test]
    fn basis_snapshot_chains_match_cold_solves(s in feasible_sweep()) {
        let (model, vars) = build_sweep_model(&s);
        let (moved, _) = build_sweep_model(&moved_witness(&s));
        let opts = SolveOptions::default();
        let mut chain: Option<itne_milp::Basis> = None;
        for (sense, cs) in &s.objectives {
            let objective =
                LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);
            let mut m = model.clone();
            m.set_objective(*sense, objective.clone());
            let cold = m.solve_with(&opts);
            let warm = BatchSolver::new(&mut m).solve_slot(*sense, objective.clone(), &opts, &mut chain);
            match (warm, cold) {
                (Ok(warm), Ok(c)) => prop_assert!(
                    (warm.objective - c.objective).abs() < 1e-6,
                    "restored {} vs cold {} ({sense:?} over {cs:?})",
                    warm.objective, c.objective),
                (Err(_), Err(_)) => chain = None,
                (w, c) => prop_assert!(false,
                    "paths disagree on solvability: warm {:?} vs cold {:?}",
                    w.map(|sol| sol.objective), c.map(|sol| sol.objective)),
            }

            let mut mv = moved.clone();
            mv.set_objective(*sense, objective.clone());
            let cold = mv.solve_with(&opts);
            let warm = BatchSolver::new(&mut mv).solve_slot(*sense, objective, &opts, &mut chain.clone());
            match (warm, cold) {
                (Ok(warm), Ok(c)) => {
                    prop_assert!(
                        (warm.objective - c.objective).abs() < 1e-6,
                        "restored into the moved model {} vs cold {} ({sense:?} over {cs:?})",
                        warm.objective, c.objective);
                    prop_assert!(certificate_checks(&mv, &warm),
                        "certificate fails on the moved model");
                }
                (Err(_), Err(_)) => {}
                (w, c) => prop_assert!(false,
                    "moved model: warm {:?} vs cold {:?}",
                    w.map(|sol| sol.objective), c.map(|sol| sol.objective)),
            }
        }
    }
}
