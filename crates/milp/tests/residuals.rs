//! Regression lock for `Stats::max_residual`: every solve path must report
//! the *measured* violation of the returned point — never the struct
//! default. A solver that silently reports 0.0 would hide exactly the
//! numerical drift the residual gate exists to catch.

use itne_milp::{BatchSolver, Cmp, Engine, Model, Sense, SolveOptions};

fn opts(engine: Engine) -> SolveOptions {
    SolveOptions {
        engine,
        ..Default::default()
    }
}

/// An LP where *no* f64 point satisfies everything exactly: both variables
/// are fixed at 1 and the equality row asks for 0.1 + 0.2 = 0.3, which does
/// not hold in f64 (the sum is 0.30000000000000004). Any returned point
/// therefore violates either the row or a bound by a tiny positive amount —
/// within tolerance, so the solve succeeds, but strictly nonzero.
fn drifty() -> Model {
    let mut m = Model::new();
    let x = m.add_var(1.0, 1.0);
    let y = m.add_var(1.0, 1.0);
    m.add_constraint(0.1 * x + 0.2 * y, Cmp::Eq, 0.3);
    m.set_objective(Sense::Maximize, 1.0 * x + 1.0 * y);
    m
}

#[test]
fn cold_solves_report_measured_residual() {
    for engine in [Engine::Lu, Engine::Dense] {
        let m = drifty();
        let sol = m.solve_with(&opts(engine)).unwrap();
        let measured = m.violation(sol.values());
        assert_eq!(
            sol.stats.max_residual, measured,
            "{engine:?}: stats must carry the measured violation"
        );
        assert!(
            measured > 0.0,
            "{engine:?}: drifty model should have nonzero residual \
             (got {measured:e}) — the test would be vacuous otherwise"
        );
    }
}

#[test]
fn warm_started_solves_report_measured_residual() {
    // The drifty row here is a `Le` over a free variable so the final basis
    // is artificial-free and snapshots: at the optimum z is pinned between
    // the row (which wants z ≤ 0.3 − 0.30000000000000004 < 0) and its lower
    // bound 0, so some tiny violation is unavoidable at any returned point.
    // A slot restore is the LU engine's alone; the dense oracle solves cold
    // (`cold_solves_report_measured_residual`).
    let skeleton = || {
        let mut m = Model::new();
        let x = m.add_var(1.0, 1.0);
        let y = m.add_var(1.0, 1.0);
        let z = m.add_var(0.0, 10.0);
        m.add_constraint(0.1 * x + 0.2 * y + z, Cmp::Le, 0.3);
        m.add_constraint(x + z, Cmp::Le, 6.0);
        (m, x, z)
    };
    let o = opts(Engine::Lu);
    let mut slot = None;
    let (mut m, x, z) = skeleton();
    let mut batch = BatchSolver::new(&mut m);
    let cold = batch
        .solve_slot(Sense::Maximize, 1.0 * z + 1.0 * x, &o, &mut slot)
        .unwrap();
    assert_eq!(cold.stats.max_residual, m.violation(cold.values()));
    assert!(slot.is_some(), "cold solve yields a snapshot");

    // A fresh sweep over a second copy of the skeleton restores the slot.
    let (mut m2, x, z) = skeleton();
    let mut batch = BatchSolver::new(&mut m2);
    let warm = batch
        .solve_slot(Sense::Minimize, -2.0 * z + 1.0 * x, &o, &mut slot)
        .unwrap();
    assert_eq!(batch.stats().seed_hits, 1, "restore missed");
    let measured = m2.violation(warm.values());
    assert_eq!(
        warm.stats.max_residual, measured,
        "warm path must carry the measured violation"
    );
    assert!(measured > 0.0, "residual should be nonzero");
}

#[test]
fn batch_resident_solves_report_measured_residual() {
    for engine in [Engine::Lu, Engine::Dense] {
        let o = opts(engine);
        let mut m = Model::new();
        let x = m.add_var(1.0, 1.0);
        let y = m.add_var(1.0, 1.0);
        m.add_constraint(0.1 * x + 0.2 * y, Cmp::Eq, 0.3);

        let mut batch = BatchSolver::new(&mut m);
        for &(sense, cx, cy) in &[
            (Sense::Maximize, 1.0, 1.0),
            (Sense::Minimize, 1.0, -2.0),
            (Sense::Maximize, -0.5, 3.0),
        ] {
            let sol = batch.solve(sense, cx * x + cy * y, &o).unwrap();
            let measured = batch.model().violation(sol.values());
            assert_eq!(
                sol.stats.max_residual, measured,
                "{engine:?}: resident sweep must carry the measured violation"
            );
            assert!(measured > 0.0, "{engine:?}: residual should be nonzero");
        }
        // Only the LU engine warm-starts; the dense oracle runs cold.
        assert!(
            engine != Engine::Lu || batch.stats().warm_hits >= 1,
            "{engine:?}: the sweep should exercise the warm path"
        );
    }
}

#[test]
fn unconstrained_zero_residual_is_truthful() {
    // With no rows, the optimum sits exactly on variable bounds, so the
    // reported 0.0 is the measured violation, not an unset default.
    let mut m = Model::new();
    let x = m.add_var(-1.0, 2.0);
    m.set_objective(Sense::Maximize, 3.0 * x);
    let sol = m.solve().unwrap();
    assert_eq!(sol.stats.max_residual, 0.0);
    assert_eq!(m.violation(sol.values()), 0.0);
}
