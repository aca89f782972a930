//! Cross-crate proof that the solver's dual certificates actually certify:
//! every emission path (cold dense, cold sparse, basis-slot restore,
//! resident batch sweep, unconstrained) produces a [`DualCertificate`] that
//! [`Model::check_bound`] validates in exact arithmetic, and corrupted or
//! over-tight claims are rejected. Slot restores and resident sweeps are
//! [`Engine::Lu`]'s; the dense oracle solves every sweep objective cold.
//!
//! [`DualCertificate`]: itne_milp::DualCertificate

use itne_milp::{BatchSolver, Cmp, Engine, Model, Sense, Solution, SolveOptions};

fn opts(engine: Engine) -> SolveOptions {
    SolveOptions {
        engine,
        ..Default::default()
    }
}

/// Checks `reported` as a directional bound on `model`'s optimum using the
/// certificate attached to `sol`.
fn certify(model: &Model, sol: &Solution, reported: f64) -> bool {
    let cert = sol.certificate().expect("certificate expected");
    let sense = model.objective_sense().expect("model has an objective");
    model
        .check_bound(sense, &cert.row_duals, reported)
        .is_valid()
}

/// The float optimum padded outward by a slack dominating simplex round-off,
/// in the direction that makes the claim *loose* (checkable).
fn padded(model: &Model, sol: &Solution) -> f64 {
    match model.objective_sense() {
        Some(Sense::Maximize) => sol.objective + 1e-6,
        _ => sol.objective - 1e-6,
    }
}

/// The docs' textbook LP: max 3x + 2y s.t. x+y ≤ 6, 2x+y ≤ 9, 0 ≤ x,y ≤ 10.
/// Optimum 15 at (3, 3); exact duals (−1, −1) in minimize orientation.
fn textbook() -> Model {
    let mut m = Model::new();
    let x = m.add_var(0.0, 10.0);
    let y = m.add_var(0.0, 10.0);
    m.add_constraint(x + y, Cmp::Le, 6.0);
    m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
    m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
    m
}

#[test]
fn both_engines_emit_checkable_certificates() {
    for engine in [Engine::Lu, Engine::Dense] {
        let m = textbook();
        let sol = m.solve_with(&opts(engine)).unwrap();
        assert!(sol.is_certified(), "{engine:?} should certify");
        assert!((sol.objective - 15.0).abs() < 1e-6);
        assert!(certify(&m, &sol, padded(&m, &sol)), "{engine:?} maximize");
        // A claim tighter than the optimum must be rejected.
        assert!(!certify(&m, &sol, sol.objective - 0.1), "{engine:?} cheat");

        // Minimize: lower bounds point the other way.
        let mut mn = Model::new();
        let x = mn.add_var(0.0, 10.0);
        let y = mn.add_var(0.0, 10.0);
        mn.add_constraint(x + y, Cmp::Ge, 2.0);
        mn.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        mn.set_objective(Sense::Minimize, 3.0 * x + 2.0 * y);
        let sol = mn.solve_with(&opts(engine)).unwrap();
        assert!(sol.is_certified());
        assert!(certify(&mn, &sol, padded(&mn, &sol)), "{engine:?} minimize");
        assert!(!certify(&mn, &sol, sol.objective + 0.1));
    }
}

#[test]
fn corrupted_certificates_are_rejected() {
    let m = textbook();
    let sol = m.solve_with(&opts(Engine::Lu)).unwrap();
    let reported = padded(&m, &sol);
    assert!(certify(&m, &sol, reported));

    let cert = sol.certificate().unwrap();
    // Halving one multiplier weakens the proven bound past the claim.
    let mut tampered = cert.row_duals.clone();
    tampered[0] *= 0.5;
    assert!(!m
        .check_bound(Sense::Maximize, &tampered, reported)
        .is_valid());
    // Wrong length is malformed, not silently padded.
    assert!(!m
        .check_bound(Sense::Maximize, &cert.row_duals[..1], reported)
        .is_valid());
}

/// A slot restore is the LU engine's alone: the dense oracle neither writes
/// nor reads slots, and its cold certificates are checked above.
#[test]
fn warm_started_solves_carry_certificates() {
    let o = opts(Engine::Lu);
    let skeleton = || {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        (m, x, y)
    };
    let mut slot = None;
    let (mut m, x, y) = skeleton();
    let cold = BatchSolver::new(&mut m)
        .solve_slot(Sense::Maximize, 3.0 * x + 2.0 * y, &o, &mut slot)
        .unwrap();
    assert!(cold.is_certified());
    assert!(slot.is_some(), "cold solve yields a snapshot");

    // New objective over a second copy of the skeleton, warm-started
    // from the stored basis.
    let (mut m2, x, y) = skeleton();
    let mut batch = BatchSolver::new(&mut m2);
    let warm = batch
        .solve_slot(Sense::Maximize, 1.0 * x + 4.0 * y, &o, &mut slot)
        .unwrap();
    assert_eq!(batch.stats().seed_hits, 1, "restore missed");
    assert!(warm.is_certified(), "warm solve should certify");
    assert!(certify(&m2, &warm, padded(&m2, &warm)));
    assert!(!certify(&m2, &warm, warm.objective - 0.1));
}

#[test]
fn batch_resident_sweep_certificates_survive_warm_starts() {
    for engine in [Engine::Lu, Engine::Dense] {
        let o = opts(engine);
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);

        let mut batch = BatchSolver::new(&mut m);
        let objectives = [
            (Sense::Maximize, 3.0, 2.0),
            (Sense::Minimize, 1.0, 1.0),
            (Sense::Maximize, 0.5, 4.0),
            (Sense::Minimize, -2.0, 3.0),
        ];
        for &(sense, cx, cy) in &objectives {
            let sol = batch.solve(sense, cx * x + cy * y, &o).unwrap();
            assert!(sol.is_certified(), "{engine:?} sweep solve");
            let reported = padded(batch.model(), &sol);
            assert!(certify(batch.model(), &sol, reported), "{engine:?} sweep");
        }
        let stats = batch.stats();
        // Only the LU engine warm-starts; the dense oracle runs cold.
        assert!(
            engine != Engine::Lu || stats.warm_hits >= 1,
            "{engine:?}: sweep should warm-start ({stats:?})"
        );
    }
}

#[test]
fn emission_can_be_disabled() {
    let o = SolveOptions {
        emit_certificates: false,
        ..Default::default()
    };
    let m = textbook();
    let sol = m.solve_with(&o).unwrap();
    assert!(sol.certificate().is_none());
    assert!(!sol.is_certified());
}

#[test]
fn branch_and_bound_solutions_are_not_certified() {
    let mut m = Model::new();
    let a = m.add_binary();
    let b = m.add_binary();
    m.add_constraint(3.0 * a + 4.0 * b, Cmp::Le, 6.0);
    m.set_objective(Sense::Maximize, 10.0 * a + 13.0 * b);
    let sol = m.solve().unwrap();
    assert!(sol.certificate().is_none());
    assert!(!sol.is_certified());
}

#[test]
fn unconstrained_solves_are_certified() {
    let mut m = Model::new();
    let x = m.add_var(-1.0, 2.0);
    let y = m.add_var(0.0, 3.0);
    m.set_objective(Sense::Maximize, 2.0 * x + 1.0 * y);
    let sol = m.solve().unwrap();
    assert!(sol.is_certified());
    assert!((sol.objective - 7.0).abs() < 1e-12);
    assert!(certify(&m, &sol, padded(&m, &sol)));
    assert!(!certify(&m, &sol, sol.objective - 0.5));
}
