//! Criterion micro-benchmarks of the LP solver hot path, including the
//! certifier's dominant shape: one skeleton swept under many objectives,
//! cold per objective vs warm-started through `BatchSolver`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itne_milp::{BatchSolver, Cmp, Engine, LinExpr, Model, Sense, SolveOptions};
use std::hint::black_box;

/// Deterministic xorshift64 stream of values in `[-1, 1)`.
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// A random dense LP with n variables and n constraints (deterministic).
fn random_lp(n: usize, seed: u64) -> (Model, Vec<itne_milp::VarId>) {
    let mut next = rng(seed);
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.add_var(-1.0, 1.0)).collect();
    for _ in 0..n {
        let e = LinExpr::from_terms(vars.iter().map(|&v| (v, next())), 0.0);
        m.add_constraint(e, Cmp::Le, 0.5 + next().abs());
    }
    let obj = LinExpr::from_terms(vars.iter().map(|&v| (v, next())), 0.0);
    m.set_objective(Sense::Maximize, obj);
    (m, vars)
}

fn bench_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_solve");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    for n in [10usize, 40, 100] {
        let (m, _) = random_lp(n, 42);
        g.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| black_box(m.solve().expect("bounded LPs solve")))
        });
    }
    g.finish();
}

/// A deterministic batch of `k` random min/max objectives over `n` vars.
fn random_objectives(n: usize, k: usize, seed: u64) -> Vec<(Sense, Vec<f64>)> {
    let mut next = rng(seed);
    (0..k)
        .map(|i| {
            let sense = if i % 2 == 0 {
                Sense::Minimize
            } else {
                Sense::Maximize
            };
            (sense, (0..n).map(|_| next()).collect())
        })
        .collect()
}

/// The certifier's query shape: one skeleton, an objective sweep. `cold`
/// re-solves every objective from scratch; `warm` chains them through
/// `BatchSolver`, skipping phase 1 after the first solve. Same optima either
/// way (the proptests assert it); only the work differs.
fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_sweep16");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    let opts = SolveOptions::default();
    for n in [10usize, 40, 100] {
        let (skeleton, vars) = random_lp(n, 42);
        let objectives = random_objectives(n, 16, 99);
        let mk_expr =
            |cs: &[f64]| LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);

        // Both arms clone the skeleton once per iteration and then reuse it
        // across the 16 objectives (the cold arm via set_objective + solve,
        // exactly the pre-batching production path), so the measured ratio
        // is solver work only, not clone overhead.
        g.bench_with_input(BenchmarkId::new("cold", n), &skeleton, |b, m| {
            b.iter(|| {
                let mut model = m.clone();
                let mut acc = 0.0;
                for (sense, cs) in &objectives {
                    model.set_objective(*sense, mk_expr(cs));
                    acc += model.solve_with(&opts).expect("solves").objective;
                }
                black_box(acc)
            })
        });
        g.bench_with_input(BenchmarkId::new("warm", n), &skeleton, |b, m| {
            b.iter(|| {
                let mut model = m.clone();
                let mut batch = BatchSolver::new(&mut model);
                let mut acc = 0.0;
                for (sense, cs) in &objectives {
                    acc += batch
                        .solve(*sense, mk_expr(cs), &opts)
                        .expect("solves")
                        .objective;
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// A band-diagonal LP shaped like one conv-window over-approximation
/// sub-problem: `n` rows each touching only `band` consecutive variables
/// (plus the implicit slack), so the `[A | I]` skeleton is overwhelmingly
/// sparse — the structure the revised simplex exploits.
fn band_lp(n: usize, band: usize, seed: u64) -> (Model, Vec<itne_milp::VarId>) {
    let mut next = rng(seed);
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|_| m.add_var(-1.0, 1.0)).collect();
    for r in 0..n {
        let lo = r.saturating_sub(band / 2);
        let hi = (lo + band).min(n);
        let e = LinExpr::from_terms(vars[lo..hi].iter().map(|&v| (v, next())), 0.0);
        m.add_constraint(e, Cmp::Le, 0.5 + next().abs());
    }
    let obj = LinExpr::from_terms(vars.iter().map(|&v| (v, next())), 0.0);
    m.set_objective(Sense::Maximize, obj);
    (m, vars)
}

/// Dense tableau vs the sparse LU revised simplex on conv-window-sized band
/// skeletons: an 8-objective sweep per iteration, which is exactly the work
/// one `LpRelaxY`/`LpRelaxX` sub-problem does. The LU engine solves the
/// first objective cold and warm-starts the rest; the dense oracle solves
/// every objective cold.
fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("lp_sparse");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(3));
    g.sample_size(10);
    for n in [100usize, 300, 600] {
        let (skeleton, vars) = band_lp(n, 7, 42);
        let objectives = random_objectives(n, 8, 99);
        let mk_expr =
            |cs: &[f64]| LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);
        for (label, engine) in [("dense", Engine::Dense), ("lu", Engine::Lu)] {
            let opts = SolveOptions {
                engine,
                ..Default::default()
            };
            g.bench_with_input(BenchmarkId::new(label, n), &skeleton, |b, m| {
                b.iter(|| {
                    let mut model = m.clone();
                    let mut batch = BatchSolver::new(&mut model);
                    let mut acc = 0.0;
                    for (sense, cs) in &objectives {
                        acc += batch
                            .solve(*sense, mk_expr(cs), &opts)
                            .expect("solves")
                            .objective;
                    }
                    black_box(acc)
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_lp, bench_sweep, bench_sparse);
criterion_main!(benches);
