//! Ablation: the batched-LP engine arms, head to head.
//!
//! Runs Algorithm 1 on the Table I networks three times —
//!
//! * **dense** — the independent oracle: the dense tableau, every solve
//!   cold (it keeps no warm state);
//! * **cold** — the LU-factorized sparse revised simplex with `warm_start`
//!   off (every directed solve pays simplex phase 1 from scratch);
//! * **warm** — the LU-factorized sparse revised simplex with the
//!   `BatchSolver` warm-start chain on (the current default);
//!
//! and reports wall-clock, each arm's query counters (pivots, warm-start
//! hit rates, refactorization telemetry) and the certified ε̄ of all three
//! paths. The
//! epsilons must agree **bit for bit**: engine choice and batching are pure
//! optimizations (the golden regression tests lock the same property).
//!
//! ```text
//! cargo run --release -p itne_bench --bin ablation_batch \
//!     [-- --full | --smoke] [-- --json <path>]
//! ```
//!
//! `--full` extends the sweep to the larger FC nets and the conv net
//! (several minutes); the default quick set matches CI budgets; `--smoke`
//! runs only the smallest Table I net (the CI perf-smoke step). `--json
//! <path>` additionally writes the machine-readable per-net results
//! (wall-times, each arm's `QueryStats`, ε̄ bits) to an explicit path so the
//! perf trajectory is trackable across PRs.

use itne_bench::nets::{auto_mpg_net, digits_net, BenchNet};
use itne_bench::table::{fmt_duration, json_flag, save_json, save_json_at, Table};
use itne_core::query::QueryStats;
use itne_core::{certify_global, CertifyOptions, CertifyStats, GlobalReport};
use itne_milp::Engine;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    net: String,
    /// Certifier worker threads (pinned to 1: the ablation isolates solver
    /// work, and the default now follows the hardware).
    threads: usize,
    /// The oracle: dense engine, every solve cold.
    dense_s: f64,
    /// Sparse engine, warm starts disabled.
    cold_s: f64,
    /// Sparse engine, warm starts on (the default configuration).
    warm_s: f64,
    /// Sparse-warm over the cold dense oracle (the engine and warm-start
    /// wins together).
    speedup_vs_dense: f64,
    /// Sparse-warm over sparse-cold (the warm-start win).
    speedup_vs_cold: f64,
    /// Query counters of the last repetition of each arm (pivots, warm
    /// hits and misses, fallbacks, certificate checks, and the engine
    /// timing telemetry: `refactor_time_ns`, `ftran_btran_time_ns`,
    /// `lu_fill_nnz`).
    dense: QueryStats,
    cold: QueryStats,
    warm: QueryStats,
    /// Whether exact-rational certificate checking was enabled for this run
    /// (the `ITNE_CHECK_CERTS` environment variable / `check_certificates`).
    /// Any certificate failure in any arm fails the run.
    check_certificates: bool,
    eps_bits_equal: bool,
    eps: f64,
    /// Exact bit pattern of the certified ε̄ (hex), for cross-PR tracking
    /// without float-formatting ambiguity.
    eps_bits: String,
}

#[derive(Copy, Clone)]
enum Arm {
    /// The oracle: the dense tableau, every solve cold.
    Dense,
    /// Sparse engine, every solve cold.
    SparseCold,
    /// Sparse engine, warm-start chains on (the default).
    SparseWarm,
}

fn run(bench: &BenchNet, arm: Arm) -> (GlobalReport, f64) {
    let is_conv = bench.layers.starts_with("Conv");
    // Single-threaded so the timing isolates solver work — the certifier's
    // default thread count now follows the hardware, so it must be pinned.
    let mut opts = if is_conv {
        CertifyOptions {
            window: 3,
            refine: 0,
            threads: 1,
            ..Default::default()
        }
    } else {
        CertifyOptions {
            window: 2,
            refine: 0,
            threads: 1,
            ..Default::default()
        }
    };
    match arm {
        Arm::Dense => {
            opts.solver.engine = Engine::Dense;
            opts.solver.warm_start = false;
        }
        Arm::SparseCold => {
            opts.solver.engine = Engine::Lu;
            opts.solver.warm_start = false;
        }
        Arm::SparseWarm => {
            opts.solver.engine = Engine::Lu;
            opts.solver.warm_start = true;
        }
    }
    // Timing telemetry (refactorization and FTRAN/BTRAN nanoseconds) costs
    // two clock reads per timed region and never affects pivots or bounds.
    opts.solver.telemetry = Some(itne_core::deadline::telemetry_clock());
    // Small nets certify in well under a millisecond; report the best of a
    // few repetitions so the speedup column measures solver work, not timer
    // granularity and cache warmup.
    let reps = if bench.net.hidden_neurons() > 100 {
        1
    } else {
        5
    };
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = certify_global(&bench.net, &bench.domain, bench.delta, &opts).expect("certifies");
        best = best.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    (report.expect("at least one rep"), best)
}

fn describe(stats: &CertifyStats) -> String {
    format!(
        "{} LPs, {} pivots, {} refactorizations (peak eta {}, max nnz {}), {} fallbacks",
        stats.query.solves,
        stats.query.pivots,
        stats.query.refactorizations,
        stats.query.eta_len,
        stats.query.nnz,
        stats.query.fallbacks
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_flag(&args);
    let mut table = Table::new(
        "Ablation: batched LP engines (dense cold oracle vs sparse cold vs sparse warm)",
        &[
            "net",
            "dense",
            "cold",
            "warm",
            "vs dense",
            "vs cold",
            "warm hits",
            "misses",
            "pivots saved",
            "refac",
            "fallbacks",
            "ε̄ equal",
        ],
    );
    let mut rows = Vec::new();

    let mut benches = if smoke {
        vec![auto_mpg_net(1, 4)]
    } else {
        vec![auto_mpg_net(1, 4), auto_mpg_net(2, 6), auto_mpg_net(3, 8)]
    };
    if full {
        benches.push(auto_mpg_net(4, 16));
        benches.push(auto_mpg_net(5, 32));
        benches.push(digits_net(6, 1));
    }

    for bench in &benches {
        let kind = if bench.layers.starts_with("Conv") {
            "conv"
        } else {
            "mpg"
        };
        let name = format!("{kind}-id{} ({}n)", bench.id, bench.net.hidden_neurons());
        eprintln!("-- {name}: dense (cold oracle) ...");
        let (dense, dense_s) = run(bench, Arm::Dense);
        eprintln!("   dense: {} in {dense_s:.2}s", describe(&dense.stats));
        eprintln!("-- {name}: sparse cold ...");
        let (cold, cold_s) = run(bench, Arm::SparseCold);
        eprintln!("   cold: {} in {cold_s:.2}s", describe(&cold.stats));
        eprintln!("-- {name}: sparse warm ...");
        let (warm, warm_s) = run(bench, Arm::SparseWarm);
        eprintln!("   warm: {} in {warm_s:.2}s", describe(&warm.stats));

        let bits =
            |r: &GlobalReport| -> Vec<u64> { r.epsilons.iter().map(|e| e.to_bits()).collect() };
        let equal = bits(&cold) == bits(&warm) && bits(&dense) == bits(&warm);
        let row = Row {
            net: name.clone(),
            threads: 1,
            dense_s,
            cold_s,
            warm_s,
            speedup_vs_dense: dense_s / warm_s.max(1e-12),
            speedup_vs_cold: cold_s / warm_s.max(1e-12),
            dense: dense.stats.query,
            cold: cold.stats.query,
            warm: warm.stats.query,
            check_certificates: itne_core::query::default_check_certificates(),
            eps_bits_equal: equal,
            eps: warm.max_epsilon(),
            eps_bits: format!("{:#018x}", warm.max_epsilon().to_bits()),
        };
        table.row(&[
            row.net.clone(),
            fmt_duration(std::time::Duration::from_secs_f64(row.dense_s)),
            fmt_duration(std::time::Duration::from_secs_f64(row.cold_s)),
            fmt_duration(std::time::Duration::from_secs_f64(row.warm_s)),
            format!("{:.2}×", row.speedup_vs_dense),
            format!("{:.2}×", row.speedup_vs_cold),
            row.warm.warm_hits.to_string(),
            row.warm.warm_misses.to_string(),
            row.warm.pivots_saved.to_string(),
            row.warm.refactorizations.to_string(),
            format!(
                "{}/{}/{}",
                row.dense.fallbacks, row.cold.fallbacks, row.warm.fallbacks
            ),
            if row.eps_bits_equal { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(row);
        table.print();
    }
    save_json("ablation_batch", &rows);
    if let Some(path) = &json_path {
        save_json_at(path, &rows);
    }

    let diverged: Vec<&Row> = rows.iter().filter(|r| !r.eps_bits_equal).collect();
    if !diverged.is_empty() {
        for r in diverged {
            eprintln!("DIVERGED: {} — engine/warm epsilons differ", r.net);
        }
        std::process::exit(1);
    }
    let cert_failures: u64 = rows
        .iter()
        .map(|r| r.dense.cert_failures + r.cold.cert_failures + r.warm.cert_failures)
        .sum();
    if cert_failures > 0 {
        eprintln!("CERT FAILURES: {cert_failures} dual certificates did not validate");
        std::process::exit(1);
    }
    let gmean = |f: fn(&Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    println!(
        "\ngeometric-mean speedup: {:.2}× vs dense cold oracle, {:.2}× vs sparse cold",
        gmean(|r| r.speedup_vs_dense),
        gmean(|r| r.speedup_vs_cold)
    );
}
