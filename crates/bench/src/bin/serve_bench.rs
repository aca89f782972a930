//! Resident-engine benchmark: the service workload — one registered net
//! answering a δ-sweep across several decomposition windows — timed against
//! the cold loop that re-runs `certify_global` from scratch per query.
//!
//! ```text
//! cargo run --release -p itne_bench --bin serve_bench \
//!     [-- --json <path>] [-- --threads <n>]
//! ```
//!
//! The workload is 1 net × 16 δ values × 3 windows (48 queries). The cold
//! arm pays IBP + encoding + cold simplex per query; the resident arm loads
//! the net once (registry pre-bounds), re-parameterizes cached encodings for
//! every repeated `(window, refine)` session, and warm-starts each directed
//! solve from the basis the previous query stored.
//!
//! This binary *asserts* the engine's contract rather than just reporting
//! it: ε̄ bits byte-identical to the cold path on every query, zero
//! certificate failures (set `ITNE_CHECK_CERTS=1` to validate every bound in
//! exact arithmetic), and ≥ 3× resident speedup.

use itne_bench::nets::auto_mpg_net;
use itne_bench::table::{json_flag, save_json, save_json_at, Table};
use itne_core::query::QueryStats;
use itne_core::{certify_global, CertifyOptions};
use itne_serve::{CertEngine, QueryRequest};
use serde::Serialize;
use std::time::Instant;

/// Queries per window; 3 windows → 48 queries total.
const DELTAS: usize = 16;
const WINDOWS: [usize; 3] = [2, 3, 4];

#[derive(Serialize)]
struct ServeBenchReport {
    net: String,
    threads: usize,
    /// Whether every certified bound was validated in exact rational
    /// arithmetic (`ITNE_CHECK_CERTS=1`) in both arms.
    check_certificates: bool,
    queries: usize,
    t_cold_s: f64,
    t_resident_s: f64,
    speedup: f64,
    /// Byte-for-byte ε̄ agreement between the arms, per query. Asserted.
    bits_identical: bool,
    pivots_cold: u64,
    /// The resident engine's query counters over the whole arm: solves and
    /// pivots, warm hits and misses (a miss is a restore the engine could
    /// not complete or repair), encoding-cache and cross-query hits, and
    /// certificate checks.
    resident: QueryStats,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = json_flag(&args);
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| (1..=64).contains(&t))
        .unwrap_or_else(|| CertifyOptions::default().threads);
    let check = CertifyOptions::default().check_certificates;

    let bench = auto_mpg_net(5, 48);
    let deltas: Vec<f64> = (1..=DELTAS).map(|i| 2.5e-4 * i as f64).collect();
    let opts = |window: usize| CertifyOptions {
        window,
        refine: 0,
        threads,
        check_certificates: check,
        ..Default::default()
    };
    eprintln!(
        "-- serve_bench: {} × {} δ × {} windows ({} queries, {} threads, check_certs={})",
        bench.layers,
        DELTAS,
        WINDOWS.len(),
        DELTAS * WINDOWS.len(),
        threads,
        check
    );

    // --- Cold arm: a fresh one-shot certification per query. ---
    let mut cold_bits: Vec<Vec<u64>> = Vec::new();
    let mut pivots_cold = 0u64;
    let t0 = Instant::now();
    for &w in &WINDOWS {
        for &d in &deltas {
            let r = certify_global(&bench.net, &bench.domain, d, &opts(w))
                .expect("cold certification runs");
            pivots_cold += r.stats.query.pivots;
            assert_eq!(r.stats.query.cert_failures, 0, "cold arm cert failure");
            cold_bits.push(r.epsilons.iter().map(|e| e.to_bits()).collect());
        }
    }
    let t_cold = t0.elapsed().as_secs_f64();

    // --- Resident arm: one engine, same query sequence. ---
    let engine = CertEngine::new(threads, 1);
    engine
        .register("auto_mpg_w48", &bench.net, &bench.domain)
        .expect("registration");
    let mut resident_bits: Vec<Vec<u64>> = Vec::new();
    let t0 = Instant::now();
    for &w in &WINDOWS {
        for &d in &deltas {
            let q = QueryRequest {
                delta: d,
                window: w,
                refine: 0,
                check_certs: check,
            };
            let resp = engine.certify("auto_mpg_w48", &q).expect("resident query");
            resident_bits.push(resp.epsilons.iter().map(|e| e.to_bits()).collect());
        }
    }
    let t_resident = t0.elapsed().as_secs_f64();
    let stats = engine.stats().query;

    let bits_identical = cold_bits == resident_bits;
    let report = ServeBenchReport {
        net: bench.layers.clone(),
        threads,
        check_certificates: check,
        queries: DELTAS * WINDOWS.len(),
        t_cold_s: t_cold,
        t_resident_s: t_resident,
        speedup: t_cold / t_resident.max(1e-12),
        bits_identical,
        pivots_cold,
        resident: stats,
    };

    let mut table = Table::new(
        "Resident certification engine vs cold per-query loop",
        &["arm", "time", "pivots", "enc hits", "x-query warm"],
    );
    table.row(&[
        "cold".into(),
        format!("{t_cold:.3}s"),
        pivots_cold.to_string(),
        "-".into(),
        "-".into(),
    ]);
    table.row(&[
        "resident".into(),
        format!("{t_resident:.3}s"),
        stats.pivots.to_string(),
        format!(
            "{}/{}",
            stats.encoding_cache_hits,
            stats.encoding_cache_hits + stats.encoding_cache_misses
        ),
        stats.cross_query_warm_hits.to_string(),
    ]);
    table.print();
    println!(
        "speedup {:.2}×, bits identical: {}, warm misses {}, certs {}/{} checked/failed",
        report.speedup, bits_identical, stats.warm_misses, stats.certs_checked, stats.cert_failures
    );

    save_json("serve_bench", &report);
    if let Some(path) = &json_path {
        save_json_at(path, &report);
    }

    // The engine's contract, hard-asserted so CI fails loudly on regression.
    assert!(
        bits_identical,
        "resident ε̄ bits diverged from the cold path"
    );
    assert_eq!(stats.cert_failures, 0, "resident arm cert failure");
    assert!(
        report.speedup >= 3.0,
        "resident speedup {:.2}× below the 3× floor (cold {t_cold:.3}s, resident {t_resident:.3}s)",
        report.speedup
    );
}
