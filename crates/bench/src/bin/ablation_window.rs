//! Ablation: network-decomposition window size `W` — the accuracy/cost
//! trade-off behind the paper's choice of W = 2 (FC) and W = 3 (conv).
//!
//! ```text
//! cargo run --release -p itne-bench --bin ablation_window
//! ```

use itne_bench::nets::{auto_mpg_net, digits_net};
use itne_bench::table::{fmt_duration, save_json, Table};
use itne_core::{certify_global, CertifyOptions};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    net: String,
    window: usize,
    eps: f64,
    seconds: f64,
    lps: u64,
    fallbacks: u64,
    warm_hits: u64,
}

fn main() {
    let mut table = Table::new(
        "Ablation: window size W (ITNE + LPR, no refinement)",
        &["net", "W", "ε̄", "time", "LPs", "fallbacks", "warm hits"],
    );
    let mut rows = Vec::new();

    let mpg = auto_mpg_net(0, 8);
    let dig = digits_net(0, 1);
    let cases: [(&str, &itne_bench::nets::BenchNet, &[usize]); 2] =
        [("mpg-8x8", &mpg, &[1, 2, 3]), ("digits-c1", &dig, &[1, 2])];

    for (name, bench, windows) in cases {
        for &w in windows {
            let opts = CertifyOptions {
                window: w,
                threads: 2,
                ..Default::default()
            };
            let t = Instant::now();
            let r = certify_global(&bench.net, &bench.domain, bench.delta, &opts)
                .expect("certification runs");
            let dt = t.elapsed();
            table.row(&[
                name.into(),
                w.to_string(),
                format!("{:.5}", r.max_epsilon()),
                fmt_duration(dt),
                r.stats.query.solves.to_string(),
                r.stats.query.fallbacks.to_string(),
                r.stats.query.warm_hits.to_string(),
            ]);
            rows.push(Row {
                net: name.into(),
                window: w,
                eps: r.max_epsilon(),
                seconds: dt.as_secs_f64(),
                lps: r.stats.query.solves,
                fallbacks: r.stats.query.fallbacks,
                warm_hits: r.stats.query.warm_hits,
            });
        }
    }
    table.print();
    save_json("ablation_window", &rows);
    println!("\ndeeper windows keep more cross-layer correlation (tighter ε̄) at larger\nper-neuron LP cost — the paper's W = 2/3 sits at the knee. (The digits net\nstops at W = 2 here to keep the run short: W = 3 windows reach the\n196-pixel input.)");
}
