//! Regenerates the paper's Fig. 4: the certification processes of exact
//! MILP, network decomposition (ND) and LP relaxation (LPR) on the Fig. 1
//! illustrating example — local robustness (upper half) and global
//! robustness under both twin encodings (lower half).
//!
//! ```text
//! cargo run --release -p itne-bench --bin fig4
//! ```

use itne_bench::table::{save_json, Table};
use itne_core::encode::{EncodingKind, Relaxation};
use itne_core::example::fig1_affine;
use itne_core::local::certify_local;
use itne_core::oneshot::{oneshot_global, oneshot_local};
use itne_core::{certify_global_affine, CertifyOptions, Interval};
use itne_milp::SolveOptions;
use serde::Serialize;

const DOM: [(f64, f64); 2] = [(-1.0, 1.0), (-1.0, 1.0)];
const DELTA: f64 = 0.1;

#[derive(Serialize)]
struct Fig4Row {
    method: String,
    ours_lo: f64,
    ours_hi: f64,
    paper_lo: f64,
    paper_hi: f64,
}

fn fmt(i: Interval) -> String {
    format!("[{:.4}, {:.4}]", i.lo, i.hi)
}

fn main() {
    let aff = fig1_affine();
    let solver = SolveOptions::default();
    let mut rows: Vec<Fig4Row> = Vec::new();

    // ---------------- Local robustness at x₀ = (0,0) ----------------
    let mut local = Table::new(
        "Fig. 4 (upper): local robustness ranges of x̂⁽²⁾ at x₀ = (0,0), δ = 0.1",
        &["method", "ours", "paper"],
    );
    let net = itne_core::example::fig1_network();

    let exact_local = certify_local(
        &net,
        &[0.0, 0.0],
        DELTA,
        None,
        &CertifyOptions {
            relaxation: Relaxation::Exact,
            window: 2,
            ..Default::default()
        },
    )
    .expect("fig1 local certifies");
    push(
        &mut local,
        &mut rows,
        "local exact",
        exact_local.output_ranges[0],
        (0.0, 0.125),
    );

    let nd_local = certify_local(
        &net,
        &[0.0, 0.0],
        DELTA,
        None,
        &CertifyOptions {
            relaxation: Relaxation::Exact,
            window: 1,
            ..Default::default()
        },
    )
    .expect("fig1 local certifies");
    push(
        &mut local,
        &mut rows,
        "local ND (W=1)",
        nd_local.output_ranges[0],
        (0.0, 0.15),
    );

    let lpr_local = oneshot_local(&aff, &[0.0, 0.0], DELTA, None, Relaxation::Lpr, 0, &solver)
        .expect("fig1 local lpr");
    push(
        &mut local,
        &mut rows,
        "local LPR",
        lpr_local.x[0],
        (0.0, 0.144),
    );
    local.print();

    // ---------------- Global robustness ----------------
    let mut global = Table::new(
        "Fig. 4 (lower): global robustness ranges of Δx⁽²⁾ over X = [-1,1]², δ = 0.1",
        &["method", "ours", "paper"],
    );

    let exact = oneshot_global(
        &aff,
        &DOM,
        DELTA,
        EncodingKind::Itne,
        Relaxation::Exact,
        0,
        &solver,
    )
    .expect("exact");
    push(
        &mut global,
        &mut rows,
        "exact (Eq. 1 MILP)",
        exact.dx[0],
        (-0.2, 0.2),
    );

    let btne_nd = certify_global_affine(
        &aff,
        &DOM,
        DELTA,
        &CertifyOptions {
            window: 1,
            encoding: EncodingKind::Btne,
            relaxation: Relaxation::Exact,
            ..Default::default()
        },
    )
    .expect("btne nd");
    push(
        &mut global,
        &mut rows,
        "BTNE ND (W=1)",
        btne_nd.bounds.dx[1][0],
        (-1.5, 1.5),
    );

    let btne_lpr = oneshot_global(
        &aff,
        &DOM,
        DELTA,
        EncodingKind::Btne,
        Relaxation::Lpr,
        0,
        &solver,
    )
    .expect("btne lpr");
    // The paper composes one-sided bounds and reports [-2.85, 1.5]; our
    // coupled LP over the same relaxation is tighter.
    push(
        &mut global,
        &mut rows,
        "BTNE LPR",
        btne_lpr.dx[0],
        (-2.85, 1.5),
    );

    let itne_nd = certify_global_affine(
        &aff,
        &DOM,
        DELTA,
        &CertifyOptions {
            window: 1,
            relaxation: Relaxation::Exact,
            ..Default::default()
        },
    )
    .expect("itne nd");
    push(
        &mut global,
        &mut rows,
        "ITNE ND (W=1)",
        itne_nd.bounds.dx[1][0],
        (-0.3, 0.3),
    );

    let itne_lpr = oneshot_global(
        &aff,
        &DOM,
        DELTA,
        EncodingKind::Itne,
        Relaxation::Lpr,
        0,
        &solver,
    )
    .expect("itne lpr");
    push(
        &mut global,
        &mut rows,
        "ITNE LPR",
        itne_lpr.dx[0],
        (-0.275, 0.275),
    );

    let alg1 =
        certify_global_affine(&aff, &DOM, DELTA, &CertifyOptions::default()).expect("algorithm 1");
    push(
        &mut global,
        &mut rows,
        "Algorithm 1 (W=2)",
        alg1.bounds.dx[1][0],
        (-0.25, 0.25), // tighter than Fig. 4's one-shot LPR
    );
    global.print();

    println!("\ntightness vs exact width 0.4:");
    for r in &rows[4..] {
        println!("  {:<20} {:.2}×", r.method, (r.ours_hi - r.ours_lo) / 0.4);
    }
    save_json("fig4", &rows);
}

fn push(t: &mut Table, rows: &mut Vec<Fig4Row>, method: &str, ours: Interval, paper: (f64, f64)) {
    t.row(&[
        method.to_string(),
        fmt(ours),
        format!("[{:.4}, {:.4}]", paper.0, paper.1),
    ]);
    rows.push(Fig4Row {
        method: method.to_string(),
        ours_lo: ours.lo,
        ours_hi: ours.hi,
        paper_lo: paper.0,
        paper_hi: paper.1,
    });
}
