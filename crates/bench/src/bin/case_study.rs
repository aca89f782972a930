//! Regenerates the paper's §III-B case study: safety verification of a
//! vision-based adaptive cruise control loop.
//!
//! ```text
//! cargo run --release -p itne-bench --bin case_study [-- --quick]
//! ```
//!
//! Pipeline (matching the paper's structure):
//!
//! 1. train the perception DNN on rendered camera scenes;
//! 2. bound its dataset model inaccuracy `Δd₁`;
//! 3. certify its global robustness `Δd₂ ≤ ε̄` at δ = 2/255 over the
//!    dataset-profiled input domain (Fig. 5 (c)/(d));
//! 4. compute the maximum estimation error `β` the control loop tolerates
//!    (robust invariant set inside the safe region; paper: 0.14);
//! 5. verdict: formally safe iff `Δd₁ + ε̄ ≤ β`;
//! 6. closed-loop FGSM simulation at δ ∈ {0, 2, 5, 10}/255, reproducing the
//!    escalation the paper reports (safe at the assumed δ; bound exceedances
//!    beyond it; unsafe episodes at 10/255).

use itne_bench::nets::cached_model;
use itne_bench::table::{fmt_duration, save_json, Table};
use itne_control::{
    analyze, max_tolerable_estimation_error, simulate, PerceptionConfig, PerceptionModel, SafeSet,
    SimConfig,
};
use itne_core::{certify_global, CertifyOptions};
use itne_data::camera::camera_dataset;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct CaseStudyResult {
    hidden_neurons: usize,
    dd1_model_error: f64,
    dd2_certified: f64,
    dd_total: f64,
    beta_tolerable: f64,
    verified_safe: bool,
    delta_safe: f64,
    cert_seconds: f64,
    sim: Vec<SimRow>,
}

#[derive(Serialize)]
struct SimRow {
    delta_num: f64,
    label: String,
    max_abs_dd: f64,
    exceed_steps: usize,
    total_steps: usize,
    unsafe_episodes: usize,
    episodes: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let delta = 2.0 / 255.0;

    // --- 1. Perception model (cached across runs). ---
    let cfg = PerceptionConfig::default();
    let data = camera_dataset(&cfg.spec, cfg.train_samples, cfg.seed ^ 0xcafe);
    let net = cached_model("case_study_perception_v2", || {
        PerceptionModel::train_new(&cfg).0.net
    });
    let model = PerceptionModel {
        net,
        spec: cfg.spec,
    };
    let dd1 = model.model_error(&data);
    println!(
        "perception DNN: {} hidden neurons; Δd₁ (model inaccuracy) = {dd1:.4}  (paper: 0.0730)",
        model.net.hidden_neurons()
    );

    // --- 2. Certify global robustness over the profiled input domain. ---
    let domain = model.input_domain(&data, delta);
    let opts = CertifyOptions {
        window: 2,
        refine: if quick { 0 } else { 2 },
        threads: 2,
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = certify_global(&model.net, &domain, delta, &opts).expect("certification runs");
    let cert_time = t0.elapsed();
    let dd2 = report.epsilon(0);
    println!(
        "certified (δ = 2/255):  Δd₂ ≤ ε̄ = {dd2:.4}  in {}  (paper: 0.0568)",
        fmt_duration(cert_time)
    );

    // --- 3. Control-side tolerance via invariant sets. ---
    let safe = SafeSet::default();
    let beta = max_tolerable_estimation_error(&safe, 1e-4);
    let an = analyze(beta, &safe);
    println!(
        "invariant set analysis: max tolerable |Δd| = β = {beta:.4}  (paper: 0.14); \
         RPI box [{:.3}, {:.3}] vs safe [{:.1}, {:.1}]",
        an.rpi_half_widths[0],
        an.rpi_half_widths[1],
        an.safe_half_widths[0],
        an.safe_half_widths[1]
    );

    let dd = dd1 + dd2;
    let verified = dd <= beta;
    println!(
        "\ncombined |Δd| ≤ Δd₁ + Δd₂ = {dd:.4}  (paper: 0.1298)  →  VERDICT: {}",
        if verified {
            "formally SAFE at δ = 2/255"
        } else {
            "NOT verifiable at δ = 2/255"
        }
    );

    // Largest perturbation bound with a formal safety certificate: bisect on
    // δ (ε̄ is monotone in δ). This reproduces the paper's structural claim —
    // a δ with an end-to-end proof — even when the from-scratch-trained
    // network is less robust than the paper's.
    let headroom = beta - dd1;
    let mut delta_safe = 0.0;
    if headroom > 0.0 && !verified {
        let (mut lo, mut hi) = (0.0f64, delta);
        for _ in 0..7 {
            let mid = 0.5 * (lo + hi);
            let r = certify_global(&model.net, &domain, mid, &opts).expect("certification runs");
            if dd1 + r.epsilon(0) <= beta {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        delta_safe = lo;
        println!(
            "largest certified-safe perturbation: δ* ≈ {:.4} ({:.2}/255) — formally safe for all ‖p‖∞ ≤ δ*",
            delta_safe,
            delta_safe * 255.0
        );
    } else if verified {
        delta_safe = delta;
    }

    // --- 4. FGSM-in-the-loop simulation at escalating δ. ---
    let (episodes, steps) = if quick { (6, 200) } else { (30, 600) };
    let mut table = Table::new(
        "closed-loop simulation with FGSM camera perturbation",
        &["δ", "max|Δd|", "exceed β", "unsafe episodes"],
    );
    let mut sims = Vec::new();
    for (label, d) in [
        ("0 (clean)", 0.0),
        ("2/255", delta),
        ("5/255", 5.0 / 255.0),
        ("10/255", 10.0 / 255.0),
    ] {
        let r = simulate(
            &model,
            beta,
            &safe,
            &SimConfig {
                episodes,
                steps,
                delta: d,
                seed: 11,
            },
        );
        table.row(&[
            label.into(),
            format!("{:.4}", r.max_abs_dd),
            format!("{}/{}", r.exceed_steps, r.total_steps),
            format!(
                "{}/{} ({:.0}%)",
                r.unsafe_episodes,
                r.episodes,
                100.0 * r.unsafe_rate()
            ),
        ]);
        sims.push(SimRow {
            delta_num: d,
            label: label.into(),
            max_abs_dd: r.max_abs_dd,
            exceed_steps: r.exceed_steps,
            total_steps: r.total_steps,
            unsafe_episodes: r.unsafe_episodes,
            episodes: r.episodes,
        });
    }
    table.print();
    println!(
        "paper's observation: never exceeds the bound at the assumed δ; occasional\n\
         exceedances at 5/255; ~17% unsafe simulations at 10/255."
    );

    save_json(
        "case_study",
        &CaseStudyResult {
            hidden_neurons: model.net.hidden_neurons(),
            dd1_model_error: dd1,
            dd2_certified: dd2,
            dd_total: dd,
            beta_tolerable: beta,
            verified_safe: verified,
            delta_safe,
            cert_seconds: cert_time.as_secs_f64(),
            sim: sims,
        },
    );
}
