//! Golden regression locks for the certified epsilons.
//!
//! The values below were recorded from the cold per-objective solve path
//! (`SolveOptions::warm_start = false` behaves identically), and the suite
//! asserts the warm-started batched path reproduces them **bit for bit**:
//! batching is required to be a pure optimization, never a semantic change.
//! The query layer makes this well-defined by snapping every padded LP bound
//! outward onto a fixed dyadic grid, so a certified range depends on the
//! mathematical optimum — not on which pivot path (cold two-phase,
//! warm-started reoptimization, or a future backend) computed it — except
//! in the deterministic corner case where two paths straddle a grid line,
//! which would show up here as a stable diff to investigate. The
//! pre-rewrite cold path produced the same values up to that ≤ 2⁻³⁰ outward
//! snap, far inside the 1e-7 soundness slack each bound already carries.
//! A second test re-runs every case with warm starts disabled and
//! cross-checks the two paths against each other, so a future regression
//! shows up as a path divergence even if both drift from the recorded bits.
//!
//! To re-record after an *intentional* semantic change, run
//!
//! ```text
//! ITNE_GOLDEN_RECORD=1 cargo test --test golden -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use itne::cert::encode::{EncodingKind, Relaxation};
use itne::cert::{certify_global, CertifyOptions};
use itne::milp::Engine;
use itne::nn::train::{train, Adam, Loss, TrainConfig};
use itne::nn::{initialize, Network, NetworkBuilder};

const FIG1_DOM: [(f64, f64); 2] = [(-1.0, 1.0), (-1.0, 1.0)];

/// The paper's Fig. 1 network (also the README quickstart network).
fn fig1() -> Network {
    NetworkBuilder::input(2)
        .dense(&[&[1.0, 0.5], &[-0.5, 1.0]], &[0.0, 0.0], true)
        .expect("static shapes")
        .dense(&[&[1.0, -1.0]], &[0.0], true)
        .expect("static shapes")
        .build()
}

/// A small trained Auto-MPG regressor in the style of Table I rows 1-2:
/// two ReLU hidden layers of width `w`, trained deterministically.
fn mpg_net(w: usize) -> Network {
    let data = itne::data::auto_mpg(160, 11);
    let mut net = NetworkBuilder::input(7)
        .dense_zeros(w, true)
        .expect("shape")
        .dense_zeros(w, true)
        .expect("shape")
        .dense_zeros(1, false)
        .expect("shape")
        .build();
    initialize(&mut net, 70 + w as u64);
    let mut opt = Adam::new(5e-3);
    train(
        &mut net,
        &data,
        &mut opt,
        &TrainConfig {
            epochs: 40,
            batch_size: 32,
            loss: Loss::Mse,
            seed: 4,
            verbose: false,
        },
    );
    net
}

struct Case {
    name: &'static str,
    net: Network,
    domain: Vec<(f64, f64)>,
    delta: f64,
    opts: CertifyOptions,
}

/// Every configuration the golden table locks. Covers the quickstart/Fig. 1
/// net under the Algorithm 1 default, the exact-ND window, selective
/// refinement, the BTNE baseline, the no-closed-form LpRelaxX path, and two
/// Table I-style trained networks.
fn cases() -> Vec<Case> {
    let mpg_opts = |refine| CertifyOptions {
        window: 2,
        refine,
        ..Default::default()
    };
    vec![
        Case {
            name: "fig1/default",
            net: fig1(),
            domain: FIG1_DOM.to_vec(),
            delta: 0.1,
            opts: CertifyOptions::default(),
        },
        Case {
            name: "fig1/nd-w1",
            net: fig1(),
            domain: FIG1_DOM.to_vec(),
            delta: 0.1,
            opts: CertifyOptions {
                window: 1,
                relaxation: Relaxation::Exact,
                ..Default::default()
            },
        },
        Case {
            name: "fig1/refine2",
            net: fig1(),
            domain: FIG1_DOM.to_vec(),
            delta: 0.1,
            opts: CertifyOptions {
                refine: 2,
                ..Default::default()
            },
        },
        Case {
            name: "fig1/btne",
            net: fig1(),
            domain: FIG1_DOM.to_vec(),
            delta: 0.1,
            opts: CertifyOptions {
                encoding: EncodingKind::Btne,
                ..Default::default()
            },
        },
        Case {
            name: "fig1/no-closed-form",
            net: fig1(),
            domain: FIG1_DOM.to_vec(),
            delta: 0.1,
            opts: CertifyOptions {
                closed_form_x: false,
                ..Default::default()
            },
        },
        Case {
            name: "mpg-w4",
            net: mpg_net(4),
            domain: vec![(0.0, 1.0); 7],
            delta: 0.004,
            opts: mpg_opts(4),
        },
        Case {
            name: "mpg-w6",
            net: mpg_net(6),
            domain: vec![(0.0, 1.0); 7],
            delta: 0.004,
            opts: mpg_opts(0),
        },
    ]
}

/// `(case name, epsilon bit patterns per output)` recorded from the cold
/// solve path.
const GOLDEN: &[(&str, &[u64])] = &[
    ("fig1/default", &[0x3fd000006d000000]), // [0.25000010151416063]
    ("fig1/nd-w1", &[0x3fd3333333333330]),   // [0.2999999999999998]
    ("fig1/refine2", &[0x3fc9999a76000000]), // [0.20000010263174772]
    ("fig1/btne", &[0x3ff490b23f000000]),    // [1.2853262387216091]
    ("fig1/no-closed-form", &[0x3fd000006d000000]), // [0.25000010151416063]
    ("mpg-w4", &[0x3f8be37dc0000000]),       // [0.0136174988001585]
    ("mpg-w6", &[0x3fada1a1a8000000]),       // [0.057873775251209736]
];

fn run(case: &Case) -> Vec<f64> {
    certify_global(&case.net, &case.domain, case.delta, &case.opts)
        .expect("certification runs")
        .epsilons
}

/// The warm-started batched path must agree with the all-cold path exactly,
/// case by case — independent of whether either matches the recorded table.
/// This is the direct statement of "batching is a pure optimization". Only
/// the LU engine warm-starts; under the dense oracle both paths run cold and
/// must still agree on bits, solves and pivots.
#[test]
fn warm_started_path_equals_cold_path_bit_for_bit() {
    for case in cases() {
        let warm_report = certify_global(&case.net, &case.domain, case.delta, &case.opts)
            .expect("warm path runs");
        let mut cold_opts = case.opts.clone();
        cold_opts.solver.warm_start = false;
        let cold_report = certify_global(&case.net, &case.domain, case.delta, &cold_opts)
            .expect("cold path runs");
        assert_eq!(
            warm_report.epsilons, cold_report.epsilons,
            "{}: warm-started epsilons diverged from cold-path epsilons",
            case.name
        );
        let (w, c) = (warm_report.stats.query, cold_report.stats.query);
        assert_eq!(w.solves, c.solves, "{}: solve count changed", case.name);
        assert_eq!(c.warm_hits, 0, "{}: cold path warm-started", case.name);
        assert!(
            case.opts.solver.engine != Engine::Lu || w.warm_hits > 0,
            "{}: warm path never hit a warm start ({w:?})",
            case.name
        );
        assert!(
            w.pivots <= c.pivots,
            "{}: warm path spent more pivots ({} > {})",
            case.name,
            w.pivots,
            c.pivots
        );
    }
}

/// Exact-rational certificate checking is observe-only on healthy nets:
/// forced on, every certified LP bound validates against its dual
/// certificate (zero failures) and the reported epsilons stay bit-identical
/// to the recorded cold-path table. CI re-runs the whole suite with
/// `ITNE_CHECK_CERTS=1`, which turns checking on inside every other test as
/// well; this test asserts the property even in a default run.
#[test]
fn certificate_checking_validates_every_golden_bound() {
    for case in cases() {
        let mut opts = case.opts.clone();
        opts.check_certificates = true;
        let report =
            certify_global(&case.net, &case.domain, case.delta, &opts).expect("checked path runs");
        let q = report.stats.query;
        assert!(
            q.certs_checked > 0,
            "{}: no LP bound was certificate-checked ({q:?})",
            case.name
        );
        assert_eq!(
            q.cert_failures, 0,
            "{}: a dual certificate failed exact validation ({q:?})",
            case.name
        );
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == case.name)
            .unwrap_or_else(|| panic!("no golden entry for {}", case.name))
            .1;
        let bits: Vec<u64> = report.epsilons.iter().map(|e| e.to_bits()).collect();
        assert_eq!(
            bits, want,
            "{}: enabling certificate checking changed the certified bits",
            case.name
        );
    }
}

#[test]
fn golden_epsilons_bit_for_bit() {
    let record = std::env::var("ITNE_GOLDEN_RECORD").is_ok();
    if record {
        println!("const GOLDEN: &[(&str, &[u64])] = &[");
    }
    for case in cases() {
        let eps = run(&case);
        if record {
            let bits: Vec<String> = eps
                .iter()
                .map(|e| format!("{:#018x}", e.to_bits()))
                .collect();
            println!(
                "    (\"{}\", &[{}]), // {:?}",
                case.name,
                bits.join(", "),
                eps
            );
            continue;
        }
        let want = GOLDEN
            .iter()
            .find(|(n, _)| *n == case.name)
            .unwrap_or_else(|| panic!("no golden entry for {}", case.name))
            .1;
        assert_eq!(eps.len(), want.len(), "{}: output arity changed", case.name);
        for (j, (&e, &w)) in eps.iter().zip(want).enumerate() {
            assert_eq!(
                e.to_bits(),
                w,
                "{} output {j}: ε̄ = {e:.17} (bits {:#018x}) differs from the \
                 recorded cold-path value {:.17} (bits {w:#018x})",
                case.name,
                e.to_bits(),
                f64::from_bits(w),
            );
        }
    }
    if record {
        println!("];");
        panic!("recording mode: table printed above, assertions skipped");
    }
}
