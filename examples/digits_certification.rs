//! Certify a convolutional digit classifier (the paper's MNIST scenario,
//! Table I rows 6-8, at the scaled-down image size).
//!
//! ```text
//! cargo run --release --example digits_certification
//! ```
//!
//! At this size exact certification is intractable (the paper's point), so
//! the bracket is PGD (below) vs Algorithm 1 (above) on two outputs, exactly
//! like the MNIST rows of Table I.

use itne::attack::{dataset_under_approximation, PgdOptions};
use itne::cert::{certify_global, CertifyOptions};
use itne::data::digits;
use itne::nn::train::{accuracy, train, Adam, Loss, TrainConfig};
use itne::nn::{initialize, NetworkBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SIZE: usize = 14;
    // --- Train: conv(4, 3×3, stride 2) → FC 32 → 10 logits. ---
    let data = digits(800, SIZE, 23);
    let mut net = NetworkBuilder::input_image(1, SIZE, SIZE)
        .conv2d(4, 3, 2, 1, true)?
        .flatten()?
        .dense_zeros(32, true)?
        .dense_zeros(10, false)?
        .build();
    initialize(&mut net, 7);
    let mut opt = Adam::new(2e-3);
    train(
        &mut net,
        &data,
        &mut opt,
        &TrainConfig {
            epochs: 25,
            batch_size: 32,
            loss: Loss::SoftmaxCrossEntropy,
            seed: 9,
            verbose: false,
        },
    );
    println!(
        "trained conv digit net: {} hidden neurons, accuracy {:.1}%",
        net.hidden_neurons(),
        100.0 * accuracy(&net, &data)
    );

    let domain: Vec<(f64, f64)> = vec![(0.0, 1.0); SIZE * SIZE];
    let delta = 2.0 / 255.0; // the paper's δ for MNIST

    // --- Algorithm 1. The paper's MNIST setting is W = 3 with 30 refined
    //     neurons per sub-problem under Gurobi; the from-scratch B&B tree
    //     grows exponentially with the refined count, so a lighter
    //     configuration keeps this example interactive. ---
    let opts = CertifyOptions {
        window: 2,
        refine: 4,
        threads: 2,
        ..Default::default()
    };
    let ours = certify_global(&net, &domain, delta, &opts)?;

    // --- PGD under-approximation on a dataset slice (2 outputs as in the
    //     paper's table). ---
    let slice: Vec<Vec<f64>> = data.inputs.iter().take(120).cloned().collect();
    let under = dataset_under_approximation(
        &net,
        &slice,
        delta,
        Some(&domain),
        &PgdOptions {
            steps: 15,
            restarts: 2,
            ..Default::default()
        },
    );

    println!("\noutput |     ε̲ (PGD) |  ε̄ (ours) | ratio");
    for j in [0usize, 1] {
        println!(
            "  {j}    |    {:.4}   |   {:.4}  | {:.2}×",
            under.epsilon(j),
            ours.epsilon(j),
            ours.epsilon(j) / under.epsilon(j).max(1e-12)
        );
        assert!(
            under.epsilon(j) <= ours.epsilon(j) + 1e-7,
            "sandwich violated"
        );
    }
    println!(
        "\ncertification: {:?}, {} LPs, {} MILP nodes (paper: <3× gap for >5k neurons)",
        ours.stats.wall, ours.stats.query.solves, ours.stats.query.nodes
    );
    Ok(())
}
