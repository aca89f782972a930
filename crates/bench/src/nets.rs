//! The benchmark networks of Table I, trained and cached on disk so every
//! binary sees identical models.
//!
//! * **Auto-MPG DNNs 1-5** — two ReLU hidden layers of equal width over the
//!   7 synthetic fuel-economy features (paper: 8-64 total hidden neurons).
//! * **Digit DNNs 6-8** — 1-3 conv layers + one FC hidden layer over 14×14
//!   procedural digit images (paper: 28×28 MNIST; scaled down so the
//!   per-neuron LPs stay tractable for the from-scratch simplex).
//!
//! Models are trained deterministically (fixed seeds) and cached as JSON in
//! `artifacts/models/`.

use itne_data::{auto_mpg, digits};
use itne_nn::train::{train, Adam, Dataset, Loss, TrainConfig};
use itne_nn::{initialize, Network, NetworkBuilder};
use std::path::PathBuf;

/// Image side for the digit networks.
pub const DIGIT_SIZE: usize = 14;

/// Root of on-disk artifacts (models, results).
pub fn artifact_dir() -> PathBuf {
    let root = std::env::var("ITNE_ARTIFACTS").unwrap_or_else(|_| "artifacts".into());
    PathBuf::from(root)
}

fn model_path(name: &str) -> PathBuf {
    artifact_dir().join("models").join(format!("{name}.json"))
}

/// Loads a cached model or trains it with `build` and caches the result.
pub fn cached_model(name: &str, build: impl FnOnce() -> Network) -> Network {
    let path = model_path(name);
    if let Ok(net) = Network::load(&path) {
        return net;
    }
    let net = build();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Write-then-rename keeps concurrent readers from seeing partial JSON.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if net.save(&tmp).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    net
}

/// One row of Table I: an identifier, the trained network, its dataset, and
/// the perturbation bound the paper certifies it under.
pub struct BenchNet {
    /// Table row identifier (1-8).
    pub id: usize,
    /// Human-readable layer description (the paper's "Layers" column).
    pub layers: String,
    /// The trained network.
    pub net: Network,
    /// The training dataset (PGD under-approximation attacks its inputs).
    pub data: Dataset,
    /// Input domain `X`.
    pub domain: Vec<(f64, f64)>,
    /// Perturbation bound `δ`.
    pub delta: f64,
}

/// Builds the Auto-MPG network with `width` neurons in each of the two
/// hidden layers (Table I rows 1-5 use widths 4, 6, 8, 16, 32).
pub fn auto_mpg_net(id: usize, width: usize) -> BenchNet {
    let data = auto_mpg(400, 17);
    let name = format!("auto_mpg_w{width}");
    let net = cached_model(&name, || {
        let mut net = NetworkBuilder::input(7)
            .dense_zeros(width, true)
            .expect("static shape")
            .dense_zeros(width, true)
            .expect("static shape")
            .dense_zeros(1, false)
            .expect("static shape")
            .build();
        initialize(&mut net, 1000 + width as u64);
        let mut opt = Adam::new(4e-3);
        train(
            &mut net,
            &data,
            &mut opt,
            &TrainConfig {
                epochs: 150,
                batch_size: 32,
                loss: Loss::Mse,
                seed: 3,
                verbose: false,
            },
        );
        net
    });
    BenchNet {
        id,
        layers: "FC:2+out".into(),
        net,
        data: data.clone(),
        domain: vec![(0.0, 1.0); 7],
        delta: 0.001,
    }
}

/// Builds the digit classifier with `convs` conv layers (Table I rows 6-8).
pub fn digits_net(id: usize, convs: usize) -> BenchNet {
    assert!((1..=3).contains(&convs), "1-3 conv layers");
    let data = digits(1200, DIGIT_SIZE, 23);
    let name = format!("digits_c{convs}");
    let net = cached_model(&name, || {
        let mut b = NetworkBuilder::input_image(1, DIGIT_SIZE, DIGIT_SIZE)
            .conv2d(4, 3, 2, 1, true)
            .expect("conv1");
        if convs >= 2 {
            b = b.conv2d(8, 3, 1, 1, true).expect("conv2");
        }
        if convs >= 3 {
            b = b.conv2d(8, 3, 2, 1, true).expect("conv3");
        }
        let mut net = b
            .flatten()
            .expect("flatten")
            .dense_zeros(32, true)
            .expect("fc hidden")
            .dense_zeros(10, false)
            .expect("fc out")
            .build();
        initialize(&mut net, 2000 + convs as u64);
        let mut opt = Adam::new(2e-3);
        train(
            &mut net,
            &data,
            &mut opt,
            &TrainConfig {
                epochs: 30,
                batch_size: 32,
                loss: Loss::SoftmaxCrossEntropy,
                seed: 9,
                verbose: false,
            },
        );
        net
    });
    BenchNet {
        id,
        layers: format!("Conv:{convs} FC:1+out"),
        net,
        data: data.clone(),
        domain: vec![(0.0, 1.0); DIGIT_SIZE * DIGIT_SIZE],
        delta: 2.0 / 255.0,
    }
}

/// All Table-I rows. `quick` trims to the sizes exercised in CI smoke runs.
pub fn table1_nets(quick: bool) -> Vec<BenchNet> {
    let mut rows = vec![
        auto_mpg_net(1, 4),
        auto_mpg_net(2, 6),
        auto_mpg_net(3, 8),
        auto_mpg_net(4, 16),
    ];
    if !quick {
        rows.push(auto_mpg_net(5, 32));
        rows.push(digits_net(6, 1));
        rows.push(digits_net(7, 2));
        rows.push(digits_net(8, 3));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use itne_nn::train::accuracy;

    #[test]
    fn auto_mpg_nets_train_to_low_error() {
        let b = auto_mpg_net(1, 4);
        let mse = itne_nn::train::evaluate_mse(&b.net, &b.data);
        assert!(mse < 0.02, "mse {mse}");
        assert_eq!(b.net.hidden_neurons(), 8);
    }

    #[test]
    fn digit_nets_learn_the_task() {
        let b = digits_net(6, 1);
        assert!(
            accuracy(&b.net, &b.data) > 0.9,
            "accuracy {}",
            accuracy(&b.net, &b.data)
        );
        // conv(4,s2): 4·7·7 = 196, + FC 32 → 228 hidden.
        assert_eq!(b.net.hidden_neurons(), 228);
    }

    #[test]
    fn caching_round_trips() {
        let a = auto_mpg_net(1, 4);
        let b = auto_mpg_net(1, 4); // second call hits the cache
        assert_eq!(a.net, b.net);
    }
}
