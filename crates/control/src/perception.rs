//! The vision-based distance-estimation DNN (the paper's 5-layer perception
//! network, scaled to the 12×24 grayscale renderer that stands in for the
//! paper's 24×48 Webots images).

use itne_attack::fgsm_perturb;
use itne_data::camera::{camera_dataset, pixel_bounds, CameraSpec};
use itne_nn::train::{train, Adam, Dataset, Loss, TrainConfig, TrainReport};
use itne_nn::{initialize, Network, NetworkBuilder};

/// Architecture and training configuration for the perception model.
#[derive(Clone, Debug)]
pub struct PerceptionConfig {
    /// Camera geometry.
    pub spec: CameraSpec,
    /// Channels of the two conv layers.
    pub conv_channels: (usize, usize),
    /// Width of the hidden fully-connected layer.
    pub fc_width: usize,
    /// Training images.
    pub train_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Decoupled weight decay (shrinks the Lipschitz gain, which directly
    /// tightens the certification).
    pub weight_decay: f64,
    /// Prepend a 2×2 average-pooling front end. Pooling is a gain-1 linear
    /// layer, so it smooths the input without adding certification slack —
    /// a robustness-by-architecture choice.
    pub pool_first: bool,
    /// FGSM adversarial-augmentation strength for the fine-tuning stage
    /// (0 disables). Robustifies the network itself, which is what the
    /// certified bound ultimately reflects.
    pub adversarial: f64,
    /// Seed for data generation, initialization and shuffling.
    pub seed: u64,
}

impl Default for PerceptionConfig {
    fn default() -> Self {
        PerceptionConfig {
            spec: CameraSpec::default(),
            conv_channels: (4, 8),
            fc_width: 16,
            train_samples: 2500,
            epochs: 100,
            learning_rate: 3e-3,
            weight_decay: 0.05,
            pool_first: true,
            adversarial: 2.0 / 255.0,
            seed: 2022,
        }
    }
}

/// A trained distance estimator plus everything the safety pipeline needs
/// from it.
#[derive(Clone, Debug)]
pub struct PerceptionModel {
    /// The trained network (input `[1, h, w]` image, output distance).
    pub net: Network,
    /// Camera geometry the model was trained for.
    pub spec: CameraSpec,
}

impl PerceptionModel {
    /// Builds the (initialized, untrained) architecture: two strided conv
    /// layers, then two fully-connected layers — the paper's conv+FC shape.
    pub fn architecture(cfg: &PerceptionConfig) -> Network {
        let mut b = NetworkBuilder::input_image(1, cfg.spec.height, cfg.spec.width);
        if cfg.pool_first {
            b = b.avg_pool(2, 2).expect("pool geometry");
        }
        let mut net = b
            .conv2d(cfg.conv_channels.0, 3, 2, 1, true)
            .expect("valid conv geometry")
            .conv2d(cfg.conv_channels.1, 3, 2, 1, true)
            .expect("valid conv geometry")
            .flatten()
            .expect("flatten")
            .dense_zeros(cfg.fc_width, true)
            .expect("fc hidden")
            .dense_zeros(1, false)
            .expect("fc output")
            .build();
        initialize(&mut net, cfg.seed);
        net
    }

    /// Generates the training set and trains the model in two stages
    /// (full learning rate, then a quarter of it for fine-tuning), with
    /// decoupled weight decay throughout.
    pub fn train_new(cfg: &PerceptionConfig) -> (Self, Dataset, TrainReport) {
        let data = camera_dataset(&cfg.spec, cfg.train_samples, cfg.seed ^ 0xcafe);
        let mut net = Self::architecture(cfg);
        let tc = |epochs: usize| TrainConfig {
            epochs,
            batch_size: 32,
            loss: Loss::Mse,
            seed: cfg.seed,
            verbose: false,
        };
        let stage1 = (cfg.epochs * 3) / 5;
        let mut opt = Adam::with_weight_decay(cfg.learning_rate, cfg.weight_decay);
        let mut report = train(&mut net, &data, &mut opt, &tc(stage1));

        // Fine-tune on the original data plus FGSM-perturbed copies
        // (static adversarial augmentation) at a lower learning rate.
        let mut fine_data = data.clone();
        if cfg.adversarial > 0.0 {
            let unit = vec![(0.0, 1.0); net.input_dim()];
            for (img, t) in data.inputs.iter().zip(&data.targets) {
                for sign in [1.0, -1.0] {
                    fine_data.inputs.push(fgsm_perturb(
                        &net,
                        img,
                        cfg.adversarial,
                        0,
                        sign,
                        Some(&unit),
                    ));
                    fine_data.targets.push(t.clone());
                }
            }
        }
        let mut fine = Adam::with_weight_decay(cfg.learning_rate / 4.0, cfg.weight_decay);
        let report2 = train(&mut net, &fine_data, &mut fine, &tc(cfg.epochs - stage1));
        report.loss_history.extend(report2.loss_history);
        (
            PerceptionModel {
                net,
                spec: cfg.spec,
            },
            data,
            report,
        )
    }

    /// Distance estimate for one image.
    pub fn estimate(&self, image: &[f64]) -> f64 {
        self.net.forward(image)[0]
    }

    /// The paper's `Δd₁`: worst-case model inaccuracy over a dataset.
    pub fn model_error(&self, data: &Dataset) -> f64 {
        data.inputs
            .iter()
            .zip(&data.targets)
            .map(|(img, t)| (self.estimate(img) - t[0]).abs())
            .fold(0.0, f64::max)
    }

    /// The certification input domain `X`: per-pixel dataset bounds inflated
    /// by `margin` (Fig. 5 (c)/(d)), clamped to the valid pixel range.
    pub fn input_domain(&self, data: &Dataset, margin: f64) -> Vec<(f64, f64)> {
        pixel_bounds(data)
            .into_iter()
            .map(|(lo, hi)| ((lo - margin).max(0.0), (hi + margin).min(1.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> PerceptionConfig {
        // Light weight decay: the full decay of the default config needs the
        // full epoch budget to converge; this is a smoke-test setting.
        PerceptionConfig {
            train_samples: 400,
            epochs: 45,
            weight_decay: 0.005,
            ..Default::default()
        }
    }

    #[test]
    fn training_reaches_useful_accuracy() {
        let (model, data, report) = PerceptionModel::train_new(&quick_cfg());
        assert!(
            report.final_loss() < 0.05,
            "training did not converge: loss {}",
            report.final_loss()
        );
        // Quick-config quality gates: the *mean* error must be a small
        // fraction of the 1.4-wide distance range (the worst case needs the
        // full config's epoch budget and is exercised by the case-study
        // binary instead).
        let mean: f64 = data
            .inputs
            .iter()
            .zip(&data.targets)
            .map(|(img, t)| (model.estimate(img) - t[0]).abs())
            .sum::<f64>()
            / data.len() as f64;
        assert!(mean < 0.1, "mean model error {mean} too large");
        assert!(model.model_error(&data) < 0.6, "worst-case error unusable");
    }

    #[test]
    fn estimates_order_near_and_far() {
        let (model, _, _) = PerceptionModel::train_new(&quick_cfg());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        let near = itne_data::render_scene(&model.spec, 0.6, 0.0, 1.0, 0.0, &mut rng);
        let far = itne_data::render_scene(&model.spec, 1.8, 0.0, 1.0, 0.0, &mut rng);
        assert!(
            model.estimate(&near) + 0.3 < model.estimate(&far),
            "near {} vs far {}",
            model.estimate(&near),
            model.estimate(&far)
        );
    }

    #[test]
    fn input_domain_is_a_valid_subbox_of_unit_pixels() {
        let (model, data, _) = PerceptionModel::train_new(&quick_cfg());
        let dom = model.input_domain(&data, 2.0 / 255.0);
        assert_eq!(dom.len(), model.spec.pixels());
        assert!(dom
            .iter()
            .all(|&(lo, hi)| (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0));
    }
}
