//! Synthetic datasets for the ITNE experiments.
//!
//! The paper evaluates on the UCI Auto MPG dataset, MNIST, and camera images
//! captured in the Webots simulator — none of which are available offline.
//! Certification depends only on the trained weights, not on data provenance,
//! so this crate generates deterministic synthetic stand-ins with the same
//! shape:
//!
//! * [`auto_mpg`](mod@auto_mpg) — a 7-feature vehicle fuel-economy
//!   regression problem with correlated features and a nonlinear ground
//!   truth;
//! * [`digits`](mod@digits) — a 10-class procedural digit-image
//!   classification problem (glyphs rendered with jitter, scale and noise);
//! * [`camera`] — a perspective renderer producing the lead-vehicle camera
//!   images of the control case study, labelled with ground-truth distance.
//!
//! Every generator takes a seed and is bit-reproducible.

#![forbid(unsafe_code)]

pub mod auto_mpg;
pub mod camera;
pub mod digits;

pub use auto_mpg::auto_mpg;
pub use camera::{camera_dataset, pixel_bounds, render_scene, CameraSpec};
pub use digits::{digits, render_digit};

use itne_nn::train::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Splits a dataset into `(train, test)` with the first `ratio` fraction used
/// for training (generators already shuffle, so a prefix split is unbiased).
///
/// # Panics
///
/// Panics unless `0 < ratio < 1`.
pub fn split(data: &Dataset, ratio: f64) -> (Dataset, Dataset) {
    assert!(ratio > 0.0 && ratio < 1.0, "ratio must be in (0, 1)");
    let k = ((data.len() as f64) * ratio).round() as usize;
    let k = k.clamp(1, data.len().saturating_sub(1));
    (
        Dataset {
            inputs: data.inputs[..k].to_vec(),
            targets: data.targets[..k].to_vec(),
        },
        Dataset {
            inputs: data.inputs[k..].to_vec(),
            targets: data.targets[k..].to_vec(),
        },
    )
}

pub(crate) fn rng_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_ratio() {
        let d = auto_mpg(100, 0);
        let (tr, te) = split(&d, 0.8);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
    }
}
