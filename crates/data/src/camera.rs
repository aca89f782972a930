//! Perspective camera renderer — the offline stand-in for the Webots scene.
//!
//! The case study's ego vehicle carries a forward camera watching a reference
//! vehicle; a DNN estimates the distance from the image. The paper captures
//! 24×48 RGB images in Webots. This renderer reproduces the relevant
//! structure deterministically: a road/sky background, a lead-vehicle body
//! whose apparent size scales like `1/distance` (pinhole model), lateral
//! drift, lighting variation, and pixel noise. Grayscale 12×24 by default so
//! the perception network stays within reach of the from-scratch LP solver.

use crate::rng_from;
use itne_nn::train::Dataset;
use rand::RngExt;

/// Camera geometry and scene parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CameraSpec {
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Pinhole scale: apparent vehicle height = `focal / distance` pixels.
    pub focal: f64,
    /// Vehicle width/height ratio.
    pub aspect: f64,
    /// Minimum distance the scene supports.
    pub min_distance: f64,
    /// Maximum distance the scene supports.
    pub max_distance: f64,
}

impl Default for CameraSpec {
    fn default() -> Self {
        CameraSpec {
            height: 12,
            width: 24,
            focal: 3.5,
            aspect: 1.8,
            min_distance: 0.5,
            max_distance: 1.9,
        }
    }
}

impl CameraSpec {
    /// Flat image dimension.
    pub fn pixels(&self) -> usize {
        self.height * self.width
    }
}

/// Renders one scene. `lateral ∈ [-1, 1]` drifts the lead vehicle across the
/// lane, `brightness ∈ [0.8, 1.2]` scales scene lighting; `noise` is the
/// per-pixel uniform noise amplitude.
///
/// Returns `height·width` grayscale values in `[0, 1]`, row-major.
pub fn render_scene(
    spec: &CameraSpec,
    distance: f64,
    lateral: f64,
    brightness: f64,
    noise: f64,
    rng: &mut rand::rngs::StdRng,
) -> Vec<f64> {
    let (h, w) = (spec.height, spec.width);
    let mut img = vec![0.0f64; h * w];
    let horizon = h as f64 * 0.42;

    // Background: sky above the horizon, road below (darker with distance).
    for y in 0..h {
        for x in 0..w {
            let v = if (y as f64) < horizon {
                0.75
            } else {
                0.30 + 0.10 * ((y as f64 - horizon) / (h as f64 - horizon))
            };
            img[y * w + x] = v;
        }
    }

    // Lead vehicle: rectangle sitting on the road, scaled by distance.
    // Anti-aliased edges (analytic pixel coverage) keep the image a smooth
    // function of distance — sub-pixel size changes at the far range stay
    // observable, as they would be in a real sensor's irradiance.
    let app_h = (spec.focal / distance).min(h as f64 * 0.95);
    let app_w = (app_h * spec.aspect).min(w as f64 * 0.95);
    let bottom = (horizon + spec.focal * 0.9 / distance).min(h as f64 - 0.25);
    let cx = w as f64 / 2.0 + lateral * w as f64 * 0.12;
    let y0 = (bottom - app_h).max(0.0);
    let (x0, x1) = (cx - app_w / 2.0, cx + app_w / 2.0);

    // Coverage of [lo, hi] within the unit pixel [p, p+1].
    let overlap =
        |p: f64, lo: f64, hi: f64| -> f64 { (hi.min(p + 1.0) - lo.max(p)).clamp(0.0, 1.0) };
    for y in 0..h {
        let cy = overlap(y as f64, y0, bottom);
        if cy <= 0.0 {
            continue;
        }
        for x in 0..w {
            let cxv = overlap(x as f64, x0, x1);
            if cxv <= 0.0 {
                continue;
            }
            // Body dark, roof-line lighter, brake band near the bottom.
            let rel_y = (y as f64 + 0.5 - y0) / (bottom - y0).max(1e-9);
            let body = if rel_y < 0.25 {
                0.55
            } else if rel_y > 0.8 {
                0.20
            } else {
                0.12
            };
            let cover = cy * cxv;
            let p = &mut img[y * w + x];
            *p = *p * (1.0 - cover) + body * cover;
        }
    }

    // Lighting and sensor noise.
    for p in &mut img {
        let n = if noise > 0.0 {
            rng.random_range(-noise..noise)
        } else {
            0.0
        };
        *p = (*p * brightness + n).clamp(0.0, 1.0);
    }
    img
}

/// Generates `n` labelled `(image, distance)` pairs with distances uniform in
/// `[spec.min_distance, spec.max_distance]` and randomized lateral drift,
/// lighting, and noise — the stand-in for the paper's 100k pre-captured
/// Webots images.
pub fn camera_dataset(spec: &CameraSpec, n: usize, seed: u64) -> Dataset {
    let mut rng = rng_from(seed ^ 0xcau64.rotate_left(41));
    let mut inputs = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let d = rng.random_range(spec.min_distance..spec.max_distance);
        let lateral = rng.random_range(-0.5..0.5);
        let brightness = rng.random_range(0.95..1.05);
        let img = render_scene(spec, d, lateral, brightness, 0.015, &mut rng);
        inputs.push(img);
        targets.push(vec![d]);
    }
    Dataset { inputs, targets }
}

/// Per-pixel `(min, max)` bounds over a dataset — the paper's Fig. 5 (c)/(d)
/// "lower/upper bound of the DNN input space", which defines the input
/// domain `X` for global robustness certification.
pub fn pixel_bounds(data: &Dataset) -> Vec<(f64, f64)> {
    assert!(!data.is_empty(), "need at least one image");
    let dim = data.inputs[0].len();
    let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); dim];
    for img in &data.inputs {
        for (b, &p) in bounds.iter_mut().zip(img) {
            b.0 = b.0.min(p);
            b.1 = b.1.max(p);
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearer_vehicles_look_bigger() {
        let spec = CameraSpec::default();
        let mut rng = crate::rng_from(1);
        let near = render_scene(&spec, 0.6, 0.0, 1.0, 0.0, &mut rng);
        let far = render_scene(&spec, 1.8, 0.0, 1.0, 0.0, &mut rng);
        // Count dark "vehicle body" pixels.
        let dark = |img: &[f64]| img.iter().filter(|&&p| p < 0.25).count();
        assert!(
            dark(&near) > 2 * dark(&far),
            "near {} vs far {}",
            dark(&near),
            dark(&far)
        );
    }

    #[test]
    fn dataset_is_deterministic_with_bounded_targets() {
        let spec = CameraSpec::default();
        let a = camera_dataset(&spec, 20, 4);
        let b = camera_dataset(&spec, 20, 4);
        assert_eq!(a.inputs, b.inputs);
        for t in &a.targets {
            assert!(t[0] >= spec.min_distance && t[0] <= spec.max_distance);
        }
        for img in &a.inputs {
            assert_eq!(img.len(), spec.pixels());
            assert!(img.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn pixel_bounds_bracket_every_image() {
        let spec = CameraSpec::default();
        let d = camera_dataset(&spec, 30, 9);
        let bounds = pixel_bounds(&d);
        for img in &d.inputs {
            for (&p, &(lo, hi)) in img.iter().zip(&bounds) {
                assert!(p >= lo && p <= hi);
            }
        }
        // The domain must be a proper subset of [0,1]^dim somewhere (sky
        // pixels never go fully dark).
        assert!(bounds.iter().any(|&(lo, hi)| lo > 0.05 || hi < 0.95));
    }

    #[test]
    fn lateral_drift_moves_the_vehicle() {
        let spec = CameraSpec::default();
        let mut rng = crate::rng_from(2);
        let left = render_scene(&spec, 1.0, -1.0, 1.0, 0.0, &mut rng);
        let right = render_scene(&spec, 1.0, 1.0, 1.0, 0.0, &mut rng);
        assert_ne!(left, right);
    }
}
