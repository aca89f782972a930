//! Procedural digit images — the offline stand-in for MNIST.
//!
//! Ten 5×7 glyphs (a classic terminal font) are rendered onto a square
//! grayscale canvas with random position jitter, stroke intensity, and
//! background noise. Labels are one-hot. Images are `size × size` with
//! `size ≥ 9`; the paper uses 28×28 MNIST, our experiments default to 14×14
//! so the per-neuron LPs stay tractable for the from-scratch simplex (the
//! encoding code paths are identical at any size).

use crate::rng_from;
use itne_nn::train::Dataset;
use rand::RngExt;

/// 5×7 bitmaps for digits 0-9, one string row per scanline.
const GLYPHS: [[&str; 7]; 10] = [
    [
        "01110", "10001", "10011", "10101", "11001", "10001", "01110",
    ], // 0
    [
        "00100", "01100", "00100", "00100", "00100", "00100", "01110",
    ], // 1
    [
        "01110", "10001", "00001", "00010", "00100", "01000", "11111",
    ], // 2
    [
        "11111", "00010", "00100", "00010", "00001", "10001", "01110",
    ], // 3
    [
        "00010", "00110", "01010", "10010", "11111", "00010", "00010",
    ], // 4
    [
        "11111", "10000", "11110", "00001", "00001", "10001", "01110",
    ], // 5
    [
        "00110", "01000", "10000", "11110", "10001", "10001", "01110",
    ], // 6
    [
        "11111", "00001", "00010", "00100", "01000", "01000", "01000",
    ], // 7
    [
        "01110", "10001", "10001", "01110", "10001", "10001", "01110",
    ], // 8
    [
        "01110", "10001", "10001", "01111", "00001", "00010", "01100",
    ], // 9
];

/// Glyph width in cells.
pub const GLYPH_W: usize = 5;
/// Glyph height in cells.
pub const GLYPH_H: usize = 7;

/// Renders digit `d` onto a `size × size` canvas in `[0, 1]`, deterministic
/// in the provided RNG state.
///
/// # Panics
///
/// Panics if `d > 9` or `size < 9`.
pub fn render_digit(d: usize, size: usize, rng: &mut rand::rngs::StdRng) -> Vec<f64> {
    assert!(d <= 9, "digit out of range");
    assert!(size >= 9, "canvas must be at least 9×9");
    let mut img = vec![0.0f64; size * size];

    // Low-amplitude background noise.
    for p in &mut img {
        *p = rng.random_range(0.0..0.08);
    }

    // Jittered placement of the glyph.
    let max_ox = size - GLYPH_W - 1;
    let max_oy = size - GLYPH_H - 1;
    let ox = rng.random_range(1..=max_ox);
    let oy = rng.random_range(1..=max_oy);
    let ink: f64 = rng.random_range(0.75..1.0);

    for (gy, row) in GLYPHS[d].iter().enumerate() {
        for (gx, ch) in row.bytes().enumerate() {
            if ch == b'1' {
                let y = oy + gy;
                let x = ox + gx;
                let v = ink - rng.random_range(0.0..0.12);
                img[y * size + x] = v.clamp(0.0, 1.0);
            }
        }
    }
    img
}

/// Generates `n` labelled digit images of side `size`, cycling through the
/// ten classes. Targets are one-hot vectors of length 10.
///
/// # Panics
///
/// Panics if `size < 9`.
pub fn digits(n: usize, size: usize, seed: u64) -> Dataset {
    let mut rng = rng_from(seed ^ 0xd161u64.rotate_left(33));
    let mut inputs = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for i in 0..n {
        let d = i % 10;
        inputs.push(render_digit(d, size, &mut rng));
        let mut t = vec![0.0; 10];
        t[d] = 1.0;
        targets.push(t);
    }
    Dataset { inputs, targets }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_is_deterministic_and_balanced() {
        let a = digits(40, 12, 3);
        let b = digits(40, 12, 3);
        assert_eq!(a.inputs, b.inputs);
        // 4 examples per class.
        for c in 0..10 {
            let count = a.targets.iter().filter(|t| t[c] == 1.0).count();
            assert_eq!(count, 4);
        }
    }

    #[test]
    fn pixels_are_normalized() {
        let d = digits(30, 14, 5);
        for img in &d.inputs {
            assert_eq!(img.len(), 14 * 14);
            assert!(img.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn glyphs_have_distinct_ink_patterns() {
        // Render each class without jitter noise dominating and check the
        // pairwise L1 distances are non-trivial.
        let mut rng = crate::rng_from(9);
        let imgs: Vec<Vec<f64>> = (0..10).map(|d| render_digit(d, 12, &mut rng)).collect();
        for i in 0..10 {
            for j in (i + 1)..10 {
                let l1: f64 = imgs[i]
                    .iter()
                    .zip(&imgs[j])
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(l1 > 1.0, "classes {i} and {j} almost identical: {l1}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn rejects_bad_digit() {
        let mut rng = crate::rng_from(0);
        let _ = render_digit(10, 12, &mut rng);
    }
}
