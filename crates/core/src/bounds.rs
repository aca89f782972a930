//! Per-layer twin-network range storage shared by the IBP pass and
//! Algorithm 1.

use crate::interval::Interval;
use itne_nn::AffineNetwork;
use serde::{Deserialize, Serialize};

/// Ranges of all twin-encoding quantities across a network:
/// per layer `i`, the pre-activation `y⁽ⁱ⁾`, post-activation `x⁽ⁱ⁾`, and the
/// twin distances `Δy⁽ⁱ⁾`, `Δx⁽ⁱ⁾`; plus the input box and input distance.
///
/// All intervals are *sound outer bounds*: every reachable value (under the
/// input domain and perturbation bound used to produce them) lies inside.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwinBounds {
    /// Input domain box `X` (per input dimension).
    pub input: Vec<Interval>,
    /// Input distance box, `[-δ, δ]` for the paper's L∞ perturbation.
    pub dinput: Vec<Interval>,
    /// `y[i][j]` = range of pre-activation of neuron `j` in affine layer `i`.
    pub y: Vec<Vec<Interval>>,
    /// `dy[i][j]` = range of `ŷ − y`.
    pub dy: Vec<Vec<Interval>>,
    /// `x[i][j]` = range of post-activation.
    pub x: Vec<Vec<Interval>>,
    /// `dx[i][j]` = range of `x̂ − x`.
    pub dx: Vec<Vec<Interval>>,
}

impl TwinBounds {
    /// Empty bound storage shaped like `net`, with every interval set to the
    /// (unusable) empty placeholder `[+∞, -∞]` union identity.
    pub fn empty_like(net: &AffineNetwork, input: Vec<Interval>, dinput: Vec<Interval>) -> Self {
        let placeholder = Interval {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        };
        let shape = |_: usize| placeholder;
        TwinBounds {
            input,
            dinput,
            y: net
                .layers
                .iter()
                .map(|l| (0..l.width()).map(shape).collect())
                .collect(),
            dy: net
                .layers
                .iter()
                .map(|l| (0..l.width()).map(shape).collect())
                .collect(),
            x: net
                .layers
                .iter()
                .map(|l| (0..l.width()).map(shape).collect())
                .collect(),
            dx: net
                .layers
                .iter()
                .map(|l| (0..l.width()).map(shape).collect())
                .collect(),
        }
    }

    /// Post-activation ranges of the layer feeding affine layer `i` (the
    /// input box when `i == 0`).
    pub fn x_in(&self, i: usize) -> &[Interval] {
        if i == 0 {
            &self.input
        } else {
            &self.x[i - 1]
        }
    }

    /// Distance ranges of the layer feeding affine layer `i`.
    pub fn dx_in(&self, i: usize) -> &[Interval] {
        if i == 0 {
            &self.dinput
        } else {
            &self.dx[i - 1]
        }
    }

    /// The per-output `ε̄` implied by the final layer's distance ranges —
    /// Algorithm 1's line 14: `ε̄ = max(|Δx⁽ⁿ⁾.lo|, |Δx⁽ⁿ⁾.hi|)`.
    pub fn epsilons(&self) -> Vec<f64> {
        self.dx
            .last()
            .map(|last| last.iter().map(|i| i.max_abs()).collect())
            .unwrap_or_default()
    }

    /// Replaces the interleaved distance ranges by what the *basic*
    /// twin-network encoding actually knows: with no hidden distance
    /// variables, a `Δ` range is only the decoupled difference of the
    /// per-copy ranges (§II-D: "the distance information between the two
    /// network copies is lost"). Used when running BTNE baselines so they
    /// are not secretly seeded with interleaved information.
    pub fn decouple_distances(&mut self) {
        for i in 0..self.y.len() {
            for j in 0..self.y[i].len() {
                let y = self.y[i][j];
                let x = self.x[i][j];
                self.dy[i][j] = Interval::new(y.lo - y.hi, y.hi - y.lo);
                self.dx[i][j] = Interval::new(x.lo - x.hi, x.hi - x.lo);
            }
        }
    }

    /// The bit patterns of every derived range (`y`, `Δy`, `x`, `Δx`, each
    /// `lo` then `hi`), for tests that compare two runs bit for bit.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> Vec<u64> {
        [&self.y, &self.dy, &self.x, &self.dx]
            .into_iter()
            .flatten()
            .flatten()
            .flat_map(|i| [i.lo.to_bits(), i.hi.to_bits()])
            .collect()
    }
}
