//! Network decomposition (`NetDecompose` in the paper's Algorithm 1).
//!
//! A sub-network `F_w(·)` is the backward dependency cone of a single target
//! neuron across a window of `w` affine layers. For fully-connected layers
//! the cone spans whole layers; for convolutional layers it is the neuron's
//! receptive field, which is what keeps the per-neuron LPs small on conv
//! nets.

use itne_nn::{AffineNetwork, Cone};

/// A decomposed sub-network: the cone of `target` in affine layer `layer`
/// spanning `window` layers, with level 0 being the sub-network input
/// `x⁽ⁱ⁻ʷ⁾` (the network input when `layer + 1 == window`).
#[derive(Clone, Debug)]
pub struct SubNetwork<'a> {
    /// The full network this was cut from.
    pub net: &'a AffineNetwork,
    /// The dependency cone (levels of neuron indices).
    pub cone: Cone,
}

impl<'a> SubNetwork<'a> {
    /// Decomposes `net` around `target` in `layer` with the given window,
    /// clamping the window to the available prefix (`w = min(window,
    /// layer+1)` — the paper's Algorithm 1 line 4, which prints `max`: a
    /// window cannot reach past the input layer, so it must be `min`).
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `target` are out of range or `window == 0`.
    pub fn decompose(net: &'a AffineNetwork, layer: usize, target: usize, window: usize) -> Self {
        assert!(window >= 1, "window must be positive");
        let w = window.min(layer + 1);
        SubNetwork {
            net,
            cone: net.cone(layer, target, w),
        }
    }

    /// Window depth `w`.
    pub fn window(&self) -> usize {
        self.cone.window
    }

    /// The affine layer feeding cone level `k ∈ 1..=w`.
    pub fn layer_at(&self, k: usize) -> usize {
        self.cone.layer_at(k)
    }

    /// True when level 0 of this sub-network is the *network* input, so the
    /// twin coupling constraints (`‖Δx⁽⁰⁾‖∞ ≤ δ`, `x̂⁽⁰⁾ ∈ X`) apply.
    pub fn starts_at_input(&self) -> bool {
        self.cone.layer + 1 == self.cone.window
    }

    /// The target neuron's index within the network layer.
    pub fn target(&self) -> usize {
        self.cone.levels[self.cone.window][0]
    }

    /// Total neurons across all levels (a proxy for LP size).
    pub fn size(&self) -> usize {
        self.cone.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::fig1_affine;

    #[test]
    fn window_clamps_to_prefix() {
        let net = fig1_affine();
        let s = SubNetwork::decompose(&net, 0, 1, 5);
        assert_eq!(s.window(), 1);
        assert!(s.starts_at_input());
        assert_eq!(s.target(), 1);
    }

    #[test]
    fn mid_network_window_does_not_reach_input() {
        let net = fig1_affine();
        let s = SubNetwork::decompose(&net, 1, 0, 1);
        assert!(!s.starts_at_input());
        assert_eq!(s.layer_at(1), 1);
        assert_eq!(s.cone.levels[0], vec![0, 1]);
    }

    #[test]
    fn full_window_reaches_input() {
        let net = fig1_affine();
        let s = SubNetwork::decompose(&net, 1, 0, 2);
        assert!(s.starts_at_input());
        assert_eq!(s.size(), 2 + 2 + 1);
    }
}
