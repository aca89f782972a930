//! The paper's Fig. 1 illustrating network, shared by tests, docs and the
//! Fig. 3/4 reproduction binaries, plus a wider net for this crate's tests.

use itne_nn::{AffineNetwork, Network, NetworkBuilder};

/// The 2-input, 2-hidden, 1-output ReLU network of the paper's Fig. 1:
///
/// ```text
/// y⁽¹⁾₁ = x₁ + 0.5·x₂    y⁽¹⁾₂ = -0.5·x₁ + x₂    (both ReLU)
/// y⁽²⁾  = x⁽¹⁾₁ − x⁽¹⁾₂                           (ReLU)
/// ```
///
/// All biases are zero. Used throughout §II-D with input domain
/// `X = [-1, 1]²` and perturbation bound `δ = 0.1`.
pub fn fig1_network() -> Network {
    NetworkBuilder::input(2)
        .dense(&[&[1.0, 0.5], &[-0.5, 1.0]], &[0.0, 0.0], true)
        .expect("static shapes are valid")
        .dense(&[&[1.0, -1.0]], &[0.0], true)
        .expect("static shapes are valid")
        .build()
}

/// [`fig1_network`] lowered to the affine IR.
pub fn fig1_affine() -> AffineNetwork {
    AffineNetwork::from_network(&fig1_network()).expect("fig1 network lowers")
}

/// A deterministic dense `4 → 8 → 8 → 2` ReLU net (affine last layer),
/// wider than the worker pool and big enough that its LPs take real pivots
/// (Fig. 1's LPs are near-trivial).
#[cfg(test)]
pub(crate) fn dense_net(seed: u64) -> AffineNetwork {
    use itne_nn::{AffineLayer, SparseRow};
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    };
    let mut layer = |inputs: usize, width: usize, relu: bool| AffineLayer {
        rows: (0..width)
            .map(|_| SparseRow {
                terms: (0..inputs).map(|k| (k, next())).collect(),
                bias: 0.25 * next(),
            })
            .collect(),
        relu,
    };
    AffineNetwork {
        input_dim: 4,
        layers: vec![layer(4, 8, true), layer(8, 8, true), layer(8, 2, false)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_expected_shape() {
        let net = fig1_network();
        assert_eq!(net.input_dim(), 2);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.hidden_neurons(), 2);
    }
}
