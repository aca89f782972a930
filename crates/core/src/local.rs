//! Local robustness certification around a single input sample.
//!
//! Local robustness bounds `|F(x̂)_j − F(x₀)_j|` for all `x̂` with
//! `‖x̂ − x₀‖∞ ≤ δ` (optionally clipped to the domain). It is a single-copy
//! output-range analysis over a small box — the setting of the upper half of
//! the paper's Fig. 4, included here both as that reproduction and as the
//! building block the paper generalizes away from.

use crate::algorithm::{propagate, validate_local, validate_query, CertifyOptions, CertifyStats};
use crate::bounds::TwinBounds;
use crate::encode::EncodingKind;
use crate::error::CertifyError;
use crate::interval::Interval;
use itne_nn::{AffineNetwork, Network};
use std::time::Instant;

/// Result of a local robustness certification.
#[derive(Clone, Debug)]
pub struct LocalReport {
    /// Certified `|F(x̂)_j − F(x₀)_j|` bound per output.
    pub epsilons: Vec<f64>,
    /// Certified output ranges (the `x̂⁽ⁿ⁾` rows of Fig. 4).
    pub output_ranges: Vec<Interval>,
    /// The network value at the sample.
    pub reference: Vec<f64>,
    /// All internal ranges.
    pub bounds: TwinBounds,
    /// Work counters.
    pub stats: CertifyStats,
}

impl LocalReport {
    /// The certified local bound for output `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn epsilon(&self, j: usize) -> f64 {
        self.epsilons[j]
    }
}

/// Certifies local robustness of `net` at `x0` under perturbation bound
/// `delta`, clipping the perturbation box to `domain` when provided.
///
/// The `opts` select the method exactly as for the global engine: exact
/// whole-network MILP (`Relaxation::Exact`, window ≥ depth), ND
/// (`Relaxation::Exact`, small window) or LPR (`Relaxation::Lpr`). The
/// encoding is forced to [`EncodingKind::Single`]: local robustness has one
/// network copy.
///
/// # Errors
///
/// [`CertifyError::Lower`] if the network cannot be lowered;
/// [`CertifyError::InvalidInput`] when the sample does not match the
/// network's input or is not finite, the network or domain fails
/// [`crate::validate_network`], `delta` or the window fails
/// [`crate::validate_query`], or the perturbation box misses the domain.
pub fn certify_local(
    net: &Network,
    x0: &[f64],
    delta: f64,
    domain: Option<&[(f64, f64)]>,
    opts: &CertifyOptions,
) -> Result<LocalReport, CertifyError> {
    let aff = AffineNetwork::from_network(net)?;
    validate_local(&aff, x0, domain)?;
    validate_query(delta, opts.window)?;
    let mut box_: Vec<Interval> = x0
        .iter()
        .map(|&v| Interval::new(v - delta, v + delta))
        .collect();
    if let Some(dom) = domain {
        for (b, &(lo, hi)) in box_.iter_mut().zip(dom) {
            *b = b
                .intersect(Interval::new(lo, hi), 0.0)
                .ok_or_else(|| CertifyError::InvalidInput("sample outside domain".into()))?;
        }
    }

    let local_opts = CertifyOptions {
        encoding: EncodingKind::Single,
        ..opts.clone()
    };
    #[allow(clippy::disallowed_methods)]
    // lint:allow(wall-clock): telemetry only — wall time never feeds certified bounds
    let t0 = Instant::now();
    let (bounds, mut stats) = propagate(&aff, &box_, 0.0, &local_opts);
    // lint:allow(wall-clock): telemetry only — wall time never feeds certified bounds
    stats.wall = t0.elapsed();

    let reference = net.forward(x0);
    let output_ranges: Vec<Interval> = bounds.x.last().expect("network has layers").clone();
    let epsilons = output_ranges
        .iter()
        .zip(&reference)
        .map(|(r, &f)| (r.hi - f).max(f - r.lo).max(0.0))
        .collect();

    Ok(LocalReport {
        epsilons,
        output_ranges,
        reference,
        bounds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Relaxation;
    use crate::example::fig1_network;

    /// Fig. 4 local rows at x₀ = (0, 0), δ = 0.1:
    /// exact x̂⁽²⁾ ∈ [0, 0.125]; ND (W=1) gives [0, 0.15]; LPR [0, 0.144].
    #[test]
    fn fig4_local_rows() {
        let net = fig1_network();
        let x0 = [0.0, 0.0];

        let exact = certify_local(
            &net,
            &x0,
            0.1,
            None,
            &CertifyOptions {
                relaxation: Relaxation::Exact,
                window: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let r = exact.output_ranges[0];
        assert!(
            r.lo.abs() < 1e-6 && (r.hi - 0.125).abs() < 1e-6,
            "exact {r}"
        );

        let nd = certify_local(
            &net,
            &x0,
            0.1,
            None,
            &CertifyOptions {
                relaxation: Relaxation::Exact,
                window: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let r = nd.output_ranges[0];
        assert!(r.lo.abs() < 1e-6 && (r.hi - 0.15).abs() < 1e-6, "nd {r}");

        let lpr = certify_local(
            &net,
            &x0,
            0.1,
            None,
            &CertifyOptions {
                relaxation: Relaxation::Lpr,
                window: 2,
                refine: 0,
                ..Default::default()
            },
        )
        .unwrap();
        // The paper's one-shot LPR gives [0, 0.144] (see
        // `oneshot::tests::fig4_local_lpr_row`); the layered engine
        // re-derives the output pre-activation range before applying the
        // ReLU, which tightens this to [0, 0.1375].
        let r = lpr.output_ranges[0];
        assert!(r.lo.abs() < 1e-6 && (r.hi - 0.1375).abs() < 1e-6, "lpr {r}");
    }

    #[test]
    fn local_epsilon_is_sound_against_sampling() {
        let net = fig1_network();
        let x0 = [0.3, -0.4];
        let rep = certify_local(&net, &x0, 0.05, None, &CertifyOptions::default()).unwrap();
        let f0 = net.forward(&x0);
        // Dense corner + grid sampling inside the box.
        for a in -4i32..=4 {
            for b in -4i32..=4 {
                let xh = [x0[0] + 0.05 * a as f64 / 4.0, x0[1] + 0.05 * b as f64 / 4.0];
                let fh = net.forward(&xh);
                assert!((fh[0] - f0[0]).abs() <= rep.epsilon(0) + 1e-9);
            }
        }
    }

    #[test]
    fn sample_outside_domain_is_rejected() {
        let net = fig1_network();
        let r = certify_local(
            &net,
            &[5.0, 5.0],
            0.1,
            Some(&[(-1.0, 1.0), (-1.0, 1.0)]),
            &CertifyOptions::default(),
        );
        assert!(r.is_err());
    }
}
