//! One-shot whole-network queries with IBP-seeded relaxation ranges.
//!
//! This is the procedure the paper's §II-D illustrates for "LPR" (and the
//! exact/BTNE variants): relax *every* ReLU using the pre-computed interval
//! ranges, then solve min/max of each output quantity in a single LP/MILP —
//! no layer-by-layer tightening. Algorithm 1 (see [`crate::propagate`]) is
//! usually tighter because it re-derives ranges as it walks; this module
//! exists to reproduce Fig. 4 faithfully and as the simplest exact encoder.

use crate::algorithm::{validate_delta, validate_local, validate_network};
use crate::bounds::TwinBounds;
use crate::encode::{encode_subnet, EncodeOptions, EncodingKind, Relaxation, TargetKind};
use crate::error::CertifyError;
use crate::ibp::ibp_twin;
use crate::interval::Interval;
use crate::query::{lp_relax_x, QueryStats};
use crate::subnet::SubNetwork;
use itne_milp::SolveOptions;
use itne_nn::AffineNetwork;

/// Output ranges from a one-shot whole-network solve.
#[derive(Clone, Debug)]
pub struct OneshotReport {
    /// Certified range of each output `x⁽ⁿ⁾_j`.
    pub x: Vec<Interval>,
    /// Certified range of each output distance `Δx⁽ⁿ⁾_j` (`[0, 0]` for
    /// single-copy runs).
    pub dx: Vec<Interval>,
    /// Work counters.
    pub stats: QueryStats,
}

impl OneshotReport {
    /// `ε̄` per output.
    pub fn epsilons(&self) -> Vec<f64> {
        self.dx.iter().map(|i| i.max_abs()).collect()
    }
}

/// One-shot global robustness query: encodes the full twin network once per
/// output with `kind`/`relax` and IBP ranges, and solves for the output
/// distance ranges.
///
/// # Errors
///
/// [`CertifyError::InvalidInput`] when the network or domain fails
/// [`crate::validate_network`] or `delta` is NaN or negative.
pub fn oneshot_global(
    aff: &AffineNetwork,
    domain: &[(f64, f64)],
    delta: f64,
    kind: EncodingKind,
    relax: Relaxation,
    refine: usize,
    solver: &SolveOptions,
) -> Result<OneshotReport, CertifyError> {
    validate_network(aff, domain)?;
    validate_delta(delta)?;
    let dom: Vec<Interval> = domain.iter().map(|&(l, h)| Interval::new(l, h)).collect();
    let mut bounds = ibp_twin(aff, &dom, delta);
    if kind == EncodingKind::Btne {
        bounds.decouple_distances();
    }
    Ok(query_outputs(
        aff, &bounds, kind, relax, refine, delta, solver,
    ))
}

/// One-shot local robustness query around `x0`: single-copy encoding over
/// the (optionally domain-clipped) perturbation box. Returns output ranges;
/// `dx` is all-zero.
///
/// # Errors
///
/// [`CertifyError::InvalidInput`] when the sample does not match the
/// network's input or is not finite, the network or domain fails
/// [`crate::validate_network`], `delta` is NaN or negative, or the
/// perturbation box misses the domain.
pub fn oneshot_local(
    aff: &AffineNetwork,
    x0: &[f64],
    delta: f64,
    domain: Option<&[(f64, f64)]>,
    relax: Relaxation,
    refine: usize,
    solver: &SolveOptions,
) -> Result<OneshotReport, CertifyError> {
    validate_local(aff, x0, domain)?;
    validate_delta(delta)?;
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
    let bounds = ibp_twin(aff, &box_, 0.0);
    Ok(query_outputs(
        aff,
        &bounds,
        EncodingKind::Single,
        relax,
        refine,
        0.0,
        solver,
    ))
}

fn query_outputs(
    aff: &AffineNetwork,
    bounds: &TwinBounds,
    kind: EncodingKind,
    relax: Relaxation,
    refine: usize,
    delta: f64,
    solver: &SolveOptions,
) -> OneshotReport {
    let last = aff.layers.len() - 1;
    let opts = EncodeOptions {
        kind,
        relax,
        refine,
        y_aware_distance: false,
        delta,
    };
    let mut stats = QueryStats::default();
    let mut xs = Vec::with_capacity(aff.output_dim());
    let mut dxs = Vec::with_capacity(aff.output_dim());
    for j in 0..aff.output_dim() {
        let sub = SubNetwork::decompose(aff, last, j, aff.layers.len());
        let mut enc = encode_subnet(&sub, bounds, TargetKind::PostActivation, &opts);
        let fb_x = bounds.x[last][j];
        let fb_dx = bounds.dx[last][j];
        let check = crate::query::default_check_certificates();
        let (x, dx) = lp_relax_x(&mut enc, fb_x, fb_dx, solver, check, &mut stats);
        xs.push(x);
        dxs.push(dx);
    }
    OneshotReport {
        x: xs,
        dx: dxs,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::fig1_affine;

    const DOM: [(f64, f64); 2] = [(-1.0, 1.0), (-1.0, 1.0)];

    /// The four global rows of Fig. 4 in one place (ITNE values exact to the
    /// paper; BTNE-LPR is the fully coupled LP's range, tighter than the
    /// paper's one-sided bound composition).
    #[test]
    fn fig4_global_oneshot_rows() {
        let aff = fig1_affine();
        let s = SolveOptions::default();

        let exact = oneshot_global(
            &aff,
            &DOM,
            0.1,
            EncodingKind::Itne,
            Relaxation::Exact,
            0,
            &s,
        )
        .unwrap();
        assert!((exact.dx[0].lo + 0.2).abs() < 1e-6 && (exact.dx[0].hi - 0.2).abs() < 1e-6);
        // Exact x⁽²⁾ range [0, 1.25].
        assert!((exact.x[0].hi - 1.25).abs() < 1e-6, "{}", exact.x[0]);

        let itne_lpr =
            oneshot_global(&aff, &DOM, 0.1, EncodingKind::Itne, Relaxation::Lpr, 0, &s).unwrap();
        assert!(
            (itne_lpr.dx[0].hi - 0.275).abs() < 1e-6,
            "{}",
            itne_lpr.dx[0]
        );
        // LPR x̂⁽²⁾ upper 1.44 (well, 1.4375) from Fig. 4.
        assert!(
            (itne_lpr.x[0].hi - 1.4375).abs() < 1e-6,
            "{}",
            itne_lpr.x[0]
        );

        let btne_lpr =
            oneshot_global(&aff, &DOM, 0.1, EncodingKind::Btne, Relaxation::Lpr, 0, &s).unwrap();
        assert!(
            btne_lpr.dx[0].hi > 1.0,
            "BTNE should be loose: {}",
            btne_lpr.dx[0]
        );

        let btne_exact = oneshot_global(
            &aff,
            &DOM,
            0.1,
            EncodingKind::Btne,
            Relaxation::Exact,
            0,
            &s,
        )
        .unwrap();
        assert!(
            (btne_exact.dx[0].hi - 0.2).abs() < 1e-6,
            "{}",
            btne_exact.dx[0]
        );
    }

    /// Fig. 4 local LPR row: x̂⁽²⁾ ∈ [0, 0.144] at x₀ = 0, δ = 0.1.
    #[test]
    fn fig4_local_lpr_row() {
        let aff = fig1_affine();
        let r = oneshot_local(
            &aff,
            &[0.0, 0.0],
            0.1,
            None,
            Relaxation::Lpr,
            0,
            &SolveOptions::default(),
        )
        .unwrap();
        assert!(
            r.x[0].lo.abs() < 1e-6 && (r.x[0].hi - 0.14375).abs() < 1e-6,
            "{}",
            r.x[0]
        );
    }

    /// Refining all neurons turns LPR back into the exact answer.
    #[test]
    fn full_refinement_recovers_exact() {
        let aff = fig1_affine();
        let r = oneshot_global(
            &aff,
            &DOM,
            0.1,
            EncodingKind::Itne,
            Relaxation::Lpr,
            3,
            &SolveOptions::default(),
        )
        .unwrap();
        assert!(
            (r.dx[0].hi - 0.2).abs() < 1e-6 && (r.dx[0].lo + 0.2).abs() < 1e-6,
            "{}",
            r.dx[0]
        );
    }

    /// Partial refinement sits between LPR and exact.
    #[test]
    fn partial_refinement_is_monotone() {
        let aff = fig1_affine();
        let s = SolveOptions::default();
        let e0 = oneshot_global(&aff, &DOM, 0.1, EncodingKind::Itne, Relaxation::Lpr, 0, &s)
            .unwrap()
            .epsilons()[0];
        let e1 = oneshot_global(&aff, &DOM, 0.1, EncodingKind::Itne, Relaxation::Lpr, 1, &s)
            .unwrap()
            .epsilons()[0];
        let e3 = oneshot_global(&aff, &DOM, 0.1, EncodingKind::Itne, Relaxation::Lpr, 3, &s)
            .unwrap()
            .epsilons()[0];
        assert!(
            e0 + 1e-9 >= e1 && e1 + 1e-9 >= e3,
            "not monotone: {e0} {e1} {e3}"
        );
        assert!((e3 - 0.2).abs() < 1e-6);
    }
}
