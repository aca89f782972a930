//! Robust positively invariant (RPI) set computation for the closed loop —
//! the safety-verification step the paper performs "similarly as in \[20\]".
//!
//! With estimation error `e = [Δd, 0]` bounded by `|Δd| ≤ β`, the closed
//! loop is `x⁺ = A_cl·x + w`, where the lumped disturbance
//! `w = B·K·e − E·w₁ + w₂` lives in a box. The minimal RPI set is the
//! Minkowski series `S = Σ_{k≥0} A_cl^k · W`; for a box `W` its support in
//! the axis directions is the absolutely-convergent series
//! `h_i = Σ_k (|A_cl^k| · c)_i`, which we evaluate with a rigorous tail
//! bound. The system is safe for error bound `β` iff `S` fits inside the
//! normalized safe box — and the largest such `β` is found by bisection
//! (the paper's `[-0.14, 0.14]`).

use crate::dynamics::{AccDynamics, SafeSet, K_GAIN, VR_RANGE, V_NOMINAL, WD_BOUND, WV_BOUND};

/// Result of the invariant-set analysis for one estimation-error bound.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct InvariantAnalysis {
    /// Half-widths of the (outer-approximated) minimal RPI box.
    pub rpi_half_widths: [f64; 2],
    /// Half-widths of the normalized safe box.
    pub safe_half_widths: [f64; 2],
    /// Whether the RPI set fits inside the safe set.
    pub safe: bool,
}

/// 2×2 row-major multiply.
fn mm(x: [f64; 4], y: [f64; 4]) -> [f64; 4] {
    [
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    ]
}

fn inf_norm(x: [f64; 4]) -> f64 {
    (x[0].abs() + x[1].abs()).max(x[2].abs() + x[3].abs())
}

/// Axis-aligned support of `Σ_k A^k·W` for the box `W` with half-widths `c`,
/// including a rigorous geometric tail bound once `‖A^k‖∞` is tiny.
///
/// # Panics
///
/// Panics if the closed loop is not contractive enough for the series to
/// converge within the iteration budget (cannot happen for the paper's `K`).
pub fn mrpi_box(a: [f64; 4], c: [f64; 2]) -> [f64; 2] {
    let mut h = [0.0f64; 2];
    let mut ak: [f64; 4] = [1.0, 0.0, 0.0, 1.0];
    let mut k = 0usize;
    loop {
        h[0] += ak[0].abs() * c[0] + ak[1].abs() * c[1];
        h[1] += ak[2].abs() * c[0] + ak[3].abs() * c[1];
        ak = mm(ak, a);
        k += 1;
        let decay = inf_norm(ak);
        if decay < 1e-13 {
            // Tail: Σ_{j≥k} |A^j c| ≤ ‖A^k‖∞ · (c∞ / (1 − ρ̂)) with the
            // crude contraction estimate ρ̂ from successive norms; at 1e-13
            // the slack below dominates any realistic tail.
            let slack = decay * (c[0] + c[1]) * 1e3 + 1e-12;
            h[0] += slack;
            h[1] += slack;
            return h;
        }
        assert!(
            k < 1_000_000,
            "closed loop does not contract; series diverges"
        );
    }
}

/// Lumped disturbance box half-widths for estimation-error bound `beta`.
fn disturbance_box(beta: f64) -> [f64; 2] {
    let b = AccDynamics::b();
    let e = AccDynamics::e();
    let w1 = (V_NOMINAL - VR_RANGE.0)
        .abs()
        .max((V_NOMINAL - VR_RANGE.1).abs());
    [
        (b[0] * K_GAIN[0]).abs() * beta + e[0].abs() * w1 + WD_BOUND,
        (b[1] * K_GAIN[0]).abs() * beta + e[1].abs() * w1 + WV_BOUND,
    ]
}

/// Runs the invariant analysis for the estimation-error bound `beta`.
pub fn analyze(beta: f64, safe: &SafeSet) -> InvariantAnalysis {
    let rpi = mrpi_box(AccDynamics::closed_loop(), disturbance_box(beta));
    let half = safe.normalized_half_widths();
    InvariantAnalysis {
        rpi_half_widths: rpi,
        safe_half_widths: half,
        safe: rpi[0] <= half[0] && rpi[1] <= half[1],
    }
}

/// The largest estimation-error bound `β` for which the closed loop is
/// provably safe (bisection to `tol`). The paper reports 0.14.
pub fn max_tolerable_estimation_error(safe: &SafeSet, tol: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    if !analyze(lo, safe).safe {
        return 0.0; // not even perfect estimation is safe
    }
    while analyze(hi, safe).safe {
        hi *= 2.0;
        if hi > 1e6 {
            return f64::INFINITY;
        }
    }
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if analyze(mid, safe).safe {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tolerable estimation-error bound lands near the paper's 0.14.
    #[test]
    fn tolerable_error_is_near_paper_value() {
        let beta = max_tolerable_estimation_error(&SafeSet::default(), 1e-4);
        assert!(
            (0.10..=0.16).contains(&beta),
            "β = {beta}, paper reports ≈ 0.14"
        );
    }

    /// The safety verdict is monotone in β.
    #[test]
    fn safety_is_monotone_in_beta() {
        let safe = SafeSet::default();
        let beta_max = max_tolerable_estimation_error(&safe, 1e-4);
        assert!(analyze(beta_max * 0.9, &safe).safe);
        assert!(!analyze(beta_max * 1.2, &safe).safe);
    }

    /// The RPI box is invariant under one closed-loop step by construction:
    /// simulate worst-case corner excursions and check containment.
    #[test]
    fn rpi_box_contains_simulated_trajectories() {
        let safe = SafeSet::default();
        let beta = 0.1;
        let an = analyze(beta, &safe);
        let a = AccDynamics::closed_loop();
        let c = super::disturbance_box(beta);
        // Adversarial bang-bang disturbance, many phases.
        for phase in 0..8 {
            let mut x = [0.0f64, 0.0];
            for k in 0..4000 {
                let s = if (k / (phase + 3)) % 2 == 0 {
                    1.0
                } else {
                    -1.0
                };
                let w = [s * c[0], -s * c[1]];
                x = [
                    a[0] * x[0] + a[1] * x[1] + w[0],
                    a[2] * x[0] + a[3] * x[1] + w[1],
                ];
                assert!(
                    x[0].abs() <= an.rpi_half_widths[0] + 1e-9
                        && x[1].abs() <= an.rpi_half_widths[1] + 1e-9,
                    "trajectory escaped the RPI box at step {k}: {x:?} vs {:?}",
                    an.rpi_half_widths
                );
            }
        }
    }

    /// Larger β strictly inflates the RPI set.
    #[test]
    fn rpi_grows_with_beta() {
        let safe = SafeSet::default();
        let a = analyze(0.05, &safe).rpi_half_widths;
        let b = analyze(0.2, &safe).rpi_half_widths;
        assert!(b[0] > a[0] && b[1] > a[1]);
    }
}
