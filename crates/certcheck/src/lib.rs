//! `itne_certcheck` — exact-rational validation of LP dual certificates.
//!
//! The simplex engines optimize in `f64`; this crate is the independent
//! skeptic that re-derives every reported bound in **exact** arithmetic. The
//! soundness argument is classic weak duality over bounded variables: for
//! the minimization problem
//!
//! ```text
//!   min cᵀx   s.t.   Ax {≤,≥,=} b,   lo ≤ x ≤ hi
//! ```
//!
//! any dual vector `y` with `yᵢ ≤ 0` on `≤`-rows and `yᵢ ≥ 0` on `≥`-rows
//! (free on `=`-rows) yields the lower bound
//!
//! ```text
//!   L(y) = yᵀb + Σⱼ min(dⱼ·loⱼ, dⱼ·hiⱼ),   d = c − Aᵀy,
//! ```
//!
//! valid for **every** `y` in that cone — not just the optimal one. The
//! checker therefore never trusts the solver: wrong-signed multipliers are
//! clamped to zero (which only loosens `L`), the reduction `d` is recomputed
//! from scratch, and every verdict is **exact**. Each check runs up to two
//! paths: a plain-`f64` filter evaluates the bound with a rigorous forward
//! error bound and accepts a claim only when its margin clears every
//! rounding error, and the vendored [`dyadic::Dyadic`] exact rationals
//! decide every claim the filter does not accept. Either way a `Valid`
//! verdict is a machine-checked proof that the reported (already
//! outward-snapped) bound dominates the true optimum. A certificate that
//! proves nothing — wrong duals, an unbounded dual contribution through an
//! infinite variable bound — returns [`Verdict::Invalid`] and the caller
//! falls back to its interval-arithmetic bound, so a bad certificate can
//! degrade tightness but never soundness.
//!
//! The same computation with a zero objective is a Farkas infeasibility
//! proof: `L(y) > 0` certifies that no feasible point exists
//! ([`verify_infeasibility`]).
//!
//! The crate is dependency-free (the bignum is vendored) and does its work
//! in one sparse mat-vec per certificate, plus a second, exact one for the
//! claims the filter leaves open.

#![forbid(unsafe_code)]

pub mod dyadic;

use dyadic::Dyadic;
use std::cmp::Ordering;

/// Constraint comparison operator. Mirrors the solver's `Cmp`; re-declared
/// here so the checker stays free of solver dependencies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RowCmp {
    /// `terms · x ≤ rhs`
    Le,
    /// `terms · x ≥ rhs`
    Ge,
    /// `terms · x = rhs`
    Eq,
}

/// Borrowed view of one constraint row `terms · x  cmp  rhs`, with sparse
/// `(variable index, coefficient)` terms.
#[derive(Copy, Clone, Debug)]
pub struct RowRef<'a> {
    /// Sparse row coefficients.
    pub terms: &'a [(usize, f64)],
    /// Comparison operator.
    pub cmp: RowCmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Outcome of a certificate check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The certificate proves the reported bound (or infeasibility).
    Valid,
    /// The certificate proves nothing; the reason is diagnostic only.
    Invalid(String),
}

impl Verdict {
    /// Whether the check passed.
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }
}

/// Verifies that `reported` soundly bounds the optimum of
/// `opt cᵀx + k  s.t.  rows, bounds` using the dual vector `row_duals`.
///
/// `objective`/`obj_constant` are in the caller's *original* orientation;
/// `maximize` selects the direction. For a maximization, `Valid` means
/// `reported ≥ max`; for a minimization, `reported ≤ min` — in both cases
/// proven in exact arithmetic, assuming only that the constraint data
/// (`rows`, `bounds`, `objective`) is the problem actually solved.
///
/// `row_duals` is interpreted against the internal minimize orientation the
/// engines use (costs negated for a maximization), which is the orientation
/// their certificates are emitted in. Multipliers outside the valid dual
/// cone are clamped to zero — clamping only loosens the proven bound, so the
/// verdict stays trustworthy for arbitrary (even adversarial) duals.
#[allow(clippy::too_many_arguments)]
pub fn verify_bound(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    objective: &[(usize, f64)],
    obj_constant: f64,
    maximize: bool,
    row_duals: &[f64],
    reported: f64,
) -> Verdict {
    if reported.is_nan() {
        return Verdict::Invalid("reported bound is NaN".into());
    }
    if reported.is_infinite() {
        // An infinite reported bound in the loosening direction is trivially
        // sound; in the tightening direction nothing can prove it.
        return if maximize == (reported > 0.0) {
            Verdict::Valid
        } else {
            Verdict::Invalid("reported bound is infinite in the tightening direction".into())
        };
    }
    // The plain-f64 forward-error filter. It can only *accept* — and only
    // when the margin provably clears every rounding error — so a `Valid`
    // from here is as trustworthy as one from the exact path. In practice
    // the reported bounds carry ≥ 1e-7 of deliberate outward slack against
    // errors of order 1e-13, so the filter decides almost every call.
    if let Some((l, l_err)) =
        dual_bound_filter(num_vars, rows, bounds, objective, maximize, row_duals)
    {
        if obj_constant.is_finite() {
            let margin = if maximize {
                reported - obj_constant + l
            } else {
                obj_constant + l - reported
            };
            let err = l_err
                + 4.0 * (f64::EPSILON * 0.5) * (l.abs() + obj_constant.abs() + reported.abs());
            if margin.is_finite() && err.is_finite() && margin > err {
                return Verdict::Valid;
            }
        }
    }
    // Exact rationals decide everything else, both ways.
    slow_verdict(
        num_vars,
        rows,
        bounds,
        objective,
        obj_constant,
        maximize,
        row_duals,
        reported,
    )
}

/// The exact-rational (bignum) verdict for every claim the `f64` filter
/// does not accept: a too-tight claim, a margin inside the filter's error
/// bound, or data past `f64` range.
#[allow(clippy::too_many_arguments)]
fn slow_verdict(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    objective: &[(usize, f64)],
    obj_constant: f64,
    maximize: bool,
    row_duals: &[f64],
    reported: f64,
) -> Verdict {
    // Internal minimize orientation: c′ = −c when maximizing.
    let mut costs = vec![Dyadic::zero(); num_vars];
    for &(j, c) in objective {
        let Some(cd) = Dyadic::from_f64(if maximize { -c } else { c }) else {
            return Verdict::Invalid(format!("non-finite objective coefficient on variable {j}"));
        };
        if j >= num_vars {
            return Verdict::Invalid(format!("objective names variable {j} out of range"));
        }
        costs[j] = costs[j].add(&cd);
    }
    let l = match dual_bound(num_vars, rows, bounds, &costs, row_duals) {
        Ok(l) => l,
        Err(reason) => return Verdict::Invalid(reason),
    };
    let Some(k) = Dyadic::from_f64(obj_constant) else {
        return Verdict::Invalid("non-finite objective constant".into());
    };
    let rep = Dyadic::from_f64(reported).expect("finite by the guards above");
    // Minimize: optimum ≥ k + L, so `reported ≤ k + L` proves domination.
    // Maximize: optimum ≤ k − L (costs were negated), so `reported ≥ k − L`.
    let proven = if maximize { k.sub(&l) } else { k.add(&l) };
    let ok = if maximize {
        rep.cmp(&proven) != Ordering::Less
    } else {
        rep.cmp(&proven) != Ordering::Greater
    };
    if ok {
        Verdict::Valid
    } else {
        Verdict::Invalid(format!(
            "reported bound {reported} is tighter than the certified bound"
        ))
    }
}

/// Verifies a Farkas infeasibility certificate: with a zero objective, a
/// dual bound `L(y) > 0` proves `rows` ∧ `bounds` has no feasible point.
pub fn verify_infeasibility(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    row_duals: &[f64],
) -> Verdict {
    // The f64 filter proves `L ≥ l − l_err`; strictly positive after the
    // discount means the Farkas proof certainly holds.
    if let Some((l, l_err)) = dual_bound_filter(num_vars, rows, bounds, &[], false, row_duals) {
        if l > l_err {
            return Verdict::Valid;
        }
    }
    let costs = vec![Dyadic::zero(); num_vars];
    match dual_bound(num_vars, rows, bounds, &costs, row_duals) {
        Ok(l) if l.sign() > 0 => Verdict::Valid,
        Ok(_) => Verdict::Invalid("Farkas bound is not strictly positive".into()),
        Err(reason) => Verdict::Invalid(reason),
    }
}

/// The `f64` filter: evaluates the dual bound in plain `f64` alongside a
/// rigorous forward error bound. Returns `Some((l, l_err))` with the
/// guarantee `L ≥ l − l_err` for the exact dual bound `L` — the caller may
/// accept any claim that clears the error margin, and must take the exact
/// path (`dual_bound`) for anything else. `None` means the filter cannot
/// vouch at all (malformed/non-finite data, or an uncertain reduced-cost
/// sign next to an infinite variable bound).
///
/// The error accounting is deliberately loose (standard `γₙ = n·u`-style
/// bounds inflated by small constant factors): with `u = 2⁻⁵³` the slack it
/// wastes is orders of magnitude below the 1e-7 outward padding every
/// reported bound already carries, and looseness only ever costs speed
/// (an unnecessary exact check), never soundness.
///
/// Relative error bounds hold for products only in the normal range. A
/// product of nonzero factors below it (`|t| < 2⁻¹⁰²²`, subnormal or
/// flushed to zero) carries an absolute error of up to 2⁻¹⁰⁷⁵ whatever
/// its factors' size, which a later large factor can magnify past any
/// margin, so the filter declines and the exact path decides. The error
/// terms themselves are products too; the budget's absolute floor of
/// `2⁻¹⁰²²` per addend covers any of them that underflow.
fn dual_bound_filter(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    objective: &[(usize, f64)],
    maximize: bool,
    row_duals: &[f64],
) -> Option<(f64, f64)> {
    const U: f64 = f64::EPSILON * 0.5; // unit roundoff, 2⁻⁵³
    if row_duals.len() != rows.len() || bounds.len() != num_vars {
        return None;
    }
    // `a·b`, or `None` when the product of nonzero factors underflows.
    let mul = |a: f64, b: f64| {
        let t = a * b;
        (t.abs() >= f64::MIN_POSITIVE || a == 0.0 || b == 0.0).then_some(t)
    };
    // d̃ ≈ c′ − Aᵀy with Σ|terms| alongside; each d̃ⱼ accumulates at most
    // `rows.len() + 1` addends, which bounds its summation error globally.
    let mut d = vec![0.0f64; num_vars];
    let mut dabs = vec![0.0f64; num_vars];
    for &(j, c) in objective {
        if j >= num_vars {
            return None;
        }
        let c = if maximize { -c } else { c };
        d[j] += c;
        dabs[j] += c.abs();
    }
    let mut l = 0.0f64;
    let mut labs = 0.0f64;
    let mut nl = 0u64;
    // Accumulated absolute error injected by the d̃ uncertainties.
    let mut derr = 0.0f64;
    for (row, &raw) in rows.iter().zip(row_duals) {
        let yi = if raw.is_finite() { raw } else { 0.0 };
        let yi = match row.cmp {
            RowCmp::Le => yi.min(0.0),
            RowCmp::Ge => yi.max(0.0),
            RowCmp::Eq => yi,
        };
        if yi == 0.0 {
            continue;
        }
        let t = mul(yi, row.rhs)?;
        l += t;
        labs += t.abs();
        nl += 1;
        for &(j, a) in row.terms {
            if j >= num_vars {
                return None;
            }
            let t = mul(yi, a)?;
            d[j] -= t;
            dabs[j] += t.abs();
        }
    }
    let per_d_err = 2.0 * U * (rows.len() as f64 + 2.0);
    for (j, (&dj, &(lo, hi))) in d.iter().zip(bounds).enumerate() {
        let daj = dabs[j];
        if daj == 0.0 {
            // No nonzero term ever touched dⱼ: it is exactly zero.
            continue;
        }
        // True dⱼ lies within ±ej of d̃ⱼ.
        let ej = per_d_err * daj;
        if dj - ej > 0.0 {
            // Certainly positive: the profitable side is the lower bound.
            if !lo.is_finite() {
                return None;
            }
            let t = mul(dj, lo)?;
            l += t;
            labs += t.abs();
            nl += 1;
            derr += ej * lo.abs();
        } else if dj + ej < 0.0 {
            if !hi.is_finite() {
                return None;
            }
            let t = mul(dj, hi)?;
            l += t;
            labs += t.abs();
            nl += 1;
            derr += ej * hi.abs();
        } else {
            // Sign uncertain: min over both candidates, discounted by the
            // worst the uncertainty can do — requires both sides finite.
            if !lo.is_finite() || !hi.is_finite() {
                return None;
            }
            let t = mul(dj, lo)?.min(mul(dj, hi)?);
            l += t;
            labs += t.abs();
            nl += 1;
            derr += ej * lo.abs().max(hi.abs());
        }
    }
    // Product roundings + recursive-summation error over the `nl` addends
    // of `l`, plus the injected d̃ uncertainties (doubled: `derr` itself
    // was accumulated in floating point), plus the underflow floor.
    let err =
        4.0 * U * (nl as f64 + 2.0) * labs + 2.0 * derr + (nl as f64 + 2.0) * f64::MIN_POSITIVE;
    if !l.is_finite() || !err.is_finite() {
        return None;
    }
    Some((l, err))
}

/// The exact dual lower bound `L(y) = yᵀb + Σⱼ min(dⱼ·loⱼ, dⱼ·hiⱼ)` with
/// `d = c − Aᵀy`, after clamping `y` into the valid dual cone.
/// `Err` means `L = −∞` (or malformed data): the certificate proves nothing.
fn dual_bound(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    costs: &[Dyadic],
    row_duals: &[f64],
) -> Result<Dyadic, String> {
    if row_duals.len() != rows.len() {
        return Err(format!(
            "certificate has {} duals for {} rows",
            row_duals.len(),
            rows.len()
        ));
    }
    if bounds.len() != num_vars {
        return Err(format!(
            "{} variable bounds for {num_vars} variables",
            bounds.len()
        ));
    }
    let mut d: Vec<Dyadic> = costs.to_vec();
    let mut l = Dyadic::zero();
    for (row, &raw) in rows.iter().zip(row_duals) {
        // Clamp into the dual cone (and drop non-finite garbage): any
        // remaining multiplier yields a valid — possibly looser — bound.
        let yi = if raw.is_finite() { raw } else { 0.0 };
        let yi = match row.cmp {
            RowCmp::Le => yi.min(0.0),
            RowCmp::Ge => yi.max(0.0),
            RowCmp::Eq => yi,
        };
        if yi == 0.0 {
            continue;
        }
        let y = Dyadic::from_f64(yi).expect("finite after clamping");
        let Some(rhs) = Dyadic::from_f64(row.rhs) else {
            return Err("non-finite row rhs".into());
        };
        l = l.add(&y.mul(&rhs));
        for &(j, a) in row.terms {
            if j >= num_vars {
                return Err(format!("row names variable {j} out of range"));
            }
            let Some(ad) = Dyadic::from_f64(a) else {
                return Err(format!("non-finite coefficient on variable {j}"));
            };
            d[j] = d[j].sub(&y.mul(&ad));
        }
    }
    for (j, (dj, &(lo, hi))) in d.iter().zip(bounds).enumerate() {
        if dj.is_zero() {
            continue;
        }
        // dⱼ > 0 pushes xⱼ to its lower bound, dⱼ < 0 to its upper; an
        // infinite bound on the profitable side sends L to −∞.
        let b = if dj.sign() < 0 { hi } else { lo };
        let Some(bv) = Dyadic::from_f64(b) else {
            return Err(format!(
                "nonzero reduced cost on variable {j} with an unbounded profitable side"
            ));
        };
        l = l.add(&dj.mul(&bv));
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (row terms, variable bounds, objective terms) of a test problem.
    type Problem = (Vec<(usize, f64)>, Vec<(f64, f64)>, Vec<(usize, f64)>);

    /// `min x  s.t.  x ≥ 1, 0 ≤ x ≤ 10`: optimum 1, dual y = 1 on the
    /// single `≥` row gives d = 1 − 1 = 0 and L = 1·1 = 1.
    fn tiny_min() -> Problem {
        let terms = vec![(0usize, 1.0)];
        let bounds = vec![(0.0, 10.0)];
        let objective = vec![(0usize, 1.0)];
        (terms, bounds, objective)
    }

    #[test]
    fn valid_minimize_certificate_accepted() {
        let (terms, bounds, objective) = tiny_min();
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 1.0,
        }];
        // Reported lower bounds at and below the optimum pass …
        for reported in [1.0, 1.0 - 1e-7, 0.5, -3.0] {
            let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[1.0], reported);
            assert!(v.is_valid(), "reported {reported}: {v:?}");
        }
        // … and anything strictly above it is rejected.
        let v = verify_bound(
            1,
            &rows,
            &bounds,
            &objective,
            0.0,
            false,
            &[1.0],
            1.0 + 1e-9,
        );
        assert!(!v.is_valid());
    }

    #[test]
    fn corrupted_certificate_rejected() {
        let (terms, bounds, objective) = tiny_min();
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 1.0,
        }];
        // A corrupted dual (0.5 instead of 1): L = 0.5 + min over d = 0.5·lo
        // … d = 1 − 0.5 = 0.5 ≥ 0 at lo = 0, so L = 0.5 only proves
        // bounds ≤ 0.5 — the true reported bound 0.99 must be rejected.
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[0.5], 0.99);
        assert!(!v.is_valid(), "corrupted dual must not certify: {v:?}");
        // A zeroed certificate proves only L = 0.
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[0.0], 0.99);
        assert!(!v.is_valid());
        // Wrong length is malformed.
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[], 0.5);
        assert!(!v.is_valid());
    }

    #[test]
    fn maximize_certificate_and_constant() {
        // max 2x + 3  s.t.  x ≤ 4, 0 ≤ x ≤ 10: optimum 11. Internally
        // min −2x; dual on the ≤ row is y = −2: d = −2 − (−2) = 0,
        // L = (−2)·4 = −8, bound = k − L = 3 + 8 = 11.
        let terms = vec![(0usize, 1.0)];
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Le,
            rhs: 4.0,
        }];
        let bounds = vec![(0.0, 10.0)];
        let objective = vec![(0usize, 2.0)];
        let ok = verify_bound(1, &rows, &bounds, &objective, 3.0, true, &[-2.0], 11.0);
        assert!(ok.is_valid(), "{ok:?}");
        let ok = verify_bound(1, &rows, &bounds, &objective, 3.0, true, &[-2.0], 11.5);
        assert!(ok.is_valid(), "looser is still sound: {ok:?}");
        let bad = verify_bound(1, &rows, &bounds, &objective, 3.0, true, &[-2.0], 10.9999);
        assert!(!bad.is_valid(), "tighter than provable must fail");
    }

    #[test]
    fn wrong_signed_duals_are_clamped_not_trusted() {
        let (terms, bounds, objective) = tiny_min();
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 1.0,
        }];
        // y = −5 on a ≥ row is outside the dual cone; clamped to 0 the
        // certificate proves only L = 0 + min(1·0, 1·10) = 0.
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[-5.0], 0.0);
        assert!(v.is_valid(), "clamped certificate still proves 0: {v:?}");
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[-5.0], 0.5);
        assert!(!v.is_valid(), "clamped certificate must not prove 0.5");
        // NaN duals are dropped the same way.
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[f64::NAN], 0.0);
        assert!(v.is_valid());
    }

    #[test]
    fn infinite_profitable_bound_blocks_proof() {
        // min x with x free below: any nonzero reduced cost on x makes the
        // dual bound −∞; the checker must refuse rather than certify.
        let bounds = vec![(f64::NEG_INFINITY, 10.0)];
        let objective = vec![(0usize, 1.0)];
        let v = verify_bound(1, &[], &bounds, &objective, 0.0, false, &[], -100.0);
        assert!(!v.is_valid(), "{v:?}");
        // With d = 0 (zero objective) the same bounds are fine: L = 0.
        let v = verify_bound(1, &[], &bounds, &[], 0.0, false, &[], -1.0);
        assert!(v.is_valid(), "{v:?}");
    }

    #[test]
    fn unconstrained_box_bound() {
        // min 3x over 2 ≤ x ≤ 5 with no rows: L = 3·2 = 6.
        let bounds = vec![(2.0, 5.0)];
        let objective = vec![(0usize, 3.0)];
        let v = verify_bound(1, &[], &bounds, &objective, 0.0, false, &[], 6.0);
        assert!(v.is_valid(), "{v:?}");
        let v = verify_bound(1, &[], &bounds, &objective, 0.0, false, &[], 6.0 + 1e-12);
        assert!(!v.is_valid());
    }

    #[test]
    fn exactness_catches_sub_ulp_cheating() {
        // min 0.1·x  s.t.  x ≥ 3, 0 ≤ x ≤ 10, dual y = 0.1: the exact dual
        // bound is L = f64(0.1)·3 ≈ 0.300000000000000016653…, strictly
        // between f64(0.3) below and the f64 product `0.1 * 3.0` above.
        // The rounded f64 product overshoots L by under one ulp and must be
        // rejected as a lower bound; the f64 literal 0.3 sits just below L
        // and is a valid (slightly loose) one. No f64 checker can see the
        // gap — both candidates are within an ulp of L.
        let terms = vec![(0usize, 1.0)];
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 3.0,
        }];
        let bounds = vec![(0.0, 10.0)];
        let objective = vec![(0usize, 0.1)];
        let rounded_product = 0.1f64 * 3.0; // 0.30000000000000004…, above L
        let v = verify_bound(
            1,
            &rows,
            &bounds,
            &objective,
            0.0,
            false,
            &[0.1],
            rounded_product,
        );
        assert!(!v.is_valid(), "f64(0.1)*3.0 rounds above L — must fail");
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[0.1], 0.3);
        assert!(v.is_valid(), "f64(0.3) < L — sound lower bound: {v:?}");
    }

    #[test]
    fn farkas_infeasibility() {
        // x ≥ 3 ∧ x ≤ 2 is infeasible; y = (1, −1) gives L = 3 − 2 = 1 > 0.
        let terms = vec![(0usize, 1.0)];
        let rows = [
            RowRef {
                terms: &terms,
                cmp: RowCmp::Ge,
                rhs: 3.0,
            },
            RowRef {
                terms: &terms,
                cmp: RowCmp::Le,
                rhs: 2.0,
            },
        ];
        let bounds = vec![(0.0, 10.0)];
        assert!(verify_infeasibility(1, &rows, &bounds, &[1.0, -1.0]).is_valid());
        // The zero vector proves nothing.
        assert!(!verify_infeasibility(1, &rows, &bounds, &[0.0, 0.0]).is_valid());
        // Bound-driven infeasibility: x ≥ 5 with x ≤ 4 box: y = 1,
        // d = −1 < 0 uses hi = 4: L = 5 − 4 = 1 > 0.
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 5.0,
        }];
        let bounds = vec![(0.0, 4.0)];
        assert!(verify_infeasibility(1, &rows, &bounds, &[1.0]).is_valid());
    }

    /// Runs `check` on 200 problems of a deterministic LCG-driven battery
    /// over awkward coefficients (dyadic-inexact decimals, large magnitude
    /// spreads, wrong-signed and NaN duals): `(num_vars, rows, bounds,
    /// objective, duals, maximize, reported)`.
    fn battery(
        mut check: impl FnMut(usize, &[RowRef<'_>], &[(f64, f64)], &[(usize, f64)], &[f64], bool, f64),
    ) {
        fn lcg(state: &mut u64) -> u64 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state
        }
        const PALETTE: [f64; 15] = [
            0.1,
            -0.2,
            0.3,
            1.0,
            -1.0,
            3.0,
            1e-7,
            -1e-7,
            1e6,
            -1e6,
            0.7,
            1e12,
            -13.25,
            0.0,
            f64::NAN,
        ];
        fn pick(state: &mut u64, allow_nan: bool) -> f64 {
            loop {
                let v = PALETTE[(lcg(state) % PALETTE.len() as u64) as usize];
                if allow_nan || !v.is_nan() {
                    return v;
                }
            }
        }
        let mut st = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            let nv = (lcg(&mut st) % 4 + 1) as usize;
            let nr = (lcg(&mut st) % 4) as usize;
            let term_store: Vec<Vec<(usize, f64)>> = (0..nr)
                .map(|_| (0..nv).map(|j| (j, pick(&mut st, false))).collect())
                .collect();
            let cmps: Vec<RowCmp> = (0..nr)
                .map(|_| match lcg(&mut st) % 3 {
                    0 => RowCmp::Le,
                    1 => RowCmp::Ge,
                    _ => RowCmp::Eq,
                })
                .collect();
            let rhss: Vec<f64> = (0..nr).map(|_| pick(&mut st, false)).collect();
            let rows: Vec<RowRef<'_>> = (0..nr)
                .map(|r| RowRef {
                    terms: &term_store[r],
                    cmp: cmps[r],
                    rhs: rhss[r],
                })
                .collect();
            let bounds: Vec<(f64, f64)> = (0..nv)
                .map(|_| {
                    let a = pick(&mut st, false);
                    let b = pick(&mut st, false);
                    (a.min(b), a.max(b))
                })
                .collect();
            let objective: Vec<(usize, f64)> = (0..nv).map(|j| (j, pick(&mut st, false))).collect();
            let duals: Vec<f64> = (0..nr).map(|_| pick(&mut st, true)).collect();
            let maximize = lcg(&mut st).is_multiple_of(2);
            let reported = pick(&mut st, false);
            check(nv, &rows, &bounds, &objective, &duals, maximize, reported);
        }
    }

    /// The filtered entry point must render the bignum's verdict on every
    /// problem of the battery, whichever path decides.
    #[test]
    fn verify_bound_agrees_with_the_bignum() {
        let mut valid = [0usize; 2];
        battery(|nv, rows, bounds, objective, duals, maximize, reported| {
            let full = verify_bound(nv, rows, bounds, objective, 0.5, maximize, duals, reported);
            let exact = slow_verdict(nv, rows, bounds, objective, 0.5, maximize, duals, reported);
            assert_eq!(
                full.is_valid(),
                exact.is_valid(),
                "filtered check disagrees with the bignum: {full:?} vs {exact:?} \
                 (rows {rows:?}, bounds {bounds:?}, obj {objective:?}, \
                 duals {duals:?}, maximize {maximize}, reported {reported})"
            );
            valid[usize::from(exact.is_valid())] += 1;
        });
        assert!(valid[0] > 0 && valid[1] > 0, "one-sided battery: {valid:?}");
    }

    /// The same battery read as Farkas claims: [`verify_infeasibility`] must
    /// accept exactly when the bignum dual bound under zero costs is
    /// strictly positive.
    #[test]
    fn verify_infeasibility_agrees_with_the_bignum() {
        let mut valid = [0usize; 2];
        battery(|nv, rows, bounds, _, duals, _, _| {
            let full = verify_infeasibility(nv, rows, bounds, duals);
            let exact = dual_bound(nv, rows, bounds, &vec![Dyadic::zero(); nv], duals);
            let proved = matches!(&exact, Ok(l) if l.sign() > 0);
            assert_eq!(
                full.is_valid(),
                proved,
                "filtered check disagrees with the bignum: {full:?} vs {exact:?} \
                 (rows {rows:?}, bounds {bounds:?}, duals {duals:?})"
            );
            valid[usize::from(proved)] += 1;
        });
        assert!(valid[0] > 0 && valid[1] > 0, "one-sided battery: {valid:?}");
    }

    /// A Farkas margin inside the filter's error bound goes to the bignum,
    /// which decides it both ways.
    #[test]
    fn farkas_margins_below_the_filter_go_to_the_bignum() {
        // x ≥ a ∧ x ≤ 0.3 with y = (1, −1): L = a − 0.3 exactly.
        let terms = vec![(0usize, 1.0)];
        let bounds = vec![(0.0, 1.0)];
        let duals = [1.0, -1.0];
        let crossed = |a: f64| {
            let rows = [
                RowRef {
                    terms: &terms,
                    cmp: RowCmp::Ge,
                    rhs: a,
                },
                RowRef {
                    terms: &terms,
                    cmp: RowCmp::Le,
                    rhs: 0.3,
                },
            ];
            let (l, l_err) =
                dual_bound_filter(1, &rows, &bounds, &[], false, &duals).expect("finite data");
            assert!(l <= l_err, "the filter must not decide a = {a}");
            verify_infeasibility(1, &rows, &bounds, &duals)
        };
        // One ulp of crossing proves infeasibility …
        let v = crossed(0.1 + 0.2);
        assert!(v.is_valid(), "{v:?}");
        // … and touching rows prove nothing (L = 0 is not > 0).
        assert!(!crossed(0.3).is_valid());
    }

    /// Sums past f64 range defeat the filter; the public entry point must
    /// still verify exactly via the bignum.
    #[test]
    fn overflow_falls_back_to_the_bignum_path() {
        // min (1.7e308 + 1.7e308)·x over 1 ≤ x ≤ 2: the exact cost
        // 3.4·10³⁰⁸ exists only as a bignum — summing the duplicate
        // objective terms overflows in f64.
        let objective = vec![(0usize, 1.7e308), (0usize, 1.7e308)];
        let bounds = vec![(1.0, 2.0)];
        // Exact L = 3.4e308·1 dominates any finite reported lower bound …
        let v = verify_bound(1, &[], &bounds, &objective, 0.0, false, &[], 1.0e308);
        assert!(v.is_valid(), "{v:?}");
        let v = verify_bound(1, &[], &bounds, &objective, 0.0, false, &[], f64::MAX);
        assert!(v.is_valid(), "even f64::MAX is below the exact optimum");
        // … and with −2 ≤ x ≤ −1 the exact L = −6.8e308 lies below every
        // finite f64, so no finite reported lower bound can validate.
        let bounds_neg = vec![(-2.0, -1.0)];
        let v = verify_bound(1, &[], &bounds_neg, &objective, 0.0, false, &[], -1.0e308);
        assert!(!v.is_valid(), "tighter than the exact bound must fail");
        // Products that underflow out of f64 entirely (1e-200 · 3e-200
        // rounds to 0.0) must not cost a sound claim its proof.
        let terms = vec![(0usize, 1e-200)];
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 3e-200,
        }];
        let objective = vec![(0usize, 1e-200)];
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[1e-200], 0.0);
        assert!(v.is_valid(), "{v:?}");
    }

    /// A product in the subnormal range carries an absolute rounding error
    /// that the filter's relative bounds miss, so the filter must leave it
    /// to the bignum rather than accept.
    #[test]
    fn subnormal_products_go_to_the_bignum() {
        // 3e-160·x ≥ 3e140 over 0 ≤ x ≤ 1e300 holds at x = 1e300. With
        // y = 1e-160 the product y·3e-160 ≈ 3e-320 is subnormal, and the
        // exact dual bound y·(3e140 − 3e-160·1e300) is about −1.6e-36.
        let terms = vec![(0usize, 3e-160)];
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 3e140,
        }];
        let bounds = vec![(0.0, 1e300)];
        let duals = [1e-160];
        assert_eq!(
            dual_bound_filter(1, &rows, &bounds, &[], false, &duals),
            None
        );
        let v = verify_infeasibility(1, &rows, &bounds, &duals);
        assert!(!v.is_valid(), "a feasible row proved infeasible: {v:?}");
        // Read as a bound on `min 0`, the duals prove about −1.6e-36.
        let v = verify_bound(1, &rows, &bounds, &[], 0.0, false, &duals, 1e-30);
        assert!(!v.is_valid(), "1e-30 is not a lower bound of min 0: {v:?}");
        let v = verify_bound(1, &rows, &bounds, &[], 0.0, false, &duals, -1e-30);
        assert!(v.is_valid(), "{v:?}");
    }

    #[test]
    fn infinite_reported_bounds() {
        let (terms, bounds, objective) = tiny_min();
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 1.0,
        }];
        // −∞ is a trivially sound lower bound, +∞ is not provable as one.
        let v = verify_bound(
            1,
            &rows,
            &bounds,
            &objective,
            0.0,
            false,
            &[1.0],
            f64::NEG_INFINITY,
        );
        assert!(v.is_valid());
        let v = verify_bound(
            1,
            &rows,
            &bounds,
            &objective,
            0.0,
            false,
            &[1.0],
            f64::INFINITY,
        );
        assert!(!v.is_valid());
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[1.0], f64::NAN);
        assert!(!v.is_valid());
    }
}
