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
//! from scratch, and all arithmetic is **exact**: a fast path in error-free
//! floating-point expansions (`expansion`) handles the overwhelmingly
//! common case where every intermediate stays in `f64` range, and the
//! vendored [`dyadic::Dyadic`] exact rationals take over whenever the
//! expansion path overflows or underflows out of its provably-exact window.
//! Either way a `Valid` verdict is a machine-checked proof that the
//! reported (already outward-snapped) bound dominates the true optimum. A
//! certificate that proves nothing — wrong duals, an unbounded dual
//! contribution through an infinite variable bound — returns
//! [`Verdict::Invalid`] and the caller falls back to its interval-arithmetic
//! bound, so a bad certificate can degrade tightness but never soundness.
//!
//! The same computation with a zero objective is a Farkas infeasibility
//! proof: `L(y) > 0` certifies that no feasible point exists
//! ([`verify_infeasibility`]).
//!
//! The crate is dependency-free (the bignum and the expansion arithmetic
//! are vendored) and does its work in one sparse mat-vec per certificate.

#![forbid(unsafe_code)]

pub mod dyadic;
mod expansion;

use dyadic::Dyadic;
use expansion::Expansion;
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
    // Tier 1: a plain-f64 forward-error filter. It can only *accept* — and
    // only when the margin provably clears every rounding error — so a
    // `Valid` from here is as trustworthy as one from the exact tiers. In
    // practice the reported bounds carry ≥ 1e-7 of deliberate outward slack
    // against errors of order 1e-13, so this tier decides almost every call.
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
    // Tier 2: exact floating-point expansions (decides both ways).
    if let Some(v) = fast_verdict(
        num_vars,
        rows,
        bounds,
        objective,
        obj_constant,
        maximize,
        row_duals,
        reported,
    ) {
        return v;
    }
    // Tier 3: exact rationals — unlimited range, heap-heavy, last resort.
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

/// The exact-rational (bignum) verdict — the fallback when the expansion
/// fast path leaves its provably-exact `f64` window: an intermediate
/// product or sum overflowed toward ±∞, or a nonzero product dipped under
/// ~1e-290 where Dekker's error term stops being representable.
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
    // Tier 1: the f64 filter proves `L ≥ l − l_err`; strictly positive
    // after the discount means the Farkas proof certainly holds.
    if let Some((l, l_err)) = dual_bound_filter(num_vars, rows, bounds, &[], false, row_duals) {
        if l > l_err {
            return Verdict::Valid;
        }
    }
    match dual_bound_fast(num_vars, rows, bounds, &[], false, row_duals) {
        Ok(Some(l)) => {
            if let Some(s) = l.sign() {
                return if s > 0 {
                    Verdict::Valid
                } else {
                    Verdict::Invalid("Farkas bound is not strictly positive".into())
                };
            }
        }
        Ok(None) => {}
        Err(reason) => return Verdict::Invalid(reason),
    }
    let costs = vec![Dyadic::zero(); num_vars];
    match dual_bound(num_vars, rows, bounds, &costs, row_duals) {
        Ok(l) if l.sign() > 0 => Verdict::Valid,
        Ok(_) => Verdict::Invalid("Farkas bound is not strictly positive".into()),
        Err(reason) => Verdict::Invalid(reason),
    }
}

/// Tier-1 filter: evaluates the dual bound in plain `f64` alongside a
/// rigorous forward error bound. Returns `Some((l, l_err))` with the
/// guarantee `L ≥ l − l_err` for the exact dual bound `L` — the caller may
/// accept any claim that clears the error margin, and must escalate to an
/// exact tier for anything else. `None` means the filter cannot vouch at
/// all (malformed/non-finite data, or an uncertain reduced-cost sign next
/// to an infinite variable bound).
///
/// The error accounting is deliberately loose (standard `γₙ = n·u`-style
/// bounds inflated by small constant factors): with `u = 2⁻⁵³` the slack it
/// wastes is orders of magnitude below the 1e-7 outward padding every
/// reported bound already carries, and looseness only ever costs speed
/// (an unnecessary escalation), never soundness.
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
        let t = yi * row.rhs;
        l += t;
        labs += t.abs();
        nl += 1;
        for &(j, a) in row.terms {
            if j >= num_vars {
                return None;
            }
            let t = yi * a;
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
            let t = dj * lo;
            l += t;
            labs += t.abs();
            nl += 1;
            derr += ej * lo.abs();
        } else if dj + ej < 0.0 {
            if !hi.is_finite() {
                return None;
            }
            let t = dj * hi;
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
            let t = (dj * lo).min(dj * hi);
            l += t;
            labs += t.abs();
            nl += 1;
            derr += ej * lo.abs().max(hi.abs());
        }
    }
    // Product roundings + recursive-summation error over the `nl` addends
    // of `l`, plus the injected d̃ uncertainties (doubled: `derr` itself
    // was accumulated in floating point).
    let err = 4.0 * U * (nl as f64 + 2.0) * labs + 2.0 * derr;
    if !l.is_finite() || !err.is_finite() {
        return None;
    }
    Some((l, err))
}

/// The expansion fast path for [`verify_bound`]: returns `None` when an
/// intermediate left the provably-exact `f64` window (the caller then takes
/// the bignum path), otherwise the final verdict. Structural failures
/// (malformed lengths, out-of-range indices, non-finite data, an unbounded
/// profitable side) are decided here identically to the slow path — the
/// reduced-cost *signs* the decision rests on are exact.
#[allow(clippy::too_many_arguments)]
fn fast_verdict(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    objective: &[(usize, f64)],
    obj_constant: f64,
    maximize: bool,
    row_duals: &[f64],
    reported: f64,
) -> Option<Verdict> {
    let l = match dual_bound_fast(num_vars, rows, bounds, objective, maximize, row_duals) {
        Ok(Some(l)) => l,
        Ok(None) => return None,
        Err(reason) => return Some(Verdict::Invalid(reason)),
    };
    if !obj_constant.is_finite() {
        return Some(Verdict::Invalid("non-finite objective constant".into()));
    }
    // Minimize: optimum ≥ k + L, so `k + L − reported ≥ 0` proves the
    // reported lower bound. Maximize: optimum ≤ k − L, so the reported
    // upper bound needs `reported − (k − L) = reported − k + L ≥ 0`.
    let mut margin = l;
    if maximize {
        margin.grow(reported);
        margin.grow(-obj_constant);
    } else {
        margin.grow(obj_constant);
        margin.grow(-reported);
    }
    let s = margin.sign()?;
    Some(if s >= 0 {
        Verdict::Valid
    } else {
        Verdict::Invalid(format!(
            "reported bound {reported} is tighter than the certified bound"
        ))
    })
}

/// The dual bound `L(y)` as an exact expansion. `Ok(None)` means the
/// computation left the exact window and the caller must fall back to
/// [`dual_bound`]; `Err` means the certificate is structurally invalid (the
/// same conditions, in the same order, as the slow path reports).
fn dual_bound_fast(
    num_vars: usize,
    rows: &[RowRef<'_>],
    bounds: &[(f64, f64)],
    objective: &[(usize, f64)],
    maximize: bool,
    row_duals: &[f64],
) -> Result<Option<Expansion>, String> {
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
    // Reduced costs d = c′ − Aᵀy, one exact expansion per variable (empty
    // expansions don't allocate, so this is one Vec for the whole check).
    let mut d: Vec<Expansion> = vec![Expansion::new(); num_vars];
    for &(j, c) in objective {
        if !c.is_finite() {
            return Err(format!("non-finite objective coefficient on variable {j}"));
        }
        if j >= num_vars {
            return Err(format!("objective names variable {j} out of range"));
        }
        d[j].grow(if maximize { -c } else { c });
    }
    let mut l = Expansion::new();
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
        if !row.rhs.is_finite() {
            return Err("non-finite row rhs".into());
        }
        l.grow_prod(yi, row.rhs);
        for &(j, a) in row.terms {
            if j >= num_vars {
                return Err(format!("row names variable {j} out of range"));
            }
            if !a.is_finite() {
                return Err(format!("non-finite coefficient on variable {j}"));
            }
            d[j].grow_prod(-yi, a);
        }
    }
    for (j, (dj, &(lo, hi))) in d.iter().zip(bounds).enumerate() {
        let Some(s) = dj.sign() else {
            return Ok(None);
        };
        if s == 0 {
            continue;
        }
        // dⱼ > 0 pushes xⱼ to its lower bound, dⱼ < 0 to its upper; an
        // infinite bound on the profitable side sends L to −∞.
        let b = if s < 0 { hi } else { lo };
        if !b.is_finite() {
            return Err(format!(
                "nonzero reduced cost on variable {j} with an unbounded profitable side"
            ));
        }
        l.grow_scaled(dj, b);
    }
    if l.poisoned() {
        return Ok(None);
    }
    Ok(Some(l))
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

    /// The expansion fast path and the bignum slow path must render the
    /// same verdict on every problem the fast path accepts. Deterministic
    /// LCG-driven battery over awkward coefficients (dyadic-inexact
    /// decimals, large magnitude spreads, wrong-signed and NaN duals).
    #[test]
    fn fast_and_slow_paths_agree() {
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
            let fast = fast_verdict(
                nv, &rows, &bounds, &objective, 0.5, maximize, &duals, reported,
            )
            .expect("palette magnitudes stay inside the exact window");
            let slow = slow_verdict(
                nv, &rows, &bounds, &objective, 0.5, maximize, &duals, reported,
            );
            assert_eq!(
                fast.is_valid(),
                slow.is_valid(),
                "paths disagree: fast {fast:?} vs slow {slow:?} \
                 (rows {rows:?}, bounds {bounds:?}, obj {objective:?}, \
                 duals {duals:?}, maximize {maximize}, reported {reported})"
            );
            // The public entry point routes through the f64 filter first;
            // whatever tier decides, the verdict must match the bignum's.
            let full = verify_bound(
                nv, &rows, &bounds, &objective, 0.5, maximize, &duals, reported,
            );
            assert_eq!(
                full.is_valid(),
                slow.is_valid(),
                "filtered chain disagrees with the bignum path: {full:?} vs {slow:?} \
                 (rows {rows:?}, bounds {bounds:?}, obj {objective:?}, \
                 duals {duals:?}, maximize {maximize}, reported {reported})"
            );
        }
    }

    /// Magnitudes whose products overflow f64 poison the fast path; the
    /// public entry point must still verify exactly via the bignum fallback.
    #[test]
    fn overflow_falls_back_to_the_bignum_path() {
        // min (1.7e308 + 1.7e308)·x over 1 ≤ x ≤ 2: the exact cost
        // 3.4·10³⁰⁸ exists only as a bignum — summing the duplicate
        // objective terms overflows and poisons the expansion path.
        let objective = vec![(0usize, 1.7e308), (0usize, 1.7e308)];
        let bounds = vec![(1.0, 2.0)];
        assert!(
            fast_verdict(1, &[], &bounds, &objective, 0.0, false, &[], 1.0e308).is_none(),
            "sums past f64 range must defer to the slow path"
        );
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
        // rounds to 0.0) take the same detour — the exact dual bound
        // 3·10⁻⁴⁰⁰ > 0 exists only on the bignum path.
        let terms = vec![(0usize, 1e-200)];
        let rows = [RowRef {
            terms: &terms,
            cmp: RowCmp::Ge,
            rhs: 3e-200,
        }];
        let objective = vec![(0usize, 1e-200)];
        assert!(fast_verdict(1, &rows, &bounds, &objective, 0.0, false, &[1e-200], 0.0).is_none());
        let v = verify_bound(1, &rows, &bounds, &objective, 0.0, false, &[1e-200], 0.0);
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
