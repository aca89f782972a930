//! Sparse linear expressions over model variables.

use crate::model::VarId;
use std::ops::{Add, Mul, Neg, Sub};

/// A sparse linear expression `Σ cᵢ·xᵢ + k`.
///
/// Expressions are built with ordinary arithmetic on [`VarId`]s and `f64`s:
///
/// ```
/// use itne_milp::{LinExpr, Model};
/// let mut m = Model::new();
/// let x = m.add_var(0.0, 1.0);
/// let y = m.add_var(0.0, 1.0);
/// let e: LinExpr = 2.0 * x - y + 3.0;
/// assert_eq!(e.constant(), 3.0);
/// ```
///
/// Duplicate variables are allowed and are merged lazily by
/// [`LinExpr::compact`] (the model compacts rows when they are added).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// An expression consisting of a constant only.
    pub fn constant_term(k: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: k,
        }
    }

    /// Builds an expression from `(variable, coefficient)` pairs and a constant.
    pub fn from_terms<I: IntoIterator<Item = (VarId, f64)>>(terms: I, constant: f64) -> Self {
        LinExpr {
            terms: terms.into_iter().collect(),
            constant,
        }
    }

    /// Adds `coef * var` to the expression.
    pub fn add_term(&mut self, var: VarId, coef: f64) -> &mut Self {
        self.terms.push((var, coef));
        self
    }

    /// Resets the expression to `0`, keeping the term buffer's capacity.
    /// With [`LinExpr::add_scaled`] and the `*_buf` constraint methods on
    /// [`crate::Model`], this lets encoders reuse one scratch expression
    /// across thousands of constraints instead of allocating per row.
    pub fn clear(&mut self) {
        self.terms.clear();
        self.constant = 0.0;
    }

    /// Appends every term of `other` scaled by `k`, plus `k ×` its constant.
    /// Equivalent to `self + k * other.clone()` without the clone.
    pub fn add_scaled(&mut self, other: &LinExpr, k: f64) -> &mut Self {
        self.terms
            .extend(other.terms.iter().map(|&(v, c)| (v, c * k)));
        self.constant += other.constant * k;
        self
    }

    /// The constant part `k`.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// The (possibly duplicated) terms in insertion order.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Merges duplicate variables and drops exact-zero coefficients,
    /// returning the canonical form sorted by variable index.
    pub fn compact(mut self) -> Self {
        self.compact_in_place();
        self
    }

    /// In-place [`LinExpr::compact`]: identical canonical form (stable sort
    /// by variable index, duplicates summed in insertion order, exact zeros
    /// dropped), but the term buffer is retained for reuse.
    pub fn compact_in_place(&mut self) {
        self.terms.sort_by_key(|(v, _)| v.index());
        let mut write = 0usize;
        for read in 0..self.terms.len() {
            let (v, c) = self.terms[read];
            if write > 0 && self.terms[write - 1].0 == v {
                self.terms[write - 1].1 += c;
            } else {
                self.terms[write] = (v, c);
                write += 1;
            }
        }
        self.terms.truncate(write);
        self.terms.retain(|(_, c)| *c != 0.0);
    }

    /// Evaluates the expression at the given dense assignment.
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut acc = self.constant;
        for (v, c) in &self.terms {
            acc += c * values[v.index()];
        }
        acc
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr {
            terms: vec![(v, 1.0)],
            constant: 0.0,
        }
    }
}

impl From<f64> for LinExpr {
    fn from(k: f64) -> Self {
        LinExpr::constant_term(k)
    }
}

macro_rules! impl_binop {
    ($lhs:ty, $rhs:ty) => {
        impl Add<$rhs> for $lhs {
            type Output = LinExpr;
            fn add(self, rhs: $rhs) -> LinExpr {
                let mut out: LinExpr = self.into();
                let rhs: LinExpr = rhs.into();
                out.terms.extend(rhs.terms);
                out.constant += rhs.constant;
                out
            }
        }
        impl Sub<$rhs> for $lhs {
            type Output = LinExpr;
            fn sub(self, rhs: $rhs) -> LinExpr {
                let mut out: LinExpr = self.into();
                let rhs: LinExpr = rhs.into();
                out.terms
                    .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
                out.constant -= rhs.constant;
                out
            }
        }
    };
}

impl_binop!(LinExpr, LinExpr);
impl_binop!(LinExpr, VarId);
impl_binop!(LinExpr, f64);
impl_binop!(VarId, LinExpr);
impl_binop!(VarId, VarId);
impl_binop!(VarId, f64);
impl_binop!(f64, LinExpr);
impl_binop!(f64, VarId);

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr {
            terms: self.terms.into_iter().map(|(v, c)| (v, -c)).collect(),
            constant: -self.constant,
        }
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        LinExpr {
            terms: self.terms.into_iter().map(|(v, c)| (v, c * k)).collect(),
            constant: self.constant * k,
        }
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, e: LinExpr) -> LinExpr {
        e * self
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, v: VarId) -> LinExpr {
        LinExpr {
            terms: vec![(v, self)],
            constant: 0.0,
        }
    }
}

impl Mul<f64> for VarId {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        LinExpr {
            terms: vec![(self, k)],
            constant: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Model;

    #[test]
    fn arithmetic_builds_expected_terms() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        let e = (2.0 * x + 3.0 * y - x + 1.5).compact();
        assert_eq!(e.terms(), &[(x, 1.0), (y, 3.0)]);
        assert_eq!(e.constant(), 1.5);
    }

    #[test]
    fn compact_drops_cancelled_terms() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let e = (x - x).compact();
        assert!(e.terms().is_empty());
    }

    #[test]
    fn eval_matches_manual_computation() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        let e = 2.0 * x - 0.5 * y + 4.0;
        assert_eq!(e.eval(&[3.0, 2.0]), 2.0 * 3.0 - 0.5 * 2.0 + 4.0);
    }

    #[test]
    fn compact_in_place_matches_compact() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        let z = m.add_var(0.0, 1.0);
        let built = 2.0 * z + 3.0 * x - z + 0.25 * y - 3.0 * x + 7.5;
        let via_compact = built.clone().compact();
        let mut in_place = built;
        in_place.compact_in_place();
        assert_eq!(in_place, via_compact);
        assert_eq!(in_place.terms(), &[(y, 0.25), (z, 1.0)]);
    }

    #[test]
    fn scratch_buffer_reuse_matches_fresh_build() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        let base = 1.0 * x - 2.0 * y + 0.5;
        let mut buf = super::LinExpr::new();
        for k in [1.0, -3.0, 0.0] {
            buf.clear();
            buf.add_term(y, 4.0);
            buf.add_scaled(&base, k);
            let fresh = (4.0 * y + base.clone() * k).compact();
            buf.compact_in_place();
            assert_eq!(buf, fresh, "k = {k}");
        }
    }

    #[test]
    fn negation_flips_all_signs() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let e = -(2.0 * x + 1.0);
        assert_eq!(e.terms(), &[(x, -2.0)]);
        assert_eq!(e.constant(), -1.0);
    }
}
