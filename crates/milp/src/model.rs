//! The optimization model: variables, constraints, objective.

use crate::error::SolveError;
use crate::linexpr::LinExpr;
use crate::options::SolveOptions;
use crate::{branch_bound, simplex, Solution};
use itne_certcheck::{RowCmp, RowRef, Verdict};

/// Handle to a model variable. Cheap to copy; only valid for the model that
/// created it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Position of the variable in creation order (also its index in
    /// [`Solution::values`](crate::Solution::values)).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Continuous or integer-constrained variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VarType {
    /// Ordinary continuous variable.
    Continuous,
    /// Integer-valued variable (branch-and-bound enforces integrality).
    Integer,
}

/// Constraint comparison operator.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Optimization direction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Clone, Debug)]
pub(crate) struct Column {
    pub lo: f64,
    pub hi: f64,
    pub ty: VarType,
}

#[derive(Clone, Debug)]
pub(crate) struct Row {
    /// Compacted sparse terms, sorted by variable index.
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear optimization model over bounded variables.
///
/// See the [crate-level docs](crate) for a complete example. Models containing
/// at least one [`VarType::Integer`] variable are solved by branch-and-bound;
/// purely continuous models by the simplex method directly.
#[derive(Clone, Debug, Default)]
pub struct Model {
    pub(crate) cols: Vec<Column>,
    pub(crate) rows: Vec<Row>,
    pub(crate) objective: Vec<(usize, f64)>,
    pub(crate) obj_constant: f64,
    pub(crate) sense: Option<Sense>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a continuous variable with inclusive bounds `lo ≤ x ≤ hi`.
    /// Either bound may be infinite.
    pub fn add_var(&mut self, lo: f64, hi: f64) -> VarId {
        self.cols.push(Column {
            lo,
            hi,
            ty: VarType::Continuous,
        });
        VarId(self.cols.len() - 1)
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self) -> VarId {
        self.cols.push(Column {
            lo: 0.0,
            hi: 1.0,
            ty: VarType::Integer,
        });
        VarId(self.cols.len() - 1)
    }

    /// Adds an integer variable with inclusive bounds.
    pub fn add_integer(&mut self, lo: f64, hi: f64) -> VarId {
        self.cols.push(Column {
            lo,
            hi,
            ty: VarType::Integer,
        });
        VarId(self.cols.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Number of integer variables.
    pub fn num_integers(&self) -> usize {
        self.cols
            .iter()
            .filter(|c| c.ty == VarType::Integer)
            .count()
    }

    /// Bounds of a variable.
    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.cols[v.0].lo, self.cols[v.0].hi)
    }

    /// Tightens (or loosens) the bounds of an existing variable.
    pub fn set_bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        self.cols[v.0].lo = lo;
        self.cols[v.0].hi = hi;
    }

    /// The current objective sense, or `None` for a pure feasibility model.
    pub fn objective_sense(&self) -> Option<Sense> {
        self.sense
    }

    /// Adds the constraint `expr cmp rhs`. The expression's constant moves to
    /// the right-hand side.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) {
        let mut e = expr.into();
        self.add_constraint_buf(&mut e, cmp, rhs);
    }

    /// [`Model::add_constraint`] reading from a caller-owned scratch buffer:
    /// the expression is compacted in place and copied into the row, and the
    /// buffer (with its capacity) stays with the caller for the next
    /// constraint. Hot encoders build each row into one reusable [`LinExpr`]
    /// instead of allocating per constraint.
    pub fn add_constraint_buf(&mut self, expr: &mut LinExpr, cmp: Cmp, rhs: f64) {
        expr.compact_in_place();
        let adjusted = rhs - expr.constant();
        self.rows.push(Row {
            terms: expr.terms().iter().map(|&(v, c)| (v.index(), c)).collect(),
            cmp,
            rhs: adjusted,
        });
    }

    /// Overwrites the right-hand side of constraint row `r`, leaving its
    /// terms and comparison untouched. The cheap re-parameterization behind
    /// encoding reuse: a δ change perturbs bounds and right-hand sides but
    /// not the constraint skeleton.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.num_constraints()`.
    pub fn update_rhs(&mut self, r: usize, rhs: f64) {
        self.rows[r].rhs = rhs;
    }

    /// Re-parameterizes constraint row `r` in place from a scratch buffer:
    /// compacts `expr`, and — when the row's variable-index pattern and
    /// comparison operator match exactly — overwrites the coefficients and
    /// the (constant-adjusted) right-hand side, returning `true`. Any
    /// structural mismatch (different operator, different support) leaves
    /// the row untouched and returns `false`, signalling the caller to fall
    /// back to a fresh build.
    pub fn reparam_row_buf(&mut self, r: usize, expr: &mut LinExpr, cmp: Cmp, rhs: f64) -> bool {
        expr.compact_in_place();
        let Some(row) = self.rows.get_mut(r) else {
            return false;
        };
        if row.cmp != cmp
            || row.terms.len() != expr.terms().len()
            || row
                .terms
                .iter()
                .zip(expr.terms())
                .any(|(&(ri, _), &(v, _))| ri != v.index())
        {
            return false;
        }
        for (slot, &(_, c)) in row.terms.iter_mut().zip(expr.terms()) {
            slot.1 = c;
        }
        row.rhs = rhs - expr.constant();
        true
    }

    /// Re-parameterizes variable `j` (by creation index) in place: when the
    /// stored variable exists and has type `ty`, overwrites its bounds and
    /// returns its handle; otherwise leaves the model untouched and returns
    /// `None` (structural mismatch — the caller rebuilds from scratch).
    pub fn reparam_var(&mut self, j: usize, lo: f64, hi: f64, ty: VarType) -> Option<VarId> {
        let col = self.cols.get_mut(j)?;
        if col.ty != ty {
            return None;
        }
        col.lo = lo;
        col.hi = hi;
        Some(VarId(j))
    }

    /// Sets the objective `sense expr`. A model without an objective is a pure
    /// feasibility problem (objective `0`).
    pub fn set_objective(&mut self, sense: Sense, expr: impl Into<LinExpr>) {
        let e = expr.into().compact();
        self.objective = e.terms().iter().map(|&(v, c)| (v.index(), c)).collect();
        self.obj_constant = e.constant();
        self.sense = Some(sense);
    }

    /// Solves with default options.
    ///
    /// # Errors
    ///
    /// See [`SolveError`]; notably [`SolveError::Infeasible`] and
    /// [`SolveError::Unbounded`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves with explicit options (engine, limits, stop signal).
    ///
    /// # Errors
    ///
    /// See [`SolveError`].
    pub fn solve_with(&self, opts: &SolveOptions) -> Result<Solution, SolveError> {
        self.validate()?;
        if self.num_integers() == 0 {
            simplex::solve_lp(self, opts)
        } else {
            branch_bound::solve_milp(self, opts)
        }
    }

    /// Checks `reported` as a `sense`-directional bound on this model's
    /// optimum against the multipliers of a [`crate::DualCertificate`]
    /// (`row_duals`, in the engines' internal minimize orientation), in
    /// exact arithmetic through `itne_certcheck::verify_bound`. For
    /// [`Sense::Maximize`] a `Valid` verdict proves `reported ≥ max`, for
    /// [`Sense::Minimize`] it proves `reported ≤ min`, over the model's
    /// current rows, variable bounds and objective. Multipliers outside the
    /// dual cone are clamped to zero, so even adversarial duals can only
    /// make the check fail, never pass wrongly.
    ///
    /// The sense is an argument, not the model's own: a sweep that solved
    /// both directions of one objective checks its minimum after the
    /// maximization installed its sense.
    pub fn check_bound(&self, sense: Sense, row_duals: &[f64], reported: f64) -> Verdict {
        let bounds: Vec<(f64, f64)> = self.cols.iter().map(|c| (c.lo, c.hi)).collect();
        itne_certcheck::verify_bound(
            self.cols.len(),
            &self.row_view(),
            &bounds,
            &self.objective,
            self.obj_constant,
            sense == Sense::Maximize,
            row_duals,
            reported,
        )
    }

    /// The exact checker's view of the constraint rows: the one place a
    /// [`Cmp`] becomes a `RowCmp`. Branch-and-bound builds it once per tree
    /// for its Farkas checks.
    pub(crate) fn row_view(&self) -> Vec<RowRef<'_>> {
        self.rows
            .iter()
            .map(|row| RowRef {
                terms: &row.terms,
                cmp: match row.cmp {
                    Cmp::Le => RowCmp::Le,
                    Cmp::Ge => RowCmp::Ge,
                    Cmp::Eq => RowCmp::Eq,
                },
                rhs: row.rhs,
            })
            .collect()
    }

    pub(crate) fn validate(&self) -> Result<(), SolveError> {
        for (i, c) in self.cols.iter().enumerate() {
            if c.lo.is_nan() || c.hi.is_nan() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {i} has NaN bound"
                )));
            }
            if c.lo > c.hi {
                return Err(SolveError::InvalidModel(format!(
                    "variable {i} has lo {} > hi {}",
                    c.lo, c.hi
                )));
            }
        }
        for (i, r) in self.rows.iter().enumerate() {
            if !r.rhs.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "row {i} has non-finite rhs"
                )));
            }
            for &(v, c) in &r.terms {
                if !c.is_finite() {
                    return Err(SolveError::InvalidModel(format!(
                        "row {i} has non-finite coefficient on variable {v}"
                    )));
                }
            }
        }
        for &(_, c) in &self.objective {
            if !c.is_finite() {
                return Err(SolveError::InvalidModel(
                    "non-finite objective coefficient".into(),
                ));
            }
        }
        Ok(())
    }

    /// Maximum absolute violation of rows and bounds at `values`.
    pub fn violation(&self, values: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for r in &self.rows {
            let lhs: f64 = r.terms.iter().map(|&(v, c)| c * values[v]).sum();
            let viol = match r.cmp {
                Cmp::Le => (lhs - r.rhs).max(0.0),
                Cmp::Ge => (r.rhs - lhs).max(0.0),
                Cmp::Eq => (lhs - r.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        for (c, &x) in self.cols.iter().zip(values) {
            worst = worst.max(c.lo - x).max(x - c.hi);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Model, VarId, VarId) {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        (m, x, y)
    }

    #[test]
    fn update_rhs_changes_only_the_rhs() {
        let (mut m, _, _) = toy();
        let before = m.rows[0].terms.clone();
        m.update_rhs(0, 8.0);
        assert_eq!(m.rows[0].rhs, 8.0);
        assert_eq!(m.rows[0].terms, before);
        assert_eq!(m.rows[0].cmp, Cmp::Le);
    }

    #[test]
    fn reparam_row_matching_pattern_matches_fresh_build() {
        let (mut reused, x, y) = toy();
        // New coefficients over the same support, plus a constant that must
        // move to the rhs exactly as add_constraint would move it.
        let mut buf: LinExpr = 1.5 * x + 0.5 * y + 2.0;
        assert!(reused.reparam_row_buf(0, &mut buf, Cmp::Le, 7.0));

        let mut fresh = Model::new();
        let fx = fresh.add_var(0.0, 10.0);
        let fy = fresh.add_var(0.0, 10.0);
        fresh.add_constraint(1.5 * fx + 0.5 * fy + 2.0, Cmp::Le, 7.0);
        assert_eq!(reused.rows[0].terms, fresh.rows[0].terms);
        assert_eq!(reused.rows[0].rhs, fresh.rows[0].rhs);

        let a = reused.solve().expect("feasible");
        // Same model built cold from scratch must agree bit-for-bit.
        let mut cold = Model::new();
        let cx = cold.add_var(0.0, 10.0);
        let cy = cold.add_var(0.0, 10.0);
        cold.add_constraint(1.5 * cx + 0.5 * cy + 2.0, Cmp::Le, 7.0);
        cold.add_constraint(2.0 * cx + cy, Cmp::Le, 9.0);
        cold.set_objective(Sense::Maximize, 3.0 * cx + 2.0 * cy);
        let b = cold.solve().expect("feasible");
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }

    #[test]
    fn reparam_row_rejects_structural_mismatch() {
        let (mut m, x, y) = toy();
        let rhs_before = m.rows[0].rhs;
        // Different operator.
        let mut buf: LinExpr = 1.0 * x + 1.0 * y;
        assert!(!m.reparam_row_buf(0, &mut buf, Cmp::Ge, 6.0));
        // Different support (x only).
        let mut buf: LinExpr = 1.0 * x;
        assert!(!m.reparam_row_buf(0, &mut buf, Cmp::Le, 6.0));
        // Out-of-range row.
        let mut buf: LinExpr = 1.0 * x + 1.0 * y;
        assert!(!m.reparam_row_buf(99, &mut buf, Cmp::Le, 6.0));
        assert_eq!(m.rows[0].rhs, rhs_before);
    }

    #[test]
    fn reparam_var_checks_type_and_range() {
        let (mut m, x, _) = toy();
        assert_eq!(m.reparam_var(0, -1.0, 2.0, VarType::Continuous), Some(x));
        assert_eq!(m.bounds(x), (-1.0, 2.0));
        assert_eq!(m.reparam_var(0, 0.0, 1.0, VarType::Integer), None);
        assert_eq!(m.reparam_var(7, 0.0, 1.0, VarType::Continuous), None);
    }
}
