//! Two-phase primal simplex with bounded variables on a dense tableau — the
//! reference engine — plus the entry point that dispatches a cold solve to
//! the engine selected by [`SolveOptions::engine`] (the sparse revised
//! simplex in [`crate::sparse`] by default; this dense engine via
//! [`Engine::Dense`], kept for differential testing and as a numerical
//! second opinion). The dense engine keeps no state between solves: every
//! solve builds its tableau from the model and runs both phases from the
//! slack basis, so it never starts from a basis the sparse engine produced.
//!
//! Box bounds are handled natively: non-basic variables rest at their lower or
//! upper bound and the ratio test allows bound-to-bound flips, so bounds never
//! become explicit rows. Phase 1 introduces artificial variables only for rows
//! whose slack value would violate the slack's own bounds, and minimizes the
//! total artificial mass; phase 2 optimizes the real objective.
//!
//! Anti-cycling: Dantzig pricing switches to Bland's rule after a run of
//! degenerate steps and switches back on progress.

use crate::error::SolveError;
use crate::model::{Cmp, Model, Sense};
use crate::options::{Engine, SolveOptions, FEAS_TOL, OPT_TOL, PIVOT_TOL};
use crate::sparse;
use crate::{DualCertificate, Solution, Stats, Status};

const INF: f64 = f64::INFINITY;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ColState {
    Basic,
    AtLower,
    AtUpper,
    /// Non-basic free variable resting at value 0.
    Free,
}

/// A reusable snapshot of a simplex basis: which column occupies each row
/// plus the resting state of every structural and slack column.
///
/// Stored by [`crate::BatchSolver::solve_slot`] after every successful LP
/// solve on [`Engine::Lu`] and re-injected as the *starting* basis of a
/// later solve over the **same** constraint skeleton — typically in a later
/// sweep, after the right-hand sides or bounds moved. Restoring skips phase
/// 1 entirely: the basis is refactorized against the original matrix,
/// repaired by the dual simplex if the moved data left it infeasible, and
/// phase 2 reoptimizes from there. A snapshot is only meaningful for the
/// model shape that produced it; restoring it elsewhere is detected
/// (shape/feasibility checks) and rejected, at which point callers fall
/// back to a cold solve. [`Engine::Dense`] neither writes nor reads
/// snapshots.
#[derive(Clone, Debug)]
pub struct Basis {
    /// Per-column resting state for the `n + m` structural + slack columns.
    pub(crate) state: Vec<ColState>,
    /// Basic column of each row.
    pub(crate) rows: Vec<usize>,
    /// Structural column count of the originating model.
    pub(crate) n: usize,
    /// Row count of the originating model.
    pub(crate) m: usize,
}

impl Basis {
    /// An empty snapshot buffer for [`crate::sparse`]'s snapshot-into
    /// paths to fill.
    pub(crate) fn empty() -> Self {
        Basis {
            state: Vec::new(),
            rows: Vec::new(),
            n: 0,
            m: 0,
        }
    }
}

struct Tableau {
    /// Row-major dense tableau, `rows × ncols`; starts as `[A | I_slack | I_art]`
    /// and is kept equal to `B⁻¹·[A | I | I]` by pivoting.
    tab: Vec<f64>,
    /// Reduced costs for the current phase, length `ncols`.
    dj: Vec<f64>,
    /// Current value of every column (basic and non-basic).
    xval: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    state: Vec<ColState>,
    /// Column occupying each basis row.
    basis: Vec<usize>,
    nrows: usize,
    ncols: usize,
    /// First artificial column index (== n_struct + nrows).
    art_start: usize,
    pivots: u64,
}

enum StepOutcome {
    Optimal,
    Unbounded,
    Progress { degenerate: bool },
}

impl Tableau {
    fn entry(&self, r: usize, c: usize) -> f64 {
        self.tab[r * self.ncols + c]
    }

    /// Chooses an entering column, returning `(col, direction)`.
    fn price(&self, bland: bool, phase2: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, |dj|)
        let limit = if phase2 { self.art_start } else { self.ncols };
        for j in 0..limit {
            let (dir, score) = match self.state[j] {
                ColState::Basic => continue,
                ColState::AtLower => {
                    if self.lo[j] == self.hi[j] {
                        continue; // fixed
                    }
                    (1.0, -self.dj[j])
                }
                ColState::AtUpper => {
                    if self.lo[j] == self.hi[j] {
                        continue; // fixed
                    }
                    (-1.0, self.dj[j])
                }
                ColState::Free => {
                    if self.dj[j] < 0.0 {
                        (1.0, -self.dj[j])
                    } else {
                        (-1.0, self.dj[j])
                    }
                }
            };
            if score <= OPT_TOL {
                continue;
            }
            if bland {
                return Some((j, dir));
            }
            match best {
                Some((_, _, s)) if s >= score => {}
                _ => best = Some((j, dir, score)),
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// One simplex iteration: price, ratio test, then bound-flip or pivot.
    fn step(&mut self, bland: bool, phase2: bool) -> StepOutcome {
        let Some((q, dir)) = self.price(bland, phase2) else {
            return StepOutcome::Optimal;
        };

        // Ratio test. `limit` starts at the entering variable's own range
        // (bound-to-bound flip) and shrinks as basic variables hit bounds.
        let mut limit = if self.lo[q].is_finite() && self.hi[q].is_finite() {
            self.hi[q] - self.lo[q]
        } else {
            INF
        };
        let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_lower)
        let mut leave_piv = 0.0f64;
        for r in 0..self.nrows {
            let a = self.entry(r, q) * dir;
            let b = self.basis[r];
            let (room, to_lower) = if a > PIVOT_TOL {
                (self.xval[b] - self.lo[b], true)
            } else if a < -PIVOT_TOL {
                (self.hi[b] - self.xval[b], false)
            } else {
                continue;
            };
            if !room.is_finite() {
                continue;
            }
            let ratio = room.max(0.0) / a.abs();
            let a_mag = a.abs();
            // Tight tie-breaking prefers the largest pivot magnitude for
            // numerical stability.
            if ratio < limit - 1e-12 || (ratio < limit + 1e-12 && a_mag > leave_piv) {
                limit = ratio.min(limit);
                leave = Some((r, to_lower));
                leave_piv = a_mag;
            }
        }

        if limit.is_infinite() {
            return StepOutcome::Unbounded;
        }

        let step = dir * limit;
        match leave {
            None => {
                // Bound-to-bound flip: no basis change.
                for r in 0..self.nrows {
                    let a = self.entry(r, q);
                    if a != 0.0 {
                        let b = self.basis[r];
                        self.xval[b] -= step * a;
                    }
                }
                self.state[q] = if dir > 0.0 {
                    ColState::AtUpper
                } else {
                    ColState::AtLower
                };
                self.xval[q] = if dir > 0.0 { self.hi[q] } else { self.lo[q] };
                StepOutcome::Progress { degenerate: false }
            }
            Some((r, to_lower)) => {
                for i in 0..self.nrows {
                    let a = self.entry(i, q);
                    if a != 0.0 {
                        let b = self.basis[i];
                        self.xval[b] -= step * a;
                    }
                }
                self.xval[q] += step;
                let leaving = self.basis[r];
                // Snap the leaving variable exactly to its bound to stop
                // feasibility drift from accumulating.
                self.xval[leaving] = if to_lower {
                    self.lo[leaving]
                } else {
                    self.hi[leaving]
                };
                self.state[leaving] = if to_lower {
                    ColState::AtLower
                } else {
                    ColState::AtUpper
                };
                self.pivot(r, q);
                self.state[q] = ColState::Basic;
                self.basis[r] = q;
                StepOutcome::Progress {
                    degenerate: limit <= 1e-10,
                }
            }
        }
    }

    /// Gaussian elimination step making column `q` the unit vector for row `r`.
    fn pivot(&mut self, r: usize, q: usize) {
        self.pivots += 1;
        let ncols = self.ncols;
        let piv = self.tab[r * ncols + q];
        debug_assert!(piv.abs() > 0.0, "zero pivot");
        let inv = 1.0 / piv;
        let row_start = r * ncols;
        for j in 0..ncols {
            self.tab[row_start + j] *= inv;
        }
        self.tab[row_start + q] = 1.0; // exact unit entry

        // Copy the normalized pivot row so we can stream through the others.
        let prow: Vec<f64> = self.tab[row_start..row_start + ncols].to_vec();
        for i in 0..self.nrows {
            if i == r {
                continue;
            }
            let f = self.tab[i * ncols + q];
            if f != 0.0 {
                let base = i * ncols;
                for (t, &p) in self.tab[base..base + ncols].iter_mut().zip(&prow) {
                    *t -= f * p;
                }
                self.tab[base + q] = 0.0;
            }
        }
        let f = self.dj[q];
        if f != 0.0 {
            for (d, &p) in self.dj.iter_mut().zip(&prow) {
                *d -= f * p;
            }
            self.dj[q] = 0.0;
        }
    }

    /// Runs the simplex loop for one phase until optimality.
    fn optimize(&mut self, phase2: bool, cap: u64) -> Result<(), SolveError> {
        let mut degen_streak = 0u32;
        let mut bland = false;
        loop {
            if self.pivots >= cap {
                return Err(SolveError::IterationLimit);
            }
            match self.step(bland, phase2) {
                StepOutcome::Optimal => return Ok(()),
                StepOutcome::Unbounded => {
                    return if phase2 {
                        Err(SolveError::Unbounded)
                    } else {
                        // Phase 1 minimizes a sum of non-negative variables,
                        // which is bounded below; unboundedness is numerical.
                        Err(SolveError::Numerical("phase-1 objective unbounded".into()))
                    };
                }
                StepOutcome::Progress { degenerate } => {
                    if degenerate {
                        degen_streak += 1;
                        if degen_streak > 50 {
                            bland = true;
                        }
                    } else {
                        degen_streak = 0;
                        bland = false;
                    }
                }
            }
        }
    }

    /// Reads the dual certificate off the maintained reduced-cost row of a
    /// phase-2-terminated tableau. Each slack column `n + r` is a unit vector
    /// with zero cost, so its reduced cost is `−y_r` directly; this holds even
    /// for rows the cold setup negated for artificial bookkeeping, because the
    /// negation flips the slack coefficient and the dual price together.
    fn certificate(&self, n_struct: usize) -> DualCertificate {
        let row_duals = (0..self.nrows).map(|r| -self.dj[n_struct + r]).collect();
        DualCertificate {
            row_duals,
            reduced_costs: self.dj[..n_struct].to_vec(),
        }
    }

    /// Rebuilds reduced costs `dj = c − c_B·B⁻¹·A` from scratch.
    fn rebuild_dj(&mut self, costs: &[f64]) {
        self.dj.copy_from_slice(costs);
        for r in 0..self.nrows {
            let cb = costs[self.basis[r]];
            if cb != 0.0 {
                let base = r * self.ncols;
                for j in 0..self.ncols {
                    self.dj[j] -= cb * self.tab[base + j];
                }
            }
        }
        // Basic columns have zero reduced cost by construction; zero them to
        // remove round-off noise.
        for r in 0..self.nrows {
            self.dj[self.basis[r]] = 0.0;
        }
    }
}

/// Slack bounds implied by a row's comparison operator.
pub(crate) fn slack_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, INF),
        Cmp::Ge => (-INF, 0.0),
        Cmp::Eq => (0.0, 0.0),
    }
}

/// Initial resting value for a non-basic column.
pub(crate) fn initial_value(lo: f64, hi: f64) -> (f64, ColState) {
    if lo.is_finite() && hi.is_finite() {
        if lo.abs() <= hi.abs() {
            (lo, ColState::AtLower)
        } else {
            (hi, ColState::AtUpper)
        }
    } else if lo.is_finite() {
        (lo, ColState::AtLower)
    } else if hi.is_finite() {
        (hi, ColState::AtUpper)
    } else {
        (0.0, ColState::Free)
    }
}

/// Solves a continuous model cold with the engine selected by
/// [`SolveOptions::engine`].
pub(crate) fn solve_lp(model: &Model, opts: &SolveOptions) -> Result<Solution, SolveError> {
    let bounds: Vec<(f64, f64)> = model.cols.iter().map(|c| (c.lo, c.hi)).collect();
    match opts.engine {
        Engine::Lu => sparse::solve_bounded(model, &bounds, opts),
        Engine::Dense => solve_dense_counted(model, &bounds, opts, &mut 0),
    }
}

/// The dense engine's cold two-phase solve under per-variable bound
/// overrides (branch-and-bound nodes pass theirs, so they don't clone the
/// constraint matrix). `spent` accumulates the pivots it took — on failure
/// too, so branch-and-bound counts the work of its infeasible nodes.
pub(crate) fn solve_dense_counted(
    model: &Model,
    var_bounds: &[(f64, f64)],
    opts: &SolveOptions,
    spent: &mut u64,
) -> Result<Solution, SolveError> {
    let n = model.cols.len();
    let m = model.rows.len();
    debug_assert_eq!(var_bounds.len(), n);

    for &(lo, hi) in var_bounds {
        if lo > hi {
            return Err(SolveError::Infeasible);
        }
    }

    // Trivial case: no constraints — each variable goes to its best bound.
    if m == 0 {
        return solve_unconstrained(model, var_bounds);
    }

    // Internal costs are always "minimize".
    let flip = matches!(model.sense, Some(Sense::Maximize));
    let mut struct_cost = vec![0.0f64; n];
    for &(v, c) in &model.objective {
        struct_cost[v] += if flip { -c } else { c };
    }

    // --- Set up columns: structural, slack, artificial. ---
    let mut lo = Vec::with_capacity(n + 2 * m);
    let mut hi = Vec::with_capacity(n + 2 * m);
    let mut xval = Vec::with_capacity(n + 2 * m);
    let mut state = Vec::with_capacity(n + 2 * m);
    for &(l, h) in var_bounds {
        let (v, s) = initial_value(l, h);
        lo.push(l);
        hi.push(h);
        xval.push(v);
        state.push(s);
    }
    for row in &model.rows {
        let (l, h) = slack_bounds(row.cmp);
        lo.push(l);
        hi.push(h);
        xval.push(0.0); // placeholder; set below
        state.push(ColState::AtLower); // placeholder
    }

    // Row activity at the initial non-basic point decides whether the slack
    // can be basic or an artificial is needed.
    let mut basis = Vec::with_capacity(m);
    let mut art_cols: Vec<(usize, f64)> = Vec::new(); // (row, sign)
    for (r, row) in model.rows.iter().enumerate() {
        let activity: f64 = row.terms.iter().map(|&(v, c)| c * xval[v]).sum();
        let v = row.rhs - activity; // required slack value
        let sc = n + r;
        if v >= lo[sc] && v <= hi[sc] {
            xval[sc] = v;
            state[sc] = ColState::Basic;
            basis.push(sc);
        } else {
            let sv = v.clamp(lo[sc], hi[sc]);
            xval[sc] = sv;
            state[sc] = if sv == lo[sc] {
                ColState::AtLower
            } else {
                ColState::AtUpper
            };
            let resid = v - sv;
            art_cols.push((r, resid.signum()));
            basis.push(usize::MAX); // fixed up below
        }
    }

    let art_start = n + m;
    let ncols = art_start + art_cols.len();
    let mut tab = vec![0.0f64; m * ncols];
    for (r, row) in model.rows.iter().enumerate() {
        let base = r * ncols;
        for &(v, c) in &row.terms {
            tab[base + v] = c;
        }
        tab[base + n + r] = 1.0;
    }
    let mut art_sum = 0.0;
    for (k, &(r, sign)) in art_cols.iter().enumerate() {
        let col = art_start + k;
        // The artificial must be a +1 unit column so the starting basis is the
        // identity; when the residual is negative, negate the whole row
        // instead of giving the artificial a -1 coefficient.
        if sign < 0.0 {
            for e in &mut tab[r * ncols..(r + 1) * ncols] {
                *e = -*e;
            }
        }
        tab[r * ncols + col] = 1.0;
        let activity: f64 = model.rows[r].terms.iter().map(|&(v, c)| c * xval[v]).sum();
        let resid = model.rows[r].rhs - activity - xval[n + r];
        lo.push(0.0);
        hi.push(INF);
        xval.push(resid.abs());
        state.push(ColState::Basic);
        basis[r] = col;
        art_sum += resid.abs();
    }

    let mut t = Tableau {
        tab,
        dj: vec![0.0; ncols],
        xval,
        lo,
        hi,
        state,
        basis,
        nrows: m,
        ncols,
        art_start,
        pivots: 0,
    };
    let cap = opts.pivot_cap(m, ncols);

    let run = |t: &mut Tableau| -> Result<Solution, SolveError> {
        // --- Phase 1: minimize artificial mass. ---
        if art_sum > 0.0 {
            let mut costs = vec![0.0f64; ncols];
            for c in costs.iter_mut().skip(art_start) {
                *c = 1.0;
            }
            t.rebuild_dj(&costs);
            t.optimize(false, cap)?;
            let remaining: f64 = (art_start..ncols).map(|j| t.xval[j]).sum();
            if remaining > FEAS_TOL {
                return Err(SolveError::Infeasible);
            }
            drive_out_artificials(t);
        }
        // Freeze artificials so phase 2 cannot reuse them.
        for j in art_start..ncols {
            t.lo[j] = 0.0;
            t.hi[j] = 0.0;
            t.xval[j] = 0.0;
        }

        // --- Phase 2: real objective. ---
        let mut costs = vec![0.0f64; ncols];
        costs[..n].copy_from_slice(&struct_cost);
        t.rebuild_dj(&costs);
        t.optimize(true, cap)?;

        finish(model, var_bounds, t, opts.emit_certificates)
    };
    let sol = run(&mut t);
    *spent += t.pivots;
    sol
}

/// Reads the optimal point out of a terminated tableau, checking residuals.
fn finish(
    model: &Model,
    var_bounds: &[(f64, f64)],
    t: &Tableau,
    emit: bool,
) -> Result<Solution, SolveError> {
    let n = model.cols.len();
    let certificate = emit.then(|| t.certificate(n));
    finish_values(
        model,
        var_bounds,
        t.xval[..n].to_vec(),
        EngineCounters {
            pivots: t.pivots,
            ..EngineCounters::default()
        },
        certificate,
    )
}

/// The per-engine work counters a terminated solve reports into [`Stats`].
/// The dense engine only has pivots; the sparse engine fills the rest
/// (timing counters only when a [`crate::TelemetryClock`] was injected).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct EngineCounters {
    pub(crate) pivots: u64,
    pub(crate) refactorizations: u64,
    pub(crate) eta_len: u64,
    pub(crate) refactor_time_ns: u64,
    pub(crate) ftran_btran_time_ns: u64,
    pub(crate) lu_fill_nnz: u64,
}

impl EngineCounters {
    /// Accumulates another solve's counters: work sums, peaks take the max.
    pub(crate) fn absorb(&mut self, other: EngineCounters) {
        self.pivots += other.pivots;
        self.refactorizations += other.refactorizations;
        self.eta_len = self.eta_len.max(other.eta_len);
        self.refactor_time_ns = self.refactor_time_ns.saturating_add(other.refactor_time_ns);
        self.ftran_btran_time_ns = self
            .ftran_btran_time_ns
            .saturating_add(other.ftran_btran_time_ns);
        self.lu_fill_nnz = self.lu_fill_nnz.max(other.lu_fill_nnz);
    }
}

/// Builds a checked [`Solution`] from a terminated engine's structural
/// values — shared by the dense and sparse engines so the residual gate and
/// the stats layout stay identical.
pub(crate) fn finish_values(
    model: &Model,
    var_bounds: &[(f64, f64)],
    values: Vec<f64>,
    counters: EngineCounters,
    certificate: Option<DualCertificate>,
) -> Result<Solution, SolveError> {
    let mut objective = model.obj_constant;
    for &(v, c) in &model.objective {
        objective += c * values[v];
    }
    let max_residual = residual(model, var_bounds, &values);
    if max_residual > 1e-5 {
        return Err(SolveError::Numerical(format!(
            "solution residual {max_residual:.3e} exceeds 1e-5"
        )));
    }
    Ok(Solution {
        objective,
        status: Status::Optimal,
        stats: Stats {
            pivots: counters.pivots,
            nodes: 0,
            best_bound: objective,
            max_residual,
            nnz: model.rows.iter().map(|r| r.terms.len() as u64).sum(),
            refactorizations: counters.refactorizations,
            eta_len: counters.eta_len,
            refactor_time_ns: counters.refactor_time_ns,
            ftran_btran_time_ns: counters.ftran_btran_time_ns,
            lu_fill_nnz: counters.lu_fill_nnz,
            ..Stats::default()
        },
        values,
        certificate,
    })
}

/// Pivots basic artificial variables (all at value 0) out of the basis; rows
/// that admit no replacement column are redundant and keep their frozen
/// artificial.
fn drive_out_artificials(t: &mut Tableau) {
    for r in 0..t.nrows {
        if t.basis[r] < t.art_start {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for j in 0..t.art_start {
            if t.state[j] == ColState::Basic || t.lo[j] == t.hi[j] {
                continue;
            }
            let a = t.entry(r, j).abs();
            if a > PIVOT_TOL && best.is_none_or(|(_, b)| a > b) {
                best = Some((j, a));
            }
        }
        if let Some((j, _)) = best {
            let leaving = t.basis[r];
            t.pivot(r, j);
            t.state[leaving] = ColState::AtLower;
            t.xval[leaving] = 0.0;
            t.state[j] = ColState::Basic;
            t.basis[r] = j;
        }
    }
}

pub(crate) fn solve_unconstrained(
    model: &Model,
    var_bounds: &[(f64, f64)],
) -> Result<Solution, SolveError> {
    let flip = matches!(model.sense, Some(Sense::Maximize));
    let n = model.cols.len();
    let mut cost = vec![0.0f64; n];
    for &(v, c) in &model.objective {
        cost[v] += if flip { -c } else { c };
    }
    let mut values = vec![0.0f64; n];
    for (j, &(l, h)) in var_bounds.iter().enumerate() {
        let c = cost[j];
        values[j] = if c > 0.0 {
            if l.is_finite() {
                l
            } else {
                return Err(SolveError::Unbounded);
            }
        } else if c < 0.0 {
            if h.is_finite() {
                h
            } else {
                return Err(SolveError::Unbounded);
            }
        } else {
            initial_value(l, h).0
        };
    }
    let mut objective = model.obj_constant;
    for &(v, c) in &model.objective {
        objective += c * values[v];
    }
    // With no rows the dual vector is empty and the reduced costs are the
    // internal costs themselves; the certificate is trivially checkable
    // (bound terms alone) and free to emit, so it is always attached.
    let certificate = Some(DualCertificate {
        row_duals: Vec::new(),
        reduced_costs: cost,
    });
    Ok(Solution {
        objective,
        status: Status::Optimal,
        stats: Stats {
            best_bound: objective,
            ..Stats::default()
        },
        values,
        certificate,
    })
}

fn residual(model: &Model, var_bounds: &[(f64, f64)], values: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for row in &model.rows {
        let lhs: f64 = row.terms.iter().map(|&(v, c)| c * values[v]).sum();
        let viol = match row.cmp {
            Cmp::Le => (lhs - row.rhs).max(0.0),
            Cmp::Ge => (row.rhs - lhs).max(0.0),
            Cmp::Eq => (lhs - row.rhs).abs(),
        };
        worst = worst.max(viol);
    }
    for (&(l, h), &x) in var_bounds.iter().zip(values) {
        worst = worst.max(l - x).max(x - h);
    }
    worst
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, Engine, Model, Sense, Solution, SolveError, SolveOptions};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// These are the dense engine's unit tests: the default engine is now
    /// sparse, so pin the dense path explicitly (the sparse module carries
    /// its own copies plus cross-engine agreement tests).
    fn dense(m: &Model) -> Result<Solution, SolveError> {
        m.solve_with(&SolveOptions {
            engine: Engine::Dense,
            ..Default::default()
        })
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 2y  s.t. x + y ≤ 6, 2x + y ≤ 9, x,y ∈ [0,10] → (3,3), 15.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 6.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 15.0);
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 3.0);
    }

    #[test]
    fn minimization_with_ge_rows() {
        // min 2x + 3y s.t. x + y ≥ 4, x ≥ 1 (as a row), y ∈ [0, 10].
        let mut m = Model::new();
        let x = m.add_var(0.0, 100.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Ge, 4.0);
        m.add_constraint(x, Cmp::Ge, 1.0);
        m.set_objective(Sense::Minimize, 2.0 * x + 3.0 * y);
        let s = dense(&m).unwrap();
        // Cheapest: x as large as needed: x=4, y=0 → 8.
        assert_close(s.objective, 8.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 3, x - y = 0 → x = y = 1, obj 2.
        let mut m = Model::new();
        let x = m.add_var(-10.0, 10.0);
        let y = m.add_var(-10.0, 10.0);
        m.add_constraint(x + 2.0 * y, Cmp::Eq, 3.0);
        m.add_constraint(x - y, Cmp::Eq, 0.0);
        m.set_objective(Sense::Minimize, x + y);
        let s = dense(&m).unwrap();
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(2.0 * x, Cmp::Ge, 3.0);
        assert_eq!(dense(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        let y = m.add_var(0.0, f64::INFINITY);
        m.add_constraint(x - y, Cmp::Le, 1.0);
        m.set_objective(Sense::Maximize, x + y);
        assert_eq!(dense(&m).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_bounds_and_negative_rhs() {
        // min x s.t. x + y ≤ -2, y ∈ [-5, 5], x ∈ [-4, 4] → x = -4 feasible
        // (y ≤ 2). Optimum -4.
        let mut m = Model::new();
        let x = m.add_var(-4.0, 4.0);
        let y = m.add_var(-5.0, 5.0);
        m.add_constraint(x + y, Cmp::Le, -2.0);
        m.set_objective(Sense::Minimize, x);
        let s = dense(&m).unwrap();
        assert_close(s.objective, -4.0);
    }

    #[test]
    fn bound_flip_only_problem() {
        // max x + y with a slack-dominated row; optimum at upper bounds.
        let mut m = Model::new();
        let x = m.add_var(-1.0, 2.0);
        let y = m.add_var(-1.0, 3.0);
        m.add_constraint(x + y, Cmp::Le, 100.0);
        m.set_objective(Sense::Maximize, x + y);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn free_variable_in_equality() {
        // y free, x ∈ [0, 1]: y = 3x - 1, max y → x=1, y=2.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint(y - 3.0 * x, Cmp::Eq, -1.0);
        m.set_objective(Sense::Maximize, 1.0 * y);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn redundant_rows_are_harmless() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0);
        let y = m.add_var(0.0, 5.0);
        m.add_constraint(x + y, Cmp::Eq, 4.0);
        m.add_constraint(2.0 * x + 2.0 * y, Cmp::Eq, 8.0); // same hyperplane
        m.set_objective(Sense::Maximize, 1.0 * x);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn degenerate_vertex_terminates() {
        // Several constraints meet near one vertex; summing the two binding
        // rows shows x + y ≤ 2/3, attained at x = y = 1/3.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 1.0);
        m.add_constraint(x + 2.0 * y, Cmp::Le, 1.0);
        m.add_constraint(2.0 * x + y, Cmp::Le, 1.0);
        m.set_objective(Sense::Maximize, x + y);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 2.0 / 3.0);
    }

    #[test]
    fn objective_constant_is_carried() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(1.0 * x, Cmp::Le, 0.5);
        m.set_objective(Sense::Maximize, 2.0 * x + 10.0);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 11.0);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 2.0);
        let y = m.add_var(0.0, 10.0);
        m.add_constraint(x + y, Cmp::Le, 5.0);
        m.set_objective(Sense::Maximize, x + y);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.value(x), 2.0);
    }

    #[test]
    fn no_constraints_uses_bounds() {
        let mut m = Model::new();
        let x = m.add_var(-3.0, 7.0);
        let y = m.add_var(-2.0, 2.0);
        m.set_objective(Sense::Maximize, x - 5.0 * y);
        let s = dense(&m).unwrap();
        assert_close(s.objective, 7.0 + 10.0);
    }
}
