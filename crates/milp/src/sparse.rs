//! Sparse revised simplex: the default LP engine ([`crate::Engine::Lu`]).
//!
//! Where the dense engine ([`crate::simplex`]) maintains the whole
//! `B⁻¹·[A | I | I]` tableau explicitly — making every pivot O(m·n)
//! regardless of how sparse the constraint matrix is — this engine keeps the
//! problem data immutable and factorized:
//!
//! * the constraint rows are compiled **once** per model into a [`Skeleton`]:
//!   the structural columns of `A` in compressed-sparse-column form plus the
//!   per-row slack bounds, shared (`Arc`) across branch-and-bound nodes and
//!   resident sweeps. The skeleton also performs **range-row folding**: an
//!   adjacent `≤`/`≥` pair over identical terms (the `[A | I]` box
//!   constraints of the ITNE encoding) becomes one row whose slack carries
//!   *both* bounds, halving the working basis for those rows instead of
//!   spending a basis column on each side;
//! * `B⁻¹` is never formed. It is a **sparse LU factorization** of the basis
//!   ([`crate::lu`]: static Markowitz ordering, threshold partial pivoting),
//!   left unchanged between refactorizations, plus a product-form **eta
//!   file** on top of it that takes one eta per pivot. A fresh solve starts
//!   from the trivial `diag(±1)` slack basis, whose FTRAN and BTRAN are pure
//!   sign flips — so the certifier's tens of thousands of short solves never
//!   pay for a factorization at all. Systems with `B` are solved by running a
//!   vector through the representation — FTRAN for `w = B⁻¹·a` (the entering
//!   column of the ratio test), BTRAN for `y = c_B·B⁻¹` (the dual prices
//!   behind reduced costs);
//! * pricing is **candidate-list partial pricing** with the
//!   largest-reduced-cost Dantzig rank, the cheapest per pivot, which wins
//!   on the short-run-dominated workload. A full O(ncols) scan runs only to
//!   (re)fill the candidate list; ordinary iterations re-price just the
//!   candidates. Bland's anti-cycling rule falls back to a full
//!   first-eligible scan, exactly like the dense engine;
//! * the factorization is **refreshed on measured fill growth**: only when
//!   the eta file's accumulated fill outgrows twice the factors' own
//!   non-zeros (with a floor that lets short solves finish entirely on the
//!   trivial basis plus etas), not on a fixed small pivot cadence.
//!   Refactorization also recomputes the basic values from the original
//!   data, resetting accumulated round-off.
//!
//! Per-iteration cost is therefore one BTRAN + a handful of sparse dot
//! products + one FTRAN + O(m) value updates, instead of an O(m·ncols) dense
//! tableau sweep.
//!
//! Semantics (two-phase method, bounded variables, bound flips, tolerances,
//! ratio-test tie-breaking, pricing→Bland switching) deliberately mirror the
//! dense engine; the proptests run every random skeleton through both
//! engines and assert identical snapped optima.

use std::sync::Arc;

use crate::error::SolveError;
use crate::kernel;
use crate::lu::LuFactors;
use crate::model::{Cmp, Model, Sense};
use crate::options::{SolveOptions, TelemetryClock, FEAS_TOL, OPT_TOL, PIVOT_TOL};
use crate::simplex::{
    finish_values, initial_value, slack_bounds, solve_unconstrained, Basis, ColState,
    EngineCounters,
};
use crate::{DualCertificate, Solution};

const INF: f64 = f64::INFINITY;

/// Immutable compressed-sparse-column storage of the structural constraint
/// matrix `A` (m rows × n structural columns). Built once per [`Skeleton`];
/// slack and artificial columns are implicit unit vectors and never stored.
#[derive(Clone, Debug)]
pub(crate) struct SparseMatrix {
    nrows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds the CSC form of the given term rows. Entries within a column
    /// are ordered by row index; exact zeros are dropped.
    pub(crate) fn from_rows(n: usize, rows: &[&[(usize, f64)]]) -> Self {
        let m = rows.len();
        let mut col_ptr = vec![0usize; n + 1];
        for row in rows {
            for &(v, c) in *row {
                if c != 0.0 {
                    col_ptr[v + 1] += 1;
                }
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = col_ptr.clone();
        for (r, row) in rows.iter().enumerate() {
            for &(v, c) in *row {
                if c != 0.0 {
                    let k = cursor[v];
                    row_idx[k] = r;
                    values[k] = c;
                    cursor[v] += 1;
                }
            }
        }
        SparseMatrix {
            nrows: m,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// CSC form of `model`'s constraint rows, one internal row per model row.
    #[cfg(test)]
    pub(crate) fn from_model(model: &Model) -> Self {
        let rows: Vec<&[(usize, f64)]> = model.rows.iter().map(|r| r.terms.as_slice()).collect();
        Self::from_rows(model.cols.len(), &rows)
    }

    fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Column `j` as parallel `(row indices, values)` slices — the shape the
    /// chunked pricing kernel consumes directly.
    fn col_slices(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Structural non-zero count.
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// Where an internal row came from in the model.
#[derive(Copy, Clone, Debug)]
enum RowOrigin {
    /// Internal row `k` is model row `i`, slack bounds from its comparator.
    Single(usize),
    /// Internal row `k` folds the adjacent model pair `a·x ≤ rhs_le` (row
    /// `le`) and `a·x ≥ rhs_ge` (row `ge`) over *identical* terms into one
    /// row `a·x + s = rhs_le` with `s ∈ [0, rhs_le − rhs_ge]` — a range row
    /// whose slack carries both sides as variable bounds.
    Range { le: usize, ge: usize },
}

/// The compiled constraint skeleton one sparse solve (or a whole
/// branch-and-bound tree / resident sweep over one model) works against:
/// the CSC matrix of internal rows, their right-hand sides and slack bounds,
/// and the mapping back to model rows for dual expansion.
///
/// Folding is purely an internal reformulation: primal
/// values, objective, and the *expanded* duals are exactly what the unfolded
/// problem produces, which is what keeps the certcheck contract intact.
pub(crate) struct Skeleton {
    mat: SparseMatrix,
    rhs: Vec<f64>,
    slack_lo: Vec<f64>,
    slack_hi: Vec<f64>,
    origin: Vec<RowOrigin>,
    m_model: usize,
}

impl Skeleton {
    /// Compiles `model`'s rows. Adjacent `≤`/`≥` pairs over identical terms
    /// with `rhs_le ≥ rhs_ge` become range rows; a *crossed* pair
    /// (`rhs_le < rhs_ge`, trivially infeasible) is left unfolded so phase 1
    /// reports infeasibility exactly like the dense engine.
    pub(crate) fn build(model: &Model) -> Self {
        let m_model = model.rows.len();
        let mut origin = Vec::with_capacity(m_model);
        let mut rhs = Vec::with_capacity(m_model);
        let mut slack_lo = Vec::with_capacity(m_model);
        let mut slack_hi = Vec::with_capacity(m_model);
        let mut rep_rows: Vec<&[(usize, f64)]> = Vec::with_capacity(m_model);
        let mut r = 0;
        while r < m_model {
            if r + 1 < m_model {
                let pair = match (model.rows[r].cmp, model.rows[r + 1].cmp) {
                    (Cmp::Le, Cmp::Ge) => Some((r, r + 1)),
                    (Cmp::Ge, Cmp::Le) => Some((r + 1, r)),
                    _ => None,
                };
                if let Some((le, ge)) = pair {
                    let (lrow, grow) = (&model.rows[le], &model.rows[ge]);
                    if lrow.terms == grow.terms && lrow.rhs >= grow.rhs {
                        origin.push(RowOrigin::Range { le, ge });
                        rhs.push(lrow.rhs);
                        slack_lo.push(0.0);
                        slack_hi.push(lrow.rhs - grow.rhs);
                        rep_rows.push(&lrow.terms);
                        r += 2;
                        continue;
                    }
                }
            }
            let row = &model.rows[r];
            let (l, h) = slack_bounds(row.cmp);
            origin.push(RowOrigin::Single(r));
            rhs.push(row.rhs);
            slack_lo.push(l);
            slack_hi.push(h);
            rep_rows.push(&row.terms);
            r += 1;
        }
        let mat = SparseMatrix::from_rows(model.cols.len(), &rep_rows);
        Skeleton {
            mat,
            rhs,
            slack_lo,
            slack_hi,
            origin,
            m_model,
        }
    }

    /// Internal row count (`≤` the model's row count when folding fired).
    pub(crate) fn m(&self) -> usize {
        self.origin.len()
    }

    /// The representative model-row terms of internal row `k` (a range row's
    /// two sides have identical terms by construction).
    fn row_terms<'a>(&self, model: &'a Model, k: usize) -> &'a [(usize, f64)] {
        match self.origin[k] {
            RowOrigin::Single(i) => &model.rows[i].terms,
            RowOrigin::Range { le, .. } => &model.rows[le].terms,
        }
    }

    /// Expands internal duals to model row order. A range row's dual lands
    /// on the side it prices: `y ≤ 0` is a `≤`-shadow price (internal slack
    /// at its lower bound), `y > 0` a `≥`-shadow price (slack at its upper
    /// bound, where the bound `rhs_le − (rhs_le − rhs_ge) = rhs_ge` is the
    /// binding one); the partner row gets `0`. Under the checker's
    /// sign-clamping (`≤` rows keep `min(y,0)`, `≥` rows `max(y,0)`) the
    /// expanded vector certifies exactly the internal Lagrangian bound.
    fn expand_duals(&self, y: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.expand_duals_into(y, &mut out);
        out
    }

    /// [`Skeleton::expand_duals`] into a reused buffer.
    fn expand_duals_into(&self, y: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.m_model, 0.0);
        for (k, o) in self.origin.iter().enumerate() {
            match *o {
                RowOrigin::Single(i) => out[i] = y[k],
                RowOrigin::Range { le, ge } => {
                    if y[k] <= 0.0 {
                        out[le] = y[k];
                    } else {
                        out[ge] = y[k];
                    }
                }
            }
        }
    }
}

/// The product-form representation of the basis changes since the last LU
/// refactorization, as a sequence of elementary eta matrices: each pivot
/// appends one eta, and systems are solved by running a vector through the
/// file — forward for FTRAN, backward for BTRAN. Everything is stored in
/// flat contiguous arrays so both passes stream linearly through memory
/// (the engine's innermost loop — one of each per simplex iteration).
#[derive(Clone, Debug)]
struct EtaFile {
    /// Pivot row of each eta.
    rows: Vec<usize>,
    /// Pivot element of each eta.
    pivots: Vec<f64>,
    /// CSR-style extents: eta `k`'s off-pivot entries are `ptr[k]..ptr[k+1]`.
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl EtaFile {
    fn new() -> Self {
        EtaFile {
            rows: Vec::new(),
            pivots: Vec::new(),
            ptr: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.pivots.clear();
        self.ptr.clear();
        self.ptr.push(0);
        self.idx.clear();
        self.val.clear();
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Total stored entries (pivots + off-pivot fill), the fill-in measure
    /// behind the refactorization trigger.
    fn nnz(&self) -> usize {
        self.rows.len() + self.idx.len()
    }

    /// Appends the eta of a pivot at `row` on the FTRAN'd column `w`.
    fn push_from_column(&mut self, row: usize, w: &[f64]) {
        for (i, &v) in w.iter().enumerate() {
            if i != row && v != 0.0 {
                self.idx.push(i);
                self.val.push(v);
            }
        }
        self.rows.push(row);
        self.pivots.push(w[row]);
        self.ptr.push(self.idx.len());
    }

    /// `v ← B⁻¹·v` (apply etas first-to-last). The off-pivot scatter runs
    /// through the chunked kernel — bit-identical to the scalar loop, since
    /// each target row is written exactly once per eta.
    fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.rows.len() {
            let t = v[self.rows[k]];
            if t != 0.0 {
                let t = t / self.pivots[k];
                v[self.rows[k]] = t;
                let (e0, e1) = (self.ptr[k], self.ptr[k + 1]);
                kernel::scatter_sub(v, &self.idx[e0..e1], &self.val[e0..e1], t);
            }
        }
    }

    /// `yᵀ ← yᵀ·B⁻¹` (apply etas last-to-first). The gather reduction uses
    /// the chunked kernel's fixed-order reduction tree (see [`crate::kernel`]).
    fn btran(&self, y: &mut [f64]) {
        for k in (0..self.rows.len()).rev() {
            let (e0, e1) = (self.ptr[k], self.ptr[k + 1]);
            let s = y[self.rows[k]] - kernel::dot_gather(y, &self.idx[e0..e1], &self.val[e0..e1]);
            y[self.rows[k]] = s / self.pivots[k];
        }
    }
}

/// The basis-inverse representation: the LU factors of the basis at the
/// last refactorization, and the eta file of every pivot since, which the
/// next refactorization discards.
struct Inverse {
    lu: LuFactors,
    etas: EtaFile,
}

impl Inverse {
    /// `v ← B⁻¹·v`.
    fn ftran(&self, v: &mut [f64]) {
        self.lu.ftran(v);
        self.etas.ftran(v);
    }

    /// `yᵀ ← yᵀ·B⁻¹`.
    fn btran(&mut self, y: &mut [f64]) {
        self.etas.btran(y);
        self.lu.btran(y);
    }
}

enum StepOutcome {
    Optimal,
    Unbounded,
    Progress { degenerate: bool },
}

/// The bound violation the dual simplex leaves standing, as a fraction of
/// the feasibility tolerance. The primal ratio test keeps a cold solve's
/// basic values inside their bounds up to round-off; a dual simplex that
/// stopped at the full tolerance would leave warm nodes on vertices that
/// much infeasible, whose optima sit measurably above the cold ones (about
/// 1e-9 on the certifier's MILPs) — enough to move a bound snapped to the
/// certifier's 2⁻³⁰ grid by one step.
const DUAL_FEAS_FRACTION: f64 = 0.01;

/// How a [`Core::dual_optimize`] run ended.
enum DualOutcome {
    /// Every basic variable is back within its bounds.
    Feasible,
    /// The dual ratio test found no entering column; `Core::rho` holds the
    /// signed Farkas ray (internal rows).
    Infeasible,
    /// The dual objective reached the [`Cutoff`] and its check proved it.
    CutOff,
    /// Pivot cap, a failed refactorization, or inconsistent pivot numerics.
    Abandoned,
}

/// An objective cutoff for a warm node's dual simplex. The dual objective
/// of a dual feasible basis bounds the node's LP optimum and only rises, so
/// once it reaches `at` the node cannot beat the incumbent — if `proves`
/// agrees.
pub(crate) struct Cutoff<'a> {
    /// The prune threshold on the dual objective `Σⱼ c′ⱼ·xⱼ`, in the dual
    /// simplex's minimization sense with the objective constant folded in.
    pub(crate) at: f64,
    /// The exact check of fresh duals `c_B·B⁻¹`, one per model row: `true`
    /// when they prove the node cannot beat the incumbent.
    pub(crate) proves: &'a mut dyn FnMut(&[f64]) -> bool,
}

/// Work areas of [`Core::refactorize_lu`]: the basis columns in
/// elimination order and in CSC form, the Markowitz row weights, and the
/// factors the last refactorization replaced — the buffer the next one
/// factorizes into.
#[derive(Default)]
struct RefactorBuffers {
    order: Vec<usize>,
    col_ptr: Vec<usize>,
    entries: Vec<(usize, f64)>,
    row_weight: Vec<usize>,
    spare: Option<LuFactors>,
}

/// The revised-simplex working state. Column index space matches the dense
/// engine: `[0, n)` structural, `[n, n+m)` slack, `[n+m, ncols)` artificial
/// (`m` counts *internal* rows — range folding may make it smaller than the
/// model's row count).
struct Core {
    skel: Arc<Skeleton>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    xval: Vec<f64>,
    state: Vec<ColState>,
    /// Column occupying each basis row (`B⁻¹·A_basis[r] = e_r`).
    basis: Vec<usize>,
    inverse: Inverse,
    /// `(row, sign)` of each artificial column, in column order.
    arts: Vec<(usize, f64)>,
    n: usize,
    m: usize,
    art_start: usize,
    ncols: usize,
    /// Costs of the current phase, length `ncols`.
    costs: Vec<f64>,
    /// The columns that carry a phase-2 cost, ascending.
    cost_cols: Vec<usize>,
    /// FTRAN scratch (entering column in basis coordinates), length `m`.
    w: Vec<f64>,
    /// BTRAN scratch (dual prices), length `m`.
    y: Vec<f64>,
    /// Dual-simplex pivot row `e_r·B⁻¹`, length `m`; after an infeasible
    /// dual ratio test it holds the signed Farkas ray.
    rho: Vec<f64>,
    /// One multiplier per model row: the expanded Farkas ray or cutoff
    /// duals the exact checker reads.
    row_mults: Vec<f64>,
    /// Buffers every LU refactorization reuses, so a core that refactorizes
    /// node after node (branch-and-bound restores) stops allocating.
    refac: RefactorBuffers,
    /// Partial-pricing candidate list.
    candidates: Vec<usize>,
    clock: Option<TelemetryClock>,
    pivots: u64,
    refactorizations: u64,
    eta_peak: usize,
    pivots_since_refactor: u64,
    refactor_every: u64,
    eta_nnz_cap: usize,
    refactor_ns: u64,
    solve_ns: u64,
    lu_fill: u64,
}

impl Core {
    /// Scatters column `j` of `[A | I | ±I]` into the zeroed buffer `out`.
    fn scatter_col(mat: &SparseMatrix, arts: &[(usize, f64)], n: usize, j: usize, out: &mut [f64]) {
        let m = mat.nrows;
        if j < n {
            for (r, a) in mat.col(j) {
                out[r] = a;
            }
        } else if j < n + m {
            out[j - n] = 1.0;
        } else {
            let (r, s) = arts[j - n - m];
            out[r] = s;
        }
    }

    fn clock_now(&self) -> Option<u64> {
        self.clock.as_ref().map(|c| c.now_ns())
    }

    fn add_solve_time(&mut self, t0: Option<u64>) {
        if let (Some(c), Some(t0)) = (&self.clock, t0) {
            self.solve_ns += c.now_ns().saturating_sub(t0);
        }
    }

    /// `w ← B⁻¹·A_q` (the entering column for ratio test and eta append).
    fn compute_w(&mut self, q: usize) {
        self.w.fill(0.0);
        Self::scatter_col(&self.skel.mat, &self.arts, self.n, q, &mut self.w);
        let t0 = self.clock_now();
        self.inverse.ftran(&mut self.w);
        self.add_solve_time(t0);
    }

    /// `y ← c_B·B⁻¹` (the dual prices the reduced costs are measured
    /// against).
    fn compute_y(&mut self) {
        for r in 0..self.m {
            self.y[r] = self.costs[self.basis[r]];
        }
        let t0 = self.clock_now();
        self.inverse.btran(&mut self.y);
        self.add_solve_time(t0);
    }

    /// Reduced cost `d_j = c_j − y·A_j` via one sparse dot product, chunked
    /// through the pricing kernel's fixed-order reduction tree.
    fn reduced_cost(&self, j: usize) -> f64 {
        let mut d = self.costs[j];
        if j < self.n {
            let (rows, vals) = self.skel.mat.col_slices(j);
            d -= kernel::dot_gather(&self.y, rows, vals);
        } else if j < self.art_start {
            d -= self.y[j - self.n];
        } else {
            let (r, s) = self.arts[j - self.art_start];
            d -= s * self.y[r];
        }
        d
    }

    /// Entering direction and score of a non-basic column under reduced cost
    /// `dj`, or `None` when the column cannot improve (fixed, basic, or
    /// resting on the profitable side).
    fn direction(&self, j: usize, dj: f64) -> Option<(f64, f64)> {
        match self.state[j] {
            ColState::Basic => None,
            ColState::AtLower => {
                if self.lo[j] == self.hi[j] {
                    None
                } else {
                    Some((1.0, -dj))
                }
            }
            ColState::AtUpper => {
                if self.lo[j] == self.hi[j] {
                    None
                } else {
                    Some((-1.0, dj))
                }
            }
            ColState::Free => {
                if dj < 0.0 {
                    Some((1.0, -dj))
                } else {
                    Some((-1.0, dj))
                }
            }
        }
    }

    /// Candidate-list cap: a small slice of the column space, enough to keep
    /// high-quality entering choices without a full scan per iteration.
    fn candidate_cap(limit: usize) -> usize {
        (limit / 8).clamp(8, 64)
    }

    /// Chooses an entering column, returning `(col, direction)`. Expects
    /// `self.y` to be current.
    ///
    /// Non-Bland mode prices the candidate list first and falls back to a
    /// full scan (which also refills the list) only when every candidate has
    /// gone stale. Bland mode always runs the full first-eligible scan its
    /// anti-cycling guarantee requires.
    fn price(&mut self, bland: bool, phase2: bool) -> Option<(usize, f64)> {
        let limit = if phase2 { self.art_start } else { self.ncols };
        if bland {
            for j in 0..limit {
                if self.state[j] == ColState::Basic {
                    continue;
                }
                let dj = self.reduced_cost(j);
                if let Some((dir, score)) = self.direction(j, dj) {
                    if score > OPT_TOL {
                        return Some((j, dir));
                    }
                }
            }
            return None;
        }

        // Minor iteration: re-price only the candidates, dropping columns
        // that entered the basis in place (no allocation on the hot path;
        // swap_remove keeps the pass deterministic run-to-run).
        let mut best: Option<(usize, f64, f64)> = None;
        let mut i = 0;
        while i < self.candidates.len() {
            let j = self.candidates[i];
            if j >= limit || self.state[j] == ColState::Basic {
                self.candidates.swap_remove(i);
                continue;
            }
            let dj = self.reduced_cost(j);
            if let Some((dir, score)) = self.direction(j, dj) {
                if score > OPT_TOL {
                    match best {
                        Some((_, _, s)) if s >= score => {}
                        _ => best = Some((j, dir, score)),
                    }
                }
            }
            i += 1;
        }
        if let Some((j, dir, _)) = best {
            return Some((j, dir));
        }

        // Major iteration: full scan, refill the candidate list with the
        // highest-ranked eligible columns (deterministic order).
        let mut scored: Vec<(usize, f64, f64)> = Vec::new();
        for j in 0..limit {
            if self.state[j] == ColState::Basic {
                continue;
            }
            let dj = self.reduced_cost(j);
            if let Some((dir, score)) = self.direction(j, dj) {
                if score > OPT_TOL {
                    scored.push((j, dir, score));
                }
            }
        }
        if scored.is_empty() {
            self.candidates.clear();
            return None;
        }
        // total_cmp, not partial_cmp: a NaN rank must not silently collapse
        // the ordering and steer pivot choice (lint rule float-cmp). Ranks
        // here are positive and finite, for which the two orders coincide.
        scored.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
        scored.truncate(Self::candidate_cap(limit));
        self.candidates = scored.iter().map(|&(j, _, _)| j).collect();
        let (j, dir, _) = scored[0];
        Some((j, dir))
    }

    /// One simplex iteration: price, FTRAN, ratio test, then bound-flip or
    /// pivot. The ratio-test semantics (tolerances, largest-pivot
    /// tie-breaking, bound-to-bound flips) mirror the dense engine exactly.
    fn step(&mut self, bland: bool, phase2: bool) -> StepOutcome {
        self.compute_y();
        let Some((q, dir)) = self.price(bland, phase2) else {
            return StepOutcome::Optimal;
        };
        self.compute_w(q);

        let mut limit = if self.lo[q].is_finite() && self.hi[q].is_finite() {
            self.hi[q] - self.lo[q]
        } else {
            INF
        };
        let mut leave: Option<(usize, bool)> = None;
        let mut leave_piv = 0.0f64;
        for r in 0..self.m {
            let a = self.w[r] * dir;
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
                for r in 0..self.m {
                    let a = self.w[r];
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
                for i in 0..self.m {
                    let a = self.w[i];
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
                self.apply_pivot(r, q);
                StepOutcome::Progress {
                    degenerate: limit <= 1e-10,
                }
            }
        }
    }

    /// Appends the pivot at row `r` with entering column `q` to the eta file
    /// (expects `self.w = B⁻¹·A_q`, freshly FTRAN'd) and updates the heading
    /// and counters.
    fn apply_pivot(&mut self, r: usize, q: usize) {
        debug_assert!(self.w[r].abs() > 0.0, "zero pivot");
        self.inverse.etas.push_from_column(r, &self.w);
        self.eta_peak = self.eta_peak.max(self.inverse.etas.len());
        self.state[q] = ColState::Basic;
        self.basis[r] = q;
        self.pivots += 1;
        self.pivots_since_refactor += 1;
    }

    fn should_refactorize(&self) -> bool {
        self.pivots_since_refactor >= self.refactor_every
            || self.inverse.etas.nnz() > self.eta_nnz_cap
    }

    /// Rebuilds the basis-inverse representation from the original data for
    /// the current basic column set, then recomputes the basic values
    /// exactly. Returns `false` when the basis is singular with respect to
    /// the matrix or the recomputed point is primal infeasible beyond
    /// tolerance (mid-solve callers treat it as a numerical failure).
    fn refactorize(&mut self) -> bool {
        self.refresh(true)
    }

    /// [`Core::refactorize`] with a selectable feasibility contract: with
    /// `check` off (the dual simplex, whose basic values are *meant* to
    /// violate their bounds until it finishes, and a basis restore, which
    /// may hand a stale point to it) only the singularity of the basis
    /// rejects, and out-of-bound basic values are kept as computed.
    fn refresh(&mut self, check: bool) -> bool {
        let t0 = self.clock_now();
        let ok = self.refactorize_lu() && {
            self.refactorizations += 1;
            self.pivots_since_refactor = 0;
            self.recompute_basic_values(check)
        };
        if let (Some(c), Some(t0)) = (&self.clock, t0) {
            self.refactor_ns += c.now_ns().saturating_sub(t0);
        }
        ok
    }

    /// The current basic columns in elimination order, into `out`: unit
    /// (slack / artificial) columns first — they pivot with no fill — then
    /// structural columns by ascending non-zero count (static
    /// Markowitz-style ordering).
    fn elimination_order(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.basis.iter().copied().filter(|&j| j >= self.n));
        out.sort_unstable();
        let units = out.len();
        out.extend(self.basis.iter().copied().filter(|&j| j < self.n));
        out[units..].sort_by_key(|&j| (self.skel.mat.col_nnz(j), j));
    }

    /// The refactorization itself: a fresh sparse LU factorization of the
    /// basis matrix ([`LuFactors::refactor`] — threshold partial pivoting
    /// with the Markowitz row-weight tie-break), discarding the eta file.
    /// The fill trigger (`eta_nnz_cap`) is re-derived from the *measured*
    /// fill of these factors, so cadence tracks the basis the solve
    /// actually has rather than a tuned constant.
    fn refactorize_lu(&mut self) -> bool {
        let m = self.m;
        let mut buf = std::mem::take(&mut self.refac);
        self.elimination_order(&mut buf.order);
        buf.col_ptr.clear();
        buf.col_ptr.push(0);
        buf.entries.clear();
        buf.row_weight.clear();
        buf.row_weight.resize(m, 0);
        for &j in &buf.order {
            if j < self.n {
                for (r, a) in self.skel.mat.col(j) {
                    buf.entries.push((r, a));
                    buf.row_weight[r] += 1;
                }
            } else if j < self.art_start {
                let r = j - self.n;
                buf.entries.push((r, 1.0));
                buf.row_weight[r] += 1;
            } else {
                let (r, s) = self.arts[j - self.art_start];
                buf.entries.push((r, s));
                buf.row_weight[r] += 1;
            }
            buf.col_ptr.push(buf.entries.len());
        }
        let mut lu = buf.spare.take().unwrap_or_default();
        let ok = lu.refactor(m, &buf.col_ptr, &buf.entries, &buf.row_weight, PIVOT_TOL);
        if ok {
            for (k, &r) in lu.pivot_rows().iter().enumerate() {
                self.basis[r] = buf.order[k];
            }
            self.lu_fill = self.lu_fill.max(lu.nnz() as u64);
            self.eta_nnz_cap = lu_growth_cap(&lu);
            std::mem::swap(&mut self.inverse.lu, &mut lu);
            self.inverse.etas.clear();
        }
        // The replaced factors (or the failed attempt) become the next
        // refactorization's buffer.
        buf.spare = Some(lu);
        self.refac = buf;
        ok
    }

    /// `x_B ← B⁻¹·(b − N·x_N)` from the original data. With `check` on,
    /// round-off within the feasibility tolerance is clamped and a
    /// violation beyond it returns `false`; with `check` off (the dual
    /// simplex) every value is kept exactly as computed.
    fn recompute_basic_values(&mut self, check: bool) -> bool {
        self.w.fill(0.0);
        self.w[..self.m].copy_from_slice(&self.skel.rhs);
        for j in 0..self.ncols {
            if self.state[j] == ColState::Basic {
                continue;
            }
            let x = self.xval[j];
            if x == 0.0 {
                continue;
            }
            if j < self.n {
                for (r, a) in self.skel.mat.col(j) {
                    self.w[r] -= a * x;
                }
            } else if j < self.art_start {
                self.w[j - self.n] -= x;
            } else {
                let (r, s) = self.arts[j - self.art_start];
                self.w[r] -= s * x;
            }
        }
        self.inverse.ftran(&mut self.w);
        for r in 0..self.m {
            self.xval[self.basis[r]] = self.w[r];
        }
        !check || self.clamp_basic_values()
    }

    /// Clamps basic values that round-off left within the feasibility
    /// tolerance of their bounds onto those bounds. Returns `false`, with
    /// every value left as it was, when some basic value violates a bound by
    /// more than the tolerance.
    fn clamp_basic_values(&mut self) -> bool {
        let (lo, hi, xval) = (&self.lo, &self.hi, &mut self.xval);
        if self
            .basis
            .iter()
            .any(|&b| xval[b] < lo[b] - FEAS_TOL || xval[b] > hi[b] + FEAS_TOL)
        {
            return false;
        }
        for &b in &self.basis {
            xval[b] = xval[b].clamp(lo[b], hi[b]);
        }
        true
    }

    /// Runs the simplex loop for one phase until optimality, refreshing the
    /// factorization whenever the trigger fires.
    fn optimize(&mut self, phase2: bool, cap: u64) -> Result<(), SolveError> {
        let mut degen_streak = 0u32;
        let mut bland = false;
        loop {
            if self.pivots >= cap {
                return Err(SolveError::IterationLimit);
            }
            if self.should_refactorize() && !self.refactorize() {
                return Err(SolveError::Numerical(
                    "basis became singular or infeasible at refactorization".into(),
                ));
            }
            match self.step(bland, phase2) {
                StepOutcome::Optimal => return Ok(()),
                StepOutcome::Unbounded => {
                    return if phase2 {
                        Err(SolveError::Unbounded)
                    } else {
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

    /// Bounded dual simplex: starting from a basis whose reduced costs keep
    /// their optimality signs (a parent node's optimum after a bound
    /// change), pivots primal feasibility back in. Each iteration takes the
    /// basic variable with the largest bound violation out of the basis, to
    /// the violated bound; prices its row `ρ = e_r·B⁻¹` across the
    /// non-basic structural and slack columns; and lets the dual ratio test
    /// pick the entering column — the smallest `|d_j / α_j|` among the
    /// columns that can move `x_r` toward its bound — so the reduced costs
    /// keep their signs. The pivot itself runs through the primal
    /// machinery: FTRAN, [`Core::apply_pivot`] (one eta) and the
    /// refactorization trigger. After a run of dual-degenerate steps both
    /// choices fall back to the lowest index (Bland), as in the primal
    /// loop; the pivot cap bounds the rest.
    ///
    /// With a `cutoff`, every iteration first compares the dual objective
    /// with it. Once it is reached, fresh duals go to the cutoff's check: a
    /// proof ends the run with [`DualOutcome::CutOff`], a failed check lets
    /// the run go on without a cutoff, pivoting exactly as it would have.
    fn dual_optimize(&mut self, cap: u64, mut cutoff: Option<Cutoff<'_>>) -> DualOutcome {
        let mut degen_streak = 0u32;
        // The duals `y` are priced fresh by one BTRAN at the start and after
        // every refactorization, and carried across pivots by the dual
        // update `y ← y + (d_q/α_q)·ρ` in between.
        let mut y_fresh = false;
        loop {
            if self.pivots >= cap {
                return DualOutcome::Abandoned;
            }
            if self.should_refactorize() {
                if !self.refresh(false) {
                    return DualOutcome::Abandoned;
                }
                y_fresh = false;
            }
            if let Some(cut) = cutoff.as_mut() {
                if self.dual_objective() >= cut.at {
                    if self.cutoff_proved(cut) {
                        return DualOutcome::CutOff;
                    }
                    cutoff = None;
                }
            }
            let bland = degen_streak > 50;
            let Some((r, above)) = self.dual_leaving(bland) else {
                return DualOutcome::Feasible;
            };
            self.rho.fill(0.0);
            self.rho[r] = 1.0;
            let t0 = self.clock_now();
            self.inverse.btran(&mut self.rho);
            self.add_solve_time(t0);
            if !y_fresh {
                self.compute_y();
                y_fresh = true;
            }
            let Some((q, alpha_q, ratio, d_q)) = self.dual_entering(above, bland) else {
                // Nothing can move x_r toward its bound: row r of B⁻¹, signed
                // toward the violated side, is a Farkas ray of the node.
                if !above {
                    for v in &mut self.rho {
                        *v = -*v;
                    }
                }
                return DualOutcome::Infeasible;
            };
            self.compute_w(q);
            let wr = self.w[r];
            if wr.abs() <= PIVOT_TOL || (wr > 0.0) != (alpha_q > 0.0) {
                // FTRAN and BTRAN disagree on the pivot: numerical trouble.
                return DualOutcome::Abandoned;
            }
            let leaving = self.basis[r];
            let target = if above {
                self.hi[leaving]
            } else {
                self.lo[leaving]
            };
            let step = (self.xval[leaving] - target) / wr;
            for i in 0..self.m {
                let a = self.w[i];
                if a != 0.0 {
                    let b = self.basis[i];
                    self.xval[b] -= step * a;
                }
            }
            self.xval[q] += step;
            self.xval[leaving] = target;
            self.state[leaving] = if above {
                ColState::AtUpper
            } else {
                ColState::AtLower
            };
            self.apply_pivot(r, q);
            let theta = d_q / alpha_q;
            for (y, &p) in self.y.iter_mut().zip(&self.rho) {
                *y += theta * p;
            }
            if ratio <= 1e-12 {
                degen_streak += 1;
            } else {
                degen_streak = 0;
            }
        }
    }

    /// Prices fresh duals `c_B·B⁻¹` into `ρ` (free at the top of a dual
    /// iteration, so the carried `y` is untouched), expands them to model
    /// rows and hands them to the cutoff's check.
    fn cutoff_proved(&mut self, cut: &mut Cutoff<'_>) -> bool {
        for r in 0..self.m {
            self.rho[r] = self.costs[self.basis[r]];
        }
        let t0 = self.clock_now();
        self.inverse.btran(&mut self.rho);
        self.add_solve_time(t0);
        self.skel.expand_duals_into(&self.rho, &mut self.row_mults);
        (cut.proves)(&self.row_mults)
    }

    /// The leaving row of a dual iteration and whether its basic variable
    /// sits above its upper bound: the largest violation beyond
    /// [`DUAL_FEAS_FRACTION`] of the feasibility tolerance (Bland: the
    /// violated row whose basic column has the lowest index). `None` once
    /// the basis is primal feasible.
    fn dual_leaving(&self, bland: bool) -> Option<(usize, bool)> {
        let tol = FEAS_TOL * DUAL_FEAS_FRACTION;
        let mut best: Option<(usize, bool, f64)> = None;
        for r in 0..self.m {
            let b = self.basis[r];
            let x = self.xval[b];
            let (viol, above) = if x < self.lo[b] - tol {
                (self.lo[b] - x, false)
            } else if x > self.hi[b] + tol {
                (x - self.hi[b], true)
            } else {
                continue;
            };
            let wins = match best {
                None => true,
                Some((br, _, bv)) => {
                    if bland {
                        b < self.basis[br]
                    } else {
                        viol > bv
                    }
                }
            };
            if wins {
                best = Some((r, above, viol));
            }
        }
        best.map(|(r, above, _)| (r, above))
    }

    /// The dual ratio test for a leaving row whose `ρ` sits in `self.rho`
    /// (duals in `self.y`): among the non-basic structural and slack columns
    /// whose move toward their free side pushes `x_r` toward its violated
    /// bound, the smallest `|d_j| / |α_j|` — a reduced cost of the wrong
    /// sign counts as zero — with ties to the larger `|α_j|` (Bland: to the
    /// lower index). Returns `(column, α_q, ratio, d_q)`, or `None` when no
    /// column qualifies (the node is infeasible).
    fn dual_entering(&self, above: bool, bland: bool) -> Option<(usize, f64, f64, f64)> {
        let mut best: Option<(usize, f64, f64, f64)> = None;
        for j in 0..self.art_start {
            let st = self.state[j];
            if st == ColState::Basic || self.lo[j] == self.hi[j] {
                continue;
            }
            let alpha = self.col_dot(&self.rho, j);
            // Raising z_j changes x_r by −α_j per unit: `g > 0` means raising
            // z_j moves x_r toward its bound, `g < 0` means lowering does.
            let g = if above { alpha } else { -alpha };
            let eligible = match st {
                ColState::AtLower => g > PIVOT_TOL,
                ColState::AtUpper => g < -PIVOT_TOL,
                ColState::Free => g.abs() > PIVOT_TOL,
                ColState::Basic => false,
            };
            if !eligible {
                continue;
            }
            let dj = self.reduced_cost(j);
            let mag = match st {
                ColState::AtLower => dj.max(0.0),
                ColState::AtUpper => (-dj).max(0.0),
                _ => dj.abs(),
            };
            let ratio = mag / alpha.abs();
            let wins = match best {
                None => true,
                Some((_, ba, br, _)) => {
                    ratio < br - 1e-12 || (!bland && ratio < br + 1e-12 && alpha.abs() > ba.abs())
                }
            };
            if wins {
                best = Some((j, alpha, ratio, dj));
            }
        }
        best
    }

    /// Pivots basic artificial variables (all at value 0) out of the basis;
    /// rows that admit no replacement keep their frozen artificial, exactly
    /// like the dense engine.
    fn drive_out_artificials(&mut self) {
        for r in 0..self.m {
            if self.basis[r] < self.art_start {
                continue;
            }
            // ρ = e_r·B⁻¹, so ρ·A_j is the tableau entry (r, j).
            self.y.fill(0.0);
            self.y[r] = 1.0;
            self.inverse.btran(&mut self.y);
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.art_start {
                if self.state[j] == ColState::Basic || self.lo[j] == self.hi[j] {
                    continue;
                }
                let a = self.col_dot(&self.y, j).abs();
                if a > PIVOT_TOL && best.is_none_or(|(_, b)| a > b) {
                    best = Some((j, a));
                }
            }
            if let Some((j, _)) = best {
                self.compute_w(j);
                if self.w[r].abs() <= PIVOT_TOL {
                    continue; // round-off disagreement; keep the frozen artificial
                }
                let leaving = self.basis[r];
                self.state[leaving] = ColState::AtLower;
                self.xval[leaving] = 0.0;
                self.apply_pivot(r, j);
            }
        }
    }

    /// `v·A_j` for a row vector `v` in basis coordinates — with `v = ρ =
    /// e_r·B⁻¹` the tableau entry `(r, j)` (artificial drive-out and the
    /// dual ratio test; handles every column class because the phase-1
    /// candidate list may hold artificials).
    fn col_dot(&self, v: &[f64], j: usize) -> f64 {
        if j < self.n {
            let (rows, vals) = self.skel.mat.col_slices(j);
            kernel::dot_gather(v, rows, vals)
        } else if j < self.art_start {
            v[j - self.n]
        } else {
            let (r, s) = self.arts[j - self.art_start];
            s * v[r]
        }
    }

    fn set_phase1_costs(&mut self) {
        self.costs.fill(0.0);
        for c in self.costs.iter_mut().skip(self.art_start) {
            *c = 1.0;
        }
    }

    fn set_phase2_costs(&mut self, model: &Model) {
        self.costs.fill(0.0);
        let flip = matches!(model.sense, Some(Sense::Maximize));
        self.cost_cols.clear();
        for &(v, c) in &model.objective {
            self.costs[v] += if flip { -c } else { c };
            self.cost_cols.push(v);
        }
        self.cost_cols.sort_unstable();
        self.cost_cols.dedup();
        self.candidates.clear();
    }

    /// `Σⱼ c′ⱼ·xⱼ` at the current basic solution: under a dual feasible
    /// basis, the dual objective, a lower bound on the phase-2 optimum.
    fn dual_objective(&self) -> f64 {
        self.cost_cols
            .iter()
            .map(|&j| self.costs[j] * self.xval[j])
            .sum()
    }

    fn freeze_artificials(&mut self) {
        for j in self.art_start..self.ncols {
            self.lo[j] = 0.0;
            self.hi[j] = 0.0;
            self.xval[j] = 0.0;
        }
    }

    /// Recomputes the dual certificate at the current (phase-2-terminated)
    /// basis: one BTRAN pass for `yᵀ = c_Bᵀ·B⁻¹` plus one sparse dot product
    /// per structural column. Rows are never negated in this engine, so `y`
    /// prices the internal row orientation directly; range-folded duals are
    /// expanded back to model row order by [`Skeleton::expand_duals`].
    fn certificate(&mut self) -> DualCertificate {
        let mut y = vec![0.0f64; self.m];
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.costs[self.basis[r]];
        }
        self.inverse.btran(&mut y);
        let mut reduced = Vec::with_capacity(self.n);
        for j in 0..self.n {
            let mut d = self.costs[j];
            for (r, a) in self.skel.mat.col(j) {
                d -= y[r] * a;
            }
            reduced.push(d);
        }
        DualCertificate {
            row_duals: self.skel.expand_duals(&y),
            reduced_costs: reduced,
        }
    }

    fn counters(&self) -> EngineCounters {
        EngineCounters {
            pivots: self.pivots,
            refactorizations: self.refactorizations,
            eta_len: self.eta_peak as u64,
            refactor_time_ns: self.refactor_ns,
            ftran_btran_time_ns: self.solve_ns,
            lu_fill_nnz: self.lu_fill,
        }
    }

    fn finish(
        &mut self,
        model: &Model,
        var_bounds: &[(f64, f64)],
        emit: bool,
    ) -> Result<Solution, SolveError> {
        let cert = emit.then(|| self.certificate());
        finish_values(
            model,
            var_bounds,
            self.xval[..self.n].to_vec(),
            self.counters(),
            cert,
        )
    }

    /// Extracts a reusable [`Basis`] snapshot, or `None` when an artificial
    /// column is still basic (redundant row). `m` is the *internal* row
    /// count, so a snapshot taken under range folding only restores into a
    /// core that folds the same way.
    fn snapshot(&self) -> Option<Basis> {
        let mut out = Basis::empty();
        self.snapshot_into(&mut out).then_some(out)
    }

    /// [`Core::snapshot`] into `out`, reusing its buffers; `false` (and
    /// `out` untouched) when an artificial column is still basic.
    fn snapshot_into(&self, out: &mut Basis) -> bool {
        if self.basis.iter().any(|&b| b >= self.art_start) {
            return false;
        }
        out.state.clear();
        out.state.extend_from_slice(&self.state[..self.art_start]);
        out.rows.clear();
        out.rows.extend_from_slice(&self.basis);
        out.n = self.n;
        out.m = self.m;
        true
    }

    /// Resets the per-solve counters before a re-solve on a live core.
    fn begin_solve(&mut self) {
        self.pivots = 0;
        self.refactorizations = 0;
        self.refactor_ns = 0;
        self.solve_ns = 0;
        self.eta_peak = self.inverse.etas.len();
        self.lu_fill = self.inverse.lu.nnz() as u64;
    }

    /// Whether `warm` is shaped for this core: the same structural and
    /// internal row counts, a state for every structural and slack column,
    /// and a basic column heading each row.
    fn fits(&self, warm: &Basis) -> bool {
        let nm = self.n + self.m;
        warm.n == self.n
            && warm.m == self.m
            && warm.state.len() == nm
            && warm.rows.len() == self.m
            && warm
                .rows
                .iter()
                .all(|&b| b < nm && warm.state[b] == ColState::Basic)
    }

    /// Installs `warm`'s column states and basis heading (the caller
    /// refactorizes). A snapshot never records artificial columns, so any
    /// this core's cold solve introduced are parked non-basic and frozen at
    /// 0. Returns `false` when the snapshot's shape does not fit this core.
    fn load_basis(&mut self, warm: &Basis) -> bool {
        if !self.fits(warm) {
            return false;
        }
        let nm = self.n + self.m;
        self.state[..nm].copy_from_slice(&warm.state);
        for j in nm..self.ncols {
            self.state[j] = ColState::AtLower;
        }
        self.freeze_artificials();
        self.basis.clear();
        self.basis.extend_from_slice(&warm.rows);
        true
    }

    /// Rests every non-basic column exactly on its recorded bound (a free
    /// column at 0) — the restore contract. Returns `false` when a recorded
    /// bound is infinite or a free column's box excludes 0: the basis does
    /// not fit these bounds.
    fn rest_nonbasic(&mut self) -> bool {
        for j in 0..self.ncols {
            self.xval[j] = match self.state[j] {
                ColState::Basic => continue,
                ColState::AtLower if self.lo[j].is_finite() => self.lo[j],
                ColState::AtUpper if self.hi[j].is_finite() => self.hi[j],
                ColState::Free if self.lo[j] <= 0.0 && self.hi[j] >= 0.0 => 0.0,
                _ => return false,
            };
        }
        true
    }

    /// Re-solves a branch-and-bound node under `var_bounds`, warm: from the
    /// parent's optimum still live in this core (`restore = None`) or from
    /// the parent's snapshot (`Some`, one refactorization). The parent basis
    /// stays dual feasible under the tightened bounds, so the dual simplex
    /// restores primal feasibility and a primal phase-2 pass cleans up what
    /// round-off left. A `cutoff` the dual simplex proves ends the node
    /// there, before the clean-up. Every failure is [`WarmNode::Abandoned`]:
    /// the caller re-solves the node cold.
    fn warm_node(
        &mut self,
        model: &Model,
        var_bounds: &[(f64, f64)],
        restore: Option<&Basis>,
        opts: &SolveOptions,
        cutoff: Option<Cutoff<'_>>,
    ) -> WarmNode {
        self.begin_solve();
        if var_bounds.iter().any(|&(lo, hi)| lo > hi) {
            return WarmNode::Abandoned;
        }
        if restore.is_some_and(|warm| !self.load_basis(warm)) {
            return WarmNode::Abandoned;
        }
        for (j, &(lo, hi)) in var_bounds.iter().enumerate() {
            self.lo[j] = lo;
            self.hi[j] = hi;
        }
        if !self.rest_nonbasic() {
            return WarmNode::Abandoned;
        }
        let values = if restore.is_some() {
            self.refresh(false)
        } else {
            self.recompute_basic_values(false)
        };
        if !values {
            return WarmNode::Abandoned;
        }
        self.set_phase2_costs(model);
        let cap = opts.pivot_cap(self.m, self.ncols);
        match self.dual_optimize(cap, cutoff) {
            DualOutcome::Feasible => {}
            DualOutcome::Infeasible => return WarmNode::Infeasible,
            DualOutcome::CutOff => return WarmNode::CutOff,
            DualOutcome::Abandoned => return WarmNode::Abandoned,
        }
        if self.optimize(true, cap).is_err() {
            return WarmNode::Abandoned;
        }
        match self.finish(model, var_bounds, opts.emit_certificates) {
            Ok(sol) => WarmNode::Solved(sol),
            Err(_) => WarmNode::Abandoned,
        }
    }
}

/// Fill-growth refactorization trigger of the LU engine: rebuild once the
/// eta file has accumulated twice the stored fill of the factors
/// themselves, with a floor sized so the certifier's short solves — tens of
/// thousands of LPs that finish within a few hundred pivots — complete
/// entirely on the trivial starting basis plus the eta file and never pay a
/// factorization at all. Only genuinely long pivot runs cross the trigger,
/// and for those the cap is growth-relative, so dense-ish bases refresh
/// early instead of dragging an ever-longer representation through every
/// FTRAN/BTRAN.
fn lu_growth_cap(lu: &LuFactors) -> usize {
    (2 * lu.nnz()).max(8192)
}

/// Refactorization cadence: `(8m).max(2000)` pivots. The real trigger is
/// measured update-file fill growth against the factors (`eta_nnz_cap`,
/// re-derived per refactorization), so the pivot budget is only a drift
/// backstop.
fn refactor_budget(m: usize) -> u64 {
    #[cfg(test)]
    if let Some(every) = tests::REFACTOR_EVERY.get() {
        return every;
    }
    (m as u64 * 8).max(2000)
}

/// Builds the initial working state (columns, resting values, slack-or-
/// artificial starting basis) for `model` under `var_bounds` against the
/// compiled `skel`: a [`restore_core`] whose rows each keep their slack
/// basic when its required value fits the slack's bounds and get an
/// artificial otherwise. The arithmetic mirrors the dense engine's setup
/// except that rows are never negated: an artificial covering a negative
/// residual gets a `−1` coefficient, represented exactly in the starting
/// inverse (a `−1` diagonal of the identity LU).
fn build_core(
    model: &Model,
    var_bounds: &[(f64, f64)],
    opts: &SolveOptions,
    skel: Arc<Skeleton>,
) -> (Core, f64) {
    let mut c = restore_core(var_bounds, opts, skel);
    for (j, &(l, h)) in var_bounds.iter().enumerate() {
        (c.xval[j], c.state[j]) = initial_value(l, h);
    }
    let mut art_sum = 0.0;
    let mut neg_rows = Vec::new();
    for k in 0..c.m {
        let terms = c.skel.row_terms(model, k);
        let activity: f64 = terms.iter().map(|&(v, a)| a * c.xval[v]).sum();
        let v = c.skel.rhs[k] - activity; // required slack value
        let sc = c.n + k;
        if v >= c.lo[sc] && v <= c.hi[sc] {
            c.xval[sc] = v;
            c.state[sc] = ColState::Basic;
            continue;
        }
        let sv = v.clamp(c.lo[sc], c.hi[sc]);
        c.xval[sc] = sv;
        c.state[sc] = if sv == c.lo[sc] {
            ColState::AtLower
        } else {
            ColState::AtUpper
        };
        let resid = v - sv;
        let sign = resid.signum();
        if sign < 0.0 {
            neg_rows.push(k);
        }
        c.arts.push((k, sign));
        c.basis[k] = c.ncols;
        c.lo.push(0.0);
        c.hi.push(INF);
        c.xval.push(resid.abs());
        c.state.push(ColState::Basic);
        c.ncols += 1;
        art_sum += resid.abs();
    }
    c.costs.resize(c.ncols, 0.0);
    if !neg_rows.is_empty() {
        c.inverse.lu = LuFactors::identity(c.m, &neg_rows);
    }
    (c, art_sum)
}

/// The working arrays of a core under `var_bounds` against `skel`, with
/// no artificial columns, the slack basis and the identity LU: the target
/// of a snapshot restore, which installs its own basis heading and values,
/// and the base [`build_core`] chooses a feasible starting basis on.
fn restore_core(var_bounds: &[(f64, f64)], opts: &SolveOptions, skel: Arc<Skeleton>) -> Core {
    let n = var_bounds.len();
    let m = skel.m();
    let ncols = n + m;
    let mut lo = Vec::with_capacity(n + 2 * m);
    let mut hi = Vec::with_capacity(n + 2 * m);
    for &(l, h) in var_bounds {
        lo.push(l);
        hi.push(h);
    }
    for k in 0..m {
        lo.push(skel.slack_lo[k]);
        hi.push(skel.slack_hi[k]);
    }
    let lu = LuFactors::identity(m, &[]);
    let eta_nnz_cap = lu_growth_cap(&lu);
    let lu_fill = lu.nnz() as u64;
    Core {
        skel,
        lo,
        hi,
        xval: vec![0.0; ncols],
        state: vec![ColState::AtLower; ncols],
        basis: (n..ncols).collect(),
        inverse: Inverse {
            lu,
            etas: EtaFile::new(),
        },
        arts: Vec::new(),
        n,
        m,
        art_start: ncols,
        ncols,
        costs: vec![0.0; ncols],
        cost_cols: Vec::new(),
        w: vec![0.0; m],
        y: vec![0.0; m],
        rho: vec![0.0; m],
        row_mults: Vec::new(),
        refac: RefactorBuffers::default(),
        candidates: Vec::new(),
        clock: opts.telemetry.clone(),
        pivots: 0,
        refactorizations: 0,
        eta_peak: 0,
        pivots_since_refactor: 0,
        refactor_every: refactor_budget(m),
        eta_nnz_cap,
        refactor_ns: 0,
        solve_ns: 0,
        lu_fill,
    }
}

/// Cold two-phase solve, returning the terminated [`Core`] for snapshotting
/// or resident reuse.
fn solve_core(
    model: &Model,
    var_bounds: &[(f64, f64)],
    opts: &SolveOptions,
) -> Result<(Solution, Option<Core>), SolveError> {
    let n = model.cols.len();
    debug_assert_eq!(var_bounds.len(), n);

    for &(lo, hi) in var_bounds {
        if lo > hi {
            return Err(SolveError::Infeasible);
        }
    }
    if model.rows.is_empty() {
        return solve_unconstrained(model, var_bounds).map(|s| (s, None));
    }

    let skel = Arc::new(Skeleton::build(model));
    let (mut core, art_sum) = build_core(model, var_bounds, opts, skel);
    let sol = cold_phases(&mut core, art_sum, model, var_bounds, opts)?;
    Ok((sol, Some(core)))
}

/// Phase 1 (when the starting basis needed artificials) and phase 2 of a
/// cold solve on a freshly built core. On error the core keeps its
/// counters, so callers can account for the work an infeasible solve did.
fn cold_phases(
    core: &mut Core,
    art_sum: f64,
    model: &Model,
    var_bounds: &[(f64, f64)],
    opts: &SolveOptions,
) -> Result<Solution, SolveError> {
    let cap = opts.pivot_cap(core.m, core.ncols);
    if art_sum > 0.0 {
        core.set_phase1_costs();
        core.optimize(false, cap)?;
        let remaining: f64 = (core.art_start..core.ncols).map(|j| core.xval[j]).sum();
        if remaining > FEAS_TOL {
            return Err(SolveError::Infeasible);
        }
        core.drive_out_artificials();
    }
    core.freeze_artificials();

    core.set_phase2_costs(model);
    core.optimize(true, cap)?;

    let emit = opts.emit_certificates;
    match core.finish(model, var_bounds, emit) {
        Ok(sol) => Ok(sol),
        Err(_) => {
            // One repair attempt: refactorizing recomputes the basic values
            // from the original data; if the residual still fails after a
            // fresh reoptimization, the failure is genuine.
            if !core.refactorize() {
                return Err(SolveError::Numerical(
                    "basis became singular or infeasible at refactorization".into(),
                ));
            }
            core.optimize(true, cap)?;
            core.finish(model, var_bounds, emit)
        }
    }
}

/// Sparse counterpart of [`crate::simplex`]'s cold LP entry point.
pub(crate) fn solve_bounded(
    model: &Model,
    var_bounds: &[(f64, f64)],
    opts: &SolveOptions,
) -> Result<Solution, SolveError> {
    solve_core(model, var_bounds, opts).map(|(sol, _)| sol)
}

/// How a warm re-solve of a branch-and-bound node ended.
// Transient: consumed at the one call site, so the variant-size skew never
// sits in a collection.
#[allow(clippy::large_enum_variant)]
pub(crate) enum WarmNode {
    /// Reoptimized to a residual-checked optimum.
    Solved(Solution),
    /// The dual ratio test found no entering column. The ray it leaves
    /// ([`NodeLp::farkas_ray`]) proves nothing until checked exactly.
    Infeasible,
    /// The dual objective reached the node's [`Cutoff`] and its check
    /// proved that the node cannot beat the incumbent.
    CutOff,
    /// The restore was rejected, the pivot cap was hit, the pivot numerics
    /// disagreed, or the residual check failed: re-solve the node cold.
    Abandoned,
}

/// The LP side of one branch-and-bound tree: the constraint skeleton
/// compiled once and one live [`Core`] that node after node re-solves in,
/// plus the work of every node solve — optimal, infeasible, cut off and
/// abandoned alike.
pub(crate) struct NodeLp {
    skel: Arc<Skeleton>,
    core: Option<Core>,
    work: EngineCounters,
}

impl NodeLp {
    pub(crate) fn new(model: &Model) -> Self {
        NodeLp {
            skel: Arc::new(Skeleton::build(model)),
            core: None,
            work: EngineCounters::default(),
        }
    }

    /// Engine work summed over every node solve so far.
    pub(crate) fn work(&self) -> EngineCounters {
        self.work
    }

    /// Cold two-phase solve from the slack basis: the arithmetic of
    /// [`solve_bounded`] against the tree's skeleton. The core it builds
    /// becomes the live core.
    pub(crate) fn solve_cold(
        &mut self,
        model: &Model,
        var_bounds: &[(f64, f64)],
        opts: &SolveOptions,
    ) -> Result<Solution, SolveError> {
        if var_bounds.iter().any(|&(lo, hi)| lo > hi) {
            return Err(SolveError::Infeasible);
        }
        if model.rows.is_empty() {
            return solve_unconstrained(model, var_bounds);
        }
        let (mut core, art_sum) = build_core(model, var_bounds, opts, self.skel.clone());
        let sol = cold_phases(&mut core, art_sum, model, var_bounds, opts);
        self.work.absorb(core.counters());
        self.core = Some(core);
        sol
    }

    /// Warm re-solve of a node in the live core: in place when the core
    /// still holds the parent's optimum (`restore = None`), else from the
    /// parent's snapshot. See [`Core::warm_node`].
    pub(crate) fn solve_warm(
        &mut self,
        model: &Model,
        var_bounds: &[(f64, f64)],
        restore: Option<&Basis>,
        opts: &SolveOptions,
        cutoff: Option<Cutoff<'_>>,
    ) -> WarmNode {
        let Some(core) = self.core.as_mut() else {
            return WarmNode::Abandoned;
        };
        let out = core.warm_node(model, var_bounds, restore, opts, cutoff);
        self.work.absorb(core.counters());
        out
    }

    /// After [`WarmNode::Infeasible`]: the signed row of `B⁻¹` expanded to
    /// one multiplier per model row — the Farkas certificate
    /// `itne_certcheck::verify_infeasibility` checks.
    pub(crate) fn farkas_ray(&mut self) -> &[f64] {
        match self.core.as_mut() {
            Some(core) => {
                core.skel.expand_duals_into(&core.rho, &mut core.row_mults);
                &core.row_mults
            }
            None => &[],
        }
    }

    /// Snapshots the live core's basis into `out`, reusing its buffers;
    /// `false` without a live core or while an artificial is still basic.
    pub(crate) fn snapshot_into(&self, out: &mut Basis) -> bool {
        self.core.as_ref().is_some_and(|c| c.snapshot_into(out))
    }
}

/// Outcome of restoring a [`Basis`] snapshot into a fresh engine
/// ([`solve_warm_resident`]). Success keeps the live engine, so a slot
/// sweep ([`crate::BatchSolver::solve_slot`]) can chain later objectives
/// through in-place reoptimization — paying the snapshot-restore
/// refactorization once per sweep rather than once per solve.
#[allow(clippy::large_enum_variant)]
pub(crate) enum WarmResidentOutcome {
    /// The restored basis reoptimized to optimality; the live engine stays
    /// available for [`SparseResident::resolve`].
    Solved(Solution, SparseResident),
    /// The basis could not be restored (shape mismatch, singular
    /// refactorization, a stale point the dual simplex could not repair,
    /// or numerical trouble during reoptimization); the caller should
    /// solve cold. Carries the pivots the abandoned attempt burned, as
    /// [`ResolveOutcome::Rejected`] does.
    Rejected { wasted_pivots: u64 },
}

/// Outcome of reoptimizing a [`SparseResident`] under a new objective.
pub(crate) enum ResolveOutcome {
    /// Optimal for the new objective; the engine stays resident.
    Solved(Solution),
    /// Numerical trouble (iteration limit, drifted residuals). The caller
    /// should discard the resident and solve cold. Carries the pivots the
    /// abandoned attempt burned, so callers can keep work counters honest.
    Rejected { wasted_pivots: u64 },
}

/// A live factorized sparse engine kept resident between the solves of one
/// objective sweep ([`crate::BatchSolver`]): reoptimizing in place costs
/// one reduced-cost pass plus the phase-2 pivots, where restoring a
/// [`Basis`] snapshot would first refactorize the basis.
///
/// Only valid while the originating model's constraint skeleton and bounds
/// stay unchanged (the batch layer guarantees this by holding the model
/// mutably for the sweep's whole lifetime).
pub(crate) struct SparseResident {
    core: Core,
    var_bounds: Vec<(f64, f64)>,
}

impl SparseResident {
    /// Flattens the live engine to a restorable [`Basis`] snapshot (`None`
    /// when an artificial column is still basic).
    pub(crate) fn snapshot(&self) -> Option<Basis> {
        self.core.snapshot()
    }

    /// Whether `warm` is shaped for the live core ([`Core::fits`]).
    pub(crate) fn fits(&self, warm: &Basis) -> bool {
        self.core.fits(warm)
    }

    /// Restores `warm` into the live core — reusing the compiled skeleton
    /// and every working array — then reoptimizes under `model`'s current
    /// objective. This is the slot-restore path of a resident sweep, and
    /// [`solve_warm_resident`] runs it on a freshly built core.
    ///
    /// A restored point that is primal feasible up to the feasibility
    /// tolerance is clamped onto its bounds and reoptimized by phase 2
    /// alone. A stale one — the RHS or the bounds moved since the snapshot
    /// was taken — is repaired by the bounded dual simplex
    /// ([`Core::dual_optimize`]) first. A singular basis, a shape mismatch,
    /// a dual simplex that finds no entering column or gives up, the pivot
    /// cap and a failed residual check all reject; nothing is concluded
    /// from the dual ratio test, the cold solve decides.
    ///
    /// On [`ResolveOutcome::Rejected`] the core's basis state has been
    /// overwritten and may be inconsistent; the caller must discard this
    /// resident and solve cold.
    pub(crate) fn resolve_from(
        &mut self,
        model: &Model,
        opts: &SolveOptions,
        warm: &Basis,
    ) -> Result<ResolveOutcome, SolveError> {
        let c = &mut self.core;
        let reject = Ok(ResolveOutcome::Rejected { wasted_pivots: 0 });
        if model.cols.len() != c.n || model.rows.len() != c.skel.m_model {
            return reject;
        }
        // Non-basic columns rest exactly at their recorded bound.
        if !c.load_basis(warm) || !c.rest_nonbasic() {
            return reject;
        }
        // Per-solve counters, as in `resolve`; reset *before* the restore
        // refactorization so its time lands in this solve's telemetry.
        c.pivots = 0;
        c.refactorizations = 0;
        c.refactor_ns = 0;
        c.solve_ns = 0;
        if !c.refresh(false) {
            return reject;
        }
        c.eta_peak = c.inverse.etas.len();
        c.lu_fill = c.inverse.lu.nnz() as u64;
        c.set_phase2_costs(model);
        if !c.clamp_basic_values()
            && !matches!(
                c.dual_optimize(opts.pivot_cap(c.m, c.ncols), None),
                DualOutcome::Feasible
            )
        {
            return Ok(ResolveOutcome::Rejected {
                wasted_pivots: c.pivots,
            });
        }
        self.phase2(model, opts)
    }

    /// Reoptimizes under `model`'s current objective (phase 2 only).
    pub(crate) fn resolve(
        &mut self,
        model: &Model,
        opts: &SolveOptions,
    ) -> Result<ResolveOutcome, SolveError> {
        let c = &mut self.core;
        if model.cols.len() != c.n || model.rows.len() != c.skel.m_model {
            return Ok(ResolveOutcome::Rejected { wasted_pivots: 0 });
        }
        c.set_phase2_costs(model);
        c.begin_solve();
        self.phase2(model, opts)
    }

    /// Primal phase 2 from the core's primal feasible basis (costs already
    /// set), then the residual-checked finish. Unboundedness is the model's
    /// answer; every other failure rejects with the pivots the solve spent,
    /// a dual simplex repair before it included.
    fn phase2(&mut self, model: &Model, opts: &SolveOptions) -> Result<ResolveOutcome, SolveError> {
        let c = &mut self.core;
        let wasted = match c.optimize(true, opts.pivot_cap(c.m, c.ncols)) {
            Ok(()) => match c.finish(model, &self.var_bounds, opts.emit_certificates) {
                Ok(sol) => return Ok(ResolveOutcome::Solved(sol)),
                Err(_) => c.pivots,
            },
            Err(SolveError::Unbounded) => return Err(SolveError::Unbounded),
            Err(_) => c.pivots,
        };
        Ok(ResolveOutcome::Rejected {
            wasted_pivots: wasted,
        })
    }
}

/// Cold solve that hands back the live engine for in-place reoptimization.
pub(crate) fn solve_resident(
    model: &Model,
    opts: &SolveOptions,
) -> Result<(Solution, Option<SparseResident>), SolveError> {
    let bounds: Vec<(f64, f64)> = model.cols.iter().map(|c| (c.lo, c.hi)).collect();
    let (sol, core) = solve_core(model, &bounds, opts)?;
    let resident = core.map(|core| SparseResident {
        core,
        var_bounds: bounds,
    });
    Ok((sol, resident))
}

/// Warm-started solve from a [`Basis`] snapshot: build a [`restore_core`]
/// for `model`, restore the snapshot into it
/// ([`SparseResident::resolve_from`]: one refactorization, a dual simplex
/// repair when the restored point is no longer primal feasible, then phase
/// 2), and hand back the live engine for in-place reoptimization of later
/// objectives. Anything recoverable reports [`WarmResidentOutcome::Rejected`]
/// so the caller can fall back cold; only model-level errors
/// ([`SolveError::Unbounded`], invalid bounds) propagate as `Err`.
pub(crate) fn solve_warm_resident(
    model: &Model,
    opts: &SolveOptions,
    warm: &Basis,
) -> Result<WarmResidentOutcome, SolveError> {
    if warm.n != model.cols.len() || model.rows.is_empty() {
        return Ok(WarmResidentOutcome::Rejected { wasted_pivots: 0 });
    }
    let var_bounds: Vec<(f64, f64)> = model.cols.iter().map(|c| (c.lo, c.hi)).collect();
    if var_bounds.iter().any(|&(lo, hi)| lo > hi) {
        return Err(SolveError::Infeasible);
    }
    let skel = Arc::new(Skeleton::build(model));
    let core = restore_core(&var_bounds, opts, skel);
    let mut resident = SparseResident { core, var_bounds };
    Ok(match resident.resolve_from(model, opts, warm)? {
        ResolveOutcome::Solved(sol) => WarmResidentOutcome::Solved(sol, resident),
        ResolveOutcome::Rejected { wasted_pivots } => {
            WarmResidentOutcome::Rejected { wasted_pivots }
        }
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::Skeleton;
    use crate::lu::tests::rng;
    use crate::{BatchSolver, Cmp, Engine, LinExpr, Model, Sense, SolveError, SolveOptions};

    thread_local! {
        /// Overrides [`super::refactor_budget`] for the solves this thread
        /// runs: `Some(k)` refactorizes the basis after every `k` pivots.
        pub(super) static REFACTOR_EVERY: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Runs `f` with the refactorization budget forced to `every` pivots.
    fn refactor_every<T>(every: u64, f: impl FnOnce() -> T) -> T {
        REFACTOR_EVERY.set(Some(every));
        let out = f();
        REFACTOR_EVERY.set(None);
        out
    }

    fn opts(engine: Engine) -> SolveOptions {
        SolveOptions {
            engine,
            ..Default::default()
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// A band-diagonal LP shaped like one ITNE over-approximation window:
    /// each row touches only `band` consecutive variables plus its slack.
    fn band_lp(n: usize, band: usize, seed: u64) -> (Model, Vec<crate::VarId>) {
        let mut next = rng(seed);
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(-1.0, 1.0)).collect();
        for r in 0..n {
            let lo = r.saturating_sub(band / 2);
            let hi = (lo + band).min(n);
            let e = LinExpr::from_terms(vars[lo..hi].iter().map(|&v| (v, next())), 0.0);
            m.add_constraint(e, Cmp::Le, 0.5 + next().abs());
        }
        let obj = LinExpr::from_terms(vars.iter().map(|&v| (v, next())), 0.0);
        m.set_objective(Sense::Maximize, obj);
        (m, vars)
    }

    /// A band LP whose every constraint is a `≤`/`≥` *pair* over identical
    /// terms — the `[A | I]` interval-row shape range folding targets.
    fn range_band_lp(n: usize, band: usize, seed: u64) -> (Model, Vec<crate::VarId>) {
        let mut next = rng(seed);
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(-1.0, 1.0)).collect();
        for r in 0..n {
            let lo = r.saturating_sub(band / 2);
            let hi = (lo + band).min(n);
            let terms: Vec<_> = vars[lo..hi].iter().map(|&v| (v, next())).collect();
            let width = 0.5 + next().abs();
            let center = next();
            let e = LinExpr::from_terms(terms.iter().copied(), 0.0);
            m.add_constraint(e, Cmp::Le, center + width);
            let e = LinExpr::from_terms(terms.iter().copied(), 0.0);
            m.add_constraint(e, Cmp::Ge, center - width);
        }
        let obj = LinExpr::from_terms(vars.iter().map(|&v| (v, next())), 0.0);
        m.set_objective(Sense::Maximize, obj);
        (m, vars)
    }

    #[test]
    fn textbook_problems_match_dense_engine() {
        // The dense engine's unit suite distilled into an engine-agreement
        // check: every model solves to the same objective on both engines.
        let build: Vec<fn() -> Model> = vec![
            || {
                let mut m = Model::new();
                let x = m.add_var(0.0, 10.0);
                let y = m.add_var(0.0, 10.0);
                m.add_constraint(x + y, Cmp::Le, 6.0);
                m.add_constraint(2.0 * x + y, Cmp::Le, 9.0);
                m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
                m
            },
            || {
                let mut m = Model::new();
                let x = m.add_var(0.0, 100.0);
                let y = m.add_var(0.0, 10.0);
                m.add_constraint(x + y, Cmp::Ge, 4.0);
                m.add_constraint(x, Cmp::Ge, 1.0);
                m.set_objective(Sense::Minimize, 2.0 * x + 3.0 * y);
                m
            },
            || {
                let mut m = Model::new();
                let x = m.add_var(-10.0, 10.0);
                let y = m.add_var(-10.0, 10.0);
                m.add_constraint(x + 2.0 * y, Cmp::Eq, 3.0);
                m.add_constraint(x - y, Cmp::Eq, 0.0);
                m.set_objective(Sense::Minimize, x + y);
                m
            },
            || {
                // Free variable in an equality plus an objective constant.
                let mut m = Model::new();
                let x = m.add_var(0.0, 1.0);
                let y = m.add_var(f64::NEG_INFINITY, f64::INFINITY);
                m.add_constraint(y - 3.0 * x, Cmp::Eq, -1.0);
                m.set_objective(Sense::Maximize, 1.0 * y + 10.0);
                m
            },
            || {
                // Redundant equality rows: a frozen artificial survives.
                let mut m = Model::new();
                let x = m.add_var(0.0, 5.0);
                let y = m.add_var(0.0, 5.0);
                m.add_constraint(x + y, Cmp::Eq, 4.0);
                m.add_constraint(2.0 * x + 2.0 * y, Cmp::Eq, 8.0);
                m.set_objective(Sense::Maximize, 1.0 * x);
                m
            },
            || {
                // Degenerate vertex (several constraints meet near a point).
                let mut m = Model::new();
                let x = m.add_var(0.0, 10.0);
                let y = m.add_var(0.0, 10.0);
                m.add_constraint(x + y, Cmp::Le, 1.0);
                m.add_constraint(x + 2.0 * y, Cmp::Le, 1.0);
                m.add_constraint(2.0 * x + y, Cmp::Le, 1.0);
                m.set_objective(Sense::Maximize, x + y);
                m
            },
            || {
                // An interval pair the LU engine folds into one range row.
                let mut m = Model::new();
                let x = m.add_var(-2.0, 2.0);
                let y = m.add_var(-2.0, 2.0);
                m.add_constraint(x + y, Cmp::Le, 1.5);
                m.add_constraint(x + y, Cmp::Ge, -0.5);
                m.set_objective(Sense::Maximize, 2.0 * x - y);
                m
            },
        ];
        for (i, mk) in build.iter().enumerate() {
            let m = mk();
            let dense = m
                .solve_with(&opts(Engine::Dense))
                .unwrap_or_else(|e| panic!("case {i} dense: {e}"));
            let sparse = m
                .solve_with(&opts(Engine::Lu))
                .unwrap_or_else(|e| panic!("case {i} lu: {e}"));
            assert!(
                (sparse.objective - dense.objective).abs() < 1e-6,
                "case {i}: lu {} vs dense {}",
                sparse.objective,
                dense.objective
            );
        }
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(2.0 * x, Cmp::Ge, 3.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(
            m.solve_with(&opts(Engine::Lu)).unwrap_err(),
            SolveError::Infeasible
        );

        let mut m = Model::new();
        let x = m.add_var(0.0, f64::INFINITY);
        let y = m.add_var(0.0, f64::INFINITY);
        m.add_constraint(x - y, Cmp::Le, 1.0);
        m.set_objective(Sense::Maximize, x + y);
        assert_eq!(
            m.solve_with(&opts(Engine::Lu)).unwrap_err(),
            SolveError::Unbounded
        );
    }

    /// A crossed `≤`/`≥` pair (`rhs_le < rhs_ge`) is trivially infeasible;
    /// folding must leave it alone so phase 1 reports the infeasibility like
    /// the dense engine (a folded slack with `hi < lo` would be rejected for
    /// the wrong reason).
    #[test]
    fn crossed_range_pair_stays_infeasible() {
        for engine in [Engine::Lu, Engine::Dense] {
            let mut m = Model::new();
            let x = m.add_var(-5.0, 5.0);
            let y = m.add_var(-5.0, 5.0);
            m.add_constraint(x + y, Cmp::Le, 1.0);
            m.add_constraint(x + y, Cmp::Ge, 2.0);
            m.set_objective(Sense::Maximize, 1.0 * x);
            assert_eq!(
                m.solve_with(&opts(engine)).unwrap_err(),
                SolveError::Infeasible,
                "{engine:?}"
            );
        }
    }

    /// The skeleton compiler folds exactly the adjacent identical-term
    /// `≤`/`≥` pairs and nothing else.
    #[test]
    fn skeleton_folds_range_pairs() {
        let (m, _) = range_band_lp(10, 3, 0xF01D);
        let folded = Skeleton::build(&m);
        assert_eq!(folded.m(), 10, "every pair folds: {}", folded.m());

        // A crossed pair must not fold.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(2.0 * x, Cmp::Le, 0.0);
        m.add_constraint(2.0 * x, Cmp::Ge, 1.0);
        assert_eq!(Skeleton::build(&m).m(), 2);

        // Differing terms must not fold.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        let y = m.add_var(0.0, 1.0);
        m.add_constraint(x + y, Cmp::Le, 1.0);
        m.add_constraint(x + 2.0 * y, Cmp::Ge, 0.0);
        assert_eq!(Skeleton::build(&m).m(), 2);
    }

    /// Range folding is an internal reformulation: the LU engine must reach
    /// the same optimum as the unfolded dense engine on interval-row models.
    #[test]
    fn range_folding_matches_unfolded_engines() {
        for seed in [0x11u64, 0x22, 0x33] {
            let (m, _) = range_band_lp(24, 4, seed);
            let dense = m.solve_with(&opts(Engine::Dense)).expect("dense solves");
            let lu = m.solve_with(&opts(Engine::Lu)).expect("lu solves");
            assert_close(lu.objective, dense.objective);
            for (a, b) in lu.values().iter().zip(dense.values()) {
                assert!(
                    (a - b).abs() < 1e-6,
                    "seed {seed}: values diverged {a} vs {b}"
                );
            }
        }
    }

    /// The LU engine and the dense oracle must agree on plain band problems
    /// too — same optimum, same returned point.
    #[test]
    fn lu_and_dense_engines_agree_on_band_problems() {
        for seed in [1u64, 0xBEEF, 0xD00D] {
            let (m, _) = band_lp(50, 5, seed);
            let dense = m.solve_with(&opts(Engine::Dense)).expect("dense solves");
            let lu = m.solve_with(&opts(Engine::Lu)).expect("lu solves");
            assert_close(lu.objective, dense.objective);
            for (a, b) in lu.values().iter().zip(dense.values()) {
                assert!(
                    (a - b).abs() < 1e-6,
                    "seed {seed}: values diverged {a} vs {b}"
                );
            }
        }
    }

    /// A problem whose optimum is reached purely by bound-to-bound flips:
    /// the slack row never binds, so no basis change (pivot) is needed —
    /// the bounded-variable method must notice and report zero pivots.
    #[test]
    fn bound_flips_alone_reach_the_optimum() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.add_var(-1.0, 1.0)).collect();
        let e = LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0)), 0.0);
        m.add_constraint(e, Cmp::Le, 1000.0);
        let obj = LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0)), 0.0);
        m.set_objective(Sense::Maximize, obj);
        let sol = m.solve_with(&opts(Engine::Lu)).expect("solves");
        assert_close(sol.objective, 12.0);
        assert_eq!(sol.stats.pivots, 0, "{:?}", sol.stats);
    }

    /// The refactorization-equivalence property: rebuilding the
    /// factorization after *every* pivot must reach the same optimum as the
    /// lazy default — refactorization is a representation change, never a
    /// semantic one.
    #[test]
    fn refactorization_is_equivalence_preserving() {
        let (m, _) = band_lp(40, 5, 0xE7A);
        let lazy = m.solve_with(&opts(Engine::Lu)).expect("lazy solves");
        let eager = refactor_every(1, || m.solve_with(&opts(Engine::Lu))).expect("eager solves");
        assert_close(eager.objective, lazy.objective);
        assert!(
            eager.stats.refactorizations > 0,
            "interval 1 never refactorized: {:?}",
            eager.stats
        );
        assert!(
            lazy.stats.refactorizations < eager.stats.refactorizations,
            "lazy path refactorized as often as eager: {:?} vs {:?}",
            lazy.stats,
            eager.stats
        );
        // Values agree too, not just objectives.
        for (a, b) in eager.values().iter().zip(lazy.values()) {
            assert!((a - b).abs() < 1e-6, "values diverged: {a} vs {b}");
        }
    }

    /// Same property across a warm-started sweep: per-pivot refactorization
    /// inside resident reoptimization changes nothing observable.
    #[test]
    fn refactorization_equivalence_across_warm_sweeps() {
        let objectives: Vec<(Sense, Vec<f64>)> = {
            let mut next = rng(77);
            (0..6)
                .map(|i| {
                    let sense = if i % 2 == 0 {
                        Sense::Minimize
                    } else {
                        Sense::Maximize
                    };
                    (sense, (0..30).map(|_| next()).collect())
                })
                .collect()
        };
        let run = || -> Vec<f64> {
            let (mut m, vars) = band_lp(30, 4, 0xBEE);
            let o = opts(Engine::Lu);
            let mut batch = BatchSolver::new(&mut m);
            objectives
                .iter()
                .map(|(sense, cs)| {
                    let e = LinExpr::from_terms(vars.iter().copied().zip(cs.iter().copied()), 0.0);
                    batch.solve(*sense, e, &o).expect("solves").objective
                })
                .collect()
        };
        let lazy = run();
        let eager = refactor_every(1, run);
        for (a, b) in eager.iter().zip(&lazy) {
            assert!((a - b).abs() < 1e-6, "sweep diverged: {a} vs {b}");
        }
    }

    #[test]
    fn sweep_warm_starts_and_reports_engine_stats() {
        let (mut m, vars) = band_lp(60, 5, 0x5EED);
        let nnz_expected = {
            let mat = super::SparseMatrix::from_model(&m);
            mat.nnz() as u64
        };
        let o = opts(Engine::Lu);
        let mut batch = BatchSolver::new(&mut m);
        let mut last = None;
        for k in 0..8 {
            let e = LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0 + k as f64 * 0.1)), 0.0);
            let sense = if k % 2 == 0 {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            last = Some(batch.solve(sense, e, &o).expect("solves"));
        }
        let stats = batch.stats();
        assert!(stats.warm_hits >= 6, "expected warm hits, got {stats:?}");
        let sol = last.expect("at least one solve");
        assert_eq!(sol.stats.nnz, nnz_expected, "nnz not reported");
        assert!(sol.stats.eta_len > 0, "eta length not reported");
    }

    /// The injected telemetry clock fills the timing counters; without one
    /// they stay zero (the kernel itself is clock-free).
    #[test]
    fn telemetry_clock_fills_timing_counters() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let (m, _) = band_lp(40, 5, 0x71C);
        let ticks = Arc::new(AtomicU64::new(0));
        let t = ticks.clone();
        let o = SolveOptions {
            telemetry: Some(crate::TelemetryClock::new(move || {
                // Deterministic fake clock: one "nanosecond" per read.
                t.fetch_add(1, Ordering::Relaxed)
            })),
            ..opts(Engine::Lu)
        };
        let timed = m.solve_with(&o).expect("solves");
        assert!(
            timed.stats.ftran_btran_time_ns > 0,
            "no solve time recorded: {:?}",
            timed.stats
        );
        assert!(timed.stats.lu_fill_nnz > 0, "no LU fill: {:?}", timed.stats);
        let untimed = m.solve_with(&opts(Engine::Lu)).expect("solves");
        assert_eq!(untimed.stats.ftran_btran_time_ns, 0);
        assert_eq!(untimed.stats.refactor_time_ns, 0);
        assert_close(timed.objective, untimed.objective);
    }

    /// The eta file on top of real factors: a random banded basis is
    /// factorized once, then `3m` pivots replace its columns through
    /// [`super::EtaFile::push_from_column`] with no refactorization, and
    /// after each one [`super::Inverse`]'s FTRAN and BTRAN must solve
    /// against a dense multiply of the basis built so far.
    #[test]
    fn eta_file_on_real_factors_tracks_the_exact_basis() {
        use super::{EtaFile, Inverse};
        use crate::lu::tests::{from_dense, heading, mul, random_cols};
        use crate::lu::LuFactors;
        for seed in [2u64, 19, 101] {
            let m = 14;
            let mut cols = random_cols(m, seed);
            let (ptr, entries, weight) = from_dense(&cols);
            let lu = LuFactors::factorize(m, &ptr, &entries, &weight, 1e-9).expect("non-singular");
            let h = heading(&lu, m);
            let mut inv = Inverse {
                lu,
                etas: EtaFile::new(),
            };
            let mut next = rng(seed ^ 0xC0FFEE);
            for step in 0..3 * m {
                // The entering column: a band somewhere in the basis plus a
                // strong entry at the leaving row, so the pivot stays large.
                let row = (step * 7 + 3) % m;
                let col: Vec<f64> = (0..m)
                    .map(|r| {
                        if r == row {
                            next() + 2.5
                        } else if r.abs_diff((step * 5) % m) <= 3 {
                            next()
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let mut w = col.clone();
                inv.ftran(&mut w);
                inv.etas.push_from_column(row, &w);
                cols[h[row]] = col;

                let b: Vec<f64> = (0..m).map(|_| next()).collect();
                let mut x = b.clone();
                inv.ftran(&mut x);
                for (a, e) in mul(&cols, &h, &x).iter().zip(&b) {
                    assert!(
                        (a - e).abs() < 1e-7,
                        "seed {seed} step {step}: B·x = {a}, want {e}"
                    );
                }
                let c: Vec<f64> = (0..m).map(|_| next()).collect();
                let mut y = c.clone();
                inv.btran(&mut y);
                for (r, &j) in h.iter().enumerate() {
                    let dot: f64 = cols[j].iter().zip(&y).map(|(a, b)| a * b).sum();
                    assert!(
                        (dot - c[r]).abs() < 1e-7,
                        "seed {seed} step {step} row {r}: y·B = {dot}, want {}",
                        c[r]
                    );
                }
            }
            assert_eq!(inv.etas.len(), 3 * m);
        }
    }

    #[test]
    fn large_band_problem_solves_within_pivot_budget() {
        // A conv-window-sized skeleton: 220 rows, bandwidth 7. The dense
        // engine pays O(m·ncols) per pivot here; the sparse engine must
        // still agree with it exactly.
        let (m, _) = band_lp(220, 7, 0xC06);
        let dense = m.solve_with(&opts(Engine::Dense)).expect("dense solves");
        let sparse = m.solve_with(&opts(Engine::Lu)).expect("sparse solves");
        assert_close(sparse.objective, dense.objective);
    }
}
