//! Sparse LU factorization of the simplex basis, with Forrest–Tomlin
//! column-replacement updates.
//!
//! The [`crate::sparse`] engine's `Engine::Lu` variant represents the basis
//! inverse as `B = L̃·U` maintained by this module: a sparse LU
//! factorization refreshed only occasionally, kept current between
//! refactorizations by replacing one column of `U` per pivot — when the
//! engine judges that cheap ([`LuFactors::replace_cost`]); pivots with long
//! `U`-tails fold in as product-form etas *on top of* the factors instead,
//! managed by the engine. A freshly created factorization
//! ([`LuFactors::identity`]) is the trivial `diag(±1)` slack basis and
//! short-circuits both solves to sign flips until the first real
//! factorization ([`LuFactors::refactor`], which rebuilds the factors in
//! place, reusing their arrays). The
//! factorization is left-looking over the basis columns in the order the
//! caller supplies (unit columns first, then structural columns by ascending
//! non-zero count — a static Markowitz-style fill-reducing order), with
//! **threshold partial pivoting** for stability: among the unpivoted rows of
//! the eliminated column, any row whose magnitude is at least
//! `PIVOT_THRESHOLD` of the column maximum is acceptable, and the sparsest
//! such row (fewest non-zeros across the basis columns, ties to the lowest
//! row index — the Markowitz tie-break) is chosen. That trades a bounded
//! growth factor for markedly less fill than strict partial pivoting, while
//! never accepting a pivot smaller than a fixed fraction of the best
//! available one.
//!
//! `L` and `U` are stored column-ordered in flat CSC-style arrays. `L` is
//! unit lower triangular *up to the row permutation* and static between
//! refactorizations: column `t` holds the multipliers (in original row
//! indices) produced when elimination position `t` pivoted on row
//! `pivot_row[t]`. `U` column `k` holds the entries at positions `t < k`,
//! with the diagonal kept separate for the divisions FTRAN/BTRAN do per
//! position. `U`'s position ↔ basis-row pairing starts equal to `L`'s
//! (`u_row == pivot_row`) and diverges as updates land.
//!
//! **Forrest–Tomlin update** ([`LuFactors::replace_column`]): when the
//! simplex pivots, the basis changes by one column, so `U` changes by one
//! column — the *spike* `L̃⁻¹·a_q`, captured by [`LuFactors::ftran`] on its
//! way through. The spiked column is moved to the last position (a cyclic
//! permutation of the positions it crossed) and the displaced row of `U` is
//! eliminated against the diagonals it runs over; each elimination is
//! recorded as a row eta applied between `L` and `U`. The eta file grows by
//! the non-zeros of *one row of `U`* per pivot — versus a whole transformed
//! column under product-form updates — which is what keeps FTRAN/BTRAN cost
//! from growing linearly with the pivot count on long runs.
//!
//! Everything is deterministic: pivot choice and update arithmetic are pure
//! functions of the column data and tie-break order, so a factorization is
//! bit-reproducible run to run — the property the golden ε̄ bit-locks rest
//! on.

use crate::kernel;

/// Threshold-pivoting acceptance factor: a pivot candidate must be at least
/// this fraction of the column's maximum unpivoted magnitude.
const PIVOT_THRESHOLD: f64 = 0.1;

/// A sparse LU factorization `B = L̃·U` of the current basis: static `L`
/// factors plus the Forrest–Tomlin row-eta file on the `L` side, and a `U`
/// that updates in place as basis columns are replaced.
#[derive(Clone, Debug)]
pub(crate) struct LuFactors {
    m: usize,
    /// Column `t` of `L`: multipliers at original row indices.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// Column `k` of `U`: entries at positions `t < k` (position indices).
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    /// `U[k,k]`, the pivot magnitude of position `k`.
    u_diag: Vec<f64>,
    /// `L`'s elimination position → original basis row (static).
    pivot_row: Vec<usize>,
    /// `U`'s position → basis row. Equal to `pivot_row` at refactorization;
    /// cyclically permuted by every Forrest–Tomlin update.
    u_row: Vec<usize>,
    /// Basis row → `U` position (inverse of `u_row`).
    pos_of_row: Vec<usize>,
    /// Forrest–Tomlin row etas, grouped one group per column replacement:
    /// group `g` subtracts `ft_mul[e]·v[ft_src[e]]` from `v[ft_target[g]]`
    /// for `e` in `ft_ptr[g]..ft_ptr[g+1]` (all rows, stable across later
    /// updates).
    ft_target: Vec<usize>,
    ft_ptr: Vec<usize>,
    ft_src: Vec<usize>,
    ft_mul: Vec<f64>,
    /// Column replacements applied since the factorization was built.
    updates: usize,
    /// Stored non-zeros right after factorization — the baseline the
    /// fill-growth refactorization trigger measures against.
    base_nnz: usize,
    /// The `L̃⁻¹`-stage vector of the most recent [`Self::ftran`] (row
    /// space): exactly the Forrest–Tomlin spike when that FTRAN was the
    /// entering column's.
    spike: Vec<f64>,
    /// BTRAN scratch, position-indexed.
    work: Vec<f64>,
    /// Update scratch: stashed tail columns of `U`.
    tail_ptr: Vec<usize>,
    tail_idx: Vec<usize>,
    tail_val: Vec<f64>,
    /// Update scratch: partial row-wise copy of `U` for the eliminations.
    csr_ptr: Vec<usize>,
    csr_idx: Vec<usize>,
    csr_val: Vec<f64>,
    /// Update scratch: dense accumulator for the displaced row (all zeros
    /// between updates).
    acc: Vec<f64>,
    /// `Some(neg_rows)` while the factors are still the pristine
    /// `diag(±1)` starting basis from [`Self::identity`]: both solves
    /// reduce to sign flips at these rows, costing `O(neg_rows)` instead of
    /// two dense position sweeps. Cleared by [`Self::refactor`] and
    /// [`Self::replace_column`].
    trivial: Option<Vec<usize>>,
    /// Work areas of [`Self::refactor`], kept so that refactorizing into a
    /// reused factor buffer allocates nothing once its sizes are reached.
    scratch: FactorScratch,
}

/// The elimination's work areas (see [`LuFactors::refactor`]), reset at
/// the start of every factorization.
#[derive(Clone, Debug, Default)]
struct FactorScratch {
    /// Original row → elimination position, `usize::MAX` while unpivoted.
    pos_of_row: Vec<usize>,
    x: Vec<f64>,
    reach: Vec<usize>,
    fill: Vec<usize>,
    in_reach: Vec<bool>,
    in_fill: Vec<bool>,
    /// Depth-first stack of `(position, edge cursor)`.
    stack: Vec<(usize, usize)>,
}

impl LuFactors {
    fn finish_init(&mut self) {
        self.u_row.clear();
        self.u_row.extend_from_slice(&self.pivot_row);
        self.pos_of_row.clear();
        self.pos_of_row.resize(self.m, 0);
        for (k, &r) in self.u_row.iter().enumerate() {
            self.pos_of_row[r] = k;
        }
        self.spike.clear();
        self.spike.resize(self.m, 0.0);
        self.acc.clear();
        self.acc.resize(self.m, 0.0);
        self.base_nnz = self.l_val.len() + self.u_val.len() + self.m;
    }

    /// The factorization of `diag(±1)`: identity permutation, empty `L`/`U`
    /// fill, `-1` diagonals at `neg_rows`. This is the exact starting basis
    /// of a fresh two-phase solve (slacks and signed artificials).
    pub(crate) fn identity(m: usize, neg_rows: &[usize]) -> Self {
        let mut u_diag = vec![1.0f64; m];
        for &r in neg_rows {
            u_diag[r] = -1.0;
        }
        let mut lu = LuFactors {
            m,
            l_ptr: vec![0; m + 1],
            l_idx: Vec::new(),
            l_val: Vec::new(),
            u_ptr: vec![0; m + 1],
            u_idx: Vec::new(),
            u_val: Vec::new(),
            u_diag,
            pivot_row: (0..m).collect(),
            u_row: Vec::new(),
            pos_of_row: Vec::new(),
            ft_target: Vec::new(),
            ft_ptr: vec![0],
            ft_src: Vec::new(),
            ft_mul: Vec::new(),
            updates: 0,
            base_nnz: 0,
            spike: Vec::new(),
            work: vec![0.0; m],
            tail_ptr: Vec::new(),
            tail_idx: Vec::new(),
            tail_val: Vec::new(),
            csr_ptr: Vec::new(),
            csr_idx: Vec::new(),
            csr_val: Vec::new(),
            acc: Vec::new(),
            trivial: Some(neg_rows.to_vec()),
            scratch: FactorScratch::default(),
        };
        lu.finish_init();
        lu
    }

    /// A fresh factor buffer refactorized once ([`Self::refactor`]);
    /// `None` on a singular basis.
    #[cfg(test)]
    pub(crate) fn factorize(
        m: usize,
        col_ptr: &[usize],
        entries: &[(usize, f64)],
        row_weight: &[usize],
        pivot_tol: f64,
    ) -> Option<Self> {
        let mut lu = Self::identity(0, &[]);
        lu.refactor(m, col_ptr, entries, row_weight, pivot_tol)
            .then_some(lu)
    }

    /// Factorizes, into this buffer, the `m × m` basis matrix whose column
    /// `k` is `entries[col_ptr[k]..col_ptr[k+1]]` (original row index,
    /// value).
    /// `row_weight[r]` is the Markowitz tie-break weight of row `r`
    /// (its non-zero count across the basis columns). Returns `false` when
    /// some column admits no pivot above `pivot_tol` — a singular basis,
    /// which callers treat exactly like a failed refactorization (warm
    /// restores reject, mid-solve callers repair).
    ///
    /// Every array the buffer already owns is reused, so refactorizing a
    /// core node after node allocates nothing once the sizes are reached.
    /// After `false` the buffer holds no usable factorization.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        col_ptr: &[usize],
        entries: &[(usize, f64)],
        row_weight: &[usize],
        pivot_tol: f64,
    ) -> bool {
        self.m = m;
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_idx.clear();
        self.l_val.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_idx.clear();
        self.u_val.clear();
        self.u_diag.clear();
        self.pivot_row.clear();
        self.ft_target.clear();
        self.ft_ptr.clear();
        self.ft_ptr.push(0);
        self.ft_src.clear();
        self.ft_mul.clear();
        self.updates = 0;
        self.work.clear();
        self.work.resize(m, 0.0);
        self.trivial = None;
        let mut fs = std::mem::take(&mut self.scratch);
        fs.pos_of_row.clear();
        fs.pos_of_row.resize(m, usize::MAX);
        fs.x.clear();
        fs.x.resize(m, 0.0);
        fs.in_reach.clear();
        fs.in_reach.resize(m, false);
        fs.in_fill.clear();
        fs.in_fill.resize(m, false);
        fs.stack.clear();
        let ok = self.eliminate(&mut fs, col_ptr, entries, row_weight, pivot_tol);
        self.scratch = fs;
        if ok {
            self.finish_init();
        }
        ok
    }

    /// The left-looking elimination behind [`Self::refactor`], over freshly
    /// reset factors and work areas.
    fn eliminate(
        &mut self,
        fs: &mut FactorScratch,
        col_ptr: &[usize],
        entries: &[(usize, f64)],
        row_weight: &[usize],
        pivot_tol: f64,
    ) -> bool {
        let m = self.m;
        let FactorScratch {
            pos_of_row,
            x,
            reach,
            fill,
            in_reach,
            in_fill,
            stack,
        } = fs;
        // Gilbert–Peierls work areas. `reach` holds the already-pivoted
        // positions this column's elimination can touch (symbolic closure
        // over the L pattern), `fill` the unpivoted rows that can end up
        // non-zero — together the exact support of the dense sweep, so the
        // loop below performs the *same* floating-point operations in the
        // same order as eliminating over all positions, at sparse cost.
        for k in 0..m {
            reach.clear();
            fill.clear();
            for &(r, v) in &entries[col_ptr[k]..col_ptr[k + 1]] {
                x[r] = v;
                let t = pos_of_row[r];
                if t == usize::MAX {
                    if !in_fill[r] {
                        in_fill[r] = true;
                        fill.push(r);
                    }
                    continue;
                }
                if in_reach[t] {
                    continue;
                }
                // Depth-first closure: an L column at position `t` scatters
                // into rows that are either still unpivoted (fill) or were
                // pivoted at some later position `t' > t` (recurse).
                in_reach[t] = true;
                stack.push((t, self.l_ptr[t]));
                while let Some(top) = stack.last_mut() {
                    let t = top.0;
                    let e1 = self.l_ptr[t + 1];
                    let mut child: Option<usize> = None;
                    while top.1 < e1 {
                        let rr = self.l_idx[top.1];
                        top.1 += 1;
                        let tt = pos_of_row[rr];
                        if tt == usize::MAX {
                            if !in_fill[rr] {
                                in_fill[rr] = true;
                                fill.push(rr);
                            }
                        } else if !in_reach[tt] {
                            in_reach[tt] = true;
                            child = Some(tt);
                            break;
                        }
                    }
                    match child {
                        Some(tt) => stack.push((tt, self.l_ptr[tt])),
                        None => {
                            reach.push(t);
                            stack.pop();
                        }
                    }
                }
            }
            // Ascending position order is a topological order (L columns
            // only scatter into positions pivoted later), and matches the
            // dense sweep's `0..k` order exactly.
            reach.sort_unstable();
            for &t in reach.iter() {
                let xt = x[self.pivot_row[t]];
                if xt != 0.0 {
                    let (e0, e1) = (self.l_ptr[t], self.l_ptr[t + 1]);
                    kernel::scatter_sub(x, &self.l_idx[e0..e1], &self.l_val[e0..e1], xt);
                }
            }
            // Threshold partial pivoting over the unpivoted rows: only rows
            // in `fill` can be non-zero, and the ascending scan preserves
            // the dense version's lowest-row tie-break among equal weights.
            fill.sort_unstable();
            let mut max_mag = 0.0f64;
            for &r in fill.iter() {
                max_mag = max_mag.max(x[r].abs());
            }
            if max_mag <= pivot_tol {
                return false;
            }
            let acceptable = PIVOT_THRESHOLD * max_mag;
            let mut best: Option<(usize, usize)> = None; // (weight, row)
            for &r in fill.iter() {
                if x[r].abs() >= acceptable {
                    let w = row_weight[r];
                    if best.is_none_or(|(bw, _)| w < bw) {
                        best = Some((w, r));
                    }
                }
            }
            let (_, piv) = best.expect("max_mag > pivot_tol guarantees a candidate");
            let pd = x[piv];
            // U column: entries at already-pivoted positions.
            for &t in reach.iter() {
                let v = x[self.pivot_row[t]];
                if v != 0.0 {
                    self.u_idx.push(t);
                    self.u_val.push(v);
                }
            }
            self.u_ptr.push(self.u_idx.len());
            self.u_diag.push(pd);
            // L column: multipliers at the remaining unpivoted rows.
            for &r in fill.iter() {
                if r != piv && x[r] != 0.0 {
                    self.l_idx.push(r);
                    self.l_val.push(x[r] / pd);
                }
            }
            self.l_ptr.push(self.l_idx.len());
            self.pivot_row.push(piv);
            pos_of_row[piv] = k;
            for &t in reach.iter() {
                x[self.pivot_row[t]] = 0.0;
                in_reach[t] = false;
            }
            for &r in fill.iter() {
                x[r] = 0.0;
                in_fill[r] = false;
            }
        }
        true
    }

    /// Elimination position → original basis row: `basis[pivot_row[k]]` is
    /// the column this factorization eliminated at position `k`. Only
    /// meaningful right after [`Self::refactor`] (updates re-pair `U`'s
    /// positions but the caller's heading tracks rows, not positions).
    pub(crate) fn pivot_rows(&self) -> &[usize] {
        &self.pivot_row
    }

    /// Stored non-zeros of the factors (`L` fill + `U` fill + diagonal +
    /// update etas) — the fill measure behind `Stats::lu_fill_nnz`.
    pub(crate) fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.m + self.ft_mul.len()
    }

    /// Column replacements applied since the factorization was built.
    pub(crate) fn update_len(&self) -> usize {
        self.updates
    }

    /// Fill accumulated since factorization (update-eta entries plus net `U`
    /// growth) — the measured growth the refactorization trigger watches.
    pub(crate) fn update_fill(&self) -> usize {
        self.nnz().saturating_sub(self.base_nnz)
    }

    /// Stored `U` entries strictly past `leaving_row`'s position — the tail
    /// a [`Self::replace_column`] for that row would have to rewrite, and
    /// therefore its cost (the spike itself is already in hand). `0` when
    /// the leaving column is the last position, the free case.
    pub(crate) fn replace_cost(&self, leaving_row: usize) -> usize {
        let p = self.pos_of_row[leaving_row];
        self.u_idx.len() - self.u_ptr[p + 1]
    }

    /// Whether the factors are still the pristine `diag(±1)` starting basis
    /// — solves are sign flips and no spike is captured, so pivots must
    /// fold into the product-form file, never via [`Self::replace_column`].
    pub(crate) fn is_trivial(&self) -> bool {
        self.trivial.is_some()
    }

    /// `v ← B⁻¹·v` in place, `v` indexed by basis row: forward L-solve in
    /// the pivot order, the Forrest–Tomlin row etas in application order,
    /// then the backward U-solve, writing the coefficient of the column at
    /// position `k` into `v[u_row[k]]`. The intermediate `L̃⁻¹`-stage vector
    /// is saved as the next update's spike.
    pub(crate) fn ftran(&mut self, v: &mut [f64]) {
        if let Some(negs) = &self.trivial {
            for &r in negs {
                v[r] = -v[r];
            }
            return;
        }
        for t in 0..self.m {
            let xt = v[self.pivot_row[t]];
            if xt != 0.0 {
                let (e0, e1) = (self.l_ptr[t], self.l_ptr[t + 1]);
                kernel::scatter_sub(v, &self.l_idx[e0..e1], &self.l_val[e0..e1], xt);
            }
        }
        for g in 0..self.ft_target.len() {
            let (e0, e1) = (self.ft_ptr[g], self.ft_ptr[g + 1]);
            v[self.ft_target[g]] -=
                kernel::dot_gather(v, &self.ft_src[e0..e1], &self.ft_mul[e0..e1]);
        }
        self.spike.copy_from_slice(v);
        for k in (0..self.m).rev() {
            let s = v[self.u_row[k]];
            if s != 0.0 {
                let z = s / self.u_diag[k];
                v[self.u_row[k]] = z;
                let (e0, e1) = (self.u_ptr[k], self.u_ptr[k + 1]);
                kernel::scatter_sub_mapped(
                    v,
                    &self.u_row,
                    &self.u_idx[e0..e1],
                    &self.u_val[e0..e1],
                    z,
                );
            }
        }
    }

    /// `yᵀ ← yᵀ·B⁻¹` in place, `y` indexed by basis row: a forward
    /// `Uᵀ`-solve into position space, the transposed update etas in reverse
    /// order, then the backward `Lᵀ`-solve.
    pub(crate) fn btran(&mut self, y: &mut [f64]) {
        if let Some(negs) = &self.trivial {
            for &r in negs {
                y[r] = -y[r];
            }
            return;
        }
        for k in 0..self.m {
            let (e0, e1) = (self.u_ptr[k], self.u_ptr[k + 1]);
            let s = y[self.u_row[k]]
                - kernel::dot_gather(&self.work, &self.u_idx[e0..e1], &self.u_val[e0..e1]);
            self.work[k] = if s != 0.0 { s / self.u_diag[k] } else { 0.0 };
        }
        for k in 0..self.m {
            y[self.u_row[k]] = self.work[k];
        }
        for g in (0..self.ft_target.len()).rev() {
            let t = y[self.ft_target[g]];
            if t != 0.0 {
                let (e0, e1) = (self.ft_ptr[g], self.ft_ptr[g + 1]);
                kernel::scatter_sub(y, &self.ft_src[e0..e1], &self.ft_mul[e0..e1], t);
            }
        }
        for t in (0..self.m).rev() {
            let (e0, e1) = (self.l_ptr[t], self.l_ptr[t + 1]);
            let s = y[self.pivot_row[t]]
                - kernel::dot_gather(y, &self.l_idx[e0..e1], &self.l_val[e0..e1]);
            y[self.pivot_row[t]] = s;
        }
    }

    /// Forrest–Tomlin column replacement: the basis column currently paired
    /// with `leaving_row` is replaced by the column whose FTRAN just ran
    /// (its `L̃⁻¹`-stage spike was saved by [`Self::ftran`]). The spiked
    /// position is cyclically rotated to the end of `U` and the displaced
    /// `U` row is eliminated against the diagonals it crosses, appending one
    /// row-eta group. Returns `false` when the resulting diagonal is at or
    /// below `pivot_tol` — the factors are then numerically unusable and the
    /// caller must refactorize before the next solve.
    pub(crate) fn replace_column(&mut self, leaving_row: usize, pivot_tol: f64) -> bool {
        debug_assert!(
            !self.is_trivial(),
            "column replacement needs a spike, which trivial solves never capture"
        );
        let m = self.m;
        let p = self.pos_of_row[leaving_row];
        debug_assert_eq!(self.u_row[p], leaving_row);
        self.updates += 1;

        // Stash the tail columns (p+1..m) of U, then truncate to [0, p):
        // the prefix columns reference only positions < p and are untouched.
        self.tail_ptr.clear();
        self.tail_idx.clear();
        self.tail_val.clear();
        self.tail_ptr.push(0);
        for k in p + 1..m {
            for e in self.u_ptr[k]..self.u_ptr[k + 1] {
                self.tail_idx.push(self.u_idx[e]);
                self.tail_val.push(self.u_val[e]);
            }
            self.tail_ptr.push(self.tail_idx.len());
        }
        self.u_idx.truncate(self.u_ptr[p]);
        self.u_val.truncate(self.u_ptr[p]);
        self.u_ptr.truncate(p + 1);

        // Rewrite the tail shifted one position left, diverting the
        // displaced row's entries (old position p) into the accumulator.
        let mut diverted = 0usize;
        for i in 0..m - 1 - p {
            for e in self.tail_ptr[i]..self.tail_ptr[i + 1] {
                let t = self.tail_idx[e];
                if t == p {
                    self.acc[p + i] += self.tail_val[e];
                    diverted += 1;
                } else {
                    self.u_idx.push(if t < p { t } else { t - 1 });
                    self.u_val.push(self.tail_val[e]);
                }
            }
            self.u_ptr.push(self.u_idx.len());
        }
        for k in p + 1..m {
            self.u_diag[k - 1] = self.u_diag[k];
            self.u_row[k - 1] = self.u_row[k];
        }
        self.u_diag.truncate(m - 1);
        self.u_row.truncate(m - 1);
        for (k, &r) in self.u_row.iter().enumerate().skip(p) {
            self.pos_of_row[r] = k;
        }

        // Append the spike as the new last column: its entries at the
        // surviving positions sit above the diagonal; its entry at the
        // leaving row seeds the new diagonal.
        for (k, &r) in self.u_row.iter().enumerate() {
            let z = self.spike[r];
            if z != 0.0 {
                self.u_idx.push(k);
                self.u_val.push(z);
            }
        }
        self.u_ptr.push(self.u_idx.len());
        let mut d = self.spike[leaving_row];

        // The common case on the certifier's slack-heavy bases: the
        // displaced row was empty beyond its diagonal, so the spiked matrix
        // is already upper triangular and no eliminations (or row etas) are
        // needed.
        if diverted == 0 {
            self.u_diag.push(d);
            self.u_row.push(leaving_row);
            self.pos_of_row[leaving_row] = m - 1;
            return d.is_finite() && d.abs() > pivot_tol;
        }

        // Partial row-wise copy of U (rows and columns in [p, m-1), spike
        // column excluded) for the row eliminations below.
        self.csr_ptr.clear();
        self.csr_ptr.resize(m, 0);
        for k in p..m - 1 {
            for e in self.u_ptr[k]..self.u_ptr[k + 1] {
                let t = self.u_idx[e];
                if t >= p {
                    self.csr_ptr[t + 1] += 1;
                }
            }
        }
        for t in p..m - 1 {
            self.csr_ptr[t + 1] += self.csr_ptr[t];
        }
        let row_nnz = self.csr_ptr[m - 1];
        self.csr_idx.clear();
        self.csr_idx.resize(row_nnz, 0);
        self.csr_val.clear();
        self.csr_val.resize(row_nnz, 0.0);
        let mut fill = std::mem::take(&mut self.csr_ptr);
        for k in p..m - 1 {
            for e in self.u_ptr[k]..self.u_ptr[k + 1] {
                let t = self.u_idx[e];
                if t >= p {
                    self.csr_idx[fill[t]] = k;
                    self.csr_val[fill[t]] = self.u_val[e];
                    fill[t] += 1;
                }
            }
        }
        // `fill[t]` now equals the original `csr_ptr[t+1]`; shift it back so
        // row `t` spans `csr_ptr[t]..csr_ptr[t+1]` again.
        for t in (p + 1..m).rev() {
            fill[t] = fill[t - 1];
        }
        fill[p] = 0;
        self.csr_ptr = fill;

        // Eliminate the displaced row left to right. Each non-zero spends
        // one row eta; its fill lands strictly to the right and is consumed
        // by a later iteration, so the row collapses to a single diagonal.
        let eta_start = self.ft_src.len();
        for j in p..m - 1 {
            let a = self.acc[j];
            if a == 0.0 {
                continue;
            }
            self.acc[j] = 0.0;
            let mu = a / self.u_diag[j];
            self.ft_src.push(self.u_row[j]);
            self.ft_mul.push(mu);
            let lo = if j == p { 0 } else { self.csr_ptr[j] };
            for e in lo..self.csr_ptr[j + 1] {
                self.acc[self.csr_idx[e]] -= mu * self.csr_val[e];
            }
            d -= mu * self.spike[self.u_row[j]];
        }
        if self.ft_src.len() > eta_start {
            self.ft_target.push(leaving_row);
            self.ft_ptr.push(self.ft_src.len());
        }

        self.u_diag.push(d);
        self.u_row.push(leaving_row);
        self.pos_of_row[leaving_row] = m - 1;
        d.is_finite() && d.abs() > pivot_tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64 stream of values in `[-1, 1)`.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    /// Flattens dense columns into the `(col_ptr, entries, row_weight)`
    /// triple `factorize` consumes.
    fn from_dense(cols: &[Vec<f64>]) -> (Vec<usize>, Vec<(usize, f64)>, Vec<usize>) {
        let m = cols.len();
        let mut ptr = vec![0usize];
        let mut entries = Vec::new();
        let mut weight = vec![0usize; m];
        for col in cols {
            for (r, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    entries.push((r, v));
                    weight[r] += 1;
                }
            }
            ptr.push(entries.len());
        }
        (ptr, entries, weight)
    }

    /// `B·w` for dense columns in *row-heading* order: `heading[r]` names
    /// the column paired with row `r`, and `w[r]` is its coefficient.
    fn mul(cols: &[Vec<f64>], heading: &[usize], w: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (r, &j) in heading.iter().enumerate() {
            let c = w[r];
            for i in 0..m {
                out[i] += cols[j][i] * c;
            }
        }
        out
    }

    fn random_cols(m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut next = rng(seed);
        (0..m)
            .map(|j| {
                (0..m)
                    .map(|r| {
                        // Band structure plus a strong-ish diagonal so the
                        // matrix is comfortably non-singular.
                        if r.abs_diff(j) <= 2 {
                            next() + if r == j { 2.0 } else { 0.0 }
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Row `r` → basis column index, straight from the factorization.
    fn heading(lu: &LuFactors, m: usize) -> Vec<usize> {
        let mut h = vec![0usize; m];
        for (k, &r) in lu.pivot_rows().iter().enumerate() {
            h[r] = k;
        }
        h
    }

    #[test]
    fn ftran_solves_against_dense_multiply() {
        for seed in [1u64, 7, 42] {
            let m = 12;
            let cols = random_cols(m, seed);
            let (ptr, entries, weight) = from_dense(&cols);
            let mut lu =
                LuFactors::factorize(m, &ptr, &entries, &weight, 1e-9).expect("non-singular");
            let h = heading(&lu, m);
            let mut next = rng(seed ^ 0xABCD);
            let b: Vec<f64> = (0..m).map(|_| next()).collect();
            let mut w = b.clone();
            lu.ftran(&mut w);
            let back = mul(&cols, &h, &w);
            for (a, e) in back.iter().zip(&b) {
                assert!((a - e).abs() < 1e-9, "seed {seed}: B·w = {a}, want {e}");
            }
        }
    }

    #[test]
    fn btran_solves_transposed_system() {
        for seed in [3u64, 9, 77] {
            let m = 10;
            let cols = random_cols(m, seed);
            let (ptr, entries, weight) = from_dense(&cols);
            let mut lu =
                LuFactors::factorize(m, &ptr, &entries, &weight, 1e-9).expect("non-singular");
            let h = heading(&lu, m);
            let mut next = rng(seed ^ 0x5A5A);
            let c: Vec<f64> = (0..m).map(|_| next()).collect();
            let mut y = c.clone();
            lu.btran(&mut y);
            // yᵀ·B = cᵀ in row-heading order: y·B_col(r) = c[r].
            for (r, &j) in h.iter().enumerate() {
                let dot: f64 = cols[j].iter().zip(&y).map(|(a, b)| a * b).sum();
                let want = c[r];
                assert!(
                    (dot - want).abs() < 1e-9,
                    "seed {seed} row {r}: y·B = {dot}, want {want}"
                );
            }
        }
    }

    #[test]
    fn singular_basis_is_reported() {
        // Column 2 = column 0 + column 1: rank 2 in a 3×3 basis.
        let cols = vec![
            vec![1.0, 2.0, 0.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 3.0, 1.0],
        ];
        let (ptr, entries, weight) = from_dense(&cols);
        assert!(LuFactors::factorize(3, &ptr, &entries, &weight, 1e-9).is_none());
        // The zero matrix is singular from the first column.
        let zero = vec![vec![0.0; 3]; 3];
        let (ptr, entries, weight) = from_dense(&zero);
        assert!(LuFactors::factorize(3, &ptr, &entries, &weight, 1e-9).is_none());
    }

    #[test]
    fn threshold_pivoting_survives_near_degenerate_diagonal() {
        // The classic partial-pivoting stress case: a tiny diagonal entry
        // whose naive use as pivot produces multipliers ~1e12 and destroys
        // every digit. Threshold pivoting must swap away from it.
        let eps = 1e-12;
        let cols = vec![vec![eps, 1.0], vec![1.0, 1.0]];
        let (ptr, entries, weight) = from_dense(&cols);
        let mut lu = LuFactors::factorize(2, &ptr, &entries, &weight, 1e-9).expect("non-singular");
        let h = heading(&lu, 2);
        let b = vec![1.0, 2.0];
        let mut w = b.clone();
        lu.ftran(&mut w);
        let back = mul(&cols, &h, &w);
        for (a, e) in back.iter().zip(&b) {
            assert!((a - e).abs() < 1e-9, "B·w = {a}, want {e}");
        }
        // Exact solution: x ≈ 1, y ≈ 1 (up to O(eps)); an unpivoted
        // elimination would report garbage here.
        let x = w[lu.pivot_row[0]];
        let y = w[lu.pivot_row[1]];
        assert!(
            (x - 1.0).abs() < 1e-6 && (y - 1.0).abs() < 1e-6,
            "({x}, {y})"
        );
    }

    #[test]
    fn identity_with_signs_round_trips() {
        let mut lu = LuFactors::identity(4, &[1, 3]);
        let mut v = vec![2.0, 3.0, -1.0, 5.0];
        lu.ftran(&mut v);
        assert_eq!(v, vec![2.0, -3.0, -1.0, -5.0]);
        let mut y = vec![1.0, 1.0, 1.0, 1.0];
        lu.btran(&mut y);
        assert_eq!(y, vec![1.0, -1.0, 1.0, -1.0]);
    }

    /// Replaces the basis column paired with `row` by `col`, via the same
    /// FTRAN-then-update sequence the simplex engine performs.
    fn ft_replace(lu: &mut LuFactors, cols: &mut [Vec<f64>], h: &[usize], row: usize, col: &[f64]) {
        let mut w = col.to_vec();
        lu.ftran(&mut w);
        assert!(
            lu.replace_column(row, 1e-9),
            "replacement basis stays factorizable"
        );
        cols[h[row]] = col.to_vec();
    }

    #[test]
    fn forrest_tomlin_updates_track_the_exact_basis() {
        for seed in [2u64, 19, 101] {
            let m = 14;
            let mut cols = random_cols(m, seed);
            let (ptr, entries, weight) = from_dense(&cols);
            let mut lu =
                LuFactors::factorize(m, &ptr, &entries, &weight, 1e-9).expect("non-singular");
            let h = heading(&lu, m);
            let mut next = rng(seed ^ 0xC0FFEE);
            // A long run of column replacements with no refactorization:
            // every few updates, check FTRAN and BTRAN against the dense
            // basis the replacements built.
            for step in 0..3 * m {
                let row = (step * 7 + 3) % m;
                let col: Vec<f64> = (0..m)
                    .map(|r| {
                        let band = r.abs_diff((step * 5) % m) <= 3;
                        if band || r == row {
                            next() + if r == row { 2.5 } else { 0.0 }
                        } else {
                            0.0
                        }
                    })
                    .collect();
                ft_replace(&mut lu, &mut cols, &h, row, &col);

                let b: Vec<f64> = (0..m).map(|_| next()).collect();
                let mut w = b.clone();
                lu.ftran(&mut w);
                let back = mul(&cols, &h, &w);
                for (a, e) in back.iter().zip(&b) {
                    assert!(
                        (a - e).abs() < 1e-7,
                        "seed {seed} step {step}: B·w = {a}, want {e}"
                    );
                }
                let c: Vec<f64> = (0..m).map(|_| next()).collect();
                let mut y = c.clone();
                lu.btran(&mut y);
                for (r, &j) in h.iter().enumerate() {
                    let dot: f64 = cols[j].iter().zip(&y).map(|(a, b)| a * b).sum();
                    assert!(
                        (dot - c[r]).abs() < 1e-7,
                        "seed {seed} step {step} row {r}: y·B = {dot}, want {}",
                        c[r]
                    );
                }
            }
            assert_eq!(lu.update_len(), 3 * m);
            assert!(lu.update_fill() > 0, "updates should be measurable");
        }
    }

    #[test]
    fn singular_replacement_is_rejected() {
        let m = 6;
        let cols = random_cols(m, 11);
        let (ptr, entries, weight) = from_dense(&cols);
        let mut lu = LuFactors::factorize(m, &ptr, &entries, &weight, 1e-9).expect("non-singular");
        let h = heading(&lu, m);
        // Replacing the column paired with row 2 by the basis column paired
        // with row 4 duplicates a column: the new basis is exactly singular.
        let dup = cols[h[4]].clone();
        let mut w = dup.clone();
        lu.ftran(&mut w);
        assert!(
            !lu.replace_column(2, 1e-9),
            "duplicate column must be flagged singular"
        );
    }
}
