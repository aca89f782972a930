//! Sparse LU factorization of the simplex basis.
//!
//! The [`crate::sparse`] engine's `Engine::Lu` variant represents the basis
//! inverse as the LU factors this module builds plus a product-form eta file
//! on top of them, managed by the engine. The factors are static between
//! refactorizations: every pivot since the last one lives in the eta file.
//! A freshly created factorization ([`LuFactors::identity`]) is the trivial
//! `diag(±1)` slack basis and short-circuits both solves to sign flips until
//! the first real factorization ([`LuFactors::refactor`], which rebuilds the
//! factors in place, reusing their arrays). The factorization is
//! left-looking over the basis columns in the order the caller supplies
//! (unit columns first, then structural columns by ascending non-zero count
//! — a static Markowitz-style fill-reducing order), with
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
//! unit lower triangular *up to the row permutation*: column `t` holds the
//! multipliers (in original row indices) produced when elimination position
//! `t` pivoted on row `pivot_row[t]`. `U` column `k` holds the entries at
//! positions `t < k`, with the diagonal kept separate for the divisions
//! FTRAN/BTRAN do per position. Position `k` belongs to basis row
//! `pivot_row[k]` in both factors.
//!
//! Everything is deterministic: pivot choice and elimination arithmetic are
//! pure functions of the column data and tie-break order, so a factorization
//! is bit-reproducible run to run — the property the golden ε̄ bit-locks rest
//! on.

use crate::kernel;

/// Threshold-pivoting acceptance factor: a pivot candidate must be at least
/// this fraction of the column's maximum unpivoted magnitude.
const PIVOT_THRESHOLD: f64 = 0.1;

/// A sparse LU factorization `B = L̃·U` of the basis, fixed until the next
/// [`LuFactors::refactor`].
#[derive(Clone, Debug, Default)]
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
    /// Elimination position → original basis row.
    pivot_row: Vec<usize>,
    /// BTRAN scratch, position-indexed.
    work: Vec<f64>,
    /// `Some(neg_rows)` while the factors are still the pristine
    /// `diag(±1)` starting basis from [`Self::identity`]: both solves
    /// reduce to sign flips at these rows, costing `O(neg_rows)` instead of
    /// two dense position sweeps. Cleared by [`Self::refactor`].
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
    /// The factorization of `diag(±1)` with `-1` diagonals at `neg_rows`:
    /// the exact starting basis of a fresh two-phase solve (slacks and
    /// signed artificials), whose solves are sign flips.
    pub(crate) fn identity(m: usize, neg_rows: &[usize]) -> Self {
        LuFactors {
            m,
            trivial: Some(neg_rows.to_vec()),
            ..Self::default()
        }
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
        let mut lu = Self::default();
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
    /// the column this factorization eliminated at position `k`.
    pub(crate) fn pivot_rows(&self) -> &[usize] {
        &self.pivot_row
    }

    /// Stored non-zeros of the factors (`L` fill + `U` fill + diagonal) —
    /// the fill measure behind `Stats::lu_fill_nnz` and the eta file's
    /// refactorization trigger.
    pub(crate) fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.m
    }

    /// `v ← B⁻¹·v` in place, `v` indexed by basis row: forward L-solve in
    /// the pivot order, then the backward U-solve, writing the coefficient
    /// of the column at position `k` into `v[pivot_row[k]]`.
    pub(crate) fn ftran(&self, v: &mut [f64]) {
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
        for k in (0..self.m).rev() {
            let r = self.pivot_row[k];
            let s = v[r];
            if s != 0.0 {
                let z = s / self.u_diag[k];
                v[r] = z;
                let (e0, e1) = (self.u_ptr[k], self.u_ptr[k + 1]);
                kernel::scatter_sub_mapped(
                    v,
                    &self.pivot_row,
                    &self.u_idx[e0..e1],
                    &self.u_val[e0..e1],
                    z,
                );
            }
        }
    }

    /// `yᵀ ← yᵀ·B⁻¹` in place, `y` indexed by basis row: a forward
    /// `Uᵀ`-solve into position space, then the backward `Lᵀ`-solve.
    pub(crate) fn btran(&mut self, y: &mut [f64]) {
        if let Some(negs) = &self.trivial {
            for &r in negs {
                y[r] = -y[r];
            }
            return;
        }
        for k in 0..self.m {
            let (e0, e1) = (self.u_ptr[k], self.u_ptr[k + 1]);
            let s = y[self.pivot_row[k]]
                - kernel::dot_gather(&self.work, &self.u_idx[e0..e1], &self.u_val[e0..e1]);
            self.work[k] = if s != 0.0 { s / self.u_diag[k] } else { 0.0 };
        }
        for k in 0..self.m {
            y[self.pivot_row[k]] = self.work[k];
        }
        for t in (0..self.m).rev() {
            let (e0, e1) = (self.l_ptr[t], self.l_ptr[t + 1]);
            let s = y[self.pivot_row[t]]
                - kernel::dot_gather(y, &self.l_idx[e0..e1], &self.l_val[e0..e1]);
            y[self.pivot_row[t]] = s;
        }
    }
}

/// The factorization's tests; their dense helpers also serve the eta-file
/// test of [`crate::sparse`].
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic xorshift64 stream of values in `[-1, 1)`.
    pub(crate) fn rng(seed: u64) -> impl FnMut() -> f64 {
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
    pub(crate) fn from_dense(cols: &[Vec<f64>]) -> (Vec<usize>, Vec<(usize, f64)>, Vec<usize>) {
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
    pub(crate) fn mul(cols: &[Vec<f64>], heading: &[usize], w: &[f64]) -> Vec<f64> {
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

    pub(crate) fn random_cols(m: usize, seed: u64) -> Vec<Vec<f64>> {
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
    pub(crate) fn heading(lu: &LuFactors, m: usize) -> Vec<usize> {
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
            let lu = LuFactors::factorize(m, &ptr, &entries, &weight, 1e-9).expect("non-singular");
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
        let lu = LuFactors::factorize(2, &ptr, &entries, &weight, 1e-9).expect("non-singular");
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
}
