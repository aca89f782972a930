//! Fixed-width chunked kernels for the FTRAN/BTRAN/pricing inner loops.
//!
//! The sparse engine spends almost all of its time in three loop shapes:
//! scatter updates `v[idx[e]] -= val[e]·t` (eta application, the L/U
//! triangular solves of [`crate::lu`]), gather reductions
//! `s -= Σ x[idx[e]]·val[e]` (BTRAN, the transposed solves, reduced-cost
//! pricing), and the left-looking elimination of a refactorization. This
//! module provides those loops chunked to a fixed width of [`LANES`] = 4
//! with hand-rolled unrolling — the safe-Rust, `#![forbid(unsafe_code)]`
//! equivalent of a 4-lane SIMD kernel: the independent lane statements give
//! the backend straight-line code it can keep in registers and vectorize,
//! without intrinsics.
//!
//! # Determinism contract
//!
//! * **No FMA, no transcendentals** — only IEEE-754 `+ − × ÷`, each exactly
//!   rounded and identical on every conforming platform, so the itne-lint
//!   `platform-fp` rule holds and golden ε̄ bits are platform-stable.
//! * **Fixed-order reduction tree** — a gather reduction accumulates into 4
//!   lane sums (`acc[l]` takes entries `l, l+4, l+8, …`) and combines them as
//!   `(acc0 + acc1) + (acc2 + acc3)`, then folds the `< 4` remainder in
//!   sequentially. The order is a pure function of the entry count — never
//!   of thread count, steal schedule, or target CPU — so a result is
//!   bit-reproducible anywhere, even though it may differ by ulps from the
//!   strictly sequential sum (an intentional, re-recorded semantic change;
//!   the certifier's outward 2⁻³⁰ grid snap absorbs ulp-level path noise).
//! * **Scatter updates are bitwise order-free** — every target element
//!   receives exactly one update per call (column indices are distinct), so
//!   chunking a scatter is pure unrolling and cannot change results.

/// Chunk width of every kernel in this module. Four 64-bit lanes = one
/// 256-bit vector register on the common targets, and a reduction tree
/// shallow enough that short sparse columns still win.
pub const LANES: usize = 4;

/// `Σ x[idx[e]]·val[e]` over the parallel slices `idx`/`val`, chunked
/// [`LANES`] wide with the fixed-order reduction tree documented in the
/// module header.
///
/// # Panics
///
/// Panics if `val` is shorter than `idx` or an index is out of bounds.
#[inline]
pub fn dot_gather(x: &[f64], idx: &[usize], val: &[f64]) -> f64 {
    debug_assert_eq!(idx.len(), val.len());
    let mut acc = [0.0f64; LANES];
    let mut ic = idx.chunks_exact(LANES);
    let mut vc = val.chunks_exact(LANES);
    for (i4, v4) in ic.by_ref().zip(vc.by_ref()) {
        acc[0] += x[i4[0]] * v4[0];
        acc[1] += x[i4[1]] * v4[1];
        acc[2] += x[i4[2]] * v4[2];
        acc[3] += x[i4[3]] * v4[3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&i, &v) in ic.remainder().iter().zip(vc.remainder()) {
        s += x[i] * v;
    }
    s
}

/// `v[idx[e]] -= val[e]·t` for every entry, unrolled [`LANES`] wide.
/// Bit-identical to the scalar loop for distinct indices (each target is
/// written once); see the module header.
///
/// # Panics
///
/// Panics if `val` is shorter than `idx` or an index is out of bounds.
#[inline]
pub fn scatter_sub(v: &mut [f64], idx: &[usize], val: &[f64], t: f64) {
    debug_assert_eq!(idx.len(), val.len());
    let mut ic = idx.chunks_exact(LANES);
    let mut vc = val.chunks_exact(LANES);
    for (i4, v4) in ic.by_ref().zip(vc.by_ref()) {
        v[i4[0]] -= v4[0] * t;
        v[i4[1]] -= v4[1] * t;
        v[i4[2]] -= v4[2] * t;
        v[i4[3]] -= v4[3] * t;
    }
    for (&i, &x) in ic.remainder().iter().zip(vc.remainder()) {
        v[i] -= x * t;
    }
}

/// [`scatter_sub`] through an index map: `v[map[idx[e]]] -= val[e]·t`.
/// The extra indirection is the `U`-solve of [`crate::lu`], whose stored
/// column indices are elimination positions that the Forrest–Tomlin
/// permutation `u_row` maps back to basis rows.
///
/// # Panics
///
/// Panics if `val` is shorter than `idx` or an index is out of bounds in
/// `map` or (mapped) in `v`.
#[inline]
pub fn scatter_sub_mapped(v: &mut [f64], map: &[usize], idx: &[usize], val: &[f64], t: f64) {
    debug_assert_eq!(idx.len(), val.len());
    let mut ic = idx.chunks_exact(LANES);
    let mut vc = val.chunks_exact(LANES);
    for (i4, v4) in ic.by_ref().zip(vc.by_ref()) {
        v[map[i4[0]]] -= v4[0] * t;
        v[map[i4[1]]] -= v4[1] * t;
        v[map[i4[2]]] -= v4[2] * t;
        v[map[i4[3]]] -= v4[3] * t;
    }
    for (&i, &x) in ic.remainder().iter().zip(vc.remainder()) {
        v[map[i]] -= x * t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed.max(1);
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn gather_data(n: usize, nnz: usize, seed: u64) -> (Vec<f64>, Vec<usize>, Vec<f64>) {
        let mut r = rng(seed);
        let x: Vec<f64> = (0..n).map(|_| r()).collect();
        let idx: Vec<usize> = (0..nnz)
            .map(|e| {
                ((r().abs() * 2.0 * n as f64) as usize)
                    .min(n - 1)
                    .max(e % n)
            })
            .collect();
        let val: Vec<f64> = (0..nnz).map(|_| r()).collect();
        (x, idx, val)
    }

    /// The reduction follows the documented tree exactly: lane sums over the
    /// strided entries, `(acc0 + acc1) + (acc2 + acc3)`, then the remainder
    /// appended sequentially.
    #[test]
    fn dot_matches_reduction_tree_spec() {
        for nnz in [0usize, 1, 3, 4, 5, 8, 11, 64, 257] {
            let (x, idx, val) = gather_data(97, nnz, 0x5eed + nnz as u64);
            let mut acc = [0.0f64; LANES];
            let full = nnz / LANES * LANES;
            for e in 0..full {
                acc[e % LANES] += x[idx[e]] * val[e];
            }
            let mut want = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for e in full..nnz {
                want += x[idx[e]] * val[e];
            }
            let got = dot_gather(&x, &idx, &val);
            assert_eq!(got.to_bits(), want.to_bits(), "nnz = {nnz}");
        }
    }

    /// Short gathers (< LANES entries) reduce to the plain sequential sum —
    /// the common case on the certifier's very sparse columns.
    #[test]
    fn short_dot_equals_sequential() {
        let (x, idx, val) = gather_data(11, 3, 7);
        let seq = x[idx[0]] * val[0] + x[idx[1]] * val[1] + x[idx[2]] * val[2];
        assert_eq!(dot_gather(&x, &idx, &val).to_bits(), seq.to_bits());
        assert_eq!(dot_gather(&x, &[], &[]).to_bits(), 0.0f64.to_bits());
    }

    /// The chunked dot agrees with the sequential sum to relative ulp noise
    /// — the tree changes grouping, not magnitude.
    #[test]
    fn dot_close_to_sequential() {
        for seed in 1..20u64 {
            let (x, idx, val) = gather_data(203, 150, seed);
            let seq: f64 = idx.iter().zip(&val).map(|(&i, &v)| x[i] * v).sum();
            let tree = dot_gather(&x, &idx, &val);
            let tol = 1e-13 * (1.0 + seq.abs());
            assert!((tree - seq).abs() <= tol, "{tree} vs {seq}");
        }
    }

    /// Determinism: same inputs, same bits, every call.
    #[test]
    fn dot_is_bit_deterministic() {
        let (x, idx, val) = gather_data(59, 37, 99);
        let a = dot_gather(&x, &idx, &val);
        let b = dot_gather(&x, &idx, &val);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Scatter with distinct indices is bit-identical to the scalar loop —
    /// unrolling must be invisible.
    #[test]
    fn scatter_bitwise_equals_scalar() {
        for nnz in [0usize, 1, 2, 5, 8, 13, 40] {
            let n = 64;
            let mut r = rng(31 + nnz as u64);
            // Distinct indices: a shuffled prefix of 0..n.
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = ((r().abs() * 2.0 * (i + 1) as f64) as usize).min(i);
                perm.swap(i, j);
            }
            let idx = &perm[..nnz];
            let val: Vec<f64> = (0..nnz).map(|_| r()).collect();
            let base: Vec<f64> = (0..n).map(|_| r()).collect();
            let t = r();

            let mut want = base.clone();
            for (&i, &x) in idx.iter().zip(&val) {
                want[i] -= x * t;
            }
            let mut got = base.clone();
            scatter_sub(&mut got, idx, &val, t);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "nnz = {nnz}"
            );

            // Mapped variant through a nontrivial permutation.
            let map: Vec<usize> = (0..n).map(|i| (i + 17) % n).collect();
            let mut want = base.clone();
            for (&i, &x) in idx.iter().zip(&val) {
                want[map[i]] -= x * t;
            }
            let mut got = base.clone();
            scatter_sub_mapped(&mut got, &map, idx, &val, t);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "mapped nnz = {nnz}"
            );
        }
    }
}
