//! Householder QR factorization and least-squares solves.
//!
//! Used by the TSM/UCB baselines for closed-form linear-probe fits and by
//! tests as an independent check on the LU solver.

use crate::{simd, LinalgError, Matrix, Result};

/// Default panel width of the blocked Householder factorization.
pub const DEFAULT_BLOCK: usize = 32;

/// A QR factorization `A = Q R` of an `m x n` matrix with `m >= n`,
/// computed with Householder reflections.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal; R on and above it.
    qr: Matrix,
    /// Scalar factors of the Householder reflectors.
    tau: Vec<f64>,
    /// Compact-WY scratch: the upper-triangular `T` of the current panel
    /// (`block x block`, row-major). Persists across refactors so steady
    /// -state refactoring performs no heap allocation.
    t_mat: Vec<f64>,
    /// Compact-WY scratch: the `W = Vᵀ C` workspace (`block x (n - ke)`
    /// rows, row-major at width `n`).
    wy_work: Vec<f64>,
    /// Compact-WY scratch: the `Vᵀ v_j` column used to grow `T`.
    panel_dots: Vec<f64>,
}

impl Default for Qr {
    fn default() -> Self {
        Qr::empty()
    }
}

impl Qr {
    /// An empty (0×0) factorization intended as reusable storage for
    /// [`Qr::refactor`]. Solving with it fails with a shape mismatch
    /// until a refactor succeeds.
    pub fn empty() -> Qr {
        Qr {
            qr: Matrix::zeros(0, 0),
            tau: Vec::new(),
            t_mat: Vec::new(),
            wy_work: Vec::new(),
            panel_dots: Vec::new(),
        }
    }

    /// Factors an `m x n` matrix with `m >= n`.
    pub fn factor(a: &Matrix) -> Result<Qr> {
        let mut f = Qr::empty();
        f.refactor(a)?;
        Ok(f)
    }

    /// Re-factors `a` into this factorization's storage, reallocating only
    /// when the shape changes.
    ///
    /// On any error the factorization is reset to the empty (0×0) state —
    /// the same stale-factor-after-error hazard as [`crate::cholesky::Cholesky`]
    /// / [`crate::lu::Lu`]: a partially-written factor must never stay
    /// solvable-looking.
    ///
    /// The factorization is blocked compact-WY Householder: reflectors are
    /// computed a panel ([`DEFAULT_BLOCK`] columns) at a time, accumulated
    /// into a triangular factor `T` (`Q_panel = I - V T Vᵀ`), and applied to
    /// the trailing columns as three row-major passes (`W = VᵀC`,
    /// `W ← TᵀW`, `C ← C - V W`) routed through the [`crate::simd`]
    /// primitives. The `(V, tau, R)` storage and sign conventions are
    /// identical to the scalar reference ([`Qr::refactor_scalar`]), so
    /// [`Qr::solve_least_squares`] is oblivious to which path produced the
    /// factor. Unlike the blocked LU, the WY accumulation *reassociates*
    /// the reflector applications through `T`, so blocked and scalar agree
    /// to a documented `1e-12`-relative tolerance rather than bitwise —
    /// see the differential tests.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        self.refactor_with_block(a, DEFAULT_BLOCK)
    }

    /// [`Qr::refactor`] with an explicit panel width (block-boundary tests
    /// and benchmarks; `refactor` uses [`DEFAULT_BLOCK`]).
    pub fn refactor_with_block(&mut self, a: &Matrix, block: usize) -> Result<()> {
        let (m, n) = self.load(a)?;
        let block = block.max(1);
        let kern = simd::active_kernel();
        simd::record_dispatch(kern);
        // Scratch sized once per refactor; `resize` after `clear` keeps the
        // existing capacity, so steady-state refactoring allocates nothing.
        self.t_mat.clear();
        self.t_mat.resize(block * block, 0.0);
        self.wy_work.clear();
        self.wy_work.resize(block * n, 0.0);
        self.panel_dots.clear();
        self.panel_dots.resize(block, 0.0);
        let qr = &mut self.qr;
        let tau = &mut self.tau;
        let t_mat = &mut self.t_mat;
        let wy = &mut self.wy_work;
        let pd = &mut self.panel_dots;

        let mut kb = 0;
        while kb < n {
            let ke = (kb + block).min(n);
            let nb = ke - kb;
            // --- Panel factorization: the scalar reflector loop restricted
            // to the panel's own columns.
            for k in kb..ke {
                let mut norm = 0.0;
                for i in k..m {
                    norm += qr[(i, k)] * qr[(i, k)];
                }
                let norm = norm.sqrt();
                if norm == 0.0 {
                    tau[k] = 0.0;
                    continue;
                }
                let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
                let v0 = qr[(k, k)] - alpha;
                // Normalize so v[k] = 1 implicitly; store v[k+1..] / v0.
                for i in (k + 1)..m {
                    let v = qr[(i, k)] / v0;
                    qr[(i, k)] = v;
                }
                tau[k] = -v0 / alpha; // standard LAPACK-style tau = 2 / (vᵀv)
                qr[(k, k)] = alpha;
                for c in (k + 1)..ke {
                    let mut dot = qr[(k, c)];
                    for i in (k + 1)..m {
                        dot += qr[(i, k)] * qr[(i, c)];
                    }
                    let t = tau[k] * dot;
                    qr[(k, c)] -= t;
                    for i in (k + 1)..m {
                        let v = qr[(i, k)];
                        qr[(i, c)] -= t * v;
                    }
                }
            }
            if ke < n {
                // `ke < n` implies a full panel: `nb == block` exactly, so
                // every upper-triangle cell of `t_mat` is rewritten below.
                debug_assert_eq!(nb, block);
                // --- Forward accumulation of the WY triangle T (larft):
                // T[j][j] = tau_j, T[0..j][j] = -tau_j * T * (Vᵀ v_j).
                for j in 0..nb {
                    let kj = kb + j;
                    let tj = tau[kj];
                    if tj == 0.0 {
                        // Zero-norm column: identity reflector, zero T
                        // column annihilates its W row in the update.
                        for l in 0..=j {
                            t_mat[l * block + j] = 0.0;
                        }
                        continue;
                    }
                    // pd[l] = v_lᵀ v_j, exploiting the implicit unit
                    // diagonals (v_j is zero above row kj): row-major
                    // axpy sweep instead of strided column dots.
                    let data = qr.as_slice();
                    pd[..j].copy_from_slice(&data[kj * n + kb..kj * n + kb + j]);
                    for i in (kj + 1)..m {
                        let vji = data[i * n + kj];
                        kern.axpy(vji, &data[i * n + kb..i * n + kb + j], &mut pd[..j]);
                    }
                    for l in 0..j {
                        let mut acc = 0.0;
                        for p in l..j {
                            acc += t_mat[l * block + p] * pd[p];
                        }
                        t_mat[l * block + j] = -tj * acc;
                    }
                    t_mat[j * block + j] = tj;
                }
                // --- Trailing update C ← (I - V Tᵀ Vᵀ) C on rows kb..m,
                // columns ke..n, as three row-major passes.
                let nc = n - ke;
                let data = qr.as_mut_slice();
                // Pass 1: W = Vᵀ C (W[j] lives at wy[j*nc..], row-major).
                wy[..nb * nc].fill(0.0);
                for i in kb..m {
                    let jmax = (i - kb).min(nb - 1);
                    let row = &data[i * n..(i + 1) * n];
                    let c_row = &row[ke..];
                    for (j, w_row) in wy.chunks_exact_mut(nc).enumerate().take(jmax + 1) {
                        let v = if j == i - kb { 1.0 } else { row[kb + j] };
                        kern.axpy(v, c_row, w_row);
                    }
                }
                // Pass 2: W ← Tᵀ W in place (descending rows: row j only
                // reads rows l < j, which are still the pass-1 values).
                for j in (0..nb).rev() {
                    let tjj = t_mat[j * block + j];
                    for w in wy[j * nc..(j + 1) * nc].iter_mut() {
                        *w *= tjj;
                    }
                    let (head, tail) = wy.split_at_mut(j * nc);
                    for l in 0..j {
                        let tlj = t_mat[l * block + j];
                        if tlj != 0.0 {
                            kern.axpy(tlj, &head[l * nc..(l + 1) * nc], &mut tail[..nc]);
                        }
                    }
                }
                // Pass 3: C ← C - V W.
                for i in kb..m {
                    let jmax = (i - kb).min(nb - 1);
                    let row = &mut data[i * n..(i + 1) * n];
                    let (v_part, c_row) = row.split_at_mut(ke);
                    for (j, w_row) in wy.chunks_exact(nc).enumerate().take(jmax + 1) {
                        let v = if j == i - kb { 1.0 } else { v_part[kb + j] };
                        kern.axpy(-v, w_row, c_row);
                    }
                }
            }
            kb = ke;
        }
        Ok(())
    }

    /// The scalar one-reflector-at-a-time reference factorization, kept for
    /// the `qr_blocked` perfgate head-to-head and the differential tests.
    /// Same contract as [`Qr::refactor`], including storage reuse and the
    /// reset-to-empty-on-error behaviour.
    pub fn refactor_scalar(&mut self, a: &Matrix) -> Result<()> {
        let (m, n) = self.load(a)?;
        let qr = &mut self.qr;
        let tau = &mut self.tau;
        for k in 0..n {
            // Compute the Householder reflector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalize so v[k] = 1 implicitly; store v[k+1..] scaled by 1/v0.
            for i in (k + 1)..m {
                let v = qr[(i, k)] / v0;
                qr[(i, k)] = v;
            }
            tau[k] = -v0 / alpha; // standard LAPACK-style tau = 2 / (vᵀv)
            qr[(k, k)] = alpha;
            // Apply the reflector to the remaining columns.
            for c in (k + 1)..n {
                let mut dot = qr[(k, c)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, c)];
                }
                let t = tau[k] * dot;
                qr[(k, c)] -= t;
                for i in (k + 1)..m {
                    let v = qr[(i, k)];
                    qr[(i, c)] -= t * v;
                }
            }
        }
        Ok(())
    }

    /// Copies `a` into the factor storage (reallocating only on a shape
    /// change) and zeroes `tau`.
    fn load(&mut self, a: &Matrix) -> Result<(usize, usize)> {
        let (m, n) = a.shape();
        if m < n {
            self.reset();
            return Err(LinalgError::ShapeMismatch {
                op: "qr (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        if self.qr.shape() == (m, n) {
            self.qr.as_mut_slice().copy_from_slice(a.as_slice());
        } else {
            self.qr = a.clone();
        }
        self.tau.clear();
        self.tau.resize(n, 0.0);
        Ok((m, n))
    }

    /// Resets to the empty (0×0) state; solves fail until the next
    /// successful refactor.
    fn reset(&mut self) {
        self.qr = Matrix::zeros(0, 0);
        self.tau.clear();
    }

    /// Applies `Qᵀ` to a vector of length `m`.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut dot = b[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * b[i];
            }
            let t = self.tau[k] * dot;
            b[k] -= t;
            for i in (k + 1)..m {
                b[i] -= t * self.qr[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min_x ||A x - b||_2`.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on the top n x n triangle of R.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            let r = self.qr[(i, i)];
            if r.abs() < 1e-12 {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = acc / r;
        }
        Ok(x)
    }

    /// The upper-triangular factor `R` (top `n x n` block).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |r, c| if c >= r { self.qr[(r, c)] } else { 0.0 })
    }
}

/// Convenience: least-squares solve `min_x ||A x - b||`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    Qr::factor(a)?.solve_least_squares(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_square_solve() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [5.0, 10.0];
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn overdetermined_recovers_plane() {
        // Fit y = 2 + 3 t exactly (noise-free overdetermined system).
        let ts: Vec<f64> = (0..20).map(|i| i as f64 / 5.0).collect();
        let a = Matrix::from_fn(20, 2, |r, c| if c == 0 { 1.0 } else { ts[r] });
        let b: Vec<f64> = ts.iter().map(|&t| 2.0 + 3.0 * t).collect();
        let x = lstsq(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn normal_equations_hold() {
        // At the least-squares optimum, Aᵀ(Ax - b) = 0.
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::from_fn(15, 4, |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..15).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(axi, bi)| axi - bi).collect();
        let grad = a.transpose().matvec(&resid).unwrap();
        assert!(vector::norm_inf(&grad) < 1e-9);
    }

    #[test]
    fn r_is_upper_triangular_and_consistent() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Matrix::from_fn(8, 5, |_, _| rng.gen_range(-1.0..1.0));
        let qr = Qr::factor(&a).unwrap();
        let r = qr.r();
        for i in 0..5 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
        // |det R| equals sqrt(det AᵀA).
        let ata = a.transpose().matmul(&a).unwrap();
        let det_ata = crate::lu::Lu::factor(&ata).unwrap().det();
        let det_r: f64 = (0..5).map(|i| r[(i, i)]).product();
        assert!((det_r.abs() - det_ata.sqrt()).abs() < 1e-8);
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(Qr::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_factor() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut f = Qr::empty();
        // Repeats a shape (buffer reuse) and changes it (regrowth).
        for (m, n) in [(6, 3), (6, 3), (9, 4), (4, 2)] {
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
            f.refactor(&a).unwrap();
            let fresh = Qr::factor(&a).unwrap();
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            assert_eq!(
                f.solve_least_squares(&b).unwrap(),
                fresh.solve_least_squares(&b).unwrap()
            );
        }
    }

    #[test]
    fn failed_refactor_resets_to_empty() {
        // Same stale-factor-after-error hazard as Cholesky/Lu: a failed
        // refactor must not leave the previous factor solvable-looking.
        let mut rng = StdRng::seed_from_u64(9);
        let good = Matrix::from_fn(5, 3, |_, _| rng.gen_range(-1.0..1.0));
        let mut f = Qr::empty();
        f.refactor(&good).unwrap();
        let err = f.refactor(&Matrix::zeros(2, 3)).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
        let res = f.solve_least_squares(&[1.0; 5]);
        assert!(
            matches!(res, Err(LinalgError::ShapeMismatch { .. })),
            "solve after failed refactor must error, got {res:?}"
        );
        // Recovery path.
        f.refactor(&good).unwrap();
        assert!(f
            .solve_least_squares(&[1.0; 5])
            .unwrap()
            .iter()
            .all(|v| v.is_finite()));
    }

    /// Blocked and scalar factorizations must agree on the packed factor
    /// (`V` below the diagonal, `R` on/above) and `tau` to a `1e-12`
    /// relative tolerance. The WY accumulation reassociates reflector
    /// applications through `T`, so bitwise equality is *not* expected —
    /// this documents the accepted bound.
    fn assert_blocked_matches_scalar(a: &Matrix, block: usize) {
        let mut blocked = Qr::empty();
        let mut scalar = Qr::empty();
        blocked.refactor_with_block(a, block).unwrap();
        scalar.refactor_scalar(a).unwrap();
        let scale = 1.0 + a.max_abs();
        let tol = 1e-12 * scale;
        for (i, (b, s)) in blocked
            .qr
            .as_slice()
            .iter()
            .zip(scalar.qr.as_slice())
            .enumerate()
        {
            assert!(
                (b - s).abs() <= tol,
                "factor diverges at flat index {i}: blocked={b}, scalar={s} \
                 (shape {:?}, block {block})",
                a.shape()
            );
        }
        for (k, (b, s)) in blocked.tau.iter().zip(&scalar.tau).enumerate() {
            assert!((b - s).abs() <= tol, "tau[{k}]: blocked={b}, scalar={s}");
        }
    }

    #[test]
    fn blocked_matches_scalar_across_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(41);
        for (m, n) in [(1, 1), (5, 3), (33, 32), (40, 40), (65, 33), (70, 64)] {
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
            for block in [1, 3, 8, 32, 100] {
                assert_blocked_matches_scalar(&a, block);
            }
        }
    }

    #[test]
    fn blocked_handles_zero_columns() {
        // Zero columns hit the tau = 0 path (identity reflector / zero T
        // column) inside and beyond the first panel.
        let mut rng = StdRng::seed_from_u64(43);
        let mut a = Matrix::from_fn(20, 11, |_, _| rng.gen_range(-1.0..1.0));
        for r in 0..20 {
            a[(r, 2)] = 0.0;
            a[(r, 7)] = 0.0;
        }
        for block in [1, 3, 4, 32] {
            assert_blocked_matches_scalar(&a, block);
        }
        // The factor must still solve: zero columns are rank deficiency,
        // caught at solve time exactly as with the scalar path.
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0; 20]),
            Err(LinalgError::Singular { .. })
        ));
    }

    proptest::proptest! {
        #[test]
        fn prop_blocked_matches_scalar(
            m in 1usize..24,
            extra in 0usize..12,
            block in 1usize..10,
            seed in 0u64..200,
        ) {
            let n = m.min(m.saturating_sub(extra).max(1));
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
            assert_blocked_matches_scalar(&a, block);
        }
    }

    #[test]
    fn rank_deficient_detected() {
        // Two identical columns.
        let a = Matrix::from_fn(4, 2, |r, _| r as f64 + 1.0);
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0, 4.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
