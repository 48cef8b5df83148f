//! Minimal dense linear algebra: just enough for IRLS Newton steps on a
//! regression with a dozen coefficients. Row-major `f64` matrices and a
//! Cholesky factorization (the IRLS normal-equation matrix `XᵀWX` is
//! symmetric positive definite whenever the design is full-rank).

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Identity matrix.
    #[cfg(test)]
    fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self[(r, c)] * v[c]).sum())
            .collect()
    }

    /// Transposed matrix–vector product `Aᵀ v`.
    pub fn tr_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c] += self[(r, c)] * v[r];
            }
        }
        out
    }

    /// Weighted Gram matrix `Aᵀ diag(w) A` — the IRLS Hessian.
    pub fn weighted_gram(&self, w: &[f64]) -> Matrix {
        assert_eq!(w.len(), self.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let wr = w[r];
            if wr == 0.0 {
                continue;
            }
            for i in 0..self.cols {
                let ai = self[(r, i)] * wr;
                for j in i..self.cols {
                    out[(i, j)] += ai * self[(r, j)];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Cholesky factorization `A = L Lᵀ` for symmetric positive-definite
    /// `A`. Returns `None` if the matrix is not (numerically) SPD.
    fn cholesky(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "Cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// Solves `A x = b` for SPD `A` via Cholesky. `None` if not SPD.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        let l = self.cholesky()?;
        let n = self.rows;
        assert_eq!(b.len(), n, "dimension mismatch");
        // Forward substitution: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Some(x)
    }

    /// Inverse of an SPD matrix (column-by-column solve). `None` if not
    /// SPD. Used for the coefficient covariance `(XᵀWX)^{-1}`.
    pub fn inverse_spd(&self) -> Option<Matrix> {
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for col in 0..n {
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            let x = self.solve_spd(&e)?;
            for row in 0..n {
                inv[(row, col)] = x[row];
            }
        }
        Some(inv)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let i = Matrix::identity(3);
        assert_eq!(i.matvec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn cholesky_known() {
        // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]]
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let l = a.cholesky().unwrap();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // indefinite
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn solve_spd_roundtrip() {
        let a = Matrix::from_rows(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = a.solve_spd(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_spd_times_self_is_identity() {
        let a = Matrix::from_rows(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
        let inv = a.inverse_spd().unwrap();
        // a * inv ≈ I
        for i in 0..2 {
            let col: Vec<f64> = (0..2).map(|j| inv[(j, i)]).collect();
            let prod = a.matvec(&col);
            for (j, p) in prod.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((p - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn weighted_gram_matches_manual() {
        // X = [[1, 2], [3, 4]], w = [2, 1]
        // XᵀWX = [[1,3],[2,4]] * diag(2,1) * [[1,2],[3,4]]
        //      = [[2*1+1*9, 2*2+1*12], [2*2+1*12, 2*4+1*16]]
        let x = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let g = x.weighted_gram(&[2.0, 1.0]);
        assert_eq!(g[(0, 0)], 11.0);
        assert_eq!(g[(0, 1)], 16.0);
        assert_eq!(g[(1, 0)], 16.0);
        assert_eq!(g[(1, 1)], 24.0);
    }

    #[test]
    fn tr_matvec_matches_manual() {
        let x = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(x.tr_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }
}
