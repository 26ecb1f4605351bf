//! Row-major `f32` matrices and the handful of dense kernels the layers
//! need. [`Matrix::matmul`] — the forward pass of every dense layer —
//! runs the register-blocked kernel in [`crate::kernels`]; the
//! transposed products of the backward passes stay plain loops.

/// A dense row-major matrix of `f32`.
///
/// Rows index samples, columns index features throughout this workspace.
///
/// ```
/// use ngl_nn::Matrix;
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let x = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
/// assert_eq!(a.matmul(&x).as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix whose rows are the given slices.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self @ other` — standard GEMM through the dispatched
    /// [`crate::kernels::matmul`]. `self` is `m×k`, `other` is `k×n`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        crate::kernels::matmul(&self.data, &other.data, m, k, n, &mut out.data);
        out
    }

    /// `selfᵀ @ other` without materializing the transpose.
    /// `self` is `k×m`, `other` is `k×n`, result is `m×n`.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a) in a_row.iter().enumerate().take(m) {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ otherᵀ` without materializing the transpose.
    /// `self` is `m×k`, `other` is `n×k`, result is `m×n`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, n) = (self.rows, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate().take(n) {
                *o = dot(a_row, other.row(j));
            }
        }
        out
    }

    /// Returns an explicit transpose. Only used in tests and cold paths.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Adds `row` (length `cols`) to every row of `self` in place.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast length mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(row) {
                *o += b;
            }
        }
    }

    /// Column sums — a length-`cols` vector.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "axpy shape mismatch");
        assert_eq!(self.cols, other.cols, "axpy shape mismatch");
        crate::kernels::axpy(&mut self.data, alpha, &other.data);
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Frobenius norm. Useful in tests and for gradient-norm diagnostics.
    pub fn frobenius_norm(&self) -> f32 {
        crate::kernels::sq_norm(&self.data).sqrt()
    }

    /// Returns true when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

/// Dot product of two equal-length slices, backed by the dispatched
/// fixed-order kernel ([`crate::kernels::dot`]).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::dot(a, b)
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    crate::kernels::sq_norm(a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|v| v as f32).collect());
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn broadcast_and_col_sums_round_trip() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let b = Matrix::from_vec(1, 3, vec![2.0, 4.0, 6.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn from_rows_builds_expected_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }
}
