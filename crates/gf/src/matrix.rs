//! Dense row-major matrices over GF(2^8).
//!
//! Sized for erasure coding: dimensions are `k + m ≤ 255`, so everything is
//! small enough that simple Gauss–Jordan elimination is the right tool.

use crate::{inv, mul, mul_add_slice, mul_slice};
use std::fmt;

/// A dense row-major matrix over GF(2^8).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1;
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: Vec<Vec<u8>>) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in &rows {
            assert_eq!(r.len(), cols, "ragged matrix rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A Vandermonde matrix with `rows` rows and `cols` columns:
    /// `V[i][j] = (2^i)^j`. Any `cols` distinct rows are linearly
    /// independent, which is what makes it usable as an erasure-code
    /// generator.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let base = crate::exp2(i);
            for j in 0..cols {
                m.data[i * cols + j] = crate::pow(base, j);
            }
        }
        m
    }

    /// A Cauchy matrix `C[i][j] = 1 / (x_i + y_j)` with
    /// `x_i = i + cols` and `y_j = j`, which are disjoint sets so every
    /// denominator is non-zero. Every square submatrix of a Cauchy matrix is
    /// invertible, making it directly usable as the parity part of a
    /// systematic generator.
    ///
    /// # Panics
    /// Panics if `rows + cols > 256` (coordinates would collide).
    pub fn cauchy(rows: usize, cols: usize) -> Self {
        assert!(rows + cols <= 256, "Cauchy coordinates exhausted");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            let xi = (i + cols) as u8;
            for j in 0..cols {
                let yj = j as u8;
                m.data[i * cols + j] = inv(xi ^ yj);
            }
        }
        m
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

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix mul dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for (kk, &a) in self.row(i).iter().enumerate() {
                if a == 0 {
                    continue;
                }
                let src = rhs.row(kk);
                let dst = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                mul_add_slice(a, src, dst);
            }
        }
        out
    }

    /// Applies the matrix to a set of data buffers: output row `i` is
    /// `sum_j self[i][j] * inputs[j]`. This is exactly erasure-code encoding
    /// when `self` is a generator matrix.
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.cols`, if `outputs.len() != self.rows`,
    /// or if buffer lengths differ.
    pub fn apply(&self, inputs: &[&[u8]], outputs: &mut [Vec<u8>]) {
        assert_eq!(inputs.len(), self.cols, "input count mismatch");
        assert_eq!(outputs.len(), self.rows, "output count mismatch");
        for (i, out) in outputs.iter_mut().enumerate() {
            let mut first = true;
            for (j, &input) in inputs.iter().enumerate() {
                let c = self.get(i, j);
                if first {
                    out.resize(input.len(), 0);
                    mul_slice(c, input, out);
                    first = false;
                } else {
                    assert_eq!(input.len(), out.len(), "buffer length mismatch");
                    mul_add_slice(c, input, out);
                }
            }
        }
    }

    /// Returns the submatrix made of the given rows.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut m = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            let dst = &mut m.data[i * self.cols..(i + 1) * self.cols];
            dst.copy_from_slice(self.row(r));
        }
        m
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn stack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "stack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Inverts a square matrix by Gauss–Jordan elimination with partial
    /// pivoting (any non-zero pivot works in a field).
    ///
    /// Returns `None` if the matrix is singular.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut out = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot row at or below `col`.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                out.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a.get(col, col);
            if p != 1 {
                let pinv = inv(p);
                a.scale_row(col, pinv);
                out.scale_row(col, pinv);
            }
            // Eliminate the column from all other rows.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a.get(r, col);
                if f != 0 {
                    a.add_scaled_row(col, r, f);
                    out.add_scaled_row(col, r, f);
                }
            }
        }
        Some(out)
    }

    /// Returns true if every square `take`-row subset of this matrix is
    /// invertible — the MDS property check used by codec construction tests.
    /// Exponential in rows; only call with small matrices.
    pub fn all_submatrices_invertible(&self, take: usize) -> bool {
        let mut idx: Vec<usize> = (0..take).collect();
        loop {
            if self.select_rows(&idx).inverse().is_none() {
                return false;
            }
            // Next combination in lexicographic order.
            let mut i = take;
            loop {
                if i == 0 {
                    return true;
                }
                i -= 1;
                if idx[i] != i + self.rows - take {
                    idx[i] += 1;
                    for j in i + 1..take {
                        idx[j] = idx[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: u8) {
        for c in 0..self.cols {
            let v = self.get(r, c);
            self.set(r, c, mul(v, f));
        }
    }

    /// `row[dst] ^= f * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, f: u8) {
        for c in 0..self.cols {
            let v = mul(self.get(src, c), f);
            let d = self.get(dst, c);
            self.set(dst, c, d ^ v);
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:02x?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let v = Matrix::vandermonde(4, 4);
        let i = Matrix::identity(4);
        assert_eq!(v.mul(&i), v);
        assert_eq!(i.mul(&v), v);
    }

    #[test]
    fn inverse_roundtrip_vandermonde() {
        for n in 1..8 {
            let v = Matrix::vandermonde(n, n);
            let vi = v.inverse().expect("vandermonde square is invertible");
            assert_eq!(v.mul(&vi), Matrix::identity(n), "n={n}");
            assert_eq!(vi.mul(&v), Matrix::identity(n), "n={n}");
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![1, 2]]);
        assert!(m.inverse().is_none());
        let z = Matrix::zero(3, 3);
        assert!(z.inverse().is_none());
    }

    #[test]
    fn cauchy_every_submatrix_invertible() {
        // Cauchy property: every square submatrix invertible. Check the
        // 4+2 configuration exhaustively.
        let c = Matrix::cauchy(3, 4);
        for r1 in 0..3 {
            for r2 in (r1 + 1)..3 {
                for c1 in 0..4 {
                    for c2 in (c1 + 1)..4 {
                        let sub = Matrix::from_rows(vec![
                            vec![c.get(r1, c1), c.get(r1, c2)],
                            vec![c.get(r2, c1), c.get(r2, c2)],
                        ]);
                        assert!(sub.inverse().is_some());
                    }
                }
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // per-index matrix-vector reference
    fn apply_matches_mul() {
        let g = Matrix::cauchy(2, 3);
        let data: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
        let inputs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut outputs = vec![Vec::new(), Vec::new()];
        g.apply(&inputs, &mut outputs);
        // Reference: per-byte matrix-vector product.
        for byte in 0..4 {
            for i in 0..2 {
                let mut acc = 0u8;
                for j in 0..3 {
                    acc ^= mul(g.get(i, j), data[j][byte]);
                }
                assert_eq!(outputs[i][byte], acc);
            }
        }
    }

    #[test]
    fn select_and_stack() {
        let m = Matrix::vandermonde(5, 3);
        let top = m.select_rows(&[0, 1, 2]);
        let bottom = m.select_rows(&[3, 4]);
        assert_eq!(top.stack(&bottom), m);
    }

    #[test]
    fn all_submatrices_invertible_detects_bad_matrix() {
        // Plain (non-extended) Vandermonde stacked under identity is known
        // to be NOT universally MDS; a matrix with a zero row definitely
        // fails.
        let mut bad = Matrix::vandermonde(5, 3);
        for c in 0..3 {
            bad.set(4, c, 0);
        }
        assert!(!bad.all_submatrices_invertible(3));
        let good = Matrix::identity(3).stack(&Matrix::cauchy(2, 3));
        assert!(good.all_submatrices_invertible(3));
    }
}
