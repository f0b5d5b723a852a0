//! Dense row-major matrix used throughout the MEADOW workspace.

use crate::error::TensorError;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
///
/// `Matrix` is deliberately small: the MEADOW reproduction only needs 2-D
/// dense tensors over `i8` (quantized weights/activations), `i32`
/// (accumulators) and `f32` (reference math). Indexing is checked; the
/// `*_unchecked`-style fast path is simply slice access through [`Matrix::row`].
///
/// # Example
///
/// ```
/// use meadow_tensor::Matrix;
///
/// let m = Matrix::<i8>::from_rows(&[&[1, 2, 3], &[4, 5, 6]]).unwrap();
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.row(1), &[4, 5, 6]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T> Matrix<T> {
    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeDataMismatch { rows, cols, len: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major backing slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrows the flat row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a reference to element `(r, c)`, or `None` if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<&T> {
        if r < self.rows && c < self.cols {
            self.data.get(r * self.cols + c)
        } else {
            None
        }
    }

    /// Returns a mutable reference to element `(r, c)`, or `None` if out of
    /// bounds.
    pub fn get_mut(&mut self, r: usize, c: usize) -> Option<&mut T> {
        if r < self.rows && c < self.cols {
            self.data.get_mut(r * self.cols + c)
        } else {
            None
        }
    }
}

impl<T: Clone> Matrix<T> {
    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RaggedRows`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[T]]) -> Result<Self, TensorError> {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(TensorError::RaggedRows { expected: cols, found: r.len() });
            }
            data.extend_from_slice(r);
        }
        Ok(Self { rows: rows.len(), cols, data })
    }

    /// Creates a matrix filled with copies of `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Returns the transpose as a new matrix.
    pub fn transposed(&self) -> Self {
        let mut data = Vec::with_capacity(self.data.len());
        for c in 0..self.cols {
            for r in 0..self.rows {
                data.push(self.data[r * self.cols + c].clone());
            }
        }
        Self { rows: self.cols, cols: self.rows, data }
    }

    /// Copies columns `[start, start + count)` into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the
    /// number of columns.
    pub fn col_block(&self, start: usize, count: usize) -> Result<Self, TensorError> {
        let end = start.checked_add(count).ok_or(TensorError::IndexOutOfBounds {
            index: (0, start),
            shape: (self.rows, self.cols),
        })?;
        if end > self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (0, end),
                shape: (self.rows, self.cols),
            });
        }
        let mut data = Vec::with_capacity(self.rows * count);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols + start..r * self.cols + end]);
        }
        Ok(Self { rows: self.rows, cols: count, data })
    }
}

impl<T: Clone + Default> Matrix<T> {
    /// Creates a matrix of default-valued elements (zeros for numeric types).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::default(); rows * cols] }
    }
}

impl Matrix<i8> {
    /// Converts an INT8 matrix to `f32` by multiplying each element by
    /// `scale` (symmetric dequantization).
    pub fn dequantize(&self, scale: f32) -> Matrix<f32> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f32::from(v) * scale).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1_i8, 2, 3, 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1_i8, 2, 3]).unwrap_err();
        assert_eq!(err, TensorError::ShapeDataMismatch { rows: 2, cols: 2, len: 3 });
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1_i8, 2][..], &[3_i8][..]]).unwrap_err();
        assert_eq!(err, TensorError::RaggedRows { expected: 2, found: 1 });
    }

    #[test]
    fn indexing_and_rows() {
        let m = Matrix::from_rows(&[&[1_i32, 2, 3], &[4, 5, 6]]).unwrap();
        assert_eq!(m.get(1, 2), Some(&6));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.rows(), 2);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[&[1_i8, 2, 3], &[4, 5, 6]]).unwrap();
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), Some(&6));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn row_and_col_blocks() {
        let m = Matrix::from_rows(&[&[1_i8, 2, 3], &[4, 5, 6], &[7, 8, 9]]).unwrap();
        let cb = m.col_block(1, 2).unwrap();
        assert_eq!(cb.row(0), &[2, 3]);
        assert_eq!(cb.row(2), &[8, 9]);
        assert!(m.col_block(3, 1).is_err());
    }

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::<i32>::zeros(2, 3);
        assert!(z.as_slice().iter().all(|&v| v == 0));
        let f = Matrix::filled(2, 2, 7_i8);
        assert!(f.as_slice().iter().all(|&v| v == 7));
    }

    #[test]
    fn dequantize_scales_elements() {
        let m = Matrix::from_rows(&[&[2_i8, -4]]).unwrap();
        let d = m.dequantize(0.5);
        assert_eq!(d.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn empty_matrix_is_well_behaved() {
        let m = Matrix::<i8>::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.shape(), (0, 0));
        let no_cols = Matrix::<i8>::zeros(3, 0);
        assert_eq!(no_cols.rows(), 3);
        assert!((0..3).all(|r| no_cols.row(r).is_empty()));
    }
}
