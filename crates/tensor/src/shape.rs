//! Shape bookkeeping for dense row-major tensors.

use std::fmt;

/// The dimensions of a [`crate::Tensor`], row-major (last axis contiguous).
///
/// CNN tensors follow the NCHW convention: `[batch, channels, height,
/// width]`. Fully-connected activations are `[batch, features]`.
///
/// # Example
///
/// ```
/// use deepcam_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4, 4]);
/// assert_eq!(s.volume(), 96);
/// assert_eq!(s.rank(), 4);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Shape of a scalar (rank 0, volume 1).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// The size of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// All dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides, in elements.
    ///
    /// # Example
    ///
    /// ```
    /// use deepcam_tensor::Shape;
    /// assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linear (row-major) offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds (debug builds only for the bounds part; the offset itself is
    /// computed regardless).
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.dims.len()).rev() {
            debug_assert!(
                index[axis] < self.dims[axis],
                "index {} out of bounds for axis {axis} of size {}",
                index[axis],
                self.dims[axis]
            );
            off += index[axis] * stride;
            stride *= self.dims[axis];
        }
        off
    }

    /// Interprets the shape as `[batch, channels, height, width]`.
    ///
    /// Returns `None` unless the rank is 4.
    pub fn as_nchw(&self) -> Option<(usize, usize, usize, usize)> {
        if self.rank() == 4 {
            Some((self.dims[0], self.dims[1], self.dims[2], self.dims[3]))
        } else {
            None
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(&[4, 3, 8, 8]);
        assert_eq!(s.volume(), 768);
        assert_eq!(s.rank(), 4);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = vec![false; s.volume()];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let off = s.offset(&[i, j, k]);
                    assert!(!seen[off], "offset {off} visited twice");
                    seen[off] = true;
                }
            }
        }
        assert!(seen.iter().all(|&v| v));
    }

    #[test]
    fn nchw_accessor() {
        let s = Shape::new(&[1, 3, 32, 32]);
        assert_eq!(s.as_nchw(), Some((1, 3, 32, 32)));
        assert!(Shape::new(&[10, 5]).as_nchw().is_none());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn from_vec_and_slice() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
    }
}
