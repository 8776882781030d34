//! The dense `f32` tensor type used throughout the reproduction.

use std::fmt;

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;

/// A dense, row-major tensor of `f32` values.
///
/// This is the single numeric currency of the reproduction: CNN activations
/// and weights ([`crate::layer`]), im2col patch matrices
/// ([`crate::ops::conv`]), and the vectors hashed by `deepcam-hash` are all
/// `Tensor`s.
///
/// # Example
///
/// ```
/// use deepcam_tensor::{Tensor, Shape};
///
/// let t = Tensor::zeros(Shape::new(&[2, 3]));
/// assert_eq!(t.len(), 6);
/// let u = t.map(|x| x + 1.0);
/// assert!(u.data().iter().all(|&v| v == 1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; volume],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![value; volume],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs
    /// from `shape.volume()`.
    pub fn from_vec(data: Vec<f32>, shape: Shape) -> Result<Self> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when the index rank or bounds are invalid (debug builds).
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Reinterprets the buffer with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(self, shape: Shape) -> Result<Self> {
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data,
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * rhs` (AXPY).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha`, producing a new tensor.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|x| x * alpha)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean (L2) norm of the flattened tensor.
    ///
    /// This is the magnitude component of the paper's geometric dot-product
    /// (eq. 2).
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Dot product of two tensors of identical volume, flattened.
    ///
    /// This is the *algebraic* dot-product of eq. 1 — the reference that
    /// DeepCAM's geometric approximation is compared against.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the volumes differ.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32> {
        if self.len() != rhs.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
                op: "dot",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Index and value of the maximum element.
    ///
    /// Returns `None` for an empty tensor. Ties resolve to the first
    /// occurrence, matching `argmax` conventions elsewhere.
    pub fn argmax(&self) -> Option<(usize, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((i, v)),
            }
        }
        best
    }

    /// Matrix multiplication for rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank
    /// 2, and [`TensorError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Self> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "matmul",
            });
        }
        if rhs.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: rhs.shape.rank(),
                op: "matmul",
            });
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (rhs.shape.dim(0), rhs.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
                op: "matmul",
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_into(&self.data, m, k, &rhs.data, n, &mut out);
        Tensor::from_vec(out, Shape::new(&[m, n]))
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape.rank(),
                op: "transpose",
            });
        }
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(out, Shape::new(&[n, m]))
    }

    /// Extracts row `row` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `row` is out of bounds.
    pub fn row(&self, row: usize) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "row() requires a rank-2 tensor");
        let n = self.shape.dim(1);
        Tensor::from_slice(&self.data[row * n..(row + 1) * n])
    }

    /// Maximum absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
                op,
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// The shared GEMM kernel behind [`Tensor::matmul`]: `out = a · b` for
/// row-major `a [m, k]`, `b [k, n]`, `out [m, n]`.
///
/// [`Tensor::matmul`] runs it for training and the float model; it is
/// exposed as a slice-level free function so the property suite can
/// check [`matmul_dense_into`] against it on raw buffers.
///
/// # Layout and bit-exactness
///
/// The loop order is ikj with the **i-loop blocked four wide**: four
/// lhs rows walk the k dimension together, so every rhs row is loaded
/// once per block instead of once per row (4× less rhs traffic) and the
/// inner j-loop updates four independent output rows per rhs element —
/// a form the auto-vectorizer turns into wide SIMD with several
/// accumulator chains in flight. Each output element still accumulates
/// its `k` products **in ascending k order with sequential adds,
/// skipping terms whose `a` element is exactly zero** — the identical
/// float expression the historical scalar kernel evaluated, so results
/// are bit-exact with it (the parallel-equivalence, golden-vector and
/// hot-path differential suites pin this). Blocking only changes how
/// often rhs rows are re-read, never the per-element math.
///
/// (A k-blocked + j-unrolled variant was measured first and rejected:
/// the hand-unrolled dependent-add chains defeated the vectorizer and
/// lost to the plain axpy loop on every layer shape.)
///
/// # Panics
///
/// Panics when a slice length disagrees with its stated dimensions.
pub fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs buffer must be m*k");
    assert_eq!(b.len(), k * n, "rhs buffer must be k*n");
    assert_eq!(out.len(), m * n, "out buffer must be m*n");
    out.fill(0.0);
    let blocks = m / 4;
    for ib in 0..blocks {
        let i = ib * 4;
        let (r0, rest) = out[i * n..(i + 4) * n].split_at_mut(n);
        let (r1, rest) = rest.split_at_mut(n);
        let (r2, r3) = rest.split_at_mut(n);
        let a0_row = &a[i * k..(i + 1) * k];
        let a1_row = &a[(i + 1) * k..(i + 2) * k];
        let a2_row = &a[(i + 2) * k..(i + 3) * k];
        let a3_row = &a[(i + 3) * k..(i + 4) * k];
        for kk in 0..k {
            let (a0, a1, a2, a3) = (a0_row[kk], a1_row[kk], a2_row[kk], a3_row[kk]);
            let b_row = &b[kk * n..(kk + 1) * n];
            if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                // Dense fast path: one pass over the rhs row feeds all
                // four output rows (each `r*[j]` chain is independent —
                // this is what vectorizes).
                for (j, &bv) in b_row.iter().enumerate() {
                    r0[j] += a0 * bv;
                    r1[j] += a1 * bv;
                    r2[j] += a2 * bv;
                    r3[j] += a3 * bv;
                }
            } else {
                // A zero among the four: per-row zero-skip axpy keeps
                // the skipped terms identical to the historical kernel
                // (the rhs row is L1-hot for the up-to-3 passes).
                axpy_row(r0, a0, b_row);
                axpy_row(r1, a1, b_row);
                axpy_row(r2, a2, b_row);
                axpy_row(r3, a3, b_row);
            }
        }
    }
    // Remainder rows (m % 4): the historical scalar ikj row kernel.
    for i in blocks * 4..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            axpy_row(out_row, av, &b[kk * n..(kk + 1) * n]);
        }
    }
}

/// One scalar k-step of the ikj kernel: `out += a * b_row`, skipped
/// entirely when `a` is exactly zero (the historical sparsity shortcut —
/// preserved because `0.0 * b` is not a bitwise no-op for every `b`).
#[inline]
fn axpy_row(out: &mut [f32], a: f32, b_row: &[f32]) {
    if a == 0.0 {
        return;
    }
    for (o, &b) in out.iter_mut().zip(b_row.iter()) {
        *o += a * b;
    }
}

/// Register-tiled dense GEMM: like [`matmul_into`] but **without** the
/// zero-skip shortcut, which lets a 4-row × 32-column accumulator tile
/// live in registers across the whole k walk (the skip's per-`(i,k)`
/// branch would force accumulators back to memory). Column and row
/// tails reuse the same tile at narrower widths, so every output
/// element — tail or not — is one serial ascending-k add chain.
///
/// # Bit-exactness contract
///
/// Requires every element of `b` to be finite. Under that premise the
/// result is **bit-identical** to [`matmul_into`] and the historical
/// zero-skip kernel: the extra `0.0 * b` terms are `±0.0`, and an IEEE
/// accumulator that starts at `+0.0` can never become `-0.0` (exact
/// cancellation rounds to `+0.0`, and `+0.0 + ±0.0 = +0.0`), so adding
/// them never changes a single bit. With a non-finite `b` element the
/// skipped `0 · ∞ = NaN` terms would differ — hence the dedicated entry
/// point instead of replacing [`matmul_into`]. It is the oracle of the
/// engine's projection (im2col + this GEMM is what
/// [`crate::ops::project`]'s tiles must reproduce bit for bit, and its
/// tests and the certified-hash tests check it), and the repo
/// benchmark's traced replay of the dense datapath runs it (projection
/// matrices are finite by construction).
///
/// # Panics
///
/// Panics when a slice length disagrees with its stated dimensions.
// analyze: alloc-free
pub fn matmul_dense_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs buffer must be m*k");
    assert_eq!(b.len(), k * n, "rhs buffer must be k*n");
    assert_eq!(out.len(), m * n, "out buffer must be m*n");
    const JT: usize = 32;
    let blocks = m / 4;
    for ib in 0..blocks {
        let i = ib * 4;
        let a0_row = &a[i * k..(i + 1) * k];
        let a1_row = &a[(i + 1) * k..(i + 2) * k];
        let a2_row = &a[(i + 2) * k..(i + 3) * k];
        let a3_row = &a[(i + 3) * k..(i + 4) * k];
        let mut jt = 0usize;
        while jt + JT <= n {
            // 4×32 accumulator tile: eight 16-lane vectors, each an
            // independent add chain (hides FP-add latency), all kept in
            // registers for the entire k walk. Per element the adds are
            // ascending in k — the historical order.
            let mut acc0 = [0.0f32; JT];
            let mut acc1 = [0.0f32; JT];
            let mut acc2 = [0.0f32; JT];
            let mut acc3 = [0.0f32; JT];
            for kk in 0..k {
                let bv = &b[kk * n + jt..kk * n + jt + JT];
                let (x0, x1, x2, x3) = (a0_row[kk], a1_row[kk], a2_row[kk], a3_row[kk]);
                for l in 0..JT {
                    acc0[l] += x0 * bv[l];
                    acc1[l] += x1 * bv[l];
                    acc2[l] += x2 * bv[l];
                    acc3[l] += x3 * bv[l];
                }
            }
            out[i * n + jt..i * n + jt + JT].copy_from_slice(&acc0);
            out[(i + 1) * n + jt..(i + 1) * n + jt + JT].copy_from_slice(&acc1);
            out[(i + 2) * n + jt..(i + 2) * n + jt + JT].copy_from_slice(&acc2);
            out[(i + 3) * n + jt..(i + 3) * n + jt + JT].copy_from_slice(&acc3);
            jt += JT;
        }
        let w = n - jt;
        if w > 0 {
            // Column tail (n % 32): the same 4-row register tile at
            // runtime width `w` instead of a per-column scalar walk —
            // the lanes stay independent add chains, and each output
            // element still accumulates ascending in k in one serial
            // chain, so the result is bit-identical to the scalar tail.
            let mut acc0 = [0.0f32; JT];
            let mut acc1 = [0.0f32; JT];
            let mut acc2 = [0.0f32; JT];
            let mut acc3 = [0.0f32; JT];
            for kk in 0..k {
                let bv = &b[kk * n + jt..(kk + 1) * n];
                let (x0, x1, x2, x3) = (a0_row[kk], a1_row[kk], a2_row[kk], a3_row[kk]);
                for (l, &bvl) in bv.iter().enumerate() {
                    acc0[l] += x0 * bvl;
                    acc1[l] += x1 * bvl;
                    acc2[l] += x2 * bvl;
                    acc3[l] += x3 * bvl;
                }
            }
            out[i * n + jt..(i + 1) * n].copy_from_slice(&acc0[..w]);
            out[(i + 1) * n + jt..(i + 2) * n].copy_from_slice(&acc1[..w]);
            out[(i + 2) * n + jt..(i + 3) * n].copy_from_slice(&acc2[..w]);
            out[(i + 3) * n + jt..(i + 4) * n].copy_from_slice(&acc3[..w]);
        }
    }
    // Remainder rows (m % 4): a 1-row register tile per column block —
    // accumulators live in registers across the k walk instead of
    // read-modify-writing `out` per (k, j). Same per-element add chain
    // (ascending k), so bit-identical to the memory-accumulating form.
    for i in blocks * 4..m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut jt = 0usize;
        while jt < n {
            let w = JT.min(n - jt);
            let mut acc = [0.0f32; JT];
            for (kk, &av) in a_row.iter().enumerate() {
                let bv = &b[kk * n + jt..kk * n + jt + w];
                for (l, &bvl) in bv.iter().enumerate() {
                    acc[l] += av * bvl;
                }
            }
            out[i * n + jt..i * n + jt + w].copy_from_slice(&acc[..w]);
            jt += JT;
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::new(dims)).expect("test tensor")
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 3], Shape::new(&[2, 2])).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], Shape::new(&[2, 2])).is_ok());
    }

    #[test]
    fn zeros_and_full() {
        assert!(Tensor::zeros(Shape::new(&[3]))
            .data()
            .iter()
            .all(|&x| x == 0.0));
        assert!(Tensor::full(Shape::new(&[3]), 2.5)
            .data()
            .iter()
            .all(|&x| x == 2.5));
    }

    #[test]
    fn elementwise_ops() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2, 1]);
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let b = t(&[2.0, 4.0], &[2]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 3.0]);
    }

    #[test]
    fn dot_matches_manual() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn paper_example_dot_product() {
        // The worked example from DeepCAM §II-B: x·y = 2.0765.
        let x = t(&[0.6012, 0.8383, 0.6859, 0.5712], &[4]);
        let y = t(&[0.9044, 0.5352, 0.8110, 0.9243], &[4]);
        let d = x.dot(&y).unwrap();
        assert!((d - 2.0765).abs() < 1e-3, "got {d}");
    }

    #[test]
    fn l2_norm() {
        let a = t(&[3.0, 4.0], &[2]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(a.matmul(&eye).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &Shape::new(&[2, 2]));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[1.0; 6], &[2, 3]);
        let b = t(&[1.0; 6], &[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = t(&[1.0; 3], &[3]);
        assert!(v.matmul(&a).is_err());
    }

    /// The historical scalar ikj kernel, kept verbatim as the bit-exact
    /// reference for the blocked/unrolled `matmul_into`.
    fn matmul_reference(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_bit_exact_with_scalar_reference() {
        // Shapes straddling every block/unroll boundary (k % 4, n % 4),
        // with values whose accumulation order is observable in f32 and
        // exact zeros to exercise the sparsity fallback.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as i32 % 1000) as f32 / 7.0 - 70.0;
            if v.rem_euclid(11.0) < 1.0 {
                0.0
            } else {
                v
            }
        };
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 5),
            (3, 4, 4),
            (4, 5, 7),
            (2, 8, 12),
            (5, 17, 9),
            (1, 100, 3),
            (3, 7, 33),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let mut fast = vec![f32::NAN; m * n]; // kernel must overwrite scratch
            matmul_into(&a, m, k, &b, n, &mut fast);
            let reference = matmul_reference(&a, m, k, &b, n);
            for (x, y) in fast.iter().zip(reference.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn dense_matmul_bit_exact_with_skip_kernel_on_finite_data() {
        // The dense register-tiled kernel must agree bit-for-bit with
        // the zero-skip kernels whenever the rhs is finite — including
        // lhs buffers full of exact zeros (the ±0.0-term proof in the
        // doc comment). Shapes cross the 4-row and 32-column tile
        // boundaries.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((state >> 33) as i32 % 1000) as f32 / 9.0 - 50.0;
            if v.rem_euclid(7.0) < 2.0 {
                0.0
            } else {
                v
            }
        };
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 3, 32),
            (5, 8, 33),
            (7, 16, 40),
            (8, 27, 64),
            (3, 5, 100),
            (9, 72, 31),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
            let mut skip = vec![0.0f32; m * n];
            matmul_into(&a, m, k, &b, n, &mut skip);
            let mut dense = vec![f32::NAN; m * n];
            matmul_dense_into(&a, m, k, &b, n, &mut dense);
            for (x, y) in dense.iter().zip(skip.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn matmul_into_validates_lengths() {
        let mut out = vec![0.0f32; 4];
        let a = vec![0.0f32; 4];
        let b = vec![0.0f32; 4];
        matmul_into(&a, 2, 2, &b, 2, &mut out); // consistent: fine
        let result = std::panic::catch_unwind(move || {
            let mut out = vec![0.0f32; 3];
            matmul_into(&a, 2, 2, &b, 2, &mut out);
        });
        assert!(result.is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let back = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        let a = t(&[1.0, 5.0, 5.0, 2.0], &[4]);
        assert_eq!(a.argmax(), Some((1, 5.0)));
        assert_eq!(Tensor::zeros(Shape::new(&[0])).argmax(), None);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[4]);
        let b = a.clone().reshape(Shape::new(&[2, 2])).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(Shape::new(&[3])).is_err());
    }

    #[test]
    fn row_extraction() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.row(1).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn display_truncates() {
        let a = Tensor::zeros(Shape::new(&[100]));
        let s = a.to_string();
        assert!(s.contains('…'));
    }

    #[test]
    fn finite_check() {
        let mut a = t(&[1.0, 2.0], &[2]);
        assert!(a.all_finite());
        a.data_mut()[0] = f32::NAN;
        assert!(!a.all_finite());
    }
}
