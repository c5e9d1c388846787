//! The dense row-major `f32` tensor type and its elementwise / reduction /
//! shape-manipulation operations.

use crate::linalg;
use crate::pool;
use crate::Shape;
use std::borrow::Cow;
use std::fmt;

/// Minimum elements per task for pooled elementwise loops; below twice this
/// the pool runs the loop inline, so small tensors pay no dispatch cost.
const ELEMENTWISE_GRAIN: usize = 16 * 1024;

/// Fixed reduction chunk. Partial sums are always taken over `[i·CHUNK,
/// (i+1)·CHUNK)` windows regardless of pool size, so reductions are
/// bit-identical for any thread count.
const REDUCE_CHUNK: usize = 1 << 16;

/// A dense, contiguous, row-major n-dimensional array of `f32`.
///
/// `Tensor` is the value type flowing through the whole ZK-GanDef stack:
/// images are `[N, C, H, W]`, logits are `[N, 10]`, parameters are whatever
/// their layer needs. All arithmetic is eager; the autodiff crate layers a
/// tape on top.
///
/// Elementwise binary operations broadcast NumPy-style (see
/// [`Shape::broadcast`]). Operations panic on incompatible shapes — shape
/// errors in this workspace are always programming bugs, never data-dependent
/// conditions, so they are enforced with panics rather than `Result`s.
///
/// # Example
///
/// ```
/// use gandef_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
/// let col = Tensor::from_vec(vec![2, 1], vec![10., 100.]);
/// let y = x.mul(&col); // broadcasts the column over the 3 columns of x
/// assert_eq!(y.as_slice(), &[10., 20., 30., 400., 500., 600.]);
/// assert_eq!(y.sum(), 1560.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::full(dims, 0.0)
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::from(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f32>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// Non-panicking [`Tensor::from_vec`]: returns `None` if a dimension
    /// is zero or `data.len()` does not equal the product of `dims`. For
    /// reconstructing tensors from untrusted bytes (checkpoint loading)
    /// where malformed input must become a typed error, not a panic.
    pub fn try_from_vec(dims: Vec<usize>, data: Vec<f32>) -> Option<Self> {
        let shape = Shape::try_new(dims)?;
        if data.len() == shape.numel() {
            Some(Tensor { shape, data })
        } else {
            None
        }
    }

    /// Creates a tensor by evaluating `f` at every flat (row-major) index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::from(dims);
        let data = (0..shape.numel()).map(|i| f(i)).collect();
        Tensor { shape, data }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or of the wrong rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or of the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Extracts the value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a single-element tensor, got shape {}",
            self.shape
        );
        self.data[0]
    }

    /// True if every element is finite (no NaN / ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// True if `self` and `other` have the same shape and all elements agree
    /// within absolute tolerance `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    // ---------------------------------------------------------------------
    // Unary elementwise
    // ---------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor. Large tensors
    /// are processed in parallel on the worker pool, so `f` must be `Sync`.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let src = &self.data;
        let mut data = vec![0.0f32; src.len()];
        pool::parallel_for_mut(&mut data, 1, ELEMENTWISE_GRAIN, |start, chunk| {
            // `data` is sized from `src`, so the sub-slice is in bounds by
            // construction. The slice-zip form carries no per-element
            // bounds checks, so simple closures autovectorize.
            let src = &src[start..start + chunk.len()];
            for (v, &s) in chunk.iter_mut().zip(src) {
                *v = f(s);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element in place (pooled for large tensors).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        pool::parallel_for_mut(&mut self.data, 1, ELEMENTWISE_GRAIN, |_, chunk| {
            for v in chunk {
                *v = f(*v);
            }
        });
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Elementwise `e^x`.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise sign: -1, 0 or +1 (the FGSM direction kernel).
    pub fn signum(&self) -> Tensor {
        self.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Elementwise clamp into `[lo, hi]` — the paper's pixel projection `F`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Elementwise rectified linear unit `max(0, x)`.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Elementwise logistic sigmoid, computed in a numerically stable form.
    pub fn sigmoid(&self) -> Tensor {
        self.map(stable_sigmoid)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    // ---------------------------------------------------------------------
    // Binary elementwise (broadcasting)
    // ---------------------------------------------------------------------

    /// Elementwise sum with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, |a, b| a + b)
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, |a, b| a - b)
    }

    /// Elementwise product with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, |a, b| a * b)
    }

    /// Elementwise quotient with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.broadcast_zip(other, f32::max)
    }

    /// Applies a binary function elementwise with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn broadcast_zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        if self.shape == other.shape {
            // Fast path: identical shapes, pooled for large tensors.
            let (a, b) = (&self.data, &other.data);
            let mut data = vec![0.0f32; a.len()];
            pool::parallel_for_mut(&mut data, 1, ELEMENTWISE_GRAIN, |start, chunk| {
                // The `shape == shape` branch above keeps `b` as long as
                // `a`, and `data` is sized from `a`. Bounds-check-free
                // slice-zips let arithmetic closures autovectorize.
                let a = &a[start..start + chunk.len()];
                let b = &b[start..start + chunk.len()];
                for ((v, &x), &y) in chunk.iter_mut().zip(a).zip(b) {
                    *v = f(x, y);
                }
            });
            return Tensor {
                shape: self.shape.clone(),
                data,
            };
        }
        if other.numel() == 1 {
            let b = other.data[0];
            return self.map(|a| f(a, b));
        }
        if self.numel() == 1 {
            let a = self.data[0];
            return other.map(|b| f(a, b));
        }
        let out_shape = self.shape.broadcast(&other.shape).unwrap_or_else(|| {
            // lint:allow(panic) — documented `# Panics` contract of the
            // elementwise zip: incompatible shapes are a caller bug.
            panic!(
                "shapes {} and {} are not broadcast-compatible",
                self.shape, other.shape
            )
        });
        let out_dims = out_shape.dims().to_vec();
        let a_idx = BroadcastIndexer::new(&self.shape, &out_shape);
        let b_idx = BroadcastIndexer::new(&other.shape, &out_shape);
        let n = out_shape.numel();
        let mut data = Vec::with_capacity(n);
        let mut index = vec![0usize; out_dims.len()];
        for _ in 0..n {
            data.push(f(
                self.data[a_idx.offset(&index)],
                other.data[b_idx.offset(&index)],
            ));
            increment_index(&mut index, &out_dims);
        }
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// In-place `self += other` (shapes must match exactly).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.zip_assign(other, |a, b| a + b);
    }

    /// In-place `self += alpha * other` (shapes must match exactly).
    ///
    /// This is the optimizer hot path (`w -= lr * g` etc.).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.zip_assign(other, |a, b| a + alpha * b);
    }

    fn zip_assign(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(
            self.shape, other.shape,
            "in-place op requires identical shapes, got {} vs {}",
            self.shape, other.shape
        );
        let b = &other.data;
        pool::parallel_for_mut(&mut self.data, 1, ELEMENTWISE_GRAIN, |start, chunk| {
            // Slice-zip form: no per-element bounds checks, so the axpy /
            // add_assign closures compile to packed FMA loops.
            let b = &b[start..start + chunk.len()];
            for (a, &y) in chunk.iter_mut().zip(b) {
                *a = f(*a, y);
            }
        });
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    ///
    /// Accumulates in `f64` over fixed [`REDUCE_CHUNK`]-sized windows (the
    /// windows run on the pool, the partials fold in index order), so the
    /// result does not depend on the pool size. Under
    /// [`crate::accum::Accum::F64`] each window is a strictly sequential
    /// chain (the bit-exact oracle order); the default mode sums eight
    /// interleaved lanes per window, which breaks the f64 add latency
    /// chain while staying deterministic for any thread count.
    pub fn sum(&self) -> f32 {
        let mode = crate::accum::accum();
        let n = self.data.len();
        if n <= REDUCE_CHUNK {
            return window_sum(&self.data, mode) as f32;
        }
        let chunks = n.div_ceil(REDUCE_CHUNK);
        let partials = pool::parallel_tasks(chunks, |ci| {
            let start = ci * REDUCE_CHUNK;
            let end = (start + REDUCE_CHUNK).min(n);
            window_sum(&self.data[start..end], mode)
        });
        partials.into_iter().sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    pub fn max_value(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min_value(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum absolute element (`l∞` norm).
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Euclidean (`l2`) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Sums along `axis`, removing that dimension.
    ///
    /// Under [`crate::accum::Accum::F64`] the per-output partials are kept
    /// in `f64` and rounded to `f32` once at the end (`sum` over the full
    /// tensor already does this unconditionally).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "axis {axis} out of range");
        let dims = self.shape.dims();
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out_dims: Vec<usize> = dims.to_vec();
        out_dims.remove(axis);
        let out_shape = if out_dims.is_empty() {
            Shape::scalar()
        } else {
            Shape::new(out_dims)
        };
        let mut data = vec![0.0f32; outer * inner];
        match crate::accum::accum() {
            crate::accum::Accum::F32 => {
                for o in 0..outer {
                    for m in 0..mid {
                        let base = (o * mid + m) * inner;
                        let out_base = o * inner;
                        for i in 0..inner {
                            data[out_base + i] += self.data[base + i];
                        }
                    }
                }
            }
            crate::accum::Accum::F64 => {
                let mut acc = vec![0.0f64; outer * inner];
                for o in 0..outer {
                    for m in 0..mid {
                        let base = (o * mid + m) * inner;
                        let out_base = o * inner;
                        for i in 0..inner {
                            acc[out_base + i] += self.data[base + i] as f64;
                        }
                    }
                }
                for (d, v) in data.iter_mut().zip(acc) {
                    *d = v as f32;
                }
            }
        }
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// Sum-reduces this tensor back to `target` — the adjoint of
    /// broadcasting. Every axis that was expanded during a broadcast is
    /// summed out. Used by autodiff to push gradients through broadcasts.
    ///
    /// # Panics
    ///
    /// Panics if `target` does not broadcast to `self.shape()`.
    pub fn reduce_to(&self, target: &Shape) -> Tensor {
        assert!(
            target.broadcasts_to(&self.shape),
            "cannot reduce {} to {}: target does not broadcast to source",
            self.shape,
            target
        );
        if *target == self.shape {
            return self.clone();
        }
        // The first reduction reads `self` directly; only its (smaller)
        // result is owned.
        let mut cur = Cow::Borrowed(self);
        // Remove leading broadcast-added axes.
        while cur.rank() > target.rank() {
            cur = Cow::Owned(cur.sum_axis(0));
        }
        // Sum axes where the target had size 1.
        for axis in 0..target.rank() {
            if target.dim(axis) == 1 && cur.dim(axis) != 1 {
                let mut summed = cur.sum_axis(axis);
                let mut dims = cur.shape.dims().to_vec();
                dims[axis] = 1;
                summed.shape = Shape::new(dims);
                cur = Cow::Owned(summed);
            }
        }
        debug_assert_eq!(cur.shape, *target);
        cur.into_owned()
    }

    // ---------------------------------------------------------------------
    // 2-D row helpers (logits live in [N, C])
    // ---------------------------------------------------------------------

    /// Row-wise softmax of a `[N, C]` tensor, numerically stabilized by the
    /// row max.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        self.log_softmax_rows().exp()
    }

    /// Row-wise log-softmax of a `[N, C]` tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "log_softmax_rows requires a [N, C] tensor");
        let (_, c) = (self.dim(0), self.dim(1));
        let src = &self.data;
        let mut data = vec![0.0f32; src.len()];
        let grain_rows = (ELEMENTWISE_GRAIN / c).max(1);
        pool::parallel_for_mut(&mut data, c, grain_rows, |r0, chunk| {
            for (ri, out_row) in chunk.chunks_mut(c).enumerate() {
                let r = r0 + ri;
                let row = &src[r * c..(r + 1) * c];
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let logsum = row
                    .iter()
                    .map(|&v| ((v - m) as f64).exp())
                    .sum::<f64>()
                    .ln() as f32;
                for (j, &v) in row.iter().enumerate() {
                    out_row[j] = v - m - logsum;
                }
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Row-wise argmax of a `[N, C]` tensor (the predicted class).
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires a [N, C] tensor");
        let (n, c) = (self.dim(0), self.dim(1));
        (0..n)
            .map(|r| {
                let row = &self.data[r * c..(r + 1) * c];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::from(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} to {} changes element count",
            self.shape,
            shape
        );
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Flattens `[N, ...]` into `[N, rest]`, keeping the batch dimension.
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn flatten_batch(&self) -> Tensor {
        assert!(self.rank() >= 1, "flatten_batch requires rank >= 1");
        let n = self.dim(0);
        self.reshape(&[n, self.numel() / n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2d requires a rank-2 tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: Shape::new(vec![n, m]),
            data,
        }
    }

    /// Copies rows `[start, end)` along axis 0 into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1, "slice_rows requires rank >= 1");
        assert!(
            start < end && end <= self.dim(0),
            "invalid row range {start}..{end} for {} rows",
            self.dim(0)
        );
        let row = self.numel() / self.dim(0);
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Tensor {
            shape: Shape::new(dims),
            data: self.data[start * row..end * row].to_vec(),
        }
    }

    /// Copies the rows at `indices` (along axis 0), in order, into a new
    /// tensor. Indices may repeat.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "select_rows requires rank >= 1");
        assert!(
            !indices.is_empty(),
            "select_rows requires at least one index"
        );
        let n = self.dim(0);
        let row = self.numel() / n;
        let mut dims = self.shape.dims().to_vec();
        dims[0] = indices.len();
        let mut data = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            assert!(i < n, "row index {i} out of bounds for {n} rows");
            data.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        Tensor {
            shape: Shape::new(dims),
            data,
        }
    }

    /// Concatenates tensors along axis 0. All non-batch dimensions must
    /// match.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree beyond axis 0.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(
            !parts.is_empty(),
            "concat_rows requires at least one tensor"
        );
        let tail = &parts[0].shape.dims()[1..];
        let mut total = 0;
        for p in parts {
            assert_eq!(
                &p.shape.dims()[1..],
                tail,
                "concat_rows: trailing dimensions disagree"
            );
            total += p.dim(0);
        }
        let mut dims = vec![total];
        dims.extend_from_slice(tail);
        let mut data = Vec::with_capacity(Shape::new(dims.clone()).numel());
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor {
            shape: Shape::new(dims),
            data,
        }
    }

    // ---------------------------------------------------------------------
    // Linear algebra (delegates to `linalg`)
    // ---------------------------------------------------------------------

    /// Matrix product of two rank-2 tensors: `[M, K] × [K, N] → [M, N]`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        linalg::matmul(self, other)
    }
}

/// Sums one reduction window in `f64`.
///
/// Under [`crate::accum::Accum::F64`] the chain is strictly sequential in
/// index order — the order the bit-exact resume oracle fingerprints.
/// Otherwise eight independent lanes accumulate interleaved elements and
/// fold in a fixed pairwise order: same inputs, a different (latency-
/// hiding) but equally deterministic summation tree.
fn window_sum(data: &[f32], mode: crate::accum::Accum) -> f64 {
    match mode {
        crate::accum::Accum::F64 => data.iter().map(|&v| v as f64).sum::<f64>(),
        crate::accum::Accum::F32 => {
            let mut lanes = [0.0f64; 8];
            let mut it = data.chunks_exact(8);
            for c in it.by_ref() {
                for (l, &v) in lanes.iter_mut().zip(c) {
                    *l += v as f64;
                }
            }
            let tail: f64 = it.remainder().iter().map(|&v| v as f64).sum();
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
                + tail
        }
    }
}

/// Numerically stable logistic sigmoid.
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Maps an output multi-index to a flat offset in a (possibly broadcast)
/// source tensor: broadcast axes contribute stride 0.
struct BroadcastIndexer {
    strides: Vec<usize>,
}

impl BroadcastIndexer {
    fn new(src: &Shape, out: &Shape) -> Self {
        let src_strides = src.strides();
        let mut strides = vec![0usize; out.rank()];
        let offset = out.rank() - src.rank();
        for i in 0..src.rank() {
            strides[offset + i] = if src.dim(i) == 1 { 0 } else { src_strides[i] };
        }
        BroadcastIndexer { strides }
    }

    fn offset(&self, index: &[usize]) -> usize {
        index.iter().zip(&self.strides).map(|(&i, &s)| i * s).sum()
    }
}

/// Advances a row-major multi-index by one position.
fn increment_index(index: &mut [usize], dims: &[usize]) {
    for axis in (0..dims.len()).rev() {
        index[axis] += 1;
        if index[axis] < dims[axis] {
            return;
        }
        index[axis] = 0;
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.numel() <= 16 {
            write!(f, "Tensor{} {:?}", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor{} [{:.4}, {:.4}, ... ; mean {:.4}]",
                self.shape,
                self.data[0],
                self.data[1],
                self.mean()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x3() -> Tensor {
        Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).as_slice(), &[2.5, 2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        let f = Tensor::from_fn(&[4], |i| i as f32);
        assert_eq!(f.as_slice(), &[0., 1., 2., 3.]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        Tensor::from_vec(vec![2, 2], vec![1.0]);
    }

    #[test]
    fn elementwise_same_shape() {
        let a = t2x3();
        let b = t2x3();
        assert_eq!(a.add(&b).as_slice(), &[2., 4., 6., 8., 10., 12.]);
        assert_eq!(a.sub(&b).sum(), 0.0);
        assert_eq!(a.mul(&b).as_slice(), &[1., 4., 9., 16., 25., 36.]);
        assert_eq!(a.div(&b).as_slice(), &[1.; 6]);
    }

    #[test]
    fn scalar_broadcast() {
        let a = t2x3();
        let s = Tensor::scalar(10.0);
        assert_eq!(a.add(&s).as_slice(), &[11., 12., 13., 14., 15., 16.]);
        assert_eq!(s.sub(&a).as_slice(), &[9., 8., 7., 6., 5., 4.]);
    }

    #[test]
    fn row_and_column_broadcast() {
        let a = t2x3();
        let row = Tensor::from_vec(vec![3], vec![10., 20., 30.]);
        assert_eq!(a.add(&row).as_slice(), &[11., 22., 33., 14., 25., 36.]);
        let col = Tensor::from_vec(vec![2, 1], vec![100., 200.]);
        assert_eq!(
            a.add(&col).as_slice(),
            &[101., 102., 103., 204., 205., 206.]
        );
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn incompatible_broadcast_panics() {
        t2x3().add(&Tensor::zeros(&[2, 4]));
    }

    #[test]
    fn unary_ops() {
        let a = Tensor::from_vec(vec![4], vec![-2., -0.5, 0., 3.]);
        assert_eq!(a.relu().as_slice(), &[0., 0., 0., 3.]);
        assert_eq!(a.signum().as_slice(), &[-1., -1., 0., 1.]);
        assert_eq!(a.abs().as_slice(), &[2., 0.5, 0., 3.]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1., -0.5, 0., 1.]);
        assert_eq!(a.square().as_slice(), &[4., 0.25, 0., 9.]);
        assert!((a.sigmoid().at(&[3]) - 0.95257413).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        let a = Tensor::from_vec(vec![2], vec![-100.0, 100.0]);
        let s = a.sigmoid();
        assert!(s.is_finite());
        assert!(s.at(&[0]) >= 0.0 && s.at(&[0]) < 1e-20);
        assert!((s.at(&[1]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reductions() {
        let a = t2x3();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.max_value(), 6.0);
        assert_eq!(a.min_value(), 1.0);
        let neg = a.neg();
        assert_eq!(neg.linf_norm(), 6.0);
        assert!((a.l2_norm() - 91.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn sum_axis_each_axis() {
        let a = t2x3();
        let s0 = a.sum_axis(0);
        assert_eq!(s0.shape().dims(), &[3]);
        assert_eq!(s0.as_slice(), &[5., 7., 9.]);
        let s1 = a.sum_axis(1);
        assert_eq!(s1.shape().dims(), &[2]);
        assert_eq!(s1.as_slice(), &[6., 15.]);
    }

    #[test]
    fn sum_axis_middle() {
        let a = Tensor::from_fn(&[2, 3, 2], |i| i as f32);
        let s = a.sum_axis(1);
        assert_eq!(s.shape().dims(), &[2, 2]);
        // rows: [0+2+4, 1+3+5], [6+8+10, 7+9+11]
        assert_eq!(s.as_slice(), &[6., 9., 24., 27.]);
    }

    #[test]
    fn sum_is_pool_invariant_in_every_accum_mode() {
        use crate::accum::{with_accum, Accum};
        // Spans several REDUCE_CHUNK windows plus a ragged lane tail.
        let a = Tensor::from_fn(&[3 * (1 << 16) + 13], |i| {
            ((i * 31 % 1009) as f32 - 504.0) / 1009.0
        });
        for mode in [Accum::F32, Accum::F64] {
            let pooled = with_accum(mode, || a.sum());
            let serial = crate::pool::with_serial(|| with_accum(mode, || a.sum()));
            assert_eq!(pooled.to_bits(), serial.to_bits());
        }
        // The f64-mode chain is the strict sequential order the resume
        // oracle fingerprints — it must match a naive fold exactly.
        let oracle = a.as_slice().iter().map(|&v| v as f64).sum::<f64>();
        let chained = with_accum(Accum::F64, || a.sum());
        // Partials still fold per window; reproduce that fold here.
        let windowed: f64 = a
            .as_slice()
            .chunks(1 << 16)
            .map(|w| w.iter().map(|&v| v as f64).sum::<f64>())
            .sum();
        assert_eq!(chained.to_bits(), (windowed as f32).to_bits());
        // Both orders agree to f32 for this well-conditioned input.
        assert!((oracle as f32 - chained).abs() < 1e-4);
    }

    #[test]
    fn sum_axis_modes_agree_on_exact_data() {
        use crate::accum::{with_accum, Accum};
        let a = Tensor::from_fn(&[2, 3, 2], |i| i as f32);
        for mode in [Accum::F32, Accum::F64] {
            let s = with_accum(mode, || a.sum_axis(1));
            assert_eq!(s.as_slice(), &[6., 9., 24., 27.]);
        }
    }

    #[test]
    fn reduce_to_inverts_broadcast() {
        let col = Tensor::from_vec(vec![2, 1], vec![1., 2.]);
        let big = col.add(&Tensor::zeros(&[2, 3])); // broadcast to [2,3]
        let back = big.reduce_to(&Shape::new(vec![2, 1]));
        assert_eq!(back.as_slice(), &[3., 6.]);

        let row = Tensor::from_vec(vec![3], vec![1., 1., 1.]);
        let big = row.add(&Tensor::zeros(&[4, 3]));
        let back = big.reduce_to(&Shape::new(vec![3]));
        assert_eq!(back.as_slice(), &[4., 4., 4.]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 1000., 1001., 1002.]);
        let s = a.softmax_rows();
        assert!(s.is_finite(), "softmax must be stable for large logits");
        for r in 0..2 {
            let total: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((total - 1.0).abs() < 1e-5);
        }
        // Shift invariance: both rows are the same distribution.
        for c in 0..3 {
            assert!((s.at(&[0, c]) - s.at(&[1, c])).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.3, 5.0, -1.0, 2.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reshape_and_flatten() {
        let a = t2x3();
        let r = a.reshape(&[3, 2]);
        assert_eq!(r.dim(0), 3);
        assert_eq!(r.as_slice(), a.as_slice());
        let img = Tensor::from_fn(&[2, 1, 2, 2], |i| i as f32);
        let flat = img.flatten_batch();
        assert_eq!(flat.shape().dims(), &[2, 4]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t2x3();
        let t = a.transpose2d();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
        assert_eq!(t.transpose2d(), a);
    }

    #[test]
    fn slicing_and_concat() {
        let a = t2x3();
        let top = a.slice_rows(0, 1);
        assert_eq!(top.as_slice(), &[1., 2., 3.]);
        let sel = a.select_rows(&[1, 0, 1]);
        assert_eq!(sel.dim(0), 3);
        assert_eq!(sel.as_slice(), &[4., 5., 6., 1., 2., 3., 4., 5., 6.]);
        let cat = Tensor::concat_rows(&[&top, &a]);
        assert_eq!(cat.dim(0), 3);
        assert_eq!(cat.as_slice(), &[1., 2., 3., 1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.slice_rows(1, 2).as_slice(), &[4., 5., 6.]);
    }

    #[test]
    #[should_panic(expected = "trailing dimensions disagree")]
    fn concat_rows_rejects_mismatched_rows() {
        // Without the shape assert this builds a [4, 3] tensor over 14
        // values: no index goes out of bounds to catch it.
        Tensor::concat_rows(&[&t2x3(), &Tensor::zeros(&[2, 4])]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut w = Tensor::ones(&[3]);
        let g = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        w.axpy(-0.5, &g);
        assert_eq!(w.as_slice(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::from_vec(vec![2], vec![1.0 + 1e-6, 1.0 - 1e-6]);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
        assert!(!a.allclose(&Tensor::ones(&[3]), 1.0));
    }
}
