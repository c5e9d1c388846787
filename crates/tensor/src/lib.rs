//! Dense `f32` tensor math substrate for the ZK-GanDef reproduction.
//!
//! The original paper implements its models in TensorFlow; no comparable
//! stack is available to this build, so this crate provides the minimal —
//! but complete and well-tested — numeric kernel set the rest of the
//! workspace needs:
//!
//! * [`Tensor`]: a row-major, contiguous, n-dimensional `f32` array with
//!   NumPy-style broadcasting for elementwise arithmetic.
//! * [`pool`]: a lazily-initialized, persistent worker thread pool (std
//!   only) that every parallel kernel in the workspace runs on — threads
//!   are spawned once and reused for the life of the process.
//! * [`linalg`]: cache-blocked, packed and (for large problems) pooled
//!   matrix multiplication, including the transposed variants backward
//!   passes need.
//! * [`conv`]: implicit-GEMM 2-D convolution (plus im2col oracle
//!   functions), max pooling and global average pooling, each with
//!   explicit backward kernels.
//! * [`rng`]: a seeded PRNG wrapper with the Gaussian sampler (Box–Muller)
//!   used by the paper's zero-knowledge augmentation (§IV-B).
//! * [`check`]: a deterministic in-repo property-testing helper (seeded by
//!   [`rng::Prng`]) so the workspace tests compile and run with no
//!   registry access.
//!
//! # Example
//!
//! ```
//! use gandef_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Tensor::full(&[2, 2], 0.5);
//! let c = a.mul(&b);
//! assert_eq!(c.as_slice(), &[0.5, 1.0, 1.5, 2.0]);
//! ```

#![deny(missing_docs)]

mod shape;
mod tensor;

pub mod accum;
pub mod check;
pub mod conv;
pub mod linalg;
pub mod pool;
pub mod rng;

pub use shape::Shape;
pub use tensor::Tensor;
