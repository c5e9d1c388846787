//! Reverse-mode automatic differentiation over [`gandef_tensor::Tensor`].
//!
//! The paper's training procedures (Figure 2) and every white-box attack
//! (§IV-C) need gradients — of losses with respect to *parameters* during
//! training, and with respect to *inputs* during attack generation. This
//! crate provides both through a single mechanism: a [`Tape`] that records
//! each primitive operation as it executes and can then replay the chain
//! rule backwards from any scalar.
//!
//! # Design
//!
//! * A [`Tape`] owns a flat, append-only list of nodes. Node indices
//!   ([`VarId`]) are handed back to the caller; construction order is a
//!   topological order, so a backward pass is one forward pass to mark
//!   nodes and one reverse sweep.
//! * Each op stores a boxed closure that takes the upstream gradient by
//!   value and returns an `Option<Tensor>` per parent. Closures copy no
//!   forward values: they read their node's and their parents' values back
//!   from the tape.
//! * Leaves ([`Tape::leaf`]) are inputs *or* parameters — the tape does not
//!   distinguish. [`Tape::backward_wrt`] computes only the gradients of the
//!   leaves the caller names: it marks the nodes that lead to them, sweeps
//!   only those, asks each op for only its marked parents' gradients, and
//!   drops each intermediate gradient once it has been passed on. Attacks
//!   name the image leaf; optimizers name the parameter leaves.
//!   [`Tape::backward`] names every leaf, and a wanted leaf's gradient is
//!   bit-identical either way.
//! * Tapes are cheap and short-lived: one per training step / attack
//!   iteration.
//!
//! # Example
//!
//! ```
//! use gandef_autodiff::Tape;
//! use gandef_tensor::Tensor;
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::from_vec(vec![2], vec![3.0, -1.0]));
//! let y = tape.square(x); // y = x²
//! let loss = tape.sum_all(y);
//! let grads = tape.backward_wrt(loss, &[x]);
//! // d(Σx²)/dx = 2x
//! assert_eq!(grads.get(x).unwrap().as_slice(), &[6.0, -2.0]);
//! ```

#![deny(missing_docs)]

mod grad_check;
mod ops;
mod tape;

pub use grad_check::numeric_grad;
pub use tape::{Gradients, Tape, VarId};
