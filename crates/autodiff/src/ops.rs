//! Differentiable primitive operations recorded on the [`Tape`].
//!
//! Every method takes node ids, computes the forward value eagerly, and
//! registers a closure mapping the upstream gradient to parent gradients.
//! Closures capture no forward values: they read their node's and its
//! parents' values back from the tape, and compute a gradient only for the
//! parents the sweep needs. Broadcasting ops push gradients back through
//! [`Tensor::reduce_to`], the adjoint of broadcasting.

use crate::tape::{Tape, VarId};
use gandef_tensor::accum::{accum, Accum};
use gandef_tensor::conv::{self, ConvSpec};
use gandef_tensor::rng::Prng;
use gandef_tensor::{linalg, Shape, Tensor};

/// `g` pushed back through a broadcast to `target`: moved as is when no
/// axis was broadcast.
fn unbroadcast(g: Tensor, target: &Shape) -> Tensor {
    if g.shape() == target {
        g
    } else {
        g.reduce_to(target)
    }
}

impl Tape {
    // -----------------------------------------------------------------
    // Elementwise binary (broadcasting)
    // -----------------------------------------------------------------

    /// `a + b` with broadcasting.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).add(self.value(b));
        self.push(
            value,
            vec![a, b],
            Some(Box::new(|g, ctx| {
                let (sa, sb) = (ctx.input(0).shape(), ctx.input(1).shape());
                match (ctx.wants(0), ctx.wants(1)) {
                    (true, true) => {
                        let gb = g.reduce_to(sb);
                        vec![Some(unbroadcast(g, sa)), Some(gb)]
                    }
                    (true, false) => vec![Some(unbroadcast(g, sa)), None],
                    (false, _) => vec![None, Some(unbroadcast(g, sb))],
                }
            })),
        )
    }

    /// `a - b` with broadcasting.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).sub(self.value(b));
        self.push(
            value,
            vec![a, b],
            Some(Box::new(|g, ctx| {
                let (sa, sb) = (ctx.input(0).shape(), ctx.input(1).shape());
                let gb = ctx.wants(1).then(|| unbroadcast(g.neg(), sb));
                let ga = ctx.wants(0).then(|| unbroadcast(g, sa));
                vec![ga, gb]
            })),
        )
    }

    /// Elementwise `a ⊙ b` with broadcasting.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = self.value(a).mul(self.value(b));
        self.push(
            value,
            vec![a, b],
            Some(Box::new(|g, ctx| {
                let (va, vb) = (ctx.input(0), ctx.input(1));
                vec![
                    ctx.wants(0).then(|| unbroadcast(g.mul(vb), va.shape())),
                    ctx.wants(1).then(|| unbroadcast(g.mul(va), vb.shape())),
                ]
            })),
        )
    }

    // -----------------------------------------------------------------
    // Elementwise unary
    // -----------------------------------------------------------------

    /// `-x`.
    pub fn neg(&mut self, x: VarId) -> VarId {
        let value = self.value(x).neg();
        self.push(
            value,
            vec![x],
            Some(Box::new(|mut g, _| {
                g.map_inplace(|v| -v);
                vec![Some(g)]
            })),
        )
    }

    /// `alpha · x`.
    pub fn scale(&mut self, x: VarId, alpha: f32) -> VarId {
        let value = self.value(x).scale(alpha);
        self.push(
            value,
            vec![x],
            Some(Box::new(move |mut g, _| {
                g.map_inplace(|v| v * alpha);
                vec![Some(g)]
            })),
        )
    }

    /// `x²` elementwise.
    pub fn square(&mut self, x: VarId) -> VarId {
        let value = self.value(x).square();
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                vec![Some(g.mul(ctx.input(0)).scale(2.0))]
            })),
        )
    }

    /// Elementwise `min(x, cap)`. Gradient flows only where `x < cap`
    /// (ties get zero gradient). Used to bound adversarial reward terms in
    /// minimax objectives.
    pub fn clamp_max(&mut self, x: VarId, cap: f32) -> VarId {
        let value = self.value(x).map(|v| v.min(cap));
        self.push(
            value,
            vec![x],
            Some(Box::new(move |g, ctx| {
                vec![Some(g.broadcast_zip(ctx.input(0), |gi, xi| {
                    if xi < cap {
                        gi
                    } else {
                        0.0
                    }
                }))]
            })),
        )
    }

    /// `eˣ` elementwise.
    pub fn exp(&mut self, x: VarId) -> VarId {
        let value = self.value(x).exp();
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| vec![Some(g.mul(ctx.output()))])),
        )
    }

    /// `ln x` elementwise.
    ///
    /// The caller is responsible for keeping `x` positive.
    pub fn ln(&mut self, x: VarId) -> VarId {
        let value = self.value(x).ln();
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| vec![Some(g.div(ctx.input(0)))])),
        )
    }

    /// Rectified linear unit `max(0, x)`.
    pub fn relu(&mut self, x: VarId) -> VarId {
        let value = self.value(x).relu();
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                vec![Some(g.broadcast_zip(ctx.input(0), |gi, xi| {
                    if xi > 0.0 {
                        gi
                    } else {
                        0.0
                    }
                }))]
            })),
        )
    }

    /// Logistic sigmoid `σ(x)`.
    pub fn sigmoid(&mut self, x: VarId) -> VarId {
        let value = self.value(x).sigmoid();
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                vec![Some(
                    g.broadcast_zip(ctx.output(), |gi, yi| gi * yi * (1.0 - yi)),
                )]
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: VarId) -> VarId {
        let value = self.value(x).tanh();
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                vec![Some(
                    g.broadcast_zip(ctx.output(), |gi, yi| gi * (1.0 - yi * yi)),
                )]
            })),
        )
    }

    // -----------------------------------------------------------------
    // Linear algebra & shape
    // -----------------------------------------------------------------

    /// Matrix product `[M, K] × [K, N] → [M, N]`.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let value = linalg::matmul(self.value(a), self.value(b));
        self.push(
            value,
            vec![a, b],
            Some(Box::new(|g, ctx| {
                // ∂A = g·Bᵀ, ∂B = Aᵀ·g
                vec![
                    ctx.wants(0).then(|| linalg::matmul_nt(&g, ctx.input(1))),
                    ctx.wants(1).then(|| linalg::matmul_tn(ctx.input(0), &g)),
                ]
            })),
        )
    }

    /// Reshape (element count preserved).
    pub fn reshape(&mut self, x: VarId, dims: &[usize]) -> VarId {
        let value = self.value(x).reshape(dims);
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                let dims = ctx.input(0).shape().dims().to_vec();
                vec![Some(Tensor::from_vec(dims, g.into_vec()))]
            })),
        )
    }

    /// Flattens `[N, ...]` into `[N, rest]`.
    pub fn flatten_batch(&mut self, x: VarId) -> VarId {
        let n = self.value(x).dim(0);
        let rest = self.value(x).numel() / n;
        self.reshape(x, &[n, rest])
    }

    /// Concatenates along axis 0. The backward pass splits the gradient
    /// back into the original row blocks.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing dimensions disagree.
    pub fn concat_rows(&mut self, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let refs: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Tensor::concat_rows(&refs);
        self.push(
            value,
            parts.to_vec(),
            Some(Box::new(|g, ctx| {
                let mut start = 0;
                (0..ctx.arity())
                    .map(|i| {
                        let rows = ctx.input(i).dim(0);
                        start += rows;
                        ctx.wants(i).then(|| g.slice_rows(start - rows, start))
                    })
                    .collect()
            })),
        )
    }

    // -----------------------------------------------------------------
    // Reductions
    // -----------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, x: VarId) -> VarId {
        let value = Tensor::scalar(self.value(x).sum());
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                vec![Some(Tensor::full(ctx.input(0).shape().dims(), g.item()))]
            })),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, x: VarId) -> VarId {
        let n = self.value(x).numel() as f32;
        let s = self.sum_all(x);
        self.scale(s, 1.0 / n)
    }

    /// `Σ (x ⊙ w)` against a constant weight tensor (scalar output).
    ///
    /// `w` is treated as a constant: it receives no gradient. This is the
    /// kernel behind per-class logit selection in DeepFool / CW (a one-hot
    /// `w` picks out one logit).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn dot_const(&mut self, x: VarId, w: &Tensor) -> VarId {
        assert_eq!(self.value(x).shape(), w.shape(), "dot_const shape mismatch");
        let value = Tensor::scalar(self.value(x).mul(w).sum());
        let w = w.clone();
        self.push(
            value,
            vec![x],
            Some(Box::new(move |g, _| vec![Some(w.scale(g.item()))])),
        )
    }

    /// Mean over the batch of the squared `l2` norm of each row:
    /// `(1/N) Σᵢ ‖xᵢ‖²` — the penalty kernel shared by CLP and CLS
    /// (Figure 2a/2b).
    ///
    /// # Panics
    ///
    /// Panics unless `x` is rank 2.
    pub fn l2_sq_mean_rows(&mut self, x: VarId) -> VarId {
        assert_eq!(self.value(x).rank(), 2, "l2_sq_mean_rows expects [N, C]");
        let n = self.value(x).dim(0) as f32;
        let sq = self.square(x);
        let s = self.sum_all(sq);
        self.scale(s, 1.0 / n)
    }

    // -----------------------------------------------------------------
    // Losses
    // -----------------------------------------------------------------

    /// Mean softmax cross-entropy between logits `z` (`[N, C]`) and constant
    /// one-hot targets (`[N, C]`): `(1/N) Σᵢ −log softmax(zᵢ)[tᵢ]`.
    ///
    /// The softmax and log are fused for numerical stability; the backward
    /// pass is the classic `(softmax(z) − t)/N`, with the softmax recomputed
    /// from the logits on the tape. Targets are constants and receive no
    /// gradient.
    ///
    /// Under [`Accum::F64`] the loss value is computed in one fused `f64`
    /// chain per row (shift, partition function, target dot and the batch
    /// mean all in `f64`), rounding to `f32` only once — the scalar the
    /// minimax game compares C-vs-D updates on never sees intermediate
    /// `f32` rounding.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or non-rank-2 inputs.
    pub fn softmax_cross_entropy(&mut self, z: VarId, targets: &Tensor) -> VarId {
        let logits = self.value(z);
        assert_eq!(logits.rank(), 2, "softmax_cross_entropy expects [N, C]");
        assert_eq!(
            logits.shape(),
            targets.shape(),
            "logits/targets shape mismatch"
        );
        let n = logits.dim(0) as f32;
        let value = match accum() {
            Accum::F32 => Tensor::scalar(-logits.log_softmax_rows().mul(targets).sum() / n),
            Accum::F64 => Tensor::scalar(softmax_cross_entropy_f64(logits, targets)),
        };
        let targets = targets.clone();
        self.push(
            value,
            vec![z],
            Some(Box::new(move |g, ctx| {
                let softmax = ctx.input(0).log_softmax_rows().exp();
                vec![Some(softmax.sub(&targets).scale(g.item() / n))]
            })),
        )
    }

    /// Mean binary cross-entropy between logits `z` (any shape) and constant
    /// targets in `[0, 1]` of the same shape, computed in the numerically
    /// stable "with-logits" form
    /// `max(z, 0) − z·y + ln(1 + e^{−|z|})`.
    ///
    /// The backward pass is `(σ(z) − y)/numel`. This is the discriminator
    /// loss of the ZK-GanDef minimax game; Table II's output `Sigmoid` is
    /// fused into this loss.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn bce_with_logits(&mut self, z: VarId, targets: &Tensor) -> VarId {
        let logits = self.value(z);
        assert_eq!(
            logits.shape(),
            targets.shape(),
            "logits/targets shape mismatch"
        );
        let n = logits.numel() as f32;
        let per_elem = logits.broadcast_zip(targets, |zi, yi| {
            zi.max(0.0) - zi * yi + (1.0 + (-zi.abs()).exp()).ln()
        });
        let value = Tensor::scalar(per_elem.sum() / n);
        let targets = targets.clone();
        self.push(
            value,
            vec![z],
            Some(Box::new(move |g, ctx| {
                let sig = ctx.input(0).sigmoid();
                vec![Some(sig.sub(&targets).scale(g.item() / n))]
            })),
        )
    }

    // -----------------------------------------------------------------
    // Convolution & pooling
    // -----------------------------------------------------------------

    /// 2-D convolution of `x` (`[N, C, H, W]`) with filters `w`
    /// (`[O, C, kh, kw]`).
    pub fn conv2d(&mut self, x: VarId, w: VarId, spec: ConvSpec) -> VarId {
        // The fused backward halves regather patches from the input on the
        // tape, so neither the input nor an im2col matrix is copied here.
        let value = conv::conv2d(self.value(x), self.value(w), spec);
        self.push(
            value,
            vec![x, w],
            Some(Box::new(move |g, ctx| {
                let (input, weight) = (ctx.input(0), ctx.input(1));
                vec![
                    ctx.wants(0)
                        .then(|| conv::conv2d_backward_data(&g, input, weight, spec)),
                    ctx.wants(1)
                        .then(|| conv::conv2d_backward_weight(&g, input, weight, spec)),
                ]
            })),
        )
    }

    /// Non-overlapping `k × k` max pooling.
    pub fn maxpool2d(&mut self, x: VarId, k: usize) -> VarId {
        let (value, indices) = conv::maxpool2d(self.value(x), k);
        self.push(
            value,
            vec![x],
            Some(Box::new(move |g, ctx| {
                vec![Some(conv::maxpool2d_backward(
                    &g,
                    &indices,
                    ctx.input(0).shape().dims(),
                ))]
            })),
        )
    }

    /// Global average pooling `[N, C, H, W] → [N, C]`.
    pub fn global_avg_pool(&mut self, x: VarId) -> VarId {
        let value = conv::global_avg_pool(self.value(x));
        self.push(
            value,
            vec![x],
            Some(Box::new(|g, ctx| {
                vec![Some(conv::global_avg_pool_backward(
                    &g,
                    ctx.input(0).shape().dims(),
                ))]
            })),
        )
    }

    // -----------------------------------------------------------------
    // Stochastic
    // -----------------------------------------------------------------

    /// Inverted dropout: zeroes each element with probability `p` and
    /// rescales survivors by `1/(1−p)`. The same mask drives the backward
    /// pass. Call only in training mode; at test time simply skip the op.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn dropout(&mut self, x: VarId, p: f32, rng: &mut Prng) -> VarId {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        // Exact comparison on purpose: p is a caller-passed constant tested
        // against the exact sentinel 0.0 (never a computed value); the
        // identity fast path must trigger only on the literal zero.
        if p == 0.0 {
            // Identity; still record a node for uniform graph shape.
            let value = self.value(x).clone();
            return self.push(value, vec![x], Some(Box::new(|g, _| vec![Some(g)])));
        }
        let keep = 1.0 - p;
        let mask = Tensor::from_fn(self.value(x).shape().dims(), |_| {
            if rng.bernoulli(keep) {
                1.0 / keep
            } else {
                0.0
            }
        });
        let value = self.value(x).mul(&mask);
        self.push(
            value,
            vec![x],
            Some(Box::new(move |g, _| vec![Some(g.mul(&mask))])),
        )
    }
}

/// Fused `f64` softmax cross-entropy value: per row, the max shift, the
/// partition function, the log and the target dot product all accumulate
/// in `f64`, as does the batch mean — one rounding to `f32` at the end.
fn softmax_cross_entropy_f64(logits: &Tensor, targets: &Tensor) -> f32 {
    let (n, c) = (logits.dim(0), logits.dim(1));
    let zs = logits.as_slice();
    let ts = targets.as_slice();
    let mut total = 0.0f64;
    for r in 0..n {
        let row = &zs[r * c..(r + 1) * c];
        let trow = &ts[r * c..(r + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let logsum = row.iter().map(|&v| (v as f64 - m).exp()).sum::<f64>().ln();
        for (&zv, &tv) in row.iter().zip(trow) {
            total -= tv as f64 * (zv as f64 - m - logsum);
        }
    }
    (total / n as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric_grad;

    /// Checks the tape gradient of `build` (a scalar-valued tape program in
    /// one input) against central finite differences.
    fn check_input_grad(x0: &Tensor, build: impl Fn(&mut Tape, VarId) -> VarId, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = build(&mut tape, x);
        let grads = tape.backward(loss);
        let analytic = grads.get(x).expect("input must receive a gradient");
        let numeric = numeric_grad(
            |probe| {
                let mut t = Tape::new();
                let xi = t.leaf(probe.clone());
                let l = build(&mut t, xi);
                t.value(l).item()
            },
            x0,
            1e-3,
        );
        assert!(
            analytic.allclose(&numeric, tol),
            "analytic {analytic:?} vs numeric {numeric:?}"
        );
    }

    fn probe_tensor() -> Tensor {
        Tensor::from_vec(vec![2, 3], vec![0.5, -1.2, 2.0, 0.1, -0.4, 1.5])
    }

    #[test]
    fn add_broadcast_grad() {
        let x0 = probe_tensor();
        check_input_grad(
            &x0,
            |t, x| {
                let b = t.leaf(Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]));
                let y = t.add(x, b);
                let sq = t.square(y);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn add_grad_flows_to_broadcast_side() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[4, 3]));
        let b = tape.leaf(Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]));
        let y = tape.add(x, b);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // The bias gradient is summed over the 4 broadcast rows.
        assert_eq!(grads.get(b).unwrap().as_slice(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn mul_grad() {
        let x0 = probe_tensor();
        check_input_grad(
            &x0,
            |t, x| {
                let w = t.leaf(Tensor::from_vec(
                    vec![2, 3],
                    vec![2.0, -1.0, 0.5, 1.0, 3.0, -2.0],
                ));
                let y = t.mul(x, w);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn sub_neg_scale_chain_grad() {
        let x0 = probe_tensor();
        check_input_grad(
            &x0,
            |t, x| {
                let half = t.scale(x, 0.5);
                let neg = t.neg(half);
                let c = t.leaf(Tensor::full(&[2, 3], 0.3));
                let d = t.sub(neg, c);
                let sq = t.square(d);
                t.mean_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn clamp_max_value_and_gradient_gate() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3], vec![0.5, 2.0, 5.0]));
        let c = tape.clamp_max(x, 2.0);
        assert_eq!(tape.value(c).as_slice(), &[0.5, 2.0, 2.0]);
        let s = tape.sum_all(c);
        let grads = tape.backward(s);
        // Gradient flows only strictly below the cap.
        assert_eq!(grads.get(x).unwrap().as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn exp_ln_grads() {
        let x0 = Tensor::from_vec(vec![3], vec![0.5, 1.0, 2.0]);
        check_input_grad(
            &x0,
            |t, x| {
                let e = t.exp(x);
                t.sum_all(e)
            },
            1e-2,
        );
        check_input_grad(
            &x0,
            |t, x| {
                let l = t.ln(x);
                t.sum_all(l)
            },
            1e-2,
        );
    }

    #[test]
    fn activation_grads() {
        let x0 = probe_tensor();
        for builder in [
            (|t: &mut Tape, x: VarId| {
                let y = t.relu(x);
                t.sum_all(y)
            }) as fn(&mut Tape, VarId) -> VarId,
            |t, x| {
                let y = t.sigmoid(x);
                t.sum_all(y)
            },
            |t, x| {
                let y = t.tanh(x);
                t.sum_all(y)
            },
        ] {
            check_input_grad(&x0, builder, 1e-2);
        }
    }

    #[test]
    fn matmul_grads_both_sides() {
        let a0 = Tensor::from_vec(vec![2, 3], vec![0.1, 0.2, -0.3, 0.4, -0.5, 0.6]);
        let b0 = Tensor::from_vec(vec![3, 2], vec![1.0, -1.0, 0.5, 0.2, -0.7, 0.9]);

        // Gradient w.r.t. lhs.
        check_input_grad(
            &a0,
            |t, x| {
                let b = t.leaf(b0.clone());
                let y = t.matmul(x, b);
                let sq = t.square(y);
                t.sum_all(sq)
            },
            1e-2,
        );
        // Gradient w.r.t. rhs.
        check_input_grad(
            &b0,
            |t, x| {
                let a = t.leaf(a0.clone());
                let y = t.matmul(a, x);
                let sq = t.square(y);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn reshape_concat_grads() {
        let x0 = probe_tensor();
        check_input_grad(
            &x0,
            |t, x| {
                let flat = t.reshape(x, &[6]);
                let sq = t.square(flat);
                t.sum_all(sq)
            },
            1e-2,
        );
        check_input_grad(
            &x0,
            |t, x| {
                let other = t.leaf(Tensor::ones(&[1, 3]));
                let cat = t.concat_rows(&[x, other]);
                let sq = t.square(cat);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn dot_const_grad_is_weight() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        let w = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 0.0, 0.0]);
        let s = tape.dot_const(x, &w);
        assert_eq!(tape.value(s).item(), 2.0);
        let grads = tape.backward(s);
        assert_eq!(grads.get(x).unwrap(), &w);
    }

    #[test]
    fn softmax_ce_value_and_grad() {
        let z0 = Tensor::from_vec(vec![2, 3], vec![2.0, 1.0, 0.1, 0.0, 0.0, 0.0]);
        let targets = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);

        // Value: hand-computed −log softmax at the target class.
        let mut tape = Tape::new();
        let z = tape.leaf(z0.clone());
        let loss = tape.softmax_cross_entropy(z, &targets);
        let lsm = z0.log_softmax_rows();
        let expect = -(lsm.at(&[0, 0]) + lsm.at(&[1, 1])) / 2.0;
        assert!((tape.value(loss).item() - expect).abs() < 1e-5);

        // Gradient against finite differences.
        check_input_grad(&z0, |t, x| t.softmax_cross_entropy(x, &targets), 1e-2);
    }

    #[test]
    fn softmax_ce_f64_mode_matches_value_and_grad() {
        use gandef_tensor::accum::with_accum;
        let z0 = Tensor::from_vec(vec![2, 3], vec![2.0, 1.0, 0.1, -0.3, 0.7, 0.2]);
        let targets = Tensor::from_vec(vec![2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let run = |mode: Accum| {
            with_accum(mode, || {
                let mut tape = Tape::new();
                let z = tape.leaf(z0.clone());
                let loss = tape.softmax_cross_entropy(z, &targets);
                let value = tape.value(loss).item();
                let grads = tape.backward(loss);
                (value, grads.get(z).unwrap().clone())
            })
        };
        let (v32, g32) = run(Accum::F32);
        let (v64, g64) = run(Accum::F64);
        // Same quantity, different rounding — tight but not bitwise.
        assert!((v32 - v64).abs() < 1e-5, "{v32} vs {v64}");
        assert!(g32.allclose(&g64, 1e-5));
        // The f64 value also matches the hand-derived f64 reference.
        let lsm = z0.log_softmax_rows();
        let expect = -(lsm.at(&[0, 0]) + lsm.at(&[1, 1])) / 2.0;
        assert!((v64 - expect).abs() < 1e-5);
    }

    #[test]
    fn softmax_ce_perfect_prediction_has_small_grad() {
        // Very confident correct logits → gradient ≈ 0.
        let z0 = Tensor::from_vec(vec![1, 3], vec![20.0, 0.0, 0.0]);
        let targets = Tensor::from_vec(vec![1, 3], vec![1.0, 0.0, 0.0]);
        let mut tape = Tape::new();
        let z = tape.leaf(z0);
        let loss = tape.softmax_cross_entropy(z, &targets);
        assert!(tape.value(loss).item() < 1e-6);
        let grads = tape.backward(loss);
        assert!(grads.get(z).unwrap().linf_norm() < 1e-6);
    }

    #[test]
    fn bce_value_and_grad() {
        let z0 = Tensor::from_vec(vec![4, 1], vec![2.0, -1.0, 0.0, 5.0]);
        let y = Tensor::from_vec(vec![4, 1], vec![1.0, 0.0, 1.0, 0.0]);
        // Hand-computed reference via probabilities.
        let probs = z0.sigmoid();
        let mut expect = 0.0;
        for i in 0..4 {
            let (p, t) = (probs.as_slice()[i], y.as_slice()[i]);
            expect += -(t * p.ln() + (1.0 - t) * (1.0 - p).ln());
        }
        expect /= 4.0;
        let mut tape = Tape::new();
        let z = tape.leaf(z0.clone());
        let loss = tape.bce_with_logits(z, &y);
        assert!((tape.value(loss).item() - expect).abs() < 1e-5);

        check_input_grad(&z0, |t, x| t.bce_with_logits(x, &y), 1e-2);
    }

    #[test]
    fn bce_extreme_logits_stay_finite() {
        let z0 = Tensor::from_vec(vec![2, 1], vec![80.0, -80.0]);
        let y = Tensor::from_vec(vec![2, 1], vec![0.0, 1.0]);
        let mut tape = Tape::new();
        let z = tape.leaf(z0);
        let loss = tape.bce_with_logits(z, &y);
        assert!(tape.value(loss).is_finite());
        let grads = tape.backward(loss);
        assert!(grads.get(z).unwrap().is_finite());
    }

    #[test]
    fn conv_pool_pipeline_input_grad() {
        // Irregular values: exact ties in max-pool windows would make the
        // loss non-differentiable and the finite-difference check invalid.
        // Two images, so `flatten_batch` must keep the batch axis apart.
        let x0 = Tensor::from_fn(&[2, 1, 6, 6], |i| (i as f32 * 0.731).sin() * 0.6);
        let w0 = Tensor::from_fn(&[2, 1, 3, 3], |i| ((i % 5) as f32 - 2.0) / 4.0);
        check_input_grad(
            &x0,
            |t, x| {
                let w = t.leaf(w0.clone());
                let c = t.conv2d(x, w, ConvSpec { stride: 1, pad: 1 });
                let r = t.relu(c);
                let p = t.maxpool2d(r, 2);
                let flat = t.flatten_batch(p);
                assert_eq!(t.value(flat).shape().dims(), &[2, 18]);
                let sq = t.square(flat);
                t.sum_all(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn conv_weight_grad() {
        let x0 = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i % 11) as f32 - 5.0) / 8.0);
        let w0 = Tensor::from_fn(&[3, 2, 3, 3], |i| ((i % 7) as f32 - 3.0) / 6.0);
        check_input_grad(
            &w0,
            |t, w| {
                let x = t.leaf(x0.clone());
                let c = t.conv2d(x, w, ConvSpec::default());
                let sq = t.square(c);
                t.mean_all(sq)
            },
            3e-2,
        );
    }

    #[test]
    fn global_avg_pool_grad() {
        let x0 = Tensor::from_fn(&[2, 3, 4, 4], |i| (i as f32 * 0.07).sin());
        check_input_grad(
            &x0,
            |t, x| {
                let p = t.global_avg_pool(x);
                let sq = t.square(p);
                t.sum_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn l2_sq_mean_rows_matches_formula() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![2, 2], vec![3.0, 4.0, 1.0, 0.0]));
        let pen = tape.l2_sq_mean_rows(x);
        // (‖(3,4)‖² + ‖(1,0)‖²)/2 = (25 + 1)/2
        assert_eq!(tape.value(pen).item(), 13.0);

        check_input_grad(&probe_tensor(), |t, x| t.l2_sq_mean_rows(x), 1e-2);
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut rng = Prng::new(0);
        let mut tape = Tape::new();
        let x = tape.leaf(probe_tensor());
        let y = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(tape.value(y), tape.value(x));
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap(), &Tensor::ones(&[2, 3]));
    }

    #[test]
    fn dropout_mask_consistent_between_passes() {
        let mut rng = Prng::new(7);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[1, 100]));
        let y = tape.dropout(x, 0.5, &mut rng);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // Forward output and input gradient share the same mask: both are 0
        // or 2 at exactly the same positions.
        let fwd = tape.value(y).as_slice().to_vec();
        let back = grads.get(x).unwrap().as_slice().to_vec();
        assert_eq!(fwd, back);
        let kept = fwd.iter().filter(|&&v| v > 0.0).count();
        assert!(kept > 20 && kept < 80, "kept {kept} of 100");
    }

    #[test]
    fn deep_composite_matches_finite_difference() {
        // A miniature "network": dense → relu → dense → softmax CE.
        let x0 = Tensor::from_vec(vec![2, 4], vec![0.1, -0.2, 0.3, 0.5, -0.1, 0.7, 0.2, -0.4]);
        let w1 = Tensor::from_fn(&[4, 5], |i| ((i % 9) as f32 - 4.0) / 10.0);
        let w2 = Tensor::from_fn(&[5, 3], |i| ((i % 7) as f32 - 3.0) / 10.0);
        let targets = Tensor::from_vec(vec![2, 3], vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
        check_input_grad(
            &x0,
            |t, x| {
                let a = t.leaf(w1.clone());
                let b = t.leaf(w2.clone());
                let h = t.matmul(x, a);
                let r = t.relu(h);
                let z = t.matmul(r, b);
                t.softmax_cross_entropy(z, &targets)
            },
            2e-2,
        );
    }
}
