//! An initialized network (model + parameters) and the white-box
//! [`Classifier`] interface consumed by the attack crate.

use crate::layer::Sequential;
use crate::params::{Mode, Params, Session};
use gandef_autodiff::{Gradients, Tape, VarId};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// Maximum rows pushed through a single inference forward; larger batches
/// are chunked to bound peak intermediate-activation memory.
const INFER_CHUNK: usize = 64;

/// A white-box image classifier: something that exposes its logits *and*
/// its input gradients. All of the paper's attack generators (§IV-C) are
/// written against this trait, mirroring the white-box threat model where
/// the adversary has "full knowledge about the target NN classifier".
///
/// `Sync` is required so one model can serve concurrent attack chunks on
/// the worker pool (inference is a tape-free read-only pass; gradient
/// queries build their own tape per call).
pub trait Classifier: Sync {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Pre-softmax logits `z = C(x)` for a batch `x` (`[N, ...]` → `[N, classes]`).
    fn logits(&self, x: &Tensor) -> Tensor;

    /// Mean softmax cross-entropy of the batch against one-hot `targets`,
    /// together with its gradient with respect to the *input* — the kernel
    /// of FGSM/BIM/PGD.
    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor);

    /// Gradient of `Σ (weights ⊙ z)` with respect to the input, where
    /// `weights: [N, classes]` is constant. A one-hot row extracts one
    /// logit's gradient (DeepFool); a ±1 pair extracts a margin gradient
    /// (CW).
    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor;

    /// The logits `z` of `x` together with one input gradient per weight
    /// matrix that `weights_of(&z)` returns: entry `k` is
    /// [`Classifier::weighted_logit_input_grad`] of `x` with the `k`-th
    /// matrix. The weights may depend on `z` (CW's runner-up class) or not
    /// (DeepFool's one-hot rows).
    ///
    /// The default runs [`Classifier::logits`] and one gradient query per
    /// matrix; [`Net`] records the forward once and sweeps it per matrix.
    fn logit_input_grads(
        &self,
        x: &Tensor,
        weights_of: &dyn Fn(&Tensor) -> Vec<Tensor>,
    ) -> (Tensor, Vec<Tensor>) {
        let z = self.logits(x);
        let grads = weights_of(&z)
            .iter()
            .map(|w| self.weighted_logit_input_grad(x, w))
            .collect();
        (z, grads)
    }

    /// Predicted class per row.
    fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.logits(x).argmax_rows()
    }
}

/// A [`Sequential`] model with initialized [`Params`] — the unit that
/// defenses train and attacks target.
pub struct Net {
    /// The architecture.
    pub model: Sequential,
    /// The trainable parameters.
    pub params: Params,
    classes: usize,
}

impl Net {
    /// Initializes the model's parameters with `rng` and wraps everything
    /// into a ready-to-train network with 10 output classes (the paper's
    /// datasets are all 10-way).
    pub fn new(model: Sequential, rng: &mut Prng) -> Self {
        Net::with_classes(model, 10, rng)
    }

    /// As [`Net::new`] but with an explicit class count.
    pub fn with_classes(model: Sequential, classes: usize, rng: &mut Prng) -> Self {
        let mut params = Params::new();
        model.init(&mut params, rng);
        Net {
            model,
            params,
            classes,
        }
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.params.numel()
    }

    /// Accuracy of the network's predictions on `(x, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sizes disagree.
    pub fn accuracy_on(&self, x: &Tensor, labels: &[usize]) -> f32 {
        crate::accuracy(&self.predict(x), labels)
    }

    /// Runs one evaluation-mode forward pass over the tape-free
    /// [`Sequential::infer`] path, returning the logits tensor. Input
    /// batches larger than an internal chunk size are split to bound peak
    /// activation memory.
    fn infer(&self, x: &Tensor) -> Tensor {
        let n = x.dim(0);
        if n <= INFER_CHUNK {
            return self.infer_chunk(x);
        }
        let mut parts = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + INFER_CHUNK).min(n);
            parts.push(self.infer_chunk(&x.slice_rows(start, end)));
            start = end;
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        Tensor::concat_rows(&refs)
    }

    fn infer_chunk(&self, x: &Tensor) -> Tensor {
        self.model.infer(&self.params, x.clone())
    }

    /// Records an evaluation-mode tape forward of `x`, returning the
    /// session with the input's and the logits' ids.
    fn record(&self, x: &Tensor) -> (Session, VarId, VarId) {
        let mut sess = Session::new(&self.params, Mode::Eval, Prng::new(0));
        let xv = sess.input(x.clone());
        let z = self.model.forward(&mut sess, xv);
        (sess, xv, z)
    }

    /// Records the scalar `head(C(x))` on an evaluation-mode tape and
    /// sweeps it for the input leaf alone: the attacks read `∂x`, so no
    /// weight gradient is computed. Returns the head's value, the input's
    /// id and the sweep.
    fn input_sweep(
        &self,
        x: &Tensor,
        head: impl FnOnce(&mut Tape, VarId) -> VarId,
    ) -> (f32, VarId, Gradients) {
        let (mut sess, xv, z) = self.record(x);
        let out = head(&mut sess.tape, z);
        let grads = sess.tape.backward_wrt(out, &[xv]);
        (sess.tape.value(out).item(), xv, grads)
    }
}

impl Classifier for Net {
    fn num_classes(&self) -> usize {
        self.classes
    }

    fn logits(&self, x: &Tensor) -> Tensor {
        self.infer(x)
    }

    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        let (value, xv, mut grads) =
            self.input_sweep(x, |tape, z| tape.softmax_cross_entropy(z, targets));
        // lint:allow(panic) — the loss is built from `xv`, so the backward
        // sweep always reaches the input leaf.
        let gx = grads.take(xv).expect("input must receive a gradient");
        (value, gx)
    }

    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor {
        let (_, mut grads) = self.logit_input_grads(x, &|_| vec![weights.clone()]);
        // lint:allow(panic) — one weight matrix in, one gradient out.
        grads.pop().expect("one gradient per weight matrix")
    }

    /// One tape forward of `x`, then one input-only sweep per weight
    /// matrix from its own `dot_const` head on that tape. A sweep starts at
    /// its head and reaches `z` only through it, so every gradient is
    /// bit-identical to a separately recorded query; `z` is the tape's,
    /// which equals [`Classifier::logits`] bit for bit while `x` fits one
    /// inference chunk.
    fn logit_input_grads(
        &self,
        x: &Tensor,
        weights_of: &dyn Fn(&Tensor) -> Vec<Tensor>,
    ) -> (Tensor, Vec<Tensor>) {
        let (mut sess, xv, z) = self.record(x);
        let weights = weights_of(sess.tape.value(z));
        let grads = weights
            .iter()
            .map(|w| {
                let score = sess.tape.dot_const(z, w);
                sess.tape
                    .backward_wrt(score, &[xv])
                    .take(xv)
                    // lint:allow(panic) — the weighted score is built from
                    // `xv`, so the backward sweep always reaches the input.
                    .expect("input must receive a gradient")
            })
            .collect();
        (sess.tape.value(z).clone(), grads)
    }
}

impl std::fmt::Debug for Net {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Net({} layers, {} params, {} classes)",
            self.model.len(),
            self.num_params(),
            self.classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Act, Dense};
    use crate::one_hot;
    use gandef_autodiff::numeric_grad;

    fn tiny_net(seed: u64) -> Net {
        let model = Sequential::new(vec![
            Box::new(Dense::new("fc1", 4, 6, Some(Act::Tanh))),
            Box::new(Dense::new("fc2", 6, 3, None)),
        ]);
        Net::with_classes(model, 3, &mut Prng::new(seed))
    }

    #[test]
    fn logits_shape_and_determinism() {
        let net = tiny_net(1);
        let x = Prng::new(2).uniform_tensor(&[5, 4], -1.0, 1.0);
        let z1 = net.logits(&x);
        let z2 = net.logits(&x);
        assert_eq!(z1.shape().dims(), &[5, 3]);
        assert_eq!(z1, z2);
    }

    #[test]
    fn chunked_inference_matches_single_pass() {
        let net = tiny_net(3);
        let x = Prng::new(4).uniform_tensor(&[INFER_CHUNK + 17, 4], -1.0, 1.0);
        let full = net.logits(&x);
        // Row i of the chunked result equals an isolated forward of row i.
        for probe in [0usize, INFER_CHUNK - 1, INFER_CHUNK, INFER_CHUNK + 16] {
            let single = net.logits(&x.slice_rows(probe, probe + 1));
            assert!(full.slice_rows(probe, probe + 1).allclose(&single, 1e-5));
        }
    }

    #[test]
    fn logits_match_tape_forward_bitwise() {
        let net = tiny_net(13);
        let x = Prng::new(14).uniform_tensor(&[5, 4], -1.0, 1.0);
        let mut sess = Session::eval(&net.params);
        let xv = sess.input(x.clone());
        let z = net.model.forward(&mut sess, xv);
        assert_eq!(net.logits(&x), *sess.tape.value(z));
    }

    #[test]
    fn ce_input_grad_matches_finite_difference() {
        let net = tiny_net(5);
        let x = Prng::new(6).uniform_tensor(&[2, 4], -1.0, 1.0);
        let targets = one_hot(&[0, 2], 3);
        let (loss, grad) = net.ce_input_grad(&x, &targets);
        assert!(loss > 0.0);
        let numeric = numeric_grad(|p| net.ce_input_grad(p, &targets).0, &x, 1e-3);
        assert!(grad.allclose(&numeric, 2e-2), "{grad:?} vs {numeric:?}");
    }

    #[test]
    fn input_gradient_query_computes_no_parameter_gradient() {
        let net = tiny_net(15);
        let x = Prng::new(16).uniform_tensor(&[2, 4], -1.0, 1.0);
        let targets = one_hot(&[0, 2], 3);
        let (_, xv, grads) = net.input_sweep(&x, |t, z| t.softmax_cross_entropy(z, &targets));
        // The input's gradient is the only one the sweep holds: none of
        // the four parameter leaves got one.
        assert_eq!(grads.len(), 1);
        assert!(grads.get(xv).is_some());
    }

    #[test]
    fn weighted_logit_grad_matches_finite_difference() {
        let net = tiny_net(7);
        let x = Prng::new(8).uniform_tensor(&[2, 4], -1.0, 1.0);
        // Margin weights: +1 on class 1, −1 on class 0 for both rows.
        let w = gandef_tensor::Tensor::from_vec(vec![2, 3], vec![-1.0, 1.0, 0.0, -1.0, 1.0, 0.0]);
        let grad = net.weighted_logit_input_grad(&x, &w);
        let numeric = numeric_grad(
            |p| {
                let z = net.logits(p);
                z.mul(&w).sum()
            },
            &x,
            1e-3,
        );
        assert!(grad.allclose(&numeric, 2e-2));
    }

    /// A classifier that forwards everything to a [`Net`] except
    /// `logit_input_grads`, so that method runs the trait's default body.
    struct Defaulted<'a>(&'a Net);

    impl Classifier for Defaulted<'_> {
        fn num_classes(&self) -> usize {
            self.0.num_classes()
        }
        fn logits(&self, x: &Tensor) -> Tensor {
            self.0.logits(x)
        }
        fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor) {
            self.0.ce_input_grad(x, targets)
        }
        fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor {
            self.0.weighted_logit_input_grad(x, weights)
        }
    }

    #[test]
    fn one_tape_logit_grads_equal_the_default_bitwise() {
        use crate::zoo;
        use gandef_tensor::accum::{with_accum, Accum};
        let lenet = Net::new(zoo::lenet(1), &mut Prng::new(17));
        let mlp = Net::new(zoo::mlp(28 * 28, 24, 10), &mut Prng::new(18));
        // One-hot rows (DeepFool), a ±1 margin read off `z` (CW) and a
        // dense random matrix.
        let weights_of = |z: &Tensor| {
            let (n, c) = (z.dim(0), z.dim(1));
            let mut margin = Tensor::zeros(&[n, c]);
            for (r, k) in z.argmax_rows().into_iter().enumerate() {
                margin.set(&[r, k], 1.0);
                margin.set(&[r, (k + 1) % c], -1.0);
            }
            let one_hot = one_hot(&vec![3; n], c);
            let dense = Prng::new(19).uniform_tensor(&[n, c], -1.0, 1.0);
            vec![one_hot, margin, dense]
        };
        for mode in [Accum::F32, Accum::F64] {
            for (net, rows) in [(&lenet, 1), (&lenet, 9), (&mlp, 1), (&mlp, 33)] {
                let x = Prng::new(20).uniform_tensor(&[rows, 1, 28, 28], -1.0, 1.0);
                let ((z, grads), (z_ref, grads_ref)) = with_accum(mode, || {
                    (
                        net.logit_input_grads(&x, &weights_of),
                        Defaulted(net).logit_input_grads(&x, &weights_of),
                    )
                });
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&z),
                    bits(&z_ref),
                    "{net:?} {rows} rows {mode:?}: logits"
                );
                assert_eq!(grads.len(), 3);
                for (k, (g, g_ref)) in grads.iter().zip(&grads_ref).enumerate() {
                    assert_eq!(g.shape(), x.shape());
                    assert_eq!(
                        bits(g),
                        bits(g_ref),
                        "{net:?} {rows} rows {mode:?}: gradient {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_is_argmax_of_logits() {
        let net = tiny_net(9);
        let x = Prng::new(10).uniform_tensor(&[8, 4], -1.0, 1.0);
        assert_eq!(net.predict(&x), net.logits(&x).argmax_rows());
    }

    #[test]
    fn accuracy_on_self_consistent_labels_is_one() {
        let net = tiny_net(11);
        let x = Prng::new(12).uniform_tensor(&[8, 4], -1.0, 1.0);
        let labels = net.predict(&x);
        assert_eq!(net.accuracy_on(&x, &labels), 1.0);
    }
}
