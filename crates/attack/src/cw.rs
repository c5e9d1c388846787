//! Carlini & Wagner attack \[4\], adapted to the paper's evaluation budget.
//!
//! The canonical CW-l2 attack optimizes `‖δ‖² + c·f(x̂)` over a tanh-space
//! variable, where `f(x̂) = max(z_true − max_{k≠true} z_k, −κ)` is the
//! logit-margin surrogate ("f₆" in the paper); we fix the confidence
//! `κ = 0`, the original attack's default. Per §V-B the paper runs CW
//! under the same hyper-parameter budget as PGD, so our tanh box is the
//! intersection of the `l∞` ε-ball with the pixel range (which also keeps
//! box constraints satisfied by construction, exactly as in the original
//! attack). We use a fixed trade-off constant `c` instead of the 9-step
//! binary search to bound CPU cost — see DESIGN.md §7.

use crate::Attack;
use gandef_nn::Classifier;
use gandef_tensor::rng::Prng;
use gandef_tensor::{pool, Tensor};

/// The Carlini–Wagner optimization-based attack (untargeted).
#[derive(Clone, Copy, Debug)]
pub struct CarliniWagner {
    eps: f32,
    iters: usize,
    c: f32,
    lr: f32,
}

impl CarliniWagner {
    /// Creates CW with `l∞` budget `eps` and `iters` Adam steps, with
    /// trade-off `c = 1`, confidence `κ = 0`, learning rate `0.1`.
    ///
    /// # Panics
    ///
    /// Panics unless `eps > 0` and `iters > 0`.
    pub fn new(eps: f32, iters: usize) -> Self {
        assert!(eps > 0.0 && iters > 0, "invalid CW config");
        CarliniWagner {
            eps,
            iters,
            c: 1.0,
            lr: 0.1,
        }
    }

    /// Overrides the margin/distance trade-off constant `c`.
    pub fn with_c(mut self, c: f32) -> Self {
        self.c = c;
        self
    }
}

impl Attack for CarliniWagner {
    fn name(&self) -> &str {
        "CW"
    }

    fn perturb(
        &self,
        model: &dyn Classifier,
        x: &Tensor,
        labels: &[usize],
        _rng: &mut Prng,
    ) -> Tensor {
        let n = x.dim(0);
        let classes = model.num_classes();
        let dims = x.shape().dims().to_vec();

        // Box = [x−ε, x+ε] ∩ [−1, 1], parameterized adv = center + radius·tanh(w).
        let lo = x.map(|v| (v - self.eps).max(crate::PIXEL_MIN));
        let hi = x.map(|v| (v + self.eps).min(crate::PIXEL_MAX));
        let center = lo.add(&hi).scale(0.5);
        let radius = hi.sub(&lo).scale(0.5).maximum(&Tensor::full(&dims, 1e-6));

        // Start at w = atanh((x − center)/radius), i.e. adv ≈ x.
        let mut w = x
            .sub(&center)
            .div(&radius)
            .clamp(-0.999, 0.999)
            .map(|v| 0.5 * ((1.0 + v) / (1.0 - v)).ln());

        // Track the best (lowest-distortion successful) example per sample.
        let mut best_adv = x.clone();
        let mut best_dist = vec![f32::INFINITY; n];

        // Inline Adam state over w.
        let (mut m, mut v) = (Tensor::zeros(&dims), Tensor::zeros(&dims));
        let (b1, b2, eps_adam) = (0.9f32, 0.999f32, 1e-8f32);

        for t in 1..=self.iters {
            let tanh_w = w.tanh();
            let adv = center.add(&radius.mul(&tanh_w));

            // Margin term: f = z_true − max_{k≠true} z_k (per sample), and
            // its gradient from the same forward through the ±1 weight rows
            // selecting d f / d adv. Samples are independent and RNG-free,
            // so the runner-up sweep fans out across the pool; results come
            // back in index order, identical to the serial loop.
            let margin_weights = |z: &Tensor| {
                let margins = pool::parallel_tasks(n, |i| {
                    let truth = labels[i];
                    let mut runner_up = usize::MAX;
                    let mut best_z = f32::NEG_INFINITY;
                    for k in 0..classes {
                        if k != truth && z.at(&[i, k]) > best_z {
                            best_z = z.at(&[i, k]);
                            runner_up = k;
                        }
                    }
                    (z.at(&[i, truth]) - best_z, runner_up)
                });
                let mut weights = Tensor::zeros(&[n, classes]);
                for (i, &(margin, runner_up)) in margins.iter().enumerate() {
                    if margin > 0.0 {
                        // Only samples whose margin is not yet broken push
                        // gradient (the max(·, −κ) hinge at κ = 0).
                        weights.set(&[i, labels[i]], 1.0);
                        weights.set(&[i, runner_up], -1.0);
                    }
                }
                // lint:allow(alloc) — the weights depend on this
                // iteration's logits; one one-element Vec per Adam step.
                vec![weights]
            };
            let (z, mut grads) = model.logit_input_grads(&adv, &margin_weights);
            // lint:allow(panic) — one weight matrix in, one gradient out.
            let margin_grad = grads.pop().expect("one gradient per weight matrix");

            // Distance term: d ‖adv − x‖² / d adv = 2(adv − x).
            let delta = adv.sub(x);
            let grad_adv = delta.scale(2.0).add(&margin_grad.scale(self.c));
            // Chain rule through the tanh parameterization.
            let grad_w = grad_adv.mul(&radius).mul(&tanh_w.map(|v| 1.0 - v * v));

            // Adam step on w.
            m = m.scale(b1).add(&grad_w.scale(1.0 - b1));
            v = v.scale(b2).add(&grad_w.square().scale(1.0 - b2));
            let (bc1, bc2) = (1.0 - b1.powi(t as i32), 1.0 - b2.powi(t as i32));
            // Same per-element math as the scalar loop, but pooled and
            // bounds-check-free through the elementwise zip.
            let update = m.broadcast_zip(&v, |mh, vh| (mh / bc1) / ((vh / bc2).sqrt() + eps_adam));
            w.axpy(-self.lr, &update);

            // Book-keep the best successful example per sample: squared
            // distances in parallel, the (cheap) copy-on-improvement
            // serially in index order.
            let preds = z.argmax_rows();
            let row = x.numel() / n;
            let dists = pool::parallel_tasks(n, |i| {
                if preds[i] == labels[i] {
                    return None;
                }
                let d: f32 = delta.as_slice()[i * row..(i + 1) * row]
                    .iter()
                    .map(|v| v * v)
                    .sum();
                Some(d)
            });
            for (i, dist) in dists.into_iter().enumerate() {
                let Some(d) = dist else { continue };
                if d < best_dist[i] {
                    best_dist[i] = d;
                    best_adv.as_mut_slice()[i * row..(i + 1) * row]
                        .copy_from_slice(&adv.as_slice()[i * row..(i + 1) * row]);
                }
            }
        }

        // Samples never fooled keep the final iterate (strongest attempt).
        let final_adv = center.add(&radius.mul(&w.tanh()));
        let row = x.numel() / n;
        for i in 0..n {
            if best_dist[i].is_infinite() {
                best_adv.as_mut_slice()[i * row..(i + 1) * row]
                    .copy_from_slice(&final_adv.as_slice()[i * row..(i + 1) * row]);
            }
        }
        best_adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::trained_digits_net;
    use gandef_nn::accuracy;

    #[test]
    fn constraints_hold_by_construction() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 8);
        let adv = CarliniWagner::new(0.6, 20).perturb(&net, &x, &y[..8], &mut Prng::new(0));
        assert!(adv.sub(&x).linf_norm() <= 0.6 + 1e-4);
        assert!(adv.min_value() >= -1.0 - 1e-6 && adv.max_value() <= 1.0 + 1e-6);
    }

    #[test]
    fn fools_a_vanilla_classifier() {
        let (net, x, y) = trained_digits_net();
        let clean_acc = accuracy(&net.predict(&x), &y);
        // A confident high-contrast classifier needs a stronger margin
        // push (larger c) — exactly the role of CW's trade-off constant.
        let attack = CarliniWagner::new(0.6, 60).with_c(10.0);
        let adv = attack.perturb(&net, &x, &y, &mut Prng::new(0));
        let adv_acc = accuracy(&net.predict(&adv), &y);
        assert!(
            adv_acc < clean_acc * 0.5,
            "CW barely moved accuracy: {clean_acc} -> {adv_acc}"
        );
    }

    #[test]
    fn successful_examples_have_modest_distortion() {
        // CW minimizes ‖δ‖₂; successful examples should not saturate the
        // l∞ ball everywhere like PGD does.
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 16);
        let y = &y[..16];
        let adv = CarliniWagner::new(0.6, 40).perturb(&net, &x, y, &mut Prng::new(0));
        let preds = net.predict(&adv);
        let fooled: Vec<usize> = (0..16).filter(|&i| preds[i] != y[i]).collect();
        assert!(!fooled.is_empty(), "CW fooled nothing");
        let row = x.numel() / 16;
        for &i in &fooled {
            let d = adv.sub(&x);
            let slice = &d.as_slice()[i * row..(i + 1) * row];
            let mean_abs: f32 = slice.iter().map(|v| v.abs()).sum::<f32>() / row as f32;
            assert!(
                mean_abs < 0.45,
                "sample {i} distortion {mean_abs} ~saturated"
            );
        }
    }

    #[test]
    fn larger_c_pushes_harder() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 16);
        let y = &y[..16];
        let soft = CarliniWagner::new(0.6, 25).with_c(0.1);
        let hard = CarliniWagner::new(0.6, 25).with_c(10.0);
        let acc_soft = accuracy(
            &net.predict(&soft.perturb(&net, &x, y, &mut Prng::new(0))),
            y,
        );
        let acc_hard = accuracy(
            &net.predict(&hard.perturb(&net, &x, y, &mut Prng::new(0))),
            y,
        );
        assert!(
            acc_hard <= acc_soft + 0.15,
            "c=10 ({acc_hard}) vs c=0.1 ({acc_soft})"
        );
    }
}
