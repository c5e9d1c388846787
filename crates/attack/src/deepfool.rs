//! DeepFool (Moosavi-Dezfooli et al. \[16\]): iteratively linearizes the
//! classifier around the current point and steps to the nearest face of the
//! (linearized) decision boundary — producing *minimal* perturbations.
//!
//! Per §V-B the paper runs DeepFool under "the same hyper-parameter setting
//! as PGD adversarial examples", so the final perturbation is projected
//! into the shared `l∞` budget and pixel range.

use crate::{project, Attack};
use gandef_nn::Classifier;
use gandef_tensor::rng::Prng;
use gandef_tensor::{pool, Tensor};

/// DeepFool with an `l2` inner step and an `l∞` outer budget.
#[derive(Clone, Copy, Debug)]
pub struct DeepFool {
    eps: f32,
    max_iters: usize,
    overshoot: f32,
}

impl DeepFool {
    /// Creates DeepFool with outer budget `eps` and at most `max_iters`
    /// linearization steps, using the canonical 2% overshoot.
    ///
    /// # Panics
    ///
    /// Panics unless `eps > 0` and `max_iters > 0`.
    pub fn new(eps: f32, max_iters: usize) -> Self {
        assert!(eps > 0.0 && max_iters > 0, "invalid DeepFool config");
        DeepFool {
            eps,
            max_iters,
            overshoot: 0.02,
        }
    }
}

impl Attack for DeepFool {
    fn name(&self) -> &str {
        "DeepFool"
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
        let row_elems = x.numel() / n;
        let mut adv = x.clone();

        for _ in 0..self.max_iters {
            let preds = model.predict(&adv);
            // lint:allow(alloc) — the active set shrinks every iteration;
            // one Vec per outer iteration is the point of the row filter.
            let active: Vec<usize> = (0..n).filter(|&i| preds[i] == labels[i]).collect();
            if active.is_empty() {
                break;
            }
            // All forward/backward work runs on the still-correct rows
            // only: late iterations (where most samples are already
            // fooled) cost O(active), not O(n).
            let sub = adv.select_rows(&active);

            // The logits and the gradient of every class logit w.r.t. the
            // input, batched: one forward of the active sub-batch, then one
            // backward pass per class with a one-hot weight matrix.
            let one_hots = |_: &Tensor| {
                (0..classes)
                    .map(|k| {
                        let mut w = Tensor::zeros(&[active.len(), classes]);
                        for r in 0..active.len() {
                            w.set(&[r, k], 1.0);
                        }
                        w
                    })
                    // lint:allow(alloc) — the matrices are sized by the
                    // active set, which shrinks every iteration.
                    .collect()
            };
            let (z, class_grads) = model.logit_input_grads(&sub, &one_hots);

            // Per active sample: nearest linearized boundary. Samples are
            // independent and the whole attack is RNG-free, so the inner
            // loop fans out across the pool; `parallel_tasks` returns in
            // index order, keeping results identical to the serial sweep.
            let steps = pool::parallel_tasks(active.len(), |r| {
                let orig = labels[active[r]];
                // lint:allow(alloc) — one row copy per active sample per
                // iteration; the candidate `w` below aliases the same
                // class_grads storage, so a borrow must end here.
                let g_orig: Vec<f32> =
                    class_grads[orig].as_slice()[r * row_elems..(r + 1) * row_elems].to_vec();
                let z_orig = z.at(&[r, orig]);
                let mut best: Option<(f32, Vec<f32>, f32)> = None; // (ratio, w, f)
                for k in 0..classes {
                    if k == orig {
                        continue;
                    }
                    let gk = &class_grads[k].as_slice()[r * row_elems..(r + 1) * row_elems];
                    // lint:allow(alloc) — candidate boundary direction must
                    // outlive the k loop when it becomes `best`; a reusable
                    // buffer would still need a copy on every improvement.
                    let w: Vec<f32> = gk.iter().zip(&g_orig).map(|(a, b)| a - b).collect();
                    let f = z.at(&[r, k]) - z_orig;
                    let norm = w.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
                    let ratio = f.abs() / norm;
                    if best.as_ref().is_none_or(|(rt, _, _)| ratio < *rt) {
                        best = Some((ratio, w, f));
                    }
                }
                // Single-class models have no boundary to cross; None
                // leaves that sample's delta at zero.
                best.map(|(_, w, f)| {
                    let norm_sq = w.iter().map(|v| v * v).sum::<f32>().max(1e-12);
                    let scale = (f.abs() + 1e-4) / norm_sq * (1.0 + self.overshoot);
                    (w, scale)
                })
            });

            // Serial scatter back into the full-batch delta at each
            // sample's original row.
            let mut delta = Tensor::zeros(x.shape().dims());
            let d = delta.as_mut_slice();
            for (r, step) in steps.into_iter().enumerate() {
                let Some((w, scale)) = step else { continue };
                let i = active[r];
                for (dst, wj) in d[i * row_elems..(i + 1) * row_elems].iter_mut().zip(&w) {
                    *dst = scale * wj;
                }
            }
            adv = project(&adv.add(&delta), x, self.eps);
        }
        adv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::trained_digits_net;
    use gandef_nn::accuracy;

    #[test]
    fn constraints_hold() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 8);
        let adv = DeepFool::new(0.6, 10).perturb(&net, &x, &y[..8], &mut Prng::new(0));
        assert!(adv.sub(&x).linf_norm() <= 0.6 + 1e-5);
        assert!(adv.min_value() >= -1.0 && adv.max_value() <= 1.0);
    }

    #[test]
    fn fools_a_vanilla_classifier() {
        let (net, x, y) = trained_digits_net();
        let clean_acc = accuracy(&net.predict(&x), &y);
        let adv = DeepFool::new(0.6, 15).perturb(&net, &x, &y, &mut Prng::new(0));
        let adv_acc = accuracy(&net.predict(&adv), &y);
        assert!(
            adv_acc < clean_acc * 0.5,
            "DeepFool barely moved accuracy: {clean_acc} -> {adv_acc}"
        );
    }

    #[test]
    fn perturbations_are_smaller_than_pgd_budget_saturation() {
        // §V-B: "Deepfool tries to find adversarial examples with smaller
        // perturbation than projected gradient descent based" attacks — the
        // mean |δ| should sit well inside the budget, not saturate it.
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 16);
        let adv = DeepFool::new(0.6, 15).perturb(&net, &x, &y[..16], &mut Prng::new(0));
        let mean_abs = adv.sub(&x).abs().mean();
        assert!(
            mean_abs < 0.3,
            "DeepFool mean |δ| {mean_abs} saturates the 0.6 budget"
        );
    }

    #[test]
    fn misclassified_rows_in_a_mixed_batch_stay_unperturbed() {
        // The active-row slicing must scatter deltas back to the right
        // full-batch rows: a row that starts misclassified receives no
        // delta in any iteration and must come back bit-identical.
        let (net, x, y) = trained_digits_net();
        let preds = net.predict(&x);
        let Some(wrong) = (0..y.len()).find(|&i| preds[i] != y[i]) else {
            return; // fixture happens to be perfect; nothing to check
        };
        // Build a mixed batch: the misclassified row plus 7 correct rows.
        let mut idx = vec![wrong];
        idx.extend((0..y.len()).filter(|&i| preds[i] == y[i]).take(7));
        let xb = x.select_rows(&idx);
        let yb: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
        let adv = DeepFool::new(0.6, 10).perturb(&net, &xb, &yb, &mut Prng::new(0));
        let row = xb.numel() / xb.dim(0);
        assert_eq!(
            &adv.as_slice()[..row],
            &xb.as_slice()[..row],
            "misclassified row was perturbed"
        );
        // Sanity: the attack still did real work on the correct rows.
        let adv_preds = net.predict(&adv);
        assert!(
            (1..idx.len()).any(|r| adv_preds[r] != yb[r]),
            "no correct row was fooled"
        );
    }

    #[test]
    fn already_misclassified_samples_are_left_alone() {
        let (net, x, y) = trained_digits_net();
        // Find a sample the net already misclassifies (there's at least one
        // in a >80%-but-<100% fixture; if not, skip gracefully).
        let preds = net.predict(&x);
        if let Some(i) = (0..y.len()).find(|&i| preds[i] != y[i]) {
            let xi = x.slice_rows(i, i + 1);
            let adv = DeepFool::new(0.6, 10).perturb(&net, &xi, &y[i..=i], &mut Prng::new(0));
            assert_eq!(adv, xi, "misclassified input needs no perturbation");
        }
    }
}
