//! Mixed clean/adversarial traffic generation for the serving harness.
//!
//! ZK-GanDef's threat model (§II) is a deployed classifier answering a
//! stream it *cannot* triage up front: clean requests interleaved with
//! adversarial ones. This module turns a labeled test set into exactly
//! that stream. Because the iterative attacks (PGD, DeepFool) are far too
//! expensive to run inline in a latency harness, the adversarial examples
//! are generated **up front** into per-class pools
//! ([`TrafficStream::generate`]); drawing from the stream afterwards is a
//! cheap row slice, so the traffic generator never becomes the bottleneck
//! it is supposed to be measuring around.
//!
//! Sampling is fully deterministic for a given seed: the class sequence
//! and row choices come from one `Prng`, and pool generation itself runs
//! through [`perturb_chunked`]'s per-chunk forked streams.

use gandef_nn::Classifier;
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

use crate::{perturb_chunked, AttackBudget, DeepFool, Fgsm, Pgd};

/// Which population a traffic sample was drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Unmodified test examples.
    Clean,
    /// Single-step FGSM examples at the budget's `ε`.
    Fgsm,
    /// Full-budget PGD examples (random start, `pgd_iters × pgd_step`).
    Pgd,
    /// DeepFool examples (minimal-perturbation, projected to the ball).
    DeepFool,
}

impl TrafficClass {
    /// Every class, in pool order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Clean,
        TrafficClass::Fgsm,
        TrafficClass::Pgd,
        TrafficClass::DeepFool,
    ];

    /// Short display name ("clean", "fgsm", ...).
    pub fn name(&self) -> &'static str {
        match self {
            TrafficClass::Clean => "clean",
            TrafficClass::Fgsm => "fgsm",
            TrafficClass::Pgd => "pgd",
            TrafficClass::DeepFool => "deepfool",
        }
    }
}

/// Relative sampling weights for the traffic classes; only ratios matter.
/// A class with weight 0 never appears (and its pool is still generated —
/// keep the struct cheap to tweak, not the generation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrafficMix {
    /// Weight of [`TrafficClass::Clean`].
    pub clean: u32,
    /// Weight of [`TrafficClass::Fgsm`].
    pub fgsm: u32,
    /// Weight of [`TrafficClass::Pgd`].
    pub pgd: u32,
    /// Weight of [`TrafficClass::DeepFool`].
    pub deepfool: u32,
}

impl Default for TrafficMix {
    /// The harness default: 40% clean, 20% each adversarial class — a
    /// majority-benign stream with a heavy adversarial minority, the
    /// regime Tables III/IV evaluate.
    fn default() -> Self {
        TrafficMix {
            clean: 40,
            fgsm: 20,
            pgd: 20,
            deepfool: 20,
        }
    }
}

impl TrafficMix {
    /// The weight of one class.
    pub fn weight(&self, class: TrafficClass) -> u32 {
        match class {
            TrafficClass::Clean => self.clean,
            TrafficClass::Fgsm => self.fgsm,
            TrafficClass::Pgd => self.pgd,
            TrafficClass::DeepFool => self.deepfool,
        }
    }

    /// Sum of all weights.
    pub fn total(&self) -> u32 {
        self.clean + self.fgsm + self.pgd + self.deepfool
    }
}

/// One request drawn from the stream.
#[derive(Clone, Debug)]
pub struct TrafficSample {
    /// A single example, shaped like one row of the source set *without*
    /// the batch dimension (ready for `Server::submit`).
    pub x: Tensor,
    /// The example's true label (adversarial perturbation does not change
    /// the ground truth — that is the whole point).
    pub label: usize,
    /// Which pool the example came from.
    pub class: TrafficClass,
}

/// An endless, deterministic, mixed clean/adversarial request stream over
/// pre-generated per-class example pools.
pub struct TrafficStream {
    /// Pools indexed in [`TrafficClass::ALL`] order; each is `[n, dims…]`
    /// with rows aligned to `labels`.
    pools: [Tensor; 4],
    labels: Vec<usize>,
    example_dims: Vec<usize>,
    mix: TrafficMix,
    rng: Prng,
}

impl TrafficStream {
    /// Builds the per-class pools by attacking `model` over the labeled
    /// set `(x, labels)` (shape `[n, dims…]`) at `budget`, then returns a
    /// sampler that draws classes by `mix` and rows uniformly, both from
    /// the deterministic stream seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or row count and label count disagree.
    pub fn generate(
        model: &dyn Classifier,
        x: &Tensor,
        labels: &[usize],
        budget: &AttackBudget,
        mix: TrafficMix,
        seed: u64,
    ) -> TrafficStream {
        assert!(x.dim(0) > 0, "traffic pool must be non-empty");
        assert_eq!(x.dim(0), labels.len(), "image/label count mismatch");
        let mut rng = Prng::new(seed);
        // Chunk so pool generation parallelizes even for modest sets.
        let chunk = (x.dim(0) / 8).max(8);
        let fgsm = Fgsm::new(budget.eps);
        let pgd = Pgd::new(budget.eps, budget.pgd_step, budget.pgd_iters);
        // DeepFool shares the PGD budget, iteration-capped like the
        // evaluation harness caps it (crates/core/src/eval.rs).
        let deepfool = DeepFool::new(budget.eps, budget.pgd_iters.min(15));
        let mut gen_rng = rng.fork(1);
        let pools = [
            x.clone(),
            perturb_chunked(&fgsm, model, x, labels, chunk, &mut gen_rng),
            perturb_chunked(&pgd, model, x, labels, chunk, &mut gen_rng),
            perturb_chunked(&deepfool, model, x, labels, chunk, &mut gen_rng),
        ];
        TrafficStream {
            pools,
            labels: labels.to_vec(),
            example_dims: x.shape().dims()[1..].to_vec(),
            mix,
            rng: rng.fork(2),
        }
    }

    /// The per-example shape (no batch dimension) — what a serving
    /// `Server` should be constructed with.
    pub fn example_dims(&self) -> &[usize] {
        &self.example_dims
    }

    /// The pre-generated pool for `class`, `[n, dims…]`, rows aligned
    /// with the labels the stream was built from — for offline accuracy
    /// checks.
    pub fn pool(&self, class: TrafficClass) -> &Tensor {
        match class {
            TrafficClass::Clean => &self.pools[0],
            TrafficClass::Fgsm => &self.pools[1],
            TrafficClass::Pgd => &self.pools[2],
            TrafficClass::DeepFool => &self.pools[3],
        }
    }

    /// Draws the next request: a weighted class pick, then a uniform row.
    pub fn next_sample(&mut self) -> TrafficSample {
        let total = self.mix.total().max(1) as usize;
        let mut ticket = self.rng.below(total) as u32;
        let mut class = TrafficClass::Clean;
        for c in TrafficClass::ALL {
            let w = self.mix.weight(c);
            if ticket < w {
                class = c;
                break;
            }
            ticket -= w;
        }
        let i = self.rng.below(self.labels.len());
        TrafficSample {
            x: self
                .pool(class)
                .slice_rows(i, i + 1)
                .reshape(&self.example_dims),
            label: self.labels[i],
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::trained_digits_net;
    use std::collections::HashMap;

    fn stream_over_fixture(mix: TrafficMix, seed: u64) -> (TrafficStream, f32) {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 24);
        let y = &y[..24];
        let clean_acc = net.accuracy_on(&x, y);
        let budget = AttackBudget::for_28x28();
        (
            TrafficStream::generate(&net, &x, y, &budget, mix, seed),
            clean_acc,
        )
    }

    #[test]
    fn samples_follow_the_mix_and_stay_in_budget() {
        let (mut stream, _) = stream_over_fixture(TrafficMix::default(), 7);
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for _ in 0..400 {
            let s = stream.next_sample();
            assert_eq!(s.x.shape().dims(), stream.example_dims());
            assert!(s.label < 10);
            *counts.entry(s.class.name()).or_insert(0) += 1;
        }
        // 40/20/20/20 over 400 draws: every class must appear, and clean
        // must dominate any single adversarial class on average.
        for c in TrafficClass::ALL {
            assert!(counts[c.name()] > 0, "class {} never drawn", c.name());
        }
        assert!(counts["clean"] > counts["fgsm"] / 2);
    }

    #[test]
    fn zero_weight_classes_never_appear() {
        let mix = TrafficMix {
            clean: 1,
            fgsm: 0,
            pgd: 0,
            deepfool: 0,
        };
        let (mut stream, _) = stream_over_fixture(mix, 3);
        for _ in 0..100 {
            assert_eq!(stream.next_sample().class, TrafficClass::Clean);
        }
    }

    #[test]
    fn stream_is_deterministic_for_a_seed() {
        let (mut a, _) = stream_over_fixture(TrafficMix::default(), 11);
        let (mut b, _) = stream_over_fixture(TrafficMix::default(), 11);
        for _ in 0..50 {
            let (sa, sb) = (a.next_sample(), b.next_sample());
            assert_eq!(sa.class, sb.class);
            assert_eq!(sa.label, sb.label);
            assert_eq!(sa.x.as_slice(), sb.x.as_slice());
        }
    }

    #[test]
    fn adversarial_pools_respect_the_linf_ball_and_hurt_accuracy() {
        let (net, x, y) = trained_digits_net();
        let x = x.slice_rows(0, 24);
        let y = &y[..24];
        let budget = AttackBudget::for_28x28();
        let stream = TrafficStream::generate(&net, &x, y, &budget, TrafficMix::default(), 5);
        for class in [
            TrafficClass::Fgsm,
            TrafficClass::Pgd,
            TrafficClass::DeepFool,
        ] {
            let pool = stream.pool(class);
            assert!(
                pool.sub(&x).linf_norm() <= budget.eps + 1e-5,
                "{} pool escapes the ball",
                class.name()
            );
        }
        // The undefended fixture net must do worse on PGD traffic than on
        // clean traffic — otherwise the "adversarial" pools are inert.
        let clean_acc = net.accuracy_on(stream.pool(TrafficClass::Clean), y);
        let pgd_acc = net.accuracy_on(stream.pool(TrafficClass::Pgd), y);
        assert!(
            pgd_acc < clean_acc,
            "PGD pool ({pgd_acc}) should hurt vs clean ({clean_acc})"
        );
    }
}
