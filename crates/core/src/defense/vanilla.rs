//! The undefended baseline: plain supervised training on clean images.

use super::{train_loop, Batch, Defense, TrainReport};
use crate::TrainConfig;
use gandef_data::Dataset;
use gandef_nn::{one_hot, Mode, Net, Session};
use gandef_tensor::rng::Prng;

/// The Vanilla classifier: softmax cross-entropy on clean inputs, no
/// defense. Table III row 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Vanilla;

impl Defense for Vanilla {
    fn name(&self) -> &'static str {
        "Vanilla"
    }

    fn train(&self, net: &mut Net, ds: &Dataset, cfg: &TrainConfig, rng: &mut Prng) -> TrainReport {
        let classes = ds.kind.classes();
        train_loop(self.name(), net, ds, cfg, rng, &mut |b: Batch<'_>| {
            let mut sess = Session::new(&b.net.params, Mode::Train, b.rng.fork(0xC1));
            let x = sess.input(b.x);
            let z = b.net.model.forward(&mut sess, x);
            let loss = sess.tape.softmax_cross_entropy(z, &one_hot(&b.y, classes));
            Some((sess, loss))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_data::{generate, DatasetKind, GenSpec};
    use gandef_nn::{zoo, Net};

    #[test]
    fn vanilla_learns_digits() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 300,
                test: 60,
                seed: 1,
            },
        );
        let mut rng = Prng::new(0);
        let mut net = Net::new(zoo::mlp(28 * 28, 48, 10), &mut rng);
        let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits);
        cfg.epochs = 10;
        cfg.lr = 0.003;
        let report = Vanilla.train(&mut net, &ds, &cfg, &mut rng);
        assert_eq!(report.epoch_losses.len(), 10);
        assert!(!report.failed_to_converge(0.05));
        assert!(
            net.accuracy_on(&ds.test_x, &ds.test_y) > 0.7,
            "vanilla failed to learn"
        );
    }
}
