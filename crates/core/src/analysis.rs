//! Proposition-1 diagnostics (§III-D).
//!
//! The paper's theory says the minimax game bottoms out at
//! `J(C*, D*) = H(Z|X) − H(S)`, reached exactly when (a) the classifier is
//! optimal and (b) `S ⟂ Z` — perturbations leave no trace in the logits,
//! so `H(S|Z) = H(S)`.
//!
//! We can *measure* how close a trained pair gets: the discriminator's
//! binary cross-entropy on held-out `(z, s)` pairs is an upper bound on
//! `H(S|Z)` (cross-entropy ≥ entropy), and with balanced sources
//! `H(S) = 1` bit. The gap `H(S) − Ĥ(S|Z)` is the discriminator's
//! *advantage*: 0 bits means the logits are perturbation-invariant, 1 bit
//! means `D` reads the source perfectly.

use gandef_data::preprocess;
use gandef_nn::{Classifier, Net};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// Entropy estimates (in bits) for the source variable `S` given logits
/// `Z`, per Proposition 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntropyDiagnostics {
    /// `H(S)`: 1 bit for balanced clean/perturbed sources.
    pub h_s: f32,
    /// Upper-bound estimate of `H(S|Z)` from the discriminator's BCE.
    pub h_s_given_z: f32,
}

impl EntropyDiagnostics {
    /// The discriminator's advantage `H(S) − Ĥ(S|Z)` in bits, clamped to
    /// `[0, 1]`. Near 0 ⇔ the classifier hides the source (the ZK-GanDef
    /// equilibrium); near 1 ⇔ logits betray the perturbation.
    pub fn discriminator_advantage(&self) -> f32 {
        (self.h_s - self.h_s_given_z).clamp(0.0, 1.0)
    }
}

/// Estimates [`EntropyDiagnostics`] for a trained `(classifier,
/// discriminator)` pair on held-out images `x`: builds a balanced set of
/// clean and `σ`-perturbed inputs, runs both networks, and converts the
/// discriminator's BCE (nats) to bits.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn entropy_diagnostics(
    classifier: &Net,
    discriminator: &Net,
    x: &Tensor,
    sigma: f32,
    rng: &mut Prng,
) -> EntropyDiagnostics {
    let n = x.dim(0);
    assert!(n > 0, "need at least one probe image");
    let perturbed = preprocess::gaussian_perturb(x, sigma, rng);
    let z_clean = classifier.logits(x);
    let z_pert = classifier.logits(&perturbed);

    // BCE of D on the balanced set, in nats.
    let bce = |z: &Tensor, s: f32| -> f64 {
        let scores = discriminator.logits(z);
        (0..n)
            .map(|i| {
                let logit = scores.at(&[i, 0]);
                // Stable: max(l,0) − l·s + ln(1+e^{−|l|})
                (logit.max(0.0) - logit * s + (1.0 + (-logit.abs()).exp()).ln()) as f64
            })
            .sum::<f64>()
    };
    let nats = (bce(&z_clean, 0.0) + bce(&z_pert, 1.0)) / (2 * n) as f64;
    EntropyDiagnostics {
        h_s: 1.0,
        h_s_given_z: (nats / std::f64::consts::LN_2) as f32,
    }
}

/// Summary statistics of a logit batch — the quantities behind the
/// CLP/CLS design hypothesis that "abnormal large values in pre-softmax
/// logits are signals of adversarial examples" (§III-A). The `table3`
/// harness measures these on clean, noisy and adversarial inputs for its
/// SynthDigits Vanilla, CLS and ZK-GanDef cells (`logit_signature.csv`)
/// to test that hypothesis directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogitStats {
    /// Mean per-row `l2` norm of the logits.
    pub mean_norm: f32,
    /// Mean absolute logit value.
    pub mean_abs: f32,
    /// Largest absolute logit in the batch.
    pub max_abs: f32,
    /// Mean per-row margin (top logit minus runner-up) — prediction
    /// confidence in logit units.
    pub mean_margin: f32,
}

/// Computes [`LogitStats`] for `classifier` on the batch `x`.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn logit_stats(classifier: &Net, x: &Tensor) -> LogitStats {
    let z = classifier.logits(x);
    let (n, c) = (z.dim(0), z.dim(1));
    assert!(n > 0, "need at least one probe image");
    let mut norm_sum = 0.0f64;
    let mut margin_sum = 0.0f64;
    for i in 0..n {
        let row: Vec<f32> = (0..c).map(|k| z.at(&[i, k])).collect();
        norm_sum += row.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        let mut sorted = row.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        margin_sum += (sorted[0] - sorted[1]) as f64;
    }
    LogitStats {
        mean_norm: (norm_sum / n as f64) as f32,
        mean_abs: z.abs().mean(),
        max_abs: z.linf_norm(),
        mean_margin: (margin_sum / n as f64) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_nn::layer::{Dense, Sequential};
    use gandef_nn::{zoo, Net};

    /// A discriminator with all-zero weights outputs logit 0 → BCE = ln 2
    /// → Ĥ(S|Z) = 1 bit → zero advantage.
    #[test]
    fn blind_discriminator_has_zero_advantage() {
        let mut rng = Prng::new(0);
        let cls = Net::new(zoo::mlp(16, 8, 10), &mut rng);
        let mut disc = Net::with_classes(zoo::discriminator(10), 1, &mut rng);
        for name in disc.params.names().to_vec() {
            disc.params.get_mut(&name).map_inplace(|_| 0.0);
        }
        let x = Prng::new(1).uniform_tensor(&[16, 16], -1.0, 1.0);
        let d = entropy_diagnostics(&cls, &disc, &x, 1.0, &mut Prng::new(2));
        assert!((d.h_s_given_z - 1.0).abs() < 1e-4, "{d:?}");
        assert!(d.discriminator_advantage() < 1e-4);
    }

    /// A hand-built "oracle" pair: the classifier passes its input's first
    /// coordinate into the logits; the discriminator amplifies it. With
    /// clean inputs at 0 and perturbations shifting the coordinate, D
    /// separates the sources and the advantage approaches 1 bit.
    #[test]
    fn oracle_discriminator_has_high_advantage() {
        let mut rng = Prng::new(0);
        // Classifier: identity-ish dense 4→10 with first weight 1.
        let cls_model = Sequential::new(vec![Box::new(Dense::new("c", 4, 10, None))]);
        let mut cls = Net::new(cls_model, &mut rng);
        cls.params.get_mut("c.w").map_inplace(|_| 0.0);
        cls.params.get_mut("c.w").set(&[0, 0], 50.0);

        // Discriminator: a *calibrated* linear read-out of z₀. Clean inputs
        // sit at z₀ = −50. A σ = 1 perturbation of the pinned coordinate
        // moves it up with probability ½ (negative noise is clamped at −1),
        // so `z₀ = −50` means "clean with odds 2:1" (logit ≈ −0.69) while
        // any higher z₀ is a giveaway. Expected Ĥ(S|Z) ≈ 0.75·H(1/3) ≈ 0.69
        // bits → advantage ≈ 0.3 bits.
        let disc_model = Sequential::new(vec![Box::new(Dense::new("d", 10, 1, None))]);
        let mut disc = Net::with_classes(disc_model, 1, &mut rng);
        disc.params.get_mut("d.w").map_inplace(|_| 0.0);
        disc.params.get_mut("d.w").set(&[0, 0], 1.0);
        disc.params.get_mut("d.b").map_inplace(|_| 49.3);

        // Clean inputs pinned at −1 in coordinate 0.
        let x = Tensor::from_fn(&[64, 4], |i| if i % 4 == 0 { -1.0 } else { 0.0 });
        let d = entropy_diagnostics(&cls, &disc, &x, 1.0, &mut Prng::new(3));
        assert!(
            d.discriminator_advantage() > 0.15,
            "oracle advantage too low: {d:?}"
        );
    }

    #[test]
    fn logit_stats_on_known_values() {
        // Classifier = identity-ish: z = x·W with W = 2·I (4 → 4).
        let model = Sequential::new(vec![Box::new(Dense::new("c", 4, 4, None))]);
        let mut rng = Prng::new(0);
        let mut net = Net::with_classes(model, 4, &mut rng);
        net.params.get_mut("c.w").map_inplace(|_| 0.0);
        for i in 0..4 {
            net.params.get_mut("c.w").set(&[i, i], 2.0);
        }
        let x = Tensor::from_vec(vec![1, 4], vec![3.0, 0.0, -1.0, 0.5]);
        let stats = logit_stats(&net, &x);
        // z = (6, 0, −2, 1): norm √41, max |z| 6, margin 6 − 1 = 5.
        assert!((stats.mean_norm - 41.0f32.sqrt()).abs() < 1e-4);
        assert_eq!(stats.max_abs, 6.0);
        assert!((stats.mean_margin - 5.0).abs() < 1e-5);
        assert!((stats.mean_abs - 9.0 / 4.0).abs() < 1e-5);
    }

    #[test]
    fn logit_stats_scale_with_weights() {
        let mut rng = Prng::new(1);
        let net = Net::with_classes(zoo::mlp(8, 6, 4), 4, &mut rng);
        let x = Prng::new(2).uniform_tensor(&[8, 8], -1.0, 1.0);
        let base = logit_stats(&net, &x);
        // Doubling the output layer's weights doubles every statistic.
        let mut big = Net::with_classes(zoo::mlp(8, 6, 4), 4, &mut Prng::new(1));
        let doubled = big.params.get("fc2.w").scale(2.0);
        *big.params.get_mut("fc2.w") = doubled;
        let doubled_b = big.params.get("fc2.b").scale(2.0);
        *big.params.get_mut("fc2.b") = doubled_b;
        let scaled = logit_stats(&big, &x);
        assert!((scaled.mean_norm / base.mean_norm - 2.0).abs() < 1e-3);
        assert!((scaled.max_abs / base.max_abs - 2.0).abs() < 1e-3);
    }

    #[test]
    fn advantage_is_clamped() {
        let d = EntropyDiagnostics {
            h_s: 1.0,
            h_s_given_z: 1.3,
        };
        assert_eq!(d.discriminator_advantage(), 0.0);
    }
}
