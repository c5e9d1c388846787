//! Property-based tests for the NN library. Uses the in-repo [`check`]
//! helper (deterministic seeded cases, no external framework).

use gandef_nn::layer::{Act, Dense, Sequential};
use gandef_nn::optim::{Adam, Optimizer};
use gandef_nn::{accuracy, one_hot, Classifier, Net, Params};
use gandef_tensor::check;
use gandef_tensor::Tensor;

#[test]
fn one_hot_rows_sum_to_one() {
    check::cases(64, |g| {
        let n = g.usize_in(1, 19);
        let labels = g.labels(n, 10);
        let t = one_hot(&labels, 10);
        assert_eq!(t.shape().dims(), &[labels.len(), 10]);
        for (i, &l) in labels.iter().enumerate() {
            let row_sum: f32 = (0..10).map(|c| t.at(&[i, c])).sum();
            assert_eq!(row_sum, 1.0);
            assert_eq!(t.at(&[i, l]), 1.0);
        }
    });
}

#[test]
fn accuracy_bounded_and_exact_on_self() {
    check::cases(64, |g| {
        let n = g.usize_in(1, 29);
        let labels = g.labels(n, 10);
        assert_eq!(accuracy(&labels, &labels), 1.0);
        let shifted: Vec<usize> = labels.iter().map(|&l| (l + 1) % 10).collect();
        assert_eq!(accuracy(&shifted, &labels), 0.0);
    });
}

#[test]
fn dense_without_activation_is_affine() {
    check::cases(48, |g| {
        // f(αx) − f(0) == α(f(x) − f(0)) for a linear layer.
        let alpha = g.f32_in(-2.0, 2.0);
        let model = Sequential::new(vec![Box::new(Dense::new("fc", 5, 3, None))]);
        let net = Net::with_classes(model, 3, g.rng());
        let x = g.tensor(&[2, 5], -1.0, 1.0);
        let zero = Tensor::zeros(&[2, 5]);
        let f0 = net.logits(&zero);
        let fx = net.logits(&x).sub(&f0);
        let fax = net.logits(&x.scale(alpha)).sub(&f0);
        assert!(fax.allclose(&fx.scale(alpha), 1e-3));
    });
}

#[test]
fn relu_network_output_unchanged_by_positive_input_scaling_sign() {
    check::cases(32, |g| {
        // Sanity: same input twice → identical output (pure function in
        // eval mode), regardless of seed.
        let model = Sequential::new(vec![
            Box::new(Dense::new("a", 4, 8, Some(Act::Relu))),
            Box::new(Dense::new("b", 8, 2, None)),
        ]);
        let net = Net::with_classes(model, 2, g.rng());
        let x = g.tensor(&[3, 4], -1.0, 1.0);
        assert_eq!(net.logits(&x), net.logits(&x));
    });
}

#[test]
fn optimizers_descend_on_random_quadratics() {
    check::cases(48, |g| {
        // For f(w) = ‖w − t‖², a single Adam step from w₀ = 0 must reduce
        // the loss (the first step is always along −g).
        let lr = g.f32_in(0.01, 0.2);
        let target = g.tensor(&[4], -2.0, 2.0);
        if target.l2_norm() <= 0.1 {
            return;
        }
        let mut opt = Adam::new(lr);
        let mut params = Params::new();
        params.insert("w", Tensor::zeros(&[4]));
        let before = params.get("w").sub(&target).l2_norm();
        let grad = params.get("w").sub(&target).scale(2.0);
        opt.step(&mut params, &[Some(grad)]);
        let after = params.get("w").sub(&target).l2_norm();
        assert!(
            after < before,
            "step increased distance: {before} -> {after}"
        );
    });
}

#[test]
fn ce_input_grad_loss_matches_direct_evaluation() {
    check::cases(32, |g| {
        let model = Sequential::new(vec![Box::new(Dense::new("fc", 6, 4, Some(Act::Tanh)))]);
        let net = Net::with_classes(model, 4, g.rng());
        let x = g.tensor(&[3, 6], -1.0, 1.0);
        let labels = vec![0usize, 1, 2];
        let targets = one_hot(&labels, 4);
        let (loss, grad) = net.ce_input_grad(&x, &targets);
        // Direct: −mean log softmax at target.
        let lsm = net.logits(&x).log_softmax_rows();
        let expect: f32 = -(0..3).map(|i| lsm.at(&[i, labels[i]])).sum::<f32>() / 3.0;
        assert!((loss - expect).abs() < 1e-4);
        assert_eq!(grad.shape(), x.shape());
        assert!(grad.is_finite());
    });
}
