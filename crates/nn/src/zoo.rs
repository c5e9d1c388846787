//! The paper's model zoo (§IV-D).
//!
//! * For MNIST / Fashion-MNIST the paper uses LeNet \[14\]; [`lenet`] is a
//!   CPU-scaled LeNet with the same topology (conv-pool-conv-pool-dense).
//! * For CIFAR10 the paper uses an AllCNN-based classifier \[23\] with input
//!   dropout; [`allcnn`] reproduces that shape (all-convolutional, stride-2
//!   downsampling, 1×1 head, global average pooling).
//! * [`discriminator`] is **exactly** Table II: Dense 32/64/32/1 with ReLU
//!   hidden activations and a sigmoid output. The sigmoid is fused into the
//!   BCE-with-logits loss for numerical stability (see
//!   [`DISCRIMINATOR_OUTPUT`]), which is mathematically identical.

use crate::layer::{Act, Conv2d, Dense, Dropout, Flatten, GlobalAvgPool, MaxPool, Sequential};
use gandef_tensor::conv::ConvSpec;

/// Number of classes in every dataset the paper evaluates.
pub const NUM_CLASSES: usize = 10;

/// Documentation of the Table-II output activation: the discriminator's
/// final sigmoid is fused into the binary cross-entropy loss.
pub const DISCRIMINATOR_OUTPUT: &str = "Sigmoid (fused into BCE-with-logits)";

/// LeNet-style classifier for `in_ch × 28 × 28` inputs (the paper's MNIST /
/// Fashion-MNIST architecture \[14\], CPU-scaled).
///
/// Topology: `conv 5×5 ×16 → pool 2 → conv 5×5 ×32 → pool 2 → dense 128 →
/// dense 10`. Madry et al. \[14\] observe that adversarial robustness
/// needs spare capacity; this is the widest LeNet that stays CPU-trainable
/// here.
pub fn lenet(in_ch: usize) -> Sequential {
    Sequential::new(vec![
        Box::new(Conv2d::new(
            "conv1",
            in_ch,
            16,
            5,
            ConvSpec::default(),
            Some(Act::Relu),
        )),
        Box::new(MaxPool::new(2)), // 28 → 24 → 12
        Box::new(Conv2d::new(
            "conv2",
            16,
            32,
            5,
            ConvSpec::default(),
            Some(Act::Relu),
        )),
        Box::new(MaxPool::new(2)), // 12 → 8 → 4
        Box::new(Flatten),
        Box::new(Dense::new("fc1", 32 * 4 * 4, 128, Some(Act::Relu))),
        Box::new(Dense::new("fc2", 128, NUM_CLASSES, None)),
    ])
}

/// AllCNN-style classifier for `in_ch × 32 × 32` inputs (the paper's
/// CIFAR10 architecture \[23\], CPU-scaled), including the input dropout the
/// paper credits with inhibiting FGSM-Adv overfitting (§V-A-2).
///
/// Topology: `input dropout → conv 3×3 ×16 → conv 3×3 ×16 /2 → conv 3×3 ×32
/// → conv 3×3 ×32 /2 → conv 3×3 ×32 → conv 1×1 ×10 → global avg pool`.
pub fn allcnn(in_ch: usize, input_dropout: f32) -> Sequential {
    let p1 = ConvSpec { stride: 1, pad: 1 };
    let s2 = ConvSpec { stride: 2, pad: 1 };
    Sequential::new(vec![
        Box::new(Dropout::new(input_dropout)),
        Box::new(Conv2d::new("conv1", in_ch, 16, 3, p1, Some(Act::Relu))),
        Box::new(Conv2d::new("conv2", 16, 16, 3, s2, Some(Act::Relu))), // 32 → 16
        Box::new(Conv2d::new("conv3", 16, 32, 3, p1, Some(Act::Relu))),
        Box::new(Conv2d::new("conv4", 32, 32, 3, s2, Some(Act::Relu))), // 16 → 8
        Box::new(Conv2d::new("conv5", 32, 32, 3, p1, Some(Act::Relu))),
        Box::new(Conv2d::new(
            "conv6",
            32,
            NUM_CLASSES,
            1,
            ConvSpec::default(),
            None,
        )),
        Box::new(GlobalAvgPool),
    ])
}

/// The ZK-GanDef discriminator, exactly as Table II of the paper:
///
/// | Layer | Size | Activation |
/// |-------|------|------------|
/// | Dense | 32   | ReLU       |
/// | Dense | 64   | ReLU       |
/// | Dense | 32   | ReLU       |
/// | Dense | 1    | Sigmoid    |
///
/// The input is the classifier's pre-softmax logits (`[N, 10]`); the output
/// sigmoid is fused into the BCE-with-logits loss ([`DISCRIMINATOR_OUTPUT`]).
/// Per §IV-D-2, this structure "does not change with different datasets".
pub fn discriminator(logit_dim: usize) -> Sequential {
    Sequential::new(vec![
        Box::new(Dense::new("d1", logit_dim, 32, Some(Act::Relu))),
        Box::new(Dense::new("d2", 32, 64, Some(Act::Relu))),
        Box::new(Dense::new("d3", 64, 32, Some(Act::Relu))),
        Box::new(Dense::new("d4", 32, 1, None)), // + fused sigmoid
    ])
}

/// A small multi-layer perceptron for flat `[N, in_dim]` inputs — used by
/// the test suites and the quickstart example where convolution-scale
/// compute is unnecessary.
pub fn mlp(in_dim: usize, hidden: usize, classes: usize) -> Sequential {
    Sequential::new(vec![
        Box::new(Flatten),
        Box::new(Dense::new("fc1", in_dim, hidden, Some(Act::Relu))),
        Box::new(Dense::new("fc2", hidden, classes, None)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classifier, Net, Params};
    use gandef_tensor::rng::Prng;
    use gandef_tensor::Tensor;

    #[test]
    fn table2_structure() {
        // Regenerates Table II of the paper: the discriminator is Dense
        // 32/64/32/1 with ReLU×3; the output sigmoid is fused into the loss.
        let d = discriminator(NUM_CLASSES);
        assert_eq!(
            d.summary(),
            vec![
                "Dense(10 -> 32, ReLU)",
                "Dense(32 -> 64, ReLU)",
                "Dense(64 -> 32, ReLU)",
                "Dense(32 -> 1)",
            ]
        );
        assert!(DISCRIMINATOR_OUTPUT.contains("Sigmoid"));
    }

    #[test]
    fn discriminator_structure_is_dataset_independent() {
        // §IV-D-2: same discriminator for every dataset (logit dim is always
        // the class count).
        let a = discriminator(NUM_CLASSES).summary();
        let b = discriminator(NUM_CLASSES).summary();
        assert_eq!(a, b);
    }

    #[test]
    fn lenet_maps_28x28_to_10_logits() {
        let net = Net::new(lenet(1), &mut Prng::new(0));
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        assert_eq!(net.logits(&x).shape().dims(), &[2, 10]);
    }

    #[test]
    fn allcnn_maps_32x32_to_10_logits() {
        let net = Net::new(allcnn(3, 0.2), &mut Prng::new(0));
        let x = Tensor::zeros(&[2, 3, 32, 32]);
        assert_eq!(net.logits(&x).shape().dims(), &[2, 10]);
    }

    #[test]
    fn discriminator_maps_logits_to_single_score() {
        let net = Net::with_classes(discriminator(NUM_CLASSES), 1, &mut Prng::new(0));
        let z = Tensor::zeros(&[5, 10]);
        assert_eq!(net.logits(&z).shape().dims(), &[5, 1]);
    }

    #[test]
    fn allcnn_has_input_dropout_first() {
        let summary = allcnn(3, 0.2).summary();
        assert_eq!(summary[0], "Dropout(0.2)");
    }

    #[test]
    fn zoo_models_have_plausible_param_counts() {
        let mut rng = Prng::new(0);
        let mut p = Params::new();
        lenet(1).init(&mut p, &mut rng);
        let lenet_params = p.numel();
        assert!(
            lenet_params > 10_000 && lenet_params < 100_000,
            "{lenet_params}"
        );

        let mut p = Params::new();
        allcnn(3, 0.2).init(&mut p, &mut rng);
        let allcnn_params = p.numel();
        assert!(
            allcnn_params > 10_000 && allcnn_params < 200_000,
            "{allcnn_params}"
        );

        let mut p = Params::new();
        discriminator(10).init(&mut p, &mut rng);
        // (10·32+32) + (32·64+64) + (64·32+32) + (32·1+1) = 4577
        assert_eq!(p.numel(), 4577);
    }

    #[test]
    fn mlp_shapes() {
        let net = Net::with_classes(mlp(16, 8, 3), 3, &mut Prng::new(0));
        let x = Tensor::zeros(&[4, 16]);
        assert_eq!(net.logits(&x).shape().dims(), &[4, 3]);
    }
}
