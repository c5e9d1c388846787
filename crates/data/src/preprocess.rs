//! The paper's preprocessing module (Figure 3 / §IV-B): scaling into the
//! model range and the zero-knowledge Gaussian augmentation.

use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

/// Lower bound of the model pixel range (the paper maps pixels into
/// `R[−1,1]`, §IV-B).
pub const PIXEL_MIN: f32 = -1.0;
/// Upper bound of the model pixel range.
pub const PIXEL_MAX: f32 = 1.0;

/// Maps raw intensities in `[0, 1]` to the model range `[−1, 1]` (the
/// "Scaling" operation of §IV-B).
pub fn to_model_range(raw: &Tensor) -> Tensor {
    raw.map(|v| v * 2.0 - 1.0)
}

/// Maps model-range pixels back to `[0, 1]` (for inspection / rendering).
pub fn from_model_range(x: &Tensor) -> Tensor {
    x.map(|v| ((v + 1.0) * 0.5).clamp(0.0, 1.0))
}

/// The paper's zero-knowledge "Augmentation" (§IV-B): adds i.i.d. Gaussian
/// noise `N(0, σ)` to every pixel and projects back into the valid pixel
/// range (the `F` function of §II-A). The paper — following its
/// communication with the ALP authors — uses `σ = 1`.
pub fn gaussian_perturb(x: &Tensor, sigma: f32, rng: &mut Prng) -> Tensor {
    let src = x.as_slice();
    Tensor::from_fn(x.shape().dims(), |i| {
        (src[i] + rng.normal_with(0.0, sigma)).clamp(PIXEL_MIN, PIXEL_MAX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_roundtrip() {
        let raw = Tensor::from_vec(vec![5], vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        let scaled = to_model_range(&raw);
        assert_eq!(scaled.as_slice(), &[-1.0, -0.5, 0.0, 0.5, 1.0]);
        assert!(from_model_range(&scaled).allclose(&raw, 1e-6));
    }

    #[test]
    fn perturbation_stays_in_pixel_range() {
        let x = Tensor::zeros(&[4, 1, 8, 8]);
        let mut rng = Prng::new(0);
        let p = gaussian_perturb(&x, 1.0, &mut rng);
        assert!(p.min_value() >= PIXEL_MIN);
        assert!(p.max_value() <= PIXEL_MAX);
        assert_ne!(p, x);
    }

    #[test]
    fn sigma_zero_is_identity() {
        let x = Tensor::from_fn(&[10], |i| (i as f32 / 10.0) - 0.5);
        let mut rng = Prng::new(1);
        assert_eq!(gaussian_perturb(&x, 0.0, &mut rng), x);
    }

    #[test]
    fn perturbation_magnitude_scales_with_sigma() {
        let x = Tensor::zeros(&[1, 1, 16, 16]);
        let mut rng = Prng::new(2);
        let small = gaussian_perturb(&x, 0.1, &mut rng).abs().mean();
        let large = gaussian_perturb(&x, 1.0, &mut rng).abs().mean();
        assert!(large > small * 2.0, "small {small}, large {large}");
    }
}
