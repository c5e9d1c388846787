//! Dataset assembly: generation, train/test separation and batching.

use crate::preprocess;
use crate::{cifar, digits, fashion};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;
use std::fmt;

/// The three synthetic datasets, mirroring §IV-A of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// MNIST stand-in: 28×28 grayscale seven-segment digits.
    SynthDigits,
    /// Fashion-MNIST stand-in: 28×28 grayscale textured garments.
    SynthFashion,
    /// CIFAR10 stand-in: 32×32 RGB objects over textured backgrounds.
    SynthCifar,
}

impl DatasetKind {
    /// All kinds, in the paper's order.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::SynthDigits,
        DatasetKind::SynthFashion,
        DatasetKind::SynthCifar,
    ];

    /// Human-readable name, annotated with the dataset it stands in for.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::SynthDigits => "SynthDigits (MNIST analog)",
            DatasetKind::SynthFashion => "SynthFashion (Fashion-MNIST analog)",
            DatasetKind::SynthCifar => "SynthCifar (CIFAR10 analog)",
        }
    }

    /// Image channel count.
    pub fn channels(self) -> usize {
        match self {
            DatasetKind::SynthCifar => 3,
            _ => 1,
        }
    }

    /// Image side length (images are square).
    pub fn side(self) -> usize {
        match self {
            DatasetKind::SynthCifar => cifar::SIDE,
            DatasetKind::SynthDigits => digits::SIDE,
            DatasetKind::SynthFashion => fashion::SIDE,
        }
    }

    /// Number of classes (10 for all, like the paper's datasets).
    pub fn classes(self) -> usize {
        10
    }

    fn render(self, class: usize, rng: &mut Prng) -> Vec<f32> {
        match self {
            DatasetKind::SynthDigits => digits::render(class, rng),
            DatasetKind::SynthFashion => fashion::render(class, rng),
            DatasetKind::SynthCifar => cifar::render(class, rng),
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Generation parameters: sample counts and the master seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenSpec {
    /// Number of training images.
    pub train: usize,
    /// Number of test images (disjoint stream from training — the paper's
    /// "Separation" step).
    pub test: usize,
    /// Master seed; every image derives from it deterministically.
    pub seed: u64,
}

impl Default for GenSpec {
    fn default() -> Self {
        GenSpec {
            train: 1024,
            test: 256,
            seed: 0xDA7A,
        }
    }
}

/// A generated dataset: images scaled to `[−1, 1]` (§IV-B "Scaling"),
/// labels balanced across the 10 classes, train and test disjoint.
pub struct Dataset {
    /// Which synthetic dataset this is.
    pub kind: DatasetKind,
    /// Training images `[N, C, H, W]` in `[−1, 1]`.
    pub train_x: Tensor,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test images `[M, C, H, W]` in `[−1, 1]`.
    pub test_x: Tensor,
    /// Test labels.
    pub test_y: Vec<usize>,
}

impl fmt::Debug for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset({}, train {}, test {})",
            self.kind,
            self.train_y.len(),
            self.test_y.len()
        )
    }
}

/// Generates a dataset. Labels are exactly balanced (round-robin over the
/// 10 classes, then shuffled); train and test come from disjoint RNG
/// streams of the same master seed.
///
/// # Panics
///
/// Panics if either split is empty.
pub fn generate(kind: DatasetKind, spec: &GenSpec) -> Dataset {
    assert!(spec.train > 0 && spec.test > 0, "splits must be non-empty");
    let mut master = Prng::new(spec.seed ^ kind as u64);
    let mut train_rng = master.fork(1);
    let mut test_rng = master.fork(2);
    let (train_x, train_y) = split(kind, spec.train, &mut train_rng);
    let (test_x, test_y) = split(kind, spec.test, &mut test_rng);
    Dataset {
        kind,
        train_x,
        train_y,
        test_x,
        test_y,
    }
}

fn split(kind: DatasetKind, n: usize, rng: &mut Prng) -> (Tensor, Vec<usize>) {
    let (c, s) = (kind.channels(), kind.side());
    let classes = kind.classes();
    // Balanced labels, shuffled.
    let mut labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    rng.shuffle(&mut labels);
    let mut data = Vec::with_capacity(n * c * s * s);
    for &label in &labels {
        let mut img_rng = rng.fork(label as u64);
        let img = kind.render(label, &mut img_rng);
        debug_assert_eq!(img.len(), c * s * s);
        data.extend_from_slice(&img);
    }
    let raw = Tensor::from_vec(vec![n, c, s, s], data);
    (preprocess::to_model_range(&raw), labels)
}

/// Iterator over shuffled mini-batches of `(images, labels)`.
///
/// Created by [`batches`]. The final partial batch is yielded too.
pub struct Batches<'a> {
    x: &'a Tensor,
    y: &'a [usize],
    order: Vec<usize>,
    pos: usize,
    batch: usize,
}

/// Splits `(x, y)` into shuffled mini-batches of size `batch`.
///
/// # Panics
///
/// Panics if sizes disagree, the set is empty, or `batch == 0`.
pub fn batches<'a>(x: &'a Tensor, y: &'a [usize], batch: usize, rng: &mut Prng) -> Batches<'a> {
    assert_eq!(x.dim(0), y.len(), "image/label count mismatch");
    assert!(!y.is_empty(), "cannot batch an empty dataset");
    assert!(batch > 0, "batch size must be positive");
    Batches {
        x,
        y,
        order: rng.permutation(y.len()),
        pos: 0,
        batch,
    }
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch).min(self.order.len());
        let idx = &self.order[self.pos..end];
        self.pos = end;
        let xb = self.x.select_rows(idx);
        let yb = idx.iter().map(|&i| self.y[i]).collect();
        Some((xb, yb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_shapes_and_range() {
        for kind in DatasetKind::ALL {
            let ds = generate(
                kind,
                &GenSpec {
                    train: 40,
                    test: 20,
                    seed: 7,
                },
            );
            let (c, h, w) = (kind.channels(), kind.side(), kind.side());
            assert_eq!(ds.train_x.shape().dims(), &[40, c, h, w]);
            assert_eq!(ds.test_x.shape().dims(), &[20, c, h, w]);
            assert!(ds.train_x.min_value() >= -1.0);
            assert!(ds.train_x.max_value() <= 1.0);
        }
    }

    #[test]
    fn labels_are_balanced() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 100,
                test: 50,
                seed: 1,
            },
        );
        let mut counts = [0usize; 10];
        for &l in &ds.train_y {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = GenSpec {
            train: 20,
            test: 10,
            seed: 99,
        };
        let a = generate(DatasetKind::SynthFashion, &spec);
        let b = generate(DatasetKind::SynthFashion, &spec);
        assert_eq!(a.train_x, b.train_x);
        assert_eq!(a.train_y, b.train_y);
        assert_eq!(a.test_x, b.test_x);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 20,
                test: 10,
                seed: 1,
            },
        );
        let b = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 20,
                test: 10,
                seed: 2,
            },
        );
        assert_ne!(a.train_x, b.train_x);
    }

    #[test]
    fn train_and_test_are_disjoint_streams() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 20,
                test: 20,
                seed: 5,
            },
        );
        // Same size, same seed base — but different content (different
        // stream forks).
        assert_ne!(ds.train_x, ds.test_x);
    }

    #[test]
    fn batches_cover_everything_once() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 25,
                test: 10,
                seed: 3,
            },
        );
        let mut rng = Prng::new(0);
        let mut seen = 0;
        let mut sizes = Vec::new();
        for (xb, yb) in batches(&ds.train_x, &ds.train_y, 8, &mut rng) {
            assert_eq!(xb.dim(0), yb.len());
            seen += yb.len();
            sizes.push(yb.len());
        }
        assert_eq!(seen, 25);
        assert_eq!(sizes, vec![8, 8, 8, 1]); // final partial batch yielded
    }

    #[test]
    fn batch_shuffling_depends_on_rng() {
        let ds = generate(
            DatasetKind::SynthDigits,
            &GenSpec {
                train: 32,
                test: 10,
                seed: 3,
            },
        );
        let y1: Vec<usize> = batches(&ds.train_x, &ds.train_y, 32, &mut Prng::new(1))
            .flat_map(|(_, y)| y)
            .collect();
        let y2: Vec<usize> = batches(&ds.train_x, &ds.train_y, 32, &mut Prng::new(2))
            .flat_map(|(_, y)| y)
            .collect();
        assert_ne!(y1, y2);
    }
}
