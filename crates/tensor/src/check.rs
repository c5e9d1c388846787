//! Deterministic in-repo property testing.
//!
//! The workspace must compile and test with no registry access, so instead
//! of an external property-testing framework the test suites use this
//! small helper: a [`Gen`] wrapping [`crate::rng::Prng`] for random inputs
//! and a [`cases`] runner that executes a property across many seeded
//! cases and reports the failing case's index and seed on panic.
//!
//! Unlike shrinking-based frameworks, failures reproduce exactly: every
//! case `i` of a run draws from `Prng::new(SEED ^ i)`, so rerunning the
//! reported case replays the identical inputs.
//!
//! # Example
//!
//! ```
//! use gandef_tensor::check;
//!
//! check::cases(64, |g| {
//!     let x = g.f32_in(-10.0, 10.0);
//!     assert!(x.abs() >= 0.0);
//! });
//! ```

use crate::rng::Prng;
use crate::Tensor;

/// Base seed mixed into every case; tests stay reproducible across runs.
const BASE_SEED: u64 = 0x5EED_CA5E_5EED_CA5E;

/// A source of random test inputs for one property-test case.
pub struct Gen {
    rng: Prng,
}

impl Gen {
    /// Uniform `f32` in `[lo, hi)`.
    pub fn f32_in(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.uniform_in(lo, hi)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.rng.below(hi - lo + 1)
    }

    /// `Vec<f32>` of length `len` with entries uniform in `[lo, hi)`.
    pub fn vec_f32(&mut self, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| self.rng.uniform_in(lo, hi)).collect()
    }

    /// Tensor of the given shape with entries uniform in `[lo, hi)`.
    pub fn tensor(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        self.rng.uniform_tensor(dims, lo, hi)
    }

    /// Tensor of i.i.d. standard-normal entries.
    pub fn normal_tensor(&mut self, dims: &[usize]) -> Tensor {
        self.rng.normal_tensor(dims, 0.0, 1.0)
    }

    /// Bernoulli draw with success probability `p`.
    pub fn bool(&mut self, p: f32) -> bool {
        self.rng.bernoulli(p)
    }

    /// Class-label vector: `n` integers in `[0, classes)` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn labels(&mut self, n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|_| self.rng.below(classes)).collect()
    }

    /// Exposes the underlying generator for draws the helpers don't cover.
    pub fn rng(&mut self) -> &mut Prng {
        &mut self.rng
    }
}

/// Runs `property` against `n` independently seeded cases.
///
/// Each case gets its own [`Gen`]; if the property panics, the panic is
/// re-raised with the case index and seed attached so the failure can be
/// replayed in isolation.
///
/// # Panics
///
/// Re-raises the first property failure, annotated with the case number.
pub fn cases(n: usize, mut property: impl FnMut(&mut Gen)) {
    for i in 0..n {
        let seed = BASE_SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut gen = Gen {
            rng: Prng::new(seed),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut gen);
        }));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            // lint:allow(panic) — deliberate re-raise: the property-test
            // harness reports the failing case and seed by panicking.
            panic!("property failed at case {i}/{n} (seed {seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_across_runs() {
        let mut first = Vec::new();
        cases(8, |g| first.push(g.f32_in(0.0, 1.0)));
        let mut second = Vec::new();
        cases(8, |g| second.push(g.f32_in(0.0, 1.0)));
        assert_eq!(first, second);
    }

    #[test]
    fn each_case_gets_a_distinct_stream() {
        let mut draws = Vec::new();
        cases(16, |g| draws.push(g.f32_in(0.0, 1.0)));
        let mut deduped = draws.clone();
        deduped.dedup();
        assert_eq!(draws.len(), deduped.len(), "cases repeated a stream");
    }

    #[test]
    fn failure_reports_case_index() {
        let caught = std::panic::catch_unwind(|| {
            cases(10, |g| {
                let v = g.usize_in(0, 100);
                assert!(v != v, "forced failure {v}");
            });
        });
        let payload = caught.expect_err("property should fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("string panic message");
        assert!(msg.contains("property failed at case 0/10"), "got: {msg}");
        assert!(msg.contains("forced failure"), "got: {msg}");
    }

    #[test]
    fn generators_respect_bounds() {
        cases(32, |g| {
            let x = g.f32_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let k = g.usize_in(1, 7);
            assert!((1..=7).contains(&k));
            let t = g.tensor(&[2, 5], 0.0, 1.0);
            assert_eq!(t.shape().dims(), &[2, 5]);
            assert!(t.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
            let labels = g.labels(9, 4);
            assert!(labels.iter().all(|&c| c < 4));
        });
    }
}
