//! Seeded fixture for the parse-tree rules: exactly one violation of each
//! of `alloc`, `cast` and `shape`, and none of the other ten rules.
//! Linted (never compiled) by the lint self-test alongside the other
//! `seeded_*.rs` fixtures; fixture paths count as hot-path and shape
//! scope so every semantic rule can fire here.

/// Rule `alloc`: a per-iteration heap allocation inside a loop body.
pub fn seeded_alloc(n: usize, s: &[f32]) -> f32 {
    let mut total = 0.0;
    for _ in 0..n {
        let copy = s.to_vec();
        total += copy[0];
    }
    total
}

/// Rule `cast`: a lossy `f64` → `f32` cast with no guard in the fn.
pub fn seeded_cast(acc: f64) -> f32 {
    acc as f32
}

/// Rule `shape`: a public `Tensor`-returning fn that indexes before any
/// shape assertion.
pub fn seeded_shape(t: &Tensor, i: usize) -> Tensor {
    Tensor::scalar(t.data[i])
}
