//! Seeded fixture for the single-file rules: exactly one violation of
//! each of `safety`, `panic`, `bounds`, `knob`, `spawn` and `alloc`, and
//! none of the other five rules. With the two other `seeded_*.rs`
//! fixtures it trips each of the eleven rules exactly once, which the
//! lint self-test (`crates/lint/tests/selftest.rs`) checks. Fixture paths
//! count as hot-path scope, so `alloc` can fire here. This file is never
//! compiled — it lives outside `src/` and `tests/` on purpose.

/// Rule `safety`: an `unsafe` block with no SAFETY comment above it.
pub fn seeded_safety(p: *const u8) -> u8 {
    unsafe { *p }
}

/// Rule `panic`: an `unwrap()` in library code, no annotation.
pub fn seeded_panic(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// Rule `bounds`: a raw-parts slice in a function with no `debug_assert!`
/// bounds contract (the SAFETY comment keeps rule `safety` quiet).
pub fn seeded_bounds(p: *const f32, len: usize) -> Vec<f32> {
    // SAFETY: caller promises `p` is valid for `len` reads.
    let s = unsafe { std::slice::from_raw_parts(p, len) };
    s.to_vec()
}

/// Rule `knob`: reads an env knob that no registry declares.
pub fn seeded_knob() -> bool {
    std::env::var("GANDEF_FIXTURE_ONLY").is_ok()
}

/// Rule `spawn`: raw thread spawn outside `pool.rs`.
pub fn seeded_spawn() {
    let t = std::thread::spawn(|| {});
    // lint:allow(errprop) — this fixture seeds rule `spawn` only; the
    // join result of the just-spawned no-op thread carries no error.
    let _ = t.join();
}

/// Rule `alloc`: a per-iteration heap allocation inside a loop body.
pub fn seeded_alloc(n: usize, s: &[f32]) -> f32 {
    let mut total = 0.0;
    for _ in 0..n {
        let copy = s.to_vec();
        total += copy[0];
    }
    total
}
