//! Seeded fixture for the determinism rules: exactly one violation of
//! each of `nondet` and `errprop`, and none of the other nine rules.
//! Linted (never compiled) by the lint self-test alongside `seeded.rs`
//! and `seeded_concurrency.rs`.

/// Rule `nondet`: a wall-clock read feeding a returned value in a
/// numeric path (fixtures count as numeric-path scope).
pub fn seeded_nondet() -> f64 {
    let start = std::time::Instant::now();
    start.elapsed().as_secs_f64()
}

/// Rule `errprop`: an I/O `Result` silently discarded in library code.
pub fn seeded_errprop(path: &str) {
    let _ = std::fs::remove_file(path);
}

