//! Seeded fixture for the concurrency rules: exactly one violation of
//! each of `shared`, `atomics` and `sync`, and none of the other eight
//! rules. Linted (never compiled) by the lint self-test alongside
//! `seeded.rs` and `seeded_determinism.rs`.

/// Rule `shared`: a `static mut` — always a violation, even documented.
pub static mut SEEDED_SHARED: usize = 0;

/// Seeded request counter (documented, so only the missing annotation on
/// the `Relaxed` use below fires, not the `shared` rule).
pub static SEEDED_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Rule `atomics`: a `Relaxed` use with no allow-annotation reason (the
/// word "atomics" in parentheses after "allow" must not appear here, or
/// this doc comment would itself suppress the seeded site).
pub fn seeded_atomics() -> usize {
    SEEDED_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Rule `sync`: the SAFETY comment satisfies rule `safety` but cites
/// neither the `ptr` field nor anything else the impl actually covers.
pub struct SeededHandle {
    ptr: *mut u8,
}
// SAFETY: trust me, this is fine.
unsafe impl Send for SeededHandle {}
