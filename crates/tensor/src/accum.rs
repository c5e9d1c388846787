//! Accumulation-precision control for every summing kernel in the stack.
//!
//! All tensors store `f32`, but long reductions — GEMM inner products,
//! axis sums, softmax partition functions — lose bits when partial sums
//! are rounded back to `f32` at every step, and the rounding depends on
//! the summation order the kernel happens to use. There are exactly two
//! modes, one per purpose: [`Accum::F32`] for speed (the default, and the
//! precision the paper trains in) and [`Accum::F64`] for the bit-exact
//! oracles. `F64` selects `f32 in → f64 acc → f32 out` variants of the
//! kernels: each output element is produced by one exactly-rounded `f64`
//! chain (no FMA, no order-dependent partials), so results are
//! bit-identical across thread counts, SIMD dispatch and tiling choices.
//!
//! The mode is process-global with a thread-local scoped override:
//!
//! * [`set_accum`] sets the global default (also settable via the
//!   `GANDEF_ACCUM=f64` environment variable, read once on first use; an
//!   unrecognized value prints one warning to stderr and means `f32`).
//! * [`with_accum`] overrides the mode for the calling thread for the
//!   duration of a closure — kernels sample the mode *once on the calling
//!   thread* before fanning out to pool workers, so the override applies
//!   to pooled work too.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Precision used for the partial sums inside reductions and GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accum {
    /// `f32` partials (fastest; the default). Results still have a fixed
    /// per-element summation order, but depend on SIMD dispatch (FMA
    /// fuses the rounding of multiply-add pairs).
    F32,
    /// `f64` partials, converted to `f32` only at the very end. Slower,
    /// but bit-identical across thread counts and `GANDEF_NO_FMA`
    /// settings — the mode for numerics audits and stability studies.
    F64,
}

// 0 = unset (probe GANDEF_ACCUM on first read), 1 = F32, 2 = F64.
static GLOBAL_ACCUM: AtomicU8 = AtomicU8::new(0);

thread_local! {
    // 0 = no override, 1 = F32, 2 = F64.
    static LOCAL_ACCUM: Cell<u8> = const { Cell::new(0) };
}

fn encode(mode: Accum) -> u8 {
    match mode {
        Accum::F32 => 1,
        Accum::F64 => 2,
    }
}

fn decode(raw: u8) -> Accum {
    match raw {
        2 => Accum::F64,
        _ => Accum::F32,
    }
}

/// Parses a `GANDEF_ACCUM` value (case-insensitive `f32` or `f64`).
fn parse_env(value: &str) -> Option<Accum> {
    if value.eq_ignore_ascii_case("f32") {
        Some(Accum::F32)
    } else if value.eq_ignore_ascii_case("f64") {
        Some(Accum::F64)
    } else {
        None
    }
}

fn global_accum() -> Accum {
    // lint:allow(atomics) — idempotent once-cache: every writer stores
    // the same env-derived value, so readers seeing 0 just recompute it.
    let raw = GLOBAL_ACCUM.load(Ordering::Relaxed);
    if raw != 0 {
        return decode(raw);
    }
    // First read: honor the environment knob, then cache the answer. A
    // race between first readers is benign — both sides write the same
    // env-derived value.
    let from_env = match std::env::var("GANDEF_ACCUM") {
        Ok(v) => parse_env(&v).unwrap_or_else(|| {
            // A typo must not silently turn an f64 oracle run into an f32
            // one without a trace.
            eprintln!(
                "GANDEF_ACCUM: ignoring unrecognized value {v:?} (accepted: f32, f64); using f32"
            );
            Accum::F32
        }),
        Err(_) => Accum::F32,
    };
    // lint:allow(atomics) — same idempotent once-cache write as above.
    GLOBAL_ACCUM.store(encode(from_env), Ordering::Relaxed);
    from_env
}

/// Returns the accumulation mode in effect on the calling thread: the
/// [`with_accum`] override if one is active, otherwise the global default.
pub fn accum() -> Accum {
    let local = LOCAL_ACCUM.with(|c| c.get());
    if local != 0 {
        decode(local)
    } else {
        global_accum()
    }
}

/// Sets the process-global accumulation mode, overriding `GANDEF_ACCUM`.
pub fn set_accum(mode: Accum) {
    // lint:allow(atomics) — callers that need the new mode visible to
    // worker threads already synchronize via the pool's job hand-off.
    GLOBAL_ACCUM.store(encode(mode), Ordering::Relaxed);
}

/// Runs `f` with the accumulation mode forced to `mode` on the calling
/// thread, restoring the previous state afterwards (also on panic).
///
/// Kernels sample the mode before dispatching to the worker pool, so the
/// override covers pooled execution started from inside `f`.
pub fn with_accum<T>(mode: Accum, f: impl FnOnce() -> T) -> T {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_ACCUM.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_ACCUM.with(|c| c.get());
    let _restore = Restore(prev);
    LOCAL_ACCUM.with(|c| c.set(encode(mode)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_override_wins_and_restores() {
        let outer = accum();
        let seen = with_accum(Accum::F64, accum);
        assert_eq!(seen, Accum::F64);
        assert_eq!(accum(), outer);
        let seen = with_accum(Accum::F32, || with_accum(Accum::F64, accum));
        assert_eq!(seen, Accum::F64);
        assert_eq!(accum(), outer);
    }

    #[test]
    fn env_value_accepts_f32_and_f64_only() {
        assert_eq!(parse_env("f32"), Some(Accum::F32));
        assert_eq!(parse_env("F64"), Some(Accum::F64));
        assert_eq!(parse_env("f16"), None);
        assert_eq!(parse_env("f46"), None);
        assert_eq!(parse_env(""), None);
    }

    #[test]
    fn override_restored_on_panic() {
        let outer = accum();
        let result = std::panic::catch_unwind(|| {
            with_accum(Accum::F64, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(accum(), outer);
    }
}
