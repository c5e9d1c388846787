//! Fault injection for the checkpoint I/O path and the serving path.
//!
//! Crash-safety claims are only as good as the crashes they were tested
//! against, so every interruptible operation in the checkpoint writers
//! ([`crate::serialize::save_params`], [`crate::run_state::RunState::save`])
//! *and* every stage of the `gandef-serve` request path (`serve_submit`,
//! `serve_batch`, `serve_forward`, `serve_reply`, `serve_reload`) passes
//! through an *injection point*. The `GANDEF_FAULT` environment knob
//! (registered in `docs/KNOBS.md`) arms at most one fault per process:
//!
//! ```text
//! GANDEF_FAULT=<kind>:<site>:<n>[:<ms>]
//!
//! io-fail:save_params:3    # the 3rd I/O point inside save_params calls
//!                          # returns an injected io::Error
//! kill:save_state:5        # the process aborts (SIGABRT, no cleanup) at
//!                          # the 5th I/O point inside RunState::save
//! kill:epoch:2             # the process aborts right after training
//!                          # epoch 2 completes (checkpoint included)
//! panic:serve_forward:4    # the thread passing the 4th serve_forward
//!                          # point panics (unwinds) — models a bug in
//!                          # the batcher; supervision must recover
//! delay:serve_reply:2:250  # the 2nd serve_reply point stalls 250 ms
//!                          # (default 100) — models a scheduling hiccup
//!                          # or slow device; deadlines must still hold
//! ```
//!
//! `scripts/ci.sh` sweeps `kill` over every I/O point of a small training
//! run in a child process and asserts the on-disk checkpoint still loads
//! as either the previous or the new complete state — never as silently
//! accepted corruption. The chaos sweep test in `tests/serve.rs` arms
//! `panic`, `delay` and `io-fail` at every serve-path site in turn and
//! asserts the serving invariants (every accepted request resolves, the
//! batcher is respawned, no torn weights are ever served).
//!
//! In-process tests arm a fault for one closure with [`with_fault`]; the
//! override is thread-local, so parallel tests do not interfere. Faults
//! that must trigger on *another* thread (the serve batcher or watcher)
//! are armed process-globally with [`GlobalFault::arm`], which disarms on
//! drop.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed fault does when its trigger point is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The I/O point returns an injected [`io::Error`] instead of
    /// proceeding — models a full disk or a failing device.
    IoFail,
    /// The process aborts on the spot (`SIGABRT`, no destructors, no
    /// buffered-writer flush) — models a crash or power loss.
    Kill,
    /// The thread passing the point panics (a normal unwind, not an
    /// abort) — models a logic bug inside a service thread; the serve
    /// layer's supervision path is tested against exactly this.
    Panic,
    /// The point stalls for the given duration before proceeding —
    /// models a scheduling hiccup, page fault storm or slow device, the
    /// failure mode request deadlines exist for.
    Delay(Duration),
}

/// A parsed `GANDEF_FAULT` specification: `<kind>:<site>:<n>[:<ms>]`
/// with a 1-based trigger ordinal `n` (the optional `<ms>` field is the
/// stall length and is only valid for `delay`).
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// What happens at the trigger point.
    pub kind: FaultKind,
    /// Injection-site name the fault is armed for (`save_params`,
    /// `save_state`, `epoch`, `serve_submit`, `serve_batch`,
    /// `serve_forward`, `serve_reply`, `serve_reload`).
    pub site: String,
    /// 1-based ordinal of the matching point that triggers the fault.
    pub at: usize,
}

/// Stall length a `delay` fault uses when no `<ms>` field is given.
const DEFAULT_DELAY: Duration = Duration::from_millis(100);

impl FaultSpec {
    /// Parses a `<kind>:<site>:<n>[:<ms>]` specification.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed field.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let mut kind = match parts.first() {
            Some(&"io-fail") => FaultKind::IoFail,
            Some(&"kill") => FaultKind::Kill,
            Some(&"panic") => FaultKind::Panic,
            Some(&"delay") => FaultKind::Delay(DEFAULT_DELAY),
            other => {
                return Err(format!(
                    "unknown fault kind {other:?} (io-fail | kill | panic | delay)"
                ))
            }
        };
        let site = match parts.get(1) {
            Some(s) if !s.is_empty() => s.to_string(),
            _ => return Err("missing fault site".into()),
        };
        let at = match parts.get(2).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => n,
            _ => return Err("fault ordinal must be a positive integer".into()),
        };
        match (parts.len(), &mut kind) {
            (3, _) => {}
            (4, FaultKind::Delay(d)) => match parts[3].parse::<u64>() {
                Ok(ms) => *d = Duration::from_millis(ms),
                Err(_) => return Err("delay milliseconds must be an integer".into()),
            },
            (4, _) => return Err("only delay takes a 4th <ms> field".into()),
            _ => return Err("expected <kind>:<site>:<n>[:<ms>]".into()),
        }
        Ok(FaultSpec { kind, site, at })
    }
}

/// The process-wide fault armed via `GANDEF_FAULT`, parsed once.
static ENV_SPEC: OnceLock<Option<FaultSpec>> = OnceLock::new();
/// Matching I/O points seen so far by the env-armed fault.
static ENV_HITS: AtomicUsize = AtomicUsize::new(0);
/// All I/O points seen process-wide — the crash harness reports this so
/// the CI sweep knows how many kill positions exist.
static TOTAL_POINTS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The fault armed by `with_fault` for the current thread only, so
    /// concurrent tests cannot trip each other's injections.
    static LOCAL: RefCell<Option<ActiveFault>> = const { RefCell::new(None) };
}

/// The fault armed by `GlobalFault::arm`, shared by every thread in the
/// process so injection points on service threads (the serve batcher /
/// watcher) can trigger it; guarded by `GLOBAL_ARMED` so the unarmed
/// fast path never takes the lock.
static GLOBAL: Mutex<Option<ActiveFault>> = Mutex::new(None);
/// Fast-path flag mirroring whether `GLOBAL` holds an armed fault; set
/// by `GlobalFault::arm`/drop, read by every `io_point`.
static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);

/// Locks the global fault slot, recovering from a poisoned mutex (the
/// slot is plain data — a spec and a hit counter — so a panic while it
/// was held, e.g. an injected `panic` fault, cannot leave it torn).
fn lock_global() -> MutexGuard<'static, Option<ActiveFault>> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

struct ActiveFault {
    spec: FaultSpec,
    hits: usize,
}

/// A process-globally armed fault, disarmed on drop (also on panic).
///
/// Unlike [`with_fault`]'s thread-local scope, a global fault triggers on
/// *any* thread that passes a matching injection point — the only way to
/// reach points inside long-lived service threads (the serve batcher,
/// the hot-reload watcher) from a test or harness. At most one global
/// fault is armed at a time; arming replaces the previous one, so
/// concurrent tests that arm global faults must serialize themselves.
#[must_use = "the fault is disarmed when this guard drops"]
pub struct GlobalFault(());

impl GlobalFault {
    /// Arms `spec` for every thread in the process until the returned
    /// guard drops.
    pub fn arm(spec: FaultSpec) -> GlobalFault {
        *lock_global() = Some(ActiveFault { spec, hits: 0 });
        // lint:allow(atomics) — armed flag; the mutex write above is the
        // synchronization, the flag is only a cheap gate that may lag by
        // one injection point.
        GLOBAL_ARMED.store(true, Ordering::Relaxed);
        GlobalFault(())
    }
}

impl Drop for GlobalFault {
    fn drop(&mut self) {
        // lint:allow(atomics) — see arm(): gate flag only.
        GLOBAL_ARMED.store(false, Ordering::Relaxed);
        *lock_global() = None;
    }
}

fn env_spec() -> Option<&'static FaultSpec> {
    ENV_SPEC
        .get_or_init(|| match std::env::var("GANDEF_FAULT") {
            Ok(raw) if !raw.is_empty() => match FaultSpec::parse(&raw) {
                Ok(spec) => Some(spec),
                Err(e) => {
                    // A typo'd spec must not silently disable a fault
                    // sweep; the sweep itself also catches this (a child
                    // that was expected to crash exits 0).
                    eprintln!("GANDEF_FAULT: ignoring malformed spec {raw:?}: {e}");
                    None
                }
            },
            _ => None,
        })
        .as_ref()
}

fn trigger(kind: FaultKind, site: &str) -> io::Result<()> {
    match kind {
        FaultKind::IoFail => Err(io::Error::other(format!(
            "injected fault at I/O point {site:?}"
        ))),
        FaultKind::Kill => {
            eprintln!("GANDEF_FAULT: simulated crash at I/O point {site:?}");
            std::process::abort();
        }
        FaultKind::Panic => {
            // lint:allow(panic) — this IS the fault being injected: an
            // unwinding panic on the triggering thread, which supervision
            // and chaos tests exist to contain.
            panic!("injected fault panic at point {site:?}");
        }
        FaultKind::Delay(d) => {
            eprintln!("GANDEF_FAULT: injected {d:?} stall at point {site:?}");
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Marks one interruptible operation inside a checkpoint writer or the
/// serving request path.
///
/// Returns the injected error when a matching `io-fail` fault reaches
/// its ordinal, aborts the process for a matching `kill` fault, panics
/// the calling thread for a matching `panic` fault, stalls for a
/// matching `delay` fault, and is a cheap counter increment otherwise.
/// Thread-local faults ([`with_fault`]) are consulted first, then the
/// process-global fault ([`GlobalFault::arm`]), then the `GANDEF_FAULT`
/// environment spec.
///
/// # Errors
///
/// Returns an injected [`io::Error`] only when an `io-fail` fault armed
/// for `site` reaches its trigger ordinal.
///
/// # Panics
///
/// Panics only when a `panic` fault armed for `site` reaches its trigger
/// ordinal — the injected failure itself, never an incidental one.
pub fn io_point(site: &str) -> io::Result<()> {
    // lint:allow(atomics) — monotonic telemetry counter; readers only
    // ever see it after the writer process exits or between sweeps.
    TOTAL_POINTS.fetch_add(1, Ordering::Relaxed);
    let local_kind = LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let active = slot.as_mut()?;
        if active.spec.site != site {
            return None;
        }
        active.hits += 1;
        (active.hits == active.spec.at).then_some(active.spec.kind)
    });
    if let Some(kind) = local_kind {
        return trigger(kind, site);
    }
    // lint:allow(atomics) — cheap armed gate; the slot mutex below is the
    // real synchronization (see GLOBAL_ARMED).
    if GLOBAL_ARMED.load(Ordering::Relaxed) {
        let global_kind = {
            let mut slot = lock_global();
            match slot.as_mut() {
                Some(active) if active.spec.site == site => {
                    active.hits += 1;
                    (active.hits == active.spec.at).then_some(active.spec.kind)
                }
                _ => None,
            }
        };
        if let Some(kind) = global_kind {
            return trigger(kind, site);
        }
    }
    if let Some(spec) = env_spec() {
        if spec.site == site {
            // lint:allow(atomics) — hit ordinal for the env-armed
            // fault; the count is per-site and any interleaving of
            // concurrent hits is an acceptable trigger order.
            let n = ENV_HITS.fetch_add(1, Ordering::Relaxed) + 1;
            if n == spec.at {
                return trigger(spec.kind, site);
            }
        }
    }
    Ok(())
}

/// Marks the completion of training epoch `epoch` (1-based count of
/// completed epochs, after its checkpoint was written). A `kill:epoch:N`
/// fault aborts the process here — the primitive behind the cross-process
/// bit-exact resume oracle in `scripts/ci.sh`.
pub fn epoch_point(epoch: usize) {
    if let Some(spec) = env_spec() {
        if spec.kind == FaultKind::Kill && spec.site == "epoch" && spec.at == epoch {
            eprintln!("GANDEF_FAULT: simulated crash after epoch {epoch}");
            std::process::abort();
        }
    }
}

/// Total I/O points the process has passed through (all sites). The crash
/// harness prints this so the CI sweep can enumerate every kill position.
pub fn io_points_seen() -> usize {
    // lint:allow(atomics) — read after the workload of interest has
    // joined; a stale value mid-run is harmless telemetry.
    TOTAL_POINTS.load(Ordering::Relaxed)
}

/// Arms `spec` for the duration of `f` on the calling thread only, then
/// disarms it (also on panic). `kill` faults abort the process and are
/// not meaningfully testable in-process; use `io-fail`/`panic`/`delay`
/// here and drive `kill` from a child process. Points reached on *other*
/// threads never see this fault — arm a [`GlobalFault`] for those.
pub fn with_fault<T>(spec: FaultSpec, f: impl FnOnce() -> T) -> T {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            LOCAL.with(|slot| *slot.borrow_mut() = None);
        }
    }
    LOCAL.with(|slot| *slot.borrow_mut() = Some(ActiveFault { spec, hits: 0 }));
    let _disarm = Disarm;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_forms() {
        let s = FaultSpec::parse("io-fail:save_params:3").unwrap();
        assert_eq!(s.kind, FaultKind::IoFail);
        assert_eq!(s.site, "save_params");
        assert_eq!(s.at, 3);
        let s = FaultSpec::parse("kill:epoch:2").unwrap();
        assert_eq!(s.kind, FaultKind::Kill);
        assert_eq!(s.site, "epoch");
        assert_eq!(s.at, 2);
    }

    #[test]
    fn parse_accepts_the_serve_kinds() {
        let s = FaultSpec::parse("panic:serve_batch:4").unwrap();
        assert_eq!(s.kind, FaultKind::Panic);
        assert_eq!(s.site, "serve_batch");
        assert_eq!(s.at, 4);
        let s = FaultSpec::parse("delay:serve_reply:1").unwrap();
        assert_eq!(s.kind, FaultKind::Delay(Duration::from_millis(100)));
        let s = FaultSpec::parse("delay:serve_forward:2:250").unwrap();
        assert_eq!(s.kind, FaultKind::Delay(Duration::from_millis(250)));
        assert_eq!(s.at, 2);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            // Unknown / misspelled kinds (including case sensitivity).
            "",
            "explode:x:1",
            "PANIC:x:1",
            "io_fail:x:1",
            // Empty or missing site.
            "io-fail::1",
            "panic",
            "panic:",
            // Missing, zero, negative, non-numeric or overflowing ordinal.
            "io-fail:x",
            "kill:x:0",
            "panic:x:-1",
            "panic:x:three",
            "panic:x:99999999999999999999999",
            // Extra colon-separated fields where none are allowed.
            "io-fail:x:1:5",
            "kill:x:1:5",
            "panic:x:1:5",
            "delay:x:1:5:9",
            // Malformed delay milliseconds.
            "delay:x:1:fast",
            "delay:x:1:",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_error_messages_name_the_bad_field() {
        assert!(FaultSpec::parse("explode:x:1")
            .unwrap_err()
            .contains("kind"));
        assert!(FaultSpec::parse("kill::1").unwrap_err().contains("site"));
        assert!(FaultSpec::parse("kill:x:0")
            .unwrap_err()
            .contains("ordinal"));
        assert!(FaultSpec::parse("delay:x:1:no")
            .unwrap_err()
            .contains("milliseconds"));
        assert!(FaultSpec::parse("kill:x:1:5")
            .unwrap_err()
            .contains("delay"));
    }

    #[test]
    fn global_fault_triggers_on_another_thread_and_disarms_on_drop() {
        // Serialize against any other test arming a global fault.
        let site = "test-global-site";
        {
            let _armed = GlobalFault::arm(FaultSpec::parse(&format!("io-fail:{site}:2")).unwrap());
            // lint:allow(spawn) — the whole point of this test is that a
            // *different* thread hits the globally armed fault.
            let results = std::thread::spawn(move || {
                (0..3).map(|_| io_point(site).is_ok()).collect::<Vec<_>>()
            })
            .join()
            .unwrap();
            assert_eq!(results, vec![true, false, true]);
        }
        // Guard dropped: disarmed again.
        assert!(io_point(site).is_ok());
    }

    #[test]
    fn panic_fault_unwinds_and_delay_fault_stalls() {
        let spec = FaultSpec::parse("panic:site-p:1").unwrap();
        let unwound = with_fault(spec, || {
            std::panic::catch_unwind(|| io_point("site-p")).is_err()
        });
        assert!(unwound, "panic fault must unwind the calling thread");

        let spec = FaultSpec::parse("delay:site-d:1:30").unwrap();
        let t0 = std::time::Instant::now();
        with_fault(spec, || io_point("site-d").unwrap());
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "delay fault must stall for at least the armed duration"
        );
    }

    #[test]
    fn io_fail_triggers_at_the_exact_ordinal_and_disarms() {
        let spec = FaultSpec::parse("io-fail:site-a:2").unwrap();
        let results = with_fault(spec, || {
            (0..4)
                .map(|_| io_point("site-a").is_ok())
                .collect::<Vec<_>>()
        });
        assert_eq!(results, vec![true, false, true, true]);
        // Disarmed outside the closure.
        assert!(io_point("site-a").is_ok());
    }

    #[test]
    fn other_sites_do_not_count_toward_the_ordinal() {
        let spec = FaultSpec::parse("io-fail:site-b:1").unwrap();
        with_fault(spec, || {
            assert!(io_point("site-c").is_ok());
            assert!(io_point("site-b").is_err());
        });
    }
}
