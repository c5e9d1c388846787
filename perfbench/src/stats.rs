//! Small numeric and process helpers shared by the workloads.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); NaN when empty.
/// `+inf` entries sort last, so a failed request counts as the slowest.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * p).round() as usize;
    v[idx.min(v.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Peak resident set size of this process in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kib * 1024.0 / 1e6)
}

/// `struct timespec` of 64-bit Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock_s(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the clock ids are the Linux CPU-time clocks, which always exist.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds the calling thread has run. The kernel leaves out time the
/// thread waited for a CPU and time the hypervisor stole from it, so on a
/// shared host this follows the work done where wall time follows the
/// neighbours. NaN if the clock cannot be read.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds all threads of this process have run, counted as
/// [`thread_cpu_s`] counts one thread's.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Median seconds per call of `f`: a few warm-up calls, then 7 samples of
/// enough calls each to last about `sample_ms`.
pub fn time_per_call(sample_ms: f64, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((sample_ms / 1e3 / one).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&samples)
}
