//! Std-only micro-benchmarking: warmup + median-of-N timing.
//!
//! Criterion is unavailable offline, and kernel benchmarks don't need its
//! statistical machinery — a warmup phase (to populate caches and spin up
//! the worker pool) followed by the median of N samples is robust to the
//! occasional scheduler hiccup and has no dependencies. Used by the
//! `bench_kernels` binary, which tracks the GEMM/conv perf trajectory in
//! `BENCH_tensor.json` at the repo root.
//!
//! Samples are read on the process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`),
//! as perfbench and the lint budget read theirs: it sums the CPU every
//! thread of the process ran, pool workers included, and leaves out time
//! spent waiting for a CPU that another process holds. A busy host
//! therefore does not read as a slow kernel. The pool's idle workers
//! block on a condition variable, so they add nothing while they wait.

use std::os::raw::{c_int, c_long};

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name, e.g. `"matmul"`.
    pub name: String,
    /// Problem shape, e.g. `"256x256x256"`.
    pub shape: String,
    /// Median process-CPU nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Throughput in GFLOP/s (0 when no FLOP count applies).
    pub gflops: f64,
}

/// Times `body`, returning the median nanoseconds per iteration.
///
/// Runs `warmup` untimed iterations, then `samples` timed ones on the
/// process CPU clock, and takes the median sample — the estimator least
/// sensitive to one-off stalls.
/// `body`'s return value is passed through `std::hint::black_box` so the
/// optimizer cannot elide the work.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn median_ns<T>(warmup: usize, samples: usize, mut body: impl FnMut() -> T) -> f64 {
    assert!(samples > 0, "need at least one sample");
    for _ in 0..warmup {
        std::hint::black_box(body());
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = process_cpu_ns();
            std::hint::black_box(body());
            process_cpu_ns() - start
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
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

/// Nanoseconds of CPU all threads of this process have run. NaN if the
/// clock cannot be read; a NaN sample sorts last and a NaN median fails
/// the `bench_diff` gate.
fn process_cpu_ns() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // the process CPU-time clock always exists on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
    } else {
        f64::NAN
    }
}

/// Runs one named benchmark and derives throughput from `flops` (the
/// floating-point operations one iteration performs; pass 0 to skip).
pub fn run<T>(
    name: &str,
    shape: &str,
    flops: u64,
    warmup: usize,
    samples: usize,
    body: impl FnMut() -> T,
) -> Measurement {
    let ns = median_ns(warmup, samples, body);
    Measurement {
        name: name.to_string(),
        shape: shape.to_string(),
        ns_per_iter: ns,
        gflops: if flops == 0 { 0.0 } else { flops as f64 / ns },
    }
}

/// Serializes measurements as a JSON array of
/// `{name, shape, ns_per_iter, gflops}` objects (hand-rolled: no serde in
/// the dependency-free build).
pub fn to_json(measurements: &[Measurement]) -> String {
    let rows: Vec<String> = measurements
        .iter()
        .map(|m| {
            format!(
                "  {{\"name\": \"{}\", \"shape\": \"{}\", \"ns_per_iter\": {:.1}, \"gflops\": {:.3}}}",
                escape(&m.name),
                escape(&m.shape),
                m.ns_per_iter,
                m.gflops
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Parses the JSON emitted by [`to_json`] back into measurements.
///
/// This is a minimal reader for the flat `{name, shape, ns_per_iter,
/// gflops}` objects this module writes (the `bench_diff` gate compares a
/// fresh run against the checked-in `BENCH_tensor.json`). It tolerates
/// arbitrary whitespace and field order but not nested objects or braces
/// inside strings — which `to_json` never produces.
pub fn from_json(json: &str) -> Result<Vec<Measurement>, String> {
    let trimmed = json.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return Err("expected a JSON array of measurements".into());
    }
    let mut out = Vec::new();
    let mut rest = trimmed;
    while let Some(start) = rest.find('{') {
        let end = rest[start..]
            .find('}')
            .ok_or_else(|| "unterminated object".to_string())?
            + start;
        let obj = &rest[start + 1..end];
        out.push(Measurement {
            name: str_field(obj, "name")?,
            shape: str_field(obj, "shape")?,
            ns_per_iter: num_field(obj, "ns_per_iter")?,
            gflops: num_field(obj, "gflops")?,
        });
        rest = &rest[end + 1..];
    }
    Ok(out)
}

/// Extracts the string value of `key` from a flat JSON object body,
/// undoing [`escape`].
fn str_field(obj: &str, key: &str) -> Result<String, String> {
    let tail = field_value(obj, key)?;
    let tail = tail
        .strip_prefix('"')
        .ok_or_else(|| format!("field {key} is not a string"))?;
    let mut value = String::new();
    let mut chars = tail.chars();
    loop {
        match chars.next() {
            Some('"') => return Ok(value),
            Some('\\') => match chars.next() {
                Some(c @ ('"' | '\\')) => value.push(c),
                _ => return Err(format!("bad escape in field {key}")),
            },
            Some(c) => value.push(c),
            None => return Err(format!("unterminated string for field {key}")),
        }
    }
}

/// Extracts the numeric value of `key` from a flat JSON object body.
fn num_field(obj: &str, key: &str) -> Result<f64, String> {
    let tail = field_value(obj, key)?;
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("field {key}: {e}"))
}

/// Returns the text immediately after `"key":`, trimmed.
fn field_value<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing field {key}"))?;
    let after = &obj[at + pat.len()..];
    let colon = after
        .find(':')
        .ok_or_else(|| format!("missing ':' after {key}"))?;
    Ok(after[colon + 1..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_positive_and_finite() {
        let ns = median_ns(1, 5, || (0..1000).map(|i| i as f32).sum::<f32>());
        assert!(ns.is_finite() && ns > 0.0);
    }

    #[test]
    fn run_derives_gflops() {
        let m = run("probe", "1k", 1000, 1, 5, || {
            (0..1000).map(|i| i as f32).sum::<f32>()
        });
        assert_eq!(m.name, "probe");
        assert!(m.gflops > 0.0);
        let none = run("no-flops", "1", 0, 0, 1, || 42);
        assert_eq!(none.gflops, 0.0);
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        let ms = vec![
            Measurement {
                name: "matmul".into(),
                shape: "256x256x256".into(),
                ns_per_iter: 887853.0,
                gflops: 37.793,
            },
            Measurement {
                name: "odd \"name\" \\ here".into(),
                shape: "1".into(),
                ns_per_iter: 1.5,
                gflops: 0.0,
            },
        ];
        let back = from_json(&to_json(&ms)).expect("parse own output");
        assert_eq!(back.len(), 2);
        for (a, b) in ms.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.ns_per_iter, b.ns_per_iter);
            assert_eq!(a.gflops, b.gflops);
        }
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(from_json("not json").is_err());
        assert!(from_json("[\n  {\"name\": \"x\"}\n]").is_err()); // missing fields
        assert!(from_json(
            "[{\"name\": \"x\", \"shape\": \"s\", \"ns_per_iter\": \"nan?\", \"gflops\": 1}]"
        )
        .is_err());
        assert_eq!(from_json("[]").expect("empty array").len(), 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let m = Measurement {
            name: "matmul".into(),
            shape: "2x2x2".into(),
            ns_per_iter: 125.0,
            gflops: 0.128,
        };
        let json = to_json(&[m.clone(), m]);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"name\": \"matmul\"").count(), 2);
        assert!(json.contains("\"ns_per_iter\": 125.0"));
        assert!(json.contains("\"gflops\": 0.128"));
    }
}
