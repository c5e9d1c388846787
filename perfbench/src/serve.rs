//! The `serve-mixed` workload: a LeNet trained briefly during set-up,
//! served by `gandef_serve::Server` to a `TrafficStream` mix of clean, FGSM,
//! PGD and DeepFool examples.
//!
//! Two phases, each against a fresh server: an open loop at `RATE_PER_S`
//! (latency timed from each request's due time) and a saturation phase in
//! which the submitter keeps `WINDOW` requests in flight. Load generation
//! uses two threads: this one submits, a collector blocks in
//! `Pending::wait`. The traced run replaces the saturation phase by a
//! second, traced open-loop phase.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use gandef_attack::stream::{TrafficClass, TrafficMix, TrafficSample, TrafficStream};
use gandef_attack::AttackBudget;
use gandef_data::{generate, DatasetKind, GenSpec};
use gandef_nn::{zoo, Net};
use gandef_serve::{Pending, ServeConfig, ServeError, ServeStats, Server};
use gandef_tensor::accum::Accum;
use gandef_tensor::pool;
use gandef_tensor::rng::Prng;
use zk_gandef::defense::{Defense, Vanilla};
use zk_gandef::{classifier_for, TrainConfig};

use crate::stats::{mean, median, percentile, process_cpu_s, thread_cpu_s};
use crate::trace::{self, Recorder};
use crate::{probes, Args, Outcome};

/// Worker-pool size while serving: one compute thread, so the server does
/// not contend with the two load-generator threads on a 2-core machine.
const POOL_THREADS: usize = 1;
/// Offered rate of the open-loop phase.
const RATE_PER_S: f64 = 500.0;
/// Requests in flight during the saturation phase.
const WINDOW: usize = 64;
const MAX_BATCH: usize = 32;
const MAX_WAIT: Duration = Duration::from_micros(500);
/// Long enough that a stall of the shared host does not expire requests.
const DEADLINE: Duration = Duration::from_secs(1);
const SHED_AT: usize = 1024;
const EXAMPLE_DIMS: [usize; 3] = [1, 28, 28];
const SETUP_TRAIN_N: usize = 512;
const SETUP_EPOCHS: usize = 4;
/// Test rows attacked into each traffic pool.
const POOL_ROWS: usize = 64;
/// PGD and DeepFool iterations used to build the pools.
const TRAFFIC_ITERS: usize = 3;
/// Requests drawn from the stream up front and cycled through.
const DRAWN: usize = 2048;
const SETUPS: usize = 3;
/// Logits in one reply row.
const CLASSES: usize = 10;
/// Records reserved per second of a phase, several times any rate LeNet
/// reaches here, so a phase's record buffer is never moved. Reserved pages
/// stay out of the resident set until written.
const RECORDS_PER_S: f64 = 20_000.0;

struct Setup {
    net: Net,
    samples: Vec<TrafficSample>,
}

/// Dataset generation, a short Vanilla run and traffic-pool generation.
/// (ZK-GanDef does not reach a stable clean accuracy in a set-up this
/// short; serving cost does not depend on the weights.)
fn setup(seed: u64, out: &mut Outcome) -> Setup {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: SETUP_TRAIN_N,
            test: POOL_ROWS,
            seed,
        },
    );
    let mut rng = Prng::new(seed ^ 0x005e_7276);
    let mut net = classifier_for(DatasetKind::SynthDigits, &mut rng);
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits)
        .with_pool_threads(POOL_THREADS)
        .with_accum(Accum::F32);
    cfg.epochs = SETUP_EPOCHS;
    let report = Vanilla.train(&mut net, &ds, &cfg, &mut rng);
    out.check(
        report.epoch_losses.len() == SETUP_EPOCHS
            && report.epoch_losses.iter().all(|l| l.is_finite())
            && report.events.is_empty(),
        || {
            format!(
                "serving model training failed: losses {:?}, events {:?}",
                report.epoch_losses, report.events
            )
        },
    );
    let budget = AttackBudget::for_28x28().training_variant(TRAFFIC_ITERS);
    let mut stream = TrafficStream::generate(
        &net,
        &ds.test_x,
        &ds.test_y,
        &budget,
        TrafficMix::default(),
        seed,
    );
    let samples = (0..DRAWN).map(|_| stream.next_sample()).collect();
    Setup { net, samples }
}

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .max_batch(MAX_BATCH)
        .max_wait(MAX_WAIT)
        .queue_cap(4 * SHED_AT)
        .shed_threshold(SHED_AT)
        .deadline(DEADLINE)
        .accum(Accum::F32)
}

#[derive(Clone, Copy)]
enum Load {
    Open,
    Window,
}

/// A request as the submitter hands it to the collector.
struct Submitted {
    sample: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    pending: Result<Pending, ServeError>,
}

/// A resolved request. The reply is copied out of its tensor at once:
/// tens of thousands of small reply buffers kept to the end of a phase
/// made the run's peak memory depend on where the allocator put them
/// (32 MB or 37 MB on the same seed).
struct Record {
    sample: usize,
    due: Instant,
    start: Instant,
    done: Instant,
    outcome: Result<[f32; CLASSES], ServeError>,
}

struct Phase {
    records: Vec<Record>,
    submitted: usize,
    accepted: u64,
    stats: ServeStats,
    /// The submitter's schedule: it submits from `start` until `end`.
    start: Instant,
    end: Instant,
    wall_s: f64,
    rec: Option<Recorder>,
}

/// Latency from due time in ms; a failed request counts as infinitely late.
fn latency_ms(r: &Record) -> f64 {
    match r.outcome {
        Ok(_) => ms(r.done - r.due),
        Err(_) => f64::INFINITY,
    }
}

impl Phase {
    fn ok(&self) -> usize {
        self.records.iter().filter(|r| r.outcome.is_ok()).count()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(latency_ms).collect()
    }

    /// `f` of each full window (1 s, or the whole schedule if shorter) of
    /// the schedule, with each request placed by its `key` time; `f` also
    /// gets the window length in seconds. Medians over windows keep a
    /// short stall of the machine from deciding a run's figure.
    fn per_window(
        &self,
        key: impl Fn(&Record) -> Instant,
        f: impl Fn(&[&Record], f64) -> f64,
    ) -> Vec<f64> {
        let span = self.end - self.start;
        let win = span.min(Duration::from_secs(1));
        let n = (span.as_secs_f64() / win.as_secs_f64()).floor() as usize;
        let mut buckets: Vec<Vec<&Record>> = vec![Vec::new(); n];
        for r in &self.records {
            let k = key(r).saturating_duration_since(self.start).as_secs_f64() / win.as_secs_f64();
            if let Some(b) = buckets.get_mut(k as usize) {
                b.push(r);
            }
        }
        buckets.iter().map(|b| f(b, win.as_secs_f64())).collect()
    }

    /// Median over windows (by due time) of the latency percentile `p`.
    fn windowed_latency_ms(&self, p: f64) -> f64 {
        median(&self.per_window(
            |r| r.due,
            |b, _| percentile(&b.iter().map(|r| latency_ms(r)).collect::<Vec<_>>(), p),
        ))
    }

    /// Median over windows (by completion time) of completed requests per
    /// second.
    fn windowed_rps(&self) -> f64 {
        median(&self.per_window(
            |r| r.done,
            |b, secs| b.iter().filter(|r| r.outcome.is_ok()).count() as f64 / secs,
        ))
    }

    fn late_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| ms(r.start - r.due)).collect()
    }

    fn print(&self, name: &str) {
        let lat = self.latencies_ms();
        let late = self.late_ms();
        let s = &self.stats;
        println!(
            "{name}: attempted {} succeeded {} failed {} ({} shed, {} expired) in {:.2} s; {} batches, mean batch {:.2}",
            self.records.len(),
            self.ok(),
            self.records.len() - self.ok(),
            s.shed,
            s.expired,
            self.wall_s,
            s.batches,
            s.requests as f64 / s.batches.max(1) as f64,
        );
        println!(
            "{name}: latency from due p50 {:.3} ms p90 {:.3} ms p99 {:.3} ms over {} requests; generator late mean {:.3} ms p99 {:.3} ms",
            median(&lat),
            percentile(&lat, 0.9),
            percentile(&lat, 0.99),
            lat.len(),
            mean(&late),
            percentile(&late, 0.99)
        );
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Collector: waits on every request in submission order and, when
/// tracing, records its spans.
fn collect(
    rx: mpsc::Receiver<Submitted>,
    tokens: mpsc::SyncSender<()>,
    mut rec: Option<Recorder>,
    capacity: usize,
) -> (Vec<Record>, Option<Recorder>) {
    let mut records = Vec::with_capacity(capacity);
    for (id, s) in rx.into_iter().enumerate() {
        let (outcome, done) = match s.pending {
            Ok(p) => {
                let r = p.wait();
                let done = Instant::now();
                let row = r.map(|t| {
                    <[f32; CLASSES]>::try_from(t.as_slice())
                        .expect("the server replies with one row of CLASSES logits")
                });
                (row, done)
            }
            Err(e) => (Err(e), s.end),
        };
        // The submitter only waits for tokens in the saturation phase; a
        // send after it stopped has nobody to tell.
        tokens.try_send(()).ok();
        if let Some(rec) = rec.as_mut() {
            let id = id as u64;
            let root = rec.record("request", s.due, done, None, id);
            rec.record("loadgen.late", s.due, s.start, Some(root), id);
            rec.record("serve.submit", s.start, s.end, Some(root), id);
            rec.record("serve.wait", s.end, done, Some(root), id);
        }
        records.push(Record {
            sample: s.sample,
            due: s.due,
            start: s.start,
            done,
            outcome,
        });
    }
    (records, rec)
}

fn run_phase(setup: &Setup, load: Load, seconds: f64, traced: bool) -> Phase {
    let server = Server::new(
        zoo::lenet(1),
        setup.net.params.clone(),
        EXAMPLE_DIMS.to_vec(),
        serve_config(),
    );
    let (tx, rx) = mpsc::channel::<Submitted>();
    let (tok_tx, tok_rx) = mpsc::sync_channel::<()>(WINDOW);
    for _ in 0..WINDOW {
        tok_tx.send(()).expect("token channel has WINDOW slots");
    }
    let (mut submitted, mut accepted) = (0usize, 0u64);
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + Duration::from_secs_f64(seconds);
    let (records, rec) = std::thread::scope(|scope| {
        let capacity = (seconds * RECORDS_PER_S) as usize;
        let collector =
            scope.spawn(move || collect(rx, tok_tx, traced.then(Recorder::new), capacity));
        loop {
            let due = match load {
                Load::Open => {
                    let due = start + Duration::from_secs_f64(submitted as f64 / RATE_PER_S);
                    if due >= end {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    due
                }
                Load::Window => {
                    tok_rx
                        .recv()
                        .expect("collector returns a token per request");
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    now
                }
            };
            let sample = submitted % setup.samples.len();
            let x = setup.samples[sample].x.clone();
            let t0 = Instant::now();
            let pending = server.submit(x);
            let t1 = Instant::now();
            accepted += pending.is_ok() as u64;
            tx.send(Submitted {
                sample,
                due,
                start: t0,
                end: t1,
                pending,
            })
            .expect("collector outlives the submitter");
            submitted += 1;
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let stats = server.shutdown();
    let first = records.first().map_or(start, |r| r.start);
    let last = records.iter().map(|r| r.done).max().unwrap_or(first);
    Phase {
        records,
        submitted,
        accepted,
        stats,
        start,
        end,
        wall_s: (last - first).as_secs_f64(),
        rec,
    }
}

/// Output checks: every request resolved, the server counted every
/// accepted request, and every reply's argmax matches `Sequential::infer`
/// on the same row with the same weights (a near-tie may flip).
fn check_phase(
    name: &str,
    phase: &Phase,
    setup: &Setup,
    refs: &mut [Option<Vec<f32>>],
    out: &mut Outcome,
) {
    out.check(phase.records.len() == phase.submitted, || {
        format!(
            "{name}: {} of {} requests resolved",
            phase.records.len(),
            phase.submitted
        )
    });
    out.check(phase.stats.requests == phase.accepted, || {
        format!(
            "{name}: server counted {} requests, {} were accepted",
            phase.stats.requests, phase.accepted
        )
    });
    for r in &phase.records {
        let Ok(row) = &r.outcome else { continue };
        let reference = refs[r.sample].get_or_insert_with(|| {
            let x = setup.samples[r.sample].x.reshape(&[1, 1, 28, 28]);
            setup.net.model.infer(&setup.net.params, x).into_vec()
        });
        let want = argmax(reference);
        let got = row.as_slice();
        let top = got[argmax(got)];
        let near_tie = (top - got[want]).abs() <= 1e-4 * top.abs().max(1.0);
        if argmax(got) != want && !near_tie {
            out.violations.push(format!(
                "{name}: reply for sample {} has argmax {} but infer gives {want}",
                r.sample,
                argmax(got)
            ));
            return;
        }
    }
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .fold(0, |best, (i, &x)| if x > v[best] { i } else { best })
}

/// Share of successful replies to clean requests that name the true label.
fn clean_accuracy(phase: &Phase, setup: &Setup) -> f64 {
    let (mut seen, mut right) = (0usize, 0usize);
    for r in &phase.records {
        let sample = &setup.samples[r.sample];
        if let (Ok(row), TrafficClass::Clean) = (&r.outcome, sample.class) {
            seen += 1;
            right += (argmax(row) == sample.label) as usize;
        }
    }
    right as f64 / seen.max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    pool::configure_threads(POOL_THREADS);
    let mut out = Outcome::default();
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut s = None;
    for _ in 0..SETUPS {
        let cpu = thread_cpu_s();
        s = Some(setup(args.seed, &mut out));
        setup_secs.push(thread_cpu_s() - cpu);
    }
    let s = s.expect("at least one set-up");
    let setup_s = median(&setup_secs);
    println!(
        "setup: {SETUPS} set-ups, median {setup_s:.4} CPU s (pool {} thread, {} pool rows, {DRAWN} requests drawn)",
        pool::stats().threads,
        POOL_ROWS
    );
    println!(
        "serve: max_batch {MAX_BATCH}, max_wait {} us, deadline {} ms, shed at {SHED_AT} queued; open loop {RATE_PER_S} req/s, window {WINDOW}",
        MAX_WAIT.as_micros(),
        DEADLINE.as_millis()
    );

    let half = args.seconds / 2.0;
    let open = run_phase(&s, Load::Open, half, false);
    open.print("open");
    let cpu = process_cpu_s();
    let second = if args.trace {
        run_phase(&s, Load::Open, half, true)
    } else {
        run_phase(&s, Load::Window, half, false)
    };
    let second_cpu_s = process_cpu_s() - cpu;
    let second_name = if args.trace { "traced" } else { "saturation" };
    second.print(second_name);

    let mut refs = vec![None; s.samples.len()];
    check_phase("open", &open, &s, &mut refs, &mut out);
    check_phase(second_name, &second, &s, &mut refs, &mut out);
    let attempted = (open.records.len() + second.records.len()) as u64;
    let ok = (open.ok() + second.ok()) as u64;
    out.attempted = attempted;
    out.failed = attempted - ok;

    // Open-loop latency is printed, not gated: on a host that steals CPU
    // it did not repeat (whole runs at 2-10x the calm p90).
    let (p50, p90) = (open.windowed_latency_ms(0.5), open.windowed_latency_ms(0.9));
    let p90s = open.per_window(
        |r| r.due,
        |b, _| percentile(&b.iter().map(|r| latency_ms(r)).collect::<Vec<_>>(), 0.9),
    );
    println!(
        "open, median over 1 s windows: p50 {p50:.3} ms p90 {p90:.3} ms; p90 by window {:?}",
        p90s.iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    if !args.trace {
        let per_cpu_s = second.ok() as f64 / second_cpu_s;
        println!(
            "saturation: {per_cpu_s:.1} completed requests per CPU second of the process ({second_cpu_s:.2} CPU s); {:.1} per wall second, median over 1 s windows ({:.1} over the whole phase)",
            second.windowed_rps(),
            second.ok() as f64 / second.wall_s
        );
        let m = &mut out.metrics;
        m.insert("examples_per_cpu_s", per_cpu_s);
        m.insert("accuracy", clean_accuracy(&open, &s));
        m.insert("ok_ratio", ok as f64 / attempted as f64);
        m.insert("setup_s", setup_s);
        return out;
    }

    let busy_ms = |p: &Phase| {
        median(
            &p.records
                .iter()
                .map(|r| ms(r.done - r.start))
                .collect::<Vec<_>>(),
        )
    };
    let rec = second.rec.as_ref().expect("the traced phase records spans");
    let totals = rec.totals();
    let per_req_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let wait_us = per_req_us("serve.wait");
    let batch_mean = second.stats.requests as f64 / second.stats.batches.max(1) as f64;
    let fill_batch = (batch_mean.round() as usize).clamp(1, MAX_BATCH);
    let infer_at_fill = probes::infer_us(&s.net.model, &s.net.params, fill_batch);
    let span_ns = trace::span_cost_ns();
    let m = &mut out.metrics;
    m.insert("serve.p50_ms", p50);
    m.insert("serve.p90_ms", p90);
    m.insert("serve.submit_us", per_req_us("serve.submit"));
    m.insert("serve.wait_us", wait_us);
    m.insert("serve.fill_us", wait_us - infer_at_fill);
    m.insert("serve.batch_mean", batch_mean);
    m.insert("serve.batches", second.stats.batches as f64);
    m.insert("serve.expired", second.stats.expired as f64);
    m.insert("serve.shed", second.stats.shed as f64);
    m.insert("loadgen.late_ms", per_req_us("loadgen.late") / 1e3);
    m.insert("trace.coverage", busy_ms(&second) / busy_ms(&open));
    m.insert(
        "trace.overhead_pct",
        100.0 * rec.len() as f64 * span_ns * 1e-9 / second.wall_s,
    );
    println!(
        "trace: {} spans ({span_ns:.0} ns each); infer at the mean batch size {fill_batch}: {infer_at_fill:.1} us",
        rec.len()
    );
    for (name, t) in &totals {
        println!(
            "span {name}: count {} total {:.1} ms self {:.1} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = crate::trace_path(args);
    match rec.write_jsonl(&path) {
        Ok(()) => println!("trace: spans written to {}", path.display()),
        Err(e) => out
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
    probes::infer(&s.net.model, &s.net.params, &mut out.metrics);
    probes::kernels(&mut out.metrics);
    out
}
