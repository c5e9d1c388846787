//! Serving-semantics contracts for `gandef_serve`.
//!
//! Pins the three guarantees the serving layer advertises:
//!
//! 1. **Batching is invisible.** With f64 accumulation forced on the
//!    batcher, a fused batch of N requests returns bit-identical rows to
//!    N independent unbatched forward passes.
//! 2. **Hot-reload is atomic.** A torn / corrupt checkpoint file is never
//!    served — the watcher rejects it and keeps answering from the
//!    previous verified snapshot; a good checkpoint swaps in whole.
//! 3. **Shutdown drains.** Every request accepted before shutdown still
//!    resolves.
//! 4. **Staleness is content-keyed.** The reload poll detects a rewrite
//!    even when length and mtime are unchanged (content fingerprint in
//!    the poll key).
//! 5. **Supervision is invisible.** After the batcher panics and is
//!    respawned, batched serving is still bit-identical to unbatched.
//! 6. **Faults never hang or tear.** Under an injected panic, delay or
//!    I/O failure at any serve-path site, every request resolves, no
//!    reply shows a torn snapshot, and service recovers once the fault
//!    clears.

use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use zk_gandef_repro::nn::fault::{FaultSpec, GlobalFault};
use zk_gandef_repro::nn::layer::{Act, Dense, Layer, Sequential};
use zk_gandef_repro::nn::serialize::save_params;
use zk_gandef_repro::nn::Params;
use zk_gandef_repro::serve::{ServeConfig, ServeError, Server};
use zk_gandef_repro::tensor::accum::{with_accum, Accum};
use zk_gandef_repro::tensor::rng::Prng;
use zk_gandef_repro::tensor::Tensor;

const IN: usize = 12;
const OUT: usize = 5;
/// A client fleet that has not reported by then is wedged in
/// `Pending::wait`: the tests that run one fail instead of hanging.
const JOIN_DEADLINE: Duration = Duration::from_secs(120);

/// Serializes the tests in this binary: two of them arm the
/// process-global fault injector at serving sites every server in this
/// file passes through, so overlapping tests could steal each other's
/// injected faults.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn model() -> Sequential {
    Sequential::new(vec![
        Box::new(Dense::new("fc1", IN, 16, Some(Act::Tanh))) as Box<dyn Layer>,
        Box::new(Dense::new("fc2", 16, OUT, None)),
    ])
}

/// Fingerprint weights: a zero matrix and bias = `version`, so every
/// correctly served row is exactly `[version; OUT]` bit for bit (the zero
/// matmul contributes exactly 0.0). One reply identifies the snapshot
/// that produced it; a reply mixing snapshots shows a non-constant row
/// or a version never written.
fn fingerprint_params(version: f32) -> Params {
    let mut p = Params::default();
    p.insert("fp.w", Tensor::zeros(&[IN, OUT]));
    p.insert("fp.b", Tensor::full(&[OUT], version));
    p
}

/// The single `Dense` layer [`fingerprint_params`] fills.
fn fingerprint_model() -> Sequential {
    Sequential::new(vec![
        Box::new(Dense::new("fp", IN, OUT, None)) as Box<dyn Layer>
    ])
}

fn init_params(seed: u64) -> Params {
    let mut rng = Prng::new(seed);
    let mut params = Params::default();
    model().init(&mut params, &mut rng);
    params
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gandef-serve-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn examples(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|_| rng.uniform_tensor(&[IN], -1.0, 1.0))
        .collect()
}

/// Contract 1: under f64 accumulation, one fused forward over the batch
/// is bit-identical to serving each example alone. This is the whole
/// point of the `ServeConfig::accum` escape hatch — dynamic batching must
/// not change what a client observes.
#[test]
fn batched_rows_are_bit_identical_to_unbatched() {
    let _guard = serial();
    let n = 8;
    let params = init_params(11);
    let xs = examples(n, 12);

    // Reference: unbatched tape-free forwards on this thread, same accum.
    let reference: Vec<Tensor> = with_accum(Accum::F64, || {
        let m = model();
        xs.iter()
            .map(|x| m.infer(&params, x.reshape(&[1, IN])))
            .collect()
    });

    // Serve all n as one batch: batcher waits until the batch is full.
    let cfg = ServeConfig::default()
        .max_batch(n)
        .max_wait(Duration::from_secs(30))
        .accum(Accum::F64);
    let server = Server::new(model(), params, vec![IN], cfg);
    let pendings: Vec<_> = xs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap())
        .collect();
    let served: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();

    let stats = server.shutdown();
    assert_eq!(
        stats.batches, 1,
        "all {n} requests must fuse into one forward pass"
    );
    assert_eq!(stats.requests, n as u64);
    for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "row {i}: batched output must be bit-identical to unbatched"
        );
    }
}

/// Contract 2: the watcher only swaps in checkpoints that pass the CRC
/// and match the architecture. Corrupt bytes and wrong-shape parameter
/// sets are rejected while the server keeps serving the old weights; a
/// good checkpoint then swaps in atomically and changes the outputs.
#[test]
fn hot_reload_never_serves_a_torn_snapshot() {
    let _guard = serial();
    let dir = temp_dir("reload");
    let ckpt = dir.join("weights.gndf");
    let params_a = init_params(21);
    save_params(&params_a, &ckpt).unwrap();

    let cfg = ServeConfig::default()
        .max_batch(1)
        .accum(Accum::F64)
        .reload_poll(Duration::from_millis(5));
    let server = Server::with_hot_reload(model(), params_a.clone(), vec![IN], cfg, ckpt.clone());

    let x = examples(1, 22).remove(0);
    let before = server.classify(x.clone()).unwrap();

    let wait_for = |pred: &dyn Fn() -> bool, what: &str| {
        for _ in 0..400 {
            if pred() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}; stats = {:?}", server.stats());
    };

    // A torn write: garbage bytes with a different length so the file key
    // changes. Must be rejected, and the server must keep answering from
    // the last good snapshot.
    std::fs::write(&ckpt, b"GNDF torn mid-write: not a checkpoint").unwrap();
    wait_for(
        &|| server.stats().rejected_reloads >= 1,
        "corrupt-file rejection",
    );
    assert_eq!(server.stats().reloads, 0);
    assert_eq!(
        server.classify(x.clone()).unwrap().as_slice(),
        before.as_slice(),
        "a rejected reload must not perturb served outputs"
    );

    // A valid checkpoint for a *different* architecture: verified CRC but
    // incompatible shapes — also rejected.
    let mut alien = Params::default();
    let mut rng = Prng::new(23);
    Sequential::new(vec![
        Box::new(Dense::new("fc1", IN + 1, 3, None)) as Box<dyn Layer>
    ])
    .init(&mut alien, &mut rng);
    save_params(&alien, &ckpt).unwrap();
    wait_for(
        &|| server.stats().rejected_reloads >= 2,
        "incompatible-shape rejection",
    );
    assert_eq!(server.stats().reloads, 0);
    assert_eq!(
        server.classify(x.clone()).unwrap().as_slice(),
        before.as_slice()
    );

    // Compatible weights in the retired version-1 layout, which carried
    // no checksums: refused like a torn file.
    let params_b = init_params(29);
    std::fs::write(&ckpt, v1_bytes(&params_b)).unwrap();
    wait_for(
        &|| server.stats().rejected_reloads >= 3,
        "version-1 rejection",
    );
    assert_eq!(server.stats().reloads, 0);
    assert_eq!(
        server.classify(x.clone()).unwrap().as_slice(),
        before.as_slice()
    );

    // The same weights, saved verified: swapped in whole, outputs change.
    save_params(&params_b, &ckpt).unwrap();
    wait_for(&|| server.stats().reloads >= 1, "verified reload");
    let after = server.classify(x.clone()).unwrap();
    let expected = with_accum(Accum::F64, || model().infer(&params_b, x.reshape(&[1, IN])));
    assert_eq!(
        after.as_slice(),
        expected.as_slice(),
        "post-reload outputs must come entirely from the new snapshot"
    );
    assert_ne!(after.as_slice(), before.as_slice());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `params` in the retired GNDF version-1 layout: magic, version 1, the
/// entry count, then each entry's name and tensor exactly as version 2
/// writes them, but without the entry checksums and the file checksum.
fn v1_bytes(params: &Params) -> Vec<u8> {
    fn put(out: &mut Vec<u8>, v: usize) {
        out.extend_from_slice(&u32::try_from(v).unwrap().to_le_bytes());
    }
    let mut out = b"GNDF".to_vec();
    put(&mut out, 1);
    put(&mut out, params.len());
    for (name, t) in params.iter() {
        put(&mut out, name.len());
        out.extend_from_slice(name.as_bytes());
        put(&mut out, t.shape().dims().len());
        for &d in t.shape().dims() {
            put(&mut out, d);
        }
        put(&mut out, t.numel());
        for v in t.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Contract 3: shutdown stops *accepting* but never drops accepted work —
/// every Pending issued before shutdown resolves, even when the batch
/// deadline is far in the future.
#[test]
fn shutdown_drains_the_queue() {
    let _guard = serial();
    let k = 17;
    let params = init_params(31);
    // Neither trigger can fire on its own inside the test window: only
    // the shutdown drain can serve these requests.
    let cfg = ServeConfig::default()
        .max_batch(1000)
        .max_wait(Duration::from_secs(3600))
        .accum(Accum::F64);
    let server = Server::new(model(), params, vec![IN], cfg);
    let pendings: Vec<_> = examples(k, 32)
        .into_iter()
        .map(|x| server.submit(x).unwrap())
        .collect();

    let stats = server.shutdown();
    assert_eq!(stats.requests, k as u64);
    for (i, p) in pendings.into_iter().enumerate() {
        let y = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} dropped on shutdown: {e}"));
        assert_eq!(y.shape().dims(), &[1, OUT]);
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
    }
}

/// Contract 4: hot-reload under contention is still atomic *per batch*.
///
/// A writer thread rewrites a [`fingerprint_params`] checkpoint with
/// increasing versions while client threads hammer `classify`; a
/// response mixing old and new weights would show a non-constant row or
/// a version never written.
#[test]
fn reload_under_contention_never_mixes_snapshots() {
    let _guard = serial();
    const CLIENTS: usize = 4;
    const REQS_PER_CLIENT: usize = 60;
    const VERSIONS: usize = 20;

    let dir = temp_dir("contend");
    let ckpt = dir.join("weights.gndf");
    save_params(&fingerprint_params(1.0), &ckpt).unwrap();

    let cfg = ServeConfig::default()
        .max_batch(CLIENTS)
        .max_wait(Duration::from_micros(200))
        .accum(Accum::F64)
        .reload_poll(Duration::from_millis(1));
    let server = Arc::new(Server::with_hot_reload(
        fingerprint_model(),
        fingerprint_params(1.0),
        vec![IN],
        cfg,
        ckpt.clone(),
    ));

    // Plain threads joined through a bounded receive, as in the chaos
    // sweep: a deadlock fails the test instead of hanging a scope join.
    // Writer: march the checkpoint through versions 2..=VERSIONS+1 while
    // clients are mid-stream.
    let writer_ckpt = ckpt.clone();
    // lint:allow(spawn) — test needs real blocking threads (clients park
    // in Pending::wait); the compute pool would deadlock.
    let writer = std::thread::spawn(move || {
        for v in 0..VERSIONS {
            save_params(&fingerprint_params((v + 2) as f32), &writer_ckpt).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    let (tx, rx) = mpsc::channel::<()>();
    let clients: Vec<_> = examples(CLIENTS, 41)
        .into_iter()
        .map(|x| {
            let server = Arc::clone(&server);
            let tx = tx.clone();
            // lint:allow(spawn) — same blocking-client argument as above.
            std::thread::spawn(move || {
                for _ in 0..REQS_PER_CLIENT {
                    let y = server.classify(x.clone()).unwrap();
                    let row = y.as_slice();
                    let v = row[0];
                    assert!(
                        row.iter().all(|&e| e == v),
                        "mixed-snapshot batch: output row {row:?} is not constant — \
                         rows were produced from more than one weights version"
                    );
                    assert!(
                        (1.0..=(VERSIONS + 1) as f32).contains(&v) && v.fract() == 0.0,
                        "output fingerprints version {v}, which was never written"
                    );
                }
                tx.send(()).ok();
            })
        })
        .collect();
    drop(tx);
    for _ in 0..CLIENTS {
        match rx.recv_timeout(JOIN_DEADLINE) {
            Ok(()) => {}
            // A client died on an assertion; its join below re-raises it.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                panic!("client fleet wedged: a Pending::wait never resolved")
            }
        }
    }
    for client in clients {
        if let Err(payload) = client.join() {
            std::panic::resume_unwind(payload);
        }
    }
    writer.join().unwrap();

    let stats = Arc::into_inner(server)
        .expect("every client thread has been joined")
        .shutdown();
    assert_eq!(stats.requests, (CLIENTS * REQS_PER_CLIENT) as u64);
    assert!(
        stats.reloads >= 1,
        "contention run never actually reloaded: {stats:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Contract 4 (regression): a checkpoint rewritten in place with the
/// *same byte length* and a *restored mtime* must still be picked up —
/// the poll key folds in a fingerprint of the file contents, so a
/// content change can never hide behind unchanged filesystem metadata. A
/// pure `(len, mtime)` key misses exactly this rewrite and serves the
/// stale snapshot forever. (The fingerprint is also deliberately not a
/// CRC-32 — the format's embedded CRC trailers make any CRC-32 of a
/// valid checkpoint a content-independent constant.)
#[test]
fn reload_detects_a_same_length_same_mtime_rewrite() {
    let _guard = serial();
    let dir = temp_dir("crc");
    let ckpt = dir.join("weights.gndf");
    save_params(&fingerprint_params(1.0), &ckpt).unwrap();
    let meta = std::fs::metadata(&ckpt).unwrap();
    let (len, mtime) = (meta.len(), meta.modified().unwrap());

    let cfg = ServeConfig::default()
        .max_batch(1)
        .accum(Accum::F64)
        .reload_poll(Duration::from_millis(5));
    let server = Server::with_hot_reload(
        fingerprint_model(),
        fingerprint_params(1.0),
        vec![IN],
        cfg,
        ckpt.clone(),
    );
    let x = examples(1, 61).remove(0);
    assert_eq!(server.classify(x.clone()).unwrap().as_slice(), [1.0; OUT]);

    // Stage the rewrite off to the side, pin its mtime back to the
    // original, then rename over the checkpoint (rename preserves the
    // file's own mtime), so the watcher never observes an intermediate
    // state: the published file differs from v1 only in content bytes.
    let staged = dir.join("staged.gndf");
    save_params(&fingerprint_params(2.0), &staged).unwrap();
    assert_eq!(
        std::fs::metadata(&staged).unwrap().len(),
        len,
        "both versions must serialize to the same length for this regression to bite"
    );
    let f = std::fs::File::options().write(true).open(&staged).unwrap();
    f.set_times(std::fs::FileTimes::new().set_modified(mtime))
        .unwrap();
    drop(f);
    std::fs::rename(&staged, &ckpt).unwrap();
    let republished = std::fs::metadata(&ckpt).unwrap();
    assert_eq!(
        (republished.len(), republished.modified().unwrap()),
        (len, mtime),
        "the rewrite must be metadata-indistinguishable from the original"
    );

    for _ in 0..400 {
        if server.stats().reloads >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.stats().reloads >= 1,
        "same-(len, mtime) rewrite went unnoticed: {:?}",
        server.stats()
    );
    assert_eq!(
        server.classify(x).unwrap().as_slice(),
        [2.0; OUT],
        "server still answers from the stale snapshot"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Contract 5: a supervised batcher restart is invisible to correctness.
/// An injected fault panics the batcher thread on its first batch
/// dispatch; every queued request resolves (with `BatcherDown` — never
/// a hang), the supervisor respawns the batcher from the last-good
/// snapshot, and the resubmitted batch is still bit-identical to
/// unbatched forwards under f64 accumulation.
#[test]
fn batching_stays_bit_identical_after_a_supervised_restart() {
    let _guard = serial();
    let n = 8;
    let params = init_params(71);
    let xs = examples(n, 72);
    let reference: Vec<Tensor> = with_accum(Accum::F64, || {
        let m = model();
        xs.iter()
            .map(|x| m.infer(&params, x.reshape(&[1, IN])))
            .collect()
    });

    let cfg = ServeConfig::default()
        .max_batch(n)
        .max_wait(Duration::from_secs(30))
        .accum(Accum::F64);
    let server = Server::new(model(), params, vec![IN], cfg);

    // First full batch: the dispatch site panics the batcher thread.
    let armed = GlobalFault::arm(FaultSpec::parse("panic:serve_batch:1").unwrap());
    let doomed: Vec<_> = xs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap())
        .collect();
    for (i, p) in doomed.into_iter().enumerate() {
        match p.wait() {
            Err(ServeError::BatcherDown) => {}
            other => {
                panic!(
                    "request {i} must fail with BatcherDown after the batcher died, got {other:?}"
                )
            }
        }
    }
    drop(armed);

    // The supervisor joins the dead thread and respawns it.
    for _ in 0..400 {
        if server.stats().batcher_restarts >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.stats().batcher_restarts,
        1,
        "supervisor never respawned the batcher: {:?}",
        server.stats()
    );

    // The identical stream, resubmitted: fuses into one forward pass on
    // the respawned batcher and matches the unbatched reference bit for
    // bit — the restart changed nothing observable.
    let pendings: Vec<_> = xs
        .iter()
        .map(|x| server.submit(x.clone()).unwrap())
        .collect();
    let served: Vec<Tensor> = pendings.into_iter().map(|p| p.wait().unwrap()).collect();
    let stats = server.shutdown();
    assert_eq!(
        stats.batches, 1,
        "the panicked dispatch must not count as a served batch; the resubmission must fuse into one"
    );
    assert_eq!(stats.requests, 2 * n as u64);
    for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "row {i}: a supervised restart must not perturb bit-identity"
        );
    }
}

/// Contract 6: the chaos sweep. Every serve-path fault site crossed with
/// every injectable kind, against a hot-reloading [`fingerprint_params`]
/// server while a writer publishes new versions. For each of the 15
/// scenarios: every request resolves with a reply or a typed error (no
/// `Pending::wait` hangs), no reply fingerprints a torn or unpublished
/// snapshot, the supervisor restarts a panicked batcher or watcher,
/// injected I/O failures are counted, and the server answers again once
/// the fault is disarmed.
#[test]
fn chaos_sweep_keeps_every_serving_invariant() {
    let _guard = serial();
    for kind in ["io-fail", "panic", "delay"] {
        for site in [
            "serve_submit",
            "serve_batch",
            "serve_forward",
            "serve_reply",
            "serve_reload",
        ] {
            chaos_scenario(kind, site);
        }
    }
}

/// Outcome tally of one chaos scenario's client fleet.
#[derive(Default)]
struct ChaosTally {
    ok: u64,
    typed_err: u64,
    client_panics: u64,
}

fn chaos_scenario(kind: &str, site: &str) {
    const CLIENTS: usize = 3;
    const REQS_PER_CLIENT: usize = 15;
    // v1 is the serving snapshot; the writer publishes v2..=VERSIONS.
    const VERSIONS: u32 = 5;
    let tag = format!("[{kind}:{site}]");

    let dir = temp_dir(&format!("chaos-{kind}-{site}"));
    let ckpt = dir.join("weights.gndf");
    save_params(&fingerprint_params(1.0), &ckpt).unwrap();
    let cfg = ServeConfig::default()
        .max_batch(4)
        .max_wait(Duration::from_millis(1))
        .queue_cap(1024)
        .deadline(Duration::from_millis(200))
        .reload_poll(Duration::from_millis(5));
    let server = Arc::new(Server::with_hot_reload(
        fingerprint_model(),
        fingerprint_params(1.0),
        vec![IN],
        cfg,
        ckpt.clone(),
    ));

    // `serve_reload` fires only on a *changed* poll, so it gets a low
    // ordinal; the request-path sites let a little clean traffic through.
    let ordinal = if site == "serve_reload" { 2 } else { 3 };
    let spec = match kind {
        "delay" => format!("{kind}:{site}:{ordinal}:25"),
        _ => format!("{kind}:{site}:{ordinal}"),
    };
    let armed = GlobalFault::arm(FaultSpec::parse(&spec).unwrap());

    // Plain threads rather than a scope: a client wedged in
    // Pending::wait must fail the test at the bounded receive below, not
    // hang a scope join.
    let writer_ckpt = ckpt.clone();
    // lint:allow(spawn) — blocking writer thread: it sleeps between
    // checkpoint writes, which would stall the compute pool.
    let writer = std::thread::spawn(move || {
        for v in 2..=VERSIONS {
            std::thread::sleep(Duration::from_millis(25));
            save_params(&fingerprint_params(v as f32), &writer_ckpt).unwrap();
        }
    });
    let (tx, rx) = mpsc::channel::<ChaosTally>();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let server = Arc::clone(&server);
            let tx = tx.clone();
            // lint:allow(spawn) — clients park in Pending::wait, the code
            // path whose never-hang invariant is under test.
            std::thread::spawn(move || {
                let mut local = ChaosTally::default();
                for _ in 0..REQS_PER_CLIENT {
                    // An injected panic at serve_submit unwinds the
                    // submitting (client) thread; contain it so the tally
                    // stays exact.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        server.classify(Tensor::zeros(&[IN]))
                    }));
                    match outcome {
                        Ok(Ok(y)) => {
                            let row = y.as_slice();
                            let v = row[0];
                            assert!(
                                row.len() == OUT && row.iter().all(|&r| r == v),
                                "torn snapshot: non-constant fingerprint row {row:?}"
                            );
                            assert!(
                                (1..=VERSIONS).any(|k| v == k as f32),
                                "fingerprint version {v} was never published"
                            );
                            local.ok += 1;
                        }
                        Ok(Err(_typed)) => local.typed_err += 1,
                        Err(_panic) => local.client_panics += 1,
                    }
                }
                tx.send(local).ok();
            })
        })
        .collect();
    drop(tx);

    let mut tally = ChaosTally::default();
    for _ in 0..CLIENTS {
        match rx.recv_timeout(JOIN_DEADLINE) {
            Ok(local) => {
                tally.ok += local.ok;
                tally.typed_err += local.typed_err;
                tally.client_panics += local.client_panics;
            }
            // A client died on an assertion; its join below re-raises it.
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                panic!("{tag} client fleet wedged: a Pending::wait never resolved")
            }
        }
    }
    for client in clients {
        if let Err(payload) = client.join() {
            std::panic::resume_unwind(payload);
        }
    }
    writer.join().unwrap();

    assert_eq!(
        tally.ok + tally.typed_err + tally.client_panics,
        (CLIENTS * REQS_PER_CLIENT) as u64,
        "{tag} lost track of requests"
    );
    // Only the fault that fires on the submitter's own stack unwinds a
    // client.
    if (kind, site) != ("panic", "serve_submit") {
        assert_eq!(tally.client_panics, 0, "{tag} unexpected client panics");
    }

    // Bounded recovery: with the fault disarmed the service answers again
    // (the supervisor has respawned any dead batcher).
    drop(armed);
    let mut recovered = server.classify(Tensor::zeros(&[IN]));
    for _ in 1..8 {
        if recovered.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
        recovered = server.classify(Tensor::zeros(&[IN]));
    }
    let y = recovered.unwrap_or_else(|e| panic!("{tag} service did not recover: {e}"));
    assert_eq!(y.shape().dims(), &[1, OUT]);

    let stats = Arc::into_inner(server)
        .expect("every client thread has been joined")
        .shutdown();
    match (kind, site) {
        ("panic", "serve_batch" | "serve_forward" | "serve_reply") => assert!(
            stats.batcher_restarts >= 1,
            "{tag} batcher panic was not supervised: {stats:?}"
        ),
        ("panic", "serve_reload") => assert!(
            stats.watcher_restarts >= 1,
            "{tag} watcher panic was not contained: {stats:?}"
        ),
        ("io-fail", "serve_submit") => assert!(
            stats.shed >= 1,
            "{tag} injected admission failure never shed: {stats:?}"
        ),
        ("io-fail", "serve_reload") => assert!(
            stats.rejected_reloads >= 1,
            "{tag} injected reload failure never counted: {stats:?}"
        ),
        _ => {}
    }
    std::fs::remove_dir_all(&dir).ok();
}
