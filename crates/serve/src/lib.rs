//! Batched, fault-tolerant inference serving for trained ZK-GanDef
//! classifiers.
//!
//! The paper's defense is only useful if the hardened classifier can be
//! *deployed*; this crate provides the serving layer:
//!
//! * **Dynamic batching.** Incoming single-example requests accumulate in
//!   a queue until either [`ServeConfig::max_batch`] requests are waiting
//!   or the oldest request has aged past [`ServeConfig::max_wait`]; the
//!   whole batch then runs as **one** tape-free forward pass
//!   ([`Sequential::infer`]) over the shared `gandef_tensor::pool`
//!   workers. Batching amortizes the matmul/conv fixed costs, so
//!   sustained throughput is far higher than request-at-a-time serving.
//! * **Checkpoint hot-reload.** An optional watcher thread polls a GNDF
//!   weight file (`(len, mtime, fingerprint)` key — the content
//!   fingerprint catches a same-size, same-mtime rewrite that a pure
//!   metadata key misses) and, when it changes, loads it with the
//!   CRC-verifying [`load_params`]. Only
//!   a checkpoint that (a) passes the checksums and (b) is
//!   name/shape-compatible with the current weights is swapped in —
//!   atomically, as an `Arc<Params>` snapshot taken once per batch, so a
//!   batch never sees a torn or mixed set of weights. A bad file (torn
//!   write, wrong model, a version-1 file without checksums) is counted
//!   and the server keeps answering from the previous snapshot.
//! * **Deadlines.** A request carries the optional
//!   [`ServeConfig::deadline`]. The batcher *expires*
//!   an overdue request with [`ServeError::DeadlineExceeded`] instead of
//!   serving it late, so one slow batch cannot poison the latency of
//!   everything queued behind it.
//! * **Supervision.** The batcher thread runs under a supervisor: if it
//!   panics (a bug, or an injected `GANDEF_FAULT=panic:serve_batch:n`),
//!   every queued request fails fast with [`ServeError::BatcherDown`] —
//!   a [`Pending::wait`] can *never* hang — and the batcher is respawned
//!   from the last-good `Arc<Params>` snapshot, counted in
//!   [`ServeStats::batcher_restarts`]. The watcher survives its own
//!   panics the same way.
//! * **Load shedding.** Past [`ServeConfig::shed_threshold`] queued
//!   requests, [`Server::submit`] sheds with [`ServeError::Overloaded`],
//!   so requests that *are* accepted keep their latency SLO instead of
//!   everyone timing out together.
//! * **Fault injection.** The serve path exposes `gandef_nn::fault`
//!   sites — `serve_submit`, `serve_batch`, `serve_forward`,
//!   `serve_reply`, `serve_reload` — so the chaos sweep test in
//!   `tests/serve.rs` can prove the invariants above hold under injected
//!   panics, delays and I/O failures.
//! * **Deterministic option.** With [`ServeConfig::accum`] set to
//!   [`Accum::F64`], batched outputs are bit-identical to unbatched ones
//!   (row reductions become order-independent at f64), which is what the
//!   serving-semantics tests pin down — including across a supervised
//!   batcher restart. Note the accumulation override is applied *on the
//!   batcher thread* — thread-local `with_accum` in a client does not
//!   reach the forward pass.
//!
//! # Example
//!
//! ```
//! use gandef_nn::layer::{Act, Dense, Sequential};
//! use gandef_nn::Params;
//! use gandef_serve::{ServeConfig, Server};
//! use gandef_tensor::rng::Prng;
//! use gandef_tensor::Tensor;
//!
//! let mut rng = Prng::new(7);
//! let model = Sequential::new(vec![
//!     Box::new(Dense::new("fc", 4, 3, Some(Act::Tanh))),
//! ]);
//! let mut params = Params::default();
//! model.init(&mut params, &mut rng);
//!
//! let server = Server::new(model, params, vec![4], ServeConfig::default());
//! let y = server.classify(Tensor::zeros(&[4])).unwrap();
//! assert_eq!(y.shape().dims(), &[1, 3]);
//! let stats = server.shutdown();
//! assert_eq!(stats.requests, 1);
//! ```

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gandef_nn::fault::io_point;
use gandef_nn::layer::Sequential;
use gandef_nn::serialize::{checkpoint_fingerprint, load_params};
use gandef_nn::Params;
use gandef_tensor::accum::{with_accum, Accum};
use gandef_tensor::Tensor;

/// Locks a mutex, recovering the guard if a client thread panicked while
/// holding it (the protected state is plain data — a request queue or a
/// swapped-whole `Arc` — so it cannot be left logically torn).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning for the dynamic batcher and the hot-reload watcher.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum requests fused into one forward pass. A full batch is
    /// dispatched immediately. Default: 32.
    pub max_batch: usize,
    /// Deadline for a partial batch: once the *oldest* queued request has
    /// waited this long, whatever is queued is dispatched. Default: 2 ms.
    pub max_wait: Duration,
    /// Backpressure bound: [`Server::submit`] returns
    /// [`ServeError::QueueFull`] once this many requests are waiting.
    pub queue_cap: usize,
    /// Load-shedding bound: once this many requests are waiting,
    /// [`Server::submit`] sheds with [`ServeError::Overloaded`] instead
    /// of queueing deeper. `None` (default) disables shedding, leaving
    /// only the hard [`Self::queue_cap`].
    pub shed_threshold: Option<usize>,
    /// Per-request deadline, measured from the moment
    /// [`Server::submit`] accepts the request: a request the batcher has
    /// not *dispatched* by then is expired with
    /// [`ServeError::DeadlineExceeded`] instead of served late. `None`
    /// means requests wait indefinitely (the default).
    pub deadline: Option<Duration>,
    /// Accumulation mode forced on the batcher thread for every forward
    /// pass. `Some(Accum::F64)` makes batched output bit-identical to
    /// unbatched; `None` (default) inherits the process-global mode.
    pub accum: Option<Accum>,
    /// How often the hot-reload watcher polls the checkpoint file.
    pub reload_poll: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_cap: 4096,
            shed_threshold: None,
            deadline: None,
            accum: None,
            reload_poll: Duration::from_millis(50),
        }
    }
}

impl ServeConfig {
    /// Sets the maximum batch size (clamped to at least 1).
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Sets the partial-batch wait deadline.
    pub fn max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d;
        self
    }

    /// Sets the queue backpressure bound (clamped to at least 1).
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.queue_cap = n.max(1);
        self
    }

    /// Enables load shedding once `n` requests are queued (clamped to at
    /// least 1).
    pub fn shed_threshold(mut self, n: usize) -> Self {
        self.shed_threshold = Some(n.max(1));
        self
    }

    /// Sets the per-request deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Forces an accumulation mode on the batcher thread.
    pub fn accum(mut self, mode: Accum) -> Self {
        self.accum = Some(mode);
        self
    }

    /// Sets the hot-reload poll interval.
    pub fn reload_poll(mut self, d: Duration) -> Self {
        self.reload_poll = d;
        self
    }
}

/// Why a request could not be served.
///
/// [`Self::QueueFull`], [`Self::Overloaded`], [`Self::BatcherDown`] and
/// [`Self::DeadlineExceeded`] are transient: the same request may succeed
/// later. [`Self::BadShape`], [`Self::ShutDown`] and
/// [`Self::Disconnected`] are terminal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The submitted tensor's shape does not match the shape the server
    /// was built for.
    BadShape {
        /// Per-example dims the server expects.
        expected: Vec<usize>,
        /// Dims actually submitted.
        got: Vec<usize>,
    },
    /// The queue is at [`ServeConfig::queue_cap`]; retry later.
    QueueFull,
    /// The queue is past [`ServeConfig::shed_threshold`] and the server
    /// is shedding load to protect the latency of requests it has
    /// already accepted.
    Overloaded,
    /// The request waited past its deadline before the batcher dispatched
    /// it, and was expired rather than served late.
    DeadlineExceeded,
    /// The batcher thread died (panic) while this request was queued or
    /// in flight; the supervisor failed the request fast rather than
    /// leaving its [`Pending`] hanging. The batcher is being respawned —
    /// retry.
    BatcherDown,
    /// The server is shutting down and no longer accepts requests.
    ShutDown,
    /// The batcher dropped the response channel (server torn down while
    /// the request was in flight).
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadShape { expected, got } => {
                write!(f, "bad request shape: expected {expected:?}, got {got:?}")
            }
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::Overloaded => write!(f, "server is shedding load"),
            ServeError::DeadlineExceeded => write!(f, "request expired before dispatch"),
            ServeError::BatcherDown => write!(f, "batcher thread died; restarting"),
            ServeError::ShutDown => write!(f, "server is shut down"),
            ServeError::Disconnected => write!(f, "server dropped the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Counters describing what the server has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted by [`Server::submit`].
    pub requests: u64,
    /// Forward passes executed (each serves 1..=`max_batch` requests).
    pub batches: u64,
    /// Requests expired with [`ServeError::DeadlineExceeded`] instead of
    /// being served late.
    pub expired: u64,
    /// Requests shed with [`ServeError::Overloaded`] at submission.
    pub shed: u64,
    /// Times the supervisor respawned a panicked batcher thread.
    pub batcher_restarts: u64,
    /// Times the hot-reload watcher survived a panicked poll iteration.
    pub watcher_restarts: u64,
    /// Checkpoint reloads that passed verification and were swapped in.
    pub reloads: u64,
    /// Checkpoint files that changed but were rejected (failed CRC /
    /// unreadable / incompatible names or shapes).
    pub rejected_reloads: u64,
    /// Replies that found no receiver because the client dropped its
    /// [`Pending`] before the batch completed.
    pub dropped_replies: u64,
}

#[derive(Default)]
struct StatsInner {
    requests: AtomicU64,
    batches: AtomicU64,
    expired: AtomicU64,
    shed: AtomicU64,
    batcher_restarts: AtomicU64,
    watcher_restarts: AtomicU64,
    reloads: AtomicU64,
    rejected_reloads: AtomicU64,
    dropped_replies: AtomicU64,
}

struct Request {
    /// Always `[1, example_dims...]`.
    x: Tensor,
    /// Taken exactly once by [`Request::reply`]; the `Drop` impl uses
    /// whatever is left to guarantee the client's [`Pending`] resolves.
    tx: Option<mpsc::Sender<Result<Tensor, ServeError>>>,
    enqueued: Instant,
    /// Absolute expiry instant, if the request has a deadline.
    deadline: Option<Instant>,
}

impl Request {
    /// Sends the request's final outcome. Returns `false` if the client
    /// already dropped its [`Pending`].
    fn reply(mut self, outcome: Result<Tensor, ServeError>) -> bool {
        match self.tx.take() {
            Some(tx) => tx.send(outcome).is_ok(),
            None => true,
        }
    }
}

impl Drop for Request {
    /// The never-hang guarantee: a request dropped without an explicit
    /// [`Request::reply`] — a batcher thread unwinding mid-batch, a
    /// supervisor clearing the queue — resolves its [`Pending`] with
    /// [`ServeError::BatcherDown`] instead of leaving the client blocked
    /// forever.
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            // lint:allow(errprop) — the client may itself be gone; there
            // is nobody left to tell, and this is already the error path.
            let _ = tx.send(Err(ServeError::BatcherDown));
        }
    }
}

struct QueueInner {
    queue: VecDeque<Request>,
    shutdown: bool,
}

struct Shared {
    cfg: ServeConfig,
    model: Sequential,
    example_dims: Vec<usize>,
    queue: Mutex<QueueInner>,
    cv: Condvar,
    /// Weights snapshot; the batcher clones the `Arc` once per batch, so
    /// a hot-reload swap can never mix old and new weights inside one
    /// forward pass. Also the supervisor's "last-good" state: a respawned
    /// batcher picks up exactly the snapshot the previous one last saw.
    snapshot: Mutex<Arc<Params>>,
    stopping: AtomicBool,
    stats: StatsInner,
}

/// A response handle returned by [`Server::submit`].
#[derive(Debug)]
pub struct Pending {
    rx: mpsc::Receiver<Result<Tensor, ServeError>>,
}

impl Pending {
    /// Blocks until the request resolves: the `[1, out...]` output row on
    /// success, or a typed [`ServeError`] if the request expired
    /// ([`ServeError::DeadlineExceeded`]) or the batcher died while it
    /// was queued ([`ServeError::BatcherDown`]). An accepted request
    /// *always* resolves; this cannot hang on a dead batcher.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            Err(_) => Err(ServeError::Disconnected),
        }
    }
}

/// A running inference server: a supervised dynamic-batcher thread plus
/// an optional checkpoint-watcher thread over an immutable model
/// architecture.
pub struct Server {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts a server for `model` with weights `params`, accepting
    /// single examples of shape `example_dims` (e.g. `[1, 28, 28]`).
    pub fn new(
        model: Sequential,
        params: Params,
        example_dims: Vec<usize>,
        cfg: ServeConfig,
    ) -> Server {
        Self::start(model, params, example_dims, cfg, None)
    }

    /// Like [`Server::new`], but also watches `watch` (a GNDF file
    /// written by `gandef_nn::serialize::save_params`) and atomically
    /// swaps in new weights whenever a verified, compatible checkpoint
    /// appears there.
    pub fn with_hot_reload(
        model: Sequential,
        params: Params,
        example_dims: Vec<usize>,
        cfg: ServeConfig,
        watch: PathBuf,
    ) -> Server {
        Self::start(model, params, example_dims, cfg, Some(watch))
    }

    fn start(
        model: Sequential,
        params: Params,
        example_dims: Vec<usize>,
        cfg: ServeConfig,
        watch: Option<PathBuf>,
    ) -> Server {
        let shared = Arc::new(Shared {
            cfg,
            model,
            example_dims,
            queue: Mutex::new(QueueInner {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            snapshot: Mutex::new(Arc::new(params)),
            stopping: AtomicBool::new(false),
            stats: StatsInner::default(),
        });
        let sup = Arc::clone(&shared);
        // lint:allow(spawn) — long-lived service thread, not a compute
        // job: the supervisor parks in join() on the batcher it spawns
        // (which itself blocks on a condvar between batches); parking
        // either on a pool worker would wedge a compute slot for the life
        // of the server. The forward passes they dispatch run on the pool.
        let supervisor = std::thread::spawn(move || supervisor_loop(&sup));
        let watcher = watch.map(|path| {
            let w = Arc::clone(&shared);
            // lint:allow(spawn) — long-lived service thread that sleeps
            // between filesystem polls; parking it on a pool worker would
            // steal a compute slot for the life of the server.
            std::thread::spawn(move || watcher_loop(&w, &path))
        });
        Server {
            shared,
            supervisor: Some(supervisor),
            watcher,
        }
    }

    /// Enqueues one example (shape exactly `example_dims`) under
    /// [`ServeConfig::deadline`] and returns a [`Pending`] handle
    /// without blocking on the forward pass.
    pub fn submit(&self, x: Tensor) -> Result<Pending, ServeError> {
        if x.shape().dims() != self.shared.example_dims.as_slice() {
            return Err(ServeError::BadShape {
                expected: self.shared.example_dims.clone(),
                got: x.shape().dims().to_vec(),
            });
        }
        // Injected admission failure (`GANDEF_FAULT=io-fail:serve_submit:n`)
        // presents as load shedding: the cleanest transient refusal.
        if io_point("serve_submit").is_err() {
            // lint:allow(atomics) — monotonic stats counter, see stats().
            self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        let mut batched_dims = Vec::with_capacity(1 + self.shared.example_dims.len());
        batched_dims.push(1);
        batched_dims.extend_from_slice(&self.shared.example_dims);
        let x = x.reshape(&batched_dims);

        let (tx, rx) = mpsc::channel();
        {
            let mut inner = lock(&self.shared.queue);
            if inner.shutdown {
                return Err(ServeError::ShutDown);
            }
            if inner.queue.len() >= self.shared.cfg.queue_cap {
                return Err(ServeError::QueueFull);
            }
            if let Some(shed_at) = self.shared.cfg.shed_threshold {
                if inner.queue.len() >= shed_at {
                    drop(inner);
                    // lint:allow(atomics) — monotonic stats counter, see
                    // stats().
                    self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded);
                }
            }
            let now = Instant::now();
            inner.queue.push_back(Request {
                x,
                tx: Some(tx),
                enqueued: now,
                deadline: self.shared.cfg.deadline.map(|d| now + d),
            });
        }
        // lint:allow(atomics) — monotonic stats counter; stats() readers
        // tolerate a snapshot that misses in-flight increments.
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.cv.notify_all();
        Ok(Pending { rx })
    }

    /// Convenience wrapper: [`Server::submit`] then [`Pending::wait`].
    pub fn classify(&self, x: Tensor) -> Result<Tensor, ServeError> {
        self.submit(x)?.wait()
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServeStats {
        // lint:allow(atomics) — counters are independent monotonic
        // telemetry; the snapshot may be skewed across fields and only
        // becomes exact after shutdown() joins the service threads.
        ServeStats {
            requests: self.shared.stats.requests.load(Ordering::Relaxed),
            batches: self.shared.stats.batches.load(Ordering::Relaxed),
            expired: self.shared.stats.expired.load(Ordering::Relaxed),
            shed: self.shared.stats.shed.load(Ordering::Relaxed),
            batcher_restarts: self.shared.stats.batcher_restarts.load(Ordering::Relaxed),
            watcher_restarts: self.shared.stats.watcher_restarts.load(Ordering::Relaxed),
            reloads: self.shared.stats.reloads.load(Ordering::Relaxed),
            rejected_reloads: self.shared.stats.rejected_reloads.load(Ordering::Relaxed),
            dropped_replies: self.shared.stats.dropped_replies.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting new requests, drains everything already queued
    /// (every outstanding [`Pending`] still resolves — with a result, or
    /// with [`ServeError::BatcherDown`] if the batcher died during the
    /// drain), joins the service threads and returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // lint:allow(atomics) — shutdown flag; the queue-mutex write plus
        // condvar notify below publish it, the flag itself only needs to
        // become visible eventually to the pollers.
        self.shared.stopping.store(true, Ordering::Relaxed);
        lock(&self.shared.queue).shutdown = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.supervisor.take() {
            // lint:allow(errprop) — join's Err is the service thread's
            // panic payload; we are already stopping, and the panic has
            // been reported on stderr by the default hook.
            let _ = h.join();
        }
        if let Some(h) = self.watcher.take() {
            // lint:allow(errprop) — same as above: panic payload of a
            // thread that is shutting down either way.
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Keeps a batcher thread alive: respawns it after a panic (failing
/// everything queued fast so no [`Pending`] ever hangs), exits when the
/// batcher returns cleanly (shutdown drain complete).
fn supervisor_loop(shared: &Arc<Shared>) {
    loop {
        let b = Arc::clone(shared);
        // lint:allow(spawn) — the supervised service thread itself; see
        // the rationale at the supervisor spawn in Server::start.
        let batcher = std::thread::spawn(move || batcher_loop(&b));
        if batcher.join().is_ok() {
            // Clean exit: shutdown drain finished.
            return;
        }
        // The batcher panicked (a bug, or an injected
        // `GANDEF_FAULT=panic:serve_*` fault). Anything it had drained
        // into its batch already resolved via Request::drop during the
        // unwind; fail what is still queued the same way so clients see
        // a prompt error instead of a stalled queue.
        let stranded: Vec<Request> = lock(&shared.queue).queue.drain(..).collect();
        for req in stranded {
            req.reply(Err(ServeError::BatcherDown));
        }
        // lint:allow(atomics) — shutdown flag poll, see Server::stop.
        if shared.stopping.load(Ordering::Relaxed) {
            return;
        }
        // lint:allow(atomics) — monotonic stats counter, see stats().
        shared
            .stats
            .batcher_restarts
            .fetch_add(1, Ordering::Relaxed);
        eprintln!("gandef-serve: batcher thread panicked; respawning from the last-good snapshot");
    }
}

/// Runs the `site` fault hook; on an injected I/O failure, fails every
/// request in `batch` with [`ServeError::BatcherDown`] and returns
/// `None` so the batcher skips the batch and keeps serving. An
/// injected *panic* at the site unwinds instead, resolving the batch via
/// `Request::drop` and handing control to the supervisor.
fn fault_gate(shared: &Shared, site: &str, batch: Vec<Request>) -> Option<Vec<Request>> {
    if io_point(site).is_err() {
        for req in batch {
            if !req.reply(Err(ServeError::BatcherDown)) {
                // lint:allow(atomics) — monotonic stats counter, see
                // stats().
                shared.stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
            }
        }
        return None;
    }
    Some(batch)
}

/// Accumulates requests into batches and runs one forward pass per batch.
fn batcher_loop(shared: &Shared) {
    loop {
        let batch: Vec<Request> = {
            let mut inner = lock(&shared.queue);
            loop {
                // Expire overdue requests *before* deciding whether to
                // dispatch: a request past its deadline is never served
                // late, even during the shutdown drain.
                let now = Instant::now();
                let mut i = 0;
                while i < inner.queue.len() {
                    if inner.queue[i].deadline.is_some_and(|d| d <= now) {
                        if let Some(req) = inner.queue.remove(i) {
                            // lint:allow(atomics) — monotonic stats
                            // counter, see stats().
                            shared.stats.expired.fetch_add(1, Ordering::Relaxed);
                            if !req.reply(Err(ServeError::DeadlineExceeded)) {
                                // lint:allow(atomics) — monotonic stats
                                // counter, see stats().
                                shared.stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    } else {
                        i += 1;
                    }
                }
                if inner.queue.len() >= shared.cfg.max_batch || inner.shutdown {
                    break;
                }
                match inner.queue.front() {
                    None => {
                        inner = shared
                            .cv
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(front) => {
                        let age = front.enqueued.elapsed();
                        if age >= shared.cfg.max_wait {
                            break;
                        }
                        // Wake no later than the earliest deadline, so
                        // expiry stays prompt even under a long max_wait.
                        let mut wait = shared.cfg.max_wait - age;
                        if let Some(d) = inner.queue.iter().filter_map(|r| r.deadline).min() {
                            wait = wait.min(d.saturating_duration_since(now));
                        }
                        inner = shared
                            .cv
                            .wait_timeout(inner, wait)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
            }
            if inner.queue.is_empty() {
                if inner.shutdown {
                    // Shutdown with nothing left to drain: clean exit.
                    return;
                }
                // Everything queued expired; go back to waiting.
                continue;
            }
            let n = inner.queue.len().min(shared.cfg.max_batch);
            inner.queue.drain(..n).collect()
        };

        // Injected dispatch failure (`GANDEF_FAULT=<kind>:serve_batch:n`).
        let Some(batch) = fault_gate(shared, "serve_batch", batch) else {
            continue;
        };

        // One immutable snapshot per batch: a concurrent hot-reload swap
        // affects the *next* batch, never a forward pass in flight.
        let params: Arc<Params> = lock(&shared.snapshot).clone();
        let rows: Vec<&Tensor> = batch.iter().map(|r| &r.x).collect();
        let joined = Tensor::concat_rows(&rows);

        // Injected forward failure (`GANDEF_FAULT=<kind>:serve_forward:n`).
        let Some(batch) = fault_gate(shared, "serve_forward", batch) else {
            continue;
        };
        let out = match shared.cfg.accum {
            Some(mode) => with_accum(mode, || shared.model.infer(&params, joined)),
            None => shared.model.infer(&params, joined),
        };
        // lint:allow(atomics) — monotonic stats counter, see stats().
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);

        // Injected reply failure (`GANDEF_FAULT=<kind>:serve_reply:n`).
        let Some(batch) = fault_gate(shared, "serve_reply", batch) else {
            continue;
        };
        for (i, req) in batch.into_iter().enumerate() {
            // A client that gave up and dropped its Pending is fine —
            // but it is counted, not silently discarded.
            if !req.reply(Ok(out.slice_rows(i, i + 1))) {
                // lint:allow(atomics) — monotonic stats counter, see stats().
                shared.stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// True when `loaded` can replace `current` without changing the model's
/// architecture: same parameter names, same shapes.
fn compatible(current: &Params, loaded: &Params) -> bool {
    current.len() == loaded.len()
        && current.iter().all(|(name, t)| {
            loaded.contains(name) && loaded.get(name).shape().dims() == t.shape().dims()
        })
}

/// Change-detection key for the watched checkpoint file: length, mtime
/// *and* a content fingerprint. The fingerprint costs one file read per
/// poll but closes the staleness hole where a rewrite lands with the
/// same length inside the filesystem's mtime granularity — `(len,
/// mtime)` alone would never notice it. (It is FNV-1a, not CRC-32: see
/// [`checkpoint_fingerprint`] for why a CRC of these files is blind to
/// content.)
type FileKey = (u64, Option<std::time::SystemTime>, Option<u64>);

/// Computes the current [`FileKey`] of `path`, or `None` if it is gone.
fn file_key(path: &PathBuf) -> Option<FileKey> {
    std::fs::metadata(path).ok().map(|m| {
        (
            m.len(),
            m.modified().ok(),
            checkpoint_fingerprint(path).ok(),
        )
    })
}

/// One watcher poll: notices a changed checkpoint file and swaps verified,
/// compatible weights in.
fn poll_reload(shared: &Shared, path: &PathBuf, last_key: &mut Option<FileKey>) {
    let key = file_key(path);
    if key == *last_key || key.is_none() {
        *last_key = key;
        return;
    }
    *last_key = key;
    // Injected reload failure (`GANDEF_FAULT=<kind>:serve_reload:n`):
    // treated exactly like an unreadable checkpoint — counted, skipped,
    // and the server keeps answering from the previous snapshot.
    if io_point("serve_reload").is_err() {
        // lint:allow(atomics) — monotonic stats counter, see stats().
        shared
            .stats
            .rejected_reloads
            .fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "gandef-serve: rejected reload of {}: injected read failure; keeping previous weights",
            path.display()
        );
        return;
    }
    match load_params(path) {
        Ok(loaded) => {
            let current = lock(&shared.snapshot).clone();
            if compatible(&current, &loaded) {
                *lock(&shared.snapshot) = Arc::new(loaded);
                // lint:allow(atomics) — monotonic stats counter,
                // see stats().
                shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
            } else {
                // lint:allow(atomics) — monotonic stats counter,
                // see stats().
                shared
                    .stats
                    .rejected_reloads
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "gandef-serve: rejected reload of {}: incompatible parameter set",
                    path.display()
                );
            }
        }
        Err(e) => {
            // lint:allow(atomics) — monotonic stats counter,
            // see stats().
            shared
                .stats
                .rejected_reloads
                .fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "gandef-serve: rejected reload of {}: {e:?}; keeping previous weights",
                path.display()
            );
        }
    }
}

/// Polls the watched checkpoint on an interval, surviving panics in any
/// single poll (counted in [`ServeStats::watcher_restarts`]).
fn watcher_loop(shared: &Shared, path: &PathBuf) {
    let mut last_key = file_key(path);
    // lint:allow(atomics) — shutdown poll; a stale read only delays exit
    // by one ≤ 20 ms sleep slice.
    while !shared.stopping.load(Ordering::Relaxed) {
        // Sleep in short slices so shutdown is prompt even with a long
        // poll interval.
        let mut slept = Duration::ZERO;
        while slept < shared.cfg.reload_poll {
            // lint:allow(atomics) — same shutdown poll as above.
            if shared.stopping.load(Ordering::Relaxed) {
                return;
            }
            let step = (shared.cfg.reload_poll - slept).min(Duration::from_millis(20));
            std::thread::sleep(step);
            slept += step;
        }

        // A panic inside one poll (e.g. an injected
        // `GANDEF_FAULT=panic:serve_reload:n`) must not kill hot-reload
        // for the life of the server: contain it and keep polling.
        let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            poll_reload(shared, path, &mut last_key);
        }));
        if poll.is_err() {
            // lint:allow(atomics) — monotonic stats counter, see stats().
            shared
                .stats
                .watcher_restarts
                .fetch_add(1, Ordering::Relaxed);
            eprintln!("gandef-serve: watcher poll panicked; continuing from the next poll");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_nn::layer::{Act, Dense};
    use gandef_tensor::rng::Prng;

    fn toy(seed: u64) -> (Sequential, Params) {
        let model = Sequential::new(vec![
            Box::new(Dense::new("fc1", 6, 10, Some(Act::Tanh))) as Box<dyn gandef_nn::layer::Layer>,
            Box::new(Dense::new("fc2", 10, 4, None)),
        ]);
        let mut rng = Prng::new(seed);
        let mut params = Params::default();
        model.init(&mut params, &mut rng);
        (model, params)
    }

    #[test]
    fn single_request_round_trips() {
        let (model, params) = toy(1);
        let server = Server::new(model, params, vec![6], ServeConfig::default());
        let y = server.classify(Tensor::zeros(&[6])).unwrap();
        assert_eq!(y.shape().dims(), &[1, 4]);
        let stats = server.shutdown();
        assert_eq!(stats.requests, 1);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn bad_shape_is_rejected_up_front() {
        let (model, params) = toy(2);
        let server = Server::new(model, params, vec![6], ServeConfig::default());
        let err = server.submit(Tensor::zeros(&[5])).unwrap_err();
        assert_eq!(
            err,
            ServeError::BadShape {
                expected: vec![6],
                got: vec![5]
            }
        );
        assert_eq!(server.shutdown().requests, 0);
    }

    #[test]
    fn queue_cap_applies_backpressure() {
        let (model, params) = toy(3);
        // A batcher that can never fire on its own within the test window
        // keeps everything queued.
        let cfg = ServeConfig::default()
            .max_batch(1000)
            .max_wait(Duration::from_secs(60))
            .queue_cap(2);
        let server = Server::new(model, params, vec![6], cfg);
        let p1 = server.submit(Tensor::zeros(&[6])).unwrap();
        let p2 = server.submit(Tensor::zeros(&[6])).unwrap();
        assert_eq!(
            server.submit(Tensor::zeros(&[6])).unwrap_err(),
            ServeError::QueueFull
        );
        // Shutdown drains the two accepted requests.
        drop(server);
        assert!(p1.wait().is_ok());
        assert!(p2.wait().is_ok());
    }

    #[test]
    fn shed_threshold_rejects_with_overloaded() {
        let (model, params) = toy(5);
        let cfg = ServeConfig::default()
            .max_batch(1000)
            .max_wait(Duration::from_secs(60))
            .queue_cap(100)
            .shed_threshold(2);
        let server = Server::new(model, params, vec![6], cfg);
        let p1 = server.submit(Tensor::zeros(&[6])).unwrap();
        let p2 = server.submit(Tensor::zeros(&[6])).unwrap();
        let err = server.submit(Tensor::zeros(&[6])).unwrap_err();
        assert_eq!(err, ServeError::Overloaded);
        assert_eq!(server.stats().shed, 1);
        drop(server);
        assert!(p1.wait().is_ok());
        assert!(p2.wait().is_ok());
    }

    #[test]
    fn stale_requests_expire_instead_of_serving_late() {
        let (model, params) = toy(6);
        // The batcher needs max_batch requests or max_wait of queue age to
        // dispatch; a tiny deadline under a huge max_wait guarantees the
        // request expires first.
        let cfg = ServeConfig::default()
            .max_batch(1000)
            .max_wait(Duration::from_secs(60))
            .deadline(Duration::from_millis(5));
        let server = Server::new(model, params, vec![6], cfg);
        let pending = server.submit(Tensor::zeros(&[6])).unwrap();
        assert_eq!(pending.wait().unwrap_err(), ServeError::DeadlineExceeded);
        let stats = server.shutdown();
        assert_eq!(stats.expired, 1);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let (model, params) = toy(4);
        let mut server = Server::new(model, params, vec![6], ServeConfig::default());
        server.stop();
        assert_eq!(
            server.submit(Tensor::zeros(&[6])).unwrap_err(),
            ServeError::ShutDown
        );
    }

    #[test]
    fn retry_recovers_from_transient_shedding() {
        let (model, params) = toy(8);
        // Queue admission fails once (injected), then succeeds: a client
        // that tries again after the transient Overloaded is served.
        let spec = gandef_nn::fault::FaultSpec::parse("io-fail:serve_submit:1").unwrap();
        let server = Server::new(model, params, vec![6], ServeConfig::default());
        let (first, second) = gandef_nn::fault::with_fault(spec, || {
            (
                server.classify(Tensor::zeros(&[6])),
                server.classify(Tensor::zeros(&[6])),
            )
        });
        assert_eq!(first.unwrap_err(), ServeError::Overloaded);
        assert_eq!(second.unwrap().shape().dims(), &[1, 4]);
        let stats = server.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 1);
    }
}
