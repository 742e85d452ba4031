//! The serving loop: listener, connection handling, worker pool, drain.
//!
//! Shape (DESIGN.md §12): connection handlers parse JSON-lines requests
//! and answer cache hits inline; misses are enqueued to a work-stealing
//! worker pool (shared next-job queue, same discipline as
//! `bfly_bench::parallel_sweep` — any worker may take any job, and
//! determinism is guaranteed because results are a function of job
//! identity alone, never of worker identity). Worker panics are caught
//! and quarantine the *job*; deadlines and bounded retries classify the
//! outcome as a [`Verdict`] instead of tearing down the daemon; SIGTERM
//! (or an `{"op":"shutdown"}` request) drains: stop accepting, refuse new
//! submissions, finish everything queued, then exit.
//!
//! Two I/O front ends share everything below the protocol layer
//! (DESIGN.md §15): the legacy thread-per-connection path here, and the
//! poll(2)-driven reactor in [`crate::reactor`] (`IoMode::Reactor`),
//! which serves thousands of connections from one thread with pipelined
//! requests and a long-poll `wait` verb instead of client-side status
//! spinning. Replies are built by the same functions in both modes, so
//! result bytes on the wire are mode-independent.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::Cache;
use crate::job::{CacheMode, JobSpec, Verdict};
use crate::json::{self, push_json_str, Value};

/// The experiment registry the daemon serves. Implemented by
/// `bfly-bench` (which owns the simulation stack); the daemon is generic
/// so the serving layer stays dependency-free.
pub trait JobRunner: Send + Sync + 'static {
    /// Version of the simulation engine. Part of every cache key: bump it
    /// whenever simulated results can change, and every prior cache entry
    /// silently invalidates.
    fn engine_version(&self) -> u32;
    /// Experiment names this runner accepts.
    fn experiments(&self) -> Vec<&'static str>;
    /// Run one job to canonical result bytes (single-line JSON). Must be
    /// a pure function of the job spec: bytes for the same spec must be
    /// bit-identical on every call, on any thread.
    fn run(&self, spec: &JobSpec) -> Result<Vec<u8>, String>;
    /// [`JobRunner::run`] with a checkpoint transport. Runners that
    /// support resumable jobs load prior progress from `ckpt`, persist
    /// progress through it as they go, and report how much was actually
    /// reusable via [`Checkpointer::resumed`] — while still returning
    /// bytes bit-identical to an uninterrupted [`JobRunner::run`]. The
    /// default ignores the transport, so checkpointing is strictly
    /// opt-in per runner (and per experiment inside a runner).
    fn run_checkpointed(
        &self,
        spec: &JobSpec,
        ckpt: &mut dyn Checkpointer,
    ) -> Result<Vec<u8>, String> {
        let _ = ckpt;
        self.run(spec)
    }
}

/// Mid-job checkpoint transport handed to [`JobRunner::run_checkpointed`].
/// The daemon stays dependency-free: it moves opaque bytes (the runner
/// decides what they mean — `bfly-bench` stores versioned sweep-point
/// checkpoints) between the worker and the cache tiers under the job's
/// [`JobSpec::snap_key`].
pub trait Checkpointer: Send {
    /// Latest surviving checkpoint bytes for this job, if any.
    fn load(&mut self) -> Option<Vec<u8>>;
    /// Persist checkpoint bytes durably — they must survive the process
    /// dying right after this call returns.
    fn save(&mut self, bytes: &[u8]);
    /// Called by the runner with the number of work units it actually
    /// reused from a loaded checkpoint (0 for a mismatched or stale one).
    /// Drives the `resumed_from_snapshot` reply field.
    fn resumed(&mut self, units: u64) {
        let _ = units;
    }
}

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Listen {
    /// TCP, e.g. `127.0.0.1:4655` (`:0` for an ephemeral port).
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Which serving front end handles connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// One OS thread per connection (the legacy path). Simple, but
    /// each idle connection pins a thread, and blocking verbs occupy
    /// it for their whole wait.
    #[default]
    Threads,
    /// A single poll(2)-driven reactor thread multiplexing every
    /// connection (DESIGN.md §15). Unix only; falls back to `Threads`
    /// elsewhere.
    Reactor,
}

impl std::str::FromStr for IoMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(IoMode::Threads),
            "reactor" => Ok(IoMode::Reactor),
            other => Err(format!("unknown io mode `{other}` (threads|reactor)")),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Worker threads. 0 = available parallelism.
    pub workers: usize,
    /// Disk tier root (`FARM_CACHE/`); `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// In-memory LRU bound, bytes (across all shards).
    pub cache_bytes: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Deadline for jobs that don't set one, ms.
    pub default_deadline_ms: u64,
    /// Post-panic retry budget for jobs that don't set one.
    pub default_retries: u32,
    /// Backpressure: submissions beyond this many queued jobs are
    /// rejected with `queue full` instead of buffered without bound.
    pub max_queue: usize,
    /// Stable cluster identity, reported in `ping`/`stats` so a router
    /// can tell shards apart across restarts. `None` for standalone use.
    pub shard_id: Option<String>,
    /// Artificial delay before each disk-tier write, ms (fault-injection
    /// knob for drain/crash tests; 0 in production).
    pub disk_write_delay_ms: u64,
    /// Serving front end: thread-per-connection or the poll(2) reactor.
    pub io_mode: IoMode,
    /// Concurrent-connection cap. A dial past the cap gets a typed
    /// `busy` error and a clean close instead of (in thread mode)
    /// another parked OS thread.
    pub max_conns: usize,
    /// Terminal job records retained for `status`/`wait` after
    /// completion. Older terminal records are evicted (oldest first) so
    /// a daemon under sustained load holds bounded memory; querying an
    /// evicted id answers `no such job`.
    pub max_records: usize,
}

/// Default [`ServerConfig::max_records`]; the router's terminal-record
/// cap uses the same number.
pub const DEFAULT_MAX_RECORDS: usize = 1 << 16;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers: 0,
            cache_dir: Some(PathBuf::from("FARM_CACHE")),
            cache_bytes: 64 << 20,
            cache_shards: 16,
            default_deadline_ms: 300_000,
            default_retries: 1,
            max_queue: 1024,
            shard_id: None,
            disk_write_delay_ms: 0,
            io_mode: IoMode::default(),
            max_conns: 4096,
            max_records: DEFAULT_MAX_RECORDS,
        }
    }
}

pub(crate) enum State {
    Queued,
    Running,
    Done {
        bytes: Arc<Vec<u8>>,
        cached: bool,
        /// Computed from a mid-run checkpoint left by an earlier
        /// (killed or failed-over) attempt at the same job.
        resumed: bool,
        wall: Duration,
    },
    Failed {
        verdict: Verdict,
        error: String,
    },
}

impl State {
    pub(crate) fn terminal(&self) -> bool {
        matches!(self, State::Done { .. } | State::Failed { .. })
    }
}

pub(crate) struct JobRecord {
    spec: JobSpec,
    pub(crate) state: State,
    submitted: Instant,
    attempts: u32,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    quarantined: AtomicU64,
    deadline_expired: AtomicU64,
    /// Durable mid-job checkpoints written by workers.
    checkpoints: AtomicU64,
    /// Jobs completed from a prior attempt's checkpoint.
    resumed: AtomicU64,
}

pub(crate) struct Shared {
    runner: Arc<dyn JobRunner>,
    cache: Cache,
    pub(crate) jobs: Mutex<HashMap<u64, JobRecord>>,
    /// Signalled whenever any job reaches a terminal state (batch waiters).
    pub(crate) done_cv: Condvar,
    pub(crate) queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    pub(crate) running: AtomicU64,
    pub(crate) shutdown: AtomicBool,
    /// Abrupt-kill latch (chaos harness): like a crash, not a drain —
    /// queued jobs are abandoned and pending disk writes are discarded.
    pub(crate) killed: AtomicBool,
    counters: Counters,
    pub(crate) config: ServerConfig,
    /// Ids of terminal records in completion order; the eviction ring
    /// that bounds `jobs` under sustained load (`max_records`).
    terminal_ring: Mutex<VecDeque<u64>>,
    /// The reactor's self-pipe (reactor mode only). `finish` pokes it so
    /// a reactor parked in poll(2) learns that a job some connection is
    /// waiting on turned terminal. Owned here so any thread holding the
    /// `Shared` arc can wake without racing a closing fd.
    #[cfg(unix)]
    pub(crate) wake_pipe: Option<crate::reactor::WakePipe>,
}

/// A running daemon. Dropping the handle does not stop the server; call
/// [`ServerHandle::shutdown`] (or send `{"op":"shutdown"}`).
pub struct ServerHandle {
    /// The bound address: `host:port` for TCP (with the real ephemeral
    /// port), the socket path for Unix.
    pub addr: String,
    shared: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
}

/// Poke the reactor's wake pipe, if one is attached. A no-op in thread
/// mode (and on non-unix targets), where condvars already wake waiters.
fn reactor_wake(sh: &Shared) {
    #[cfg(unix)]
    if let Some(p) = &sh.wake_pipe {
        p.wake();
    }
    #[cfg(not(unix))]
    let _ = sh;
}

impl ServerHandle {
    /// Ask the daemon to drain (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        reactor_wake(&self.shared);
    }

    /// Drain and wait for the daemon to finish everything queued.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// Wait until the daemon exits (after a drain is requested by signal
    /// or protocol).
    pub fn join(mut self) {
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// Abrupt in-process kill — the chaos harness's stand-in for
    /// SIGKILL. Unlike a drain, queued jobs are abandoned, in-flight
    /// batches are cut, and pending disk-tier writes are *discarded*
    /// (exactly what a real crash loses). Idempotent.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cache.discard_pending();
        self.shared.queue_cv.notify_all();
        self.shared.done_cv.notify_all();
        reactor_wake(&self.shared);
    }

    /// Jobs currently queued or running (chaos-harness introspection).
    pub fn inflight(&self) -> usize {
        crate::locked(&self.shared.queue).len()
            + self.shared.running.load(Ordering::SeqCst) as usize
    }
}

/// SIGTERM/SIGINT latch. `std` cannot register signal handlers, but it
/// already links libc on every supported platform, so the daemon binary
/// declares the one symbol it needs. The handler only stores to an
/// atomic — the only thing that is async-signal-safe.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM/SIGINT has been received (after
/// [`install_signal_drain`]).
pub fn signal_drain_requested() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Route SIGTERM and SIGINT into a graceful drain. Unix only; a no-op
/// elsewhere (the protocol `shutdown` op still works everywhere).
pub fn install_signal_drain() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is declared with the correct libc prototype,
        // and the handler only performs an async-signal-safe atomic store.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

pub(crate) enum Incoming {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Incoming {
    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Incoming::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            Incoming::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Disable Nagle on TCP (replies are small write pairs; Nagle would
    /// stall each behind the peer's delayed ACK). No-op on Unix sockets.
    pub(crate) fn set_nodelay(&self) {
        if let Incoming::Tcp(s) = self {
            let _ = s.set_nodelay(true);
        }
    }

    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Incoming::Tcp(s) => s.as_raw_fd(),
            Incoming::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl std::io::Read for Incoming {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Incoming::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Incoming::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Incoming {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Incoming::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Incoming::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Incoming::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Incoming::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Incoming::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Incoming::Unix(s) => s.flush(),
        }
    }
}

pub(crate) enum Acceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Acceptor {
    pub(crate) fn accept(&self) -> std::io::Result<Incoming> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Incoming::Tcp(s)),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Incoming::Unix(s)),
        }
    }

    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Acceptor::Tcp(l) => l.as_raw_fd(),
            Acceptor::Unix(l, _) => l.as_raw_fd(),
        }
    }
}

/// Boot a daemon: bind, spawn the worker pool and the listener thread,
/// return immediately. The handle's `addr` field carries the actual
/// bound address (useful with `:0`).
pub fn spawn(config: ServerConfig, runner: Arc<dyn JobRunner>) -> std::io::Result<ServerHandle> {
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
    } else {
        config.workers
    };
    let (acceptor, addr) = match &config.listen {
        Listen::Tcp(a) => {
            let l = TcpListener::bind(a)?;
            l.set_nonblocking(true)?;
            let addr = l.local_addr()?.to_string();
            (Acceptor::Tcp(l), addr)
        }
        #[cfg(unix)]
        Listen::Unix(p) => {
            // A stale socket file from a killed daemon would fail the bind.
            let _ = std::fs::remove_file(p);
            let l = UnixListener::bind(p)?;
            l.set_nonblocking(true)?;
            (Acceptor::Unix(l, p.clone()), p.display().to_string())
        }
    };

    let cache = Cache::new(
        config.cache_dir.clone(),
        config.cache_shards,
        config.cache_bytes,
    );
    cache.set_write_delay_ms(config.disk_write_delay_ms);
    let shared = Arc::new(Shared {
        runner,
        cache,
        jobs: Mutex::new(HashMap::new()),
        done_cv: Condvar::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        next_id: AtomicU64::new(1),
        running: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        counters: Counters::default(),
        terminal_ring: Mutex::new(VecDeque::new()),
        #[cfg(unix)]
        wake_pipe: if config.io_mode == IoMode::Reactor {
            crate::reactor::WakePipe::new()
        } else {
            None
        },
        config,
    });

    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("farm-worker-{i}"))
                .spawn(move || worker_loop(&sh))
                .expect("spawn worker")
        })
        .collect();

    let sh = Arc::clone(&shared);
    let listener = std::thread::Builder::new()
        .name("farm-listener".into())
        .spawn(move || {
            #[cfg(unix)]
            match sh.config.io_mode {
                IoMode::Reactor => crate::reactor::serve(&sh, &acceptor),
                IoMode::Threads => listener_loop(&sh, &acceptor),
            }
            #[cfg(not(unix))]
            listener_loop(&sh, &acceptor);
            drain(&sh);
            for w in worker_handles {
                let _ = w.join();
            }
            #[cfg(unix)]
            if let Acceptor::Unix(_, path) = &acceptor {
                let _ = std::fs::remove_file(path);
            }
        })
        .expect("spawn listener");

    Ok(ServerHandle {
        addr,
        shared,
        listener: Some(listener),
    })
}

/// The typed over-capacity refusal: `busy` is a distinct field (not just
/// error-string prose) so clients and the router classify it as
/// transient backpressure, like `queue full`.
pub(crate) fn busy_reply(max_conns: usize) -> String {
    format!(
        "{{\"ok\":false,\"busy\":true,\"error\":\"busy: at connection limit ({max_conns}); retry later\"}}"
    )
}

/// Refuse an over-cap dial: one typed error line, then a clean close.
/// Best-effort — the reply fits any fresh socket's send buffer.
pub(crate) fn refuse_busy(mut stream: Incoming, max_conns: usize) {
    let _ = stream.set_nonblocking(false);
    stream.set_nodelay();
    let mut line = busy_reply(max_conns);
    line.push('\n');
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

pub(crate) fn listener_loop(sh: &Arc<Shared>, acceptor: &Acceptor) {
    // Live-connection gauge: the fix for the accept-loop thread leak.
    // Idle connections used to accumulate one parked OS thread each,
    // without bound; past `max_conns` a dial now gets a typed `busy`
    // error and a clean close instead of a thread.
    let live = Arc::new(AtomicUsize::new(0));
    loop {
        if sh.shutdown.load(Ordering::SeqCst) || signal_drain_requested() {
            sh.shutdown.store(true, Ordering::SeqCst);
            return;
        }
        match acceptor.accept() {
            Ok(stream) => {
                if live.load(Ordering::SeqCst) >= sh.config.max_conns {
                    refuse_busy(stream, sh.config.max_conns);
                    continue;
                }
                live.fetch_add(1, Ordering::SeqCst);
                let sh = Arc::clone(sh);
                let live_in = Arc::clone(&live);
                let spawned =
                    std::thread::Builder::new()
                        .name("farm-conn".into())
                        .spawn(move || {
                            match stream {
                                Incoming::Tcp(s) => {
                                    let _ = s.set_nonblocking(false);
                                    // Replies are small write pairs (line + '\n');
                                    // Nagle would stall the second write behind
                                    // the peer's delayed ACK on every turn.
                                    let _ = s.set_nodelay(true);
                                    connection_loop(&sh, s);
                                }
                                #[cfg(unix)]
                                Incoming::Unix(s) => {
                                    let _ = s.set_nonblocking(false);
                                    connection_loop(&sh, s);
                                }
                            }
                            live_in.fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    // Thread creation failed (fd/thread exhaustion):
                    // the closure never ran, so undo the reservation.
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // lint: allow(blocking): accept-loop backoff on the thread-per-conn listener; the poll reactor serves with its own accept path
                std::thread::sleep(Duration::from_millis(25));
            }
            // lint: allow(blocking): same accept-error backoff as the WouldBlock arm above
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Finish everything queued, then release the workers. A graceful drain
/// also flushes the cache's write-behind queue so a drained shard
/// rejoins with a complete warm disk tier (an abrupt kill does not —
/// pending writes are lost exactly as in a real crash).
fn drain(sh: &Arc<Shared>) {
    loop {
        if sh.killed.load(Ordering::SeqCst) {
            sh.queue_cv.notify_all();
            return;
        }
        let queued = crate::locked(&sh.queue).len();
        if queued == 0 && sh.running.load(Ordering::SeqCst) == 0 {
            break;
        }
        // lint: allow(blocking): graceful-drain poll during shutdown; the reactor has already stopped dispatching by the time drain runs
        std::thread::sleep(Duration::from_millis(10));
    }
    sh.cache.flush();
    // Workers wait on the queue condvar with a timeout, so notifying is
    // an optimization, not a correctness requirement.
    sh.queue_cv.notify_all();
}

fn worker_loop(sh: &Arc<Shared>) {
    loop {
        let id = {
            let mut q = crate::locked(&sh.queue);
            loop {
                if sh.killed.load(Ordering::SeqCst) {
                    // Crash semantics: abandon the queue, exit now.
                    break None;
                }
                if let Some(id) = q.pop_front() {
                    break Some(id);
                }
                if sh.shutdown.load(Ordering::SeqCst) || signal_drain_requested() {
                    break None;
                }
                // Same poison policy as `crate::locked`: a panicking
                // holder was already quarantined; keep serving.
                let (guard, _) = sh
                    .queue_cv
                    // lint: allow(blocking): worker_loop runs on the spawned worker threads; the spawn call severs it from the reactor at runtime
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                q = guard;
            }
        };
        match id {
            Some(id) => {
                sh.running.fetch_add(1, Ordering::SeqCst);
                execute(sh, id);
                sh.running.fetch_sub(1, Ordering::SeqCst);
            }
            None => return,
        }
    }
}

/// Cache-backed checkpoint transport: snapshots live in the same
/// mem+disk tiers as results, under the job's `#snap` key. Saves are
/// flushed through the write-behind queue before returning, so a
/// checkpoint the runner believes written genuinely survives an abrupt
/// kill (which discards pending writes — exactly what a crash loses).
struct CacheCheckpointer<'a> {
    cache: &'a Cache,
    key: String,
    counters: &'a Counters,
    resumed_units: u64,
}

impl Checkpointer for CacheCheckpointer<'_> {
    fn load(&mut self) -> Option<Vec<u8>> {
        self.cache.get(&self.key)
    }

    fn save(&mut self, bytes: &[u8]) {
        self.cache.put(&self.key, bytes.to_vec());
        self.cache.flush();
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
    }

    fn resumed(&mut self, units: u64) {
        self.resumed_units += units;
    }
}

/// Run one queued job to a terminal state.
fn execute(sh: &Arc<Shared>, id: u64) {
    let (spec, submitted) = {
        let mut jobs = crate::locked(&sh.jobs);
        let Some(rec) = jobs.get_mut(&id) else { return };
        rec.state = State::Running;
        (rec.spec.clone(), rec.submitted)
    };
    let deadline = Duration::from_millis(spec.deadline_ms.unwrap_or(sh.config.default_deadline_ms));
    let retries = spec.retries.unwrap_or(sh.config.default_retries);
    let key = spec.key(sh.runner.engine_version());

    // A job that sat in the queue past its deadline never starts: the
    // client has given up, and running it would only delay live jobs.
    if submitted.elapsed() > deadline {
        finish(
            sh,
            id,
            State::Failed {
                verdict: Verdict::DeadlineExpired,
                error: format!("deadline ({} ms) passed while queued", deadline.as_millis()),
            },
        );
        return;
    }

    // Serve from cache (workers re-check: an identical job may have been
    // computed since this one was enqueued).
    if spec.cache == CacheMode::Use {
        if let Some(bytes) = sh.cache.get(&key) {
            finish(
                sh,
                id,
                State::Done {
                    bytes: Arc::new(bytes),
                    cached: true,
                    resumed: false,
                    wall: Duration::ZERO,
                },
            );
            return;
        }
    }

    // Mid-run checkpoints ride the cache tiers under the `#snap` key.
    // Only `use`-mode jobs get the transport: `bypass` must not touch the
    // cache at all (it is the bit-identity control), and `refresh`
    // promises a cold recomputation. The transport outlives the retry
    // loop, so an attempt that panics mid-sweep resumes from its own
    // checkpoints on the next attempt.
    let checkpointed = spec.cache == CacheMode::Use;
    let mut ckpt = CacheCheckpointer {
        cache: &sh.cache,
        key: spec.snap_key(sh.runner.engine_version()),
        counters: &sh.counters,
        resumed_units: 0,
    };

    let mut attempt = 0u32;
    loop {
        attempt += 1;
        {
            let mut jobs = crate::locked(&sh.jobs);
            if let Some(rec) = jobs.get_mut(&id) {
                rec.attempts = attempt;
            }
        }
        let t0 = Instant::now();
        // Quarantine discipline: a panicking experiment must not take the
        // worker (or the daemon) down. `AssertUnwindSafe` is sound here
        // because a failed attempt shares no state with the next one —
        // the runner is a pure function of the spec. NOTE: this protects
        // builds with unwinding panics; the release profile uses
        // `panic = "abort"`, where a panic still ends the process — the
        // registry therefore validates jobs instead of panicking on them.
        let outcome = if checkpointed {
            catch_unwind(AssertUnwindSafe(|| {
                sh.runner.run_checkpointed(&spec, &mut ckpt)
            }))
        } else {
            catch_unwind(AssertUnwindSafe(|| sh.runner.run(&spec)))
        };
        let wall = t0.elapsed();
        match outcome {
            Ok(Ok(bytes)) => {
                if spec.cache != CacheMode::Bypass {
                    sh.cache.put(&key, bytes.clone());
                }
                finish(
                    sh,
                    id,
                    State::Done {
                        bytes: Arc::new(bytes),
                        cached: false,
                        resumed: ckpt.resumed_units > 0,
                        wall,
                    },
                );
                return;
            }
            Ok(Err(error)) => {
                // A classified rejection is deterministic; retrying would
                // reproduce it.
                finish(
                    sh,
                    id,
                    State::Failed {
                        verdict: Verdict::Failed,
                        error,
                    },
                );
                return;
            }
            Err(panic) => {
                let msg = panic_message(&panic);
                if attempt > retries {
                    finish(
                        sh,
                        id,
                        State::Failed {
                            verdict: Verdict::Quarantined,
                            error: format!("panicked on all {attempt} attempts: {msg}"),
                        },
                    );
                    return;
                }
                if submitted.elapsed() > deadline {
                    finish(
                        sh,
                        id,
                        State::Failed {
                            verdict: Verdict::DeadlineExpired,
                            error: format!("deadline passed after panic: {msg}"),
                        },
                    );
                    return;
                }
            }
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn finish(sh: &Arc<Shared>, id: u64, state: State) {
    match &state {
        State::Done { resumed, .. } => {
            if *resumed {
                sh.counters.resumed.fetch_add(1, Ordering::Relaxed);
            }
            sh.counters.done.fetch_add(1, Ordering::Relaxed)
        }
        State::Failed { verdict, .. } => match verdict {
            Verdict::Quarantined => sh.counters.quarantined.fetch_add(1, Ordering::Relaxed),
            Verdict::DeadlineExpired => {
                sh.counters.deadline_expired.fetch_add(1, Ordering::Relaxed)
            }
            _ => sh.counters.failed.fetch_add(1, Ordering::Relaxed),
        },
        _ => 0,
    };
    {
        let mut jobs = crate::locked(&sh.jobs);
        if let Some(rec) = jobs.get_mut(&id) {
            rec.state = state;
        }
        record_terminal(sh, &mut jobs, id);
    }
    sh.done_cv.notify_all();
    reactor_wake(sh);
}

/// Append `id` to the terminal ring and evict the oldest terminal
/// records past `max_records`. Only terminal ids enter the ring, so an
/// evicted record is always answerable history, never live state; the
/// queued/running population is separately bounded by `max_queue` and
/// the worker count.
fn record_terminal(sh: &Shared, jobs: &mut HashMap<u64, JobRecord>, id: u64) {
    let mut ring = crate::locked(&sh.terminal_ring);
    ring.push_back(id);
    while ring.len() > sh.config.max_records {
        if let Some(old) = ring.pop_front() {
            jobs.remove(&old);
        }
    }
}

fn connection_loop<S: std::io::Read + Write>(sh: &Arc<Shared>, stream: S) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if sh.killed.load(Ordering::SeqCst) {
            // A killed daemon answers nothing — cut the connection.
            return;
        }
        let reply = handle_request(sh, trimmed);
        let w = reader.get_mut();
        if w.write_all(reply.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
            return;
        }
        let _ = w.flush();
        if sh.shutdown.load(Ordering::SeqCst) && trimmed.contains("\"shutdown\"") {
            return;
        }
    }
}

/// The protocol's error reply line, `{"ok":false,"error":"<msg>"}`
/// (shared with the router, which must answer in the same shape).
pub fn error_reply(msg: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    push_json_str(&mut out, msg);
    out.push('}');
    out
}

fn handle_request(sh: &Arc<Shared>, line: &str) -> String {
    let v = match json::parse(line) {
        Ok(v) => v,
        Err((at, msg)) => return error_reply(&format!("bad JSON at byte {at}: {msg}")),
    };
    handle_parsed(sh, &v, line)
}

/// Dispatch one parsed request. `line` is the raw request (needed by
/// `cache_push`, which splices its `result` bytes verbatim). Both I/O
/// front ends route through here; the reactor intercepts the blocking
/// verbs (`batch`, `wait`) before calling it and parks the connection
/// instead of a thread.
pub(crate) fn handle_parsed(sh: &Arc<Shared>, v: &Value, line: &str) -> String {
    match v.get("op").and_then(Value::as_str) {
        Some("ping") => {
            let mut out = format!(
                "{{\"ok\":true,\"pong\":true,\"engine_version\":{}",
                sh.runner.engine_version()
            );
            if let Some(id) = &sh.config.shard_id {
                out.push_str(",\"shard_id\":");
                push_json_str(&mut out, id);
            }
            out.push('}');
            out
        }
        Some("submit") => match JobSpec::from_value(v) {
            Ok(spec) => match admit(sh, spec) {
                Ok(id) => status_reply(sh, id),
                Err(e) => error_reply(&e),
            },
            Err(e) => error_reply(&e),
        },
        Some("status") => match v.get("id").and_then(Value::as_u64) {
            Some(id) => status_reply(sh, id),
            None => error_reply("status needs an integer `id`"),
        },
        Some("batch") => {
            let Some(jobs) = v.get("jobs").and_then(Value::as_arr) else {
                return error_reply("batch needs a `jobs` array");
            };
            handle_batch(sh, jobs)
        }
        Some("wait") => handle_wait(sh, v),
        Some("stats") => stats_reply(sh),
        // Cluster verbs (DESIGN.md §14): the warm-rebalance surface. A
        // router walks `cache_keys`, copies entries out with `cache_pull`,
        // and seeds replicas with `cache_push`.
        Some("cache_keys") => {
            let mut out = String::from("{\"ok\":true,\"keys\":[");
            for (i, k) in sh.cache.keys().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
            }
            out.push_str("]}");
            out
        }
        Some("cache_pull") => match v.get("key").and_then(Value::as_str) {
            Some(key) if valid_cache_key(key) => match sh.cache.get(key) {
                // Result bytes are canonical single-line JSON; splice them
                // verbatim so a pulled entry stays bit-identical.
                Some(bytes) => format!(
                    "{{\"ok\":true,\"found\":true,\"result\":{}}}",
                    String::from_utf8_lossy(&bytes)
                ),
                None => "{\"ok\":true,\"found\":false}".into(),
            },
            _ => error_reply("cache_pull needs a 32-hex `key`"),
        },
        Some("cache_push") => cache_push(sh, v, line),
        Some("shutdown") => {
            sh.shutdown.store(true, Ordering::SeqCst);
            "{\"ok\":true,\"draining\":true}".into()
        }
        Some(other) => error_reply(&format!("unknown op `{other}`")),
        None => error_reply("request needs a string `op`"),
    }
}

fn valid_cache_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Store a pulled entry under its content key (`cache_push`). The result
/// bytes are extracted as the raw `"result":` suffix of the request line
/// rather than re-serialized through our JSON model: the cluster's
/// bit-identity contract requires the stored bytes to be exactly the
/// bytes the origin shard computed, and re-dumping could re-order keys.
/// The router always sends `result` as the final field, so the suffix is
/// well-defined; we still parse the line first to validate it.
fn cache_push(sh: &Arc<Shared>, v: &Value, line: &str) -> String {
    let Some(key) = v.get("key").and_then(Value::as_str) else {
        return error_reply("cache_push needs a 32-hex `key`");
    };
    if !valid_cache_key(key) {
        return error_reply("cache_push needs a 32-hex `key`");
    }
    if v.get("result").is_none() {
        return error_reply("cache_push needs a `result` object");
    }
    // First occurrence is the field marker: `op` and `key` are fixed
    // format and cannot contain this substring.
    let Some(at) = line.find("\"result\":") else {
        return error_reply("cache_push needs a `result` field");
    };
    let raw = line[at + "\"result\":".len()..].trim_end();
    let Some(raw) = raw.strip_suffix('}') else {
        return error_reply("cache_push: `result` must be the final field");
    };
    sh.cache.put(key, raw.as_bytes().to_vec());
    "{\"ok\":true,\"stored\":true}".into()
}

/// Admit one job: inline cache fast path, else enqueue. Returns the id.
fn admit(sh: &Arc<Shared>, spec: JobSpec) -> Result<u64, String> {
    if sh.shutdown.load(Ordering::SeqCst) || signal_drain_requested() {
        return Err("draining: no new jobs accepted".into());
    }
    if !sh.runner.experiments().contains(&spec.exp.as_str()) {
        return Err(format!("unknown experiment `{}`", spec.exp));
    }
    let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
    sh.counters.submitted.fetch_add(1, Ordering::Relaxed);

    // Warm fast path: a `use`-mode hit never touches the queue — the
    // connection thread answers from the cache shard directly. This is
    // what makes warm batches orders of magnitude faster than cold ones.
    if spec.cache == CacheMode::Use {
        let key = spec.key(sh.runner.engine_version());
        if let Some(bytes) = sh.cache.get(&key) {
            sh.counters.done.fetch_add(1, Ordering::Relaxed);
            let mut jobs = crate::locked(&sh.jobs);
            jobs.insert(
                id,
                JobRecord {
                    spec,
                    state: State::Done {
                        bytes: Arc::new(bytes),
                        cached: true,
                        resumed: false,
                        wall: Duration::ZERO,
                    },
                    submitted: Instant::now(),
                    attempts: 0,
                },
            );
            record_terminal(sh, &mut jobs, id);
            return Ok(id);
        }
    }

    {
        let q = crate::locked(&sh.queue);
        if q.len() >= sh.config.max_queue {
            return Err(format!(
                "queue full ({} jobs); backpressure: retry later",
                q.len()
            ));
        }
    }
    crate::locked(&sh.jobs).insert(
        id,
        JobRecord {
            spec,
            state: State::Queued,
            submitted: Instant::now(),
            attempts: 0,
        },
    );
    crate::locked(&sh.queue).push_back(id);
    sh.queue_cv.notify_one();
    Ok(id)
}

/// Admit every job of a batch, preserving order. Shared between the
/// blocking batch handler below and the reactor's parked batches.
pub(crate) fn batch_admit(sh: &Arc<Shared>, jobs: &[Value]) -> Vec<Result<u64, String>> {
    let mut ids: Vec<Result<u64, String>> = Vec::with_capacity(jobs.len());
    for j in jobs {
        match JobSpec::from_value(j) {
            Ok(spec) => ids.push(admit(sh, spec)),
            Err(e) => ids.push(Err(e)),
        }
    }
    ids
}

/// True once every admitted id is terminal (a rejected slot, or an id
/// already evicted from the record ring, counts as terminal).
pub(crate) fn batch_done(jobs: &HashMap<u64, JobRecord>, ids: &[Result<u64, String>]) -> bool {
    ids.iter().all(|r| match r {
        Ok(id) => jobs.get(id).map(|r| r.state.terminal()).unwrap_or(true),
        Err(_) => true,
    })
}

/// The batch response envelope. Built identically by both I/O front
/// ends, so batch replies are mode-independent (modulo `wall_ms`, which
/// is wall time by definition).
pub(crate) fn batch_reply(
    jobs: &HashMap<u64, JobRecord>,
    ids: &[Result<u64, String>],
    wall: Duration,
) -> String {
    let mut hits = 0u64;
    for id in ids.iter().flatten() {
        if let Some(State::Done { cached: true, .. }) = jobs.get(id).map(|r| &r.state) {
            hits += 1;
        }
    }
    let mut out = String::from("{\"ok\":true,");
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "\"jobs\":{},\"hits\":{},\"wall_ms\":{:.3},\"results\":[",
            ids.len(),
            hits,
            wall.as_secs_f64() * 1e3
        ),
    );
    for (i, r) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match r {
            Ok(id) => out.push_str(&status_object(jobs, *id)),
            Err(e) => out.push_str(&error_reply(e)),
        }
    }
    out.push_str("]}");
    out
}

fn handle_batch(sh: &Arc<Shared>, jobs: &[Value]) -> String {
    let t0 = Instant::now();
    let ids = batch_admit(sh, jobs);
    // Wait for every admitted job to reach a terminal state.
    let guard = {
        let mut guard = crate::locked(&sh.jobs);
        loop {
            if sh.killed.load(Ordering::SeqCst) {
                // Crash semantics: the batch never completes.
                return error_reply("killed");
            }
            if batch_done(&guard, &ids) {
                break;
            }
            let (g, _) = sh
                .done_cv
                // lint: allow(blocking): thread-per-conn path only — the reactor matches op=="batch" before its handle_parsed fallback and parks the connection instead
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard = g;
        }
        guard
    };
    batch_reply(&guard, &ids, t0.elapsed())
}

/// Most ids a single `wait` may watch: bounds reply size and the
/// per-wakeup completion scan.
pub(crate) const MAX_WAIT_IDS: usize = 4096;
const DEFAULT_WAIT_TIMEOUT_MS: u64 = 30_000;
pub(crate) const MAX_WAIT_TIMEOUT_MS: u64 = 600_000;

/// Parse a `wait` request: `{"op":"wait","ids":[..],"timeout_ms":N}`.
/// Returns the watched ids and the clamped timeout. The router parses
/// its `wait` verb with this too, so the limits live here only.
pub fn parse_wait(v: &Value) -> Result<(Vec<u64>, u64), String> {
    let Some(ids_v) = v.get("ids").and_then(Value::as_arr) else {
        return Err("wait needs an `ids` array".into());
    };
    if ids_v.len() > MAX_WAIT_IDS {
        return Err(format!("wait supports at most {MAX_WAIT_IDS} ids"));
    }
    let mut ids = Vec::with_capacity(ids_v.len());
    for x in ids_v {
        match x.as_u64() {
            Some(id) => ids.push(id),
            None => return Err("wait ids must be unsigned integers".into()),
        }
    }
    let timeout_ms = v
        .get("timeout_ms")
        .and_then(Value::as_u64)
        .unwrap_or(DEFAULT_WAIT_TIMEOUT_MS)
        .min(MAX_WAIT_TIMEOUT_MS);
    Ok((ids, timeout_ms))
}

/// True once every watched id is terminal; unknown (or already evicted)
/// ids count as terminal so a waiter can never hang on history.
pub(crate) fn wait_done(jobs: &HashMap<u64, JobRecord>, ids: &[u64]) -> bool {
    ids.iter()
        .all(|id| jobs.get(id).map(|r| r.state.terminal()).unwrap_or(true))
}

/// The `wait` response: `complete` says whether every id turned
/// terminal (false = the timeout elapsed first); `results` carries a
/// status object per id, in request order, either way.
pub(crate) fn wait_reply(jobs: &HashMap<u64, JobRecord>, ids: &[u64], complete: bool) -> String {
    let mut out = format!("{{\"ok\":true,\"complete\":{complete},\"results\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&status_object(jobs, *id));
    }
    out.push_str("]}");
    out
}

/// The long-poll verb, thread-mode flavor: block this connection's
/// thread on the done condvar until every watched id is terminal or the
/// timeout lapses. (The reactor parks the connection instead and arms a
/// timer-wheel deadline — no thread is held either way on the reactor
/// path.) This is what replaces the client-side 15 ms status-poll loop:
/// completion notification latency becomes a condvar wakeup, not a poll
/// quantum.
fn handle_wait(sh: &Arc<Shared>, v: &Value) -> String {
    let (ids, timeout_ms) = match parse_wait(v) {
        Ok(p) => p,
        Err(e) => return error_reply(&e),
    };
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut guard = crate::locked(&sh.jobs);
    loop {
        if sh.killed.load(Ordering::SeqCst) {
            return error_reply("killed");
        }
        if wait_done(&guard, &ids) {
            return wait_reply(&guard, &ids, true);
        }
        let now = Instant::now();
        if now >= deadline {
            return wait_reply(&guard, &ids, false);
        }
        let step = (deadline - now).min(Duration::from_millis(100));
        let (g, _) = sh
            .done_cv
            // lint: allow(blocking): thread-per-conn path only -- the reactor matches op=="wait" before its handle_parsed fallback and parks the connection instead
            .wait_timeout(guard, step)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard = g;
    }
}

fn status_reply(sh: &Arc<Shared>, id: u64) -> String {
    let jobs = crate::locked(&sh.jobs);
    status_object(&jobs, id)
}

/// One job's status as a JSON object (also the per-job element of a
/// batch response). Result bytes are spliced verbatim: they are already
/// canonical single-line JSON, and splicing keeps cached bytes
/// bit-identical on the wire.
fn status_object(jobs: &HashMap<u64, JobRecord>, id: u64) -> String {
    let Some(rec) = jobs.get(&id) else {
        return error_reply(&format!("no such job {id}"));
    };
    let mut out = format!("{{\"ok\":true,\"id\":{id},");
    match &rec.state {
        State::Queued => out.push_str("\"state\":\"queued\"}"),
        State::Running => {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("\"state\":\"running\",\"attempts\":{}}}", rec.attempts),
            );
        }
        State::Done {
            bytes,
            cached,
            resumed,
            wall,
        } => {
            // `result` stays the FINAL field: `cache_push` and the
            // router's raw-result splice both locate the bytes by that
            // invariant.
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "\"state\":\"done\",\"verdict\":\"done\",\"cached\":{},\
                     \"resumed_from_snapshot\":{},\"wall_ms\":{:.3},\"result\":{}}}",
                    cached,
                    resumed,
                    wall.as_secs_f64() * 1e3,
                    String::from_utf8_lossy(bytes)
                ),
            );
        }
        State::Failed { verdict, error } => {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "\"state\":\"failed\",\"verdict\":\"{}\",\"attempts\":{},\"error\":",
                    verdict.as_str(),
                    rec.attempts
                ),
            );
            push_json_str(&mut out, error);
            out.push('}');
        }
    }
    out
}

fn stats_reply(sh: &Arc<Shared>) -> String {
    let c = &sh.counters;
    let cs = &sh.cache.stats;
    let mut exps = sh.runner.experiments();
    exps.sort_unstable();
    let mut exp_json = String::from("[");
    for (i, e) in exps.iter().enumerate() {
        if i > 0 {
            exp_json.push(',');
        }
        push_json_str(&mut exp_json, e);
    }
    exp_json.push(']');
    let mut shard_json = String::new();
    if let Some(id) = &sh.config.shard_id {
        shard_json.push_str("\"shard_id\":");
        push_json_str(&mut shard_json, id);
        shard_json.push(',');
    }
    format!(
        "{{\"ok\":true,{}\"engine_version\":{},\"draining\":{},\
         \"jobs\":{{\"submitted\":{},\"done\":{},\"failed\":{},\
         \"quarantined\":{},\"deadline_expired\":{},\"checkpoints\":{},\
         \"resumed\":{},\"queued\":{},\"running\":{}}},\
         \"cache\":{{\"mem_hits\":{},\"disk_hits\":{},\"misses\":{},\"evictions\":{},\
         \"corrupt\":{},\"pending_writes\":{},\"disk_writes\":{},\
         \"mem_bytes\":{},\"mem_entries\":{}}},\"experiments\":{}}}",
        shard_json,
        sh.runner.engine_version(),
        sh.shutdown.load(Ordering::SeqCst),
        c.submitted.load(Ordering::Relaxed),
        c.done.load(Ordering::Relaxed),
        c.failed.load(Ordering::Relaxed),
        c.quarantined.load(Ordering::Relaxed),
        c.deadline_expired.load(Ordering::Relaxed),
        c.checkpoints.load(Ordering::Relaxed),
        c.resumed.load(Ordering::Relaxed),
        crate::locked(&sh.queue).len(),
        sh.running.load(Ordering::SeqCst),
        cs.mem_hits.load(Ordering::Relaxed),
        cs.disk_hits.load(Ordering::Relaxed),
        cs.misses.load(Ordering::Relaxed),
        cs.evictions.load(Ordering::Relaxed),
        cs.corrupt.load(Ordering::Relaxed),
        // lint: allow(lock_order): the cache's internal write-queue mutex merely shares the field name `queue` with the job queue held here; distinct locks
        sh.cache.pending_writes(),
        sh.cache.disk_writes(),
        sh.cache.mem_bytes(),
        sh.cache.mem_entries(),
        exp_json
    )
}
