//! The routing daemon: listener, dispatcher pool, shard prober.
//!
//! Protocol-compatible with a single farmd on the client side (`ping`,
//! `submit`, `status`, `batch`, `stats`, `shutdown`), a farmd client on
//! the shard side. A submitted job is queued, then *dispatched*: the
//! dispatcher walks the job's ring preference order restricted to
//! serving shards, forwards it as a batch-of-one, and classifies the
//! outcome —
//!
//! * terminal verdict from the shard (`done`/`failed`/...) → recorded
//!   once (at-most-once delivery: a late duplicate from a raced
//!   failover is counted and dropped);
//! * transport failure (connect refused, io timeout, cut connection,
//!   `killed`) or transient refusal (`draining`, `queue full`) →
//!   fail over to the next shard in preference order (`rerouted`++);
//! * deadline exhausted with no shard reachable → terminal
//!   `deadline_expired` with an `unroutable` error. Every admitted job
//!   reaches *some* terminal state: `lost` (in `stats`) stays 0.
//!
//! Cold results are replicated to the key's remaining replica shards
//! (`cache_push`) so the next failover finds a warm copy.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bfly_farmd::json::{self, push_json_str, Value};
use bfly_farmd::server::{error_reply, parse_wait, DEFAULT_MAX_RECORDS};
use bfly_farmd::JobSpec;

use crate::conn::ShardConn;
use crate::health::{Health, HealthPolicy};
use crate::locked;
use crate::rebalance::rebalance;
use crate::ring::Ring;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP listen address (`:0` for an ephemeral port).
    pub listen: String,
    /// Shard addresses (`host:port` each). Fixed membership; *serving*
    /// membership is health-gated.
    pub shards: Vec<String>,
    /// Cache replication factor R.
    pub replicas: usize,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Dispatcher threads.
    pub workers: usize,
    /// Backpressure bound on the routing queue.
    pub max_queue: usize,
    /// Prober sweep interval, ms.
    pub ping_interval_ms: u64,
    /// Ping/connect deadline, ms.
    pub ping_timeout_ms: u64,
    /// Per-attempt forwarding deadline, ms (must exceed the longest
    /// honest job execution; shorter means spurious failovers, which
    /// are safe but wasteful).
    pub attempt_timeout_ms: u64,
    /// Total routing budget per job when the job sets no deadline, ms.
    pub route_deadline_ms: u64,
    /// Eviction/probation thresholds.
    pub health: HealthPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            listen: "127.0.0.1:0".into(),
            shards: Vec::new(),
            replicas: 2,
            vnodes: 64,
            workers: 4,
            max_queue: 4096,
            ping_interval_ms: 500,
            ping_timeout_ms: 250,
            attempt_timeout_ms: 10_000,
            route_deadline_ms: 30_000,
            health: HealthPolicy::default(),
        }
    }
}

/// One shard as the router sees it.
struct ShardState {
    addr: String,
    /// `shard_id` learned from the shard's own ping reply (falls back
    /// to the address until the first successful ping).
    id: Mutex<Option<String>>,
    health: Mutex<Health>,
}

enum RState {
    Queued,
    Routing,
    Done {
        /// Raw result bytes exactly as the shard sent them.
        raw: Arc<String>,
        cached: bool,
        /// The executing shard rebuilt the job from a mid-run checkpoint
        /// (a killed or failed-over earlier attempt's progress).
        resumed: bool,
        wall_ms: f64,
    },
    Failed {
        verdict: String,
        error: String,
    },
}

impl RState {
    fn terminal(&self) -> bool {
        matches!(self, RState::Done { .. } | RState::Failed { .. })
    }
}

struct RJob {
    spec: JobSpec,
    state: RState,
    reroutes: u32,
}

/// Terminal job records the router keeps answerable for `status`/`wait`;
/// older ones are evicted oldest-first, as a farmd shard does with its
/// default `max_records`, so a long-running router holds bounded memory.
const MAX_TERMINAL_RECORDS: usize = DEFAULT_MAX_RECORDS;

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    /// Terminal outcomes, bumped once per job at its first terminal
    /// transition ([`settle`]), under the jobs lock — they outlive the
    /// evicted records, so `lost` stays exact.
    done: AtomicU64,
    failed: AtomicU64,
    resumed: AtomicU64,
    rerouted: AtomicU64,
    duplicates: AtomicU64,
    unroutable: AtomicU64,
    rebalanced_keys: AtomicU64,
    cache_pushes: AtomicU64,
    rebalances: AtomicU64,
}

/// Keep-alive connections to each shard, checked out by dispatchers and
/// the replicator. A fresh TCP dial per forwarded job caps the router at
/// connection-setup rate, not shard serving rate; reuse moves the warm
/// path to one request/reply round trip per job. Connections are only
/// returned after a complete reply line (protocol-synchronized), and a
/// checkout that turns out stale (shard restarted since) is dropped and
/// redialed rather than charged to the shard's health.
struct ConnPool {
    slots: Vec<Mutex<Vec<ShardConn>>>,
}

/// Pooled keep-alive connections per shard. Dispatchers × failover can
/// momentarily want more; extras are dropped on return, not kept.
const POOL_PER_SHARD: usize = 16;

impl ConnPool {
    fn new(shards: usize) -> ConnPool {
        ConnPool {
            slots: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn take(&self, idx: usize) -> Option<ShardConn> {
        locked(&self.slots[idx]).pop()
    }

    fn put(&self, idx: usize, conn: ShardConn) {
        let mut slot = locked(&self.slots[idx]);
        if slot.len() < POOL_PER_SHARD {
            slot.push(conn);
        }
    }
}

struct Shared {
    config: RouterConfig,
    shards: Vec<ShardState>,
    pool: ConnPool,
    /// Ring index == `shards` index (fixed membership; health gates the
    /// serving set, so the ring itself never mutates after boot).
    ring: Ring,
    /// Engine version learned from shard pings; 0 = not yet known. All
    /// shards must agree (mixed engine versions would split the cache
    /// namespace); the prober records the first one seen.
    engine_version: AtomicU32,
    jobs: Mutex<HashMap<u64, RJob>>,
    /// Ids of terminal records in completion order (eviction ring for
    /// `jobs`); only touched with the jobs lock held.
    terminal_ring: Mutex<VecDeque<u64>>,
    done_cv: Condvar,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    routing: AtomicU64,
    shutdown: AtomicBool,
    counters: Counters,
}

/// A running router. Call [`RouterHandle::shutdown`] (or send
/// `{"op":"shutdown"}`) to drain.
pub struct RouterHandle {
    /// Bound address (`host:port`, with the real ephemeral port).
    pub addr: String,
    shared: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// Ask the router to drain (idempotent, non-blocking).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Drain and wait: every queued job reaches a terminal state first.
    pub fn shutdown(mut self) {
        self.request_shutdown();
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// Wait until the router exits.
    pub fn join(mut self) {
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
    }

    /// In-process snapshot of the `stats` reply. The accounting outlives
    /// the sockets: after a drain closes every connection, this still
    /// reports the final counters (harnesses use it to assert lost == 0
    /// without racing the listener's exit).
    pub fn stats_json(&self) -> String {
        stats_reply(&self.shared)
    }

    /// Ring preference order (shard indexes, primary first) for a
    /// content key. The ring is fixed at boot, so harnesses can aim a
    /// job at a known primary instead of hoping a seed sweep happens to
    /// cover every shard (vnode arc sizes vary with shard addresses).
    pub fn preference(&self, key: &str) -> Vec<usize> {
        self.shared.ring.preference(key)
    }
}

/// Boot a router: bind, spawn dispatchers and the prober, return.
pub fn spawn(config: RouterConfig) -> std::io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(std::io::Error::other("router needs at least one shard"));
    }
    let listener = TcpListener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?.to_string();

    let mut ring = Ring::new(config.replicas, config.vnodes);
    let shards: Vec<ShardState> = config
        .shards
        .iter()
        .map(|a| {
            ring.add(a);
            ShardState {
                addr: a.clone(),
                id: Mutex::new(None),
                health: Mutex::new(Health::Up),
            }
        })
        .collect();

    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        pool: ConnPool::new(shards.len()),
        shards,
        ring,
        engine_version: AtomicU32::new(0),
        jobs: Mutex::new(HashMap::new()),
        terminal_ring: Mutex::new(VecDeque::new()),
        done_cv: Condvar::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        next_id: AtomicU64::new(1),
        routing: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        counters: Counters::default(),
        config,
    });

    let dispatchers: Vec<_> = (0..workers)
        .map(|i| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("router-dispatch-{i}"))
                .spawn(move || dispatcher_loop(&sh))
                .expect("spawn dispatcher")
        })
        .collect();

    let prober = {
        let sh = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("router-prober".into())
            .spawn(move || prober_loop(&sh))
            .expect("spawn prober")
    };

    let sh = Arc::clone(&shared);
    let listener_thread = std::thread::Builder::new()
        .name("router-listener".into())
        .spawn(move || {
            listener_loop(&sh, &listener);
            drain(&sh);
            for d in dispatchers {
                let _ = d.join();
            }
            let _ = prober.join();
        })
        .expect("spawn listener");

    Ok(RouterHandle {
        addr,
        shared,
        listener: Some(listener_thread),
    })
}

fn listener_loop(sh: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if sh.shutdown.load(Ordering::SeqCst) || bfly_farmd::signal_drain_requested() {
            sh.shutdown.store(true, Ordering::SeqCst);
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let sh = Arc::clone(sh);
                let _ = std::thread::Builder::new()
                    .name("router-conn".into())
                    .spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        // Same rationale as farmd: replies are small
                        // write pairs; Nagle + delayed ACK would add
                        // ~40 ms to every protocol turn.
                        let _ = stream.set_nodelay(true);
                        connection_loop(&sh, stream);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Route everything queued to a terminal state, then release workers.
fn drain(sh: &Arc<Shared>) {
    loop {
        let queued = locked(&sh.queue).len();
        if queued == 0 && sh.routing.load(Ordering::SeqCst) == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    sh.queue_cv.notify_all();
}

/// Max jobs one dispatcher pops from the queue per sweep. Under load the
/// queue runs deep, every popped run buckets by target shard, and each
/// bucket rides one pipelined connection — the round trip amortizes over
/// the whole bucket instead of repeating per job (the difference between
/// ~workers/RTT and ~bucket/RTT throughput; see DESIGN.md §15).
const GROUP_MAX: usize = 64;

fn dispatcher_loop(sh: &Arc<Shared>) {
    loop {
        let ids: Option<Vec<u64>> = {
            let mut q = locked(&sh.queue);
            loop {
                if !q.is_empty() {
                    let take = q.len().min(GROUP_MAX);
                    break Some(q.drain(..take).collect());
                }
                if sh.shutdown.load(Ordering::SeqCst) || bfly_farmd::signal_drain_requested() {
                    break None;
                }
                let (guard, _) = sh
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                q = guard;
            }
        };
        match ids {
            Some(ids) => {
                sh.routing.fetch_add(ids.len() as u64, Ordering::SeqCst);
                let n = ids.len() as u64;
                if let [id] = ids[..] {
                    dispatch(sh, id);
                } else {
                    dispatch_group(sh, ids);
                }
                sh.routing.fetch_sub(n, Ordering::SeqCst);
            }
            None => return,
        }
    }
}

/// One job's share of a pipelined bucket.
struct GroupJob {
    id: u64,
    line: String,
    key: String,
    /// Whether the bucket's shard is this job's ring primary (reroute
    /// accounting, matched to [`dispatch`]'s).
    primary: bool,
}

/// Route a popped run of jobs: bucket them by the shard [`dispatch`]
/// would try first, then pipeline each bucket over a single connection.
/// Any job the fast path cannot finish — placement unknown, no serving
/// shard, a transient refusal, a broken stream — falls back to the
/// single-job [`dispatch`] with its full failover/budget machinery. The
/// fast path only ever shortcuts the slow one, never replaces it.
fn dispatch_group(sh: &Arc<Shared>, ids: Vec<u64>) {
    let Some(ev) = engine_version(sh) else {
        for id in ids {
            dispatch(sh, id);
        }
        return;
    };
    let mut buckets: Vec<(usize, Vec<GroupJob>)> = Vec::new();
    let mut slow: Vec<u64> = Vec::new();
    // One lock acquisition marks the whole run Routing; per-id locking
    // here fights the admission and wait paths for the same mutex.
    let prepared: Vec<(u64, JobSpec)> = {
        let mut jobs = locked(&sh.jobs);
        ids.iter()
            .filter_map(|&id| {
                let rec = jobs.get_mut(&id)?;
                rec.state = RState::Routing;
                Some((id, rec.spec.clone()))
            })
            .collect()
    };
    for (id, spec) in prepared {
        let key = spec.key(ev);
        let pref = sh.ring.preference(&key);
        let primary = pref.first().copied();
        let Some(idx) = pref
            .into_iter()
            .find(|&i| locked(&sh.shards[i].health).serving())
        else {
            slow.push(id);
            continue;
        };
        let job = GroupJob {
            id,
            line: format!("{{\"op\":\"batch\",\"jobs\":[{}]}}", spec_json(&spec)),
            key,
            primary: Some(idx) == primary,
        };
        match buckets.iter_mut().find(|(i, _)| *i == idx) {
            Some((_, v)) => v.push(job),
            None => buckets.push((idx, vec![job])),
        }
    }
    for (idx, group) in buckets {
        forward_group(sh, idx, group, &mut slow);
    }
    for id in slow {
        dispatch(sh, id);
    }
}

/// Pipeline one bucket over one shard connection: send every line, then
/// read replies strictly in order (the shard answers a connection FIFO
/// in both io-modes). Jobs with a terminal protocol reply are recorded
/// here; everything else lands in `slow`. A transport error anywhere
/// desynchronizes the stream, so the connection is dropped and the
/// unresolved tail goes slow — re-sending is safe because execution is
/// deterministic and cache-keyed, and [`settle`]'s at-most-once guard
/// absorbs any raced duplicate.
fn forward_group(sh: &Arc<Shared>, idx: usize, group: Vec<GroupJob>, slow: &mut Vec<u64>) {
    let io_t = Duration::from_millis(sh.config.attempt_timeout_ms.max(1));
    let pooled = sh.pool.take(idx).filter(|c| c.set_io_timeout(io_t).is_ok());
    let mut conn = match pooled {
        Some(c) => c,
        None => {
            let connect_t = Duration::from_millis(sh.config.ping_timeout_ms.max(1));
            let fresh = ShardConn::connect(&sh.shards[idx].addr, connect_t)
                .and_then(|c| c.set_io_timeout(io_t).map(|()| c));
            match fresh {
                Ok(c) => c,
                Err(_) => {
                    let _ = locked(&sh.shards[idx].health).record_fail(&sh.config.health);
                    slow.extend(group.into_iter().map(|g| g.id));
                    return;
                }
            }
        }
    };
    // One write for the whole bucket: per-line sends cost a syscall per
    // job, and a dispatcher sweep is up to GROUP_MAX of them.
    let mut wire = String::with_capacity(group.iter().map(|g| g.line.len() + 1).sum());
    for g in &group {
        wire.push_str(&g.line);
        wire.push('\n');
    }
    let sent = match conn.send_all(&wire) {
        Ok(()) => group.len(),
        // A partial write corrupts the stream; the read loop resolves
        // what did go out and the remainder goes slow.
        Err(_) => 0,
    };
    let addr = &sh.shards[idx].addr;
    let mut read = 0;
    let mut stream_ok = true;
    let mut rerouted = 0u64;
    // Terminal outcomes accumulate here and are recorded under one jobs
    // lock after the read loop: per-reply locking makes a 64-job bucket
    // take the serving path's hottest mutex 64 times.
    let mut recorded: Vec<(usize, Outcome)> = Vec::new();
    for (gi, g) in group.iter().take(sent).enumerate() {
        let raw = match conn.recv_raw() {
            Ok(r) => r,
            Err(_) => {
                let _ = locked(&sh.shards[idx].health).record_fail(&sh.config.health);
                stream_ok = false;
                break;
            }
        };
        read += 1;
        match classify_reply(addr, &raw) {
            Outcome::Transient(_) => {
                // The shard answered (stream still synchronized) but
                // refused the job; the slow path owns retry/failover.
                let _ = locked(&sh.shards[idx].health).record_fail(&sh.config.health);
                slow.push(g.id);
            }
            outcome => {
                if !g.primary {
                    rerouted += 1;
                }
                recorded.push((gi, outcome));
            }
        }
    }
    if rerouted > 0 {
        sh.counters.rerouted.fetch_add(rerouted, Ordering::Relaxed);
    }
    let mut to_replicate: Vec<(usize, Arc<String>)> = Vec::new();
    let terminal = !recorded.is_empty();
    {
        let mut jobs = locked(&sh.jobs);
        for (gi, outcome) in recorded {
            let (state, fresh) = outcome.settled();
            if settle(sh, &mut jobs, group[gi].id, state) {
                if let Some(raw) = fresh {
                    to_replicate.push((gi, raw));
                }
            }
        }
    }
    if terminal {
        // One broadcast for the whole bucket: per-job `notify_all` wakes
        // every long-poll waiter per completion, and each wakeup rescans
        // its id set under the jobs mutex — at serving rates that
        // contention was the throughput ceiling, not the shard round trip.
        sh.done_cv.notify_all();
    }
    for (gi, raw) in to_replicate {
        replicate(sh, &group[gi].key, &raw, idx);
    }
    if stream_ok && sent == group.len() {
        sh.pool.put(idx, conn);
    } else {
        slow.extend(group.iter().skip(read).map(|g| g.id));
    }
}

/// One forwarding attempt's classified outcome.
enum Outcome {
    Done {
        raw: String,
        cached: bool,
        resumed: bool,
        wall_ms: f64,
    },
    Failed {
        verdict: String,
        error: String,
    },
    /// Worth failing over: the *shard* failed, not the job.
    Transient(String),
}

impl Outcome {
    /// The terminal state a non-transient outcome records, plus the
    /// result bytes to replicate (fresh results only; hits are already
    /// on their replicas).
    fn settled(self) -> (RState, Option<Arc<String>>) {
        match self {
            Outcome::Done {
                raw,
                cached,
                resumed,
                wall_ms,
            } => {
                let raw = Arc::new(raw);
                let fresh = (!cached).then(|| Arc::clone(&raw));
                let state = RState::Done {
                    raw,
                    cached,
                    resumed,
                    wall_ms,
                };
                (state, fresh)
            }
            Outcome::Failed { verdict, error } => (RState::Failed { verdict, error }, None),
            Outcome::Transient(_) => unreachable!("transient outcomes fail over, never settle"),
        }
    }
}

/// Errors that mean "try another shard", not "the job is bad".
fn transient_error(e: &str) -> bool {
    e.contains("queue full") || e.contains("draining") || e.contains("killed") || e.contains("busy")
}

/// Serialize a spec as a protocol job object.
fn spec_json(spec: &JobSpec) -> String {
    let mut out = String::from("{\"exp\":");
    push_json_str(&mut out, &spec.exp);
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(",\"params\":{},\"seed\":{}", spec.params.dump(), spec.seed),
    );
    if let Some(d) = spec.deadline_ms {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"deadline_ms\":{d}"));
    }
    if let Some(r) = spec.retries {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"retries\":{r}"));
    }
    if spec.probe {
        out.push_str(",\"probe\":true");
    }
    out.push_str(",\"cache\":\"");
    out.push_str(spec.cache.as_str());
    out.push_str("\"}");
    out
}

/// Extract the raw `result` bytes from a batch-of-one reply line. The
/// fields before `result` are fixed-format (none can contain the
/// marker), and `result` is the status object's final field, so the
/// slice between the marker and the closing `}]}` is exactly the bytes
/// the shard spliced in.
fn raw_result(line: &str) -> Option<&str> {
    let at = line.find("\"result\":")?;
    line[at + "\"result\":".len()..].strip_suffix("}]}")
}

/// Run one queued job to a terminal state by forwarding it shard-ward.
fn dispatch(sh: &Arc<Shared>, id: u64) {
    let spec = {
        let mut jobs = locked(&sh.jobs);
        let Some(rec) = jobs.get_mut(&id) else { return };
        rec.state = RState::Routing;
        rec.spec.clone()
    };
    let t0 = Instant::now();
    let budget = Duration::from_millis(
        spec.deadline_ms
            .unwrap_or(sh.config.route_deadline_ms)
            .max(1),
    );
    let line = format!("{{\"op\":\"batch\",\"jobs\":[{}]}}", spec_json(&spec));
    let mut attempted_any = false;
    // `rerouted` counts jobs served away from their ring primary —
    // whether the primary died mid-flight (attempt failed, failover) or
    // was already evicted (routed straight to a replica). Once per job.
    let mut reroute_counted = false;
    let mut last_err = String::from("no serving shard");

    while t0.elapsed() < budget {
        let Some(ev) = engine_version(sh) else {
            // No shard has ever answered a ping: placement is undefined.
            // Wait for the prober (or the budget) rather than guessing.
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        let key = spec.key(ev);
        let pref = sh.ring.preference(&key);
        let primary = pref.first().copied();
        let serving: Vec<usize> = pref
            .into_iter()
            .filter(|&i| locked(&sh.shards[i].health).serving())
            .collect();
        if serving.is_empty() {
            last_err = "no serving shard".into();
            std::thread::sleep(Duration::from_millis(50));
            continue;
        }
        let mut progressed = false;
        for idx in serving {
            let remaining = budget.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                break;
            }
            if attempted_any {
                // This attempt is a failover from a previous failure.
                if let Some(rec) = locked(&sh.jobs).get_mut(&id) {
                    rec.reroutes += 1;
                }
            }
            attempted_any = true;
            if Some(idx) != primary && !reroute_counted {
                sh.counters.rerouted.fetch_add(1, Ordering::Relaxed);
                reroute_counted = true;
            }
            match forward(sh, idx, &line, remaining) {
                Outcome::Transient(e) => {
                    // The prober owns eviction; a dispatcher only files
                    // the evidence.
                    let _ = locked(&sh.shards[idx].health).record_fail(&sh.config.health);
                    last_err = e;
                    progressed = true;
                }
                outcome => {
                    let (state, fresh) = outcome.settled();
                    if record(sh, id, state) {
                        if let Some(raw) = fresh {
                            replicate(sh, &key, &raw, idx);
                        }
                    }
                    return;
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    sh.counters.unroutable.fetch_add(1, Ordering::Relaxed);
    record(
        sh,
        id,
        RState::Failed {
            verdict: "deadline_expired".into(),
            error: format!("unroutable after {} ms: {last_err}", budget.as_millis()),
        },
    );
}

/// Forward the prepared batch-of-one line to shard `idx`.
///
/// Warm path: a pooled keep-alive connection — one request/reply round
/// trip, no TCP handshake. A stale pooled connection (shard restarted or
/// closed it since checkout) fails fast and falls through to a fresh
/// dial without counting against the shard: re-sending the batch is
/// safe because job execution is deterministic and cache-keyed.
fn forward(sh: &Arc<Shared>, idx: usize, line: &str, remaining: Duration) -> Outcome {
    let io_t = Duration::from_millis(sh.config.attempt_timeout_ms.max(1)).min(remaining);
    if let Some(mut conn) = sh.pool.take(idx) {
        if conn.set_io_timeout(io_t).is_ok() {
            if let Ok(raw) = conn.request_raw(line) {
                sh.pool.put(idx, conn);
                return classify_reply(&sh.shards[idx].addr, &raw);
            }
        }
    }
    let addr = &sh.shards[idx].addr;
    let connect_t = Duration::from_millis(sh.config.ping_timeout_ms.max(1)).min(remaining);
    let mut conn = match ShardConn::connect(addr, connect_t) {
        Ok(c) => c,
        Err(e) => return Outcome::Transient(format!("{addr}: connect: {e}")),
    };
    if let Err(e) = conn.set_io_timeout(io_t) {
        return Outcome::Transient(format!("{addr}: {e}"));
    }
    let raw = match conn.request_raw(line) {
        Ok(r) => r,
        Err(e) => return Outcome::Transient(format!("{addr}: {e}")),
    };
    sh.pool.put(idx, conn);
    classify_reply(addr, &raw)
}

/// Classify a complete shard reply line into a dispatch [`Outcome`].
fn classify_reply(addr: &str, raw: &str) -> Outcome {
    let v = match json::parse(raw) {
        Ok(v) => v,
        Err((at, msg)) => return Outcome::Transient(format!("{addr}: bad reply at {at}: {msg}")),
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = v
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error")
            .to_string();
        return if transient_error(&err) {
            Outcome::Transient(format!("{addr}: {err}"))
        } else {
            Outcome::Failed {
                verdict: "failed".into(),
                error: err,
            }
        };
    }
    let Some(results) = v.get("results").and_then(Value::as_arr) else {
        return Outcome::Transient(format!("{addr}: reply without results"));
    };
    let Some(el) = results.first() else {
        return Outcome::Transient(format!("{addr}: empty results"));
    };
    if el.get("ok").and_then(Value::as_bool) != Some(true) {
        let err = el
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("unknown error")
            .to_string();
        return if transient_error(&err) {
            Outcome::Transient(format!("{addr}: {err}"))
        } else {
            Outcome::Failed {
                verdict: "failed".into(),
                error: err,
            }
        };
    }
    match el.get("state").and_then(Value::as_str) {
        Some("done") => match raw_result(raw) {
            Some(res) => Outcome::Done {
                raw: res.to_string(),
                cached: el.get("cached").and_then(Value::as_bool).unwrap_or(false),
                resumed: el
                    .get("resumed_from_snapshot")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                wall_ms: el.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
            },
            None => Outcome::Transient(format!("{addr}: done reply without result bytes")),
        },
        Some("failed") => Outcome::Failed {
            verdict: el
                .get("verdict")
                .and_then(Value::as_str)
                .unwrap_or("failed")
                .to_string(),
            error: el
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        },
        other => Outcome::Transient(format!("{addr}: non-terminal batch state {other:?}")),
    }
}

/// Record a job's terminal verdict and wake the waiters. Returns false
/// if the job already had one (see [`settle`]).
fn record(sh: &Arc<Shared>, id: u64, state: RState) -> bool {
    let first = settle(sh, &mut locked(&sh.jobs), id, state);
    sh.done_cv.notify_all();
    first
}

/// The single terminal transition, called with the jobs lock held: the
/// first terminal verdict wins, and a later one (a raced failover's
/// late reply) is counted as a duplicate and dropped — at-most-once
/// delivery. The outcome counters are bumped here, once per job, and
/// the record joins the eviction ring.
fn settle(sh: &Shared, jobs: &mut HashMap<u64, RJob>, id: u64, state: RState) -> bool {
    let Some(rec) = jobs.get_mut(&id) else {
        return false;
    };
    if rec.state.terminal() {
        sh.counters.duplicates.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    let c = &sh.counters;
    match state {
        RState::Done { resumed, .. } => {
            c.done.fetch_add(1, Ordering::Relaxed);
            c.resumed.fetch_add(resumed as u64, Ordering::Relaxed);
        }
        RState::Failed { .. } => {
            c.failed.fetch_add(1, Ordering::Relaxed);
        }
        RState::Queued | RState::Routing => unreachable!("settle takes a terminal state"),
    }
    rec.state = state;
    evict_terminal(
        jobs,
        &mut locked(&sh.terminal_ring),
        id,
        MAX_TERMINAL_RECORDS,
    );
    true
}

/// Append `id` to the terminal ring and evict the oldest terminal
/// records past `cap`. Only terminal ids enter the ring, so eviction
/// drops answerable history, never a live job; `status` on an evicted
/// id answers `no such job`, and `wait` treats it as terminal.
fn evict_terminal(jobs: &mut HashMap<u64, RJob>, ring: &mut VecDeque<u64>, id: u64, cap: usize) {
    ring.push_back(id);
    while ring.len() > cap {
        if let Some(old) = ring.pop_front() {
            jobs.remove(&old);
        }
    }
}

/// Copy a freshly computed result to the key's other serving replicas,
/// so the next failover (or the next submission routed while the
/// executor is down) finds a warm copy. Best-effort: replication is an
/// optimization, correctness comes from recomputation determinism.
fn replicate(sh: &Arc<Shared>, key: &str, raw: &str, executor: usize) {
    let push = format!("{{\"op\":\"cache_push\",\"key\":\"{key}\",\"result\":{raw}}}");
    let timeout = Duration::from_millis(sh.config.ping_timeout_ms.max(1) * 4);
    for idx in sh.ring.replica_set(key) {
        if idx == executor || !locked(&sh.shards[idx].health).serving() {
            continue;
        }
        if let Some(mut c) = sh.pool.take(idx) {
            if c.set_io_timeout(timeout).is_ok() && c.request_raw(&push).is_ok() {
                sh.pool.put(idx, c);
                sh.counters.cache_pushes.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Stale keep-alive: drop it and redial below.
        }
        if let Ok(mut c) = ShardConn::connect(&sh.shards[idx].addr, timeout) {
            if c.request_raw(&push).is_ok() {
                sh.pool.put(idx, c);
                sh.counters.cache_pushes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn engine_version(sh: &Arc<Shared>) -> Option<u32> {
    match sh.engine_version.load(Ordering::SeqCst) {
        0 => None,
        v => Some(v),
    }
}

/// The prober: pings every shard each sweep, drives the health state
/// machine, learns engine version and shard ids, and triggers a warm
/// rebalance whenever the serving set changes.
fn prober_loop(sh: &Arc<Shared>) {
    let timeout = Duration::from_millis(sh.config.ping_timeout_ms.max(1));
    let mut last_serving: Option<Vec<bool>> = None;
    loop {
        if sh.shutdown.load(Ordering::SeqCst) || bfly_farmd::signal_drain_requested() {
            return;
        }
        for s in &sh.shards {
            let outcome = ShardConn::connect(&s.addr, timeout)
                .and_then(|mut c| c.request_raw("{\"op\":\"ping\"}"));
            match outcome.ok().and_then(|raw| json::parse(&raw).ok()) {
                Some(pong) if pong.get("pong").and_then(Value::as_bool) == Some(true) => {
                    if let Some(ev) = pong.get("engine_version").and_then(Value::as_u64) {
                        let _ = sh.engine_version.compare_exchange(
                            0,
                            ev as u32,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                    }
                    if let Some(id) = pong.get("shard_id").and_then(Value::as_str) {
                        let mut slot = locked(&s.id);
                        if slot.as_deref() != Some(id) {
                            *slot = Some(id.to_string());
                        }
                    }
                    let _ = locked(&s.health).record_ok(&sh.config.health);
                }
                _ => {
                    let _ = locked(&s.health).record_fail(&sh.config.health);
                }
            }
        }
        let serving: Vec<bool> = sh
            .shards
            .iter()
            .map(|s| locked(&s.health).serving())
            .collect();
        let changed = last_serving.as_ref() != Some(&serving);
        if changed && serving.iter().any(|&b| b) {
            let live: Vec<(usize, String)> = sh
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| serving[*i])
                .map(|(i, s)| (i, s.addr.clone()))
                .collect();
            let moved = rebalance(&live, &sh.ring, timeout * 4);
            sh.counters.rebalances.fetch_add(1, Ordering::Relaxed);
            sh.counters
                .rebalanced_keys
                .fetch_add(moved, Ordering::Relaxed);
        }
        if changed {
            last_serving = Some(serving);
        }
        // Sleep in small slices so shutdown stays responsive.
        let mut left = sh.config.ping_interval_ms.max(1);
        while left > 0 && !sh.shutdown.load(Ordering::SeqCst) {
            let step = left.min(50);
            std::thread::sleep(Duration::from_millis(step));
            left -= step;
        }
    }
}

fn connection_loop(sh: &Arc<Shared>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Replies accumulate here while the reader still holds complete
    // pipelined request lines, and go out in one write before any read
    // that could touch the socket. A pipelined burst of N requests then
    // costs one reply syscall instead of N — at serving rates the
    // per-reply write+flush was a measurable share of the core.
    let mut pending = String::new();
    loop {
        if !pending.is_empty() && !reader.buffer().contains(&b'\n') {
            if reader.get_mut().write_all(pending.as_bytes()).is_err() {
                return;
            }
            pending.clear();
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reply = handle_request(sh, trimmed);
        pending.push_str(&reply);
        pending.push('\n');
        if sh.shutdown.load(Ordering::SeqCst) && trimmed.contains("\"shutdown\"") {
            let _ = reader.get_mut().write_all(pending.as_bytes());
            return;
        }
    }
}

fn handle_request(sh: &Arc<Shared>, line: &str) -> String {
    // Shed load before parsing: under sustained overload the refused
    // share of submits would otherwise pay the full JSON parse just to
    // be turned away, and that parse time comes out of the same core
    // that dispatch needs to drain the queue. The prefix check is exact
    // for every client in this workspace (they all emit `op` first);
    // hand-written submits with other field orders still shed inside
    // `admit`, just after the parse.
    if line.starts_with("{\"op\":\"submit\"") {
        let q = locked(&sh.queue);
        if q.len() >= sh.config.max_queue {
            let n = q.len();
            drop(q);
            return error_reply(&format!("queue full ({n} jobs); backpressure: retry later"));
        }
    }
    let v = match json::parse(line) {
        Ok(v) => v,
        Err((at, msg)) => return error_reply(&format!("bad JSON at byte {at}: {msg}")),
    };
    match v.get("op").and_then(Value::as_str) {
        Some("ping") => format!(
            "{{\"ok\":true,\"pong\":true,\"router\":true,\"engine_version\":{},\"shards\":{}}}",
            sh.engine_version.load(Ordering::SeqCst),
            sh.shards.len()
        ),
        Some("submit") => match JobSpec::from_value(&v) {
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
        Some("wait") => handle_wait(sh, &v),
        Some("stats") => stats_reply(sh),
        Some("shutdown") => {
            sh.shutdown.store(true, Ordering::SeqCst);
            "{\"ok\":true,\"draining\":true}".into()
        }
        Some(other) => error_reply(&format!("unknown op `{other}`")),
        None => error_reply("request needs a string `op`"),
    }
}

fn admit(sh: &Arc<Shared>, spec: JobSpec) -> Result<u64, String> {
    if sh.shutdown.load(Ordering::SeqCst) || bfly_farmd::signal_drain_requested() {
        return Err("draining: no new jobs accepted".into());
    }
    {
        let q = locked(&sh.queue);
        if q.len() >= sh.config.max_queue {
            return Err(format!(
                "queue full ({} jobs); backpressure: retry later",
                q.len()
            ));
        }
    }
    let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
    {
        // Counted under the jobs lock, like every terminal transition,
        // so a `stats` snapshot never sees a submission without its job.
        let mut jobs = locked(&sh.jobs);
        sh.counters.submitted.fetch_add(1, Ordering::Relaxed);
        jobs.insert(
            id,
            RJob {
                spec,
                state: RState::Queued,
                reroutes: 0,
            },
        );
    }
    locked(&sh.queue).push_back(id);
    sh.queue_cv.notify_one();
    Ok(id)
}

fn handle_batch(sh: &Arc<Shared>, jobs: &[Value]) -> String {
    let t0 = Instant::now();
    let mut ids: Vec<Result<u64, String>> = Vec::with_capacity(jobs.len());
    for j in jobs {
        match JobSpec::from_value(j) {
            Ok(spec) => ids.push(admit(sh, spec)),
            Err(e) => ids.push(Err(e)),
        }
    }
    {
        let mut guard = locked(&sh.jobs);
        loop {
            let all_done = ids.iter().all(|r| match r {
                Ok(id) => guard.get(id).map(|r| r.state.terminal()).unwrap_or(true),
                Err(_) => true,
            });
            if all_done {
                break;
            }
            let (g, _) = sh
                .done_cv
                .wait_timeout(guard, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard = g;
        }
    }
    let wall = t0.elapsed();
    let mut hits = 0u64;
    let mut out = String::from("{\"ok\":true,");
    {
        let guard = locked(&sh.jobs);
        for id in ids.iter().flatten() {
            if let Some(RState::Done { cached: true, .. }) = guard.get(id).map(|r| &r.state) {
                hits += 1;
            }
        }
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
                Ok(id) => out.push_str(&status_object(&guard, *id)),
                Err(e) => out.push_str(&error_reply(e)),
            }
        }
    }
    out.push_str("]}");
    out
}

/// The router-side long-poll (request parsing and its limits are
/// farmd's own [`parse_wait`], so the two verbs cannot drift apart): block on the done condvar until every
/// watched id is terminal (dispatchers route jobs to terminal states in
/// the background) or the timeout lapses. Farmd-shaped reply, so a
/// cluster client on the `wait` path cannot tell a router from a single
/// daemon — and stops paying the status-poll quantum either way.
/// Unknown ids count as terminal, so a waiter can never hang on history.
fn handle_wait(sh: &Arc<Shared>, v: &Value) -> String {
    let (ids, timeout_ms) = match parse_wait(v) {
        Ok(p) => p,
        Err(e) => return error_reply(&e),
    };
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut guard = locked(&sh.jobs);
    // Track only the ids still pending: each condvar wakeup rechecks the
    // shrinking remainder, not the whole set. With many concurrent
    // long-polls at serving rates, full rescans under the jobs mutex are
    // measurable contention.
    let mut pending: Vec<u64> = ids.clone();
    loop {
        pending.retain(|id| guard.get(id).map(|r| !r.state.terminal()).unwrap_or(false));
        if pending.is_empty() {
            return wait_reply(guard, &ids, true);
        }
        let now = Instant::now();
        if now >= deadline {
            return wait_reply(guard, &ids, false);
        }
        let step = (deadline - now).min(Duration::from_millis(100));
        let (g, _) = sh
            .done_cv
            .wait_timeout(guard, step)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard = g;
    }
}

/// Build the wait reply: statuses are *snapshotted* under the jobs lock
/// (cheap `Arc` clones of the result bytes), then the guard is dropped
/// before any formatting. A wait round can cover thousands of ids whose
/// results total megabytes; splicing those bytes while holding the one
/// mutex every admission, dispatch, and record needs would serialize the
/// whole serving path behind reply formatting.
fn wait_reply(
    guard: std::sync::MutexGuard<'_, HashMap<u64, RJob>>,
    ids: &[u64],
    complete: bool,
) -> String {
    let snaps: Vec<StatusSnap> = ids.iter().map(|id| snap_status(&guard, *id)).collect();
    drop(guard);
    let mut out = format!("{{\"ok\":true,\"complete\":{complete},\"results\":[");
    for (i, (id, snap)) in ids.iter().zip(&snaps).enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_status_snap(&mut out, *id, snap);
    }
    out.push_str("]}");
    out
}

fn status_reply(sh: &Arc<Shared>, id: u64) -> String {
    let jobs = locked(&sh.jobs);
    status_object(&jobs, id)
}

/// One id's status captured under the jobs lock. Result bytes are held
/// by `Arc`, so the snapshot never copies them.
enum StatusSnap {
    Missing,
    Queued,
    Routing {
        attempts: u32,
    },
    Done {
        raw: Arc<String>,
        cached: bool,
        resumed: bool,
        wall_ms: f64,
    },
    Failed {
        verdict: String,
        error: String,
        attempts: u32,
    },
}

fn snap_status(jobs: &HashMap<u64, RJob>, id: u64) -> StatusSnap {
    let Some(rec) = jobs.get(&id) else {
        return StatusSnap::Missing;
    };
    match &rec.state {
        RState::Queued => StatusSnap::Queued,
        RState::Routing => StatusSnap::Routing {
            attempts: rec.reroutes + 1,
        },
        RState::Done {
            raw,
            cached,
            resumed,
            wall_ms,
        } => StatusSnap::Done {
            raw: Arc::clone(raw),
            cached: *cached,
            resumed: *resumed,
            wall_ms: *wall_ms,
        },
        RState::Failed { verdict, error } => StatusSnap::Failed {
            verdict: verdict.clone(),
            error: error.clone(),
            attempts: rec.reroutes + 1,
        },
    }
}

/// Format one snapshotted status, farmd-shaped: clients cannot tell a
/// router from a single daemon. Result bytes are spliced verbatim.
fn push_status_snap(out: &mut String, id: u64, snap: &StatusSnap) {
    if let StatusSnap::Missing = snap {
        out.push_str(&error_reply(&format!("no such job {id}")));
        return;
    }
    let _ = std::fmt::Write::write_fmt(out, format_args!("{{\"ok\":true,\"id\":{id},"));
    match snap {
        StatusSnap::Missing => unreachable!("handled above"),
        StatusSnap::Queued => out.push_str("\"state\":\"queued\"}"),
        StatusSnap::Routing { attempts } => {
            let _ = std::fmt::Write::write_fmt(
                out,
                format_args!("\"state\":\"running\",\"attempts\":{attempts}}}"),
            );
        }
        StatusSnap::Done {
            raw,
            cached,
            resumed,
            wall_ms,
        } => {
            // Field order mirrors farmd's status object exactly —
            // `result` stays final for the raw-splice invariant.
            let _ = std::fmt::Write::write_fmt(
                out,
                format_args!(
                    "\"state\":\"done\",\"verdict\":\"done\",\"cached\":{cached},\
                     \"resumed_from_snapshot\":{resumed},\
                     \"wall_ms\":{wall_ms:.3},\"result\":{raw}}}"
                ),
            );
        }
        StatusSnap::Failed {
            verdict,
            error,
            attempts,
        } => {
            let _ = std::fmt::Write::write_fmt(
                out,
                format_args!("\"state\":\"failed\",\"verdict\":\"{verdict}\",\"attempts\":{attempts},\"error\":"),
            );
            push_json_str(out, error);
            out.push('}');
        }
    }
}

/// One job's status as a standalone reply line (single-id `status` verb
/// and the batch reply builder, where the caller already holds the lock).
fn status_object(jobs: &HashMap<u64, RJob>, id: u64) -> String {
    let snap = snap_status(jobs, id);
    let mut out = String::new();
    push_status_snap(&mut out, id, &snap);
    out
}

fn stats_reply(sh: &Arc<Shared>) -> String {
    let c = &sh.counters;
    // One consistent snapshot under the jobs lock: submissions and
    // terminal outcomes are counted under it, live jobs are counted from
    // the table (terminal records may have been evicted, live ones never
    // are). `lost` is submitted minus everything accounted for, and the
    // cluster invariant (chaos-tested) is that it is always 0.
    let (submitted, done, failed, resumed, queued, routing) = {
        let jobs = locked(&sh.jobs);
        let mut queued = 0u64;
        let mut routing = 0u64;
        for rec in jobs.values() {
            match rec.state {
                RState::Queued => queued += 1,
                RState::Routing => routing += 1,
                RState::Done { .. } | RState::Failed { .. } => {}
            }
        }
        (
            c.submitted.load(Ordering::Relaxed),
            c.done.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            c.resumed.load(Ordering::Relaxed),
            queued,
            routing,
        )
    };
    let lost = submitted.saturating_sub(done + failed + queued + routing);
    let mut shards_json = String::from("[");
    for (i, s) in sh.shards.iter().enumerate() {
        if i > 0 {
            shards_json.push(',');
        }
        shards_json.push_str("{\"addr\":");
        push_json_str(&mut shards_json, &s.addr);
        shards_json.push_str(",\"id\":");
        let id = locked(&s.id);
        push_json_str(&mut shards_json, id.as_deref().unwrap_or(&s.addr));
        drop(id);
        shards_json.push_str(",\"health\":\"");
        shards_json.push_str(locked(&s.health).as_str());
        shards_json.push_str("\"}");
    }
    shards_json.push(']');
    format!(
        "{{\"ok\":true,\"router\":true,\"engine_version\":{},\"draining\":{},\
         \"jobs\":{{\"submitted\":{},\"done\":{},\"failed\":{},\"queued\":{},\
         \"routing\":{},\"lost\":{},\"resumed\":{},\"rerouted\":{},\"duplicates\":{},\
         \"unroutable\":{}}},\
         \"cluster\":{{\"replicas\":{},\"rebalances\":{},\"rebalanced_keys\":{},\
         \"cache_pushes\":{},\"shards\":{}}}}}",
        sh.engine_version.load(Ordering::SeqCst),
        sh.shutdown.load(Ordering::SeqCst),
        submitted,
        done,
        failed,
        queued,
        routing,
        lost,
        resumed,
        c.rerouted.load(Ordering::Relaxed),
        c.duplicates.load(Ordering::Relaxed),
        c.unroutable.load(Ordering::Relaxed),
        sh.ring.replicas(),
        c.rebalances.load(Ordering::Relaxed),
        c.rebalanced_keys.load(Ordering::Relaxed),
        c.cache_pushes.load(Ordering::Relaxed),
        shards_json
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(state: RState) -> RJob {
        let spec = JobSpec::from_value(&json::parse(r#"{"exp":"e"}"#).unwrap()).unwrap();
        RJob {
            spec,
            state,
            reroutes: 0,
        }
    }

    fn failed() -> RState {
        RState::Failed {
            verdict: "failed".into(),
            error: String::new(),
        }
    }

    #[test]
    fn eviction_drops_oldest_terminal_records_past_the_cap() {
        let mut jobs: HashMap<u64, RJob> = HashMap::new();
        let mut ring = VecDeque::new();
        jobs.insert(100, job(RState::Queued));
        jobs.insert(101, job(RState::Routing));
        for id in 1..=5 {
            jobs.insert(id, job(failed()));
            evict_terminal(&mut jobs, &mut ring, id, 3);
        }
        let mut left: Vec<u64> = jobs.keys().copied().collect();
        left.sort_unstable();
        assert_eq!(left, [3, 4, 5, 100, 101], "live jobs are never evicted");
        assert_eq!(ring, [3, 4, 5]);
    }
}
