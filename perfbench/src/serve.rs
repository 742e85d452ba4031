//! The serving workloads: a two-shard farmd cluster behind farm-router,
//! all in this process, driven over TCP by closed-loop clients.
//!
//! Shards start with `bfly_farmd::spawn` and `ServerConfig::default()`
//! apart from a fresh cache directory and a shard id; the router starts
//! with `RouterConfig::default()` apart from the shard list. Every reply
//! is checked byte for byte against the in-process `Registry` result for
//! the same job.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bfly_bench::Registry;
use bfly_farm_router::{Ring, RouterConfig, RouterHandle};
use bfly_farmd::{content_key, Cache, JobRunner, ServerConfig, ServerHandle, Value};

use crate::gen::{self, field_u64, raw_result, Job};
use crate::stats::{median, process_cpu_s};
use crate::trace::Tracer;

/// Shards in the cluster.
pub const SHARDS: usize = 2;

/// One blocking JSON-lines connection: a closed loop of request, reply.
pub struct Conn {
    stream: BufReader<TcpStream>,
    out: String,
    reply: String,
}

impl Conn {
    /// Connect with Nagle off (requests are single small writes).
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream: BufReader::new(s),
            out: String::new(),
            reply: String::new(),
        })
    }

    /// Send one request line and return the reply line (no newline).
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.push_str(line);
        self.out.push('\n');
        self.stream
            .get_mut()
            .write_all(self.out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.stream.read_line(&mut self.reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// A request whose reply is parsed (control verbs: stats, ping).
    pub fn request_value(&mut self, line: &str) -> Result<Value, String> {
        let r = self.request(line)?;
        bfly_farmd::json::parse(r).map_err(|(at, m)| format!("reply at {at}: {m}"))
    }
}

/// The warm-key set with each key's in-process result bytes.
pub struct WarmSet {
    /// The jobs.
    pub jobs: Vec<Job>,
    /// `Registry` result bytes, by job.
    pub bytes: Vec<String>,
    /// Host ms the in-process run of each job took.
    pub run_ms: Vec<f64>,
    /// Content keys under the running engine version.
    pub keys: Vec<String>,
}

impl WarmSet {
    /// Run every warm job in-process: the reference every served copy
    /// is compared with.
    pub fn compute() -> Result<WarmSet, String> {
        let reg = Registry;
        let jobs = gen::warm_keys();
        let mut bytes = Vec::new();
        let mut run_ms = Vec::new();
        let mut keys = Vec::new();
        for j in &jobs {
            let spec = j.spec();
            let t = Instant::now();
            let b = reg.run(&spec)?;
            run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            bytes.push(String::from_utf8(b).map_err(|e| e.to_string())?);
            keys.push(spec.key(reg.engine_version()));
        }
        Ok(WarmSet {
            jobs,
            bytes,
            run_ms,
            keys,
        })
    }
}

/// Two shards and a router, with the shards' cache directories.
pub struct Cluster {
    shards: Vec<ServerHandle>,
    /// Shard addresses, in router order.
    pub shard_addrs: Vec<String>,
    router: RouterHandle,
    /// Router address.
    pub addr: String,
    dir: PathBuf,
}

impl Cluster {
    /// Boot the shards (fresh cache directories under `dir`) and the
    /// router, and wait until the router has heard from a shard.
    pub fn boot(dir: &Path) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut shards = Vec::new();
        for i in 0..SHARDS {
            let cfg = ServerConfig {
                cache_dir: Some(dir.join(format!("shard{i}"))),
                shard_id: Some(format!("shard-{i}")),
                ..ServerConfig::default()
            };
            shards.push(
                bfly_farmd::spawn(cfg, Arc::new(Registry)).map_err(|e| format!("farmd: {e}"))?,
            );
        }
        let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
        let router = bfly_farm_router::spawn(RouterConfig {
            shards: shard_addrs.clone(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("farm-router: {e}"))?;
        let addr = router.addr.clone();
        let cluster = Cluster {
            shards,
            shard_addrs,
            router,
            addr,
            dir: dir.to_path_buf(),
        };
        // The router places jobs only once a shard ping has told it the
        // engine version.
        let mut c = Conn::connect(&cluster.addr).map_err(|e| format!("router: {e}"))?;
        let t = Instant::now();
        loop {
            let v = c.request_value("{\"op\":\"ping\"}")?;
            if field_u64(&v, &["engine_version"]).unwrap_or(0) != 0 {
                return Ok(cluster);
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("router never heard from a shard".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Index of the shard that owns `key` (its ring primary).
    pub fn owner(&self, key: &str) -> usize {
        self.router.preference(key)[0]
    }

    /// Drain the router and the shards, then delete the cache directories.
    pub fn shutdown(self) {
        self.router.shutdown();
        for s in self.shards {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Submit every warm key through the router, wait for all, and check
/// each result. Cold: every key runs once on its primary shard.
pub fn warm(cluster: &Cluster, ws: &WarmSet) -> Result<(), String> {
    let mut c = Conn::connect(&cluster.addr).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for j in &ws.jobs {
        let v = c.request_value(&j.submit_line())?;
        ids.push(field_u64(&v, &["id"]).ok_or_else(|| format!("submit refused: {}", v.dump()))?);
    }
    for (i, id) in ids.iter().enumerate() {
        let reply = c.request(&wait_line(*id))?;
        if raw_result(reply, "}]}") != Some(ws.bytes[i].as_str()) {
            return Err(format!("warm-up of {:?} returned other bytes", ws.jobs[i]));
        }
    }
    Ok(())
}

fn wait_line(id: u64) -> String {
    format!("{{\"op\":\"wait\",\"ids\":[{id}],\"timeout_ms\":120000}}")
}

/// Submit one job through the router and wait for it: two round trips.
/// Returns the instants after the submit reply and after the wait reply,
/// or why the job failed. `want` is the expected result bytes.
fn router_job(
    c: &mut Conn,
    line: &str,
    want: Option<&str>,
) -> Result<(Instant, Instant, String), String> {
    let reply = c.request(line)?;
    let t1 = Instant::now();
    let id = bfly_farmd::json::parse(reply)
        .ok()
        .and_then(|v| field_u64(&v, &["id"]))
        .ok_or_else(|| format!("submit refused: {reply}"))?;
    let reply = c.request(&wait_line(id))?;
    let t2 = Instant::now();
    let got = raw_result(reply, "}]}").ok_or_else(|| format!("job {id} not done: {reply}"))?;
    if let Some(w) = want {
        if got != w {
            return Err(format!("job {id}: result differs from the in-process run"));
        }
    }
    Ok((t1, t2, got.to_string()))
}

/// Outcome of a stream of warm hits.
#[derive(Debug, Default)]
pub struct Hits {
    /// Submit→done latency per hit, ms.
    pub lat_ms: Vec<f64>,
    /// Hits attempted and failed.
    pub attempted: u64,
    /// Hits whose reply was missing or wrong.
    pub failed: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
}

impl Hits {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

/// A closed-loop warm-hit client on one router connection. It sends
/// whole rounds (every warm key once, in a seeded order); spans: `hit`
/// per job with `farm-router.submit` and `farm-router.wait` children.
pub struct HitClient<'a> {
    conn: Conn,
    ws: &'a WarmSet,
    lines: Vec<String>,
    seed: u64,
    stream: u64,
    round: u64,
    /// What it measured so far.
    pub hits: Hits,
}

impl<'a> HitClient<'a> {
    /// Connect to the router. `stream` keeps this client's order and
    /// request ids apart from other clients'.
    pub fn connect(
        cluster: &Cluster,
        ws: &'a WarmSet,
        seed: u64,
        stream: u64,
    ) -> Result<HitClient<'a>, String> {
        Ok(HitClient {
            conn: Conn::connect(&cluster.addr).map_err(|e| format!("router: {e}"))?,
            ws,
            lines: ws.jobs.iter().map(Job::submit_line).collect(),
            seed,
            stream,
            round: 0,
            hits: Hits::default(),
        })
    }

    /// Send `rounds` rounds. With `pace`, think between hits so that the
    /// k-th hit of the call goes out no earlier than k × `pace` after it
    /// began.
    pub fn rounds(&mut self, rounds: u64, pace: Option<Duration>, tr: &mut Tracer) {
        let start = Instant::now();
        let mut sent = 0u32;
        for _ in 0..rounds {
            for k in gen::hit_round(self.seed, self.stream, self.round, self.ws.jobs.len()) {
                if let Some(p) = pace {
                    let due = start + p * sent;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                sent += 1;
                let h = &mut self.hits;
                h.attempted += 1;
                let req = self.stream << 32 | h.attempted;
                let t0 = Instant::now();
                match router_job(&mut self.conn, &self.lines[k], Some(&self.ws.bytes[k])) {
                    Ok((t1, t2, _)) => {
                        h.lat_ms.push((t2 - t0).as_secs_f64() * 1e3);
                        let job = tr.span("hit", t0, t2, 0, req);
                        tr.span("farm-router.submit", t0, t1, job, req);
                        tr.span("farm-router.wait", t1, t2, job, req);
                    }
                    Err(e) => h.fail(e),
                }
            }
            self.round += 1;
        }
    }
}

/// Whole rounds of closed-loop warm hits through the router, with no
/// think time, until `until(rounds sent)` says stop.
pub fn router_hits(
    cluster: &Cluster,
    ws: &WarmSet,
    seed: u64,
    stream: u64,
    tr: &mut Tracer,
    mut until: impl FnMut(u64) -> bool,
) -> Hits {
    let mut hc = match HitClient::connect(cluster, ws, seed, stream) {
        Ok(hc) => hc,
        Err(e) => {
            let mut h = Hits::default();
            h.fail(e);
            return h;
        }
    };
    while !until(hc.round) {
        hc.rounds(1, None, tr);
    }
    hc.hits
}

/// Warm hits sent straight to each key's owning shard: one round trip,
/// the shard answering from its cache inline. Spans: `farmd.hit`.
pub fn direct_hits(
    cluster: &Cluster,
    ws: &WarmSet,
    seed: u64,
    rounds: u64,
    tr: &mut Tracer,
) -> Result<Hits, String> {
    let mut conns = Vec::new();
    for a in &cluster.shard_addrs {
        conns.push(Conn::connect(a).map_err(|e| e.to_string())?);
    }
    let owners: Vec<usize> = ws.keys.iter().map(|k| cluster.owner(k)).collect();
    let lines: Vec<String> = ws.jobs.iter().map(Job::submit_line).collect();
    let mut h = Hits::default();
    for round in 0..rounds {
        for k in gen::hit_round(seed, 3, round, ws.jobs.len()) {
            h.attempted += 1;
            let t0 = Instant::now();
            let reply = match conns[owners[k]].request(&lines[k]) {
                Ok(r) => r,
                Err(e) => {
                    h.fail(e);
                    continue;
                }
            };
            let t1 = Instant::now();
            if raw_result(reply, "}") != Some(ws.bytes[k].as_str()) {
                h.fail(format!(
                    "direct hit on shard {}: result differs from the in-process run",
                    owners[k]
                ));
                continue;
            }
            tr.span("farmd.hit", t0, t1, 0, 3 << 32 | h.attempted);
            h.lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
        }
    }
    Ok(h)
}

/// Cache counters summed over the shards (`stats` verb).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardStats {
    /// Memory-tier hits.
    pub mem_hits: u64,
    /// Disk-tier hits.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Corrupt disk entries dropped.
    pub corrupt: u64,
    /// Disk-tier writes completed.
    pub disk_writes: u64,
}

impl ShardStats {
    /// Read and sum every shard's counters.
    pub fn read(cluster: &Cluster) -> Result<ShardStats, String> {
        let mut s = ShardStats::default();
        for a in &cluster.shard_addrs {
            let v = Conn::connect(a)
                .map_err(|e| e.to_string())?
                .request_value("{\"op\":\"stats\"}")?;
            let f =
                |k: &str| field_u64(&v, &["cache", k]).ok_or(format!("shard stats lack cache.{k}"));
            s.mem_hits += f("mem_hits")?;
            s.disk_hits += f("disk_hits")?;
            s.misses += f("misses")?;
            s.evictions += f("evictions")?;
            s.corrupt += f("corrupt")?;
            s.disk_writes += f("disk_writes")?;
        }
        Ok(s)
    }

    /// Counter growth since `before`.
    pub fn since(&self, before: &ShardStats) -> ShardStats {
        ShardStats {
            mem_hits: self.mem_hits - before.mem_hits,
            disk_hits: self.disk_hits - before.disk_hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            corrupt: self.corrupt - before.corrupt,
            disk_writes: self.disk_writes - before.disk_writes,
        }
    }
}

/// The router's delivery invariants: nothing lost, nothing delivered
/// twice, nothing failed.
pub fn router_invariants(cluster: &Cluster) -> Result<(), String> {
    let v = Conn::connect(&cluster.addr)
        .map_err(|e| e.to_string())?
        .request_value("{\"op\":\"stats\"}")?;
    for (k, path) in [
        ("lost", ["jobs", "lost"]),
        ("duplicates", ["jobs", "duplicates"]),
        ("failed", ["jobs", "failed"]),
    ] {
        match field_u64(&v, &path) {
            Some(0) => {}
            other => return Err(format!("router {k} = {other:?}")),
        }
    }
    Ok(())
}

/// One job of the miss stream, as measured.
#[derive(Debug)]
pub struct Miss {
    /// The job.
    pub job: Job,
    /// Submit→done latency, ms.
    pub lat_ms: f64,
    /// Result bytes as delivered.
    pub bytes: String,
    /// Request id its spans share.
    pub req: u64,
}

/// Outcome of the mixed pass.
#[derive(Debug, Default)]
pub struct Mixed {
    /// Jobs that ran a simulation.
    pub misses: Vec<Miss>,
    /// Misses attempted and failed.
    pub miss_attempted: u64,
    /// Misses whose reply was missing or wrong.
    pub miss_failed: u64,
    /// The concurrent warm hits.
    pub hits: Hits,
    /// Host seconds of the pass and process CPU seconds it used.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the pass.
    pub cpu_s: f64,
    /// Shard cache counters over the pass.
    pub stats: ShardStats,
    /// Invariant violations found after the pass.
    pub violations: Vec<String>,
    /// In-process `Registry` run time of each miss, ms (same order).
    pub run_ms: Vec<f64>,
}

/// Think time of the warm-hit client beside the miss stream: at most
/// 2,000 hits/s, so its load on the hit path does not depend on how much
/// CPU the simulations leave it.
pub const MIXED_HIT_PACE: Duration = Duration::from_micros(500);

/// Warm-hit rounds sent beside each round of the miss stream (576 hits,
/// 0.29 s at [`MIXED_HIT_PACE`], less than a miss round takes). The two
/// clients meet at the end of every round, so each round completes the
/// same jobs and a run's job mix does not depend on how fast the
/// simulations went.
pub const MIXED_HIT_ROUNDS: u64 = 48;

/// `serve_mixed`: one connection sends whole rounds of the miss stream
/// (fresh seeds plus `refresh` resubmits) until `min_s` has passed and
/// at least `min_rounds` rounds ran; a second connection sends
/// [`MIXED_HIT_ROUNDS`] paced rounds of warm hits beside each. Then
/// every miss is re-run in-process through `Registry` and compared byte
/// for byte.
pub fn mixed(
    cluster: &Cluster,
    ws: &WarmSet,
    seed: u64,
    min_s: f64,
    min_rounds: u64,
    tr: &mut Tracer,
) -> Result<Mixed, String> {
    let before = ShardStats::read(cluster)?;
    let mut hc = HitClient::connect(cluster, ws, seed, 2)?;
    let mut c = Conn::connect(&cluster.addr).map_err(|e| e.to_string())?;
    let round_end = Barrier::new(2);
    let more = AtomicBool::new(true);
    let mut m = Mixed::default();
    let mut hit_tr = tr.fork(3);
    let cpu0 = process_cpu_s();
    let t_start = Instant::now();
    std::thread::scope(|s| {
        let hitter = s.spawn(|| loop {
            hc.rounds(MIXED_HIT_ROUNDS, Some(MIXED_HIT_PACE), &mut hit_tr);
            round_end.wait();
            if !more.load(Ordering::SeqCst) {
                return hc.hits;
            }
        });
        let mut round = 0;
        loop {
            for job in gen::miss_round(seed, round, &ws.jobs) {
                m.miss_attempted += 1;
                let req = 4 << 32 | m.miss_attempted;
                let t0 = Instant::now();
                match router_job(&mut c, &job.submit_line(), None) {
                    Ok((_, t2, bytes)) => {
                        tr.span("miss", t0, t2, 0, req);
                        m.misses.push(Miss {
                            job,
                            lat_ms: (t2 - t0).as_secs_f64() * 1e3,
                            bytes,
                            req,
                        });
                    }
                    Err(e) => {
                        m.miss_failed += 1;
                        m.violations.push(e);
                    }
                }
            }
            round += 1;
            let go_on = round < min_rounds || t_start.elapsed().as_secs_f64() < min_s;
            more.store(go_on, Ordering::SeqCst);
            round_end.wait();
            if !go_on {
                break;
            }
        }
        m.hits = hitter.join().expect("hit client thread");
    });
    m.wall_s = t_start.elapsed().as_secs_f64();
    m.cpu_s = process_cpu_s() - cpu0;
    tr.absorb(hit_tr);
    m.stats = ShardStats::read(cluster)?.since(&before);

    // The shard caches saw exactly the warm hits the clients sent (refresh
    // jobs skip the lookup), at least one miss per fresh job, and nothing
    // from disk (the cache directories started empty).
    let fresh = m.misses.iter().filter(|x| !x.job.refresh).count() as u64;
    let hits_sent = m.hits.attempted - m.hits.failed;
    if m.stats.mem_hits != hits_sent {
        m.violations.push(format!(
            "shards counted {} memory hits, clients sent {hits_sent}",
            m.stats.mem_hits
        ));
    }
    if m.stats.misses < fresh {
        m.violations.push(format!(
            "shards counted {} misses for {fresh} fresh jobs",
            m.stats.misses
        ));
    }
    if m.stats.disk_hits != 0 || m.stats.corrupt != 0 {
        m.violations.push(format!(
            "unexpected disk hits or corrupt entries: {:?}",
            m.stats
        ));
    }
    if let Err(e) = router_invariants(cluster) {
        m.violations.push(e);
    }

    // The same jobs in-process, with no daemon: the reference bytes, and
    // the run time the daemon's latency is compared with.
    let reg = Registry;
    for x in &m.misses {
        let warm = ws.jobs.iter().position(|w| w.the_same_result_as(&x.job));
        let (want, ms) = match warm {
            Some(i) => (ws.bytes[i].clone(), ws.run_ms[i]),
            None => {
                let t = Instant::now();
                let b = reg.run(&x.job.spec())?;
                let end = Instant::now();
                tr.span("farmd.run", t, end, 0, x.req);
                (
                    String::from_utf8(b).map_err(|e| e.to_string())?,
                    (end - t).as_secs_f64() * 1e3,
                )
            }
        };
        m.run_ms.push(ms);
        if x.bytes != want {
            m.miss_failed += 1;
            m.violations.push(format!(
                "{:?}: served bytes differ from the in-process run",
                x.job
            ));
        }
    }
    Ok(m)
}

/// In-process costs of the hit path's building blocks, on the warm
/// keys: `content_key`, `Cache::get` and `Ring::preference`, in ns per
/// call.
pub fn hit_path_parts(cluster: &Cluster, ws: &WarmSet, seed: u64) -> (f64, f64, f64) {
    const CALLS: u64 = 200_000;
    let specs: Vec<_> = ws.jobs.iter().map(Job::spec).collect();
    let params: Vec<String> = specs.iter().map(|s| s.canonical_params()).collect();
    let order: Vec<usize> = (0..CALLS / ws.jobs.len() as u64 + 1)
        .flat_map(|r| gen::hit_round(seed, 9, r, ws.jobs.len()))
        .take(CALLS as usize)
        .collect();
    let ev = bfly_sim::ENGINE_VERSION;

    let t = Instant::now();
    for &k in &order {
        std::hint::black_box(content_key(&specs[k].exp, &params[k], specs[k].seed, ev));
    }
    let key_ns = t.elapsed().as_nanos() as f64 / CALLS as f64;

    let defaults = ServerConfig::default();
    let cache = Cache::new(None, defaults.cache_shards, defaults.cache_bytes);
    for (k, b) in ws.keys.iter().zip(&ws.bytes) {
        cache.put(k, b.as_bytes().to_vec());
    }
    let t = Instant::now();
    for &k in &order {
        std::hint::black_box(cache.get(&ws.keys[k]));
    }
    let get_ns = t.elapsed().as_nanos() as f64 / CALLS as f64;

    let mut ring = Ring::new(
        RouterConfig::default().replicas,
        RouterConfig::default().vnodes,
    );
    for a in &cluster.shard_addrs {
        ring.add(a);
    }
    let t = Instant::now();
    for &k in &order {
        std::hint::black_box(ring.preference(&ws.keys[k]));
    }
    let ring_ns = t.elapsed().as_nanos() as f64 / CALLS as f64;
    (key_ns, get_ns, ring_ns)
}

/// Median per-miss overhead: daemon latency minus in-process run time.
pub fn miss_overhead_ms(m: &Mixed) -> f64 {
    let d: Vec<f64> = m
        .misses
        .iter()
        .zip(&m.run_ms)
        .map(|(x, r)| x.lat_ms - r)
        .collect();
    median(&d)
}
