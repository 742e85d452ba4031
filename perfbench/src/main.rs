//! perfbench — end-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_serial|serve_hits|serve_mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured on the named workload; with
//! `--trace 1` they are the per-layer set, and a Chrome trace is written
//! to `.perfbench-out/`. `--smoke` is a traced run of a few operations
//! per workload. See README.md for what each metric means.

mod gen;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use serve::{Cluster, Hits, WarmSet};
use stats::{median, percentile, process_cpu_s, HostCpu};
use trace::Tracer;

/// The workloads, in the order `--smoke` and the traced run visit them.
const WORKLOADS: [&str; 3] = ["sweep_serial", "serve_hits", "serve_mixed"];

/// Cluster set-ups per untraced serve run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where traces and the shards' cache directories go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    let mut smoke = false;
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == v)
                    .ok_or(format!("unknown workload `{v}` (one of {WORKLOADS:?})"))?
            }
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(0.0..=600.0).contains(&a.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if smoke {
        a = Args {
            workload: WORKLOADS[0],
            seconds: 0.0,
            trace: true,
            ..a
        };
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// One run's result.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn hits(&mut self, h: &Hits) {
        self.count(h.attempted, h.failed);
        self.violations.extend(h.first_error.clone());
    }

    fn json(&self) -> String {
        let mut correct = self.failed == 0 && self.violations.is_empty() && self.attempted > 0;
        let mut m = String::new();
        for (i, (name, v, unit)) in self.metrics.iter().enumerate() {
            // A metric that could not be measured makes the run incorrect
            // rather than the output invalid JSON.
            let v = if v.is_finite() {
                *v
            } else {
                correct = false;
                -1.0
            };
            let sep = if i == 0 { "" } else { "," };
            m.push_str(&format!(
                "{sep}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.attempted, self.failed
        )
    }
}

/// The untraced and traced sweep passes: one untimed warm-up sweep (the
/// set-up, and the reference digest), then whole sweeps until `seconds`.
struct SweepPass {
    setup_s: f64,
    runs: Vec<sweep::SweepOut>,
    cpu_s: f64,
}

fn sweep_pass(seed: u64, seconds: f64, tr: &mut Tracer, rep: &mut Report) -> SweepPass {
    bfly_bench::sweep::set_force_serial(true);
    let t = Instant::now();
    let first = sweep::run_sweep(seed, 0, &mut Tracer::new(false, t, 0));
    let setup_s = t.elapsed().as_secs_f64();
    rep.violations
        .extend(first.failures.iter().map(|f| format!("warm-up sweep: {f}")));
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || t.elapsed().as_secs_f64() < seconds {
        let s = sweep::run_sweep(seed, runs.len() as u64 + 1, tr);
        let ok = s.failures.is_empty() && s.digest == first.digest;
        rep.count(1, u64::from(!ok));
        if s.digest != first.digest {
            rep.violations
                .push("a sweep's simulated results differ from the warm-up sweep's".into());
        }
        rep.violations.extend(s.failures.iter().cloned());
        runs.push(s);
    }
    bfly_bench::sweep::set_force_serial(false);
    SweepPass {
        setup_s,
        runs,
        cpu_s: process_cpu_s() - cpu0,
    }
}

/// Boot a cluster, warm every key and send one round of warm hits.
fn set_up(ws: &WarmSet, seed: u64, dir: PathBuf) -> Result<Cluster, String> {
    let cluster = Cluster::boot(&dir)?;
    serve::warm(&cluster, ws)?;
    let h = serve::router_hits(
        &cluster,
        ws,
        seed,
        1,
        &mut Tracer::new(false, Instant::now(), 0),
        |r| r >= 1,
    );
    match h.first_error {
        Some(e) => Err(format!("warm-up hits: {e}")),
        None => Ok(cluster),
    }
}

/// `sets` cluster set-ups, keeping the last; returns it and the median
/// set-up time.
fn set_up_median(ws: &WarmSet, seed: u64, sets: usize) -> Result<(Cluster, f64), String> {
    let dir = PathBuf::from(OUT_DIR).join(format!("cache-{}", std::process::id()));
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let c = set_up(ws, seed, dir.clone())?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() == sets {
            return Ok((c, median(&times)));
        }
        c.shutdown();
    }
}

/// Warm hits through the router for `seconds` (at least `min_rounds`
/// rounds), checking the shards' hit count against the hits sent.
fn hits_pass(
    c: &Cluster,
    ws: &WarmSet,
    seed: u64,
    seconds: f64,
    min_rounds: u64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(Hits, f64, f64), String> {
    let before = serve::ShardStats::read(c)?;
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let h = serve::router_hits(c, ws, seed, 0, tr, |r| {
        r >= min_rounds && t.elapsed().as_secs_f64() >= seconds
    });
    let wall = t.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    let d = serve::ShardStats::read(c)?.since(&before);
    let sent = h.attempted - h.failed;
    if d.mem_hits != sent || d.misses != 0 {
        rep.violations.push(format!(
            "shards counted {} hits and {} misses for {sent} warm hits",
            d.mem_hits, d.misses
        ));
    }
    if let Err(e) = serve::router_invariants(c) {
        rep.violations.push(e);
    }
    rep.hits(&h);
    Ok((h, wall, cpu))
}

fn untraced(a: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut tr = Tracer::new(false, Instant::now(), 0);
    let host0 = HostCpu::read();
    match a.workload {
        "sweep_serial" => {
            let p = sweep_pass(a.seed, a.seconds, &mut tr, &mut rep);
            let walls: Vec<f64> = p.runs.iter().map(|s| s.wall_s).collect();
            rep.metric("job_p50_ms", median(&walls) * 1e3, "ms");
            rep.metric("cpu_ms_per_job", p.cpu_s * 1e3 / p.runs.len() as f64, "ms");
            rep.metric("setup_s", p.setup_s, "s");
            rep.notes.push(format!(
                "sweep_serial: {} sweeps, median {:.3} s, {} polls each",
                p.runs.len(),
                median(&walls),
                p.runs[0].polls
            ));
        }
        "serve_hits" => {
            let ws = WarmSet::compute()?;
            let (c, setup_s) = set_up_median(&ws, a.seed, SETUPS)?;
            let (h, wall, cpu) = hits_pass(&c, &ws, a.seed, a.seconds, 1, &mut tr, &mut rep)?;
            c.shutdown();
            let ok = h.lat_ms.len() as f64;
            rep.metric("job_p50_ms", median(&h.lat_ms), "ms");
            rep.metric("cpu_ms_per_job", cpu * 1e3 / ok, "ms");
            rep.metric("setup_s", setup_s, "s");
            rep.notes.push(format!(
                "serve_hits: {} hits in {wall:.2} s = {:.0} jobs/s; p50 {:.3} ms, p99 {:.3} ms",
                h.lat_ms.len(),
                ok / wall,
                median(&h.lat_ms),
                percentile(&h.lat_ms, 99.0)
            ));
        }
        _ => {
            let ws = WarmSet::compute()?;
            let (c, setup_s) = set_up_median(&ws, a.seed, SETUPS)?;
            let m = serve::mixed(&c, &ws, a.seed, a.seconds, 1, &mut tr)?;
            c.shutdown();
            let lat: Vec<f64> = m.misses.iter().map(|x| x.lat_ms).collect();
            rep.count(m.miss_attempted, m.miss_failed);
            rep.hits(&m.hits);
            rep.violations.extend(m.violations.iter().cloned());
            let jobs = (m.misses.len() + m.hits.lat_ms.len()) as f64;
            rep.metric("job_p50_ms", median(&lat), "ms");
            rep.metric("cpu_ms_per_job", m.cpu_s * 1e3 / jobs, "ms");
            rep.metric("setup_s", setup_s, "s");
            rep.notes.push(format!(
                "serve_mixed: {} misses (p50 {:.2} ms, p99 {:.2} ms) and {} hits (p50 {:.3} ms) in {:.2} s = {:.0} jobs/s",
                lat.len(),
                median(&lat),
                percentile(&lat, 99.0),
                m.hits.lat_ms.len(),
                median(&m.hits.lat_ms),
                m.wall_s,
                jobs / m.wall_s
            ));
        }
    }
    rep.notes.push(format!(
        "host steal over the run: {:.2}%",
        HostCpu::read().steal_pct_since(&host0)
    ));
    Ok(rep)
}

/// The traced run: every layer of every workload, the named workload for
/// `seconds` and the other two for a few operations, so every per-layer
/// metric has a measured value.
fn traced(a: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    let epoch = Instant::now();
    let mut tr = Tracer::new(true, epoch, 1);
    let host0 = HostCpu::read();
    let secs = |w: &str| if w == a.workload { a.seconds } else { 0.0 };
    let mut op_p50 = f64::NAN;

    // Simulator layers.
    let p = sweep_pass(a.seed, secs("sweep_serial"), &mut tr, &mut rep);
    let n = p.runs.len() as f64;
    let med =
        |f: &dyn Fn(&sweep::SweepOut) -> f64| median(&p.runs.iter().map(f).collect::<Vec<_>>());
    let sweep_ms = med(&|s| s.wall_s * 1e3);
    if a.workload == "sweep_serial" {
        op_p50 = sweep_ms;
    }
    let first = &p.runs[0];
    rep.metric("sim.polls", first.polls as f64, "count");
    rep.metric(
        "sim.polls_per_s",
        med(&|s| s.polls as f64 / s.engine_s),
        "1/s",
    );
    let bare: Vec<f64> = (0..3).map(|_| sweep::bare_engine_ns_per_poll()).collect();
    rep.metric("sim.bare_ns_per_poll", median(&bare), "ns");
    rep.metric(
        "sim.pdes_events_per_s",
        med(&|s| s.pdes_events as f64 / s.pdes_s),
        "1/s",
    );
    rep.metric("machine.build_ms", med(&|s| s.build_s * 1e3), "ms");
    rep.metric("machine.run_ms", med(&|s| s.finish_s * 1e3), "ms");
    rep.metric(
        "machine.run_ns_per_poll",
        med(&|s| s.finish_s * 1e9 / s.gauss_polls as f64),
        "ns",
    );
    rep.metric("machine.remote_refs", first.remote_refs as f64, "count");
    rep.metric(
        "machine.block_transfers",
        first.block_transfers as f64,
        "count",
    );
    let mut bench_sum = 0.0;
    for (span, metric) in [
        ("bench.fig5", "bench.fig5_ms"),
        ("bench.tab3", "bench.tab3_ms"),
        ("bench.tab5", "bench.tab5_ms"),
        ("bench.tab15", "bench.tab15_ms"),
        ("bench.phold", "bench.phold_ms"),
    ] {
        let v = median(&tr.durations_ms(span));
        bench_sum += v;
        rep.metric(metric, v, "ms");
    }
    rep.metric("trace.coverage_sweep", bench_sum / sweep_ms, "ratio");
    rep.notes
        .push(format!("traced sweeps: {n}, median {sweep_ms:.1} ms"));

    // Serving layers.
    let ws = WarmSet::compute()?;
    let (c, _) = set_up_median(&ws, a.seed, 1)?;
    let result = (|| -> Result<(), String> {
        let (h, _, _) = hits_pass(&c, &ws, a.seed, secs("serve_hits"), 20, &mut tr, &mut rep)?;
        let hit_p50 = median(&h.lat_ms);
        if a.workload == "serve_hits" {
            op_p50 = hit_p50;
        }
        let submit = median(&tr.durations_ms("farm-router.submit"));
        let wait = median(&tr.durations_ms("farm-router.wait"));
        rep.metric("farm-router.submit_rtt_p50_us", submit * 1e3, "us");
        rep.metric("farm-router.wait_rtt_p50_us", wait * 1e3, "us");
        rep.metric("farm-router.hit_p99_ms", percentile(&h.lat_ms, 99.0), "ms");
        rep.metric("trace.coverage_hits", (submit + wait) / hit_p50, "ratio");

        let before = serve::ShardStats::read(&c)?;
        let direct = serve::direct_hits(&c, &ws, a.seed, 20, &mut tr)?;
        rep.hits(&direct);
        let sent = direct.attempted - direct.failed;
        if serve::ShardStats::read(&c)?.since(&before).mem_hits != sent {
            rep.violations
                .push("direct hits were not all counted as memory hits".into());
        }
        rep.metric("farmd.hit_rtt_p50_us", median(&direct.lat_ms) * 1e3, "us");
        let (key_ns, get_ns, ring_ns) = serve::hit_path_parts(&c, &ws, a.seed);
        rep.metric("farmd.content_key_ns", key_ns, "ns");
        rep.metric("farmd.cache_get_ns", get_ns, "ns");
        rep.metric("farm-router.ring_ns", ring_ns, "ns");

        let m = serve::mixed(&c, &ws, a.seed, secs("serve_mixed"), 2, &mut tr)?;
        rep.count(m.miss_attempted, m.miss_failed);
        rep.hits(&m.hits);
        rep.violations.extend(m.violations.iter().cloned());
        let miss_p50 = median(&m.misses.iter().map(|x| x.lat_ms).collect::<Vec<_>>());
        if a.workload == "serve_mixed" {
            op_p50 = miss_p50;
        }
        let run_ms = median(&m.run_ms);
        let overhead = serve::miss_overhead_ms(&m);
        rep.metric("farmd.run_ms", run_ms, "ms");
        rep.metric("farmd.miss_overhead_ms", overhead, "ms");
        rep.metric("farmd.mem_hits", m.stats.mem_hits as f64, "count");
        rep.metric("farmd.misses", m.stats.misses as f64, "count");
        rep.metric("farmd.disk_writes", m.stats.disk_writes as f64, "count");
        rep.metric("farmd.evictions", m.stats.evictions as f64, "count");
        rep.metric("farm-router.mixed_hit_p50_ms", median(&m.hits.lat_ms), "ms");
        rep.metric(
            "trace.coverage_mixed",
            (run_ms + overhead) / miss_p50,
            "ratio",
        );
        Ok(())
    })();
    c.shutdown();
    result?;

    rep.metric("trace.job_p50_ms", op_p50, "ms");
    rep.metric("host.peak_rss_mb", stats::peak_rss_mb(), "MB");
    rep.metric(
        "host.steal_pct",
        HostCpu::read().steal_pct_since(&host0),
        "%",
    );
    let path = PathBuf::from(OUT_DIR).join(format!("trace_{}_s{}.json", a.workload, a.seed));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    rep.notes.push(format!(
        "{} spans written to {}",
        tr.spans().len(),
        path.display()
    ));
    Ok(rep)
}

/// Restrict this thread, and every thread it starts afterwards, to the
/// first CPU it may run on.
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // Room for 1,024 CPUs, the size glibc's `cpu_set_t` has.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // serve_hits runs on one CPU: on two vCPUs each of a hit's four
    // thread hand-offs may wake the other, idle vCPU, and how often that
    // happens moved the median 13% between identical runs (README.md).
    if a.workload == "serve_hits" {
        if let Err(e) = pin_to_one_cpu() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    let result = if a.trace { traced(&a) } else { untraced(&a) };
    match result {
        Ok(rep) => {
            for n in &rep.notes {
                println!("# {n}");
            }
            for v in rep.violations.iter().take(10) {
                println!("# check failed: {v}");
            }
            println!("{}", rep.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
