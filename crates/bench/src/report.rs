//! Machine-readable performance reports (`BENCH_sim.json`).
//!
//! Every PR from this one onward commits a `BENCH_sim.json` at the repo
//! root holding (a) engine micro-benchmark throughput (task polls per
//! host second, from [`bfly_sim::exec::RunStats`]) and (b) wall-clock for
//! a representative experiment sweep — so the perf trajectory of the
//! simulator itself is tracked, not just the simulated numbers it
//! produces. The format is hand-rolled JSON (dependency policy,
//! DESIGN.md §7) with one flat headline field, `engine_events_per_sec`,
//! that [`check_headline`] can re-extract without a JSON parser for the
//! CI regression gate.

use std::fmt::Write as _;
use std::time::Duration;

use bfly_sim::Sim;

use crate::table::push_json_str;
use crate::Table;

/// One named engine micro-benchmark result.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Workload name (`timer_churn`, `spawn_join`, ...).
    pub name: String,
    /// Task polls performed (from `RunStats::events`).
    pub events: u64,
    /// Host wall-clock spent inside `Sim::run`.
    pub wall: Duration,
}

impl Metric {
    /// Polls per host second for this workload.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Engine counters accumulated across every simulation an experiment ran.
///
/// Used by the `--stats` flag of the experiment binaries: each sweep point
/// contributes its [`RunStats`](bfly_sim::exec::RunStats), and the summary
/// line reports aggregate polls per *CPU*-second (wall times are summed
/// across worker threads, so under `parallel_sweep` this is per-core
/// engine throughput, not end-to-end sweep wall-clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Total task polls across all runs.
    pub events: u64,
    /// Total tasks spawned across all runs.
    pub tasks: u64,
    /// Total simulations accumulated.
    pub sims: u64,
    /// Summed host wall time spent inside `Sim::run`.
    pub wall: Duration,
}

impl EngineStats {
    /// Fold one run's counters in.
    pub fn add(&mut self, r: &bfly_sim::exec::RunStats) {
        self.events += r.events;
        self.tasks += r.tasks;
        self.sims += 1;
        self.wall += r.wall;
    }

    /// Aggregate engine throughput: polls per summed host CPU-second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// The `--stats` summary line the experiment binaries print.
    pub fn summary(&self) -> String {
        format!(
            "engine: {} polls / {} tasks across {} sims in {:.1} ms CPU = {:.2} Mpolls/s",
            self.events,
            self.tasks,
            self.sims,
            self.wall.as_secs_f64() * 1e3,
            self.events_per_sec() / 1e6
        )
    }
}

/// Wall-clock measurement of one experiment sweep.
#[derive(Debug, Clone)]
pub struct SweepMeasure {
    /// Sweep name (e.g. `fig5_gauss_quick`).
    pub name: String,
    /// Number of sweep points.
    pub points: usize,
    /// Worker threads the sweep driver used.
    pub threads: usize,
    /// End-to-end host wall-clock for the sweep.
    pub wall: Duration,
}

/// The full report written to `BENCH_sim.json`.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Engine micro-benchmarks.
    pub metrics: Vec<Metric>,
    /// Experiment-sweep wall-clock measurements.
    pub sweeps: Vec<SweepMeasure>,
    /// Result tables embedded for provenance (via [`Table::to_json`]).
    pub tables: Vec<String>,
    /// Cold/warm serving benchmark (`perf_report --serve-bench`); absent
    /// when the serving layer wasn't exercised.
    pub serve: Option<crate::farm::ServeBenchResult>,
    /// Sustained serving-throughput benchmark (both io-modes, plus the
    /// open-loop router leg when run); absent when not exercised.
    pub sustained: Option<crate::sustained::SustainedResult>,
    /// Sharded-cluster latency benchmark (`perf_report --cluster-bench`);
    /// absent when the router wasn't exercised.
    pub cluster: Option<crate::cluster::ClusterBenchResult>,
    /// PDES engine benchmark (`perf_report --pdes-bench`); absent when
    /// the PDES engine wasn't exercised.
    pub pdes: Option<PdesBench>,
}

/// The `pdes` report section: raw event-loop throughput of the PDES
/// engine (PHOLD workloads — every event is one queue pop, handler, RNG
/// draw, and push, so events/s measures the engine, not application
/// arithmetic).
#[derive(Debug, Clone)]
pub struct PdesBench {
    /// Per-workload engine throughput.
    pub metrics: Vec<Metric>,
}

impl PdesBench {
    /// Geometric mean of per-workload events/sec — same aggregation as
    /// [`PerfReport::headline_events_per_sec`], same reasoning.
    pub fn geomean_events_per_sec(&self) -> f64 {
        let rates: Vec<f64> = self
            .metrics
            .iter()
            .map(Metric::events_per_sec)
            .filter(|r| *r > 0.0)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = rates.iter().map(|r| r.ln()).sum();
        (log_sum / rates.len() as f64).exp()
    }
}

impl PerfReport {
    /// Headline number: the geometric mean of per-workload events/sec.
    /// A single workload can't mask a regression in another the way an
    /// arithmetic mean (dominated by the cheapest-event workload) would.
    pub fn headline_events_per_sec(&self) -> f64 {
        let rates: Vec<f64> = self
            .metrics
            .iter()
            .map(Metric::events_per_sec)
            .filter(|r| *r > 0.0)
            .collect();
        if rates.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = rates.iter().map(|r| r.ln()).sum();
        (log_sum / rates.len() as f64).exp()
    }

    /// Attach a rendered [`Table`] for provenance.
    pub fn push_table(&mut self, t: &Table) {
        self.tables.push(t.to_json());
    }

    /// Serialize. `engine_events_per_sec` is deliberately the first,
    /// flat field so [`check_headline`] can find it with a string scan.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"bfly-bench-report/1\",\n  \
             \"engine_events_per_sec\": {:.0},\n  \"microbench\": [",
            self.headline_events_per_sec()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_str(&mut out, &m.name);
            let _ = write!(
                out,
                ", \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}}}",
                m.events,
                m.wall.as_secs_f64() * 1e3,
                m.events_per_sec()
            );
        }
        out.push_str("\n  ],\n  \"sweeps\": [");
        for (i, s) in self.sweeps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_str(&mut out, &s.name);
            let _ = write!(
                out,
                ", \"points\": {}, \"threads\": {}, \"wall_ms\": {:.1}}}",
                s.points,
                s.threads,
                s.wall.as_secs_f64() * 1e3
            );
        }
        out.push_str("\n  ],\n  \"serve\": ");
        match &self.serve {
            None => out.push_str("null"),
            Some(s) => {
                let _ = write!(
                    out,
                    "{{\"jobs\": {}, \"cold_wall_ms\": {:.1}, \"warm_wall_ms\": {:.3}, \
                     \"hits\": {}, \"hit_rate\": {:.3}, \"speedup\": {:.1}}}",
                    s.jobs,
                    s.cold_wall.as_secs_f64() * 1e3,
                    s.warm_wall.as_secs_f64() * 1e3,
                    s.hits,
                    s.hit_rate(),
                    // Clamp: an unmeasurably fast warm leg must not print
                    // `inf` (invalid JSON).
                    s.speedup().min(1e6)
                );
            }
        }
        out.push_str(",\n  \"serve_sustained\": ");
        match &self.sustained {
            None => out.push_str("null"),
            Some(s) => {
                let direct = |out: &mut String, d: &crate::sustained::DirectLeg| {
                    let _ = write!(
                        out,
                        "{{\"requests\": {}, \"wall_ms\": {:.1}, \"rps\": {:.0}, \
                         \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
                        d.requests,
                        d.wall.as_secs_f64() * 1e3,
                        d.rps(),
                        d.lat.p50.as_micros(),
                        d.lat.p99.as_micros(),
                        d.lat.p999.as_micros()
                    );
                };
                let _ = write!(
                    out,
                    "{{\"conns\": {}, \"window\": {}, \"reactor\": ",
                    s.reactor.conns, s.reactor.window
                );
                direct(&mut out, &s.reactor);
                out.push_str(", \"threads\": ");
                direct(&mut out, &s.threads);
                out.push_str(", \"router\": ");
                match &s.router {
                    None => out.push_str("null"),
                    Some(r) => {
                        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                        let _ = write!(
                            out,
                            "{{\"shards\": {}, \"conns\": {}, \"offered_rps\": {}, \
                             \"completed\": {}, \"rps\": {:.0}, \"refused\": {}, \
                             \"warm_p50_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \
                             \"warm_p999_ms\": {:.3}, \"cold_p50_ms\": {:.3}, \
                             \"cold_p99_ms\": {:.3}, \"cold_p999_ms\": {:.3}, \
                             \"rerouted\": {}, \"lost\": {}}}",
                            r.shards,
                            r.conns,
                            r.offered_rps,
                            r.completed,
                            r.rps(),
                            r.refused,
                            ms(r.warm.p50),
                            ms(r.warm.p99),
                            ms(r.warm.p999),
                            ms(r.cold.p50),
                            ms(r.cold.p99),
                            ms(r.cold.p999),
                            r.rerouted,
                            r.lost
                        );
                    }
                }
                out.push('}');
            }
        }
        out.push_str(",\n  \"cluster\": ");
        match &self.cluster {
            None => out.push_str("null"),
            Some(c) => {
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                let _ = write!(
                    out,
                    "{{\"shards\": {}, \"replicas\": {}, \"jobs\": {}, \
                     \"cold_p50_ms\": {:.1}, \"cold_p99_ms\": {:.1}, \"cold_p999_ms\": {:.1}, \
                     \"warm_p50_ms\": {:.3}, \"warm_p99_ms\": {:.3}, \"warm_p999_ms\": {:.3}, \
                     \"failover_p50_ms\": {:.3}, \"failover_p99_ms\": {:.3}, \
                     \"failover_p999_ms\": {:.3}, \
                     \"rerouted\": {}, \"lost\": {}}}",
                    c.shards,
                    c.replicas,
                    c.jobs,
                    ms(c.cold.p50),
                    ms(c.cold.p99),
                    ms(c.cold.p999),
                    ms(c.warm.p50),
                    ms(c.warm.p99),
                    ms(c.warm.p999),
                    ms(c.failover.p50),
                    ms(c.failover.p99),
                    ms(c.failover.p999),
                    c.rerouted,
                    c.lost
                );
            }
        }
        out.push_str(",\n  \"pdes\": ");
        match &self.pdes {
            None => out.push_str("null"),
            Some(p) => {
                let _ = write!(
                    out,
                    "{{\"events_per_sec_geomean\": {:.0}, \"microbench\": [",
                    p.geomean_events_per_sec()
                );
                for (i, m) in p.metrics.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("{\"name\": ");
                    push_json_str(&mut out, &m.name);
                    let _ = write!(
                        out,
                        ", \"events\": {}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}}}",
                        m.events,
                        m.wall.as_secs_f64() * 1e3,
                        m.events_per_sec()
                    );
                }
                out.push_str("]}");
            }
        }
        out.push_str(",\n  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(t);
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Extract `engine_events_per_sec` from a previously written report
/// without a JSON parser: scan for the key, parse the number after the
/// colon. Returns `None` if the key is absent or malformed.
pub fn parse_headline(json: &str) -> Option<f64> {
    const KEY: &str = "\"engine_events_per_sec\":";
    let at = json.find(KEY)? + KEY.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// CI regression gate: `Ok` if `current` is within `tolerance` (e.g.
/// `0.20` = may be up to 20 % slower) of the baseline report's headline.
/// The error string carries both numbers for the CI log.
pub fn check_headline(baseline_json: &str, current: f64, tolerance: f64) -> Result<(), String> {
    let base = parse_headline(baseline_json)
        .ok_or_else(|| "baseline has no engine_events_per_sec field".to_string())?;
    let floor = base * (1.0 - tolerance);
    if current < floor {
        Err(format!(
            "engine throughput regressed: {current:.0} events/sec vs baseline {base:.0} \
             (floor {floor:.0} at {:.0}% tolerance)",
            tolerance * 100.0
        ))
    } else {
        Ok(())
    }
}

/// Extract the `wall_ms` of the sweep named `name` from a previously
/// written report, without a JSON parser: find the sweep's name key, then
/// the first `"wall_ms":` after it. Returns `None` if absent or malformed.
pub fn parse_sweep_wall_ms(json: &str, name: &str) -> Option<f64> {
    let mut key = String::from("\"name\": ");
    push_json_str(&mut key, name);
    let at = json.find(&key)? + key.len();
    const WALL: &str = "\"wall_ms\":";
    let rest = &json[at..];
    let w = rest.find(WALL)? + WALL.len();
    let rest = rest[w..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// CI probe-overhead gate: `Ok` if `current_ms` for sweep `name` is within
/// `tolerance` (e.g. `0.02` = may be up to 2 % *slower*) of the baseline
/// report's wall-clock for the same sweep. Compare a best-of-k current
/// wall against a single-run baseline so host noise biases toward passing
/// while a real slowdown (the disabled-probe branches costing more than
/// the budget) still trips the gate.
pub fn check_sweep(
    baseline_json: &str,
    name: &str,
    current_ms: f64,
    tolerance: f64,
) -> Result<(), String> {
    let base = parse_sweep_wall_ms(baseline_json, name)
        .ok_or_else(|| format!("baseline has no sweep named {name}"))?;
    let ceiling = base * (1.0 + tolerance);
    if current_ms > ceiling {
        Err(format!(
            "sweep {name} slowed down: {current_ms:.1} ms vs baseline {base:.1} ms \
             (ceiling {ceiling:.1} at {:.0}% tolerance)",
            tolerance * 100.0
        ))
    } else {
        Ok(())
    }
}

/// Extract a numeric `field` out of the named top-level `section` of a
/// previously written report, without a JSON parser: find `"section":`,
/// then the first `"field":` after it, then the number. Returns `None`
/// when the section is absent, `null`, or the field is missing — the
/// trend gate uses that to skip sections older baselines don't carry.
pub fn parse_section_field(json: &str, section: &str, field: &str) -> Option<f64> {
    let skey = format!("\"{section}\":");
    let at = json.find(&skey)? + skey.len();
    let mut rest = json[at..].trim_start();
    if rest.starts_with("null") {
        return None;
    }
    // Take the first occurrence of the key that is followed by a number:
    // a key can name both an object and a scalar inside it
    // (`"leg": {..., "leg": 6.00}`), and a `null` slot must read as
    // absent, not as a parse of the word `null`.
    let fkey = format!("\"{field}\":");
    loop {
        let f = rest.find(&fkey)? + fkey.len();
        let v = rest[f..].trim_start();
        let end = v
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
            .unwrap_or(v.len());
        if end > 0 {
            if let Ok(n) = v[..end].parse() {
                return Some(n);
            }
        }
        rest = &rest[f..];
    }
}

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput): fail when current < floor.
    Higher,
    /// Smaller is better (wall-clock, latency): fail when current > ceiling.
    Lower,
}

/// One per-section trend gate: `Ok(true)` = checked and passed,
/// `Ok(false)` = skipped (the baseline predates this section — the next
/// committed report will pick it up), `Err` = regression, with both
/// numbers in the message.
pub fn check_section(
    baseline_json: &str,
    current_json: &str,
    section: &str,
    field: &str,
    tolerance: f64,
    dir: Direction,
) -> Result<bool, String> {
    let Some(base) = parse_section_field(baseline_json, section, field) else {
        return Ok(false);
    };
    let cur = parse_section_field(current_json, section, field)
        .ok_or_else(|| format!("current report lost section {section}.{field} the baseline has"))?;
    let ok = match dir {
        Direction::Higher => cur >= base * (1.0 - tolerance),
        Direction::Lower => cur <= base * (1.0 + tolerance),
    };
    if ok {
        Ok(true)
    } else {
        Err(format!(
            "{section}.{field} regressed: {cur:.1} vs baseline {base:.1} \
             ({:.0}% tolerance, {})",
            tolerance * 100.0,
            match dir {
                Direction::Higher => "higher is better",
                Direction::Lower => "lower is better",
            }
        ))
    }
}

/// Run the PDES engine benchmark: PHOLD throughput workloads, each timed
/// after one warm-up run.
pub fn pdes_bench() -> PdesBench {
    use bfly_apps::phold::phold_sim;

    // (name, nodes, jobs/node, hops): ~1.2M events each, shaped to
    // stress different engine paths — many cold heaps, one hot heap,
    // and a wide fan of in-flight events.
    let shapes: [(&str, u32, u32, u32); 3] = [
        ("phold_wide_1k", 1024, 12, 100),
        ("phold_dense_64", 64, 64, 300),
        ("phold_deep_256", 256, 16, 300),
    ];
    let mut metrics = Vec::new();
    for (name, nodes, jobs, hops) in shapes {
        let build = || phold_sim(11, nodes, jobs, hops, 4_000);
        let mut warm = build();
        warm.run();
        let mut sim = build();
        let t = std::time::Instant::now();
        let stats = sim.run();
        let wall = t.elapsed();
        metrics.push(Metric {
            name: name.to_string(),
            events: stats.events,
            wall,
        });
    }
    PdesBench { metrics }
}

/// Run the standard engine micro-benchmarks. Deterministic workloads, so
/// the only run-to-run variance is host timing. Sized to finish in well
/// under a second each in release builds.
pub fn engine_microbench() -> Vec<Metric> {
    vec![
        metric("timer_churn", timer_churn),
        metric("spawn_join", spawn_join),
        metric("yield_storm", yield_storm),
        metric("timeout_cancel", timeout_cancel),
    ]
}

fn metric(name: &str, f: fn() -> bfly_sim::exec::RunStats) -> Metric {
    // One throwaway run to warm caches/allocator, then the measured run.
    let _ = f();
    let stats = f();
    Metric {
        name: name.to_string(),
        events: stats.events,
        wall: stats.wall,
    }
}

/// Many tasks sleeping staggered durations: exercises the timer wheel
/// (near horizon), the overflow heap (every 16th sleep is multi-ms), and
/// batched same-instant pops (collision-heavy durations).
fn timer_churn() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(1);
    for t in 0..256u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..1_500u64 {
                let d = if i % 16 == 0 {
                    5_000_000 + t * 131 // far future: overflow heap
                } else {
                    (t * 97 + i * 53) % 4_096 + 1 // near: wheel
                };
                s.sleep(d).await;
            }
        });
    }
    sim.run()
}

/// Waves of short-lived tasks joined by a parent: slab alloc/retire and
/// join-handle wakes dominate.
fn spawn_join() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(2);
    let root = sim.clone();
    sim.spawn(async move {
        for wave in 0..2_000u64 {
            let hs: Vec<_> = (0..32u64)
                .map(|i| {
                    let s = root.clone();
                    root.spawn(async move { s.sleep(wave % 7 + i % 5 + 1).await })
                })
                .collect();
            bfly_sim::exec::join_all(hs).await;
        }
    });
    sim.run()
}

/// Pure ready-queue churn: tasks that only yield. Measures the waker
/// vtable + queue push/pop path with no timers involved.
fn yield_storm() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(3);
    for _ in 0..8 {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..100_000u32 {
                s.yield_now().await;
            }
        });
    }
    sim.run()
}

/// Timeouts that usually expire: every lost race drops a `Delay`
/// mid-flight, exercising the lazy-cancellation side list.
fn timeout_cancel() -> bfly_sim::exec::RunStats {
    let sim = Sim::with_seed(4);
    for t in 0..64u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..2_000u64 {
                let dur = (t + i) % 900 + 100;
                let _ = s.timeout(dur / 2, s.sleep(dur)).await;
            }
        });
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_headline() {
        let report = PerfReport {
            metrics: vec![
                Metric {
                    name: "a".into(),
                    events: 1_000_000,
                    wall: Duration::from_millis(100),
                },
                Metric {
                    name: "b".into(),
                    events: 4_000_000,
                    wall: Duration::from_millis(100),
                },
            ],
            sweeps: vec![SweepMeasure {
                name: "s".into(),
                points: 8,
                threads: 4,
                wall: Duration::from_secs(1),
            }],
            tables: Vec::new(),
            serve: None,
            sustained: None,
            cluster: None,
            pdes: None,
        };
        // geomean(1e7, 4e7) = 2e7
        assert!((report.headline_events_per_sec() - 2e7).abs() < 1e3);
        let json = report.to_json();
        let parsed = parse_headline(&json).unwrap();
        assert!((parsed - 2e7).abs() < 1.0);
        assert!(check_headline(&json, parsed, 0.2).is_ok());
        assert!(check_headline(&json, parsed * 0.5, 0.2).is_err());
    }

    #[test]
    fn sweep_wall_round_trips_and_gates() {
        let report = PerfReport {
            metrics: Vec::new(),
            sweeps: vec![
                SweepMeasure {
                    name: "fig5_gauss_quick".into(),
                    points: 4,
                    threads: 4,
                    wall: Duration::from_millis(800),
                },
                SweepMeasure {
                    name: "fig5_gauss_full_n384".into(),
                    points: 8,
                    threads: 8,
                    wall: Duration::from_secs(120),
                },
            ],
            tables: Vec::new(),
            serve: None,
            sustained: None,
            cluster: None,
            pdes: None,
        };
        let json = report.to_json();
        let quick = parse_sweep_wall_ms(&json, "fig5_gauss_quick").unwrap();
        assert!((quick - 800.0).abs() < 0.2);
        let full = parse_sweep_wall_ms(&json, "fig5_gauss_full_n384").unwrap();
        assert!((full - 120_000.0).abs() < 1.0);
        assert!(parse_sweep_wall_ms(&json, "nope").is_none());
        assert!(check_sweep(&json, "fig5_gauss_quick", 810.0, 0.02).is_ok());
        assert!(check_sweep(&json, "fig5_gauss_quick", 900.0, 0.02).is_err());
        assert!(check_sweep(&json, "missing", 1.0, 0.02).is_err());
    }

    #[test]
    fn section_scanner_and_gate_cover_nested_and_null_slots() {
        let base = r#"{"serve": {"cold_wall_ms": 100.0, "warm_wall_ms": 2.0},
            "pdes": {"events_per_sec_geomean": 30000000,
                     "leg": {"workers": 8, "leg": 6.00}}}"#;
        assert_eq!(
            parse_section_field(base, "serve", "cold_wall_ms"),
            Some(100.0)
        );
        assert_eq!(parse_section_field(base, "pdes", "leg"), Some(6.0));
        assert_eq!(parse_section_field(base, "pdes", "workers"), Some(8.0));
        assert_eq!(parse_section_field(base, "cluster", "lost"), None);
        let nulled = r#"{"serve": null, "pdes": {"leg": null}}"#;
        assert_eq!(parse_section_field(nulled, "serve", "cold_wall_ms"), None);
        assert_eq!(parse_section_field(nulled, "pdes", "leg"), None);

        let slower = r#"{"serve": {"cold_wall_ms": 200.0},
            "pdes": {"events_per_sec_geomean": 10000000,
                     "leg": {"workers": 8, "leg": 6.00}}}"#;
        // Lower-is-better: 200 vs 100 baseline fails at 50% tolerance.
        assert!(
            check_section(base, slower, "serve", "cold_wall_ms", 0.5, Direction::Lower).is_err()
        );
        assert!(
            check_section(slower, base, "serve", "cold_wall_ms", 0.5, Direction::Lower).is_ok()
        );
        // Higher-is-better: a 3x throughput drop fails at 25% tolerance.
        assert!(check_section(
            base,
            slower,
            "pdes",
            "events_per_sec_geomean",
            0.25,
            Direction::Higher
        )
        .is_err());
        // Section absent from the baseline: checked=false, not an error.
        assert_eq!(
            check_section(base, slower, "cluster", "lost", 0.0, Direction::Lower),
            Ok(false)
        );
        // Section in the baseline but lost from the current report: error.
        assert!(
            check_section(base, nulled, "serve", "cold_wall_ms", 0.5, Direction::Lower).is_err()
        );
    }

    #[test]
    fn microbench_workloads_are_deterministic_in_events() {
        // Host wall time varies; the event counts must not.
        let a = timer_churn();
        let b = timer_churn();
        assert_eq!(a.events, b.events);
        let a = timeout_cancel();
        let b = timeout_cancel();
        assert_eq!(a.events, b.events);
    }
}
