//! `sweep_serial`: a fixed set of the paper's experiments on one host
//! thread, and the bare-engine probe of the traced run.
//!
//! One sweep is FIG5 (both programming models at N = 64 over four
//! processor counts, point by point through `bfly_apps::gauss`'s
//! prepare/finish seam, which is what the FIG5 harness runs per point),
//! then T3, T5 and T15 through `bfly_bench`'s harness at quick scale, then
//! PHOLD on the serial PDES engine. Every result is checked against a
//! property of the method, never against a stored copy of its output.

use std::rc::Rc;
use std::time::Instant;

use bfly_bench::{experiments, Scale};
use bfly_farmd::Value;
use bfly_sim::{FaultPlan, Sim};

use crate::trace::Tracer;

/// FIG5 problem size.
pub const GAUSS_N: u32 = 64;
/// FIG5 processor counts.
pub const GAUSS_PS: [u16; 4] = [8, 16, 32, 64];
/// PHOLD shape: nodes, jobs per node, hops per job, lookahead (ns).
pub const PHOLD: (u32, u32, u32, u64) = (64, 4, 1000, 4000);
/// Gauss accuracy against the known solution `x_i = i + 1`.
const GAUSS_TOL: f64 = 1e-6;

/// One sweep's outcome.
#[derive(Debug, Default, Clone)]
pub struct SweepOut {
    /// Host seconds for the whole sweep.
    pub wall_s: f64,
    /// Engine task polls across every `Sim` of the sweep.
    pub polls: u64,
    /// Host seconds spent inside `Sim::run` across the sweep.
    pub engine_s: f64,
    /// Polls of the FIG5 runs alone.
    pub gauss_polls: u64,
    /// Host seconds in the FIG5 runs' `prepare_*` calls.
    pub build_s: f64,
    /// Host seconds in the FIG5 runs' `PreparedGauss::finish` calls.
    pub finish_s: f64,
    /// `Machine::stats` remote references, summed over FIG5 runs.
    pub remote_refs: u64,
    /// `Machine::stats` block transfers, summed over FIG5 runs.
    pub block_transfers: u64,
    /// PHOLD events and the host seconds `PdesSim::run` took.
    pub pdes_events: u64,
    /// Host seconds in `PdesSim::run`.
    pub pdes_s: f64,
    /// Digest of every simulated result; equal across repetitions.
    pub digest: u64,
    /// Checks that failed, by description.
    pub failures: Vec<String>,
}

/// FNV-1a over 64-bit words and byte strings.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The closed forms the FIG5 runs are checked against: Uniform System row
/// updates `N² − N` (its communication count minus the pivot-row block
/// copies), and SMP pivot broadcasts `N · (P − 1)` messages.
pub fn us_row_updates(n: u32) -> u64 {
    n as u64 * n as u64 - n as u64
}

/// See [`us_row_updates`].
pub fn smp_messages(n: u32, p: u16) -> u64 {
    n as u64 * (p as u64 - 1)
}

/// Rows of a `bfly_bench` table whose packed-placement time (column 2)
/// does not exceed its spread-placement time (column 3): T5's claim is
/// that scattering the matrix over all memories wins.
pub fn t5_violations(table_json: &str) -> Result<Vec<String>, String> {
    let v =
        bfly_farmd::json::parse(table_json).map_err(|(at, m)| format!("T5 table at {at}: {m}"))?;
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("T5 table has no rows")?;
    if rows.is_empty() {
        return Err("T5 table is empty".into());
    }
    let cell = |r: &Value, i: usize| -> Option<f64> { r.as_arr()?.get(i)?.as_str()?.parse().ok() };
    let mut bad = Vec::new();
    for r in rows {
        match (cell(r, 2), cell(r, 3)) {
            (Some(packed), Some(spread)) if packed > spread => {}
            _ => bad.push(format!(
                "T5 row {} : packed does not lose to spread",
                r.dump()
            )),
        }
    }
    Ok(bad)
}

/// Run one sweep. `req` is the request id its spans share.
pub fn run_sweep(seed: u64, req: u64, tr: &mut Tracer) -> SweepOut {
    let mut o = SweepOut::default();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let sweep_id = tr.reserve();
    let t_sweep = Instant::now();

    // FIG5, both models, point by point.
    let fig5_id = tr.reserve();
    let t = Instant::now();
    let all: Vec<u16> = (0..128).collect();
    for &p in &GAUSS_PS {
        for model in ["us", "smp"] {
            let t0 = Instant::now();
            let prepared = match model {
                "us" => bfly_apps::gauss::prepare_gauss_us(p, GAUSS_N, all.clone(), seed),
                _ => bfly_apps::gauss::prepare_gauss_smp_faulty(
                    p,
                    GAUSS_N,
                    seed,
                    &FaultPlan::default(),
                ),
            };
            let machine = Rc::clone(prepared.machine());
            let t1 = Instant::now();
            let r = prepared.finish();
            let t2 = Instant::now();
            tr.span("machine.build", t0, t1, fig5_id, req);
            tr.span("machine.run", t1, t2, fig5_id, req);
            let st = machine.stats();
            o.build_s += (t1 - t0).as_secs_f64();
            o.finish_s += (t2 - t1).as_secs_f64();
            o.gauss_polls += r.run.events;
            o.polls += r.run.events;
            o.engine_s += r.run.wall.as_secs_f64();
            o.remote_refs += st.remote_refs;
            o.block_transfers += st.block_transfers;
            for w in [
                r.time_ns,
                r.comm_ops,
                r.max_err.to_bits(),
                st.remote_refs,
                st.block_transfers,
            ] {
                h.word(w);
            }
            if r.max_err.is_nan() || r.max_err >= GAUSS_TOL {
                o.failures
                    .push(format!("FIG5 {model} P={p}: max_err {}", r.max_err));
            }
            let comm_ok = match model {
                "us" => r.comm_ops.checked_sub(st.block_transfers) == Some(us_row_updates(GAUSS_N)),
                _ => r.comm_ops == smp_messages(GAUSS_N, p),
            };
            if !comm_ok {
                o.failures.push(format!(
                    "FIG5 {model} P={p}: {} communication operations",
                    r.comm_ops
                ));
            }
        }
    }
    tr.span_as(fig5_id, "bench.fig5", t, Instant::now(), sweep_id, req);

    // T3, T5, T15 through the experiment harness.
    type Harness = fn(Scale) -> (bfly_bench::Table, bfly_bench::report::EngineStats);
    let harness: [(&'static str, Harness); 3] = [
        ("bench.tab3", experiments::tab3_contention_run),
        ("bench.tab5", experiments::tab5_scatter_run),
        ("bench.tab15", experiments::tab15_faults_run),
    ];
    for (name, run) in harness {
        let t = Instant::now();
        let (table, engine) = run(Scale::quick());
        tr.span(name, t, Instant::now(), sweep_id, req);
        o.polls += engine.events;
        o.engine_s += engine.wall.as_secs_f64();
        let json = table.to_json();
        h.bytes(json.as_bytes());
        if name == "bench.tab5" {
            match t5_violations(&json) {
                Ok(bad) => o.failures.extend(bad),
                Err(e) => o.failures.push(e),
            }
        }
    }

    // PHOLD on the serial PDES engine.
    let (nodes, jobs, hops, lookahead) = PHOLD;
    let t = Instant::now();
    let mut pdes = bfly_apps::phold::phold_sim(seed, nodes, jobs, hops, lookahead);
    let st = pdes.run();
    let end = Instant::now();
    tr.span("bench.phold", t, end, sweep_id, req);
    o.pdes_events = st.events;
    o.pdes_s = (end - t).as_secs_f64();
    h.word(st.events);
    h.word(pdes.state_digest());
    let want = nodes as u64 * jobs as u64 * hops as u64;
    if st.events != want {
        o.failures
            .push(format!("PHOLD: {} events, want {want}", st.events));
    }

    tr.span_as(sweep_id, "sweep", t_sweep, end, 0, req);
    o.wall_s = (end - t_sweep).as_secs_f64();
    o.digest = h.0;
    o
}

/// The engine alone: spawn/retire waves, yield storms, timer churn and
/// timeouts that lose their race, on bare `bfly_sim::Sim`s with no
/// machine model. Returns host ns per task poll.
pub fn bare_engine_ns_per_poll() -> f64 {
    let mut polls = 0u64;
    let mut wall = 0.0f64;
    let mut account = |sim: &Sim| {
        let r = sim.run();
        polls += r.events;
        wall += r.wall.as_secs_f64();
    };

    let sim = Sim::with_seed(11);
    let root = sim.clone();
    sim.spawn(async move {
        for wave in 0..200u64 {
            let hs: Vec<_> = (0..32u64)
                .map(|i| {
                    let s = root.clone();
                    root.spawn(async move { s.sleep(wave % 7 + i % 5 + 1).await })
                })
                .collect();
            bfly_sim::exec::join_all(hs).await;
        }
    });
    account(&sim);

    let sim = Sim::with_seed(12);
    for _ in 0..8 {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..10_000u32 {
                s.yield_now().await;
            }
        });
    }
    account(&sim);

    let sim = Sim::with_seed(13);
    for t in 0..64u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..500u64 {
                let d = if i % 16 == 0 {
                    5_000_000 + t * 131
                } else {
                    (t * 97 + i * 53) % 4_096 + 1
                };
                s.sleep(d).await;
            }
        });
    }
    account(&sim);

    let sim = Sim::with_seed(14);
    for t in 0..32u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..500u64 {
                let dur = (t + i) % 900 + 100;
                let _ = s.timeout(dur / 2, s.sleep(dur)).await;
            }
        });
    }
    account(&sim);

    wall * 1e9 / polls.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms() {
        assert_eq!(us_row_updates(64), 4032);
        assert_eq!(smp_messages(64, 32), 64 * 31);
        assert_eq!(
            smp_messages(48, 16),
            720,
            "FIG5's published N=48, P=16 count"
        );
    }

    #[test]
    fn small_gauss_runs_meet_the_closed_forms() {
        let (p, n) = (4u16, 12u32);
        let prepared = bfly_apps::gauss::prepare_gauss_us(p, n, (0..128).collect(), 3);
        let m = Rc::clone(prepared.machine());
        let r = prepared.finish();
        assert!(r.max_err < GAUSS_TOL);
        assert_eq!(r.comm_ops - m.stats().block_transfers, us_row_updates(n));
        let r = bfly_apps::gauss::gauss_smp(p, n, 3);
        assert_eq!(r.comm_ops, smp_messages(n, p));
    }

    #[test]
    fn t5_check_reads_the_table() {
        let ok = r#"{"title":"T5","headers":["P","P/128","packed-2 (ms)","spread-128 (ms)","gain"],"rows":[["16","0.12","90.0","60.0","+50%"]]}"#;
        assert!(t5_violations(ok).unwrap().is_empty());
        let bad = ok.replace("\"90.0\"", "\"50.0\"");
        assert_eq!(t5_violations(&bad).unwrap().len(), 1);
        assert!(t5_violations(r#"{"rows":[]}"#).is_err());
    }
}
