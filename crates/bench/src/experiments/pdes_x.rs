//! T22 — the event-level PDES engine measured against Sokolinsky's
//! analytic speedup bound (no direct paper table).
//!
//! The §4.1 Gaussian elimination workload, re-expressed as a conservative
//! PDES model ([`bfly_apps::pdes_gauss`]): simulated processors are event
//! state machines, pivot rows travel as timestamped messages, elimination
//! is charged as virtual compute delay. The table sweeps simulated
//! processor counts `P` on a fixed machine and compares the measured
//! speedup against the bound
//!
//! ```text
//!     a(P) = C / (C/P + N·o)
//! ```
//!
//! (Sokolinsky's cost-model form: `C` = serial virtual time, `N·o` = the
//! per-processor communication term — every processor touches all `N`
//! pivot messages at `o` ns each). Measured speedup must stay below the
//! bound and track its shape: rising near-linearly while `C/P` dominates,
//! flattening once the `N·o` message term takes over.
//!
//! Every point asserts the solved system (`max_err`) and the exact message
//! count `N·(P−1)`, and prints the full-state digest, so any change to
//! the engine's delivery order shows up as a changed table.
//!
//! Under `--probe`/`--sanitize` the deterministic instrumentation log is
//! replayed into the ambient tools: `MsgSend`/`Hop` become probe message
//! and switch-port counters, `Access` records become local/remote
//! references, and the sanitizer sees the full task/message/memory-access
//! structure — which must come back race-free (message edges order every
//! remote pivot read after the owner's write).

use std::time::Instant;

use bfly_apps::pdes_gauss::{pdes_gauss_extract, pdes_gauss_sim, PdesGaussResult};
use bfly_machine::PdesTopology;
use bfly_sim::pdes::LogRec;

use crate::report::EngineStats;
use crate::{Scale, Table};

/// Fixed seed: T22 is a pinned-output experiment like FIG5.
pub const SEED: u64 = 7;

/// T22 — PDES gauss speedup sweep vs the analytic bound.
pub fn tab22_pdes(scale: Scale) -> Table {
    tab22_pdes_run(scale).0
}

/// [`tab22_pdes`] plus aggregated engine counters (for `--stats`).
pub fn tab22_pdes_run(scale: Scale) -> (Table, EngineStats) {
    let n: u32 = scale.pick(384, 48);
    let machine: u32 = scale.pick(512, 128);
    let ps: Vec<u32> = scale.pick(vec![1, 16, 32, 64, 128, 256, 384], vec![1, 8, 16, 32]);

    let mut t = Table::new(
        &format!(
            "T22: PDES gauss speedup vs Sokolinsky bound \
             (N={n}, {machine}-node machine, seed {SEED})"
        ),
        &[
            "P",
            "T (ms)",
            "speedup",
            "bound a(P)",
            "msgs",
            "events",
            "digest",
        ],
    );
    let mut engine = EngineStats::default();
    let replaying = bfly_probe::ambient().is_some() || bfly_san::ambient().is_some();

    let topo = PdesTopology::butterfly(machine);
    // Message cost `o`: one pivot-row message, as the model charges it.
    let o_ns = topo.msg_ns(n as u64 + 1) as f64;

    let mut serial_ns = 0f64;
    for (pi, &p) in ps.iter().enumerate() {
        let wall = Instant::now();
        let mut sim = pdes_gauss_sim(p, n, SEED, machine);
        if replaying {
            sim.record_log(true);
        }
        let stats = sim.run();
        let r = pdes_gauss_extract(&sim, p, n);
        check_point(&r, n, p);
        if replaying {
            replay_log(&sim.drain_log(), pi, p, n, &topo);
        }
        engine.events += stats.events;
        engine.tasks += p as u64;
        engine.sims += 1;
        engine.wall += wall.elapsed();

        if p == 1 {
            serial_ns = r.time_ns as f64;
        }
        let speedup = serial_ns / r.time_ns as f64;
        let bound = sokolinsky_bound(serial_ns, p as f64, n as f64, o_ns);
        assert!(
            speedup <= bound + 1e-9,
            "P={p}: measured speedup {speedup:.2} exceeds the bound {bound:.2}"
        );
        t.row(vec![
            p.to_string(),
            format!("{:.3}", r.time_ns as f64 / 1e6),
            format!("{speedup:.2}"),
            format!("{bound:.2}"),
            r.msgs.to_string(),
            r.events.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    (t, engine)
}

/// `a(P) = C / (C/P + N·o)`, with `a(1) = 1` by construction (the serial
/// run pays no message term).
fn sokolinsky_bound(c_ns: f64, p: f64, n: f64, o_ns: f64) -> f64 {
    if p <= 1.0 {
        1.0
    } else {
        c_ns / (c_ns / p + n * o_ns)
    }
}

/// Per-point invariants: the system is actually solved and the message
/// count is exactly the SMP broadcast total.
fn check_point(r: &PdesGaussResult, n: u32, p: u32) {
    assert!(
        r.max_err < 1e-6,
        "P={p}: back-substitution error {} — system not solved",
        r.max_err
    );
    let want_msgs = n as u64 * (p as u64 - 1);
    assert_eq!(r.msgs, want_msgs, "P={p}: pivot message count");
    assert!(r.time_ns > 0, "P={p}: zero virtual time");
}

/// Replay one point's merged instrumentation log into the ambient probe
/// and sanitizer. The log is a pure function of `(p, n, seed)`, so
/// PROBE/SAN exports are byte-reproducible too.
fn replay_log(log: &[LogRec], point: usize, p: u32, n: u32, topo: &PdesTopology) {
    // Probe node counters are sized for the real machine (256 nodes); the
    // full-scale sweep simulates more processors than that, so the probe
    // replay covers only the points that fit. The sanitizer has no such
    // cap and sees every point.
    let probe = bfly_probe::ambient().filter(|_| (p as usize) <= bfly_probe::MAX_NODES);
    if let Some(probe) = &probe {
        for rec in log {
            match *rec {
                LogRec::MsgSend {
                    from, to, bytes, ..
                } => {
                    probe.msg_send(from as u16, to as u16, bytes as usize);
                }
                LogRec::MsgRecv { .. } => {}
                LogRec::Access {
                    from,
                    node,
                    write: _,
                    len,
                    ..
                } => {
                    let words = len.div_ceil(8).max(1);
                    if from == node {
                        probe.local_ref(from as u16, topo.local_ns(words));
                    } else {
                        probe.remote_ref(from as u16, node as u16, topo.costs.mem_service);
                    }
                }
                LogRec::Hop { from, hops, .. } => {
                    for stage in 0..hops {
                        probe.switch_hop(stage, from % 4, 0, 0, 0);
                    }
                }
            }
        }
    }
    if let Some(san) = bfly_san::ambient() {
        replay_san(&san, log, point, p, n);
    }
}

/// Drive the sanitizer through the point's task/message/access structure.
/// Each simulated processor is one task; its region holds its rows
/// (local row `l` at offset `l·(n+1)·8`). Message edges (`MsgSend` →
/// `MsgRecv`) carry the happens-before that makes every remote pivot
/// read race-free.
fn replay_san(san: &bfly_san::Sanitizer, log: &[LogRec], point: usize, p: u32, n: u32) {
    san.world_started();
    let base = (point as u64 + 1) * 100_000;
    let row_bytes = (n as u64 + 1) * 8;
    let rows_of = |node: u32| ((n - node) as u64).div_ceil(p as u64);
    for node in 0..p {
        san.task_spawned(base + node as u64, &format!("pdes-{node}"));
        san.alloc_range(
            node as u16,
            0,
            rows_of(node).max(1) * row_bytes,
            "pdes-rows",
        );
    }
    for rec in log {
        let by = rec.by();
        let prev = san.task_started(base + by as u64, &format!("pdes-{by}"));
        match *rec {
            LogRec::MsgSend { from, to, .. } => san.msg_send(from as u16, to as u16),
            LogRec::MsgRecv { from, to, .. } => san.msg_recv(from as u16, to as u16),
            LogRec::Access {
                from,
                node,
                offset,
                len,
                write,
                ..
            } => san.plain_access(from as u16, node as u16, offset, len, write),
            LogRec::Hop { .. } => {}
        }
        san.task_suspended(prev);
    }
    san.run_quiesced();
    for node in 0..p {
        san.free_range(node as u16, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_is_reproducible() {
        let (a, _) = tab22_pdes_run(Scale::quick());
        let (b, _) = tab22_pdes_run(Scale::quick());
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn san_replay_is_clean_and_reproducible() {
        let run = || {
            let prev = bfly_san::install_ambient(Some(bfly_san::Sanitizer::new()));
            let (t, _) = tab22_pdes_run(Scale::quick());
            let san = bfly_san::install_ambient(prev).expect("san installed above");
            (t, san)
        };
        let (_, sa) = run();
        assert!(
            sa.is_clean(),
            "PDES replay must be race-free: {} {:?}",
            sa.verdict_line(),
            sa.race_fingerprint()
        );
        let (_, sb) = run();
        assert_eq!(sa.report_json("t22"), sb.report_json("t22"));
    }

    #[test]
    fn probe_replay_counts_messages_and_is_reproducible() {
        let run = || {
            let prev = bfly_probe::install_ambient(Some(bfly_probe::Probe::new()));
            let (_, _) = tab22_pdes_run(Scale::quick());
            bfly_probe::install_ambient(prev).expect("probe installed above")
        };
        let pa = run();
        // Quick scale: N=48, ps=[1,8,16,32] → Σ N·(P−1) messages.
        let want: u64 = [1u64, 8, 16, 32].iter().map(|p| 48 * (p - 1)).sum();
        let sent: u64 = (0u16..48).map(|q| pa.node(q).msgs_sent.get()).sum();
        assert_eq!(sent, want);
        assert!(pa.switch_hops() > 0);
        let pb = run();
        assert_eq!(pa.summary_json("t22"), pb.summary_json("t22"));
    }
}
