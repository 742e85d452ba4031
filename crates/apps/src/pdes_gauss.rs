//! # Gaussian elimination as a PDES model (experiment T22).
//!
//! The same §4.1 workload as `gauss.rs`, re-expressed for the
//! event-level PDES engine: each simulated processor is a
//! [`PdesNode`] state machine, pivot rows travel as timestamped events,
//! and elimination work is charged as virtual compute delays. Rows are
//! distributed row-cyclically; the owner of pivot `k` publishes the
//! reduced row to every other processor (`N·(P−1)` messages in all —
//! the same count as `gauss_smp`'s broadcasts), receivers buffer early
//! pivots and apply them in order. All cross-node latencies come from
//! [`bfly_machine::PdesTopology`], so they are ≥ the conservative
//! lookahead by construction.
//!
//! The model is a pure function of `(p, n, seed)` — no RNG draws during
//! the run, no host state — so the PDES determinism contract applies:
//! every run, straight or resumed from a snapshot, produces bit-identical
//! matrices, timings, message counts and instrumentation logs.
//!
//! Instrumentation (`--probe`/`--sanitize` replay): each node's rows live
//! in its own memory region (local row `l` at byte offset
//! `l·(n+1)·8`). Publishing logs a write of the pivot row plus one
//! `MsgSend` and a switch-hop record per destination; receipt logs
//! `MsgRecv` plus a remote read of the owner's region; each elimination
//! step logs one write covering the updated suffix of the local region.
//! Message edges make every remote read race-free — the san replay must
//! confirm a clean report.

use bfly_machine::PdesTopology;
use bfly_sim::pdes::{Ctx, Event, LogRec, PdesNode, PdesSim};
use bfly_sim::SplitMix64;

/// Kick-off self-event, delivered to every node at t=0.
pub const K_START: u16 = 0;
/// A pivot row: `a` = pivot index, payload = row words (`f64::to_bits`).
pub const K_PIVOT: u16 = 1;
/// Elimination step complete: `a` = pivot index just applied.
pub const K_DONE: u16 = 2;

/// Per-element elimination charge: one multiply-subtract touching two
/// local words (≈1.6 µs on Butterfly-I — the paper-era C inner loop).
fn elem_ns(topo: &PdesTopology) -> u64 {
    2 * topo.costs.local_word()
}

/// Deterministic row `r` of the augmented system: diagonally dominant,
/// known solution `x_j = j + 1`. Pure function of `(n, seed, r)`, so any
/// node (or a restore) regenerates identical bits.
pub fn system_row(n: u32, seed: u64, r: u32) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x517c_c1b7_2722_0a95u64.wrapping_mul(r as u64 + 1));
    let mut row = vec![0.0f64; n as usize + 1];
    for j in 0..n {
        row[j as usize] = rng.next_f64();
    }
    row[r as usize] += n as f64;
    let b: f64 = (0..n).map(|j| row[j as usize] * (j as f64 + 1.0)).sum();
    row[n as usize] = b;
    row
}

/// One simulated processor of the PDES gauss machine.
pub struct GaussNode {
    me: u32,
    p: u32,
    n: u32,
    topo: PdesTopology,
    /// My rows, global index ascending (row-cyclic: `g % p == me`).
    rows: Vec<(u32, Vec<f64>)>,
    /// Early-arrived pivot rows, indexed by pivot number.
    stash: Vec<Option<Box<[f64]>>>,
    /// Pivots fully applied to all my rows (== next pivot index needed).
    applied: u32,
    /// An elimination step is in flight (K_DONE pending).
    busy: bool,
    /// Virtual time this node went quiescent (applied == n).
    finish_at: u64,
    msgs: u64,
    comm_words: u64,
}

impl GaussNode {
    fn new(me: u32, p: u32, n: u32, seed: u64, topo: PdesTopology) -> GaussNode {
        let rows = (me..n)
            .step_by(p as usize)
            .map(|g| (g, system_row(n, seed, g)))
            .collect();
        GaussNode {
            me,
            p,
            n,
            topo,
            rows,
            stash: (0..n).map(|_| None).collect(),
            applied: 0,
            busy: false,
            finish_at: 0,
            msgs: 0,
            comm_words: 0,
        }
    }

    fn row_words(&self) -> u64 {
        self.n as u64 + 1
    }

    /// Local (within my memory region) index of my row with global
    /// index `g`.
    fn local_of(&self, g: u32) -> usize {
        self.rows
            .binary_search_by_key(&g, |r| r.0)
            .expect("pdes gauss: not my row")
    }

    /// Index of my first row strictly after pivot `k` (rows before it
    /// are already reduced).
    fn first_after(&self, k: u32) -> usize {
        self.rows.partition_point(|r| r.0 <= k)
    }

    /// Try to start the next elimination step; idles if the pivot has not
    /// arrived yet (a later K_PIVOT will retry).
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy || self.applied >= self.n {
            return;
        }
        let k = self.applied;
        if k % self.p == self.me {
            // I own pivot k and my rows are reduced through k-1: publish.
            let li = self.local_of(k);
            let row: Box<[f64]> = self.rows[li].1.clone().into_boxed_slice();
            let words: Vec<u64> = row.iter().map(|f| f.to_bits()).collect();
            let delay = self.topo.msg_ns(self.row_words());
            if ctx.logging() {
                let (at, me) = (ctx.now, ctx.me);
                let bytes = self.row_words() * 8;
                ctx.log(LogRec::Access {
                    at,
                    from: me,
                    node: me,
                    offset: li as u64 * bytes,
                    len: bytes,
                    write: true,
                });
                for q in 0..self.p {
                    if q != self.me {
                        ctx.log(LogRec::MsgSend {
                            at,
                            from: me,
                            to: q,
                            bytes,
                        });
                        let hops = self.topo.hops(me, q);
                        ctx.log(LogRec::Hop { at, from: me, hops });
                    }
                }
            }
            for q in 0..self.p {
                if q != self.me {
                    ctx.send_data(q, delay, K_PIVOT, k as u64, 0, &words);
                }
            }
            self.msgs += (self.p - 1) as u64;
            self.comm_words += (self.p - 1) as u64 * self.row_words();
            self.stash[k as usize] = Some(row);
            self.start_elim(k, ctx);
        } else if self.stash[k as usize].is_some() {
            self.start_elim(k, ctx);
        }
    }

    /// Charge the step-`k` elimination as a virtual delay; the arithmetic
    /// itself happens when K_DONE lands.
    fn start_elim(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        let touched = (self.rows.len() - self.first_after(k)) as u64;
        let width = (self.n - k) as u64 + 1;
        let cost = touched * width * elem_ns(&self.topo);
        self.busy = true;
        ctx.send(ctx.me, cost, K_DONE, k as u64, 0);
    }

    /// Apply pivot `k` to every local row after it (the K_DONE work).
    fn apply(&mut self, k: u32, ctx: &mut Ctx<'_>) {
        let pivot = self.stash[k as usize]
            .take()
            .expect("pdes gauss: K_DONE without pivot");
        let first = self.first_after(k);
        let (kk, nn) = (k as usize, self.n as usize);
        for (_, row) in &mut self.rows[first..] {
            let factor = row[kk] / pivot[kk];
            for j in kk..=nn {
                row[j] -= factor * pivot[j];
            }
            row[kk] = 0.0;
        }
        if ctx.logging() && first < self.rows.len() {
            let (at, me) = (ctx.now, ctx.me);
            let bytes = self.row_words() * 8;
            let len = (self.rows.len() - first) as u64 * bytes;
            ctx.log(LogRec::Access {
                at,
                from: me,
                node: me,
                offset: first as u64 * bytes,
                len,
                write: true,
            });
        }
        self.applied = k + 1;
        self.busy = false;
        if self.applied == self.n {
            self.finish_at = ctx.now;
        }
    }
}

impl PdesNode for GaussNode {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        let me = ctx.me;
        ctx.send(me, 0, K_START, 0, 0);
    }

    fn handle(&mut self, ev: &Event, ctx: &mut Ctx<'_>) {
        match ev.kind {
            K_START => self.advance(ctx),
            K_PIVOT => {
                let k = ev.a as usize;
                if ctx.logging() {
                    let (at, me) = (ctx.now, ctx.me);
                    let bytes = self.row_words() * 8;
                    ctx.log(LogRec::MsgRecv {
                        at,
                        from: ev.src,
                        to: me,
                    });
                    // Reading the pivot row from the owner's home memory.
                    let owner_local = (k as u32 / self.p) as u64;
                    ctx.log(LogRec::Access {
                        at,
                        from: me,
                        node: ev.src,
                        offset: owner_local * bytes,
                        len: bytes,
                        write: false,
                    });
                }
                let row: Box<[f64]> = ev.data.iter().map(|&w| f64::from_bits(w)).collect();
                self.stash[k] = Some(row);
                self.advance(ctx);
            }
            K_DONE => {
                self.apply(ev.a as u32, ctx);
                self.advance(ctx);
            }
            other => panic!("pdes gauss: unknown event kind {other}"),
        }
    }

    fn state_words(&self) -> Vec<u64> {
        let mut w = vec![
            self.applied as u64,
            u64::from(self.busy),
            self.finish_at,
            self.msgs,
            self.comm_words,
            self.rows.len() as u64,
        ];
        for (g, row) in &self.rows {
            w.push(*g as u64);
            w.extend(row.iter().map(|f| f.to_bits()));
        }
        let stashed: Vec<usize> = (0..self.stash.len())
            .filter(|&k| self.stash[k].is_some())
            .collect();
        w.push(stashed.len() as u64);
        for k in stashed {
            w.push(k as u64);
            w.extend(self.stash[k].as_ref().unwrap().iter().map(|f| f.to_bits()));
        }
        w
    }

    fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
        let rw = self.row_words() as usize;
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u64], String> {
            if pos + n > words.len() {
                return Err("gauss node: truncated state".into());
            }
            let s = &words[pos..pos + n];
            pos += n;
            Ok(s)
        };
        let head = take(6)?;
        let (applied, busy, finish_at, msgs, comm_words, nrows) =
            (head[0], head[1], head[2], head[3], head[4], head[5]);
        if nrows as usize != self.rows.len() {
            return Err("gauss node: row count mismatch".into());
        }
        let mut rows = Vec::with_capacity(nrows as usize);
        for _ in 0..nrows {
            let g = take(1)?[0] as u32;
            let row: Vec<f64> = take(rw)?.iter().map(|&w| f64::from_bits(w)).collect();
            rows.push((g, row));
        }
        let nstash = take(1)?[0] as usize;
        let mut stash: Vec<Option<Box<[f64]>>> = (0..self.n).map(|_| None).collect();
        for _ in 0..nstash {
            let k = take(1)?[0] as usize;
            if k >= stash.len() {
                return Err("gauss node: stash index out of range".into());
            }
            stash[k] = Some(take(rw)?.iter().map(|&w| f64::from_bits(w)).collect());
        }
        if pos != words.len() {
            return Err("gauss node: trailing state words".into());
        }
        self.applied = applied as u32;
        self.busy = busy != 0;
        self.finish_at = finish_at;
        self.msgs = msgs;
        self.comm_words = comm_words;
        self.rows = rows;
        self.stash = stash;
        Ok(())
    }
}

/// Result of one PDES gauss point.
#[derive(Debug, Clone, PartialEq)]
pub struct PdesGaussResult {
    /// Simulated processors.
    pub p: u32,
    /// Problem size.
    pub n: u32,
    /// Simulated completion time (max node finish time).
    pub time_ns: u64,
    /// PDES events delivered.
    pub events: u64,
    /// Pivot messages sent (`= N·(P−1)` for P>1).
    pub msgs: u64,
    /// Message payload volume in words.
    pub comm_words: u64,
    /// Max |x_j − (j+1)| after host-side back-substitution.
    pub max_err: f64,
    /// Full-state digest (the bit-identity witness).
    pub digest: u64,
}

/// Build the simulation: `p` processors eliminating an `n×n` system on a
/// `machine_nodes`-node Butterfly (lookahead derived from its switch
/// depth).
pub fn pdes_gauss_sim(p: u32, n: u32, seed: u64, machine_nodes: u32) -> PdesSim {
    assert!(p >= 1 && p <= machine_nodes, "pdes gauss: p out of range");
    assert!(n >= 1, "pdes gauss: n out of range");
    let topo = PdesTopology::butterfly(machine_nodes);
    let lookahead = topo.lookahead_ns();
    let nodes: Vec<Box<dyn PdesNode>> = (0..p)
        .map(|me| Box::new(GaussNode::new(me, p, n, seed, topo.clone())) as Box<dyn PdesNode>)
        .collect();
    PdesSim::new(seed, lookahead, nodes)
}

/// Extract the result from a completed simulation (host-side
/// back-substitution proves the system was actually solved).
pub fn pdes_gauss_extract(sim: &PdesSim, p: u32, n: u32) -> PdesGaussResult {
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); n as usize];
    let mut time_ns = 0u64;
    let mut msgs = 0u64;
    let mut comm_words = 0u64;
    for node in 0..p {
        let w = sim.node_state(node);
        let (finish_at, nmsgs, ncomm, nrows) = (w[2], w[3], w[4], w[5] as usize);
        time_ns = time_ns.max(finish_at);
        msgs += nmsgs;
        comm_words += ncomm;
        let rw = n as usize + 1;
        let mut pos = 6;
        for _ in 0..nrows {
            let g = w[pos] as usize;
            rows[g] = w[pos + 1..pos + 1 + rw]
                .iter()
                .map(|&x| f64::from_bits(x))
                .collect();
            pos += 1 + rw;
        }
    }
    // Back-substitute the upper-triangular system.
    let nn = n as usize;
    let mut x = vec![0.0f64; nn];
    for i in (0..nn).rev() {
        let mut s = rows[i][nn];
        for (j, xj) in x.iter().enumerate().take(nn).skip(i + 1) {
            s -= rows[i][j] * xj;
        }
        x[i] = s / rows[i][i];
    }
    let max_err = x
        .iter()
        .enumerate()
        .map(|(j, xj)| (xj - (j as f64 + 1.0)).abs())
        .fold(0.0f64, f64::max);
    PdesGaussResult {
        p,
        n,
        time_ns,
        events: sim.events(),
        msgs,
        comm_words,
        max_err,
        digest: sim.state_digest(),
    }
}

/// One FIG5-style point end to end: build, run, extract.
pub fn pdes_gauss(p: u32, n: u32, seed: u64, machine_nodes: u32) -> PdesGaussResult {
    let mut sim = pdes_gauss_sim(p, n, seed, machine_nodes);
    sim.run();
    pdes_gauss_extract(&sim, p, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_the_system() {
        let r = pdes_gauss(4, 24, 7, 128);
        assert!(r.max_err < 1e-6, "max_err={}", r.max_err);
        assert_eq!(r.msgs, 24 * 3);
        assert!(r.time_ns > 0);
    }

    /// The PDES model and the futures-engine SMP model (`gauss.rs`) are
    /// two expressions of one algorithm: on every shared `(N, P)` point
    /// both must solve the system and send exactly `N·(P−1)` pivot rows.
    #[test]
    fn pdes_and_smp_models_agree_on_messages_and_solve() {
        for (n, p) in [(16u32, 1u16), (24, 4), (32, 8), (48, 16)] {
            let pdes = pdes_gauss(p as u32, n, 7, 128);
            let smp = crate::gauss::gauss_smp(p, n, 7);
            let want = n as u64 * (p as u64 - 1);
            assert_eq!(pdes.msgs, want, "pdes N={n} P={p}");
            assert_eq!(smp.comm_ops, want, "smp N={n} P={p}");
            assert!(pdes.max_err < 1e-9, "pdes N={n} P={p}: {}", pdes.max_err);
            assert!(smp.max_err < 1e-9, "smp N={n} P={p}: {}", smp.max_err);
        }
    }

    #[test]
    fn single_processor_sends_nothing() {
        let r = pdes_gauss(1, 16, 3, 128);
        assert!(r.max_err < 1e-6);
        assert_eq!(r.msgs, 0);
    }

    #[test]
    fn more_processors_run_faster_until_comm_dominates() {
        let t1 = pdes_gauss(1, 48, 7, 128).time_ns;
        let t4 = pdes_gauss(4, 48, 7, 128).time_ns;
        let t16 = pdes_gauss(16, 48, 7, 128).time_ns;
        assert!(t4 < t1, "p=4 {t4} !< p=1 {t1}");
        assert!(t16 < t4, "p=16 {t16} !< p=4 {t4}");
    }

    #[test]
    fn probed_logs_are_reproducible() {
        let run = || {
            let mut sim = pdes_gauss_sim(6, 20, 5, 64);
            sim.record_log(true);
            sim.run();
            sim.drain_log()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }

    #[test]
    fn midrun_snapshot_resumes_to_the_straight_result() {
        use bfly_sim::pdes::PdesSim;
        let mut whole = pdes_gauss_sim(6, 24, 9, 64);
        whole.run();
        let full = pdes_gauss_extract(&whole, 6, 24);

        let mut part = pdes_gauss_sim(6, 24, 9, 64);
        part.run_until(2_000_000);
        let snap = part.snapshot();
        let mut resumed =
            PdesSim::restore(&snap, || pdes_gauss_sim(6, 24, 9, 64)).expect("restores");
        resumed.run();
        let got = pdes_gauss_extract(&resumed, 6, 24);
        assert_eq!(full, got);
    }
}
