//! # Conservative discrete-event simulation (PDES) core.
//!
//! A model is a fixed set of [`PdesNode`] state machines exchanging
//! timestamped [`Event`]s; this module holds the event identity, the node
//! behaviour trait, the calendar-queue executor, state digests and the
//! instrumentation log. Cross-node messages must respect the
//! **lookahead** — the minimum latency of any cross-node message, derived
//! from the switch topology (`bfly_machine::pdes_map`) — and the event
//! queue's bucket layout is built on that contract (see [`EventQueue`]).
//! xtask lint check 7 bans wall-clock reads, host-thread spawns and
//! `HashMap` iteration from every `pdes*` module and everything they
//! reach.
//!
//! ## Determinism contract
//!
//! **For a given seed the final node states, per-node event sequences,
//! statistics, digests and instrumentation logs are bit-identical on
//! every run**, and a run cut at any virtual time, snapshotted, restored
//! and finished lands on the same bits as an uninterrupted one. The
//! argument:
//!
//! 1. Every event carries the identity `(at, src, src_seq)` where
//!    `src_seq` is a per-source counter. Identities are unique, and they
//!    are assigned *by the sending node's own deterministic execution*.
//! 2. Each node consumes the events addressed to it in the total order
//!    `(at, src, src_seq)`. A node is a pure function of (its state, its
//!    event sequence, its own seeded RNG stream), so per-dst delivery
//!    order fixes every node outcome.
//! 3. The executor delivers the global event set in exactly that order,
//!    and a snapshot captures all of it as plain data (node words,
//!    counters, RNG streams, pending events — see `pdes_snap.rs`).
//!
//! `tests/pdes_determinism.rs` proptests mid-run snapshot/restore over
//! seeds × cut points, and the byte-reproducibility of snapshots.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::rng::SplitMix64;

/// Simulated-node index inside a PDES model (dense, `0..n_nodes`).
pub type PdesNodeId = u32;

/// Mix a run seed and a node id into the node's private RNG seed.
/// SplitMix64 of the pair keeps streams statistically independent while
/// staying a pure function of `(seed, node)`.
pub fn node_seed(seed: u64, node: PdesNodeId) -> u64 {
    let mut s = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15u64.rotate_left(node % 63));
    s.next_u64() ^ ((node as u64) << 32 | node as u64)
}

/// A timestamped message between simulated nodes.
///
/// `(at, src, src_seq)` is the globally unique identity (see module docs);
/// [`Ord`] sorts by exactly that triple so heap order never inspects the
/// payload. `kind`/`a`/`b` are model-defined; bulk payloads ride in
/// `data` as u64 words (`f64::to_bits` for floating point rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual delivery time (simulated ns).
    pub at: u64,
    /// Sending node.
    pub src: PdesNodeId,
    /// Receiving node (may equal `src` for self-scheduling).
    pub dst: PdesNodeId,
    /// Per-source sequence number: the `src_seq`-th event `src` ever sent.
    pub src_seq: u32,
    /// Model-defined discriminant.
    pub kind: u16,
    /// Model-defined scalar payload.
    pub a: u64,
    /// Model-defined scalar payload.
    pub b: u64,
    /// Bulk payload words (empty boxed slice allocates nothing).
    pub data: Box<[u64]>,
}

impl Event {
    /// The total-order key: delivery time, then sender, then the sender's
    /// sequence number. Unique per event.
    pub fn key(&self) -> (u64, PdesNodeId, u32) {
        (self.at, self.src, self.src_seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One instrumentation record, produced by a node handler through
/// [`Ctx`]. Records accumulate per node and [`PdesSim::drain_log`] merges
/// them into one deterministic sequence, which the bench layer replays
/// into the ambient `bfly_probe::Probe` / `bfly_san::Sanitizer` — giving
/// byte-reproducible PROBE/SAN artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRec {
    /// A message left `from` for `to` carrying `bytes` payload bytes.
    MsgSend {
        at: u64,
        from: PdesNodeId,
        to: PdesNodeId,
        bytes: u64,
    },
    /// A message from `from` was consumed by `to`.
    MsgRecv {
        at: u64,
        from: PdesNodeId,
        to: PdesNodeId,
    },
    /// A plain shared-memory access to `[offset, offset+len)` of the
    /// region homed on `node`, issued by `from`.
    Access {
        at: u64,
        from: PdesNodeId,
        node: PdesNodeId,
        offset: u64,
        len: u64,
        write: bool,
    },
    /// `hops` switch-stage traversals by `from` (probe topology counter).
    Hop {
        at: u64,
        from: PdesNodeId,
        hops: u32,
    },
}

impl LogRec {
    /// Virtual time of the record.
    pub fn at(&self) -> u64 {
        match *self {
            LogRec::MsgSend { at, .. }
            | LogRec::MsgRecv { at, .. }
            | LogRec::Access { at, .. }
            | LogRec::Hop { at, .. } => at,
        }
    }

    /// The node whose handler produced the record (merge tiebreak).
    pub fn by(&self) -> PdesNodeId {
        match *self {
            LogRec::MsgSend { from, .. } => from,
            LogRec::MsgRecv { to, .. } => to,
            LogRec::Access { from, .. } => from,
            LogRec::Hop { from, .. } => from,
        }
    }
}

/// Handler context: the only channel through which a node may affect the
/// world. Borrowed mutably for the duration of one `init`/`handle` call.
pub struct Ctx<'a> {
    /// Virtual now (the event being handled is due exactly now).
    pub now: u64,
    /// The node being run.
    pub me: PdesNodeId,
    /// Number of nodes in the model.
    pub n_nodes: u32,
    lookahead: u64,
    seq: &'a mut u32,
    rng: &'a mut SplitMix64,
    /// New events go straight into the executor's queue.
    out: &'a mut EventQueue,
    log: Option<&'a mut Vec<LogRec>>,
}

impl<'a> Ctx<'a> {
    /// Schedule an event. Cross-node sends must respect the conservative
    /// contract `delay ≥ lookahead` — the event queue's bucket width
    /// rests on it (a send can never land in the bucket being drained),
    /// so it is a hard panic, not a debug assert. Self-sends (`dst == me`)
    /// may use any delay ≥ 0.
    pub fn send(&mut self, dst: PdesNodeId, delay: u64, kind: u16, a: u64, b: u64) {
        self.send_data(dst, delay, kind, a, b, &[]);
    }

    /// [`Ctx::send`] with a bulk payload.
    pub fn send_data(
        &mut self,
        dst: PdesNodeId,
        delay: u64,
        kind: u16,
        a: u64,
        b: u64,
        data: &[u64],
    ) {
        assert!(
            dst == self.me || delay >= self.lookahead,
            "pdes: cross-node send {} -> {} with delay {} < lookahead {}",
            self.me,
            dst,
            delay,
            self.lookahead
        );
        assert!(dst < self.n_nodes, "pdes: send to node {dst} out of range");
        let ev = Event {
            at: self.now + delay,
            src: self.me,
            dst,
            src_seq: *self.seq,
            kind,
            a,
            b,
            data: data.into(),
        };
        *self.seq += 1;
        self.out.push(ev);
    }

    /// The node's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// The conservative lookahead (minimum legal cross-node delay).
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// Append an instrumentation record (no-op unless recording is on).
    pub fn log(&mut self, rec: LogRec) {
        if let Some(log) = self.log.as_deref_mut() {
            log.push(rec);
        }
    }

    /// Whether instrumentation recording is enabled (lets models skip
    /// building records that would be dropped).
    pub fn logging(&self) -> bool {
        self.log.is_some()
    }
}

/// A simulated node: a deterministic state machine driven by events.
///
/// Implementations must be pure functions of `(state, event, ctx.rng())` —
/// no wall-clock, no host-thread identity, no global mutable state. The
/// snapshot words must capture the full state: `load_words(state_words())`
/// on a freshly built node must reproduce the node exactly.
pub trait PdesNode: Send {
    /// Called once at virtual time 0, before any event, in node-id order.
    fn init(&mut self, ctx: &mut Ctx<'_>);

    /// Deliver one event addressed to this node.
    fn handle(&mut self, ev: &Event, ctx: &mut Ctx<'_>);

    /// Serialize the node state as u64 words (`f64::to_bits` for floats).
    fn state_words(&self) -> Vec<u64>;

    /// Restore state captured by [`PdesNode::state_words`].
    fn load_words(&mut self, words: &[u64]) -> Result<(), String>;
}

/// Per-node runtime bookkeeping owned by the engine (not the model).
pub(crate) struct NodeRt {
    pub(crate) node: Box<dyn PdesNode>,
    /// Next `src_seq` this node will assign.
    pub(crate) seq: u32,
    pub(crate) rng: SplitMix64,
    /// Instrumentation records, in the node's own execution order.
    pub(crate) log: Vec<LogRec>,
    /// Events handled by this node.
    pub(crate) events: u64,
    /// Delivery time of the last event handled.
    pub(crate) last_at: u64,
}

/// Aggregate run statistics. `PartialEq` covers every field — a resumed
/// run must agree exactly with a straight one (wall time is measured by
/// the bench layer, never here: these modules are wall-clock free by
/// lint).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PdesStats {
    /// Events delivered by this run segment.
    pub events: u64,
    /// Largest delivery time processed so far (0 if none).
    pub end_time: u64,
}

/// Ring size of the calendar queue. Delays in the shipped models fall in
/// `[lookahead, 2·lookahead)`, so a handful of buckets covers the live
/// horizon; anything further out spills to the `far` heap and migrates
/// into the ring as virtual time advances.
const EQ_RING: usize = 16;

/// Priority queue of [`Event`]s keyed by `(at, src, src_seq)` — a
/// calendar queue whose bucket width depends on the lookahead assertion.
///
/// Cross-node sends carry `delay >= lookahead` (a hard panic in
/// [`Ctx::send`]), so with bucket width ≤ lookahead a new event can never
/// land in the bucket currently being drained: pushes append to a future
/// bucket's `Vec` (sequential, O(1)) and each bucket is sorted exactly
/// once when its turn comes — a 24-byte key sort plus one gather pass,
/// instead of O(log n) pointer-chasing heap sifts per event. The two
/// escape hatches keep the structure fully general: self-sends with
/// `delay < lookahead` that land inside the active batch go to the tiny
/// `late` heap (consulted by key on every pop), and events beyond the
/// ring horizon wait in the `far` heap. Delivery order is the exact
/// global `(at, src, src_seq)` order of a single binary heap — the
/// `(at, src, src_seq)` triple is unique per event (see module docs), so
/// the sort is a total order and bit-identity with the previous
/// implementation is preserved.
pub(crate) struct EventQueue {
    /// Future buckets; `ring[cursor]` starts at `base`, bucket `k` after
    /// it covers `[base + k·width, base + (k+1)·width)`. Unsorted.
    ring: Vec<Vec<Event>>,
    cursor: usize,
    /// Start of the first undrained bucket. The active batch (`cur` +
    /// `late`) holds only events with `at < base`.
    base: u64,
    width: u64,
    /// Sorted remainder of the active batch, descending — `Vec::pop`
    /// yields events in ascending `(at, src, src_seq)` order.
    cur: Vec<Event>,
    /// Events pushed below `base` after the batch was sorted
    /// (sub-lookahead self-sends). Almost always empty.
    late: BinaryHeap<std::cmp::Reverse<Event>>,
    /// Events at or beyond `base + EQ_RING·width`.
    far: BinaryHeap<std::cmp::Reverse<Event>>,
    len: usize,
    /// Scratch for the per-bucket key sort: `(at, src, src_seq)` packed
    /// big-endian into a `u128` so the sort compare is one wide branchless
    /// compare, plus the batch index for the gather pass.
    keys: Vec<(u128, u32)>,
}

/// The event's unique total-order key as one wide integer.
fn pack_key(ev: &Event) -> u128 {
    ((ev.at as u128) << 64) | ((ev.src as u128) << 32) | ev.src_seq as u128
}

impl EventQueue {
    /// `lookahead` is the simulation lookahead. The bucket width is a
    /// quarter of it: any width ≤ the minimum cross-node delay keeps the
    /// hot path out of the `late` heap, and smaller buckets keep each
    /// sort batch cache-resident (the queue stays correct for any width).
    pub(crate) fn new(lookahead: u64) -> EventQueue {
        EventQueue {
            ring: (0..EQ_RING).map(|_| Vec::new()).collect(),
            cursor: 0,
            base: 0,
            width: (lookahead / 4).max(1),
            cur: Vec::new(),
            late: BinaryHeap::new(),
            far: BinaryHeap::new(),
            len: 0,
            keys: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, ev: Event) {
        self.len += 1;
        if ev.at < self.base {
            self.late.push(std::cmp::Reverse(ev));
            return;
        }
        let rel = ((ev.at - self.base) / self.width) as usize;
        if rel < EQ_RING {
            self.ring[(self.cursor + rel) % EQ_RING].push(ev);
        } else {
            self.far.push(std::cmp::Reverse(ev));
        }
    }

    /// Sort the next non-empty bucket into `cur`. No-op unless the active
    /// batch is exhausted. Advances `base` past the sorted bucket.
    fn refill(&mut self) {
        if !self.cur.is_empty() || !self.late.is_empty() || self.len == 0 {
            return;
        }
        // Distance (in buckets) to the next pending event, in the ring
        // or parked in `far`.
        let k_ring = (0..EQ_RING).find(|k| !self.ring[(self.cursor + k) % EQ_RING].is_empty());
        let k_far = self
            .far
            .peek()
            .map(|std::cmp::Reverse(ev)| ((ev.at - self.base) / self.width) as usize);
        let k = match (k_ring, k_far) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!("pdes: len > 0 with no pending event"),
        };
        self.base += k as u64 * self.width;
        self.cursor = (self.cursor + k) % EQ_RING;
        // Batch = the bucket itself plus any `far` stragglers that now
        // fall inside it (possible after a long jump).
        let end = self.base + self.width;
        let mut batch = std::mem::take(&mut self.ring[self.cursor]);
        while self
            .far
            .peek()
            .is_some_and(|std::cmp::Reverse(ev)| ev.at < end)
        {
            let std::cmp::Reverse(ev) = self.far.pop().expect("peeked");
            batch.push(ev);
        }
        // Key sort + gather: order 24-byte keys, then move each event
        // exactly once into `cur` (descending, so pop() ascends).
        self.keys.clear();
        self.keys.reserve(batch.len());
        for (i, ev) in batch.iter().enumerate() {
            self.keys.push((pack_key(ev), i as u32));
        }
        self.keys.sort_unstable();
        self.cur.clear();
        self.cur.reserve(batch.len());
        // SAFETY: `keys` holds each index in 0..batch.len() exactly once,
        // so every element is moved out exactly once; the length is
        // zeroed first so a leak (not a double drop) is the worst case.
        unsafe {
            let p = batch.as_ptr();
            batch.set_len(0);
            for &(_, i) in self.keys.iter().rev() {
                self.cur.push(std::ptr::read(p.add(i as usize)));
            }
        }
        // Hand the bucket's capacity back to the ring for reuse.
        self.ring[self.cursor] = batch;
        self.base = end;
        self.cursor = (self.cursor + 1) % EQ_RING;
    }

    /// Pop the earliest event if it is due before `cut`.
    pub(crate) fn pop_lt(&mut self, cut: u64) -> Option<Event> {
        self.refill();
        let from_late = match (self.cur.last(), self.late.peek()) {
            (Some(c), Some(std::cmp::Reverse(l))) => l.key() < c.key(),
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (None, None) => return None,
        };
        let ev = if from_late {
            let std::cmp::Reverse(ev) = self.late.peek().expect("checked");
            if ev.at >= cut {
                return None;
            }
            let std::cmp::Reverse(ev) = self.late.pop().expect("checked");
            ev
        } else {
            if self.cur.last().expect("checked").at >= cut {
                return None;
            }
            self.cur.pop().expect("checked")
        };
        self.len -= 1;
        Some(ev)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn clear(&mut self) {
        for b in &mut self.ring {
            b.clear();
        }
        self.cursor = 0;
        self.base = 0;
        self.cur.clear();
        self.late.clear();
        self.far.clear();
        self.len = 0;
    }

    /// Iterate the pending events in arbitrary order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event> {
        self.cur
            .iter()
            .chain(self.late.iter().map(|r| &r.0))
            .chain(self.ring.iter().flatten())
            .chain(self.far.iter().map(|r| &r.0))
    }
}

/// A PDES simulation instance: the node set plus pending events.
///
/// Run it to completion ([`PdesSim::run`]) or in segments
/// ([`PdesSim::run_until`]); a snapshot taken between segments restores
/// into a fresh instance that finishes with the same bits.
pub struct PdesSim {
    pub(crate) nodes: Vec<NodeRt>,
    pub(crate) pending: EventQueue,
    pub(crate) lookahead: u64,
    pub(crate) seed: u64,
    /// All events with `at < now` have been delivered.
    pub(crate) now: u64,
    pub(crate) events: u64,
    pub(crate) inited: bool,
    pub(crate) record: bool,
}

impl PdesSim {
    /// Build a simulation. `lookahead` must be ≥ 1 (it sizes the event
    /// queue's buckets).
    pub fn new(seed: u64, lookahead: u64, nodes: Vec<Box<dyn PdesNode>>) -> PdesSim {
        assert!(lookahead >= 1, "pdes: lookahead must be >= 1");
        assert!(!nodes.is_empty(), "pdes: at least one node required");
        assert!(nodes.len() <= u32::MAX as usize, "pdes: too many nodes");
        let nodes = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| NodeRt {
                node,
                seq: 0,
                rng: SplitMix64::new(node_seed(seed, i as PdesNodeId)),
                log: Vec::new(),
                events: 0,
                last_at: 0,
            })
            .collect();
        PdesSim {
            nodes,
            pending: EventQueue::new(lookahead),
            lookahead,
            seed,
            now: 0,
            events: 0,
            inited: false,
            record: false,
        }
    }

    /// Enable instrumentation recording ([`LogRec`] accumulation).
    pub fn record_log(&mut self, on: bool) {
        self.record = on;
    }

    /// Number of simulated nodes.
    pub fn n_nodes(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// The conservative lookahead.
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual time through which the simulation is complete.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total events delivered so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Number of undelivered events.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Run node `init` hooks (idempotent; called by the executor).
    fn ensure_init(&mut self) {
        if self.inited {
            return;
        }
        self.inited = true;
        let lookahead = self.lookahead;
        let n_nodes = self.nodes.len() as u32;
        let record = self.record;
        let pending = &mut self.pending;
        for (i, rt) in self.nodes.iter_mut().enumerate() {
            let mut ctx = Ctx {
                now: 0,
                me: i as PdesNodeId,
                n_nodes,
                lookahead,
                seq: &mut rt.seq,
                rng: &mut rt.rng,
                out: &mut *pending,
                log: record.then_some(&mut rt.log),
            };
            rt.node.init(&mut ctx);
        }
    }

    /// Run to completion.
    pub fn run(&mut self) -> PdesStats {
        self.run_until(u64::MAX)
    }

    /// Deliver every event with `at < cut`, then advance `now` to the
    /// cut. The queue pops events in the canonical `(at, src, src_seq)`
    /// order.
    pub fn run_until(&mut self, cut: u64) -> PdesStats {
        self.ensure_init();
        let lookahead = self.lookahead;
        let n_nodes = self.nodes.len() as u32;
        let record = self.record;
        let mut delivered = 0u64;
        let mut last_at = 0u64;
        let pending = &mut self.pending;
        let nodes = &mut self.nodes;
        while let Some(ev) = pending.pop_lt(cut) {
            let rt = &mut nodes[ev.dst as usize];
            let mut ctx = Ctx {
                now: ev.at,
                me: ev.dst,
                n_nodes,
                lookahead,
                seq: &mut rt.seq,
                rng: &mut rt.rng,
                out: &mut *pending,
                log: record.then_some(&mut rt.log),
            };
            rt.node.handle(&ev, &mut ctx);
            rt.events += 1;
            rt.last_at = ev.at;
            last_at = ev.at;
            delivered += 1;
        }
        self.events += delivered;
        self.now = if cut == u64::MAX {
            self.now.max(last_at)
        } else {
            self.now.max(cut)
        };
        PdesStats {
            events: self.events,
            end_time: self.max_last_at(),
        }
    }

    fn max_last_at(&self) -> u64 {
        self.nodes.iter().map(|rt| rt.last_at).max().unwrap_or(0)
    }

    /// Snapshot of one node's model state.
    pub fn node_state(&self, node: PdesNodeId) -> Vec<u64> {
        self.nodes[node as usize].node.state_words()
    }

    /// Pending events in canonical (sorted) order — snapshot/digest input.
    pub fn pending_sorted(&self) -> Vec<Event> {
        let mut evs: Vec<Event> = self.pending.iter().cloned().collect();
        evs.sort();
        evs
    }

    /// FNV-1a digest over the behavioral simulation state: event count,
    /// per-node (seq, rng, state words, counters) and pending events.
    /// The `now` watermark is deliberately excluded — a run paused at a
    /// cut beyond its final event and a run-to-completion reach the same
    /// behavioral state with different watermarks. Snapshot bytes *do*
    /// include `now`, so same-cut comparisons still pin it. The
    /// bit-identity tests compare digests *and* full snapshot bytes.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.events);
        h.word(self.lookahead);
        h.word(self.seed);
        h.word(self.nodes.len() as u64);
        for rt in &self.nodes {
            h.word(rt.seq as u64);
            h.word(rt.rng.state());
            h.word(rt.events);
            h.word(rt.last_at);
            let words = rt.node.state_words();
            h.word(words.len() as u64);
            for w in words {
                h.word(w);
            }
        }
        for ev in self.pending_sorted() {
            h.word(ev.at);
            h.word(((ev.src as u64) << 32) | ev.dst as u64);
            h.word(((ev.src_seq as u64) << 16) | ev.kind as u64);
            h.word(ev.a);
            h.word(ev.b);
            h.word(ev.data.len() as u64);
            for &w in ev.data.iter() {
                h.word(w);
            }
        }
        h.finish()
    }

    /// Merge and drain the instrumentation log into one deterministic
    /// sequence ordered by `(at, producing node, per-node index)`. Per-node
    /// logs are fixed by the determinism contract (see module docs), so
    /// the merged sequence is too.
    pub fn drain_log(&mut self) -> Vec<LogRec> {
        let mut tagged: Vec<(u64, PdesNodeId, u32, LogRec)> = Vec::new();
        for rt in self.nodes.iter_mut() {
            for (idx, rec) in rt.log.drain(..).enumerate() {
                tagged.push((rec.at(), rec.by(), idx as u32, rec));
            }
        }
        tagged.sort_by_key(|x| (x.0, x.1, x.2));
        tagged.into_iter().map(|t| t.3).collect()
    }
}

/// Minimal FNV-1a over u64 words (little-endian bytes).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Toy model: each node keeps a counter; on every event it bumps the
    /// counter with a value from its RNG and forwards to `(me+1) % n`.
    pub(crate) struct Hot {
        pub sum: u64,
        pub hops_left: u64,
    }

    impl PdesNode for Hot {
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.me == 0 {
                let la = ctx.lookahead();
                ctx.send(1 % ctx.n_nodes, la, 1, self.hops_left, 0);
            }
        }

        fn handle(&mut self, ev: &Event, ctx: &mut Ctx<'_>) {
            self.sum = self
                .sum
                .wrapping_add(ev.a)
                .wrapping_add(ctx.rng().next_u64() >> 32);
            if ev.a > 0 {
                let nxt = (ctx.me + 1) % ctx.n_nodes;
                let la = ctx.lookahead();
                let jitter = ctx.rng().next_below(la);
                let (at, me) = (ctx.now, ctx.me);
                ctx.log(LogRec::MsgSend {
                    at,
                    from: me,
                    to: nxt,
                    bytes: 8,
                });
                ctx.send(nxt, la + jitter, 1, ev.a - 1, 0);
            }
        }

        fn state_words(&self) -> Vec<u64> {
            vec![self.sum, self.hops_left]
        }

        fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
            if words.len() != 2 {
                return Err("hot: bad state".into());
            }
            self.sum = words[0];
            self.hops_left = words[1];
            Ok(())
        }
    }

    pub(crate) fn hot_ring(seed: u64, n: u32, hops: u64) -> PdesSim {
        let nodes: Vec<Box<dyn PdesNode>> = (0..n)
            .map(|_| {
                Box::new(Hot {
                    sum: 0,
                    hops_left: hops,
                }) as Box<dyn PdesNode>
            })
            .collect();
        PdesSim::new(seed, 1000, nodes)
    }

    #[test]
    fn serial_run_is_deterministic() {
        let mut a = hot_ring(42, 8, 100);
        let mut b = hot_ring(42, 8, 100);
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa, sb);
        assert_eq!(sa.events, 101);
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = hot_ring(1, 8, 50);
        let mut b = hot_ring(2, 8, 50);
        a.run();
        b.run();
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn run_until_is_resumable() {
        let mut whole = hot_ring(7, 4, 200);
        let sw = whole.run();
        let mut split = hot_ring(7, 4, 200);
        split.run_until(50_000);
        split.run_until(150_000);
        let ss = split.run();
        assert_eq!(sw, ss);
        assert_eq!(whole.state_digest(), split.state_digest());
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn cross_node_send_below_lookahead_panics() {
        struct Bad;
        impl PdesNode for Bad {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.me == 0 {
                    ctx.send(1, 1, 0, 0, 0); // lookahead is 1000
                }
            }
            fn handle(&mut self, _ev: &Event, _ctx: &mut Ctx<'_>) {}
            fn state_words(&self) -> Vec<u64> {
                vec![]
            }
            fn load_words(&mut self, _w: &[u64]) -> Result<(), String> {
                Ok(())
            }
        }
        let nodes: Vec<Box<dyn PdesNode>> = vec![Box::new(Bad), Box::new(Bad)];
        PdesSim::new(0, 1000, nodes).run();
    }

    #[test]
    fn log_merge_is_sorted_and_stable() {
        struct Logger;
        impl PdesNode for Logger {
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.me;
                ctx.log(LogRec::Hop {
                    at: 5,
                    from: me,
                    hops: 1,
                });
                ctx.log(LogRec::Hop {
                    at: 9,
                    from: me,
                    hops: 2,
                });
            }
            fn handle(&mut self, _ev: &Event, _ctx: &mut Ctx<'_>) {}
            fn state_words(&self) -> Vec<u64> {
                vec![]
            }
            fn load_words(&mut self, _w: &[u64]) -> Result<(), String> {
                Ok(())
            }
        }
        let nodes: Vec<Box<dyn PdesNode>> = vec![Box::new(Logger), Box::new(Logger)];
        let mut sim = PdesSim::new(0, 10, nodes);
        sim.record_log(true);
        sim.run();
        let log = sim.drain_log();
        let ats: Vec<(u64, PdesNodeId)> = log.iter().map(|r| (r.at(), r.by())).collect();
        assert_eq!(ats, vec![(5, 0), (5, 1), (9, 0), (9, 1)]);
    }
}
