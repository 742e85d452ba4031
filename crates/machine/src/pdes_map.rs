//! # Machine → PDES mapping: topology-derived lookahead and latencies.
//!
//! The PDES engine (`bfly_sim::pdes`) needs one number from the machine
//! model: the **lookahead**, the minimum virtual latency of any
//! cross-node interaction, which sizes its calendar-queue buckets. On the Butterfly that is the
//! unloaded remote word reference — every remote access traverses the
//! full switch (`stages` 4×4 stages each way), so no message between
//! distinct nodes can land sooner than
//! `remote_issue + 2·stages·hop + mem_service` ([`Costs::remote_word`]).
//! PDES models built on [`PdesTopology`] express all their cross-node
//! delays through [`PdesTopology::msg_ns`] / [`PdesTopology::block_ns`],
//! which are ≥ that bound by construction, so the `Ctx::send` lookahead
//! assertion can never fire for a well-formed model.
//!
//! Also here: switch-stage counts for probe hop accounting and the
//! shared-memory region map PDES gauss uses for san replay (each node's
//! rows live in its own memory; remote pivot reads hit the owner's home).

use crate::cost::Costs;

/// Static description of the simulated machine as the PDES layer sees it:
/// node count, switch depth, and the cost calibration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdesTopology {
    /// Simulated Butterfly nodes.
    pub nodes: u32,
    /// 4×4 switch stages between any two distinct nodes.
    pub stages: u32,
    /// Timing calibration (simulated ns).
    pub costs: Costs,
}

impl PdesTopology {
    /// A Butterfly-I machine of `nodes` nodes: `⌈log₄ nodes⌉` switch
    /// stages (minimum 1), [`Costs::butterfly_one`] calibration.
    pub fn butterfly(nodes: u32) -> PdesTopology {
        PdesTopology {
            nodes,
            stages: stages_for(nodes),
            costs: Costs::butterfly_one(),
        }
    }

    /// Same machine shape under the Butterfly Plus calibration.
    pub fn butterfly_plus(nodes: u32) -> PdesTopology {
        PdesTopology {
            nodes,
            stages: stages_for(nodes),
            costs: Costs::butterfly_plus(),
        }
    }

    /// The conservative lookahead: the unloaded remote word reference,
    /// provably the cheapest cross-node interaction on this machine.
    pub fn lookahead_ns(&self) -> u64 {
        self.costs.remote_word(self.stages)
    }

    /// Latency of a `words`-word message between distinct nodes: one
    /// remote reference to land the first word, then pipelined streaming
    /// (one `hop` per extra word — the switch keeps the circuit open for
    /// block transfers, §2.1). Always ≥ [`PdesTopology::lookahead_ns`].
    pub fn msg_ns(&self, words: u64) -> u64 {
        self.lookahead_ns() + words.saturating_sub(1) * self.costs.hop
    }

    /// Latency of a block transfer of `bytes` bytes: remote setup plus
    /// per-byte wire cost (the §4.1 "copy into local memory" path).
    /// Always ≥ [`PdesTopology::lookahead_ns`].
    pub fn block_ns(&self, bytes: u64) -> u64 {
        self.lookahead_ns() + self.costs.block_setup + bytes * self.costs.block_per_byte_switch
    }

    /// Unloaded local word reference (intra-node work, self-sends).
    pub fn local_ns(&self, words: u64) -> u64 {
        words * self.costs.local_word()
    }

    /// Switch hops a message between `a` and `b` traverses (0 for a
    /// self-send: local references never enter the switch).
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        if a == b {
            0
        } else {
            self.stages
        }
    }
}

/// `⌈log₄ n⌉` with a floor of one stage — the Butterfly always routes
/// remote references through at least one 4×4 switch column.
pub fn stages_for(nodes: u32) -> u32 {
    let mut stages = 1;
    let mut reach = 4u64;
    while reach < nodes as u64 {
        reach *= 4;
        stages += 1;
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_counts_match_butterfly_columns() {
        assert_eq!(stages_for(1), 1);
        assert_eq!(stages_for(4), 1);
        assert_eq!(stages_for(5), 2);
        assert_eq!(stages_for(16), 2);
        assert_eq!(stages_for(64), 3);
        assert_eq!(stages_for(128), 4);
        assert_eq!(stages_for(256), 4);
        assert_eq!(stages_for(512), 5);
    }

    #[test]
    fn lookahead_is_the_paper_remote_reference() {
        // 128-node Butterfly-I: 1100 + 2*4*300 + 500 = 4000 ns ≈ 4 µs,
        // the paper's published remote reference latency.
        let t = PdesTopology::butterfly(128);
        assert_eq!(t.lookahead_ns(), 4_000);
    }

    #[test]
    fn every_cross_node_latency_respects_lookahead() {
        for nodes in [4u32, 64, 128, 512] {
            let t = PdesTopology::butterfly(nodes);
            let la = t.lookahead_ns();
            assert!(t.msg_ns(1) >= la);
            assert!(t.msg_ns(1000) >= la);
            assert!(t.block_ns(0) >= la);
            assert!(t.block_ns(4096) >= la);
        }
    }

    #[test]
    fn hops_are_zero_only_for_self() {
        let t = PdesTopology::butterfly(64);
        assert_eq!(t.hops(3, 3), 0);
        assert_eq!(t.hops(3, 4), 3);
    }
}
