//! # PHOLD — the standard PDES throughput benchmark.
//!
//! Each node holds a population of in-flight "jobs"; on delivery a job is
//! immediately re-sent to a uniformly random node with a random delay ≥
//! the lookahead. Total event count is exactly `population × hops`, so
//! events-per-second is a clean engine throughput metric, and the random
//! destinations and delays spread pushes across the calendar queue's
//! buckets.
//!
//! The random choices come from each node's private seeded stream, so a
//! PHOLD run is bit-deterministic like every PDES model. `remaining` hop budgets ride in the event (`a`), keeping
//! node state to a single counter.

use bfly_sim::pdes::{Ctx, Event, PdesNode, PdesSim};

const K_JOB: u16 = 1;

/// One PHOLD node: accumulates a checksum of everything it sees.
pub struct PholdNode {
    /// Jobs seeded at this node at t=0.
    init_jobs: u32,
    /// Hops each seeded job will take.
    hops: u32,
    /// FNV-ish checksum of delivered events (the state/digest witness).
    sum: u64,
    delivered: u64,
}

impl PdesNode for PholdNode {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.init_jobs {
            let la = ctx.lookahead();
            let n = ctx.n_nodes as u64;
            let dst = ctx.rng().next_below(n) as u32;
            let delay = la + ctx.rng().next_below(la);
            ctx.send(dst, delay, K_JOB, self.hops as u64, 0);
        }
    }

    fn handle(&mut self, ev: &Event, ctx: &mut Ctx<'_>) {
        self.delivered += 1;
        self.sum = self
            .sum
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(ev.at ^ ((ev.src as u64) << 32) ^ ev.a);
        if ev.a > 1 {
            let la = ctx.lookahead();
            let n = ctx.n_nodes as u64;
            let dst = ctx.rng().next_below(n) as u32;
            let delay = la + ctx.rng().next_below(la);
            ctx.send(dst, delay, K_JOB, ev.a - 1, 0);
        }
    }

    fn state_words(&self) -> Vec<u64> {
        vec![
            self.init_jobs as u64,
            self.hops as u64,
            self.sum,
            self.delivered,
        ]
    }

    fn load_words(&mut self, words: &[u64]) -> Result<(), String> {
        if words.len() != 4 {
            return Err("phold node: bad state length".into());
        }
        self.init_jobs = words[0] as u32;
        self.hops = words[1] as u32;
        self.sum = words[2];
        self.delivered = words[3];
        Ok(())
    }
}

/// Build a PHOLD simulation: `nodes` nodes, `jobs_per_node` seeded jobs
/// each, every job living for `hops` deliveries. Total events =
/// `nodes × jobs_per_node × hops`.
pub fn phold_sim(seed: u64, nodes: u32, jobs_per_node: u32, hops: u32, lookahead: u64) -> PdesSim {
    let boxes: Vec<Box<dyn PdesNode>> = (0..nodes)
        .map(|_| {
            Box::new(PholdNode {
                init_jobs: jobs_per_node,
                hops,
                sum: 0,
                delivered: 0,
            }) as Box<dyn PdesNode>
        })
        .collect();
    PdesSim::new(seed, lookahead, boxes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_count_is_exact() {
        let mut sim = phold_sim(1, 16, 4, 25, 4000);
        let stats = sim.run();
        assert_eq!(stats.events, 16 * 4 * 25);
    }
}
