//! The PDES snapshot contract (DESIGN.md §17): a run cut at any virtual
//! time, snapshotted, restored into a fresh model and finished must land
//! on the uninterrupted run's bits — final stats, state digest and the
//! merged instrumentation log — and the snapshot taken at a given cut is
//! the same bytes however the run reached it.
//!
//! Covered workloads: PHOLD (random traffic spread over every node) and
//! the T22 PDES gauss (long dependency chains through pivot broadcasts).
//! Both are pure functions of their seeds, so every divergence is an
//! engine or snapshot bug, never noise.

use bfly_apps::pdes_gauss::{pdes_gauss_extract, pdes_gauss_sim};
use bfly_apps::phold::phold_sim;
use bfly_sim::pdes::PdesSim;
use bfly_snap::Snap;
use proptest::prelude::*;

/// Everything the contract pins, extracted from a finished simulation.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    events: u64,
    end_time: u64,
    digest: u64,
    log: Vec<bfly_sim::pdes::LogRec>,
}

fn fingerprint(sim: &mut PdesSim, stats: bfly_sim::pdes::PdesStats) -> Fingerprint {
    Fingerprint {
        events: stats.events,
        end_time: stats.end_time,
        digest: sim.state_digest(),
        log: sim.drain_log(),
    }
}

fn logged_phold(seed: u64) -> PdesSim {
    let mut s = phold_sim(seed, 32, 2, 25, 4_000);
    s.record_log(true);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cut → snapshot → encode/decode → restore → finish, at a quarter,
    /// half and three quarters of the run, must equal the straight run.
    #[test]
    fn midrun_snapshot_resume_matches_straight_run(
        seed in 0u64..1_000,
        cut_frac in 1u64..4,
    ) {
        let mut whole = logged_phold(seed);
        let stats = whole.run();
        let straight = fingerprint(&mut whole, stats);
        let cut = straight.end_time * cut_frac / 4;

        let mut prefix = logged_phold(seed);
        prefix.run_until(cut);
        let bytes = prefix.snapshot().encode();
        let snap = Snap::decode(&bytes).expect("snapshot decodes");
        let mut resumed = PdesSim::restore(&snap, || logged_phold(seed))
            .expect("mid-run snapshot restores");
        let stats = resumed.run();
        let mut fp = fingerprint(&mut resumed, stats);
        // The prefix log stayed in the donor sim; splice the two halves
        // before comparing against the uninterrupted log.
        let mut full_log = prefix.drain_log();
        full_log.append(&mut fp.log);
        fp.log = full_log;
        prop_assert_eq!(&straight, &fp, "cut={}", cut);

        // PDES gauss: the full extracted result (virtual time, message
        // counts, back-substituted solution error) survives the cut too.
        let mut g = pdes_gauss_sim(6, 20, seed, 64);
        g.run();
        let want = pdes_gauss_extract(&g, 6, 20);
        let mut gp = pdes_gauss_sim(6, 20, seed, 64);
        gp.run_until(want.time_ns * cut_frac / 4);
        let mut gr = PdesSim::restore(&gp.snapshot(), || pdes_gauss_sim(6, 20, seed, 64))
            .expect("gauss snapshot restores");
        gr.run();
        prop_assert_eq!(want, pdes_gauss_extract(&gr, 6, 20));
    }
}

/// The snapshot at a given cut is reproducible byte for byte: two
/// independent runs, and a run that reached the cut in several
/// segments, serialize to the same bytes.
#[test]
fn same_cut_snapshots_are_byte_identical() {
    for cut in [1u64, 20_000, 60_000, 250_000] {
        let mut a = phold_sim(5, 24, 2, 20, 4_000);
        a.run_until(cut);
        let mut b = phold_sim(5, 24, 2, 20, 4_000);
        b.run_until(cut);
        let mut c = phold_sim(5, 24, 2, 20, 4_000);
        c.run_until(cut / 3);
        c.run_until(cut / 2);
        c.run_until(cut);
        let bytes = a.snapshot().encode();
        assert_eq!(bytes, b.snapshot().encode(), "cut={cut}");
        assert_eq!(bytes, c.snapshot().encode(), "segmented, cut={cut}");
    }
}
