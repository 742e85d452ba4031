//! Shared CLI parsing for every experiment binary.
//!
//! All experiment binaries accept the same flags:
//!
//! * `--quick` — reduced problem sizes (CI-friendly seconds, not minutes).
//! * `--stats` — print an engine-throughput summary line after the table.
//! * `--probe` — attach a `bfly-probe` [`Probe`] for the whole run and
//!   write `PROBE_<exp>.json` (counters, attribution, queue histograms)
//!   plus `TRACE_<exp>.json` (Chrome `trace_event` timeline, loadable in
//!   Perfetto / `chrome://tracing`). Probes are observational only: the
//!   simulated results are bit-identical with or without the flag.
//! * `--n <N>` — override the problem size where the experiment has one
//!   (currently FIG5's matrix dimension).
//!
//! `--probe` installs the probe *ambiently* for the calling thread (see
//! `bfly_probe::install_ambient`) and forces parameter sweeps serial so
//! every internally constructed `Machine` auto-attaches to it; the sweep
//! determinism contract keeps serial results identical to parallel ones.

use bfly_probe::Probe;

use crate::report::EngineStats;
use crate::sweep::set_thread_serial;
use crate::Scale;

/// Parsed common flags for one experiment binary.
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Experiment name, e.g. `"tab6_switch"`; names the probe output files.
    pub exp: &'static str,
    /// Reduced problem sizes.
    pub quick: bool,
    /// Print the engine summary line.
    pub stats: bool,
    /// Attach a probe and export `PROBE_/TRACE_` files.
    pub probe: bool,
    /// Attach the race & lock-order sanitizer and export `SAN_` files.
    pub sanitize: bool,
    /// Optional problem-size override.
    pub n: Option<u32>,
    /// Persist a sweep checkpoint after at least this many engine events
    /// (experiments with checkpoint support; implies a checkpoint file).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint/resume file. Defaults to `CKPT_<exp>.snap` when
    /// `--checkpoint-every` is given without `--resume`.
    pub resume: Option<String>,
}

impl BenchCli {
    /// Parse `std::env::args()`.
    pub fn parse(exp: &'static str) -> BenchCli {
        Self::parse_from(exp, std::env::args().skip(1))
    }

    /// Parse an explicit argument list (testable form of [`BenchCli::parse`]).
    pub fn parse_from(exp: &'static str, args: impl IntoIterator<Item = String>) -> BenchCli {
        let mut cli = BenchCli {
            exp,
            quick: false,
            stats: false,
            probe: false,
            sanitize: false,
            n: None,
            checkpoint_every: None,
            resume: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--stats" => cli.stats = true,
                "--probe" => cli.probe = true,
                "--sanitize" => cli.sanitize = true,
                "--n" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| panic!("{exp}: --n takes a value"));
                    cli.n = Some(v.parse().unwrap_or_else(|_| panic!("{exp}: bad --n {v}")));
                }
                "--checkpoint-every" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| panic!("{exp}: --checkpoint-every takes a value"));
                    cli.checkpoint_every = Some(
                        v.parse()
                            .unwrap_or_else(|_| panic!("{exp}: bad --checkpoint-every {v}")),
                    );
                }
                "--resume" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| panic!("{exp}: --resume takes a value"));
                    cli.resume = Some(v);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: {exp} [--quick] [--stats] [--probe] [--sanitize] [--n <size>]\n\
                         \x20          [--checkpoint-every <events>] [--resume <file>]\n\
                         \x20 --quick     reduced problem sizes\n\
                         \x20 --stats     engine-throughput summary line\n\
                         \x20 --probe     write PROBE_{exp}.json + TRACE_{exp}.json\n\
                         \x20 --sanitize  race & lock-order checking, write SAN_{exp}.json\n\
                         \x20 --n <N>     problem-size override (where supported)\n\
                         \x20 --checkpoint-every <E>  persist a sweep checkpoint every ~E engine\n\
                         \x20             events (experiments with checkpoint support)\n\
                         \x20 --resume <file>  checkpoint/resume file (default CKPT_{exp}.snap)"
                    );
                    std::process::exit(0);
                }
                other => eprintln!("{exp}: ignoring unknown argument `{other}`"),
            }
        }
        cli
    }

    /// The checkpoint policy implied by `--checkpoint-every` / `--resume`:
    /// either flag activates a file-backed sweep checkpoint (so `--resume`
    /// alone both restores and keeps checkpointing at a default cadence).
    pub fn checkpoint(&self) -> Option<(u64, crate::snapshot::FileSink)> {
        if self.checkpoint_every.is_none() && self.resume.is_none() {
            return None;
        }
        let every = self.checkpoint_every.unwrap_or(1_000_000);
        let path = self
            .resume
            .clone()
            .unwrap_or_else(|| format!("CKPT_{}.snap", self.exp));
        Some((every, crate::snapshot::FileSink::new(path)))
    }

    /// The scale implied by `--quick`.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }

    /// Set up probing and/or sanitizing if requested: create the tools,
    /// install them ambiently, and force sweeps serial. Call once before
    /// running the experiment.
    pub fn begin(&self) -> Option<Probe> {
        if self.sanitize {
            // Same ambient-install playbook as the probe: every `Sim` and
            // `Machine` constructed on this thread auto-attaches. Sweeps
            // must run serially so worker threads don't miss the ambient.
            bfly_san::install_ambient(Some(bfly_san::Sanitizer::new()));
            set_thread_serial(true);
            eprintln!("{}: sanitizer enabled (sweeps run serially)", self.exp);
        }
        if !self.probe {
            return None;
        }
        let probe = Probe::new();
        bfly_probe::install_ambient(Some(probe.clone()));
        set_thread_serial(true);
        eprintln!("{}: probing enabled (sweeps run serially)", self.exp);
        Some(probe)
    }

    /// Tear down after the experiment: print the `--stats` line, export the
    /// probe files, and undo [`BenchCli::begin`]'s ambient state.
    pub fn finish(&self, probe: Option<&Probe>, engine: Option<&EngineStats>) {
        if self.stats {
            match engine {
                Some(e) => println!("{}", e.summary()),
                None => println!("engine: (no simulations reachable from this experiment)"),
            }
        }
        if let Some(p) = probe {
            bfly_probe::install_ambient(None);
            set_thread_serial(false);
            let summary_path = format!("PROBE_{}.json", self.exp);
            let trace_path = format!("TRACE_{}.json", self.exp);
            std::fs::write(&summary_path, p.summary_json(self.exp))
                .unwrap_or_else(|e| panic!("write {summary_path}: {e}"));
            std::fs::write(&trace_path, p.chrome_trace())
                .unwrap_or_else(|e| panic!("write {trace_path}: {e}"));
            eprintln!("wrote {summary_path} and {trace_path}");
        }
        if self.sanitize {
            if let Some(s) = bfly_san::install_ambient(None) {
                set_thread_serial(false);
                let san_path = format!("SAN_{}.json", self.exp);
                std::fs::write(&san_path, s.report_json(self.exp))
                    .unwrap_or_else(|e| panic!("write {san_path}: {e}"));
                eprintln!("wrote {san_path} ({})", s.verdict_line());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_common_flags() {
        let cli = BenchCli::parse_from("t", argv(&["--quick", "--stats", "--probe", "--n", "64"]));
        assert!(cli.quick && cli.stats && cli.probe);
        assert_eq!(cli.n, Some(64));
        let cli = BenchCli::parse_from("t", argv(&[]));
        assert!(!cli.quick && !cli.stats && !cli.probe);
        assert_eq!(cli.n, None);
        assert!(cli.checkpoint().is_none());
    }

    #[test]
    fn parses_checkpoint_flags() {
        let cli = BenchCli::parse_from(
            "t",
            argv(&["--checkpoint-every", "50000", "--resume", "ckpt.snap"]),
        );
        assert_eq!(cli.checkpoint_every, Some(50000));
        assert_eq!(cli.resume.as_deref(), Some("ckpt.snap"));
        let (every, _) = cli.checkpoint().expect("checkpointing active");
        assert_eq!(every, 50000);
        // --resume alone still activates checkpointing (restore + default
        // cadence); --checkpoint-every alone defaults the file name.
        assert!(BenchCli::parse_from("t", argv(&["--resume", "x.snap"]))
            .checkpoint()
            .is_some());
        assert!(
            BenchCli::parse_from("t", argv(&["--checkpoint-every", "9"]))
                .checkpoint()
                .is_some()
        );
    }

    #[test]
    fn begin_installs_ambient_probe_and_finish_removes_it() {
        let _g = crate::sweep::TEST_SERIAL_LOCK.lock().unwrap();
        let cli = BenchCli::parse_from("t", argv(&["--probe"]));
        let probe = cli.begin().expect("probe requested");
        assert!(bfly_probe::ambient().is_some());
        assert!(crate::sweep::force_serial());
        // Write outputs into a temp dir so the test leaves no droppings.
        let dir = std::env::temp_dir().join(format!("bfly_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        cli.finish(Some(&probe), None);
        std::env::set_current_dir(old).unwrap();
        assert!(bfly_probe::ambient().is_none());
        assert!(!crate::sweep::force_serial());
        let written = std::fs::read_to_string(dir.join("PROBE_t.json")).unwrap();
        assert!(written.contains("\"schema\": \"bfly-probe/1\""));
        bfly_probe::json::validate_json(&written).unwrap();
        let trace = std::fs::read_to_string(dir.join("TRACE_t.json")).unwrap();
        bfly_probe::json::validate_json(&trace).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
