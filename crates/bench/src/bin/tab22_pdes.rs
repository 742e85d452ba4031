//! T22 — PDES gauss speedup sweep vs Sokolinsky's bound, on the
//! event-level PDES engine. Flags: `--quick`, `--stats`, `--probe`,
//! `--sanitize`. The printed table and every PROBE/SAN export are
//! byte-reproducible run to run (CI diffs the bytes).
use bfly_bench::BenchCli;

fn main() {
    let cli = BenchCli::parse("tab22_pdes");
    let probe = cli.begin();
    let (table, engine) = bfly_bench::experiments::tab22_pdes_run(cli.scale());
    table.print();
    cli.finish(probe.as_ref(), Some(&engine));
}
