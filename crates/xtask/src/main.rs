//! # xtask — workspace lint gates
//!
//! `cargo xtask lint` enforces the repository's structural invariants,
//! the ones `rustc` and `clippy` cannot see. Two layers:
//!
//! 1. **Dependency edges** (checked here, over manifests) — `bfly-farmd`
//!    is the serving substrate and must stay std-only: `bench -> farmd`,
//!    never the reverse. A single `bfly-*` line in farmd's
//!    `[dependencies]` would invert the layering and drag the whole
//!    simulation stack into the daemon. Likewise `bfly-farm-router` may
//!    depend on exactly `bfly-farmd` (protocol + content keys) and
//!    nothing else: the router routes jobs, it cannot run them, so
//!    `bench -> router -> farmd` stays acyclic.
//! 2. **Everything else** (delegated to the `bfly-lint` engine,
//!    DESIGN.md §18) — SAFETY-comment discipline, the unsafe allowlist,
//!    the daemon unwrap ban, the reactor thread ban, and — replacing the
//!    old path-glob purity checks — *transitive* purity inference over
//!    the workspace call graph: wall-clock reads, `HashMap`/`HashSet`,
//!    ambient randomness, and any `thread::spawn` reachable
//!    from the PDES/snapshot modules, plus blocking calls reachable from
//!    reactor callbacks, are flagged wherever they live. The engine also
//!    builds a static lock-acquisition-order graph and (with `--san`)
//!    cross-checks it against bfly-san's dynamically observed one.
//!
//! Violations are suppressed only by a reasoned exemption comment,
//! `// lint: allow(<check>): <why>` — see `crates/lint/src/checks.rs`.
//!
//! Usage:
//!
//! ```text
//! cargo xtask lint                  # gate: exit 1 on any non-exempt error
//! cargo xtask lint --json [PATH]    # also write LINT_report.json (bfly-lint/1)
//! cargo xtask lint --san SAN.json   # cross-check static vs dynamic lock graph
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The only dependency `bfly-farm-router` may declare.
const ROUTER_ALLOWED_DEP: &str = "bfly-farmd";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}` (try `cargo xtask lint`)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint [--json [PATH]] [--san SAN_report.json]");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `lint` subcommand options.
#[derive(Debug, Default, PartialEq)]
struct LintOpts {
    /// `Some(path)` when `--json [PATH]` was given.
    json: Option<String>,
    /// `Some(path)` when `--san PATH` was given.
    san: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts::default();
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                match next {
                    Some(p) => {
                        opts.json = Some(p.clone());
                        i += 2;
                    }
                    None => {
                        opts.json = Some("LINT_report.json".to_string());
                        i += 1;
                    }
                }
            }
            "--san" => {
                let p = args
                    .get(i + 1)
                    .ok_or_else(|| "--san requires a path to a SAN_<exp>.json".to_string())?;
                opts.san = Some(p.clone());
                i += 2;
            }
            other => return Err(format!("unknown lint option `{other}`")),
        }
    }
    Ok(opts)
}

fn lint(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = workspace_root();
    let mut violations: Vec<String> = Vec::new();

    // Check 1: farmd stays dependency-free (bench -> farmd, never the reverse).
    let farmd_manifest = root.join("crates/farmd/Cargo.toml");
    match std::fs::read_to_string(&farmd_manifest) {
        Ok(text) => violations.extend(check_farmd_isolation("crates/farmd/Cargo.toml", &text)),
        Err(e) => violations.push(format!("crates/farmd/Cargo.toml: unreadable: {e}")),
    }

    // Check 1b: the router depends on exactly farmd, nothing else.
    let router_manifest = root.join("crates/farm-router/Cargo.toml");
    match std::fs::read_to_string(&router_manifest) {
        Ok(text) => violations.extend(check_router_isolation(
            "crates/farm-router/Cargo.toml",
            &text,
        )),
        Err(e) => violations.push(format!("crates/farm-router/Cargo.toml: unreadable: {e}")),
    }

    // Everything else: the bfly-lint engine over the full workspace.
    let ws = match bfly_lint::load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask lint: cannot load workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = bfly_lint::Config::workspace_default();
    cfg.deps = ws.deps.clone();

    let report = match &opts.san {
        None => bfly_lint::analyze(&ws.files, &cfg),
        Some(san_path) => {
            let san_text = match std::fs::read_to_string(san_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xtask lint: cannot read SAN report {san_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match bfly_lint::analyze_with_san(&ws.files, &cfg, &san_text) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("xtask lint: san cross-check failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    print!("{}", report.render_text());
    if let Some(json_path) = &opts.json {
        let json = report.to_json();
        if let Err(e) = std::fs::write(json_path, &json) {
            eprintln!("xtask lint: cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask lint: wrote {json_path} ({} bytes)", json.len());
    }

    let errors = report.errors();
    if violations.is_empty() && errors == 0 {
        println!("xtask lint: ok (dependency edges + bfly-lint engine)");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("xtask lint: {v}");
        }
        eprintln!(
            "xtask lint: {} manifest violation(s), {} engine error(s)",
            violations.len(),
            errors
        );
        ExitCode::FAILURE
    }
}

/// Resolve the workspace root from this crate's own manifest directory
/// (`crates/xtask` -> two levels up), so the gate works from any cwd.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

// ---------------------------------------------------------------------------
// Check 1: dependency edges (manifest-level; stays here, not in the engine)
// ---------------------------------------------------------------------------

/// farmd's `[dependencies]` section must be empty: the daemon is std-only,
/// and in particular must never depend on a `bfly-*` crate (that would
/// reverse the `bench -> farmd` edge and couple the serving layer to the
/// simulation stack).
fn check_farmd_isolation(label: &str, manifest: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut in_deps = false;
    for (i, raw) in manifest.lines().enumerate() {
        let line = strip_comment(raw, "#").trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps && !line.is_empty() {
            let dep = line.split(['=', '.']).next().unwrap_or(line).trim();
            violations.push(format!(
                "{label}:{}: farmd must stay std-only (bench -> farmd, never the reverse); \
                 found dependency `{dep}`",
                i + 1
            ));
        }
    }
    violations
}

/// The router's `[dependencies]` must be exactly [`ROUTER_ALLOWED_DEP`]:
/// it speaks the farmd protocol and reuses farmd's json/client/key code,
/// but must never grow an edge into the simulation stack (it routes
/// jobs; it cannot run them). An empty section is also a violation —
/// the router without the farmd protocol types is not the router.
fn check_router_isolation(label: &str, manifest: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let mut in_deps = false;
    let mut saw_allowed = false;
    for (i, raw) in manifest.lines().enumerate() {
        let line = strip_comment(raw, "#").trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps && !line.is_empty() {
            let dep = line.split(['=', '.']).next().unwrap_or(line).trim();
            if dep == ROUTER_ALLOWED_DEP {
                saw_allowed = true;
            } else {
                violations.push(format!(
                    "{label}:{}: farm-router may depend on exactly `{ROUTER_ALLOWED_DEP}` \
                     (bench -> router -> farmd, never the reverse); found `{dep}`",
                    i + 1
                ));
            }
        }
    }
    if !saw_allowed {
        violations.push(format!(
            "{label}: farm-router must declare its one dependency `{ROUTER_ALLOWED_DEP}` \
             (the protocol and content-key types live there)"
        ));
    }
    violations
}

/// Cut `raw` at the first occurrence of `marker` (TOML `#` comments).
/// Manifest lines never contain `#` inside strings, so line-level
/// stripping is sound here — unlike for Rust sources, which is exactly
/// why the source checks moved onto bfly-lint's token stream.
fn strip_comment<'a>(raw: &'a str, marker: &str) -> &'a str {
    match raw.find(marker) {
        Some(i) => &raw[..i],
        None => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- option parsing ----------------------------------------------------

    #[test]
    fn parse_opts_variants() {
        let a = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_opts(&a(&[])).unwrap(), LintOpts::default());
        assert_eq!(
            parse_opts(&a(&["--json"])).unwrap(),
            LintOpts {
                json: Some("LINT_report.json".into()),
                san: None
            }
        );
        assert_eq!(
            parse_opts(&a(&["--json", "out.json", "--san", "SAN_t18.json"])).unwrap(),
            LintOpts {
                json: Some("out.json".into()),
                san: Some("SAN_t18.json".into())
            }
        );
        // --json directly followed by --san: default path, san consumed.
        assert_eq!(
            parse_opts(&a(&["--json", "--san", "S.json"])).unwrap(),
            LintOpts {
                json: Some("LINT_report.json".into()),
                san: Some("S.json".into())
            }
        );
        assert!(parse_opts(&a(&["--san"])).is_err());
        assert!(parse_opts(&a(&["--bogus"])).is_err());
    }

    // -- check 1: farmd isolation ------------------------------------------

    #[test]
    fn farmd_isolation_accepts_empty_deps() {
        let manifest = "[package]\nname = \"bfly-farmd\"\n\n[dependencies]\n\n[dev-dependencies]\n";
        assert!(check_farmd_isolation("l", manifest).is_empty());
    }

    #[test]
    fn farmd_isolation_rejects_any_dependency() {
        let manifest = "[dependencies]\nbfly-sim = { path = \"../sim\" }\n";
        let v = check_farmd_isolation("l", manifest);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bfly-sim"));
    }

    #[test]
    fn farmd_isolation_ignores_comments_and_other_sections() {
        let manifest = "[dependencies]\n# bfly-sim = would be bad\n\n[dev-dependencies]\nbfly-bench.workspace = true\n";
        assert!(check_farmd_isolation("l", manifest).is_empty());
    }

    // -- check 1b: router isolation ----------------------------------------

    #[test]
    fn router_isolation_accepts_exactly_farmd() {
        let manifest = "[dependencies]\nbfly-farmd = { path = \"../farmd\" }\n";
        assert!(check_router_isolation("l", manifest).is_empty());
    }

    #[test]
    fn router_isolation_rejects_extra_deps() {
        let manifest =
            "[dependencies]\nbfly-farmd = { path = \"../farmd\" }\nbfly-sim.workspace = true\n";
        let v = check_router_isolation("l", manifest);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("bfly-sim"));
    }

    #[test]
    fn router_isolation_requires_the_farmd_edge() {
        let manifest = "[dependencies]\n";
        let v = check_router_isolation("l", manifest);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("must declare"));
    }
}
