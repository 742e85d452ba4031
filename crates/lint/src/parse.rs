//! Item-level parsing over the token stream: functions (with module path
//! and impl type), call sites, `use` edges, taint-source hits, static
//! lock acquisitions, and the raw material for the token-based checks
//! (`unsafe` uses, bare `.unwrap()`s, `thread::spawn`s).
//!
//! This is *not* a Rust parser — it is a structural scan with brace
//! matching, which is exactly enough to build a call graph by
//! resolved-name heuristics. Where real Rust is ambiguous the scan errs
//! toward recording more (an extra call edge over-approximates taint,
//! which is the safe direction for a purity gate).

use crate::lex::{Lexed, TokKind, Token};

/// Taint kinds tracked by the purity inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// `Instant::now`, `SystemTime` — wall-clock reads.
    WallClock,
    /// `HashMap` / `HashSet` — randomized iteration order.
    HashContainer,
    /// `thread::spawn` / `thread::Builder` — host-thread executors.
    ThreadSpawn,
    /// `RandomState`, `thread_rng`, `from_entropy` — ambient randomness.
    Randomness,
    /// `thread::sleep`, `thread::park` — blocks the calling thread.
    BlockingSleep,
    /// `.wait(…)` / `.wait_timeout(…)` / `.recv(…)` — blocking waits.
    BlockingWait,
}

impl TaintKind {
    /// True for kinds that poison determinism-critical code.
    pub fn is_determinism(self) -> bool {
        matches!(
            self,
            TaintKind::WallClock
                | TaintKind::HashContainer
                | TaintKind::ThreadSpawn
                | TaintKind::Randomness
        )
    }

    /// True for kinds that must not be reachable from reactor callbacks.
    pub fn is_blocking(self) -> bool {
        matches!(self, TaintKind::BlockingSleep | TaintKind::BlockingWait)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            TaintKind::WallClock => "wall-clock",
            TaintKind::HashContainer => "hash-container",
            TaintKind::ThreadSpawn => "thread-spawn",
            TaintKind::Randomness => "randomness",
            TaintKind::BlockingSleep => "blocking-sleep",
            TaintKind::BlockingWait => "blocking-wait",
        }
    }
}

/// A direct taint-source token inside one function.
#[derive(Clone, Debug)]
pub struct SourceHit {
    pub kind: TaintKind,
    pub line: u32,
    /// Human-readable form of the matched tokens (`Instant::now`, …).
    pub what: String,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Last path segment — the name resolution keys on.
    pub name: String,
    /// Full path as written (`["snapshot", "encode"]`; `["f"]`).
    pub path: Vec<String>,
    /// `.name(…)` method-call form.
    pub method: bool,
    pub line: u32,
    /// Lock names statically held at the call site (for cross-function
    /// lock-order edges).
    pub holding: Vec<String>,
}

/// A static lock acquisition (`x.lock()`, `locked(&x)`).
#[derive(Clone, Debug)]
pub struct LockAcq {
    /// Heuristic lock name: last receiver/argument field identifier.
    pub name: String,
    pub line: u32,
}

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Index of the owning file in [`ParsedFile`] order (set by lib.rs).
    pub file: usize,
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub impl_type: Option<String>,
    /// Inline module path (`["tests"]`, `["platform", "linux"]`).
    pub module: Vec<String>,
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]` scope.
    pub in_test: bool,
    pub calls: Vec<Call>,
    pub sources: Vec<SourceHit>,
    /// Static lock-order edges observed inside this fn: `(a, b, line)` —
    /// `b` acquired while `a`'s guard is live.
    pub lock_edges: Vec<(String, String, u32)>,
    /// All locks this fn acquires directly.
    pub lock_acquires: Vec<LockAcq>,
}

impl FnItem {
    /// `Type::name` or bare `name` — the display form.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    /// `use` declaration paths, one string per declaration.
    pub uses: Vec<String>,
    /// Every `unsafe` keyword token: `(line, in_test)`.
    pub unsafe_uses: Vec<(u32, bool)>,
    /// Every bare `.unwrap()`: `(line, in_test)`.
    pub unwraps: Vec<(u32, bool)>,
    /// Every `thread::spawn` / `thread::Builder`: `(line, in_test)`.
    pub thread_spawns: Vec<(u32, bool)>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "mut", "ref", "move",
    "else", "fn", "impl", "mod", "use", "pub", "struct", "enum", "trait", "type", "where",
    "unsafe", "const", "static", "crate", "super", "Self", "self", "dyn", "box", "async", "await",
    "break", "continue", "extern",
];

#[derive(Debug)]
enum Ctx {
    Mod {
        name: String,
        depth: u32,
        test: bool,
    },
    Impl {
        ty: Option<String>,
        depth: u32,
        test: bool,
    },
    Fn {
        idx: usize,
        depth: u32,
        guards: Vec<Guard>,
    },
}

#[derive(Debug, Clone)]
struct Guard {
    lock: String,
    /// Binding variable (`let g = x.lock()`), if bound.
    var: Option<String>,
    depth: u32,
}

/// Parse one lexed file into items.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let t = &lexed.tokens;
    let mut out = ParsedFile::default();
    let mut ctx: Vec<Ctx> = Vec::new();
    let mut depth: u32 = 0;
    // Attribute state: `#[test]`/`#[cfg(test))]` seen before the next item.
    let mut pending_test = false;
    let mut i = 0usize;

    // Innermost-enclosing-test check, including a pending attribute.
    fn in_test(ctx: &[Ctx], pending: bool) -> bool {
        pending
            || ctx.iter().any(|c| match c {
                Ctx::Mod { test, .. } | Ctx::Impl { test, .. } => *test,
                Ctx::Fn { .. } => false,
            })
    }

    while i < t.len() {
        let tok = &t[i];
        match (tok.kind, tok.text.as_str()) {
            (TokKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                // Close every context opened at a deeper level.
                while let Some(c) = ctx.last() {
                    let open = match c {
                        Ctx::Mod { depth, .. } | Ctx::Impl { depth, .. } => *depth,
                        Ctx::Fn { depth, .. } => *depth,
                    };
                    if open > depth {
                        ctx.pop();
                    } else {
                        break;
                    }
                }
                // Guards whose scope ended die with the block.
                if let Some(Ctx::Fn { guards, .. }) =
                    ctx.iter_mut().rev().find(|c| matches!(c, Ctx::Fn { .. }))
                {
                    guards.retain(|g| g.depth <= depth);
                }
                i += 1;
            }
            (TokKind::Punct, ";") => {
                // Unbound guards (temporaries) die at statement end.
                if let Some(Ctx::Fn { guards, .. }) =
                    ctx.iter_mut().rev().find(|c| matches!(c, Ctx::Fn { .. }))
                {
                    guards.retain(|g| g.var.is_some() || g.depth < depth);
                }
                i += 1;
            }
            (TokKind::Punct, "#") => {
                // Attribute: `#[…]` or inner `#![…]`.
                let mut j = i + 1;
                let inner = j < t.len() && t[j].kind == TokKind::Punct && t[j].text == "!";
                if inner {
                    j += 1;
                }
                if j < t.len() && t[j].kind == TokKind::Punct && t[j].text == "[" {
                    let (end, has_test) = scan_attr(t, j);
                    if !inner && has_test {
                        pending_test = true;
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "mod") => {
                if let Some(name) = ident_at(t, i + 1) {
                    // `mod x;` declares a file module; `mod x {` opens one.
                    if punct_at(t, i + 2, "{") {
                        ctx.push(Ctx::Mod {
                            name,
                            depth: depth + 1,
                            test: in_test(&ctx, pending_test),
                        });
                        pending_test = false;
                        depth += 1;
                        i += 3;
                        continue;
                    }
                }
                pending_test = false;
                i += 1;
            }
            (TokKind::Ident, "impl") => {
                let (ty, next) = parse_impl_header(t, i + 1);
                // Only push a context if the header found its `{`.
                if next > i {
                    ctx.push(Ctx::Impl {
                        ty,
                        depth: depth + 1,
                        test: in_test(&ctx, pending_test),
                    });
                    pending_test = false;
                    depth += 1;
                    i = next;
                } else {
                    i += 1;
                }
            }
            (TokKind::Ident, "use") => {
                let mut j = i + 1;
                let mut path = String::new();
                while j < t.len() && !(t[j].kind == TokKind::Punct && t[j].text == ";") {
                    if t[j].kind == TokKind::Ident {
                        if !path.is_empty() {
                            path.push_str("::");
                        }
                        path.push_str(&t[j].text);
                    }
                    j += 1;
                }
                if !path.is_empty() {
                    out.uses.push(path);
                }
                i = j + 1;
            }
            (TokKind::Ident, "fn") => {
                // `fn(` is a fn-pointer type, not an item.
                let Some(name) = ident_at(t, i + 1) else {
                    i += 1;
                    continue;
                };
                let test = in_test(&ctx, pending_test);
                pending_test = false;
                let module: Vec<String> = ctx
                    .iter()
                    .filter_map(|c| match c {
                        Ctx::Mod { name, .. } => Some(name.clone()),
                        _ => None,
                    })
                    .collect();
                let impl_type = ctx.iter().rev().find_map(|c| match c {
                    Ctx::Impl { ty, .. } => ty.clone(),
                    _ => None,
                });
                let item = FnItem {
                    file: 0,
                    name,
                    impl_type,
                    module,
                    line: t[i].line,
                    in_test: test,
                    calls: Vec::new(),
                    sources: Vec::new(),
                    lock_edges: Vec::new(),
                    lock_acquires: Vec::new(),
                };
                // Find the body `{` (or `;` for a bodiless trait method).
                let mut j = i + 2;
                let mut opened = false;
                while j < t.len() {
                    match (t[j].kind, t[j].text.as_str()) {
                        (TokKind::Punct, "{") => {
                            opened = true;
                            break;
                        }
                        (TokKind::Punct, ";") => break,
                        // A `}` before any `{` means a malformed signature
                        // (or the end of an enclosing block) — bail out.
                        (TokKind::Punct, "}") => break,
                        _ => j += 1,
                    }
                }
                out.fns.push(item);
                let idx = out.fns.len() - 1;
                if opened {
                    ctx.push(Ctx::Fn {
                        idx,
                        depth: depth + 1,
                        guards: Vec::new(),
                    });
                    depth += 1;
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            (TokKind::Ident, "unsafe") => {
                out.unsafe_uses.push((tok.line, in_test(&ctx, false)));
                i += 1;
            }
            (TokKind::Ident, _) => {
                scan_ident(t, i, &mut ctx, &mut out, depth);
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Scan an attribute group starting at the `[`; returns `(index past the
/// closing "]", whether the attribute mentions `test`)`.
fn scan_attr(t: &[Token], open: usize) -> (usize, bool) {
    let mut j = open + 1;
    let mut depth = 1usize;
    let mut has_test = false;
    while j < t.len() && depth > 0 {
        match (t[j].kind, t[j].text.as_str()) {
            (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, "]") => depth -= 1,
            (TokKind::Ident, "test") => has_test = true,
            _ => {}
        }
        j += 1;
    }
    (j, has_test)
}

fn ident_at(t: &[Token], i: usize) -> Option<String> {
    match t.get(i) {
        Some(tok) if tok.kind == TokKind::Ident && !KEYWORDS.contains(&tok.text.as_str()) => {
            Some(tok.text.clone())
        }
        _ => None,
    }
}

fn punct_at(t: &[Token], i: usize, p: &str) -> bool {
    matches!(t.get(i), Some(tok) if tok.kind == TokKind::Punct && tok.text == p)
}

/// Parse an `impl` header starting just past the `impl` keyword. Returns
/// `(type name, index past the opening "{")`, or `(None, start)` when no
/// body brace is found (e.g. `impl Trait for T;` — not real Rust, but
/// stay robust).
fn parse_impl_header(t: &[Token], start: usize) -> (Option<String>, usize) {
    let mut j = start;
    // Skip generic parameters `<…>` (minding `->` inside Fn bounds).
    if punct_at(t, j, "<") {
        j = skip_angles(t, j);
    }
    // Collect the (possibly `for`-split) header until `{`.
    let mut seg: Vec<String> = Vec::new();
    while j < t.len() {
        match (t[j].kind, t[j].text.as_str()) {
            (TokKind::Punct, "{") => {
                let ty = seg.last().cloned();
                return (ty, j + 1);
            }
            (TokKind::Punct, ";") | (TokKind::Punct, "}") => return (None, start),
            (TokKind::Ident, "for") => {
                // Trait impl: the type is what follows `for`.
                seg.clear();
                j += 1;
            }
            (TokKind::Ident, "where") => {
                // Type name is settled; scan on for the `{`.
                j += 1;
            }
            (TokKind::Punct, "<") => {
                j = skip_angles(t, j);
            }
            (TokKind::Ident, name) => {
                if !KEYWORDS.contains(&name) {
                    seg.push(name.to_string());
                }
                j += 1;
            }
            _ => j += 1,
        }
    }
    (None, start)
}

/// Skip a balanced `<…>` group starting at the `<`; `>` that is part of
/// `->` does not count as a closer.
fn skip_angles(t: &[Token], open: usize) -> usize {
    let mut j = open + 1;
    let mut depth = 1i32;
    while j < t.len() && depth > 0 {
        match (t[j].kind, t[j].text.as_str()) {
            (TokKind::Punct, "<") => depth += 1,
            (TokKind::Punct, ">") => {
                let arrow = j > 0 && t[j - 1].kind == TokKind::Punct && t[j - 1].text == "-";
                if !arrow {
                    depth -= 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Handle one in-body identifier token: call sites, taint sources, lock
/// acquisitions, unwraps. Mutates the innermost `Fn` context.
fn scan_ident(t: &[Token], i: usize, ctx: &mut [Ctx], out: &mut ParsedFile, depth: u32) {
    let name = t[i].text.as_str();
    let line = t[i].line;
    let test_ctx = ctx.iter().any(|c| match c {
        Ctx::Mod { test, .. } | Ctx::Impl { test, .. } => *test,
        Ctx::Fn { .. } => false,
    });
    let fn_ctx_idx = ctx.iter().rposition(|c| matches!(c, Ctx::Fn { .. }));
    let fn_item_idx = fn_ctx_idx.and_then(|ci| match &ctx[ci] {
        Ctx::Fn { idx, .. } => Some(*idx),
        _ => None,
    });

    // --- multi-token source patterns anchored on this ident ----------------
    let path2 = |a: &str, b: &str| -> bool {
        name == a
            && punct_at(t, i + 1, ":")
            && punct_at(t, i + 2, ":")
            && matches!(t.get(i + 3), Some(x) if x.kind == TokKind::Ident && x.text == b)
    };
    let mut source: Option<(TaintKind, String)> = None;
    if path2("Instant", "now") {
        source = Some((TaintKind::WallClock, "Instant::now".into()));
    } else if name == "SystemTime" {
        source = Some((TaintKind::WallClock, "SystemTime".into()));
    } else if name == "HashMap" || name == "HashSet" {
        source = Some((TaintKind::HashContainer, name.to_string()));
    } else if path2("thread", "spawn") || path2("thread", "Builder") {
        let what = if path2("thread", "spawn") {
            "thread::spawn"
        } else {
            "thread::Builder"
        };
        source = Some((TaintKind::ThreadSpawn, what.into()));
        out.thread_spawns.push((line, test_ctx));
    } else if name == "RandomState" || name == "thread_rng" || name == "from_entropy" {
        source = Some((TaintKind::Randomness, name.to_string()));
    } else if path2("thread", "sleep") || path2("thread", "park") {
        let what = if path2("thread", "sleep") {
            "thread::sleep"
        } else {
            "thread::park"
        };
        source = Some((TaintKind::BlockingSleep, what.into()));
    }

    // --- call site: Ident followed by `(` ----------------------------------
    let is_call = punct_at(t, i + 1, "(") && !KEYWORDS.contains(&name);
    if is_call {
        // Path segments behind: `a::b::name(`.
        let mut path = vec![name.to_string()];
        let mut k = i;
        while k >= 3
            && punct_at(t, k - 1, ":")
            && punct_at(t, k - 2, ":")
            && t[k - 3].kind == TokKind::Ident
        {
            path.insert(0, t[k - 3].text.clone());
            k -= 3;
        }
        let method = k >= 1 && punct_at(t, k - 1, ".");

        if method {
            match name {
                "wait" | "wait_timeout" | "wait_while" | "recv" | "recv_timeout" => {
                    source = Some((TaintKind::BlockingWait, format!(".{name}()")));
                }
                "unwrap" if punct_at(t, i + 2, ")") => {
                    out.unwraps.push((line, test_ctx));
                }
                _ => {}
            }
        }

        if let (Some(ci), Some(fi)) = (fn_ctx_idx, fn_item_idx) {
            // Lock acquisition?
            let lock_name = if method && name == "lock" {
                receiver_field(t, k - 1)
            } else if !method && name == "locked" {
                first_arg_field(t, i + 1)
            } else {
                None
            };
            // Explicit release: `drop(g)`.
            let dropped = if !method && name == "drop" {
                ident_at(t, i + 2).filter(|_| punct_at(t, i + 3, ")"))
            } else {
                None
            };
            let holding: Vec<String> = match &ctx[ci] {
                Ctx::Fn { guards, .. } => guards.iter().map(|g| g.lock.clone()).collect(),
                _ => Vec::new(),
            };
            if let Some(lock) = lock_name {
                let bound_var = if direct_binding(t, k) {
                    let_binding_var(t, k)
                } else {
                    None
                };
                if let Ctx::Fn { guards, .. } = &mut ctx[ci] {
                    for g in guards.iter() {
                        if g.lock != lock {
                            out.fns[fi]
                                .lock_edges
                                .push((g.lock.clone(), lock.clone(), line));
                        }
                    }
                    guards.push(Guard {
                        lock: lock.clone(),
                        var: bound_var,
                        depth,
                    });
                }
                out.fns[fi].lock_acquires.push(LockAcq { name: lock, line });
            } else if let Some(var) = dropped {
                if let Ctx::Fn { guards, .. } = &mut ctx[ci] {
                    guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                }
            } else {
                out.fns[fi].calls.push(Call {
                    name: name.to_string(),
                    path,
                    method,
                    line,
                    holding,
                });
            }
        }
    }

    // Sources outside any fn (consts, statics) carry no call-graph
    // meaning; only fn-scoped hits feed the taint propagation.
    if let (Some(kind_what), Some(fi)) = (source, fn_item_idx) {
        out.fns[fi].sources.push(SourceHit {
            kind: kind_what.0,
            line,
            what: kind_what.1,
        });
    }
}

/// For `recv.field.lock()` with `dot` at the `.` before `lock`: walk the
/// receiver chain backwards and return the last field name (not `self`).
fn receiver_field(t: &[Token], dot: usize) -> Option<String> {
    let mut k = dot; // at the `.` before `lock`
    let mut last: Option<String> = None;
    loop {
        if k == 0 {
            break;
        }
        // Expect Ident before the dot.
        if t[k - 1].kind == TokKind::Ident {
            let id = &t[k - 1].text;
            if id != "self" && last.is_none() {
                last = Some(id.clone());
            }
            // Continue down the chain if preceded by another `.`.
            if k >= 2 && punct_at(t, k - 2, ".") {
                k -= 2;
                continue;
            }
        }
        break;
    }
    // Bare `self.lock()` is a *wrapper method* on the type, not a mutex
    // field — naming it "self" would alias every such wrapper across
    // unrelated types into one fake lock. Skipped, like anything else
    // unresolvable (`call().lock()`); the wrapper's own body shows the
    // real field acquisition.
    last
}

/// For `locked(&self.jobs)` with `open` at the `(`: the last identifier
/// of the first argument.
fn first_arg_field(t: &[Token], open: usize) -> Option<String> {
    let mut j = open + 1;
    let mut depth = 1i32;
    let mut last: Option<String> = None;
    while j < t.len() && depth > 0 {
        match (t[j].kind, t[j].text.as_str()) {
            (TokKind::Punct, "(") => depth += 1,
            (TokKind::Punct, ")") => depth -= 1,
            (TokKind::Punct, ",") if depth == 1 => break,
            (TokKind::Ident, id) if id != "self" => last = Some(id.to_string()),
            _ => {}
        }
        j += 1;
    }
    last
}

/// Is the lock expression starting at `k` (path start, or method name
/// with its receiver chain behind it) the *direct* right-hand side of a
/// `let` — i.e. does walking the receiver chain back land on `=`
/// (optionally through `&`/`mut`)? A lock call buried deeper in the
/// expression (`let n = v.filter(|i| locked(&h).ok()).collect()`) only
/// produces a temporary guard; binding it to the `let` variable would
/// keep it alive for the rest of the scope and fabricate lock-order
/// edges.
fn direct_binding(t: &[Token], k: usize) -> bool {
    let mut cs = k;
    while cs >= 2 && punct_at(t, cs - 1, ".") && t[cs - 2].kind == TokKind::Ident {
        cs -= 2;
    }
    while cs >= 1
        && ((t[cs - 1].kind == TokKind::Punct && t[cs - 1].text == "&")
            || (t[cs - 1].kind == TokKind::Ident && t[cs - 1].text == "mut"))
    {
        cs -= 1;
    }
    cs >= 1 && punct_at(t, cs - 1, "=")
}

/// Does the statement containing position `k` start with `let`? If so,
/// return the bound variable name (first ident after `let`, skipping
/// `mut`). `k` is the index of the first token of the call expression.
fn let_binding_var(t: &[Token], k: usize) -> Option<String> {
    // Walk back to the statement boundary.
    let mut j = k;
    while j > 0 {
        let p = &t[j - 1];
        if p.kind == TokKind::Punct && (p.text == ";" || p.text == "{" || p.text == "}") {
            break;
        }
        j -= 1;
    }
    if matches!(t.get(j), Some(x) if x.kind == TokKind::Ident && x.text == "let") {
        let mut m = j + 1;
        while matches!(t.get(m), Some(x) if x.kind == TokKind::Ident && x.text == "mut") {
            m += 1;
        }
        return match t.get(m) {
            // `let _ = …` drops the temporary at the statement end (no
            // binding), exactly like an unbound expression — so no var.
            Some(x) if x.kind == TokKind::Ident && x.text != "_" => Some(x.text.clone()),
            _ => None,
        };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn fns_with_modules_and_impls() {
        let src = "
mod inner {
    struct S;
    impl S {
        fn method(&self) { helper(); }
    }
    fn helper() {}
}
fn top() { inner::helper(); }
";
        let p = parse_src(src);
        let names: Vec<_> = p.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["S::method", "helper", "top"]);
        assert_eq!(p.fns[0].module, vec!["inner"]);
        assert_eq!(p.fns[2].calls[0].path, vec!["inner", "helper"]);
    }

    #[test]
    fn test_modules_and_test_fns_are_flagged() {
        let src = "
fn prod() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn a_test() { helper(); }
}
";
        let p = parse_src(src);
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
        assert!(p.fns[2].in_test);
    }

    #[test]
    fn sources_are_collected_per_fn() {
        let src = "
fn clocky() { let t = Instant::now(); }
fn hashy() { let m: HashMap<u32, u32> = HashMap::new(); }
fn sleepy() { std::thread::sleep(d); }
fn spawny() { std::thread::spawn(f); }
";
        let p = parse_src(src);
        assert_eq!(p.fns[0].sources[0].kind, TaintKind::WallClock);
        assert_eq!(p.fns[1].sources.len(), 2); // type + constructor
        assert_eq!(p.fns[1].sources[0].kind, TaintKind::HashContainer);
        assert_eq!(p.fns[2].sources[0].kind, TaintKind::BlockingSleep);
        assert_eq!(p.fns[3].sources[0].kind, TaintKind::ThreadSpawn);
        assert_eq!(p.thread_spawns.len(), 1);
    }

    #[test]
    fn method_calls_and_blocking_waits() {
        let src = "fn f(&self) { self.inner.step(); cv.wait(g); q.recv(); }";
        let p = parse_src(src);
        let f = &p.fns[0];
        assert!(f.calls.iter().any(|c| c.name == "step" && c.method));
        let kinds: Vec<_> = f.sources.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![TaintKind::BlockingWait, TaintKind::BlockingWait]
        );
    }

    #[test]
    fn unwraps_only_bare_form() {
        let src = "
fn f() { a.unwrap(); b.unwrap_or(0); c.unwrap_or_else(|| 1); }
#[cfg(test)]
mod tests { fn t() { z.unwrap(); } }
";
        let p = parse_src(src);
        assert_eq!(p.unwraps.len(), 2);
        assert!(!p.unwraps[0].1);
        assert!(p.unwraps[1].1);
    }

    #[test]
    fn lock_order_edges_within_a_fn() {
        let src = "
fn ab() {
    let a = self.alpha.lock();
    let b = self.beta.lock();
    drop(b);
    drop(a);
}
fn scoped() {
    { let a = self.alpha.lock(); }
    let b = self.beta.lock();
}
";
        let p = parse_src(src);
        assert_eq!(
            p.fns[0].lock_edges,
            vec![("alpha".into(), "beta".into(), 4)]
        );
        // `a`'s guard died with its block: no edge in `scoped`.
        assert!(p.fns[1].lock_edges.is_empty());
        assert_eq!(p.fns[1].lock_acquires.len(), 2);
    }

    #[test]
    fn drop_releases_a_guard() {
        let src = "
fn f() {
    let a = self.alpha.lock();
    drop(a);
    let b = self.beta.lock();
}
";
        let p = parse_src(src);
        assert!(p.fns[0].lock_edges.is_empty());
    }

    #[test]
    fn bare_self_lock_is_a_wrapper_not_a_mutex() {
        // `self.lock()` calls a wrapper method on the type; treating it
        // as acquiring a lock named "self" aliased every wrapper across
        // unrelated types into one fake lock (false AB-BA cycles).
        let src = "
fn alloc(&self) { self.lock().alloc(1); }
";
        let p = parse_src(src);
        assert!(
            p.fns[0].lock_acquires.is_empty(),
            "{:?}",
            p.fns[0].lock_acquires
        );
    }

    #[test]
    fn closure_buried_lock_is_a_temporary() {
        // The guard inside the filter closure must not bind to `serving`
        // — it dies with the statement, so no edge to `beta` later.
        let src = "
fn f(&self) {
    let serving = pref.into_iter().filter(|&i| locked(&self.health).serving()).collect();
    let b = self.beta.lock();
}
";
        let p = parse_src(src);
        assert!(p.fns[0].lock_edges.is_empty(), "{:?}", p.fns[0].lock_edges);
        // Both acquisitions are still recorded (transitive sets need them).
        assert_eq!(p.fns[0].lock_acquires.len(), 2);
    }

    #[test]
    fn let_underscore_guard_dies_at_statement_end() {
        // `let _ = guard` does NOT extend the temporary's lifetime: the
        // guard is gone at the `;`, so no edge to the next acquisition.
        let src = "
fn f() {
    let _ = locked(&self.health).record(1);
    let b = self.beta.lock();
}
";
        let p = parse_src(src);
        assert!(p.fns[0].lock_edges.is_empty(), "{:?}", p.fns[0].lock_edges);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "
fn f() {
    self.alpha.lock().insert(1);
    let b = self.beta.lock();
}
";
        let p = parse_src(src);
        assert!(p.fns[0].lock_edges.is_empty(), "{:?}", p.fns[0].lock_edges);
    }

    #[test]
    fn locked_helper_names_the_lock() {
        let src = "
fn f() {
    let g = locked(&self.jobs);
    let h = crate::locked(&queue);
}
";
        let p = parse_src(src);
        let acqs: Vec<_> = p.fns[0]
            .lock_acquires
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert_eq!(acqs, vec!["jobs", "queue"]);
        assert_eq!(p.fns[0].lock_edges.len(), 1); // jobs -> queue
    }

    #[test]
    fn calls_record_held_locks() {
        let src = "
fn f() {
    let g = locked(&self.jobs);
    forward_batch();
}
";
        let p = parse_src(src);
        let call = p.fns[0]
            .calls
            .iter()
            .find(|c| c.name == "forward_batch")
            .unwrap();
        assert_eq!(call.holding, vec!["jobs"]);
    }

    #[test]
    fn unsafe_tokens_recorded_not_attr_names() {
        let src = "
#![deny(unsafe_op_in_unsafe_fn)]
fn f(p: *const u8) -> u8 { unsafe { *p } }
";
        let p = parse_src(src);
        assert_eq!(p.unsafe_uses.len(), 1);
        assert_eq!(p.unsafe_uses[0].0, 3);
    }

    #[test]
    fn use_edges_are_recorded() {
        let src = "use std::collections::BTreeMap;\nuse crate::lex::{lex, Token};\n";
        let p = parse_src(src);
        assert_eq!(p.uses.len(), 2);
        assert!(p.uses[1].contains("lex"));
    }

    #[test]
    fn impl_trait_for_type_names_the_type() {
        let src = "
impl<F: FnOnce() -> u32> Runner for Engine<F> {
    fn run(&self) { self.tick(); }
}
";
        let p = parse_src(src);
        assert_eq!(p.fns[0].qualified(), "Engine::run");
    }
}
