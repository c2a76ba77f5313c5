//! `obiwan-lint`: project-specific invariant checks for the OBIWAN workspace.
//!
//! The compiler cannot see OBIWAN's cross-cutting invariants — that no lock
//! guard is held across a transport boundary, that every wire tag can make a
//! round trip, that every counter the platform registers is actually
//! exercised. This crate is a lightweight token scanner (no dependencies,
//! no rustc plumbing) that enforces them:
//!
//! | rule id                      | invariant                                            |
//! |------------------------------|------------------------------------------------------|
//! | `guard-across-transport`     | no guard of a fn's own live across `.call`/`.cast`/`.send`/`.recv`/`.handle` |
//! | `single-shard-guard`         | no shard guard acquired while another is held, except via `lock_pair`/`lock_many` |
//! | `no-io-under-shard-guard`    | no WAL append/fsync/`log_*` call while a shard guard is held |
//! | `wire-tag-coverage`          | every `Message` variant has encode + decode arms and a roundtrip test |
//! | `metrics-coverage`           | every counter in `util::metrics` is incremented somewhere |
//! | `no-unwrap-on-lock-or-decode`| no `unwrap()`/`expect()` on a decode result outside tests (the lock half is the compiler's) |
//! | `lock-order-cycle`           | no A→B/B→A lock-class inversion anywhere in the static lock-order graph |
//! | `wal-intent-lifecycle`       | every path past `log_put_intent(s)` retires the intent (each listed one) or hands the seq(s) upward |
//! | `allow-without-rationale`    | every `lint:allow` carries a rationale after the `(rule)` closer |
//!
//! DESIGN.md §4b has, per rule, what it has been seen to catch in product
//! code and what the compiler already rejects (the reach ledger).
//!
//! A finding on line `N` is suppressed when line `N` or `N-1` carries a
//! `// lint:allow(<rule-id>)` comment. Allows are per-rule, never blanket,
//! and must state *why* (enforced by `allow-without-rationale`).
//!
//! The crate is layered (see DESIGN.md §4f): [`lexer`] produces a lossless
//! token stream (strings/comments/char literals decided once, correctly),
//! [`model`] recovers fn bodies, impl blocks and test regions, [`callgraph`]
//! resolves calls by name across the workspace and owns the one vocabulary
//! of acquire and transport method names, [`lockgraph`] walks each fn body
//! once for the guards held at every acquisition and call — the lock-order
//! graph and the three guard rules (rows of `guardrules`) both read that
//! walk — and [`lifecycle`] checks the WAL intent protocol. The coverage
//! rules read tokens too; only `metrics-coverage` (a macro's entry list)
//! and the decode-unwrap check still consume [`lexer::masked_lines`].

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod callgraph;
mod guardrules;
pub mod lexer;
pub mod lifecycle;
pub mod lockgraph;
pub mod model;

use callgraph::Unit;

/// All rule identifiers, as used in diagnostics and `lint:allow(...)` markers.
pub const RULE_GUARD_ACROSS_TRANSPORT: &str = "guard-across-transport";
pub const RULE_SINGLE_SHARD_GUARD: &str = "single-shard-guard";
pub const RULE_NO_IO_UNDER_SHARD_GUARD: &str = "no-io-under-shard-guard";
pub const RULE_WIRE_TAG_COVERAGE: &str = "wire-tag-coverage";
pub const RULE_METRICS_COVERAGE: &str = "metrics-coverage";
pub const RULE_NO_UNWRAP: &str = "no-unwrap-on-lock-or-decode";
pub const RULE_LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
pub const RULE_WAL_INTENT_LIFECYCLE: &str = "wal-intent-lifecycle";
pub const RULE_ALLOW_AUDIT: &str = "allow-without-rationale";

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A source file presented to the rules. Tests construct these from string
/// literals; the binary loads them from disk via [`scan_workspace`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (e.g. `crates/net/src/tcp.rs`).
    pub path: String,
    pub text: String,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            text: text.into(),
        }
    }
}

/// Walks the workspace collecting every `.rs` file the rules should see:
/// `crates/*` (including `crates/lint` itself — the analyzer is
/// self-hosting now that allows and literals are decided on the token
/// stream), the root package's `src/`, plus `tests/`, `examples/` and
/// `benches/`. `vendor/`, `target/` and `fixtures/` trees (seeded-violation
/// test data) are never scanned.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target"
                || name == "vendor"
                || name == "fixtures"
                || name.starts_with('.')
            {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::new(rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// What one pass over the workspace yields: the findings of every rule
/// (`lint:allow`-suppressed ones dropped, ordered by file and line) and the
/// static lock-order graph the guard rules were read off.
pub struct Analysis {
    pub diagnostics: Vec<Diagnostic>,
    /// What the runtime lockcheck cross-check compares against, and
    /// (through [`lockgraph::LockGraph::to_json`]) the `LOCK_GRAPH.json`
    /// payload.
    pub lock_graph: lockgraph::LockGraph,
}

/// Parses every file once into the shared token/model representation the
/// rules consume.
fn parse_units(files: &[SourceFile]) -> Vec<Unit> {
    files
        .iter()
        .map(|f| Unit::parse(PathBuf::from(&f.path), f.path.clone(), f.text.clone()))
        .collect()
}

/// Lexes and models every file once and runs every rule over the result.
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let units = parse_units(files);
    let prepared: Vec<Prepared> = units.iter().map(Prepared::new).collect();
    let (lock_graph, mut diags) = lockgraph::build(&units);
    for p in &prepared {
        diags.extend(no_unwrap_on_decode(p));
        diags.extend(allow_without_rationale(p));
    }
    diags.extend(wire_tag_coverage(&prepared));
    diags.extend(metrics_coverage(&prepared));
    diags.extend(lock_graph.cycle_diagnostics());
    diags.extend(lifecycle::check(&units));
    diags.retain(|d| !is_allowed(&prepared, d));
    diags.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Analysis {
        diagnostics: diags,
        lock_graph,
    }
}

/// The findings of [`analyze`].
pub fn check(files: &[SourceFile]) -> Vec<Diagnostic> {
    analyze(files).diagnostics
}

/// The lock graph alone (what [`analyze`] also returns), for a caller such
/// as the runtime cross-check that wants no rule findings.
pub fn lock_graph(files: &[SourceFile]) -> lockgraph::LockGraph {
    lockgraph::build(&parse_units(files)).0
}

/// Returns the workspace root the binary should analyze by default:
/// `$CARGO_MANIFEST_DIR/../..` (this crate lives at `crates/lint`).
pub fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

// ---------------------------------------------------------------------------
// Preprocessing
// ---------------------------------------------------------------------------

/// One `lint:allow(<rule>)` marker, extracted from a comment token. An
/// allow suppresses findings on its own line and the line below.
struct Allow {
    rule: String,
    /// 1-based line of the `lint:allow` text itself.
    line: usize,
    /// Whether rationale text follows the `(rule)` closer.
    has_rationale: bool,
}

/// A file plus its literal-masked lines, test mask, and extracted allows —
/// the view the per-line rules consume. Derived entirely from the [`lexer`]
/// token stream and the [`model`] item model.
struct Prepared<'a> {
    unit: &'a Unit,
    path: String,
    /// Lines with comments and string/char literal contents blanked out
    /// (line structure preserved; see [`lexer::masked_lines`]).
    code: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)] mod` block or a
    /// `#[test]`-attributed fn.
    in_test_mod: Vec<bool>,
    allows: Vec<Allow>,
}

impl<'a> Prepared<'a> {
    fn new(unit: &'a Unit) -> Self {
        let code = lexer::masked_lines(&unit.src, &unit.tokens);
        let mut in_test_mod = vec![false; code.len()];
        let mut mark = |a: u32, b: u32| {
            let a = a.saturating_sub(1) as usize;
            for idx in a..(b as usize).min(in_test_mod.len()) {
                in_test_mod[idx] = true;
            }
        };
        for &(a, b) in &unit.model.test_regions {
            mark(a, b);
        }
        for f in &unit.model.fns {
            if f.in_test {
                let end = unit
                    .tokens
                    .get(f.body.1)
                    .map(|t| t.line)
                    .unwrap_or(u32::MAX);
                mark(f.line, end);
            }
        }
        Prepared {
            unit,
            path: unit.rel.clone(),
            code,
            in_test_mod,
            allows: extract_allows(&unit.src, &unit.tokens),
        }
    }

    /// Whether the unwrap rule applies to this file at this line: library
    /// source (`crates/*/src`, `src/`) outside `#[cfg(test)]` modules.
    fn is_lib_code(&self, line_idx: usize) -> bool {
        let lib = (self.path.starts_with("crates/") && self.path.contains("/src/"))
            || self.path.starts_with("src/");
        lib && !self.in_test_mod.get(line_idx).copied().unwrap_or(false)
    }
}

/// Extracts `lint:allow(<rule>)` markers from comment tokens. Allows are
/// recognized *only* in comments — a `lint:allow(` inside a string literal
/// (this crate's own source is full of them) is data, not a suppression.
fn extract_allows(src: &str, tokens: &[lexer::Token]) -> Vec<Allow> {
    const NEEDLE: &str = "lint:allow(";
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, lexer::Kind::LineComment | lexer::Kind::BlockComment) {
            continue;
        }
        let text = t.text(src);
        let mut from = 0;
        while let Some(pos) = text[from..].find(NEEDLE) {
            let rule_start = from + pos + NEEDLE.len();
            let Some(close) = text[rule_start..].find(')') else {
                break;
            };
            let rule = text[rule_start..rule_start + close].trim().to_string();
            let line = t.line as usize + text[..from + pos].matches('\n').count();
            let after = &text[rule_start + close + 1..];
            let rationale_region = match after.find(NEEDLE) {
                Some(next) => &after[..next],
                None => after,
            };
            let has_rationale = rationale_region
                .trim_end_matches("*/")
                .chars()
                .any(|c| c.is_alphanumeric());
            out.push(Allow {
                rule,
                line,
                has_rationale,
            });
            from = rule_start + close + 1;
        }
    }
    out
}

/// `lint:allow(rule)` in a comment on the diagnostic's line or the line
/// above suppresses it.
fn is_allowed(prepared: &[Prepared<'_>], d: &Diagnostic) -> bool {
    prepared.iter().find(|p| p.path == d.file).is_some_and(|p| {
        p.allows
            .iter()
            .any(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line))
    })
}

// ---------------------------------------------------------------------------
// Rule: allow-without-rationale
// ---------------------------------------------------------------------------

/// Every `lint:allow` is a hole in an invariant; a hole with no explanation
/// cannot be audited. Text after the `(rule)` closer is the rationale.
fn allow_without_rationale(p: &Prepared<'_>) -> Vec<Diagnostic> {
    p.allows
        .iter()
        .filter(|a| !a.has_rationale)
        .map(|a| Diagnostic {
            file: p.path.clone(),
            line: a.line,
            rule: RULE_ALLOW_AUDIT,
            message: format!(
                "`lint:allow({})` has no rationale — state why the `{}` \
                 invariant holds here, after the closing paren",
                a.rule, a.rule
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule: no-unwrap-on-lock-or-decode
// ---------------------------------------------------------------------------

/// The rule id still says `lock-or-decode`; its lock half went with the
/// reach ledger (DESIGN.md §4b): `.lock()`/`.read()`/`.write()` return a
/// guard on both facades, so an `unwrap` there does not compile.
fn no_unwrap_on_decode(p: &Prepared<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, line) in p.code.iter().enumerate() {
        if !p.is_lib_code(i) {
            continue;
        }
        if let Some(pos) = line.find("decode(").or_else(|| line.find("decode_inner(")) {
            let tail = &line[pos..];
            for bad in [".unwrap()", ".expect("] {
                if tail.contains(bad) {
                    diags.push(Diagnostic {
                        file: p.path.clone(),
                        line: i + 1,
                        rule: RULE_NO_UNWRAP,
                        message: format!(
                            "`{bad}` on a decode result: malformed frames are \
                             expected input and must surface as ObiError::Decode"
                        ),
                    });
                }
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: wire-tag-coverage
// ---------------------------------------------------------------------------

const MESSAGE_RS: &str = "crates/wire/src/message.rs";

fn wire_tag_coverage(prepared: &[Prepared<'_>]) -> Vec<Diagnostic> {
    let Some(msg) = prepared.iter().find(|p| p.path == MESSAGE_RS) else {
        return Vec::new();
    };
    let variants = enum_variants(msg.unit, "Message");
    if variants.is_empty() {
        return vec![Diagnostic {
            file: msg.path.clone(),
            line: 1,
            rule: RULE_WIRE_TAG_COVERAGE,
            message: "could not locate `pub enum Message` variants".into(),
        }];
    }
    // `Message`'s own codec: the file also has `fn encode` helpers on
    // WireMode/NameOp/ReplicaBatch.
    let body_of = |name: &str| {
        let body = msg
            .unit
            .model
            .fns
            .iter()
            .find(|f| f.name == name && f.impl_type.as_deref() == Some("Message"))
            .map_or((0, 0), |f| f.body);
        move |k: usize| body.0 < k && k < body.1
    };
    let (encode, decode) = (body_of("encode"), body_of("decode_inner"));
    // Roundtrip coverage: the variant appears in message.rs's own test
    // module or in any integration-test file.
    let in_tests = |k: usize| msg.in_test_mod[msg.unit.tokens[k].line as usize - 1];

    let mut diags = Vec::new();
    for (name, line) in &variants {
        let mut missing = Vec::new();
        if !names_variant(msg.unit, &encode, "Message", name) {
            missing.push("an encode arm");
        }
        if !names_variant(msg.unit, &decode, "Message", name) {
            missing.push("a decode arm");
        }
        let tested = names_variant(msg.unit, &in_tests, "Message", name)
            || prepared
                .iter()
                .filter(|p| p.path.starts_with("tests/"))
                .any(|p| names_variant(p.unit, &|_| true, "Message", name));
        if !tested {
            missing.push("a roundtrip test");
        }
        if !missing.is_empty() {
            diags.push(Diagnostic {
                file: msg.path.clone(),
                line: *line,
                rule: RULE_WIRE_TAG_COVERAGE,
                message: format!(
                    "wire variant `{name}` is missing {}",
                    missing.join(" and ")
                ),
            });
        }
    }
    diags
}

/// Collects `(variant, 1-based line)` of `enum <name> { … }`: the
/// identifier that opens each comma-separated item at nesting depth 1, so
/// attributes and struct-variant fields are passed over.
fn enum_variants(u: &Unit, name: &str) -> Vec<(String, usize)> {
    let tok = |q: usize| &u.tokens[u.sig[q]];
    let txt = |q: usize| tok(q).text(&u.src);
    let Some(open) = (2..u.sig.len()).find(|&q| txt(q) == "{" && txt(q - 1) == name && txt(q - 2) == "enum")
    else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut item_start = true;
    for q in open..u.sig.len() {
        match txt(q) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            "," if depth == 1 => item_start = true,
            _ if depth == 1 && item_start && tok(q).kind == lexer::Kind::Ident => {
                variants.push((txt(q).to_string(), tok(q).line as usize));
                item_start = false;
            }
            _ => {}
        }
        if depth == 0 {
            break;
        }
    }
    variants
}

/// True when the path `ty::variant` occurs in `u` at a token index `within`
/// admits (whole identifiers, so `Message::Get` is not `Message::GetMany`).
fn names_variant(u: &Unit, within: &dyn Fn(usize) -> bool, ty: &str, variant: &str) -> bool {
    let txt = |q: usize| u.tokens[u.sig[q]].text(&u.src);
    (3..u.sig.len()).any(|q| {
        txt(q) == variant
            && txt(q - 1) == ":"
            && txt(q - 2) == ":"
            && txt(q - 3) == ty
            && within(u.sig[q])
    })
}

// ---------------------------------------------------------------------------
// Rule: metrics-coverage
// ---------------------------------------------------------------------------

const METRICS_RS: &str = "crates/util/src/metrics.rs";

fn metrics_coverage(prepared: &[Prepared<'_>]) -> Vec<Diagnostic> {
    let Some(metrics) = prepared.iter().find(|p| p.path == METRICS_RS) else {
        return Vec::new();
    };
    // The `macro_rules! counters` definition region, by brace depth. Lines
    // inside it are the generation template, not hand-written accessors.
    let mut in_definition = vec![false; metrics.code.len()];
    let mut depth: i32 = 0;
    let mut in_def = false;
    for (i, line) in metrics.code.iter().enumerate() {
        let t = line.trim();
        if !in_def && t.starts_with("macro_rules!") && t.contains("counters") {
            in_def = true;
            depth = 0;
        }
        if in_def {
            in_definition[i] = true;
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth <= 0 && line.contains('}') {
                in_def = false;
            }
        }
    }
    // Counter registrations: `incr_x, add_x, field;` lines inside the
    // `counters!` invocation (doc comments arrive blanked, so only the
    // entry lines parse as three identifiers).
    let mut counters: Vec<(String, String, String, usize)> = Vec::new();
    let mut in_macro = false;
    for (i, line) in metrics.code.iter().enumerate() {
        let t = line.trim();
        if !in_definition[i] && t.starts_with("counters!") && t.contains('{') {
            in_macro = true;
            continue;
        }
        if in_macro {
            if t.starts_with('}') {
                in_macro = false;
                continue;
            }
            let parts: Vec<&str> = t
                .trim_end_matches(';')
                .split(',')
                .map(str::trim)
                .collect();
            if parts.len() == 3 && parts.iter().all(|s| is_ident(s)) {
                counters.push((
                    parts[0].to_string(),
                    parts[1].to_string(),
                    parts[2].to_string(),
                    i + 1,
                ));
            }
        }
    }
    let mut diags = Vec::new();
    if counters.is_empty() {
        diags.push(Diagnostic {
            file: metrics.path.clone(),
            line: 1,
            rule: RULE_METRICS_COVERAGE,
            message: "no `counters!` invocation found; the metrics-coverage \
                      rule cannot see the counter registry (was the macro \
                      renamed?)"
                .to_string(),
        });
    }
    // Drift guard: snapshot/reset/since must be generated by the macro. A
    // hand-written copy outside the definition silently stops covering new
    // counters.
    for (i, line) in metrics.code.iter().enumerate() {
        if in_definition[i] {
            continue;
        }
        for name in ["fn snapshot(", "fn reset(", "fn since("] {
            if line.contains(name) {
                diags.push(Diagnostic {
                    file: metrics.path.clone(),
                    line: i + 1,
                    rule: RULE_METRICS_COVERAGE,
                    message: format!(
                        "`{}` is hand-written outside the `counters!` macro; \
                         it will drift from the counter registry — generate \
                         it from the macro instead",
                        name.trim_end_matches('(')
                    ),
                });
            }
        }
    }
    for (incr, add, field, line) in &counters {
        let incr_call = format!(".{incr}(");
        let add_call = format!(".{add}(");
        let used = prepared.iter().any(|p| {
            p.path != METRICS_RS
                && p.code
                    .iter()
                    .any(|l| l.contains(&incr_call) || l.contains(&add_call))
        });
        if !used {
            diags.push(Diagnostic {
                file: metrics.path.clone(),
                line: *line,
                rule: RULE_METRICS_COVERAGE,
                message: format!(
                    "metrics counter `{field}` is registered but neither \
                     `{incr}` nor `{add}` is ever called"
                ),
            });
        }
    }
    diags
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !s.chars().next().unwrap_or('0').is_ascii_digit()
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests;
