//! Name-based workspace call graph.
//!
//! Resolution is deliberately simple: a call token `name(` (free call) or
//! `.name(` (method call) resolves to workspace `fn name` definitions. There
//! is no type information and no trait dispatch — this over-approximates,
//! which is the right direction for the lock-order analysis (extra edges can
//! only add findings, which `lint:allow` can then document; a missed edge
//! would silently hide an inversion).
//!
//! A **receiver qualifier** prunes the worst name collisions without real
//! type inference: for `self.registry.register(…)` the last receiver
//! segment (`registry`) must appear, case-insensitively, in a candidate's
//! impl type (`ClassRegistry` ✓, `MemTransport` ✗); `Type::name(…)` path
//! calls match the path qualifier the same way; a bare `self.name(…)`
//! prefers candidates on the caller's own impl type. When nothing matches
//! (or the qualifier is too short to be meaningful) resolution falls back
//! to *every* candidate — the fallback direction is always
//! over-approximation, never silence.
//!
//! Two cuts keep the over-approximation from collapsing the workspace into
//! one giant strongly-connected component:
//!
//! * **transport cut** — calls named on [`TRANSPORT_CUT`] are never
//!   followed. The `guard-across-transport` row of `guardrules`,
//!   which reads the same list, guarantees no guard of the calling fn is
//!   live across those boundaries, so lock-order propagation through them
//!   is unnecessary — and following them would tie every client fn to
//!   every server handler. (The row sees a fn's own guards; the one
//!   by-design hold by a *caller*, the nested fault under the process lock,
//!   is documented in DESIGN.md §4b.)
//! * **std-method stoplist** — common collection/iterator method names
//!   (`get`, `insert`, `len`, `push`, …) are not resolved as method calls,
//!   because they nearly always hit `std` types, not workspace impls.
//!   Workspace methods that shadow a std name and matter to the lock graph
//!   (e.g. `Mirror::append` feeding the WAL) must stay off this list; it is
//!   calibrated against the runtime-edge subset check in CI.

use crate::lexer::{self, Kind, Token};
use crate::model::{self, FileModel};
use std::collections::HashMap;
use std::path::PathBuf;

/// Method names that mark a transport boundary — a blocking round trip, a
/// one-way send, or a frame handed to arbitrary handler code. The one list:
/// the call graph never follows them, and the `guard-across-transport` row
/// (the invariant that justifies not following them) flags a guard held at
/// one.
pub const TRANSPORT_CUT: &[&str] = &[
    "call",
    "cast",
    "send",
    "recv",
    "handle",
    "call_stream",
    "handle_stream",
];

/// Lock-acquisition method names (with empty parens: `file.read(&mut buf)`
/// is I/O). The one list: these are the walk's acquire *events*, not calls
/// to resolve.
pub const ACQUIRE_METHODS: &[&str] =
    &["lock", "try_lock", "read", "write", "try_read", "try_write"];

/// Method names that overwhelmingly resolve to std/vendored types; never
/// resolved as workspace calls. `append`, `replace` and `truncate` are
/// deliberately absent: they are `Storage` methods, the WAL and compaction
/// call them under the `Durable` and `Wal` locks, and those paths must stay
/// visible to the lock graph.
const METHOD_STOPLIST: &[&str] = &[
    "get", "get_mut", "insert", "remove", "push", "pop", "len", "is_empty",
    "clone", "contains", "contains_key", "iter", "iter_mut", "into_iter",
    "next", "map", "and_then", "unwrap", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "expect", "ok", "err", "is_some", "is_none", "is_ok",
    "is_err", "as_ref", "as_mut", "as_str", "as_bytes", "as_slice", "to_vec",
    "to_string", "to_owned", "into", "from", "try_into", "try_from", "collect",
    "filter", "filter_map", "find", "any", "all", "fold", "for_each", "zip",
    "enumerate", "rev", "chain", "take", "skip", "count", "max", "min", "sum",
    "sort", "sort_by", "sort_by_key", "sort_unstable", "dedup", "retain",
    "extend", "drain", "clear", "entry", "or_insert", "or_insert_with",
    "or_default", "keys", "values", "values_mut", "split", "splitn", "join",
    "trim", "starts_with", "ends_with", "chars", "bytes", "lines",
    "parse", "fmt", "eq", "ne", "cmp", "partial_cmp", "hash", "default",
    "new", "with_capacity", "clone_from", "min_by_key", "max_by_key",
    "load", "store", "fetch_add", "fetch_sub", "compare_exchange", "swap",
    "wrapping_add", "saturating_add", "saturating_sub", "checked_add",
    "checked_sub", "abs", "pow", "position", "last", "first", "front",
    "back", "push_back", "push_front", "pop_back", "pop_front",
    "resize", "reserve", "copy_from_slice", "windows", "chunks", "concat",
    "flatten", "flat_map", "cloned", "copied", "step_by", "min_by", "max_by",
];

/// One parsed file: source, tokens, significant indices, item model.
pub struct Unit {
    pub path: PathBuf,
    /// Workspace-relative display path (`crates/core/src/process.rs`).
    pub rel: String,
    pub src: String,
    pub tokens: Vec<Token>,
    pub sig: Vec<usize>,
    pub model: FileModel,
}

impl Unit {
    pub fn parse(path: PathBuf, rel: String, src: String) -> Self {
        let tokens = lexer::lex(&src);
        let sig = lexer::significant(&tokens);
        let model = model::build(&src, &tokens);
        Unit {
            path,
            rel,
            src,
            tokens,
            sig,
            model,
        }
    }
}

/// Global function id: (unit index, fn index within the unit's model).
pub type FnId = (usize, usize);

/// The workspace's fn definitions by name: what a call resolves against.
pub struct CallGraph {
    /// fn name → every workspace definition of that name.
    pub by_name: HashMap<String, Vec<FnId>>,
}

impl CallGraph {
    pub fn build(units: &[Unit]) -> Self {
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (ui, unit) in units.iter().enumerate() {
            for (fi, f) in unit.model.fns.iter().enumerate() {
                by_name.entry(f.name.clone()).or_default().push((ui, fi));
            }
        }
        CallGraph { by_name }
    }
}

/// How a call site names its callee's owner — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Qualifier {
    /// Free call with no usable receiver or path qualifier.
    None,
    /// `self.name(…)` — the callee lives on the caller's own impl type.
    SelfRecv,
    /// `….segment.name(…)` / `Segment::name(…)` — the last receiver chain
    /// segment or path qualifier.
    Named(String),
}

/// Prunes `targets` by the call's qualifier.
///
/// A meaningful qualifier that matches *no* candidate resolves to nothing:
/// the receiver is then almost certainly a std/vendored type that happens
/// to share a method name with a workspace fn (`guard.record(…)`,
/// `histogram.observe(…)`). This workspace names fields after their types
/// (`self.registry` → `ClassRegistry`, `self.wal` → `Wal`), which the
/// CI runtime-edge subset check verifies end-to-end. A one-/two-letter
/// receiver (`t`, `rx`) carries no type information, so it prefers
/// candidates defined in the caller's own file (the local-closure idiom
/// `with_topology_mut(|t| t.disconnect(s))`) and only falls back to every
/// candidate when the file defines none.
pub fn filter_targets(
    units: &[Unit],
    caller_unit: usize,
    caller_impl: Option<&str>,
    qualifier: &Qualifier,
    targets: &[FnId],
) -> Vec<FnId> {
    let impl_of =
        |&(ui, fi): &FnId| units[ui].model.fns[fi].impl_type.as_deref();
    match qualifier {
        // A bare `name(…)` can only be a free fn (or a closure/fn-pointer
        // call, which resolution cannot follow anyway). Letting it match
        // *methods* is what used to fuse the workspace into one component:
        // every `drop(g)` resolved to every `Drop::drop` impl, every
        // fn-pointer invocation named `decode` to `ClassRegistry::decode`.
        Qualifier::None => targets
            .iter()
            .copied()
            .filter(|t| impl_of(t).is_none())
            .collect(),
        Qualifier::SelfRecv => {
            if caller_impl.is_none() {
                return targets.to_vec();
            }
            targets
                .iter()
                .copied()
                .filter(|t| impl_of(t).is_some() && impl_of(t) == caller_impl)
                .collect()
        }
        Qualifier::Named(q) => {
            let ql = q
                .trim_end_matches("()")
                .trim_end_matches("[]")
                .to_lowercase();
            // One- or two-letter receivers (`t`, `tx`) match almost any
            // type name by containment; prefer same-file candidates,
            // falling back to all of them.
            if ql.len() < 3 {
                let local: Vec<FnId> = targets
                    .iter()
                    .copied()
                    .filter(|&(ui, _)| ui == caller_unit)
                    .collect();
                return if local.is_empty() {
                    targets.to_vec()
                } else {
                    local
                };
            }
            targets
                .iter()
                .copied()
                .filter(|&t| match impl_of(&t) {
                    // Method candidates match on the impl type name…
                    Some(it) => it.to_lowercase().contains(&ql),
                    // …free fns on their defining file's path
                    // (`sync::lock_many` → `crates/util/src/sync.rs`).
                    None => units[t.0].rel.to_lowercase().contains(&ql),
                })
                .collect()
        }
    }
}

/// A resolvable call site inside a token range.
pub struct CallSite<'a> {
    pub name: &'a str,
    /// Token index of the callee-name ident.
    pub token: usize,
    pub line: u32,
    pub is_method: bool,
    pub qualifier: Qualifier,
}

/// Yields the resolvable call sites between token indices `lo..=hi`
/// (typically a fn body). Applies the transport cut, the acquire-method
/// exclusion and the std stoplist; skips macro invocations (`name!`),
/// definitions (`fn name`), and keywords.
pub fn calls_in_range<'a>(unit: &'a Unit, lo: usize, hi: usize) -> Vec<CallSite<'a>> {
    let src = unit.src.as_str();
    let tokens = &unit.tokens;
    let sig = &unit.sig;
    let mut out = Vec::new();

    // Walk significant tokens whose underlying index lies in [lo, hi].
    let start = sig.partition_point(|&k| k < lo);
    let mut p = start;
    while p < sig.len() && sig[p] <= hi {
        let k = sig[p];
        let t = &tokens[k];
        if t.kind == Kind::Ident {
            let name = t.text(src);
            let next = sig.get(p + 1).map(|&n| tokens[n].text(src));
            let prev = p
                .checked_sub(1)
                .and_then(|q| sig.get(q))
                .map(|&n| tokens[n].text(src));
            if next == Some("(")
                && prev != Some("fn")
                && !is_keyword(name)
                && !TRANSPORT_CUT.contains(&name)
                && !ACQUIRE_METHODS.contains(&name)
            {
                let is_method = prev == Some(".");
                if !(is_method && METHOD_STOPLIST.contains(&name)) {
                    out.push(CallSite {
                        name,
                        token: k,
                        line: t.line,
                        is_method,
                        qualifier: qualifier_at(unit, p),
                    });
                }
            }
        }
        p += 1;
    }
    out
}

/// Computes the [`Qualifier`] of the call whose name ident sits at sig
/// position `p`. `self.name(` → `SelfRecv`; `a.b.name(` → `Named("b")`;
/// `x().name(` → `Named("x()")`; `Type::name(` → `Named("Type")`;
/// anything else → `None`.
pub(crate) fn qualifier_at(unit: &Unit, p: usize) -> Qualifier {
    let src = unit.src.as_str();
    let sig = &unit.sig;
    let txt = |q: usize| unit.tokens[sig[q]].text(src);
    if p < 2 {
        return Qualifier::None;
    }
    match txt(p - 1) {
        "." => {
            let r = p - 2;
            let t = &unit.tokens[sig[r]];
            if t.kind == Kind::Ident {
                let s = t.text(src);
                if s == "self" && (r == 0 || txt(r - 1) != ".") {
                    Qualifier::SelfRecv
                } else {
                    Qualifier::Named(s.to_string())
                }
            } else if txt(r) == ")" || txt(r) == "]" {
                // `x(…).name(` / `x[…].name(`: qualify by the ident in
                // front of the matching opener.
                let (open_c, close_c) = if txt(r) == ")" {
                    ("(", ")")
                } else {
                    ("[", "]")
                };
                let mut depth = 0i32;
                let mut q = r;
                loop {
                    let s = txt(q);
                    if s == close_c {
                        depth += 1;
                    } else if s == open_c {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if q == 0 {
                        return Qualifier::None;
                    }
                    q -= 1;
                }
                if q > 0 && unit.tokens[sig[q - 1]].kind == Kind::Ident {
                    Qualifier::Named(txt(q - 1).to_string())
                } else {
                    Qualifier::None
                }
            } else {
                Qualifier::None
            }
        }
        ":" if p >= 3 && txt(p - 2) == ":" => {
            let t = &unit.tokens[sig[p - 3]];
            if t.kind != Kind::Ident {
                Qualifier::None
            } else if t.text(src) == "Self" {
                Qualifier::SelfRecv
            } else if t.text(src) == "self" {
                Qualifier::None
            } else {
                Qualifier::Named(t.text(src).to_string())
            }
        }
        _ => Qualifier::None,
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "fn"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "type"
            | "const"
            | "static"
            | "mod"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "where"
            | "unsafe"
            | "async"
            | "await"
            | "dyn"
            | "box"
            | "extern"
    )
}
