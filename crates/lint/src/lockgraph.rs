//! Static lock-order graph, and the one walk that tracks held guards.
//!
//! For every function in library code (`crates/*/src`, `src/`, outside test
//! modules) this pass extracts each `util::sync` Mutex/RwLock/shard-guard
//! acquisition site and walks the body once, token by token, keeping the
//! set of guards held at each point (`Builder::walk`, the only place in
//! the crate that does). The walk reports two events — *acquired(site,
//! held)* and *called(name, held)* — and everything that needs to know
//! "which guards are live here" is a consumer of them:
//!
//! * the lock-order edges: every ordered pair *"site A's guard was held
//!   while site B acquired"*, directly or through a resolved callee's
//!   transitive acquisitions. The `lock-order-cycle` rule reads them (class
//!   α before β on one path and β before α on another is a potential AB/BA
//!   deadlock, reported with every witness site); so does the runtime ⊆
//!   static cross-check (`obiwan-util`, with its `lockcheck` feature,
//!   builds this graph in-process from the checked-out sources and requires
//!   every `file:line` edge the instrumented chaos suites observe to be in
//!   it); so does `LOCK_GRAPH.json`, the committed class-level export a
//!   reviewer reads ([`LockGraph::to_json`]: lock classes and `class ->
//!   class` edges, no file names or line numbers, so it changes only when
//!   the locking structure does);
//! * the fn summaries of the first pass (own sites, callees, escaping
//!   guards), which the second pass needs of every callee;
//! * the three guard rules, one table row each (`guardrules`).
//!
//! ## Mechanisms (over-approximations, except where a hold provably ends)
//!
//! * **direct edges** — let-bound guards are held until their scope closes
//!   or a `drop(name)` in the binding's own block (one in a nested block
//!   may not run on every path, so it releases nothing), but only when the
//!   acquisition is *chain-terminal*: `let g = m.lock();` binds the guard,
//!   while `let n = m.lock().len();` binds a `usize` and `let v =
//!   *m.lock();` a copy, and both drop the guard at the `;`. Statement
//!   temporaries are held until the `;`; temporaries feeding an
//!   `if`/`while`/`match` head are extended through the block (match
//!   scrutinees really do live that long).
//! * **call edges** — at a resolved call, every held site gains an edge to
//!   every *transitive* acquisition site of the callee (TA, computed by
//!   fixpoint over the call graph, cut at transport boundaries).
//! * **virtual hold** — `let g = self.enter()?;` holds whatever the callee
//!   acquires until scope end, covering guards returned by workspace fns.
//! * **callback over-approximation** — for `f(|x| { … })`, `f`'s TA is
//!   treated as held while the closure body's acquisitions are walked, so
//!   `with_inner(|g| …)`-style wrappers produce the edges the runtime sees.
//!   Such a guard is *lent* to the closure, not the walked fn's own.
//!
//! Precision refinements (each one removed a family of false cycles during
//! calibration against the real workspace, which ends at zero findings):
//!
//! * **expire at `)`** — a call whose return type does not name a `Guard`
//!   cannot leak its statement-temp guards to the caller; the callee's
//!   statement-scoped TA expires at the call's closing parenthesis instead
//!   of being held for the rest of the caller's statement.
//! * **spawn barriers** — `spawn(move || …)` bodies are walked for their
//!   own acquisitions, but the spawner's held-set does not flow in (the
//!   runtime held-stack is per-thread), and sites that only occur under a
//!   nested spawn are excluded from the enclosing fn's TA.
//! * **escaping guards** — only guards that outlive their own statement
//!   (let-bound, or alive when a block head opens) *and* whose fn can
//!   surface them at callback time — by returning the guard (`enter`,
//!   `lock_many`) or invoking a closure/fn parameter itself (`with_inner`'s
//!   `f(…)`) — count as held across a callee that can re-enter caller code
//!   through a callback. A pure statement temp is gone by then, and a
//!   lock-update-return fn (`CircuitBreaker::admit`) releases before any
//!   foreign callback can run.
//!
//! Lock *classes* (cycle detection and the JSON export; the runtime subset
//! check matches raw file:line sites) are named from the receiver chain:
//! `self.exports.read()` inside `impl ObiProcess` → `ObiProcess::exports`;
//! a local/parameter receiver gets a function-scoped class named by crate
//! and fn (`core::demand_install::shared.pending_chunks`), never by file,
//! so moving a fn between files of one crate renames nothing. Same-class
//! edges are exempt from the cycle rule — ordering within an indexed family
//! (shard stripes) is `single-shard-guard`'s business.

use crate::callgraph::{self, CallGraph, FnId, Qualifier, Unit, ACQUIRE_METHODS};
use crate::guardrules::{self, Boundary};
use crate::lexer::Kind;
use crate::{Diagnostic, RULE_LOCK_ORDER_CYCLE};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One static acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Workspace-relative file, matching what `#[track_caller]` reports.
    pub file: String,
    /// 1-based line of the acquire-method identifier (`lock`/`read`/…) —
    /// empirically the line `Location::caller()` records, even in
    /// multi-line chains.
    pub line: u32,
    pub class: String,
    /// `false` for `try_*` acquisitions (the runtime detector gives them no
    /// inbound edge, but they do join the held set).
    pub blocking: bool,
    /// The receiver ends in the striped object table's accessor
    /// (`….shard(id)`) or its stripe array (`….shards[i]`): a shard-class
    /// lock, which is what two of the guard rules are about.
    pub shard: bool,
}

/// The computed graph: interned sites plus held→acquired edges (indices
/// into `sites`).
pub struct LockGraph {
    pub sites: Vec<Site>,
    pub edges: Vec<(usize, usize)>,
}

/// True for files whose code is subject to the walk, and so to the graph
/// and the guard rules: the runtime library crates. `crates/bench` (scenario
/// harnesses that drive every transport from one thread — their
/// cross-transport "held" sets are harness artifacts, no instrumented test
/// executes them, and they take no lock of their own) and `crates/lint` (no
/// locks; its fixtures embed lock-shaped code in string literals) are
/// linted by the other rules only.
pub fn is_lib_rel(rel: &str) -> bool {
    ((rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/"))
        && !rel.starts_with("crates/bench/")
        && !rel.starts_with("crates/lint/")
}

/// `crates/util/src/sync.rs` → `util`; the root package's `src/…` →
/// `obiwan`: the crate name that scopes classes of non-`self` receivers.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("obiwan")
}

/// Builds the graph and, from the same walk, the findings of the three
/// guard rules (`guardrules`).
pub fn build(units: &[Unit]) -> (LockGraph, Vec<Diagnostic>) {
    Builder::new(units).run()
}

/// A guard the walk counts as held where an event happens.
#[derive(Clone, Copy)]
pub(crate) struct Hold<'a> {
    pub site: usize,
    /// The `let` binding that owns the guard, when its pattern is one plain
    /// identifier: what `drop(name)` releases and what a diagnostic quotes.
    pub name: Option<&'a str>,
    /// A temporary of the statement in progress, not yet bound to anything.
    pub temp: bool,
    /// Not this fn's guard: a callee may hold it around the closure being
    /// walked (the callback over-approximation).
    pub lent: bool,
}

/// One statement-scoped acquisition during the walk, with two liveness
/// flags and an expiry:
///
/// * `promote` — a `let` binds this guard (the acquisition is
///   *chain-terminal*: its `)` directly precedes the statement's `;`,
///   modulo one `?` — `let v = m.lock().len();` binds a usize, not the
///   guard — and, for a call, the callee returns a guard);
/// * `hold` — the site stays visibly held inside a control-flow block
///   opened by this statement. True for direct acquisitions (match
///   scrutinee temporaries live through the arms) but for calls only when a
///   guard comes back: `if self.breaker.admit(p) {` has released the
///   breaker lock before the block runs;
/// * `expire` — token index past which the entry is gone. A
///   non-guard-returning callee's locks are released when the call returns,
///   i.e. at its closing `)`: in `self.registry.decode(x).and(create(y))`,
///   `decode`'s internal read lock is not held during `create`. Such an
///   entry is *lent*: it only matters inside a closure argument.
#[derive(Clone, Copy)]
struct Temp {
    site: usize,
    promote: bool,
    hold: bool,
    expire: Option<usize>,
}

impl Temp {
    fn as_hold<'a>(&self, name: Option<&'a str>, temp: bool) -> Hold<'a> {
        Hold {
            site: self.site,
            name,
            temp,
            lent: self.expire.is_some(),
        }
    }
}

/// A guard-rule boundary call whose argument list is still open: a guard
/// temporary created inside it is alive when the call runs.
struct OpenCall<'a> {
    boundary: Boundary<'a>,
    line: u32,
    close: usize,
}

/// What the walk knows about the statement in progress.
#[derive(Default)]
struct Stmt<'a> {
    temps: Vec<Temp>,
    /// Boundary calls whose `(` has not closed yet.
    open: Vec<OpenCall<'a>>,
    /// `Some(name)` while the statement is a `let` that can bind a guard
    /// (`name` when its pattern is one identifier).
    binds: Option<Option<&'a str>>,
}

struct Builder<'a> {
    units: &'a [Unit],
    graph: CallGraph,
    /// Analyzed fns: library code, outside tests.
    fns: Vec<FnId>,
    index: HashMap<FnId, usize>,
    sites: Vec<Site>,
    intern: HashMap<(String, u32, String), usize>,
    edges: HashSet<(usize, usize)>,
    /// Per analyzed fn, from the summarizing walk: the acquisition sites of
    /// its own body and its resolved callees. Both leave out nested fn
    /// bodies (charged to the nested fn) and `spawn(…)` closures (they run
    /// on another thread: the spawning fn does not synchronously acquire
    /// what the spawned thread acquires).
    own: Vec<Vec<usize>>,
    callees: Vec<Vec<usize>>,
    /// Sites whose guard can still be held when a callee re-enters caller
    /// code through a callback: the guard escapes its own statement
    /// (let-bound, or alive when a block opens) *and* its fn can actually
    /// surface it at callback time — by returning the guard (`enter`) or by
    /// invoking a closure/fn parameter itself (`with_inner`'s `f(…)`). A
    /// pure statement temp is gone by then, and a fn like
    /// `CircuitBreaker::admit` that locks, updates and returns plain data
    /// can never hold its guard while someone else's callback runs.
    escaping: HashSet<usize>,
    /// Guard-rule findings, one per boundary crossed with a guard held.
    diags: Vec<Diagnostic>,
}

impl<'a> Builder<'a> {
    fn new(units: &'a [Unit]) -> Self {
        let graph = CallGraph::build(units);
        let mut fns = Vec::new();
        for (ui, u) in units.iter().enumerate() {
            if !is_lib_rel(&u.rel) {
                continue;
            }
            for (fi, f) in u.model.fns.iter().enumerate() {
                if !f.in_test {
                    fns.push((ui, fi));
                }
            }
        }
        let index = fns
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        Builder {
            units,
            graph,
            own: vec![Vec::new(); fns.len()],
            callees: vec![Vec::new(); fns.len()],
            fns,
            index,
            sites: Vec::new(),
            intern: HashMap::new(),
            edges: HashSet::new(),
            escaping: HashSet::new(),
            diags: Vec::new(),
        }
    }

    fn run(mut self) -> (LockGraph, Vec<Diagnostic>) {
        // First walk: intern every acquisition site and summarize each fn
        // (own sites, callees, which guards escape their statement).
        for i in 0..self.fns.len() {
            self.walk(i, None);
        }

        // Transitive acquisition sets by fixpoint over the summaries.
        let mut ta: Vec<HashSet<usize>> = self
            .own
            .iter()
            .map(|o| o.iter().copied().collect())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..ta.len() {
                let mut add: Vec<usize> = Vec::new();
                for &c in &self.callees[i] {
                    if c == i {
                        continue;
                    }
                    for &s in &ta[c] {
                        if !ta[i].contains(&s) {
                            add.push(s);
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    ta[i].extend(add);
                }
            }
        }

        // Second walk: the same walk, now with every callee's acquisitions
        // known, generating edges and guard-rule findings.
        for i in 0..self.fns.len() {
            self.walk(i, Some(&ta));
        }

        let mut edges: Vec<(usize, usize)> = self.edges.into_iter().collect();
        edges.sort_by(|a, b| {
            let ka = (&self.sites[a.0].file, self.sites[a.0].line, &self.sites[a.1].file, self.sites[a.1].line);
            let kb = (&self.sites[b.0].file, self.sites[b.0].line, &self.sites[b.1].file, self.sites[b.1].line);
            ka.cmp(&kb)
        });
        self.diags
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.diags
            .dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
        let graph = LockGraph {
            sites: self.sites,
            edges,
        };
        (graph, self.diags)
    }

    fn unit_of(&self, i: usize) -> (&'a Unit, &'a crate::model::FnItem) {
        let (ui, fi) = self.fns[i];
        (&self.units[ui], &self.units[ui].model.fns[fi])
    }

    /// Body token ranges of fns nested inside `f` (skipped during walks so
    /// a definition's acquisitions are not charged to its enclosing fn).
    fn nested_ranges(&self, i: usize) -> Vec<(usize, usize)> {
        let (ui, fi) = self.fns[i];
        let u = &self.units[ui];
        let f = &u.model.fns[fi];
        u.model
            .fns
            .iter()
            .enumerate()
            .filter(|&(gi, g)| gi != fi && g.body.0 > f.body.0 && g.body.1 <= f.body.1)
            .map(|(_, g)| g.body)
            .collect()
    }

    /// If `sig[p]` is a lock-acquisition method call (`.lock()`, `.read()`,
    /// … with empty parens — argument-taking `read`/`write` are I/O, not
    /// locks), interns and returns the site.
    fn acquire_at(&mut self, id: FnId, p: usize) -> Option<usize> {
        let (ui, fi) = id;
        let u = &self.units[ui];
        let f = &u.model.fns[fi];
        let sig = &u.sig;
        let src = u.src.as_str();
        let t = &u.tokens[sig[p]];
        if t.kind != Kind::Ident {
            return None;
        }
        let name = t.text(src);
        if !ACQUIRE_METHODS.contains(&name) {
            return None;
        }
        let prev = p.checked_sub(1).map(|q| u.tokens[sig[q]].text(src));
        if prev != Some(".") {
            return None;
        }
        let open = sig.get(p + 1).map(|&k| u.tokens[k].text(src));
        let close = sig.get(p + 2).map(|&k| u.tokens[k].text(src));
        if open != Some("(") || close != Some(")") {
            return None;
        }
        let chain = receiver_chain(u, p - 1);
        let class = classify(&chain, f.impl_type.as_deref(), &f.name, crate_of(&u.rel));
        let blocking = !name.starts_with("try_");
        let key = (u.rel.clone(), t.line, class.clone());
        if let Some(&s) = self.intern.get(&key) {
            return Some(s);
        }
        let s = self.sites.len();
        self.sites.push(Site {
            file: u.rel.clone(),
            line: t.line,
            class,
            blocking,
            shard: matches!(chain.last().map(String::as_str), Some("shard()" | "shards[]")),
        });
        self.intern.insert(key, s);
        Some(s)
    }

    /// Whether fn `i`'s body contains a bare call (no receiver or path
    /// qualifier) that resolves to no workspace free fn — the shape of a
    /// closure or fn-parameter invocation (`f(…)`, `sink(…)`, `drop(g)`).
    fn invokes_callback(&self, i: usize) -> bool {
        let id = self.fns[i];
        let (u, f) = self.unit_of(i);
        let nested = self.nested_ranges(i);
        callgraph::calls_in_range(u, f.body.0, f.body.1)
            .iter()
            .any(|call| {
                if call.qualifier != Qualifier::None {
                    return false;
                }
                if nested.iter().any(|&(a, b)| call.token >= a && call.token <= b) {
                    return false;
                }
                match self.graph.by_name.get(call.name) {
                    None => true,
                    Some(targets) => callgraph::filter_targets(
                        self.units,
                        id.0,
                        f.impl_type.as_deref(),
                        &call.qualifier,
                        targets,
                    )
                    .is_empty(),
                }
            })
    }

    /// With `LINT_DEBUG_EDGES=1`, prints each edge as it is created along
    /// with the fn whose walk created it — the triage tool for
    /// over-approximation hunting.
    fn debug_edge(&self, h: usize, s: usize, rel: &str, fname: &str, why: &str) {
        if std::env::var_os("LINT_DEBUG_EDGES").is_none() {
            return;
        }
        let a = &self.sites[h];
        let b = &self.sites[s];
        eprintln!(
            "edge {}:{} -> {}:{} (in {rel} fn {fname}, via {why})",
            a.file, a.line, b.file, b.line
        );
    }

    /// Reports the guard-rule rows `boundary` crosses with `held` live.
    fn guard_rows(&mut self, u: &Unit, line: u32, boundary: &Boundary<'_>, held: &[Hold<'_>]) {
        for row in guardrules::crossed(boundary) {
            self.diags
                .extend(guardrules::finding(row, &self.sites, &u.rel, line, boundary, held));
        }
    }

    /// The one held-set walk of fn `i`'s body. It runs twice: first with
    /// `ta` absent, when all it can know is the fn's own acquisitions, and
    /// it summarizes them (`own`, `callees`, `escaping`); then with every
    /// fn's transitive acquisition set, when it reports its two events,
    /// *acquired(site, held)* and *called(name, held)*, to the lock-order
    /// edges and the guard-rule rows.
    fn walk(&mut self, i: usize, ta: Option<&[HashSet<usize>]>) {
        let id = self.fns[i];
        let (u, f) = self.unit_of(i);
        let (body0, body1) = f.body;
        let nested = self.nested_ranges(i);
        let src = u.src.as_str();
        let text_at = |q: usize| u.sig.get(q).map_or("", |&k| u.tokens[k].text(src));
        // Gate for `escaping`: a guard escapes to callback scope only if
        // this fn can still be holding it while foreign code runs — it
        // returns the guard (`enter`, `lock_many`) or invokes a closure/fn
        // parameter itself (`with_inner`'s `f(…)`). A fn that locks,
        // updates and returns plain data (`CircuitBreaker::admit`) releases
        // before any callback elsewhere can observe it, however the guard
        // is bound locally.
        let surfaces = ta.is_none() && (f.returns_guard || self.invokes_callback(i));

        // Resolved call sites in this body, keyed by the callee-name token.
        // Resolution applies the same receiver-qualifier pruning the call
        // graph itself uses, so held-set propagation and TA agree.
        let mut call_map: HashMap<usize, Vec<usize>> = HashMap::new();
        for call in callgraph::calls_in_range(u, body0, body1) {
            if let Some(targets) = self.graph.by_name.get(call.name) {
                let resolved: Vec<usize> = callgraph::filter_targets(
                    self.units,
                    id.0,
                    f.impl_type.as_deref(),
                    &call.qualifier,
                    targets,
                )
                .into_iter()
                .filter_map(|t| self.index.get(&t).copied())
                .collect();
                if !resolved.is_empty() {
                    call_map.insert(call.token, resolved);
                }
            }
        }

        let sig_len = u.sig.len();
        // Scope stack: held guards per enclosing block, with a `barrier`
        // flag for `spawn(…)` closure bodies — the spawned thread starts
        // with an empty held set, so `held()` ignores everything below the
        // last barrier.
        let mut scopes: Vec<(Vec<Hold<'a>>, bool)> = vec![(Vec::new(), false)];
        // Statement state saved at each `{` and restored at its `}` — an
        // inner block's `;`s must not clear the outer statement's
        // temporaries (`let g = match m.lock() { … };`).
        let mut saved: Vec<Stmt<'a>> = Vec::new();
        let mut stmt = Stmt::default();
        let mut new_stmt = true;

        let mut p = u.sig.partition_point(|&k| k <= body0);
        while p < sig_len {
            let k = u.sig[p];
            if k >= body1 {
                break;
            }
            if nested.iter().any(|&(a, b)| k >= a && k <= b) {
                p += 1;
                continue;
            }
            stmt.temps.retain(|t| t.expire.is_none_or(|x| k <= x));
            stmt.open.retain(|c| k <= c.close);
            let t = &u.tokens[k];
            let txt = t.text(src);
            if new_stmt {
                stmt.binds = (txt == "let").then(|| let_binding(u, p)).flatten();
                new_stmt = false;
            }
            match t.kind {
                Kind::Punct => match txt {
                    "{" => {
                        // Statement temporaries feeding a block head stay
                        // visible inside the block only while they can
                        // still pin a guard (`hold` flag) — except closure
                        // bodies, which run *during* the enclosing call, so
                        // everything the statement holds is still held.
                        // `spawn(…)` closures are the opposite extreme: a
                        // fresh thread holds nothing, so they open a
                        // barrier scope.
                        let closure = p
                            .checked_sub(1)
                            .map(text_at)
                            .is_some_and(|prev| prev == "|" || prev == "move");
                        let barrier = closure && is_spawn_closure_open(u, p);
                        if surfaces {
                            self.escaping.extend(stmt.temps.iter().map(|t| t.site));
                        }
                        let holds = if barrier {
                            Vec::new()
                        } else {
                            stmt.temps
                                .iter()
                                .filter(|t| closure || t.hold)
                                .map(|t| t.as_hold(None, false))
                                .collect()
                        };
                        scopes.push((holds, barrier));
                        saved.push(std::mem::take(&mut stmt));
                        new_stmt = true;
                    }
                    "}" => {
                        if scopes.len() > 1 {
                            scopes.pop();
                        }
                        if let Some(outer) = saved.pop() {
                            stmt = outer;
                        }
                        new_stmt = true;
                    }
                    ";" => {
                        if let (Some(name), Some((top, _))) = (stmt.binds, scopes.last_mut()) {
                            let bound = stmt.temps.iter().filter(|t| t.promote);
                            if surfaces {
                                self.escaping.extend(bound.clone().map(|t| t.site));
                            }
                            top.extend(bound.map(|t| t.as_hold(name, false)));
                        }
                        stmt = Stmt::default();
                        new_stmt = true;
                    }
                    _ => {}
                },
                Kind::Ident => {
                    let calls = text_at(p + 1) == "(";
                    let prev = p.checked_sub(1).map(text_at);
                    let spawned = scopes.iter().any(|&(_, barrier)| barrier);
                    if let Some(site) = self.acquire_at(id, p) {
                        let now = held(&scopes, &stmt.temps);
                        let temp = Temp {
                            site,
                            promote: chain_terminal(u, p + 2),
                            hold: true,
                            expire: None,
                        };
                        if ta.is_some() {
                            for h in &now {
                                if h.site != site && self.sites[site].blocking {
                                    self.debug_edge(h.site, site, &u.rel, &f.name, "acquire");
                                    self.edges.insert((h.site, site));
                                }
                            }
                            if self.sites[site].shard {
                                self.guard_rows(u, t.line, &Boundary::ShardAcquire, &now);
                            }
                            for c in &stmt.open {
                                self.guard_rows(u, c.line, &c.boundary, &[temp.as_hold(None, true)]);
                            }
                        } else if !spawned && !self.own[i].contains(&site) {
                            self.own[i].push(site);
                        }
                        stmt.temps.push(temp);
                    } else if txt == "drop" && calls && prev != Some(".") && text_at(p + 3) == ")" {
                        // `drop(g)` of a guard bound in this very block ends
                        // the hold. One in a nested block may not run on
                        // every path, so the guard stays held past it.
                        if let Some((top, _)) = scopes.last_mut() {
                            top.retain(|h| h.name != Some(text_at(p + 2)));
                        }
                    } else if let (true, Some(ta)) = (calls && prev != Some("fn"), ta) {
                        let boundary = Boundary::Call {
                            name: txt,
                            method: prev == Some("."),
                            receiver: callgraph::qualifier_at(u, p),
                        };
                        let close = matching_close(u, p + 1);
                        let now = held(&scopes, &stmt.temps);
                        if guardrules::crossed(&boundary).next().is_some() {
                            self.guard_rows(u, t.line, &boundary, &now);
                            if let Some(c) = close {
                                stmt.open.push(OpenCall { boundary, line: t.line, close: u.sig[c] });
                            }
                        }
                        if let Some(targets) = call_map.get(&k) {
                            let mut union: Vec<usize> = Vec::new();
                            for &tgt in targets {
                                for &s in &ta[tgt] {
                                    if !union.contains(&s) {
                                        union.push(s);
                                    }
                                }
                            }
                            // A call's acquisitions outlive its own
                            // statement only when the callee hands a guard
                            // back (`enter`, `lock_pair`, …) — a
                            // data-returning callee's locks are released by
                            // the time the `let` binds.
                            let rg = targets.iter().any(|&t| {
                                let (ui, fi) = self.fns[t];
                                self.units[ui].model.fns[fi].returns_guard
                            });
                            let term = rg && close.is_some_and(|c| chain_terminal(u, c));
                            let expire = if rg {
                                None
                            } else {
                                close.map(|c| u.sig[c])
                            };
                            for &s in &union {
                                if self.sites[s].blocking {
                                    for h in &now {
                                        if h.site != s {
                                            self.debug_edge(h.site, s, &u.rel, &f.name, txt);
                                            self.edges.insert((h.site, s));
                                        }
                                    }
                                }
                            }
                            // Only escaping guards can still be held when
                            // the callee re-enters this fn's code through a
                            // callback argument; the edge loop above already
                            // covered the callee's internal temps.
                            stmt.temps.extend(
                                union
                                    .into_iter()
                                    .filter(|&s| rg || self.escaping.contains(&s))
                                    .map(|site| Temp { site, promote: term, hold: rg, expire }),
                            );
                        }
                    } else if let (Some(targets), false) = (call_map.get(&k), spawned) {
                        for &t in targets {
                            if !self.callees[i].contains(&t) {
                                self.callees[i].push(t);
                            }
                        }
                    }
                }
                _ => {}
            }
            p += 1;
        }
    }
}

/// All currently-held guards: every enclosing scope plus the statement in
/// progress (a guard temporary is held for the rest of its own statement
/// whether or not it ends up bound).
fn held<'a>(scopes: &[(Vec<Hold<'a>>, bool)], stmt: &[Temp]) -> Vec<Hold<'a>> {
    let start = scopes
        .iter()
        .rposition(|&(_, barrier)| barrier)
        .unwrap_or(0);
    scopes[start..]
        .iter()
        .flat_map(|(holds, _)| holds)
        .copied()
        .chain(stmt.iter().map(|t| t.as_hold(None, true)))
        .collect()
}

/// For the `let` at sig position `p`: `None` when the initializer is a
/// deref copy (`let v = *m.lock();` binds the value, and the guard dies at
/// the `;`), otherwise the bound name if the pattern is one identifier.
fn let_binding(u: &Unit, p: usize) -> Option<Option<&str>> {
    let src = u.src.as_str();
    let tok = |q: usize| u.sig.get(q).map(|&k| &u.tokens[k]);
    let txt = |q: usize| tok(q).map_or("", |t| t.text(src));
    let q = if txt(p + 1) == "mut" { p + 2 } else { p + 1 };
    let name = (tok(q).is_some_and(|t| t.kind == Kind::Ident) && matches!(txt(q + 1), "=" | ":"))
        .then(|| txt(q));
    let eq = (q..u.sig.len())
        .take_while(|&r| txt(r) != ";")
        .find(|&r| txt(r) == "=");
    eq.is_none_or(|r| txt(r + 1) != "*").then_some(name)
}

/// True when the `{` at sig position `p` opens a closure passed directly to
/// a `spawn(…)` call: the preceding tokens read `spawn ( [move] |params| {`.
fn is_spawn_closure_open(u: &Unit, p: usize) -> bool {
    let src = u.src.as_str();
    let text = |q: usize| u.tokens[u.sig[q]].text(src);
    if p == 0 || text(p - 1) != "|" {
        return false;
    }
    // Scan back to the opening `|` of the parameter list.
    let close_bar = p - 1;
    let mut r = close_bar;
    loop {
        if r == 0 || close_bar - r > 64 {
            return false;
        }
        r -= 1;
        if text(r) == "|" {
            break;
        }
    }
    if r > 0 && text(r - 1) == "move" {
        r -= 1;
    }
    r >= 2
        && text(r - 1) == "("
        && u.tokens[u.sig[r - 2]].kind == Kind::Ident
        && text(r - 2) == "spawn"
}

/// True when the `)` at sig position `close` ends its statement's
/// expression chain — the next significant token (modulo one `?`) is `;`.
/// Only then does a `let` actually bind the guard the call produced.
fn chain_terminal(u: &Unit, close: usize) -> bool {
    let src = u.src.as_str();
    let mut q = close + 1;
    if q < u.sig.len() && u.tokens[u.sig[q]].text(src) == "?" {
        q += 1;
    }
    q < u.sig.len() && u.tokens[u.sig[q]].text(src) == ";"
}

/// Sig position of the `)` matching the `(` at sig position `open`.
fn matching_close(u: &Unit, open: usize) -> Option<usize> {
    let src = u.src.as_str();
    if u.sig.get(open).map(|&k| u.tokens[k].text(src)) != Some("(") {
        return None;
    }
    let mut depth = 0i32;
    for p in open..u.sig.len() {
        match u.tokens[u.sig[p]].text(src) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
            _ => {}
        }
    }
    None
}

/// Walks the receiver chain backward from the `.` at sig position `dot`:
/// `self.shard(id).write()` → `["self", "shard()"]`. Gives up (returning
/// what it has) at anything that is not `ident`, `ident(…)` or `ident[…]`.
fn receiver_chain(u: &Unit, dot: usize) -> Vec<String> {
    let sig = &u.sig;
    let src = u.src.as_str();
    let txt = |q: usize| u.tokens[sig[q]].text(src);
    let mut segs: Vec<String> = Vec::new();
    let mut d = dot;
    for _ in 0..12 {
        if d == 0 {
            break;
        }
        let mut r = d - 1;
        if txt(r) == "?" {
            if r == 0 {
                break;
            }
            r -= 1;
        }
        let seg: Option<(String, usize)> = if u.tokens[sig[r]].kind == Kind::Ident {
            Some((txt(r).to_string(), r))
        } else if txt(r) == ")" || txt(r) == "]" {
            let (open_c, close_c) = if txt(r) == ")" { ("(", ")") } else { ("[", "]") };
            let mut depth = 0i32;
            let mut q = r;
            let open_pos = loop {
                let s = txt(q);
                if s == close_c {
                    depth += 1;
                } else if s == open_c {
                    depth -= 1;
                    if depth == 0 {
                        break Some(q);
                    }
                }
                if q == 0 {
                    break None;
                }
                q -= 1;
            };
            match open_pos {
                Some(q) if q > 0 && u.tokens[sig[q - 1]].kind == Kind::Ident => {
                    Some((format!("{}{}{}", txt(q - 1), open_c, close_c), q - 1))
                }
                _ => None,
            }
        } else {
            None
        };
        match seg {
            Some((s, at)) => {
                segs.push(s);
                if at == 0 || txt(at - 1) != "." {
                    break;
                }
                d = at - 1;
            }
            None => break,
        }
    }
    segs.reverse();
    segs
}

fn classify(chain: &[String], impl_type: Option<&str>, fn_name: &str, krate: &str) -> String {
    match chain.first().map(String::as_str) {
        Some("self") => {
            let owner = impl_type.unwrap_or(krate);
            if chain.len() == 1 {
                owner.to_string()
            } else {
                format!("{owner}::{}", chain[1..].join("."))
            }
        }
        Some(_) => format!("{krate}::{fn_name}::{}", chain.join(".")),
        None => format!("{krate}::{fn_name}::<expr>"),
    }
}

impl LockGraph {
    /// `lock-order-cycle` diagnostics: one per unordered class pair with
    /// edges in both directions. Same-class pairs are exempt (indexed
    /// families like shard stripes are ordered by `lock_pair`/`lock_many`,
    /// enforced by `single-shard-guard`).
    pub fn cycle_diagnostics(&self) -> Vec<Diagnostic> {
        let mut by_classes: HashMap<(&str, &str), Vec<(usize, usize)>> = HashMap::new();
        for &(f, t) in &self.edges {
            let (cf, ct) = (self.sites[f].class.as_str(), self.sites[t].class.as_str());
            if cf != ct {
                by_classes.entry((cf, ct)).or_default().push((f, t));
            }
        }
        let mut diags = Vec::new();
        let mut seen: HashSet<(&str, &str)> = HashSet::new();
        let mut keys: Vec<(&str, &str)> = by_classes.keys().copied().collect();
        keys.sort();
        for (a, b) in keys {
            if a >= b || seen.contains(&(a, b)) {
                continue;
            }
            let Some(fwd) = by_classes.get(&(a, b)) else { continue };
            let Some(rev) = by_classes.get(&(b, a)) else { continue };
            seen.insert((a, b));
            let describe = |edges: &[(usize, usize)]| {
                edges
                    .iter()
                    .take(3)
                    .map(|&(f, t)| {
                        format!(
                            "{}:{} -> {}:{}",
                            self.sites[f].file,
                            self.sites[f].line,
                            self.sites[t].file,
                            self.sites[t].line
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let mut fwd = fwd.clone();
            let mut rev = rev.clone();
            let key = |&(f, t): &(usize, usize)| {
                (
                    self.sites[f].file.clone(),
                    self.sites[f].line,
                    self.sites[t].line,
                )
            };
            fwd.sort_by_key(key);
            rev.sort_by_key(key);
            // Anchor at the smallest involved site so `lint:allow` has a
            // stable home.
            let anchor = fwd
                .iter()
                .chain(rev.iter())
                .flat_map(|&(f, t)| [f, t])
                .min_by_key(|&s| (self.sites[s].file.clone(), self.sites[s].line))
                .expect("cycle has at least one edge");
            diags.push(Diagnostic {
                file: self.sites[anchor].file.clone(),
                line: self.sites[anchor].line as usize,
                rule: RULE_LOCK_ORDER_CYCLE,
                message: format!(
                    "lock-order inversion between `{a}` and `{b}`: \
                     {a} -> {b} at [{}]; {b} -> {a} at [{}]",
                    describe(&fwd),
                    describe(&rev)
                ),
            });
        }
        diags
    }

    /// Deterministic class-level JSON export (hand-written — the workspace
    /// vendors no serde): the sorted lock classes and the sorted distinct
    /// `class -> class` edges, one per line. Sites are left out on purpose:
    /// a shifted line or a moved file is not a change to the locking
    /// structure, so it must not be a change to the committed file.
    pub fn to_json(&self) -> String {
        let classes: BTreeSet<&str> = self.sites.iter().map(|s| s.class.as_str()).collect();
        let edges: BTreeSet<String> = self
            .edges
            .iter()
            .map(|&(f, t)| format!("{} -> {}", self.sites[f].class, self.sites[t].class))
            .collect();
        fn lines<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
            let quoted: Vec<String> = items.into_iter().map(|i| format!("    \"{i}\"")).collect();
            quoted.join(",\n")
        }
        format!(
            "{{\n  \"classes\": [\n{}\n  ],\n  \"edges\": [\n{}\n  ]\n}}\n",
            lines(classes),
            lines(edges),
        )
    }
}
