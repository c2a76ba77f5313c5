//! Static lock-order graph.
//!
//! For every function in library code (`crates/*/src`, `src/`, outside test
//! modules) this pass extracts each `util::sync` Mutex/RwLock/shard-guard
//! acquisition site, propagates held-sets through the name-based call graph,
//! and records every ordered pair *"site A's guard was held while site B
//! acquired"* as a static edge. Two consumers:
//!
//! * the `lock-order-cycle` rule: if class α acquires before class β on one
//!   path and β before α on another, that is a potential AB/BA deadlock,
//!   reported at lint time with every witness site;
//! * the runtime ⊆ static cross-check: `obiwan-util` (with its `lockcheck`
//!   feature) builds this graph in-process from the checked-out sources and
//!   requires every `file:line` edge the instrumented chaos suites observe
//!   to be in it, which keeps the static analysis honest about coverage;
//! * `LOCK_GRAPH.json`: the committed class-level export a reviewer reads
//!   ([`LockGraph::to_json`]) — lock classes and `class -> class` edges,
//!   no file names or line numbers, so it changes only when the locking
//!   structure does.
//!
//! ## Mechanisms (all over-approximations, never under)
//!
//! * **direct edges** — let-bound guards are held until their scope closes
//!   (`drop()` is not modeled), but only when the acquisition is
//!   *chain-terminal*: `let g = m.lock();` binds the guard, while
//!   `let n = m.lock().len();` binds a `usize` and drops the guard at the
//!   `;`. Statement temporaries are held until the `;`;
//!   temporaries feeding an `if`/`while`/`match` head are extended through
//!   the block (match scrutinees really do live that long).
//! * **call edges** — at a resolved call, every held site gains an edge to
//!   every *transitive* acquisition site of the callee (TA, computed by
//!   fixpoint over the call graph, cut at transport boundaries).
//! * **virtual hold** — `let g = self.enter()?;` holds whatever the callee
//!   acquires until scope end, covering guards returned by workspace fns.
//! * **callback over-approximation** — for `f(|x| { … })`, `f`'s TA is
//!   treated as held while the closure body's acquisitions are walked, so
//!   `with_inner(|g| …)`-style wrappers produce the edges the runtime sees.
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
}

/// The computed graph: interned sites plus held→acquired edges (indices
/// into `sites`).
pub struct LockGraph {
    pub sites: Vec<Site>,
    pub edges: Vec<(usize, usize)>,
}

/// True for files whose code is subject to the analysis: the runtime
/// library crates. `crates/bench` (scenario harnesses that drive every
/// transport from one thread — their cross-transport "held" sets are
/// harness artifacts, and no instrumented test executes them) and
/// `crates/lint` (no locks; its fixtures embed lock-shaped code in string
/// literals) are linted by the other rules but excluded from the graph.
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

pub fn build(units: &[Unit]) -> LockGraph {
    Builder::new(units).run()
}

/// One statement-scoped acquisition during the held-set walk:
/// `(site, promote, hold, expire)` — see the comment at `stmt` in
/// [`Builder::walk`] for what each flag means.
type StmtSite = (usize, bool, bool, Option<usize>);

struct Builder<'a> {
    units: &'a [Unit],
    graph: CallGraph,
    /// Analyzed fns: library code, outside tests.
    fns: Vec<FnId>,
    index: HashMap<FnId, usize>,
    sites: Vec<Site>,
    intern: HashMap<(String, u32, String), usize>,
    edges: HashSet<(usize, usize)>,
    /// Sites whose guard can still be held when a callee re-enters caller
    /// code through a callback: the guard escapes its own statement
    /// (let-bound, or alive when a block opens) *and* its fn can actually
    /// surface it at callback time — by returning the guard (`enter`) or by
    /// invoking a closure/fn parameter itself (`with_inner`'s `f(…)`). A
    /// pure statement temp is gone by then, and a fn like
    /// `CircuitBreaker::admit` that locks, updates and returns plain data
    /// can never hold its guard while someone else's callback runs.
    escaping: HashSet<usize>,
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
            fns,
            index,
            sites: Vec::new(),
            intern: HashMap::new(),
            edges: HashSet::new(),
            escaping: HashSet::new(),
        }
    }

    fn run(mut self) -> LockGraph {
        // Pass A: intern every acquisition site, collect per-fn own-sets.
        let own: Vec<Vec<usize>> = (0..self.fns.len())
            .map(|i| self.own_sites(i))
            .collect();

        // Pass A2: which guards escape their own statement (see `escaping`).
        for i in 0..self.fns.len() {
            self.escape_pass(i);
        }

        // Pass B: transitive acquisition sets by fixpoint. Callee lists are
        // recomputed here rather than taken from the call graph because TA
        // must exclude calls made inside nested fn bodies (charged to the
        // nested fn) and inside `spawn(…)` closures (they run on another
        // thread — the spawning fn does not synchronously acquire what the
        // spawned thread acquires).
        let callees: Vec<Vec<usize>> = (0..self.fns.len())
            .map(|i| {
                let (u, f) = self.unit_of(i);
                let nested = self.nested_ranges(i);
                let spawns = spawn_ranges(u, f.body.0, f.body.1);
                let mut out: Vec<usize> = Vec::new();
                for call in callgraph::calls_in_range(u, f.body.0, f.body.1) {
                    let skipped = nested
                        .iter()
                        .chain(spawns.iter())
                        .any(|&(a, b)| call.token >= a && call.token <= b);
                    if skipped {
                        continue;
                    }
                    if let Some(targets) = self.graph.by_name.get(call.name) {
                        for t in callgraph::filter_targets(
                            self.units,
                            self.fns[i].0,
                            f.impl_type.as_deref(),
                            &call.qualifier,
                            targets,
                        ) {
                            if let Some(&j) = self.index.get(&t) {
                                if !out.contains(&j) {
                                    out.push(j);
                                }
                            }
                        }
                    }
                }
                out
            })
            .collect();
        let mut ta: Vec<HashSet<usize>> = own
            .iter()
            .map(|o| o.iter().copied().collect())
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..ta.len() {
                let mut add: Vec<usize> = Vec::new();
                for &c in &callees[i] {
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

        // Pass C: the per-fn walk generating edges.
        for i in 0..self.fns.len() {
            self.walk(i, &ta);
        }

        let mut edges: Vec<(usize, usize)> = self.edges.into_iter().collect();
        edges.sort_by(|a, b| {
            let ka = (&self.sites[a.0].file, self.sites[a.0].line, &self.sites[a.1].file, self.sites[a.1].line);
            let kb = (&self.sites[b.0].file, self.sites[b.0].line, &self.sites[b.1].file, self.sites[b.1].line);
            ka.cmp(&kb)
        });
        LockGraph {
            sites: self.sites,
            edges,
        }
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

    /// Acquisition sites of fn `i`'s own body — excluding nested fn bodies
    /// and `spawn(…)` closures (another thread's acquisitions are not part
    /// of this fn's synchronous TA; the walk still edges them internally).
    fn own_sites(&mut self, i: usize) -> Vec<usize> {
        let (u, f) = self.unit_of(i);
        let nested = self.nested_ranges(i);
        let spawns = spawn_ranges(u, f.body.0, f.body.1);
        let sig = &u.sig;
        let mut out = Vec::new();
        let mut p = sig.partition_point(|&k| k <= f.body.0);
        while p < sig.len() && sig[p] < f.body.1 {
            let k = sig[p];
            if nested
                .iter()
                .chain(spawns.iter())
                .any(|&(a, b)| k >= a && k <= b)
            {
                p += 1;
                continue;
            }
            if let Some(site) = self.acquire_at(self.fns[i], p) {
                if !out.contains(&site) {
                    out.push(site);
                }
            }
            p += 1;
        }
        out
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
        });
        self.intern.insert(key, s);
        Some(s)
    }

    /// Pass A2 body: a simplified walk marking sites whose guard escapes
    /// its own statement — chain-terminal `let`-bound acquisitions, and
    /// acquisitions still live when a block opens (match scrutinees;
    /// `if`-head temps are over-approximated the same way).
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

    fn escape_pass(&mut self, i: usize) {
        let id = self.fns[i];
        let (u, f) = self.unit_of(i);
        // Gate: a guard escapes to callback scope only if this fn can still
        // be holding it while foreign code runs — it returns the guard
        // (`enter`, `lock_many`) or invokes a closure/fn parameter itself
        // (`with_inner`'s `f(…)`). A fn that locks, updates and returns
        // plain data (`CircuitBreaker::admit`) releases before any callback
        // elsewhere can observe it, however the guard is bound locally.
        if !f.returns_guard && !self.invokes_callback(i) {
            return;
        }
        let (body0, body1) = f.body;
        let nested = self.nested_ranges(i);
        let sig_len = u.sig.len();
        let mut stmt: Vec<(usize, bool)> = Vec::new();
        let mut saved: Vec<(Vec<(usize, bool)>, bool)> = Vec::new();
        let mut stmt_is_let = false;
        let mut new_stmt = true;
        let mut p = u.sig.partition_point(|&k| k <= body0);
        while p < sig_len {
            let (u, _) = self.unit_of(i);
            let k = u.sig[p];
            if k >= body1 {
                break;
            }
            if nested.iter().any(|&(a, b)| k >= a && k <= b) {
                p += 1;
                continue;
            }
            let t = &u.tokens[k];
            let txt = t.text(&u.src);
            if new_stmt {
                stmt_is_let = txt == "let";
                new_stmt = false;
            }
            match t.kind {
                Kind::Punct => match txt {
                    "{" => {
                        for &(s, _) in &stmt {
                            self.escaping.insert(s);
                        }
                        saved.push((std::mem::take(&mut stmt), stmt_is_let));
                        stmt_is_let = false;
                        new_stmt = true;
                    }
                    "}" => {
                        if let Some((s, l)) = saved.pop() {
                            stmt = s;
                            stmt_is_let = l;
                        }
                        new_stmt = true;
                    }
                    ";" => {
                        if stmt_is_let {
                            for &(s, term) in &stmt {
                                if term {
                                    self.escaping.insert(s);
                                }
                            }
                        }
                        stmt.clear();
                        stmt_is_let = false;
                        new_stmt = true;
                    }
                    _ => {}
                },
                Kind::Ident => {
                    if let Some(site) = self.acquire_at(id, p) {
                        let (u, _) = self.unit_of(i);
                        stmt.push((site, chain_terminal(u, p + 2)));
                    }
                }
                _ => {}
            }
            p += 1;
        }
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

    fn walk(&mut self, i: usize, ta: &[HashSet<usize>]) {
        let id = self.fns[i];
        let (u, f) = self.unit_of(i);
        let (body0, body1) = f.body;
        let nested = self.nested_ranges(i);

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
        // Scope stack: held sites per enclosing block, with a `barrier`
        // flag for `spawn(…)` closure bodies — the spawned thread starts
        // with an empty held set, so `held()` ignores everything below the
        // last barrier.
        let mut scopes: Vec<(Vec<usize>, bool)> = vec![(Vec::new(), false)];
        // Statement state saved at each `{` and restored at its `}` — an
        // inner block's `;`s must not clear the outer statement's
        // temporaries (`let g = match m.lock() { … };`).
        let mut saved: Vec<(Vec<StmtSite>, bool)> = Vec::new();
        // Per-statement held sites, each with two liveness flags and an
        // expiry:
        //
        // * `promote` — a `let` binds this guard (the acquisition is
        //   *chain-terminal*: its `)` directly precedes the statement's
        //   `;`, modulo one `?` — `let v = m.lock().len();` binds a usize,
        //   not the guard — and, for a call, the callee returns a guard);
        // * `hold` — the site stays visibly held inside a control-flow
        //   block opened by this statement. True for direct acquisitions
        //   (match scrutinee temporaries live through the arms) but for
        //   calls only when a guard comes back: `if self.breaker.admit(p) {`
        //   has released the breaker lock before the block runs;
        // * `expire` — token index past which the entry is gone. A
        //   non-guard-returning callee's locks are released when the call
        //   returns, i.e. at its closing `)`: in
        //   `self.registry.decode(x).and(create(y))`, `decode`'s internal
        //   read lock is not held during `create`.
        let mut stmt: Vec<StmtSite> = Vec::new();
        let mut stmt_is_let = false;
        let mut new_stmt = true;

        let mut p = u.sig.partition_point(|&k| k <= body0);
        while p < sig_len {
            let (u, _) = self.unit_of(i);
            let k = u.sig[p];
            if k >= body1 {
                break;
            }
            if nested.iter().any(|&(a, b)| k >= a && k <= b) {
                p += 1;
                continue;
            }
            stmt.retain(|&(_, _, _, expire)| expire.is_none_or(|x| k <= x));
            let t = &u.tokens[k];
            let txt = t.text(&u.src);
            if new_stmt {
                stmt_is_let = txt == "let";
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
                            .map(|q| u.tokens[u.sig[q]].text(&u.src))
                            .is_some_and(|prev| prev == "|" || prev == "move");
                        let barrier = closure && is_spawn_closure_open(u, p);
                        let sites = if barrier {
                            Vec::new()
                        } else {
                            stmt.iter()
                                .filter(|&&(_, _, hold, _)| closure || hold)
                                .map(|&(s, _, _, _)| s)
                                .collect()
                        };
                        scopes.push((sites, barrier));
                        saved.push((std::mem::take(&mut stmt), stmt_is_let));
                        stmt_is_let = false;
                        new_stmt = true;
                    }
                    "}" => {
                        if scopes.len() > 1 {
                            scopes.pop();
                        }
                        if let Some((s, l)) = saved.pop() {
                            stmt = s;
                            stmt_is_let = l;
                        }
                        new_stmt = true;
                    }
                    ";" => {
                        if stmt_is_let {
                            if let Some((top, _)) = scopes.last_mut() {
                                top.extend(
                                    stmt.iter()
                                        .filter(|&&(_, promote, _, _)| promote)
                                        .map(|&(s, _, _, _)| s),
                                );
                            }
                        }
                        stmt.clear();
                        stmt_is_let = false;
                        new_stmt = true;
                    }
                    _ => {}
                },
                Kind::Ident => {
                    if let Some(site) = self.acquire_at(id, p) {
                        let (u, f) = self.unit_of(i);
                        let term = chain_terminal(u, p + 2);
                        for h in held(&scopes, &stmt) {
                            if h != site && self.sites[site].blocking {
                                self.debug_edge(h, site, &u.rel, &f.name, "acquire");
                                self.edges.insert((h, site));
                            }
                        }
                        stmt.push((site, term, true, None));
                    } else if let Some(targets) = call_map.get(&k) {
                        let mut union: Vec<usize> = Vec::new();
                        for &tgt in targets {
                            for &s in &ta[tgt] {
                                if !union.contains(&s) {
                                    union.push(s);
                                }
                            }
                        }
                        let (u, _) = self.unit_of(i);
                        // A call's acquisitions outlive its own statement
                        // only when the callee hands a guard back (`enter`,
                        // `lock_pair`, …) — a data-returning callee's locks
                        // are released by the time the `let` binds.
                        let rg = targets.iter().any(|&t| {
                            let (ui, fi) = self.fns[t];
                            self.units[ui].model.fns[fi].returns_guard
                        });
                        let close = matching_close(u, p + 1);
                        let term = rg && close.is_some_and(|c| chain_terminal(u, c));
                        let expire = if rg {
                            None
                        } else {
                            close.map(|c| u.sig[c])
                        };
                        for &s in &union {
                            if self.sites[s].blocking {
                                for h in held(&scopes, &stmt) {
                                    if h != s {
                                        let (u, f) = self.unit_of(i);
                                        self.debug_edge(h, s, &u.rel, &f.name, txt);
                                        self.edges.insert((h, s));
                                    }
                                }
                            }
                        }
                        // Only escaping guards can still be held when the
                        // callee re-enters this fn's code through a
                        // callback argument; the edge loop above already
                        // covered the callee's internal temps.
                        stmt.extend(
                            union
                                .into_iter()
                                .filter(|&s| rg || self.escaping.contains(&s))
                                .map(|s| (s, term, rg, expire)),
                        );
                    }
                }
                _ => {}
            }
            p += 1;
        }
    }
}

/// All currently-held sites: every enclosing scope plus the statement in
/// progress (a guard temporary is held for the rest of its own statement
/// whether or not it ends up bound).
fn held(
    scopes: &[(Vec<usize>, bool)],
    stmt: &[(usize, bool, bool, Option<usize>)],
) -> Vec<usize> {
    let start = scopes
        .iter()
        .rposition(|&(_, barrier)| barrier)
        .unwrap_or(0);
    scopes[start..]
        .iter()
        .flat_map(|(sites, _)| sites)
        .copied()
        .chain(stmt.iter().map(|&(s, _, _, _)| s))
        .collect()
}

/// Token-index ranges (inclusive) of closure bodies passed directly to a
/// `spawn(…)` call inside `body0..body1`. These run on another thread: the
/// spawning fn neither holds its guards across them nor transitively
/// "acquires" what they acquire.
fn spawn_ranges(u: &Unit, body0: usize, body1: usize) -> Vec<(usize, usize)> {
    let src = u.src.as_str();
    let sig = &u.sig;
    let mut out = Vec::new();
    let mut p = sig.partition_point(|&k| k <= body0);
    while p < sig.len() && sig[p] < body1 {
        if u.tokens[sig[p]].text(src) == "{" && is_spawn_closure_open(u, p) {
            if let Some(c) = crate::model::matching_brace(src, &u.tokens, sig, p) {
                out.push((sig[p], sig[c]));
            }
        }
        p += 1;
    }
    out
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
