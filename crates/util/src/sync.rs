//! Workspace-wide lock facade.
//!
//! Every OBIWAN crate takes its `Mutex`/`RwLock` from here instead of from
//! `parking_lot` directly (`obiwan-lint` has no rule for this, but the
//! convention is load-bearing: it is what lets one feature flag swap the
//! whole workspace's locks).
//!
//! * Default build: zero-cost re-exports of the `parking_lot` types.
//! * With `feature = "lockcheck"`: the instrumented types from
//!   [`crate::lockcheck`], which record a per-thread held-set and a global
//!   acquisition-order graph and report lock-order inversions (potential
//!   deadlocks) at acquire time.
//!
//! The root package enables `lockcheck` from its dev-dependencies, so every
//! `cargo test` run — unit, integration, chaos — executes under the
//! detector, while `cargo build --release` never compiles it in.

#[cfg(feature = "lockcheck")]
pub use crate::lockcheck::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "lockcheck"))]
pub use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub use crate::lockcheck::{violations as lock_order_violations, Violation};

/// Whether this build routes the workspace's locks through the lock-order
/// detector. Tests use this to skip (or insist on) detector assertions
/// instead of guessing from features of other crates.
pub const fn lockcheck_enabled() -> bool {
    cfg!(feature = "lockcheck")
}

/// Panics if any lock-order inversion has been recorded in this process.
///
/// Suites call this at the end of a test. It is meaningful only when
/// [`lockcheck_enabled`] is true (otherwise the uninstrumented locks record
/// nothing and it trivially passes), and it is process-global: do not mix a
/// deliberately-seeded inversion and a cleanliness assertion in one test
/// binary.
pub fn assert_no_lock_order_violations() {
    crate::lockcheck::assert_no_violations();
}

/// Asserts every held → acquired lock edge the runtime detector has
/// observed between *library* sites appears in the static lock graph
/// `obiwan-lint` computes from the checked-out sources (once per process).
///
/// This is the runtime ⊆ static cross-check: the static analysis claims to
/// over-approximate every ordering the library can exhibit, and the chaos /
/// integration suites end by holding it to that claim. Both sides read the
/// same source tree, so no committed `file:line` list can go stale. Two
/// edge families are exempt by construction:
///
/// * edges with either site outside the statically analyzed scope — test
///   binaries create their own locks (including deliberately seeded
///   inversions in `tests/lockcheck_detector.rs`), and the graph
///   only covers what `obiwan_lint::lockgraph::is_lib_rel` admits;
/// * same-site edges — one textual site acquiring two sibling locks (the
///   [`lock_many`] loop). The static graph records the site but never a
///   self-edge, so these only require the site itself to be known.
///
/// Like [`assert_no_lock_order_violations`], this is meaningful only when
/// [`lockcheck_enabled`] is true; otherwise no edges were recorded and it
/// trivially passes.
pub fn assert_observed_edges_in_static_graph() {
    #[cfg(feature = "lockcheck")]
    {
        use obiwan_lint::lockgraph::is_lib_rel;
        use std::collections::HashSet;

        // Held → acquired pairs of `file:line` sites, the form
        // `lockcheck::observed_edges` reports; every known site is also
        // paired with itself, which is what a same-site edge needs.
        static GRAPH: std::sync::OnceLock<HashSet<(String, String)>> = std::sync::OnceLock::new();
        let graph = GRAPH.get_or_init(|| {
            let root = obiwan_lint::default_root();
            let files = obiwan_lint::scan_workspace(&root)
                .unwrap_or_else(|e| panic!("cannot scan {}: {e}", root.display()));
            let graph = obiwan_lint::lock_graph(&files);
            let site = |i: usize| format!("{}:{}", graph.sites[i].file, graph.sites[i].line);
            let known = (0..graph.sites.len()).map(|i| (site(i), site(i)));
            let edges = graph
                .edges
                .iter()
                .map(|&(held, acquired)| (site(held), site(acquired)));
            known.chain(edges).collect()
        });

        let in_scope =
            |site: &str| is_lib_rel(site.rsplit_once(':').map_or(site, |(file, _)| file));
        let missing: Vec<String> = crate::lockcheck::observed_edges()
            .into_iter()
            .filter(|(held, acquired)| in_scope(held) && in_scope(acquired))
            .filter(|edge| !graph.contains(edge))
            .map(|(held, acquired)| format!("{held} -> {acquired}"))
            .collect();
        if !missing.is_empty() {
            panic!(
                "{} runtime lock edge(s) missing from the static graph of the sources \
                 under test: the static analysis lost an edge (fix crates/lint)\n  {}",
                missing.len(),
                missing.join("\n  ")
            );
        }
    }
}

/// Write-locks two locks from the same indexed family (e.g. two shards of a
/// striped table) in **index order**, returning the guards in argument
/// order.
///
/// This is the only sanctioned way to hold two sibling locks at once: every
/// caller acquires in ascending index order, so the lockcheck graph (and the
/// `single-shard-guard` lint rule) stay clean. The indices must differ — the
/// same index would self-deadlock.
pub fn lock_pair<'a, T>(
    (ia, a): (usize, &'a RwLock<T>),
    (ib, b): (usize, &'a RwLock<T>),
) -> (RwLockWriteGuard<'a, T>, RwLockWriteGuard<'a, T>) {
    assert_ne!(ia, ib, "lock_pair needs two distinct indices");
    // The two branches acquire a/b in opposite textual order on purpose:
    // the `ia < ib` comparison makes the runtime order always
    // ascending-by-index, which a name-based analysis cannot see.
    if ia < ib {
        // lint:allow(lock-order-cycle) runtime order is index-ascending by the branch condition above
        let ga = a.write();
        let gb = b.write();
        (ga, gb)
    } else {
        let gb = b.write();
        let ga = a.write();
        (ga, gb)
    }
}

/// Write-locks every lock in `locks` in slice (= index) order.
///
/// The whole-family counterpart of [`lock_pair`], for stop-the-world
/// operations over a striped structure (GC, eviction sweeps). Because every
/// multi-lock path goes through these helpers with the same ascending order,
/// no inversion can form against the single-shard fast paths.
pub fn lock_many<T>(locks: &[RwLock<T>]) -> Vec<RwLockWriteGuard<'_, T>> {
    locks.iter().map(|l| l.write()).collect()
}
