//! Runtime lock-order (potential-deadlock) detection.
//!
//! The classic deadlock recipe is two threads taking the same pair of locks
//! in opposite orders. Waiting for the hang to reproduce under test is
//! hopeless — the window is microseconds wide — so this module detects the
//! *ordering inversion itself*, which is visible on every run, even
//! single-threaded.
//!
//! [`Mutex`] and [`RwLock`] here mirror the `parking_lot` API exactly but
//! instrument every acquisition:
//!
//! * each lock instance is lazily assigned a stable numeric id;
//! * every thread keeps a stack of the locks it currently holds, with the
//!   [`Location`] of each acquisition (captured via `#[track_caller]`);
//! * a global graph records every observed *held → acquired* edge.
//!
//! When acquiring `B` while holding `A` would close a cycle in that graph
//! (i.e. some earlier code path acquired `A`-ish locks while holding `B`),
//! a [`Violation`] naming both call sites is recorded. Violations are
//! *recorded*, not panicked, so the offending test still runs to completion;
//! suites call [`assert_no_violations`] at the end, and targeted tests
//! inspect [`violations`] for the sites they seeded.
//!
//! Non-blocking acquisitions (`try_lock`, `try_read`, `try_write`) push onto
//! the held stack — locks acquired *after* them are still ordered against
//! them — but add no inbound edge themselves, because a `try_` that would
//! block simply fails instead of deadlocking.
//!
//! The types are always compiled (so the detector can test itself in every
//! build); the `lockcheck` feature merely decides whether
//! [`crate::sync`] re-exports these instrumented types or the raw
//! `parking_lot` ones.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex as StdMutex, OnceLock};

/// A detected lock-order inversion: two code paths acquire the same pair of
/// locks in opposite orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Call site of the acquisition that closed the cycle.
    pub site: String,
    /// Call site of the earlier, reverse-order acquisition it conflicts with.
    pub conflicting_site: String,
    /// Full human-readable description (both sites plus the held-lock sites).
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// One observed "acquired `to` while holding `from`" event; the first
/// occurrence is kept so reports name the code path that established the
/// ordering, not the latest repetition.
struct EdgeInfo {
    /// Where the held lock (`from`) had been acquired.
    held_site: &'static Location<'static>,
    /// Where the new lock (`to`) was acquired.
    acquire_site: &'static Location<'static>,
}

#[derive(Default)]
struct OrderState {
    /// `edges[a]` contains `b` iff some thread acquired `b` while holding `a`.
    edges: HashMap<u64, HashMap<u64, EdgeInfo>>,
    /// Ordered pairs already reported, to keep diagnostics non-repetitive.
    reported: HashSet<(u64, u64)>,
    violations: Vec<Violation>,
}

fn state() -> &'static StdMutex<OrderState> {
    static STATE: OnceLock<StdMutex<OrderState>> = OnceLock::new();
    STATE.get_or_init(|| StdMutex::new(OrderState::default()))
}

fn with_state<R>(f: impl FnOnce(&mut OrderState) -> R) -> R {
    // A panicking test thread may have poisoned the std mutex; the graph is
    // append-only bookkeeping, so it is always safe to keep using it.
    let mut guard = state().lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

thread_local! {
    /// Stack of (lock id, acquisition site) currently held by this thread.
    static HELD: RefCell<Vec<(u64, &'static Location<'static>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Lock ids start at 1; 0 in a lock's id slot means "not yet assigned".
static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

fn assign_id(slot: &AtomicU64) -> u64 {
    let current = slot.load(Ordering::Relaxed);
    if current != 0 {
        return current;
    }
    let fresh = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
    match slot.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => fresh,
        Err(raced) => raced,
    }
}

/// Breadth-first search for a path `from → … → to` in the order graph,
/// returning the node sequence if one exists.
fn find_path(
    edges: &HashMap<u64, HashMap<u64, EdgeInfo>>,
    from: u64,
    to: u64,
) -> Option<Vec<u64>> {
    let mut prev: HashMap<u64, u64> = HashMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: HashSet<u64> = HashSet::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![to];
            let mut cur = to;
            while let Some(&p) = prev.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if let Some(next) = edges.get(&node) {
            for &n in next.keys() {
                if seen.insert(n) {
                    prev.insert(n, node);
                    queue.push_back(n);
                }
            }
        }
    }
    None
}

/// Records the edges `held → id` for every currently held lock, reporting a
/// violation for each edge whose reverse direction is already reachable.
fn record_acquire(
    held: &[(u64, &'static Location<'static>)],
    id: u64,
    site: &'static Location<'static>,
) {
    with_state(|st| {
        for &(held_id, held_site) in held {
            if held_id == id {
                // Re-entrant read locks order a lock against itself; that is
                // not an inversion.
                continue;
            }
            // Closing `held_id → id` is a cycle iff `id` already reaches
            // `held_id` through previously observed orderings.
            if let Some(path) = find_path(&st.edges, id, held_id) {
                if st.reported.insert((held_id, id)) {
                    let first_hop = st
                        .edges
                        .get(&path[0])
                        .and_then(|next| next.get(&path[1]));
                    let (rev_acquire, rev_held) = match first_hop {
                        Some(e) => (e.acquire_site, e.held_site),
                        // Unreachable: the path's first hop is an edge in the
                        // map; keep a harmless fallback instead of unwrapping.
                        None => (site, held_site),
                    };
                    let message = format!(
                        "lock-order inversion: lock #{id} acquired at {site} while \
                         holding lock #{held_id} (acquired at {held_site}); the \
                         opposite order was established at {rev_acquire}, which \
                         acquired lock #{} while holding lock #{id} (acquired at \
                         {rev_held})",
                        path[1],
                    );
                    st.violations.push(Violation {
                        site: site.to_string(),
                        conflicting_site: rev_acquire.to_string(),
                        message,
                    });
                }
            }
            st.edges
                .entry(held_id)
                .or_default()
                .entry(id)
                .or_insert(EdgeInfo {
                    held_site,
                    acquire_site: site,
                });
        }
    });
}

/// Called after any successful acquisition. `blocking` is false for the
/// `try_*` variants, which cannot deadlock and therefore add no edges, but
/// still join the held stack so later blocking acquisitions order against
/// them.
fn on_acquire(id: u64, site: &'static Location<'static>, blocking: bool) {
    // `try_with`: a lock acquired during thread-local teardown is simply not
    // instrumented.
    let _ = HELD.try_with(|h| {
        let mut held = h.borrow_mut();
        if blocking {
            record_acquire(&held, id, site);
        }
        held.push((id, site));
    });
}

fn on_release(id: u64) {
    let _ = HELD.try_with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(hid, _)| hid == id) {
            held.remove(pos);
        }
    });
}

/// Snapshot of every violation recorded so far, in detection order.
///
/// This clones rather than drains: several tests in one binary can each
/// assert on the global record without stealing each other's entries.
pub fn violations() -> Vec<Violation> {
    with_state(|st| st.violations.clone())
}

/// Snapshot of every held → acquired edge observed so far, as
/// `(held "file:line", acquired "file:line")` pairs, sorted and
/// deduplicated.
///
/// `Location::file()` yields workspace-relative paths for workspace code,
/// the same `file:line` site form `obiwan-lint`'s static lock graph keys
/// its sites by — which is what lets
/// [`crate::sync::assert_observed_edges_in_static_graph`] compare the two
/// records with plain string equality.
pub fn observed_edges() -> Vec<(String, String)> {
    with_state(|st| {
        let mut out: Vec<(String, String)> = st
            .edges
            .values()
            .flat_map(HashMap::values)
            .map(|e| {
                (
                    format!("{}:{}", e.held_site.file(), e.held_site.line()),
                    format!("{}:{}", e.acquire_site.file(), e.acquire_site.line()),
                )
            })
            .collect();
        out.sort();
        out.dedup();
        out
    })
}

/// Panics with every recorded violation if any lock-order inversion has been
/// observed. Call at the end of an integration/chaos test.
pub fn assert_no_violations() {
    let found = violations();
    if !found.is_empty() {
        let listing: Vec<String> = found.iter().map(|v| v.message.clone()).collect();
        panic!(
            "{} lock-order violation(s) detected:\n{}",
            listing.len(),
            listing.join("\n")
        );
    }
}

/// A mutex with the `parking_lot` API whose acquisitions feed the
/// lock-order graph.
pub struct Mutex<T: ?Sized> {
    id: AtomicU64,
    inner: parking_lot::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`]; releases its held-set entry on
/// drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock_id: u64,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            id: AtomicU64::new(0),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is free.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let id = assign_id(&self.id);
        let site = Location::caller();
        let inner = self.inner.lock();
        on_acquire(id, site, true);
        MutexGuard { lock_id: id, inner }
    }

    /// Attempts to acquire the mutex without blocking.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let id = assign_id(&self.id);
        let site = Location::caller();
        let inner = self.inner.try_lock()?;
        on_acquire(id, site, false);
        Some(MutexGuard { lock_id: id, inner })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        on_release(self.lock_id);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A reader-writer lock with the `parking_lot` API whose acquisitions feed
/// the lock-order graph. Read and write acquisitions are ordered under the
/// same lock id: a read/write inversion pair can still deadlock, so the
/// distinction does not matter to the detector.
pub struct RwLock<T: ?Sized> {
    id: AtomicU64,
    inner: parking_lot::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock_id: u64,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock_id: u64,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            id: AtomicU64::new(0),
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let id = assign_id(&self.id);
        let site = Location::caller();
        let inner = self.inner.read();
        on_acquire(id, site, true);
        RwLockReadGuard { lock_id: id, inner }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let id = assign_id(&self.id);
        let site = Location::caller();
        let inner = self.inner.write();
        on_acquire(id, site, true);
        RwLockWriteGuard { lock_id: id, inner }
    }

    /// Attempts shared read access without blocking.
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let id = assign_id(&self.id);
        let site = Location::caller();
        let inner = self.inner.try_read()?;
        on_acquire(id, site, false);
        Some(RwLockReadGuard { lock_id: id, inner })
    }

    /// Attempts exclusive write access without blocking.
    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let id = assign_id(&self.id);
        let site = Location::caller();
        let inner = self.inner.try_write()?;
        on_acquire(id, site, false);
        Some(RwLockWriteGuard { lock_id: id, inner })
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            None => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        on_release(self.lock_id);
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        on_release(self.lock_id);
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The global graph is shared across every test in this binary, so tests
    /// never assert "no violations globally"; they assert on violations (or
    /// their absence) involving their own freshly created locks, identified
    /// by call-site line numbers.
    fn violations_mentioning(line: u32) -> Vec<Violation> {
        let needle = format!("{}:{line}:", file!());
        violations()
            .into_iter()
            .filter(|v| v.message.contains(&needle))
            .collect()
    }

    #[test]
    fn nested_consistent_order_is_clean() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        for _ in 0..3 {
            let marker_line = line!() + 1;
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
            assert!(violations_mentioning(marker_line).is_empty());
        }
    }

    #[test]
    fn inversion_is_detected_and_names_both_sites() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));

        let first_line = line!() + 2; // line of the `b.lock()` below
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);

        // Opposite order on another thread, as a real deadlock would need.
        let (a2, b2) = (a.clone(), b.clone());
        let second_line = std::thread::spawn(move || {
            let gb = b2.lock();
            let second_line = line!() + 1;
            let ga = a2.lock();
            drop(ga);
            drop(gb);
            second_line
        })
        .join()
        .expect("inversion thread");

        let found = violations_mentioning(second_line);
        assert_eq!(found.len(), 1, "exactly one violation for the seeded pair");
        let v = &found[0];
        // The report names the cycle-closing site and the reverse-order site.
        assert!(v.site.contains(&format!("{}:{second_line}:", file!())));
        assert!(
            v.conflicting_site
                .contains(&format!("{}:{first_line}:", file!())),
            "conflicting site {} should be line {first_line}",
            v.conflicting_site
        );
    }

    #[test]
    fn transitive_cycle_through_three_locks_is_detected() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        let c = Mutex::new(());

        // Establish a → b and b → c.
        {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
            let gb = b.lock();
            let gc = c.lock();
            drop(gc);
            drop(gb);
        }
        // c → a closes the 3-cycle even though the pair (c, a) was never
        // taken together before.
        let gc = c.lock();
        let marker_line = line!() + 1;
        let ga = a.lock();
        drop(ga);
        drop(gc);

        assert_eq!(violations_mentioning(marker_line).len(), 1);
    }

    #[test]
    fn successful_try_lock_adds_no_edge() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        // b → a order via try_lock success: pushes held entry but no edge.
        let gb = b.lock();
        let ga = a.try_lock().expect("uncontended try_lock");
        drop(ga);
        drop(gb);
        // a → b blocking order afterwards: would report if try_lock had
        // recorded a b → a edge.
        let ga = a.lock();
        let marker_line = line!() + 1;
        let gb = b.lock();
        drop(gb);
        drop(ga);
        assert!(violations_mentioning(marker_line).is_empty());
    }

    #[test]
    fn rwlock_read_write_inversion_is_detected() {
        let a = RwLock::new(0u32);
        let b = RwLock::new(0u32);
        {
            let ga = a.read();
            let gb = b.write();
            drop(gb);
            drop(ga);
        }
        let gb = b.read();
        let marker_line = line!() + 1;
        let ga = a.write();
        drop(ga);
        drop(gb);
        assert_eq!(violations_mentioning(marker_line).len(), 1);
    }

    #[test]
    fn reentrant_reads_are_not_an_inversion() {
        let a = RwLock::new(());
        let marker_line = line!() + 2;
        let g1 = a.read();
        let g2 = a.read();
        drop(g2);
        drop(g1);
        assert!(violations_mentioning(marker_line).is_empty());
    }

    #[test]
    fn guard_drop_unwinds_held_stack() {
        let a = Mutex::new(());
        let b = Mutex::new(());
        // a alone, fully released, then b alone: no a → b edge, so the
        // reverse order later is clean.
        drop(a.lock());
        drop(b.lock());
        let gb = b.lock();
        let marker_line = line!() + 1;
        let ga = a.lock();
        drop(ga);
        drop(gb);
        assert!(violations_mentioning(marker_line).is_empty());
    }

    #[test]
    fn api_parity_with_parking_lot() {
        // The facade swaps these types in for parking_lot's: exercise the
        // full shared surface.
        let mut m = Mutex::new(5);
        *m.get_mut() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(format!("{m:?}"), "Mutex { data: 6 }");
        assert_eq!(Mutex::from(7).into_inner(), 7);
        assert_eq!(*Mutex::<u32>::default().lock(), 0);

        let mut l = RwLock::new(5);
        *l.get_mut() += 1;
        assert_eq!(*l.read(), 6);
        *l.write() = 8;
        assert!(l.try_read().is_some());
        assert!(l.try_write().is_some());
        assert_eq!(format!("{l:?}"), "RwLock { data: 8 }");
        assert_eq!(RwLock::from(7).into_inner(), 7);
        assert_eq!(*RwLock::<u32>::default().read(), 0);

        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }
}
