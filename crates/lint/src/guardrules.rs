//! The three guard rules, as three rows of one table.
//!
//! Each rule says "no guard of kind K is held where boundary B is crossed".
//! The lock graph's walk ([`crate::lockgraph`]) already knows which guards
//! are held at every acquisition and every call of a fn body, so a rule is
//! a [`Row`]: which guards count, and which event is its boundary. The walk
//! asks [`crossed`] at each event and [`finding`] for each row it names.
//!
//! What stays name-based: a lock is *shard-class* when its receiver ends in
//! `.shard(…)`/`.shards[…]`; a call is a transport boundary when its method
//! name is on [`TRANSPORT_CUT`], and durability I/O when it is one of
//! [`LOG_HOOKS`] on any receiver or a raw append/sync/commit on a receiver
//! named `wal`, `storage` or `durable` (a bare `.append(` would flag every
//! `Vec::append` under a shard guard).

use crate::callgraph::{Qualifier, Unit, TRANSPORT_CUT};
use crate::lockgraph::{Hold, Site};
use crate::{
    Diagnostic, RULE_GUARD_ACROSS_TRANSPORT, RULE_HOOK_WITHOUT_FN, RULE_NO_IO_UNDER_SHARD_GUARD,
    RULE_SINGLE_SHARD_GUARD,
};
use std::collections::HashSet;

/// An event of the walk that some row may treat as its boundary.
pub(crate) enum Boundary<'a> {
    /// A call `receiver.name(`.
    Call {
        name: &'a str,
        method: bool,
        receiver: Qualifier,
    },
    /// A shard-class lock being acquired.
    ShardAcquire,
}

pub(crate) struct Row {
    rule: &'static str,
    /// Which held guards the row counts.
    counts: fn(&Hold<'_>, &Site) -> bool,
    is_boundary: fn(&Boundary<'_>) -> bool,
    what: &'static str,
    advice: &'static str,
}

/// `Durable`'s write-through hooks: names unambiguous enough to match on
/// any receiver. Each must name a product fn ([`unmatched_hooks`]).
pub(crate) const LOG_HOOKS: &[&str] = &[
    "log_dirty",
    "log_op",
    "log_put_intents",
    "log_put_abandoned",
    "log_confirm",
    "log_clean",
    "log_client_state",
];
/// The line just below [`LOG_HOOKS`], where a stale entry is reported.
const LOG_HOOKS_END: u32 = line!();

/// `hook-without-fn`: one finding per [`LOG_HOOKS`] name that no product
/// fn (outside test code, under `crates/*/src` or `src/`) has. Calls are
/// matched by these names, so a hook renamed or deleted in the code would
/// otherwise leave its calls unwatched without a word.
pub(crate) fn unmatched_hooks(units: &[Unit]) -> Vec<Diagnostic> {
    let defined: HashSet<&str> = units
        .iter()
        .filter(|u| {
            (u.rel.starts_with("crates/") && u.rel.contains("/src/")) || u.rel.starts_with("src/")
        })
        .flat_map(|u| u.model.fns.iter().filter(|f| !f.in_test))
        .map(|f| f.name.as_str())
        .collect();
    LOG_HOOKS
        .iter()
        .filter(|hook| !defined.contains(*hook))
        .map(|hook| Diagnostic {
            file: file!().to_string(),
            line: LOG_HOOKS_END as usize,
            rule: RULE_HOOK_WITHOUT_FN,
            message: format!(
                "`{hook}` is a durability hook, but no product fn has that name: calls \
                 under a new name go unwatched; rename or drop the entry"
            ),
        })
        .collect()
}

const ROWS: [Row; 3] = [
    // A guard held across a blocking round trip, a one-way send, or a
    // frame handed to arbitrary handler code serializes every peer behind
    // one RPC and is one re-entrant dispatch away from self-deadlock.
    Row {
        rule: RULE_GUARD_ACROSS_TRANSPORT,
        // Any guard of the fn's own. One a callee may hold around a closure
        // is left out: the callback over-approximation lends a closure
        // every lock its callee ever takes, and `retrying(|| transport.call())`
        // would be charged with the bookkeeping `retrying` does afterwards.
        counts: |h, _| !h.lent,
        is_boundary: |b| {
            matches!(b, Boundary::Call { name, method: true, .. } if TRANSPORT_CUT.contains(name))
        },
        what: "transport call",
        advice: "release the guard before the boundary",
    },
    // A WAL append writes to storage and can fsync (group commit); one that
    // never syncs (`append_deferred`) still writes. Storage latency inside a
    // shard critical section stalls every invocation hashing to the stripe.
    Row {
        rule: RULE_NO_IO_UNDER_SHARD_GUARD,
        counts: |_, site| site.shard,
        is_boundary: |b| {
            let Boundary::Call { name, receiver, .. } = b else {
                return false;
            };
            let receiver = match receiver {
                Qualifier::Named(r) => r.as_str(),
                _ => "",
            };
            LOG_HOOKS.contains(name)
                || matches!(
                    (receiver, *name),
                    (
                        "wal",
                        "append" | "append_frames" | "append_batch" | "append_deferred" | "sync"
                            | "commit"
                    )
                        | ("storage", "append" | "sync")
                        | ("durable", "commit")
                )
        },
        what: "durability call",
        advice: "copy the state out, release the stripe, then log",
    },
    // Stripes are leaf locks ordered by index: holding one while taking
    // another inverts the order whenever the two ids hash the other way
    // around. `lock_pair`/`lock_many` sort first, and take their locks as
    // parameters, so their own acquisitions are not shard-class.
    Row {
        rule: RULE_SINGLE_SHARD_GUARD,
        counts: |_, site| site.shard,
        is_boundary: |b| matches!(b, Boundary::ShardAcquire),
        what: "shard guard acquired",
        advice: "shard guards taken one after another, or two in one statement, lock in \
                 textual order, not stripe order; use `lock_pair`/`lock_many` for \
                 multi-shard sections",
    },
];

/// The rows whose boundary `b` is.
pub(crate) fn crossed<'b>(b: &'b Boundary<'_>) -> impl Iterator<Item = &'static Row> + 'b {
    ROWS.iter().filter(move |row| (row.is_boundary)(b))
}

/// `row`'s finding at `file:line`, if one of `held` is a guard it counts.
pub(crate) fn finding(
    row: &Row,
    sites: &[Site],
    file: &str,
    line: u32,
    b: &Boundary<'_>,
    held: &[Hold<'_>],
) -> Option<Diagnostic> {
    let guard = held.iter().find(|h| (row.counts)(h, &sites[h.site]))?;
    let site = &sites[guard.site];
    let at = if site.file == file {
        format!("on line {}", site.line)
    } else {
        format!("at {}:{}", site.file, site.line)
    };
    let guard = match guard.name {
        Some(name) => format!("guard `{name}` (acquired {at})"),
        None if guard.temp => "a guard temporary of the same statement".to_string(),
        None => format!("the guard acquired {at}"),
    };
    let what = match b {
        Boundary::Call { name, receiver, .. } => {
            let receiver = match receiver {
                Qualifier::Named(r) => format!("{r}."),
                Qualifier::SelfRecv => "self.".to_string(),
                Qualifier::None => String::new(),
            };
            format!("{} (`{receiver}{name}(`)", row.what)
        }
        Boundary::ShardAcquire => row.what.to_string(),
    };
    Some(Diagnostic {
        file: file.to_string(),
        line: line as usize,
        rule: row.rule,
        message: format!("{what} while {guard} is held; {}", row.advice),
    })
}
