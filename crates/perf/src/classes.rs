//! The benchmark's own replicable classes.
//!
//! They are declared here, not borrowed from `obiwan_core::demo`, so the
//! benchmark keeps measuring the same objects when the demo module is
//! removed or changed.

use bytes::Bytes;
use obiwan_core::{obi_class, ClassRegistry, ObiValue, ObjRef};

obi_class! {
    /// A list node with a sized opaque payload (the paper's Fig 5 object).
    pub class PerfNode {
        fields {
            index: i64,
            payload: Bytes,
            next: Option<ObjRef>,
        }
        methods {
            /// Reads the node and returns one packed word, so a walk can
            /// verify every node it visits without a second invocation:
            /// `next_local << 32 | index << 16 | first_byte << 8 | last_byte`
            /// (`next_local` is 0 at the tail; `index` must fit 16 bits).
            fn touch(this, _ctx, _args) {
                let first = this.payload.first().copied().unwrap_or(0) as i64;
                let last = this.payload.last().copied().unwrap_or(0) as i64;
                let next = this.next.map_or(0, |n| n.id().local() as i64);
                Ok(ObiValue::I64(next << 32 | (this.index & 0xffff) << 16 | first << 8 | last))
            }
            /// The node's index.
            fn index(this, _ctx, _args) {
                Ok(ObiValue::I64(this.index))
            }
        }
        mutating {
            /// Overwrites the index (the offline workload's write).
            fn set_index(this, _ctx, args) {
                this.index = args.as_i64().ok_or_else(|| {
                    obiwan_core::ObiError::BadArguments("set_index expects i64".into())
                })?;
                Ok(ObiValue::Null)
            }
        }
    }
}

obi_class! {
    /// A counter; the RPC workloads' write target.
    pub class PerfCounter {
        fields {
            count: i64,
        }
        methods {
            /// Reads the count.
            fn read(this, _ctx, _args) {
                Ok(ObiValue::I64(this.count))
            }
        }
        mutating {
            /// Adds one and returns the new count.
            fn incr(this, _ctx, _args) {
                this.count += 1;
                Ok(ObiValue::I64(this.count))
            }
        }
    }
}

/// A registry that knows both classes.
pub fn registry() -> ClassRegistry {
    let registry = ClassRegistry::new();
    PerfNode::register(&registry);
    PerfCounter::register(&registry);
    registry
}

/// What [`PerfNode`]'s `touch` returns, unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touched {
    pub next_local: u64,
    pub index: i64,
    pub first: u8,
    pub last: u8,
}

impl Touched {
    pub fn unpack(word: i64) -> Touched {
        Touched {
            next_local: (word >> 32) as u64,
            index: (word >> 16) & 0xffff,
            first: (word >> 8) as u8,
            last: word as u8,
        }
    }
}
