//! `obiwan-perf`: the real-clock end-to-end benchmark and per-layer cost
//! ledger. See `README.md` beside this crate.

pub mod alloc;
pub mod cal;
pub mod check;
pub mod classes;
pub mod hist;
pub mod host;
pub mod json;
pub mod ledger;
pub mod offline;
pub mod rpc;
pub mod run;
pub mod trace;
pub mod walk;
pub mod workload;
pub mod world;
