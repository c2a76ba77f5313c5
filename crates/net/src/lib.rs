//! The network substrate under OBIWAN.
//!
//! The paper evaluated OBIWAN on a 10 Mb/s LAN and motivated it with mobile
//! wide-area networks full of "frequent, lengthy network disconnections".
//! Neither environment is reproducible directly, so this crate provides the
//! closest controllable equivalent:
//!
//! * [`link`] — parametric [`LinkModel`]s (propagation latency, bandwidth,
//!   jitter, loss) and a [`Topology`] of per-pair links with administrative
//!   up/down state (disconnections, partitions).
//! * [`conditions`] — presets: the paper's testbed LAN, modern LAN, Wi-Fi,
//!   GPRS-era cellular, and a free local loopback.
//! * [`transport`] — the [`Transport`] abstraction every upper layer talks
//!   to: synchronous `call` (request/response) and `cast` (one-way).
//! * [`sim`] — [`SimTransport`], a deterministic single-process transport
//!   that charges network physics to a virtual [`Clock`](obiwan_util::Clock).
//! * [`tcp`] — [`TcpTransport`], real loopback TCP sockets with a
//!   per-destination connection pool: the genuinely distributed substrate,
//!   and the one transport whose sites run under real concurrency.
//! * [`mem`] — [`MemTransport`], the name the perf harness gives an ideal
//!   [`SimTransport`] (instant, loss-free links, a clock nothing reads).
//!
//! # Examples
//!
//! ```
//! use obiwan_net::{conditions, SimTransport, Transport, MessageHandler};
//! use obiwan_util::{Clock, ClockMode, SiteId};
//! use bytes::Bytes;
//!
//! struct Echo;
//! impl MessageHandler for Echo {
//!     fn handle(&self, _from: SiteId, frame: Bytes) -> Option<Bytes> {
//!         Some(frame)
//!     }
//! }
//!
//! # fn main() -> obiwan_util::Result<()> {
//! let clock = Clock::new(ClockMode::VirtualOnly);
//! let net = SimTransport::new(clock.clone(), conditions::paper_lan());
//! let s1 = SiteId::new(1);
//! let s2 = SiteId::new(2);
//! net.register(s2, std::sync::Arc::new(Echo));
//! let reply = net.call(s1, s2, Bytes::from_static(b"ping"))?;
//! assert_eq!(&reply[..], b"ping");
//! assert!(clock.virtual_nanos() > 0); // network time was charged
//! # Ok(())
//! # }
//! ```

pub mod conditions;
pub mod link;
pub mod mem;
pub mod sim;
pub mod tcp;
pub mod transport;

pub use link::{LinkModel, LinkState, Topology};
pub use mem::MemTransport;
pub use sim::{ScheduledChange, SimTransport};
pub use tcp::TcpTransport;
pub use transport::{MessageHandler, Transport};
