//! The RMI substitute under OBIWAN.
//!
//! The original platform sat on Java RMI: stubs, skeletons and a name
//! server. This crate rebuilds that substrate over
//! [`obiwan_net::Transport`]:
//!
//! * [`remote_ref`] — [`RemoteRef`], a location-carrying object reference
//!   (the role of an RMI stub pointing at a `ProxyIn`).
//! * [`service`] — [`RmiService`], the skeleton-side dispatch interface a
//!   site implements to receive invocations, `get`s, `put`s, name-server
//!   operations and consistency traffic.
//! * [`server`] — [`RmiServer`], the message pump decoding frames into
//!   [`RmiService`] calls and encoding the replies.
//! * [`client`] — [`RmiClient`], the stub-side API issuing requests and
//!   correlating replies.
//! * [`registry`] — [`NameServer`], the name service where exported objects
//!   (the paper's `AProxyIn`) are registered and looked up.
//! * [`fault`] — the fault-tolerance layer: server-side [`ReplyCache`]
//!   giving retries exactly-once effect, client-side [`RetryPolicy`] /
//!   [`Deadline`] budgets with jittered backoff, and a per-peer
//!   [`CircuitBreaker`] that fast-fails calls to unreachable sites.
//!
//! # Examples
//!
//! ```
//! use obiwan_net::{conditions, SimTransport, Transport};
//! use obiwan_rmi::{NameServer, NameServerService, RmiClient, RmiServer};
//! use obiwan_util::{Clock, ClockMode, CostModel, ObjId, SiteId};
//! use std::sync::Arc;
//!
//! # fn main() -> obiwan_util::Result<()> {
//! let clock = Clock::new(ClockMode::VirtualOnly);
//! let net = Arc::new(SimTransport::new(clock.clone(), conditions::paper_lan()));
//!
//! // Site 0 hosts the name server.
//! let ns_site = SiteId::new(0);
//! let ns = Arc::new(NameServerService::new(NameServer::new()));
//! net.register(ns_site, Arc::new(RmiServer::new(ns)));
//!
//! // Site 1 binds and looks up a name.
//! let client = RmiClient::new(
//!     SiteId::new(1),
//!     net.clone(),
//!     clock.clone(),
//!     CostModel::paper_testbed(),
//! );
//! let obj = ObjId::new(SiteId::new(1), 7);
//! client.bind(ns_site, "root", obj)?;
//! assert_eq!(client.lookup(ns_site, "root")?.id(), obj);
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod fault;
pub mod registry;
pub mod remote_ref;
pub mod server;
pub mod service;

pub use client::RmiClient;
pub use fault::{
    BreakerConfig, BreakerState, CircuitBreaker, Deadline, HorizonTracker, ReplyCache,
    RetryPolicy,
};
pub use registry::{NameServer, NameServerService};
pub use remote_ref::RemoteRef;
pub use server::RmiServer;
pub use service::RmiService;
