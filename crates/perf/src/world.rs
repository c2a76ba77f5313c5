//! The world every workload runs in: one shared `TcpTransport` on loopback,
//! the name server on site 0, the real clock and nothing modelled.

use crate::classes;
use crate::trace::{FrameTap, TracedTransport, Tracer};
use obiwan_core::{ClassRegistry, ObiProcess};
use obiwan_net::{TcpTransport, Transport};
use obiwan_rmi::{NameServer, NameServerService, RmiServer};
use obiwan_util::{Clock, ClockMode, CostModel, SiteId};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAME_SERVER: SiteId = SiteId::new(0);
pub const PROVIDER: SiteId = SiteId::new(1);

pub struct World {
    /// The real transport, for its byte counters and `disconnect`.
    pub tcp: Arc<TcpTransport>,
    /// What the processes talk through: `tcp`, decorated in a traced run.
    pub net: Arc<dyn Transport>,
    clock: Clock,
    registry: ClassRegistry,
}

impl World {
    /// `tracing` carries the tracer and frame tap of a traced run.
    pub fn new(tracing: Option<(Arc<Tracer>, FrameTap)>) -> World {
        let tcp = Arc::new(TcpTransport::new());
        let net: Arc<dyn Transport> = match tracing {
            Some((tracer, tap)) => Arc::new(TracedTransport::new(tcp.clone(), tracer, tap)),
            None => tcp.clone(),
        };
        net.register(
            NAME_SERVER,
            Arc::new(RmiServer::new(Arc::new(NameServerService::new(
                NameServer::new(),
            )))),
        );
        World {
            tcp,
            net,
            clock: Clock::new(ClockMode::Hybrid),
            registry: classes::registry(),
        }
    }

    /// Creates the process of `site` and registers its handler. Calling it
    /// again for the same site replaces the handler (a restart).
    pub fn process(&self, site: SiteId) -> ObiProcess {
        let process = ObiProcess::new(
            site,
            self.net.clone(),
            self.clock.clone(),
            CostModel::free(),
            self.registry.clone(),
            NAME_SERVER,
        );
        self.net.register(site, process.message_handler());
        process
    }

    /// Request plus reply bytes the transport has carried so far, counted
    /// at both ends. A server thread counts a frame a moment after the
    /// client has moved on, so this waits until both ends agree; call it
    /// only when no call is in flight.
    pub fn wire_bytes(&self) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let m = self.tcp.metrics().snapshot();
            if m.bytes_sent == m.bytes_received || Instant::now() > deadline {
                return m.bytes_sent + m.bytes_received;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.tcp.shutdown();
    }
}
