//! # Paper-to-code map
//!
//! A reading companion: every mechanism, interface and term in the paper,
//! and where it lives in this codebase. No code here — only the map.
//!
//! ## §2 Architecture (Figure 1)
//!
//! | Paper | Here |
//! |---|---|
//! | site S1 / S2, "processes run; objects exist inside processes" | [`ObiProcess`](crate::ObiProcess), one per [`SiteId`](obiwan_util::SiteId) |
//! | object `A`, `B`, `C` written by the programmer | any [`ObiObject`](crate::ObiObject), usually via [`obi_class!`](crate::obi_class) (see [`demo`](crate::demo)) |
//! | replica `A'`, `B'`, `C'` | a live slot with [`ReplicaKind::Replica`](crate::ReplicaKind) metadata |
//! | `AProxyIn` "registered in a name server" | [`ObiProcess::export`] (roots the object) + the world's [`NameServer`](obiwan_rmi::NameServer) |
//! | `AProxyIn` answering `get`/`put` for its object | no per-object entry: the providing process's one service endpoint (`process/serve.rs`) answers for every object it masters |
//! | `AProxyIn`'s consistency subscribers | a [`ProxyIn`](crate::proxy::ProxyIn) in the process's `subscriptions` table, made by the first `Subscribe` for the object; an object no replica subscribed to has none |
//! | remote reference to `AProxyIn` | [`RemoteRef`](obiwan_rmi::RemoteRef), from [`ObiProcess::lookup`] |
//! | `BProxyOut` standing in for `B` | a [`ProxyOut`](crate::proxy::ProxyOut) slot in the [`ShardedSpace`](crate::ShardedSpace) |
//! | stubs and skeletons "created by the underlying virtual machine" | [`RmiClient`](obiwan_rmi::RmiClient) / [`RmiServer`](obiwan_rmi::RmiServer) over a [`Transport`](obiwan_net::Transport) |
//!
//! ## §2 Interfaces (Figure 1 sidebar, Figure 3)
//!
//! | Paper interface | Here |
//! |---|---|
//! | `IProvide::get(mode)` | [`ObiProcess::get`] with a [`ReplicationMode`](crate::ReplicationMode) |
//! | `IProvide::put(Object)` | [`ObiProcess::put`], or [`ObiProcess::put_cluster`] for a cluster (§4.3: updated as a whole); both are `ObiProcess::put_many`, the one write-back path |
//! | `IProvideRemote` (remote-capable `IProvide`) | the `GetRequest`/`PutRequest` wire messages ([`obiwan_wire::Message`]) |
//! | `IDemand::setProvider` | the `provider` field of [`ProxyOut`](crate::proxy::ProxyOut) and replica metadata |
//! | `IDemand::setDemander` | implicit: handles resolve through the space, so the demander needs no back-pointer |
//! | `IDemandee::demand()` | `demand_install` in `process/demand.rs`, the one fetch-and-install path every fault, `get`, `refresh` and prefetch goes through, over [`RmiClient::demand`](obiwan_rmi::RmiClient::demand) |
//! | `IfA`/`IfB`/`IfC` business interfaces | the method set declared in an [`obi_class!`](crate::obi_class) block |
//! | `updateMember(replica, member)` swizzle | slot replacement in the [`ShardedSpace`](crate::ShardedSpace): the same [`ObjRef`](crate::ObjRef) now resolves to the replica |
//!
//! ## §2.1 / §2.2 Mechanisms
//!
//! | Paper | Here |
//! |---|---|
//! | run-time choice of RMI vs LMI | [`ObiProcess::invoke_rmi`] vs [`ObiProcess::invoke`]; packaged as a policy in [`AdaptiveInvoker`](../obiwan_mobility/adaptive/struct.AdaptiveInvoker.html) |
//! | object fault detection and resolution | `Resolution::Proxy` → demand → materialize → swizzle, inside [`ObiProcess::invoke`] |
//! | "further invocations … normal direct invocations" | post-swizzle handles resolve straight to the replica slot |
//! | proxy-out reclaimed by the garbage collector | [`ObiProcess::collect_garbage`] (mark-and-sweep over the handle graph) |
//! | incremental vs transitive-closure trade-off | [`ReplicationMode::Incremental`](crate::ReplicationMode) vs [`ReplicationMode::TransitiveClosure`](crate::ReplicationMode) |
//! | background pre-fetching footnote | [`ObiProcess::prefetch`] |
//! | info-appliances with limited memory | [`ObiProcess::set_replica_budget`] (LRU eviction back to proxy-outs) |
//! | consistency "left to the programmer", hook libraries | [`ConsistencyHook`](crate::ConsistencyHook) + the `obiwan-consistency` crate |
//!
//! ## §3 Implementation
//!
//! | Paper | Here |
//! |---|---|
//! | `obicomp` source augmentation | the [`obi_class!`](crate::obi_class) macro |
//! | Java reflection for proxy generation | compile-time macro expansion (Rust has no reflection) |
//! | porting legacy / RMI applications (§3.2) | `examples/porting_legacy.rs` |
//! | Java serialization | the `obiwan-wire` value model and codec |
//!
//! ## §4 Evaluation
//!
//! | Paper artifact | Here |
//! |---|---|
//! | LMI = 2 µs, RMI = 2.8 ms (§4.1) | `figures -- e1`; calibrated in [`CostModel::paper_testbed`](obiwan_util::CostModel::paper_testbed) |
//! | Figure 4 | `figures -- fig4` |
//! | Figure 5 | `figures -- fig5` |
//! | Figure 6 | `figures -- fig6` |
//! | the §4 bullet conclusions | `figures -- verify` (13 programmatic checks) |
//!
//! [`ObiProcess::export`]: crate::ObiProcess::export
//! [`ObiProcess::lookup`]: crate::ObiProcess::lookup
//! [`ObiProcess::get`]: crate::ObiProcess::get
//! [`ObiProcess::put`]: crate::ObiProcess::put
//! [`ObiProcess::put_cluster`]: crate::ObiProcess::put_cluster
//! [`ObiProcess::invoke`]: crate::ObiProcess::invoke
//! [`ObiProcess::invoke_rmi`]: crate::ObiProcess::invoke_rmi
//! [`ObiProcess::collect_garbage`]: crate::ObiProcess::collect_garbage
//! [`ObiProcess::prefetch`]: crate::ObiProcess::prefetch
//! [`ObiProcess::set_replica_budget`]: crate::ObiProcess::set_replica_budget
