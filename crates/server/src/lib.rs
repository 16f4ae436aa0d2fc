//! # iloc-server
//!
//! The network serving layer: a compact binary **wire protocol**, an
//! event-driven **TCP query server** over the sharded serving engine,
//! and a sync **client** — the layer that carries the workspace's
//! zero-allocation, snapshot-consistent query guarantees across a
//! socket.
//!
//! The paper evaluates imprecise location-dependent queries as a
//! library; a deployed location service answers them for remote
//! issuers — fleets of long-lived, mostly-idle standing subscribers.
//! This crate adds that front end **with no dependencies beyond
//! `std`** (the build environment has no crates.io access, so no
//! tokio/mio): one listener thread accepts connections and hands them
//! to a small pool of event-loop threads, each multiplexing thousands
//! of non-blocking connections through one epoll wait ([`poll`]); each
//! loop applies its own connections' updates and commits under the
//! catalog's lock, preserving the [`iloc_core::serve`]
//! snapshot-consistency invariant end to end. Linux is the supported
//! platform.
//!
//! ## The five pieces
//!
//! * [`protocol`] — versioned, length-prefixed frames encoding the
//!   paper's four query types (IPQ / C-IPQ / IUQ / C-IUQ), catalog
//!   update batches (arrive / depart / move), commits, a stats probe,
//!   the **continuous-query subscription lifecycle** (SUBSCRIBE /
//!   TICK / UNSUBSCRIBE with pushed NOTIFY delta frames), and explicit
//!   error frames. See `docs/PROTOCOL.md` for the full byte-level
//!   spec.
//! * [`poll`] — the std-only readiness substrate: an epoll wrapper
//!   over `extern "C"` libc symbols (std links libc; no crate
//!   needed), plus a `UnixStream`-pair waker and rlimit/sockopt
//!   helpers. The only module in the crate allowed `unsafe`.
//! * [`conn`] — the connection core: listener, event loops,
//!   per-connection frame reassembly, buffered output and push queues
//!   with **explicit backpressure**, idle reaping — generic over a
//!   [`conn::Handler`]. The one socket state machine; `iloc-router`
//!   runs on it too.
//! * [`server`] — [`server::QueryServer`]: owns a
//!   [`iloc_core::serve::ShardedEngine`] per catalog (point and
//!   uncertain) and serves them as a handler over the core; every
//!   event loop holds a long-lived [`iloc_core::serve::ShardServer`],
//!   so a **steady-state query performs zero heap
//!   allocations** from the moment the request bytes arrive to the
//!   moment the answer bytes are written back. Reads run against the
//!   loop's pinned epoch snapshot; updates and commits run on the
//!   loop too, serialized by the catalog's lock.
//! * [`client`] — [`client::Client`]: sync, connection-reusing, with a
//!   windowed **pipelined batch mode**; used by the loopback
//!   integration tests and by the `loadgen` scenario in `iloc-bench`.
//!
//! ## Quickstart
//!
//! ```
//! use iloc_core::pipeline::PointRequest;
//! use iloc_core::{Issuer, RangeSpec};
//! use iloc_geometry::{Point, Rect};
//! use iloc_server::client::Client;
//! use iloc_server::server::{QueryServer, ServerConfig};
//! use iloc_uncertainty::PointObject;
//!
//! let objects: Vec<PointObject> = (0..100)
//!     .map(|k| PointObject::new(k as u64, Point::new(k as f64 * 10.0, 500.0)))
//!     .collect();
//! let server = QueryServer::new(objects, Vec::new(), 4);
//! let handle = server.start(&ServerConfig::loopback()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let issuer = Issuer::uniform(Rect::centered(Point::new(500.0, 500.0), 50.0, 50.0));
//! let answer = client
//!     .point_query(&PointRequest::ipq(issuer, RangeSpec::square(80.0)))
//!     .unwrap();
//! assert!(!answer.results.is_empty());
//!
//! drop(client);
//! handle.shutdown();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("iloc-server supports Linux only: its event loops run on epoll");

pub mod alloc_count;
pub mod client;
pub mod conn;
pub mod poll;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    CommitTarget, HelloAck, NodeHealth, Notification, NotifyCause, Role, StatsReport, WireError,
    WireUpdate, PROTOCOL_VERSION,
};
pub use server::{QueryServer, ServerConfig, ServerHandle, MAX_SUBSCRIPTIONS};
