//! The system under test, hosted in this process on loopback: one
//! `QueryServer`, or a `Router` in front of single-shard nodes. Also
//! the oracle, which reads the very engines the servers serve.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use iloc_core::durable::FsyncPolicy;
use iloc_core::serve::shard_of;
use iloc_core::{merge_partials_into, QueryAnswer};
use iloc_router::{Router, RouterConfig, RouterHandle};
use iloc_server::server::{DurabilityOptions, QueryServer, ServerConfig, ServerHandle};
use iloc_uncertainty::{PointObject, UncertainObject};

use crate::inputs::Request;
use crate::spec::Spec;

pub struct System {
    /// Where clients connect: the server, or the router.
    pub addr: SocketAddr,
    // Field order is drop order: the router goes before its nodes.
    router: Option<RouterHandle>,
    nodes: Vec<(QueryServer, ServerHandle)>,
    store: Option<PathBuf>,
}

/// A directory under `home/scratch` no other run can have left behind
/// or be using: stores live there while a run needs them.
pub fn scratch_dir(home: &Path, spec: &Spec, tag: &str) -> PathBuf {
    home.join("scratch")
        .join(format!("{}-{}-{tag}", spec.name, std::process::id()))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        event_loops: 1,
        ..ServerConfig::loopback()
    }
}

/// A router with one event loop in front of `nodes`.
fn start_router(nodes: Vec<SocketAddr>) -> io::Result<RouterHandle> {
    Router::start(&RouterConfig {
        event_loops: 1,
        ..RouterConfig::loopback(nodes)
    })
}

/// Splits both catalogs by the cluster's id hash; node order is shard
/// order.
fn partition(
    points: Vec<PointObject>,
    uncertain: Vec<UncertainObject>,
    n: usize,
) -> Vec<(Vec<PointObject>, Vec<UncertainObject>)> {
    let mut parts: Vec<(Vec<PointObject>, Vec<UncertainObject>)> =
        (0..n).map(|_| (Vec::new(), Vec::new())).collect();
    for o in points {
        parts[shard_of(o.id, n)].0.push(o);
    }
    for o in uncertain {
        parts[shard_of(o.id, n)].1.push(o);
    }
    parts
}

impl System {
    /// Builds the catalogs' indexes, opens the store when the workload
    /// is durable, and starts listening. `store` must not exist yet.
    pub fn start(
        spec: &Spec,
        points: Vec<PointObject>,
        uncertain: Vec<UncertainObject>,
        store: &Path,
    ) -> io::Result<System> {
        let mut nodes = Vec::new();
        let mut kept_store = None;
        if spec.nodes == 0 {
            let server = if spec.checkpoint_every > 0 {
                std::fs::create_dir_all(store)?;
                kept_store = Some(store.to_path_buf());
                let options = DurabilityOptions {
                    data_dir: store.to_path_buf(),
                    fsync: FsyncPolicy::Always,
                    checkpoint_every: spec.checkpoint_every,
                };
                QueryServer::open(points, uncertain, spec.shards, &options)
                    .map_err(|e| io::Error::other(format!("open store: {e}")))?
                    .0
            } else {
                QueryServer::new(points, uncertain, spec.shards)
            };
            let handle = server.start(&server_config())?;
            nodes.push((server, handle));
        } else {
            for (p, u) in partition(points, uncertain, spec.nodes) {
                let server = QueryServer::new(p, u, spec.shards);
                let handle = server.start(&server_config())?;
                nodes.push((server, handle));
            }
        }
        let (router, addr) = if spec.nodes == 0 {
            (None, nodes[0].1.addr())
        } else {
            let router = start_router(nodes.iter().map(|(_, h)| h.addr()).collect())?;
            let addr = router.addr();
            (Some(router), addr)
        };
        Ok(System {
            addr,
            router,
            nodes,
            store: kept_store,
        })
    }

    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|(_, h)| h.addr()).collect()
    }

    pub fn servers(&self) -> impl Iterator<Item = &QueryServer> {
        self.nodes.iter().map(|(s, _)| s)
    }

    pub fn is_cluster(&self) -> bool {
        self.router.is_some()
    }

    /// The point catalog's epoch (the same on every node once a commit
    /// has been acknowledged).
    pub fn point_epoch(&self) -> u64 {
        self.nodes[0].0.engines().point.epoch()
    }

    /// The oracle: `Snapshot::execute_one` on the served engines. With
    /// several nodes, each node's engine is one shard of the cluster's
    /// catalog (the same `shard_of` split), so their answers merged in
    /// id order are what a `ShardedEngine` with that many shards
    /// built from the same data answers.
    pub fn oracle(&self, request: &Request, out: &mut QueryAnswer) {
        let parts: Vec<QueryAnswer> = self
            .nodes
            .iter()
            .map(|(server, _)| {
                let engines = server.engines();
                match request {
                    Request::Point(r) => engines.point.snapshot().execute_one(r),
                    Request::Uncertain(r) => engines.uncertain.snapshot().execute_one(r),
                }
            })
            .collect();
        merge_partials_into(out, parts.iter().map(|p| p.results.as_slice()));
    }

    /// Stops every thread and removes the store.
    pub fn stop(self) -> io::Result<()> {
        let System {
            router,
            nodes,
            store,
            ..
        } = self;
        drop(router);
        drop(nodes);
        if let Some(dir) = store {
            std::fs::remove_dir_all(dir)?;
        }
        Ok(())
    }
}
