//! Cluster-oracle suite for the scatter-gather router.
//!
//! The contract: a cluster of N single-shard `iloc-server` nodes
//! behind an `iloc-router` answers **bit-identically** to one server
//! whose in-process [`iloc::core::serve::ShardedEngine`] has N shards
//! — the same queries, the same commit reports (counters, per-shard
//! counts, dirty rectangles, epochs), and the same subscription delta
//! streams, under the same interleaved update/commit schedule. Plus:
//! a node crash mid-commit surfaces as a typed `Unavailable` error and
//! never as a torn epoch. The router scatters the queries of one read
//! pass as a batch, so the burst tests below pin what batching must
//! not change: request order, bit-identity at every epoch, per-query
//! errors, and the core's own frames in their place.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iloc::core::pipeline::{PointRequest, UncertainRequest};
use iloc::core::serve::{shard_of, Update};
use iloc::core::{CipqStrategy, CiuqStrategy, Issuer, RangeSpec};
use iloc::geometry::{Point, Rect};
use iloc::router::{Router, RouterConfig, RouterHandle};
use iloc::server::protocol::{
    self, opcode, CommitTarget, ErrorCode, NotifyCause, Role, WireUpdate,
};
use iloc::server::server::{QueryServer, ServerConfig};
use iloc::server::{Client, ClientError, ServerHandle};
use iloc::uncertainty::{ObjectId, PointObject, UncertainObject, UniformPdf};

/// The deterministic scene the single-node suites use: a 20×20 point
/// grid and a 6×6 grid of uncertain boxes over [0, 1000]².
fn scene() -> (Vec<PointObject>, Vec<UncertainObject>) {
    let points = (0..400u64)
        .map(|k| {
            PointObject::new(
                k,
                Point::new((k % 20) as f64 * 50.0 + 10.0, (k / 20) as f64 * 50.0 + 10.0),
            )
        })
        .collect();
    let uncertain = (0..36u64)
        .map(|k| {
            let c = Point::new((k % 6) as f64 * 160.0 + 80.0, (k / 6) as f64 * 160.0 + 80.0);
            UncertainObject::new(k, UniformPdf::new(Rect::centered(c, 30.0, 30.0)))
        })
        .collect();
    (points, uncertain)
}

struct Cluster {
    /// The nodes' servers — kept alive for the cluster's lifetime.
    _servers: Vec<QueryServer>,
    handles: Vec<Option<ServerHandle>>,
    router: Option<RouterHandle>,
}

impl Cluster {
    /// N single-shard nodes, each seeded with exactly the slice of the
    /// scene the N-shard oracle assigns to the same index — node order
    /// is shard order, so every per-shard observable lines up.
    fn start(n: usize) -> Cluster {
        Cluster::start_with(n, |_| {})
    }

    /// [`Cluster::start`] with the router's config adjusted by `tune`.
    fn start_with(n: usize, tune: impl FnOnce(&mut RouterConfig)) -> Cluster {
        let (points, uncertain) = scene();
        let mut node_points: Vec<Vec<PointObject>> = (0..n).map(|_| Vec::new()).collect();
        let mut node_uncertain: Vec<Vec<UncertainObject>> = (0..n).map(|_| Vec::new()).collect();
        for p in points {
            node_points[shard_of(p.id, n)].push(p);
        }
        for u in uncertain {
            node_uncertain[shard_of(u.id, n)].push(u);
        }
        let mut servers = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for (p, u) in node_points.into_iter().zip(node_uncertain) {
            let server = QueryServer::new(p, u, 1);
            let handle = server
                .start(&ServerConfig {
                    event_loops: 2,
                    ..ServerConfig::loopback()
                })
                .expect("bind node");
            addrs.push(handle.addr());
            servers.push(server);
            handles.push(Some(handle));
        }
        let mut config = RouterConfig::loopback(addrs);
        tune(&mut config);
        let router = Router::start(&config).expect("start router");
        Cluster {
            _servers: servers,
            handles,
            router: Some(router),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router up").addr()
    }

    fn client(&self) -> Client {
        Client::connect(self.addr()).expect("connect router")
    }

    fn crash_node(&mut self, i: usize) {
        self.handles[i].take().expect("node still up").shutdown();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            handle.shutdown();
        }
    }
}

/// The oracle: one server over the full scene with N shards, driven
/// over the wire exactly like the cluster.
fn start_oracle(n: usize) -> (QueryServer, ServerHandle) {
    let (points, uncertain) = scene();
    let server = QueryServer::new(points, uncertain, n);
    let handle = server
        .start(&ServerConfig {
            event_loops: 2,
            ..ServerConfig::loopback()
        })
        .expect("bind oracle");
    (server, handle)
}

fn point_requests(n: usize, salt: u64) -> Vec<PointRequest> {
    (0..n as u64)
        .map(|k| {
            let s = k.wrapping_mul(2654435761).wrapping_add(salt * 97);
            let c = Point::new((s % 900) as f64 + 50.0, (s / 7 % 900) as f64 + 50.0);
            let issuer = Issuer::uniform(Rect::centered(c, 60.0, 60.0));
            if k % 3 == 0 {
                PointRequest::cipq(
                    issuer,
                    RangeSpec::square(90.0),
                    0.2,
                    CipqStrategy::PExpanded,
                )
            } else {
                PointRequest::ipq(issuer, RangeSpec::square(90.0))
            }
        })
        .collect()
}

fn uncertain_requests(n: usize, salt: u64) -> Vec<UncertainRequest> {
    (0..n as u64)
        .map(|k| {
            let s = k.wrapping_mul(40503).wrapping_add(salt * 131);
            let c = Point::new((s % 800) as f64 + 100.0, (s / 11 % 800) as f64 + 100.0);
            let issuer = Issuer::uniform(Rect::centered(c, 80.0, 80.0));
            if k % 2 == 0 {
                UncertainRequest::iuq(issuer, RangeSpec::square(150.0))
            } else {
                UncertainRequest::ciuq(
                    issuer,
                    RangeSpec::square(150.0),
                    0.25,
                    CiuqStrategy::PtiPExpanded,
                )
            }
        })
        .collect()
}

/// The same churn stream the single-node suite commits — arrivals,
/// moves, departures (some of absent ids), and uncertain moves.
fn churn(round: u64, next_id: &mut u64) -> Vec<WireUpdate> {
    let mut updates = Vec::new();
    for j in 0..20u64 {
        let k = round * 20 + j;
        match k % 4 {
            0 => {
                updates.push(WireUpdate::Point(Update::Arrive(PointObject::new(
                    *next_id,
                    Point::new((k * 37 % 1000) as f64, (k * 53 % 1000) as f64),
                ))));
                *next_id += 1;
            }
            1 => updates.push(WireUpdate::Point(Update::Move(PointObject::new(
                k % 400,
                Point::new((k * 71 % 1000) as f64, (k * 29 % 1000) as f64),
            )))),
            2 => updates.push(WireUpdate::Point(Update::Depart(ObjectId(k * 13 % 500)))),
            _ => updates.push(WireUpdate::Uncertain(Update::Move(UncertainObject::new(
                k % 36,
                UniformPdf::new(Rect::centered(
                    Point::new((k * 91 % 900) as f64 + 50.0, (k * 17 % 900) as f64 + 50.0),
                    25.0,
                    25.0,
                )),
            )))),
        }
    }
    updates
}

#[test]
fn cluster_answers_bit_identical_to_sharded_oracle() {
    for n in [2usize, 3] {
        let cluster = Cluster::start(n);
        let (_oracle, oracle_handle) = start_oracle(n);
        let mut via_router = cluster.client();
        let mut via_oracle = Client::connect(oracle_handle.addr()).expect("connect oracle");

        // The handshake identifies the router and reports the
        // cluster-wide shard total.
        let ack = *via_router.hello().expect("handshake ack");
        assert_eq!(ack.role, Role::Router);
        assert_eq!(ack.point_shards as usize, n);
        assert_eq!(ack.uncertain_shards as usize, n);
        assert_eq!(ack.point_epoch, 0);

        let mut next_id = 10_000u64;
        for round in 0..6u64 {
            // Identical batches into both planes; identical accept
            // counts back.
            let updates = churn(round, &mut next_id);
            let accepted_router = via_router.submit(&updates).expect("submit via router");
            let accepted_oracle = via_oracle.submit(&updates).expect("submit via oracle");
            assert_eq!(accepted_router, accepted_oracle, "round {round} accepts");

            // Commit reports are equal in every field: epoch, the four
            // counters, the per-shard apply counts (node order = shard
            // order), and the bitwise dirty rectangle.
            for target in [CommitTarget::Point, CommitTarget::Uncertain] {
                let got = via_router.commit(target).expect("cluster commit");
                let want = via_oracle.commit(target).expect("oracle commit");
                assert_eq!(got, want, "round {round} {target:?} report");
            }

            // Every query class answers bit-identically.
            for (k, request) in point_requests(12, round).iter().enumerate() {
                let got = via_router.point_query(request).expect("router point query");
                let want = via_oracle.point_query(request).expect("oracle point query");
                assert!(got.same_matches(&want), "round {round} point request {k}");
            }
            for (k, request) in uncertain_requests(6, round).iter().enumerate() {
                let got = via_router
                    .uncertain_query(request)
                    .expect("router uncertain query");
                let want = via_oracle
                    .uncertain_query(request)
                    .expect("oracle uncertain query");
                assert!(
                    got.same_matches(&want),
                    "round {round} uncertain request {k}"
                );
            }
        }

        // An empty commit is an epoch no-op on both sides.
        let got = via_router
            .commit(CommitTarget::Point)
            .expect("empty commit");
        let want = via_oracle
            .commit(CommitTarget::Point)
            .expect("empty commit");
        assert_eq!(got, want, "empty commit report");
        assert_eq!(got.epoch, 6);
        assert!(got.per_shard.is_empty());

        // The merged stats agree with the oracle on everything the
        // cluster can know: catalog sizes, per-shard sizes (node order
        // = shard order), epochs — and report per-node health.
        let cluster_stats = via_router.stats().expect("router stats");
        let oracle_stats = via_oracle.stats().expect("oracle stats");
        assert_eq!(cluster_stats.point.epoch, oracle_stats.point.epoch);
        assert_eq!(cluster_stats.point.len, oracle_stats.point.len);
        assert_eq!(
            cluster_stats.point.shard_sizes,
            oracle_stats.point.shard_sizes
        );
        assert_eq!(cluster_stats.uncertain.epoch, oracle_stats.uncertain.epoch);
        assert_eq!(cluster_stats.uncertain.len, oracle_stats.uncertain.len);
        assert_eq!(
            cluster_stats.uncertain.shard_sizes,
            oracle_stats.uncertain.shard_sizes
        );
        assert_eq!(cluster_stats.nodes.len(), n);
        for (i, node) in cluster_stats.nodes.iter().enumerate() {
            assert!(node.connected, "node {i} healthy");
            assert_eq!(node.point_epoch, oracle_stats.point.epoch, "node {i}");
            assert!(node.routed >= node.merged, "node {i} counters");
            assert!(node.merged > 0, "node {i} served requests");
        }
        // The oracle has no nodes behind it.
        assert!(oracle_stats.nodes.is_empty());

        oracle_handle.shutdown();
    }
}

#[test]
fn subscription_delta_streams_compose_identically() {
    let n = 3usize;
    let cluster = Cluster::start(n);
    let (_oracle, oracle_handle) = start_oracle(n);
    let mut sub_router = cluster.client();
    let mut sub_oracle = Client::connect(oracle_handle.addr()).expect("connect oracle sub");
    let mut wr_router = cluster.client();
    let mut wr_oracle = Client::connect(oracle_handle.addr()).expect("connect oracle writer");

    let request_at = |x: f64, y: f64| {
        PointRequest::ipq(
            Issuer::uniform(Rect::centered(Point::new(x, y), 50.0, 50.0)),
            RangeSpec::square(80.0),
        )
    };

    // The initial answers (the base every delta composes on) match.
    let mut request = request_at(260.0, 260.0);
    let (ack_r, base_r) = sub_router
        .subscribe_point(&request, 120.0)
        .expect("subscribe");
    let (ack_o, base_o) = sub_oracle
        .subscribe_point(&request, 120.0)
        .expect("subscribe");
    assert!(base_r.same_matches(&base_o), "initial subscription answer");
    assert!(!base_r.results.is_empty());
    assert_eq!(ack_r.epoch, ack_o.epoch);

    let mut note = Default::default();
    for round in 0..6u64 {
        // An answer-changing commit through both write planes...
        let updates = vec![
            WireUpdate::Point(Update::Move(PointObject::new(
                round * 3,
                Point::new(250.0 + round as f64, 250.0),
            ))),
            WireUpdate::Point(Update::Depart(ObjectId(100 + round))),
            WireUpdate::Point(Update::Arrive(PointObject::new(
                5_000 + round,
                Point::new(270.0, 260.0 + round as f64),
            ))),
        ];
        wr_router.submit(&updates).expect("submit cluster");
        wr_oracle.submit(&updates).expect("submit oracle");
        wr_router
            .commit(CommitTarget::Point)
            .expect("commit cluster");
        wr_oracle
            .commit(CommitTarget::Point)
            .expect("commit oracle");

        // ...pushes the same delta at the same epoch through both.
        let push_r = sub_router
            .poll_notification(Duration::from_secs(5))
            .expect("poll cluster");
        let push_o = sub_oracle
            .poll_notification(Duration::from_secs(5))
            .expect("poll oracle");
        match (&push_r, &push_o) {
            (Some(r), Some(o)) => {
                assert_eq!(r.cause, NotifyCause::Commit, "round {round}");
                assert_eq!(r.epoch, o.epoch, "round {round} epoch");
                assert_eq!(r.delta, o.delta, "round {round} delta");
            }
            (None, None) => {} // both suppressed an empty delta
            other => panic!("round {round}: push mismatch {other:?}"),
        }

        // A tick composes identically on top.
        request = request_at(260.0 + round as f64 * 15.0, 260.0);
        sub_router
            .tick_into(
                CommitTarget::Point,
                ack_r.sub_id,
                request.issuer.pdf(),
                &mut note,
            )
            .expect("tick cluster");
        let tick_r = note.clone();
        sub_oracle
            .tick_into(
                CommitTarget::Point,
                ack_o.sub_id,
                request.issuer.pdf(),
                &mut note,
            )
            .expect("tick oracle");
        assert_eq!(tick_r.delta, note.delta, "round {round} tick delta");
        assert_eq!(tick_r.epoch, note.epoch, "round {round} tick epoch");
    }

    // Unsubscribe acknowledges once, idempotently false after, and
    // silences the stream on both sides.
    assert!(sub_router
        .unsubscribe(CommitTarget::Point, ack_r.sub_id)
        .expect("unsubscribe"));
    assert!(!sub_router
        .unsubscribe(CommitTarget::Point, ack_r.sub_id)
        .expect("re-unsubscribe"));
    wr_router
        .submit(&[WireUpdate::Point(Update::Depart(ObjectId(42)))])
        .expect("submit");
    wr_router.commit(CommitTarget::Point).expect("commit");
    assert!(sub_router
        .poll_notification(Duration::from_millis(300))
        .expect("poll after unsubscribe")
        .is_none());
    // Ticking the dead subscription is the same typed error the
    // single-node server gives.
    match sub_router.tick_into(
        CommitTarget::Point,
        ack_r.sub_id,
        request.issuer.pdf(),
        &mut note,
    ) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, Some(ErrorCode::Malformed)),
        other => panic!("expected typed error, got {other:?}"),
    }
    sub_router.ping().expect("connection unharmed");

    oracle_handle.shutdown();
}

#[test]
fn node_crash_mid_commit_is_a_typed_error_never_a_torn_epoch() {
    let mut cluster = Cluster::start(3);
    let mut client = cluster.client();

    // A first committed batch proves the cluster healthy.
    let mut next_id = 10_000u64;
    client.submit(&churn(0, &mut next_id)).expect("submit");
    client.commit(CommitTarget::Point).expect("first commit");
    client
        .commit(CommitTarget::Uncertain)
        .expect("first commit");
    let epoch_before = client.stats().expect("stats").point.epoch;
    assert_eq!(epoch_before, 1);

    // Updates are routed (some nodes now hold pending state), then a
    // node dies before the commit.
    client.submit(&churn(1, &mut next_id)).expect("submit");
    cluster.crash_node(1);
    match client.commit(CommitTarget::Point) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, Some(ErrorCode::Unavailable), "typed commit failure")
        }
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // The failed commit never published: the connection survives, the
    // epoch is unchanged, and the dead node is visible in the health
    // section. (Node stats come from the router's own state — the
    // probe must not hang on the dead node thanks to the upstream
    // read timeout.)
    client
        .ping()
        .expect("connection survives the failed commit");
    let stats = client.stats().expect("stats after crash");
    assert_eq!(stats.point.epoch, epoch_before, "no torn epoch");
    assert!(!stats.nodes[1].connected, "crashed node reported");
    assert!(stats.nodes[0].connected);
    assert!(stats.nodes[2].connected);

    // Every later operation that needs the poisoned catalog is the
    // same typed error — never a hang, never a partial answer.
    match client.commit(CommitTarget::Point) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, Some(ErrorCode::Unavailable)),
        other => panic!("expected Unavailable, got {other:?}"),
    }
    match client.point_query(&point_requests(1, 0)[0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, Some(ErrorCode::Unavailable)),
        other => panic!("expected Unavailable, got {other:?}"),
    }
    client.ping().expect("connection still alive at the end");
}

#[test]
fn start_against_a_port_nobody_listens_on_fails_without_hanging() {
    // One live node beside a port whose listener is gone: the parallel
    // dial surfaces the refused connect as an error, long before the
    // connect timeout, and the connections that did open are dropped.
    let (_server, handle) = start_oracle(1);
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("ephemeral port");
    let started = std::time::Instant::now();
    match Router::start(&RouterConfig::loopback(vec![handle.addr(), dead])) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionRefused),
        Ok(_) => panic!("a router with an unreachable node started"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "dial took {:?}",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn overflowing_slow_subscriber_is_closed_and_drops_are_counted_by_the_router() {
    // The router twin of the server's push-backpressure contract: a
    // subscriber that stops reading while commits keep changing its
    // answer is CLOSED once its queued pushes outgrow `push_backlog`,
    // every undelivered push is counted in the *router's* stats, and
    // nobody else notices.
    let cluster = Cluster::start_with(2, |config| {
        config.event_loops = 1;
        config.push_backlog = 128 * 1024;
    });
    let addr = cluster.addr();
    let mut writer = cluster.client();
    let mut control = cluster.client();

    // A raw subscriber that never reads past the SUB_ACK.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    let request = PointRequest::ipq(
        Issuer::uniform(Rect::centered(Point::new(260.0, 260.0), 50.0, 50.0)),
        RangeSpec::square(80.0),
    );
    let mut sub = Vec::new();
    protocol::encode_subscribe_point(&mut sub, 120.0, &request).unwrap();
    stalled.write_all(&sub).expect("subscribe");
    let mut len_buf = [0u8; 4];
    stalled.read_exact(&mut len_buf).expect("ack length");
    let mut ack = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    stalled.read_exact(&mut ack).expect("ack frame");
    assert_eq!(ack[1], opcode::SUB_ACK);

    // Every commit flips 4,000 objects in or out of the standing
    // query's qualifying region, so every commit owes the subscriber
    // one ~64 KB NOTIFY. The kernel absorbs a bounded amount (the
    // router's send buffer grows to a few MB — `RouterConfig` has no
    // `SO_SNDBUF` override); after that the router's per-connection
    // queue passes `push_backlog`.
    let churn = |round: u64| -> Vec<WireUpdate> {
        (0..4_000u64)
            .map(|j| {
                let id = 50_000 + j;
                if round.is_multiple_of(2) {
                    WireUpdate::Point(Update::Arrive(PointObject::new(
                        id,
                        Point::new(140.0 + (j % 80) as f64 * 3.0, 160.0 + (j / 80) as f64 * 4.0),
                    )))
                } else {
                    WireUpdate::Point(Update::Depart(ObjectId(id)))
                }
            })
            .collect()
    };
    let mut dropped = 0u64;
    for round in 0..400u64 {
        writer.submit(&churn(round)).expect("submit");
        writer.commit(CommitTarget::Point).expect("commit");
        dropped = control.stats().expect("stats").dropped_pushes;
        if dropped > 0 {
            break;
        }
    }
    assert!(
        dropped > 0,
        "a subscriber that never reads must eventually be closed with its drops counted"
    );

    // What did reach the socket is a clean prefix of the push stream:
    // complete NOTIFY frames with strictly increasing cluster epochs.
    // The last frame may be cut where the router closed.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4_096];
    loop {
        match stalled.read(&mut chunk) {
            Ok(0) => break, // the EOF the subscriber must observe
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
            Err(e) => panic!("reading the closed subscriber: {e}"),
        }
    }
    let mut note = iloc::server::Notification::default();
    let mut at = 0usize;
    let mut prev_epoch = 0u64;
    while bytes.len() - at >= 4 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        if bytes.len() - at - 4 < len {
            break; // cut mid-frame by the close
        }
        let frame = &bytes[at + 4..at + 4 + len];
        assert_eq!(frame[0], protocol::PROTOCOL_VERSION);
        assert_eq!(frame[1], opcode::NOTIFY, "only pushes on this stream");
        protocol::decode_notify_into(&frame[2..], &mut note).expect("complete pushes decode");
        assert!(note.epoch > prev_epoch, "no duplicated or reordered push");
        prev_epoch = note.epoch;
        at += 4 + len;
    }
    assert!(
        prev_epoch > 0,
        "some pushes were delivered before the close"
    );

    // The router is unharmed: its other connections keep serving, and
    // the dead subscriber's standing query was released upstream.
    control.ping().expect("router healthy after the close");
    writer
        .point_query(&request)
        .expect("queries still route after the close");
    let stats = control.stats().expect("stats");
    assert!(stats.nodes.iter().all(|n| n.connected));
}

// -- Batched scatter ----------------------------------------------------

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect raw");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// Reads one whole frame, length prefix included.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    stream.read_exact(&mut frame).expect("frame length");
    let len = u32::from_le_bytes(frame[..].try_into().unwrap()) as usize;
    frame.resize(4 + len, 0);
    stream.read_exact(&mut frame[4..]).expect("frame body");
    frame
}

fn encoded(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::new();
    encode(&mut frame);
    frame
}

fn point_frame(request: &PointRequest) -> Vec<u8> {
    encoded(|f| protocol::encode_point_query(f, request).expect("encode query"))
}

fn is_commit_push(frame: &[u8]) -> bool {
    let mut note = iloc::server::Notification::default();
    frame[5] == opcode::NOTIFY
        && protocol::decode_notify_into(&frame[6..], &mut note).is_ok()
        && note.cause == NotifyCause::Commit
}

/// The opcode that answers request opcode `op`.
fn reply_to(op: u8) -> u8 {
    match op {
        opcode::POINT_QUERY | opcode::UNCERTAIN_QUERY => opcode::ANSWER,
        opcode::UPDATE_BATCH => opcode::UPDATE_ACK,
        opcode::COMMIT => opcode::COMMIT_DONE,
        opcode::STATS => opcode::STATS_REPORT,
        opcode::PING => opcode::PONG,
        opcode::SUBSCRIBE => opcode::SUB_ACK,
        opcode::TICK => opcode::NOTIFY,
        other => panic!("no request opcode {other:#04x} in these bursts"),
    }
}

/// `len` pipelined requests for one connection: all four query
/// classes, with a standing query (id 1 on a fresh front end), its
/// ticks, update batches, commits of both catalogs, PINGs and STATS
/// among them.
fn mixed_burst(len: usize) -> Vec<Vec<u8>> {
    let points = point_requests(len, 11);
    let uncertain = uncertain_requests(len, 11);
    let standing = |k: usize| {
        PointRequest::ipq(
            Issuer::uniform(Rect::centered(
                Point::new(300.0 + k as f64 / 4.0, 300.0),
                50.0,
                50.0,
            )),
            RangeSpec::square(80.0),
        )
    };
    let mut next_id = 20_000u64;
    (0..len)
        .map(|k| {
            encoded(|f| match (k, k % 100) {
                (0, _) => protocol::encode_subscribe_point(f, 120.0, &standing(0)).unwrap(),
                (_, 10) => {
                    protocol::encode_update_batch(f, &churn(k as u64 / 100, &mut next_id)).unwrap()
                }
                (_, 11) => protocol::encode_commit(f, CommitTarget::Point),
                (_, 12) => protocol::encode_commit(f, CommitTarget::Uncertain),
                (_, 40) => {
                    protocol::encode_tick(f, CommitTarget::Point, 1, standing(k).issuer.pdf())
                }
                (_, 25 | 75) => protocol::encode_empty(f, opcode::PING),
                (_, 50) => protocol::encode_empty(f, opcode::STATS),
                _ if k % 2 == 0 => protocol::encode_point_query(f, &points[k / 2]).unwrap(),
                _ => protocol::encode_uncertain_query(f, &uncertain[k / 2]).unwrap(),
            })
        })
        .collect()
}

/// Writes `requests` back to back from another thread and reads one
/// response per request, then a PING barrier. Commit pushes are set
/// apart: a router deposits them and a server pumps them, so they land
/// between different responses — but all ahead of the barrier's PONG.
fn burst(addr: SocketAddr, requests: &[Vec<u8>]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut stream = raw_connect(addr);
    let writer = {
        let (mut stream, bytes) = (stream.try_clone().expect("clone"), requests.concat());
        std::thread::spawn(move || stream.write_all(&bytes).expect("write burst"))
    };
    let (mut responses, mut pushes) = (Vec::new(), Vec::new());
    while responses.len() < requests.len() {
        let frame = read_frame(&mut stream);
        if is_commit_push(&frame) {
            pushes.push(frame);
        } else {
            responses.push(frame);
        }
    }
    writer.join().expect("writer");
    stream
        .write_all(&encoded(|f| protocol::encode_empty(f, opcode::PING)))
        .expect("barrier");
    loop {
        let frame = read_frame(&mut stream);
        if frame[5] == opcode::PONG {
            return (responses, pushes);
        }
        assert!(is_commit_push(&frame), "only pushes ahead of the barrier");
        pushes.push(frame);
    }
}

#[test]
fn burst_of_every_request_kind_answers_in_order_and_bit_identically() {
    let cluster = Cluster::start(2);
    let (_oracle, oracle_handle) = start_oracle(2);
    let requests = mixed_burst(1_000);
    let (got, got_pushes) = burst(cluster.addr(), &requests);
    let (want, want_pushes) = burst(oracle_handle.addr(), &requests);

    let (mut got_stats, mut want_stats) = Default::default();
    let mut answers = 0;
    for (k, ((request, got), want)) in requests.iter().zip(&got).zip(&want).enumerate() {
        assert_eq!(got[5], reply_to(request[5]), "response {k} out of order");
        answers += usize::from(got[5] == opcode::ANSWER);
        if got[5] == opcode::STATS_REPORT {
            // Counters differ between the two front ends; the catalogs
            // they report at this point of the stream do not.
            protocol::decode_stats_report_into(&got[6..], &mut got_stats).unwrap();
            protocol::decode_stats_report_into(&want[6..], &mut want_stats).unwrap();
            assert_eq!(got_stats.point, want_stats.point, "response {k}");
            assert_eq!(got_stats.uncertain, want_stats.uncertain, "response {k}");
        } else {
            assert_eq!(got, want, "response {k} (request {:#04x})", request[5]);
        }
    }
    assert!(answers > 900, "{answers} answers");
    assert!(!got_pushes.is_empty(), "the standing query saw commits");
    assert_eq!(got_pushes, want_pushes, "commit push streams");
    oracle_handle.shutdown();
}

#[test]
fn burst_racing_a_commit_sees_each_answer_wholly_before_or_after_it() {
    let cluster = Cluster::start(2);
    let (_oracle, oracle_handle) = start_oracle(2);
    // Every point moves 13 units east, so every answer changes on both
    // nodes: one node's half from each epoch matches neither epoch.
    let shift: Vec<WireUpdate> = scene()
        .0
        .into_iter()
        .map(|p| {
            let moved = Point::new(p.loc.x + 13.0, p.loc.y);
            WireUpdate::Point(Update::Move(PointObject::new(p.id.0, moved)))
        })
        .collect();
    let queries = point_requests(12, 5);
    let round: Vec<u8> = queries.iter().flat_map(point_frame).collect();
    let mut oracle = Client::connect(oracle_handle.addr()).expect("connect oracle");
    let answers = |oracle: &mut Client| -> Vec<Vec<u8>> {
        queries
            .iter()
            .map(|q| encoded(|f| protocol::encode_answer(f, &oracle.point_query(q).unwrap())))
            .collect()
    };
    let before = answers(&mut oracle);
    oracle.submit(&shift).expect("submit oracle");
    oracle.commit(CommitTarget::Point).expect("commit oracle");
    let after = answers(&mut oracle);
    for k in 0..queries.len() {
        assert_ne!(before[k], after[k], "query {k} must see the commit");
    }

    // Rounds of the same queries stream in until the commit is
    // acknowledged on another connection, then two more.
    let mut writer = cluster.client();
    writer.submit(&shift).expect("submit cluster");
    let mut stream = raw_connect(cluster.addr());
    let committed = Arc::new(AtomicBool::new(false));
    let written = Arc::new(AtomicUsize::new(0));
    let streamer = {
        let mut stream = stream.try_clone().expect("clone");
        let (committed, written) = (Arc::clone(&committed), Arc::clone(&written));
        std::thread::spawn(move || {
            let mut past_commit = 0;
            while past_commit < 2 {
                past_commit += usize::from(committed.load(Ordering::SeqCst));
                stream.write_all(&round).expect("stream a round");
                written.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let (mut read, mut old, mut new) = (0usize, 0usize, 0usize);
    loop {
        if read < written.load(Ordering::SeqCst) {
            for k in 0..queries.len() {
                let answer = read_frame(&mut stream);
                if answer == after[k] {
                    new += 1;
                } else {
                    assert_eq!(answer, before[k], "round {read} query {k}: a torn answer");
                    assert_eq!(
                        new, 0,
                        "round {read} query {k}: the old epoch after the new"
                    );
                    old += 1;
                }
            }
            read += 1;
            if read == 3 {
                writer.commit(CommitTarget::Point).expect("commit cluster");
                committed.store(true, Ordering::SeqCst);
            }
        } else if streamer.is_finished() && read == written.load(Ordering::SeqCst) {
            break;
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    streamer.join().expect("streamer");
    assert!(old >= 3 * queries.len(), "{old} answers before the commit");
    assert!(new >= 2 * queries.len(), "{new} answers after the commit");
    oracle_handle.shutdown();
}

#[test]
fn burst_losing_a_node_fails_each_query_and_the_connection_lives() {
    let mut cluster = Cluster::start(2);
    let mut stream = raw_connect(cluster.addr());
    let half: Vec<u8> = point_requests(16, 2).iter().flat_map(point_frame).collect();
    let ping = encoded(|f| protocol::encode_empty(f, opcode::PING));

    // The first half of the burst meets a healthy cluster...
    stream.write_all(&half).unwrap();
    for k in 0..16 {
        assert_eq!(read_frame(&mut stream)[5], opcode::ANSWER, "query {k}");
    }
    // ...the second, one pass with a PING behind it, a lost node.
    cluster.crash_node(1);
    stream.write_all(&[&half[..], &ping].concat()).unwrap();
    for k in 16..32 {
        let reply = read_frame(&mut stream);
        assert_eq!(
            (reply[5], reply[6]),
            (opcode::ERROR, ErrorCode::Unavailable as u8),
            "query {k}: a typed error, not a hang or a partial answer"
        );
    }
    assert_eq!(
        read_frame(&mut stream)[5],
        opcode::PONG,
        "the connection lives"
    );
    let stats = cluster.client().stats().expect("stats");
    assert!(!stats.nodes[1].connected, "the lost node is reported");
}

#[test]
fn burst_answers_the_cores_own_frames_behind_held_queries() {
    let cluster = Cluster::start(2);
    let (_oracle, oracle_handle) = start_oracle(2);
    let queries: Vec<Vec<u8>> = point_requests(5, 3).iter().map(point_frame).collect();
    let hello = encoded(|f| protocol::encode_hello(f, Role::Client, 0));
    let undelimitable = 1u32.to_le_bytes().to_vec();
    let requests: [&[u8]; 7] = [
        &queries[0],
        &queries[1],
        &queries[2],
        &hello,
        &queries[3],
        &queries[4],
        &undelimitable,
    ];
    let expected = [
        opcode::ANSWER,
        opcode::ANSWER,
        opcode::ANSWER,
        opcode::HELLO_ACK,
        opcode::ANSWER,
        opcode::ANSWER,
        opcode::ERROR,
    ];
    let replies = |addr: SocketAddr| {
        let mut stream = raw_connect(addr);
        stream.write_all(&requests.concat()).unwrap();
        let replies: Vec<Vec<u8>> = expected.iter().map(|_| read_frame(&mut stream)).collect();
        assert!(
            matches!(stream.read(&mut [0u8; 1]), Ok(0) | Err(_)),
            "closed after the refusal"
        );
        replies
    };
    let (got, want) = (replies(cluster.addr()), replies(oracle_handle.addr()));
    for (k, op) in expected.into_iter().enumerate() {
        assert_eq!(got[k][5], op, "reply {k}");
        if op == opcode::ANSWER {
            assert_eq!(got[k], want[k], "reply {k}");
        }
    }
    assert_eq!(got[6][6], ErrorCode::TooLarge as u8);
    oracle_handle.shutdown();
}
