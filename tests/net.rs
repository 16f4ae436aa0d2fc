//! Loopback integration suite for the network serving layer.
//!
//! The contract under test: an answer obtained **over the wire** is
//! bit-identical ([`QueryAnswer::same_matches`]) to the answer the
//! in-process engine gives for the same request against the same
//! epoch — under concurrency, under an interleaved update/commit
//! stream, and regardless of pipelining. Plus: malformed and truncated
//! frames are rejected with error frames (never a crash) and do not
//! disturb other connections — the framing half of that against both
//! front ends of the connection core, server and router.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use iloc::core::pipeline::{PointRequest, UncertainRequest};
use iloc::core::serve::Update;
use iloc::core::{CipqStrategy, CiuqStrategy, Issuer, RangeSpec};
use iloc::geometry::{Point, Rect};
use iloc::router::{Router, RouterConfig};
use iloc::server::protocol::{self, opcode, CommitTarget, ErrorCode, WireUpdate};
use iloc::server::server::{QueryServer, ServerConfig};
use iloc::server::Client;
use iloc::uncertainty::{ObjectId, PointObject, UncertainObject, UniformPdf};

/// A deterministic little scene: a 20×20 point grid and a 6×6 grid of
/// uncertain boxes, both covering [0, 1000]².
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

fn start_server(shards: usize, event_loops: usize) -> (QueryServer, iloc::server::ServerHandle) {
    let (points, uncertain) = scene();
    let server = QueryServer::new(points, uncertain, shards);
    let handle = server
        .start(&ServerConfig {
            event_loops,
            ..ServerConfig::loopback()
        })
        .expect("bind loopback");
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

#[test]
fn concurrent_clients_match_in_process_execution() {
    let (server, handle) = start_server(4, 6);
    let engines = server.engines();
    let addr = handle.addr();

    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let engines = Arc::clone(&engines);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let point_snapshot = engines.point.snapshot();
                let uncertain_snapshot = engines.uncertain.snapshot();
                for (k, request) in point_requests(24, c).iter().enumerate() {
                    let got = client.query(request).expect("point query");
                    let want = point_snapshot.execute_one(request);
                    assert!(got.same_matches(&want), "client {c} point request {k}");
                }
                for (k, request) in uncertain_requests(12, c).iter().enumerate() {
                    let got = client.query(request).expect("uncertain query");
                    let want = uncertain_snapshot.execute_one(request);
                    assert!(got.same_matches(&want), "client {c} uncertain request {k}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    handle.shutdown();
}

#[test]
fn many_multiplexed_connections_match_in_process_execution() {
    // Far more connections than event loops: a single loop serves
    // dozens of interleaved frame streams, and every answer must still
    // be bit-identical to in-process execution. With the old
    // thread-per-connection server this shape would have parked 24
    // threads; here 2 loops multiplex all of them.
    let (server, handle) = start_server(2, 2);
    let engines = server.engines();
    let addr = handle.addr();

    let clients: Vec<_> = (0..24u64)
        .map(|c| {
            let engines = Arc::clone(&engines);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let snapshot = engines.point.snapshot();
                for (k, request) in point_requests(8, c).iter().enumerate() {
                    let got = client.query(request).expect("point query");
                    let want = snapshot.execute_one(request);
                    assert!(got.same_matches(&want), "client {c} request {k}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    handle.shutdown();
}

#[test]
fn pipelined_batch_matches_sequential_calls() {
    let (server, handle) = start_server(2, 2);
    let engines = server.engines();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let requests = point_requests(100, 9);
    let mut batched = Vec::new();
    client
        .query_batch_into(&requests, &mut batched, 16)
        .expect("batch");
    assert_eq!(batched.len(), requests.len());
    let snapshot = engines.point.snapshot();
    for (k, (request, got)) in requests.iter().zip(&batched).enumerate() {
        assert!(
            got.same_matches(&snapshot.execute_one(request)),
            "request {k}"
        );
        assert!(
            got.same_matches(&client.query(request).unwrap()),
            "request {k} vs one-shot"
        );
    }
    handle.shutdown();
}

#[test]
fn interleaved_updates_and_commits_stay_bit_identical() {
    let (server, handle) = start_server(3, 4);
    let engines = server.engines();
    let mut writer = Client::connect(handle.addr()).expect("connect writer");
    let mut reader = Client::connect(handle.addr()).expect("connect reader");

    let requests = point_requests(12, 3);
    let mut next_id = 10_000u64;
    for round in 0..8u64 {
        // A batch of arrivals, moves and departures...
        let mut updates = Vec::new();
        for j in 0..20u64 {
            let k = round * 20 + j;
            match k % 4 {
                0 => {
                    updates.push(WireUpdate::Point(Update::Arrive(PointObject::new(
                        next_id,
                        Point::new((k * 37 % 1000) as f64, (k * 53 % 1000) as f64),
                    ))));
                    next_id += 1;
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
        let accepted = writer.submit(&updates).expect("submit");
        assert_eq!(accepted as usize, updates.len());

        // ...committed as one epoch per catalog.
        let report = writer.commit(CommitTarget::Point).expect("commit point");
        assert_eq!(report.epoch, round + 1);
        writer
            .commit(CommitTarget::Uncertain)
            .expect("commit uncertain");

        // Queries through a *different* connection (hence a different
        // worker, which must rebind to the new epoch) match in-process
        // execution on the same engines.
        let point_snapshot = engines.point.snapshot();
        assert_eq!(point_snapshot.epoch(), round + 1);
        for (k, request) in requests.iter().enumerate() {
            let got = reader.query(request).expect("read-after-commit");
            assert!(
                got.same_matches(&point_snapshot.execute_one(request)),
                "round {round} request {k}"
            );
        }
        let uncertain_snapshot = engines.uncertain.snapshot();
        for (k, request) in uncertain_requests(6, round).iter().enumerate() {
            let got = reader.query(request).expect("uncertain");
            assert!(
                got.same_matches(&uncertain_snapshot.execute_one(request)),
                "round {round} uncertain {k}"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn an_idle_loop_lets_go_of_the_epoch_a_commit_replaced() {
    // Sweeps on cadence are an hour apart, so only the committing
    // loop's post-commit wake can start the one that rebinds; and no
    // query is ever sent, so no query path can.
    let (points, uncertain) = scene();
    let server = QueryServer::new(points, uncertain, 1);
    let handle = server
        .start(&ServerConfig {
            event_loops: 2,
            idle_poll: Duration::from_secs(3600),
            ..ServerConfig::loopback()
        })
        .expect("bind loopback");
    let engines = server.engines();
    let epoch0_shard = Arc::downgrade(&engines.point.snapshot().shards()[0]);
    assert!(epoch0_shard.upgrade().is_some(), "both loops read epoch 0");

    let mut client = Client::connect(handle.addr()).unwrap();
    let accepted = client
        .submit(&[WireUpdate::Point(Update::Depart(ObjectId(0)))])
        .unwrap();
    assert_eq!(accepted, 1);
    assert_eq!(client.commit(CommitTarget::Point).unwrap().epoch, 1);

    // The wake is asynchronous to the commit's reply: wait for both
    // loops to have swept, within reason.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while epoch0_shard.upgrade().is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "an event loop still reads epoch 0 with no query to move it"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

#[test]
fn stats_frame_reports_epochs_sizes_and_shards() {
    let (server, handle) = start_server(5, 2);
    let engines = server.engines();
    let mut client = Client::connect(handle.addr()).expect("connect");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.point.epoch, 0);
    assert_eq!(stats.point.len, 400);
    assert_eq!(stats.point.shard_sizes.len(), 5);
    assert_eq!(stats.point.shard_sizes.iter().sum::<u64>(), 400);
    assert_eq!(stats.uncertain.len, 36);
    assert_eq!(stats.uncertain.shard_sizes.len(), 5);
    assert_eq!(stats.point.pending, 0);
    // Tests don't register the counting allocator.
    assert!(!stats.alloc_counting);
    assert!(stats.requests_served >= 1);

    // Pending counts surface before a commit, epochs after.
    client
        .submit(&[WireUpdate::Point(Update::Depart(ObjectId(0)))])
        .expect("submit");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.point.pending, 1);
    client.commit(CommitTarget::Point).expect("commit");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.point.pending, stats.point.epoch), (0, 1));
    assert_eq!(stats.point.len, 399);
    assert_eq!(engines.point.len(), 399);

    handle.shutdown();
}

/// Reads one whole frame: `(version, opcode, payload)`.
fn read_frame(stream: &mut TcpStream) -> (u8, u8, Vec<u8>) {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).expect("frame length");
    let mut frame = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    stream.read_exact(&mut frame).expect("frame body");
    (frame[0], frame[1], frame[2..].to_vec())
}

/// Writes raw bytes on a fresh connection and returns the first
/// response frame.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> (u8, u8, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(bytes).expect("write raw");
    read_frame(&mut stream)
}

fn assert_closed(stream: &mut TcpStream, what: &str) {
    match stream.read(&mut [0u8; 4]) {
        Ok(0) | Err(_) => {} // closed (FIN or RST) — both fine
        Ok(n) => panic!("{what}: peer kept talking ({n} bytes) after refusing the stream"),
    }
}

/// The framing contract belongs to the connection core, so it must
/// read the same through either front end built on it: a plain server,
/// and a router over one node.
#[test]
fn framing_contract_holds_on_server_and_router() {
    let (_server, server) = start_server(2, 3);
    let (_node, node) = start_server(1, 2);
    let router = Router::start(&RouterConfig::loopback(vec![node.addr()])).expect("start router");
    let max = protocol::MAX_FRAME_LEN;

    for (who, addr) in [("server", server.addr()), ("router", router.addr())] {
        let connect = || {
            let stream = TcpStream::connect(addr).expect("connect raw");
            stream.set_nodelay(true).expect("nodelay");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            stream
        };

        // Streams that cannot be delimited, or speak another version:
        // a typed error frame, then the connection closes.
        let refused: [(&str, Vec<u8>, ErrorCode); 5] = [
            ("len 0", 0u32.to_le_bytes().to_vec(), ErrorCode::TooLarge),
            ("len 1", 1u32.to_le_bytes().to_vec(), ErrorCode::TooLarge),
            (
                "len > max_frame_len",
                (max + 1).to_le_bytes().to_vec(),
                ErrorCode::TooLarge,
            ),
            (
                "wrong version on a PING",
                [&2u32.to_le_bytes()[..], &[99, opcode::PING]].concat(),
                ErrorCode::BadVersion,
            ),
            (
                "HELLO from version 9",
                [&6u32.to_le_bytes()[..], &[9, opcode::HELLO, 9, 0, 0, 0]].concat(),
                ErrorCode::BadVersion,
            ),
        ];
        for (what, bytes, code) in refused {
            let mut stream = connect();
            stream.write_all(&bytes).expect("write raw");
            let (_, op, payload) = read_frame(&mut stream);
            assert_eq!(op, opcode::ERROR, "{who}: {what}");
            assert_eq!(payload[0], code as u8, "{who}: {what}");
            if what.starts_with("HELLO") {
                // A typed refusal naming both versions.
                let (_, message) = protocol::decode_error(&payload).expect("error payload");
                assert!(
                    message.contains("version 9")
                        && message.contains(&format!("v{}", protocol::PROTOCOL_VERSION)),
                    "{who}: {message}"
                );
            }
            assert_closed(&mut stream, what);
        }

        // Reassembly: however the bytes are cut, the same answers come
        // back in the same order.
        let mut ping = Vec::new();
        protocol::encode_empty(&mut ping, opcode::PING);
        let mut query = Vec::new();
        protocol::encode_point_query(&mut query, &point_requests(1, 5)[0]).unwrap();
        let mut stream = connect();

        stream.write_all(&query[..2]).unwrap(); // a split length prefix
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(&query[2..]).unwrap();
        let (_, op, whole) = read_frame(&mut stream);
        assert_eq!(op, opcode::ANSWER, "{who}: split prefix");

        for byte in &query {
            stream.write_all(std::slice::from_ref(byte)).unwrap(); // dripped
            std::thread::sleep(Duration::from_millis(1));
        }
        let (_, op, dripped) = read_frame(&mut stream);
        assert_eq!(op, opcode::ANSWER, "{who}: dripped frame");
        assert_eq!(dripped, whole, "{who}: dripped frame");

        let burst = [&ping[..], &query, &ping, &query, &ping].concat();
        stream.write_all(&burst).unwrap(); // five pipelined frames, one write
        for (k, want) in [
            opcode::PONG,
            opcode::ANSWER,
            opcode::PONG,
            opcode::ANSWER,
            opcode::PONG,
        ]
        .into_iter()
        .enumerate()
        {
            let (_, op, payload) = read_frame(&mut stream);
            assert_eq!(op, want, "{who}: pipelined frame {k}");
            if op == opcode::ANSWER {
                assert_eq!(payload, whole, "{who}: pipelined frame {k}");
            }
        }

        // Half-close after a request: the response still arrives.
        stream.write_all(&query).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let (_, op, payload) = read_frame(&mut stream);
        assert_eq!(op, opcode::ANSWER, "{who}: half-close");
        assert_eq!(payload, whole, "{who}: half-close");
        assert_closed(&mut stream, "half-close");

        // Half a frame then disconnect: shrugged off.
        let mut stream = connect();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        drop(stream);
        Client::connect(addr)
            .expect("connect after a mid-frame hangup")
            .ping()
            .expect("front end survived a hangup mid-frame");
    }
    router.shutdown();
    node.shutdown();
    server.shutdown();
}

#[test]
fn malformed_payloads_are_rejected_and_the_connection_survives() {
    let (_server, handle) = start_server(2, 3);
    let addr = handle.addr();

    // Unknown opcode: error frame, connection stays usable.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut bad = 2u32.to_le_bytes().to_vec();
        bad.extend_from_slice(&[protocol::PROTOCOL_VERSION, 0x55]);
        stream.write_all(&bad).unwrap();
        let mut len_buf = [0u8; 4];
        stream.read_exact(&mut len_buf).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        stream.read_exact(&mut frame).unwrap();
        assert_eq!(frame[1], opcode::ERROR);
        assert_eq!(frame[2], ErrorCode::BadOpcode as u8);
        // Same connection still answers a well-formed ping.
        let mut ping = Vec::new();
        protocol::encode_empty(&mut ping, opcode::PING);
        stream.write_all(&ping).unwrap();
        stream.read_exact(&mut len_buf).unwrap();
        let mut frame = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        stream.read_exact(&mut frame).unwrap();
        assert_eq!(frame[1], opcode::PONG);
    }

    // Truncated payload inside a well-formed frame: Malformed, and the
    // connection keeps serving.
    {
        let mut client = Client::connect(addr).unwrap();
        let mut good = Vec::new();
        protocol::encode_point_query(
            &mut good,
            &PointRequest::ipq(
                Issuer::uniform(Rect::from_coords(0.0, 0.0, 100.0, 100.0)),
                RangeSpec::square(50.0),
            ),
        )
        .unwrap();
        // Chop the payload but keep the frame self-consistent.
        let chopped_payload_len = (good.len() - 6) / 2;
        let mut truncated = ((chopped_payload_len + 2) as u32).to_le_bytes().to_vec();
        truncated.extend_from_slice(&good[4..6 + chopped_payload_len]);
        let (_, op, payload) = raw_exchange(addr, &truncated);
        assert_eq!(op, opcode::ERROR);
        assert_eq!(payload[0], ErrorCode::Malformed as u8);
        // Other connections were never disturbed.
        client.ping().expect("ping");
    }

    handle.shutdown();
}

/// Integrator tag 1 is unassigned: a query or a subscription carrying
/// it is refused as `Malformed`, and the same connection goes on
/// answering — with a Gaussian issuer, a pdf pair no closed form
/// covers.
#[test]
fn an_unassigned_integrator_tag_is_refused_and_the_connection_survives() {
    use iloc::core::serve::ShardedEngine;
    use iloc::core::{QueryAnswer, UncertainEngine};

    let (_server, handle) = start_server(2, 2);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let request = UncertainRequest::iuq(
        Issuer::gaussian(Rect::centered(Point::new(500.0, 500.0), 60.0, 60.0)),
        RangeSpec::square(120.0),
    );
    let mut query = Vec::new();
    protocol::encode_uncertain_query(&mut query, &request).unwrap();
    let mut subscribe = Vec::new();
    protocol::encode_subscribe(&mut subscribe, 30.0, &request).unwrap();
    let (_, uncertain) = scene();
    let want = ShardedEngine::<UncertainEngine>::build(uncertain, 2)
        .snapshot()
        .execute_one(&request);
    assert!(!want.results.is_empty());

    // Tag 1 alone; tag 2 with the `per_axis` it used to carry.
    for retired in [&[1u8][..], &[2, 32, 0, 0, 0]] {
        for (what, frame) in [("query", &query), ("subscribe", &subscribe)] {
            // A plain query body ends in the integrator tag and the
            // unconstrained byte.
            let mut bad = frame.clone();
            let at = bad.len() - 2;
            assert_eq!(bad[at], 0, "{what}: Auto's tag");
            bad.splice(at..=at, retired.iter().copied());
            let len = (bad.len() - 4) as u32;
            bad[..4].copy_from_slice(&len.to_le_bytes());
            stream.write_all(&bad).unwrap();
            let (_, op, payload) = read_frame(&mut stream);
            assert_eq!(op, opcode::ERROR, "{what}: tag {}", retired[0]);
            assert_eq!(payload[0], ErrorCode::Malformed as u8, "{what}");

            stream.write_all(&query).unwrap();
            let (_, op, payload) = read_frame(&mut stream);
            assert_eq!(op, opcode::ANSWER, "{what}: the connection survived");
            let mut answer = QueryAnswer::default();
            protocol::decode_answer_into(&payload, &mut answer).unwrap();
            assert!(answer.same_matches(&want), "{what}");
        }
    }
    handle.shutdown();
}

#[test]
fn snapshot_pinning_never_shows_torn_epochs_over_the_wire() {
    // One query's result set is flipped between "all present" and "all
    // departed" by commits while reader clients hammer the server; a
    // partial result set would mean a worker read a torn epoch.
    let (server, handle) = start_server(4, 5);
    let engines = server.engines();
    let addr = handle.addr();
    let request = PointRequest::ipq(
        Issuer::uniform(Rect::centered(Point::new(260.0, 260.0), 60.0, 60.0)),
        RangeSpec::square(90.0),
    );
    let full = engines.point.snapshot().execute_one(&request);
    assert!(full.results.len() >= 4);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let request = request.clone();
            let want = full.results.len();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect reader");
                let mut answer = Default::default();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    client.query_into(&request, &mut answer).expect("query");
                    let n = answer.results.len();
                    assert!(
                        n == want || n == 0,
                        "torn epoch over the wire: {n} of {want}"
                    );
                }
            })
        })
        .collect();

    let mut writer = Client::connect(addr).expect("connect writer");
    for _ in 0..10 {
        let departs: Vec<WireUpdate> = full
            .results
            .iter()
            .map(|m| WireUpdate::Point(Update::Depart(m.id)))
            .collect();
        writer.submit(&departs).unwrap();
        writer.commit(CommitTarget::Point).unwrap();
        let arrivals: Vec<WireUpdate> = full
            .results
            .iter()
            .map(|m| {
                let k = m.id.0;
                WireUpdate::Point(Update::Arrive(PointObject::new(
                    m.id,
                    Point::new((k % 20) as f64 * 50.0 + 10.0, (k / 20) as f64 * 50.0 + 10.0),
                )))
            })
            .collect();
        writer.submit(&arrivals).unwrap();
        writer.commit(CommitTarget::Point).unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader");
    }
    assert_eq!(engines.point.epoch(), 20);
    handle.shutdown();
}

/// Two writers, one per event loop, race tagged UPDATE_BATCH + COMMIT
/// cycles on one durable catalog while a third connection reads. The
/// loops commit under the catalog's own lock, so: every commit that
/// published has its own epoch and together they run 1..=last; each
/// batch lands whole in one epoch, no later than its writer's
/// COMMIT_DONE; every read sees some epoch whole, in order; the catalog
/// is an in-process replay of the batches in epoch order; and a
/// restart recovers that epoch and those answers.
#[test]
fn concurrent_writers_on_a_durable_server() {
    use iloc::core::durable::FsyncPolicy;
    use iloc::core::serve::{CommitReport, ServeEngine, ShardedEngine, Snapshot, DIRT_HISTORY};
    use iloc::core::PointEngine;
    use iloc::server::server::DurabilityOptions;
    use std::sync::atomic::{AtomicBool, Ordering};

    const ROUNDS: u64 = 24;
    const ARRIVALS: u64 = 6;
    // Tracing batches to epochs reads every epoch's touched set back.
    assert!(2 * ROUNDS as usize <= DIRT_HISTORY);
    // Batch `tag` (writer * ROUNDS + round): ARRIVALS fresh ids and a
    // move of base object `tag`, which no other batch touches.
    let batch = |tag: u64| -> Vec<Update<PointObject>> {
        let at = |id: u64| Point::new((id * 37 % 1000) as f64, (id * 53 % 1000) as f64);
        let arrivals = (0..ARRIVALS).map(|j| 100_000 + tag * ARRIVALS + j);
        let mut updates: Vec<_> = arrivals
            .map(|id| Update::Arrive(PointObject::new(id, at(id))))
            .collect();
        updates.push(Update::Move(PointObject::new(tag, at(tag + 7))));
        updates
    };
    let tag_of = |id: u64| id.checked_sub(100_000).map_or(id, |k| k / ARRIVALS);
    let objects = |snapshot: Snapshot<PointEngine>| -> Vec<Vec<PointObject>> {
        let shards = snapshot.shards().iter();
        shards
            .map(|s| s.live_objects().copied().collect())
            .collect()
    };
    let everything = PointRequest::ipq(
        Issuer::uniform(Rect::centered(Point::new(500.0, 500.0), 10.0, 10.0)),
        RangeSpec::square(2_000.0),
    );

    let dir = std::env::temp_dir().join(format!("iloc-net-writers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        checkpoint_every: 8,
        ..DurabilityOptions::new(&dir)
    };
    let (points, uncertain) = scene();
    let (server, _) =
        QueryServer::open(points.clone(), uncertain.clone(), 2, &durability).expect("open");
    let handle = server
        .start(&ServerConfig {
            event_loops: 2,
            ..ServerConfig::loopback()
        })
        .expect("bind loopback");
    let engines = server.engines();

    // Connections are dealt to loops round-robin: one writer per loop.
    let writers: Vec<_> = (0..2)
        .map(|_| Client::connect(handle.addr()).expect("connect writer"))
        .collect();
    let mut reader = Client::connect(handle.addr()).expect("connect reader");
    let done = Arc::new(AtomicBool::new(false));
    let reads = {
        let (done, everything) = (Arc::clone(&done), everything.clone());
        std::thread::spawn(move || {
            let mut reads = Vec::new();
            while !done.load(Ordering::Acquire) {
                reads.push(reader.query(&everything).expect("read"));
            }
            reads
        })
    };
    let writers: Vec<_> = (0..2u64)
        .zip(writers)
        .map(|(w, mut client)| {
            std::thread::spawn(move || {
                let cycle = |tag| {
                    let updates: Vec<_> = batch(tag).into_iter().map(WireUpdate::Point).collect();
                    assert_eq!(
                        client.submit(&updates).expect("submit") as usize,
                        updates.len()
                    );
                    (tag, client.commit(CommitTarget::Point).expect("commit"))
                };
                (w * ROUNDS..(w + 1) * ROUNDS)
                    .map(cycle)
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let acks: Vec<(u64, CommitReport)> = writers
        .into_iter()
        .flat_map(|w| w.join().expect("writer"))
        .collect();
    done.store(true, Ordering::Release);
    let reads = reads.join().expect("reader");

    // The commits that published (an empty one reports no shards) hold
    // distinct, consecutive epochs.
    let last = engines.point.epoch();
    let mut published: Vec<u64> = acks
        .iter()
        .filter(|(_, report)| !report.per_shard.is_empty())
        .map(|(_, report)| report.epoch)
        .collect();
    published.sort_unstable();
    assert_eq!(published, (1..=last).collect::<Vec<_>>());

    // Trace each batch to the one epoch that applied it, in the order
    // the loops submitted them, and replay them so.
    let mut dirt = Vec::new();
    let gapless = engines.point.engine().dirt_since(0, &mut dirt).1;
    assert!(gapless, "gapless history");
    let mut epoch_of = std::collections::HashMap::new();
    let replay = ShardedEngine::<PointEngine>::build(points.clone(), 2);
    let mut whole = vec![replay.snapshot().execute_one(&everything)];
    for d in &dirt {
        for &(id, _) in d.touched.as_ref().expect("touched set kept").iter() {
            let tag = tag_of(id.0);
            let first = *epoch_of.entry(tag).or_insert_with(|| {
                replay.submit_all(batch(tag));
                d.epoch
            });
            assert_eq!(first, d.epoch, "batch {tag} split across epochs");
        }
        assert_eq!(replay.commit().epoch, d.epoch);
        whole.push(replay.snapshot().execute_one(&everything));
    }
    for (tag, report) in &acks {
        assert!(
            epoch_of[tag] <= report.epoch,
            "batch {tag} acknowledged early"
        );
    }
    assert!(objects(engines.point.snapshot()) == objects(replay.snapshot()));
    let mut at = 0;
    for (k, read) in reads.iter().enumerate() {
        while !read.same_matches(&whole[at]) {
            at += 1;
            assert!(at < whole.len(), "read {k} saw no epoch whole, in order");
        }
    }

    let requests = point_requests(16, 5);
    let served = engines.point.snapshot();
    let answers: Vec<_> = requests.iter().map(|r| served.execute_one(r)).collect();
    drop((served, engines));
    handle.shutdown();
    drop(server);
    let (server, recovery) = QueryServer::open(points, uncertain, 2, &durability).expect("reopen");
    assert_eq!(recovery.point.epoch, last, "recovered epoch");
    let recovered = server.engines().point.snapshot();
    assert!(objects(recovered.clone()) == objects(replay.snapshot()));
    for (k, (request, answer)) in requests.iter().zip(&answers).enumerate() {
        assert!(
            recovered.execute_one(request).same_matches(answer),
            "request {k}"
        );
    }
    drop((recovered, server));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_disc_the_index_cannot_hold_is_refused_and_the_durable_store_lives_on() {
    use iloc::core::durable::FsyncPolicy;
    use iloc::core::serve::ShardedEngine;
    use iloc::core::UncertainEngine;
    use iloc::server::server::DurabilityOptions;
    use iloc::uncertainty::DiscPdf;

    let dir = std::env::temp_dir().join(format!("iloc-net-disc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions {
        fsync: FsyncPolicy::Off,
        ..DurabilityOptions::new(&dir)
    };
    let (points, uncertain) = scene();
    let (server, _) =
        QueryServer::open(points.clone(), uncertain.clone(), 2, &durability).expect("open");
    let handle = server.start(&ServerConfig::loopback()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A good arrival, then a disc whose fields are all finite but whose
    // bounding box reaches infinity: centre (1e308, 0), radius 1e308.
    // No encoder builds it, so patch a valid disc's bytes.
    let arrivals = [
        UncertainObject::new(
            900u64,
            UniformPdf::new(Rect::from_coords(0.0, 0.0, 9.0, 9.0)),
        ),
        UncertainObject::new(901u64, DiscPdf::new(Point::new(1.0, 2.0), 3.0)),
    ];
    let updates: Vec<_> = arrivals
        .iter()
        .cloned()
        .map(|o| WireUpdate::Uncertain(Update::Arrive(o)))
        .collect();
    let mut bad = Vec::new();
    protocol::encode_update_batch(&mut bad, &updates).unwrap();
    // The disc entry is the frame's tail: pdf tag, centre x, y, radius.
    let disc = bad.len() - 25;
    assert_eq!(bad[disc], 2, "disc pdf tag");
    bad[disc + 1..disc + 9].copy_from_slice(&1e308f64.to_le_bytes());
    bad[disc + 17..].copy_from_slice(&1e308f64.to_le_bytes());
    let (_, op, payload) = raw_exchange(handle.addr(), &bad);
    assert_eq!(op, opcode::ERROR);
    assert_eq!(payload[0], ErrorCode::Malformed as u8);

    // The store still commits, and nothing of the refused batch shows.
    let good: Vec<Update<UncertainObject>> = vec![
        Update::Arrive(UncertainObject::new(
            902u64,
            DiscPdf::new(Point::new(500.0, 480.0), 40.0),
        )),
        Update::Move(UncertainObject::new(
            7u64,
            UniformPdf::new(Rect::centered(Point::new(520.0, 500.0), 25.0, 25.0)),
        )),
    ];
    let wire: Vec<_> = good.iter().cloned().map(WireUpdate::Uncertain).collect();
    assert_eq!(client.submit(&wire).expect("submit"), 2);
    let report = client.commit(CommitTarget::Uncertain).expect("commit");
    assert_eq!(report.epoch, 1);

    let reference = ShardedEngine::<UncertainEngine>::build(uncertain.clone(), 2);
    reference.submit_all(good);
    reference.commit();
    let requests = uncertain_requests(16, 11);
    let expected: Vec<_> = requests
        .iter()
        .map(|r| reference.snapshot().execute_one(r))
        .collect();
    for id in [7u64, 902] {
        assert!(
            expected
                .iter()
                .any(|a| a.probability_of(ObjectId(id)).is_some()),
            "the queries see object {id}"
        );
    }
    for (k, (request, answer)) in requests.iter().zip(&expected).enumerate() {
        let served = client.query(request).expect("query");
        assert!(served.same_matches(answer), "served request {k}");
    }
    drop(client);
    handle.shutdown();
    drop(server);

    // The store reopens at the good commit, bit for bit.
    let (server, recovery) = QueryServer::open(points, uncertain, 2, &durability).expect("reopen");
    assert_eq!(recovery.uncertain.epoch, 1, "recovered epoch");
    let recovered = server.engines().uncertain.snapshot();
    for (k, (request, answer)) in requests.iter().zip(&expected).enumerate() {
        assert!(
            recovered.execute_one(request).same_matches(answer),
            "recovered request {k}"
        );
    }
    drop((recovered, server));
    let _ = std::fs::remove_dir_all(&dir);
}
