//! Loopback integration suite for the continuous-serving
//! (subscription) layer.
//!
//! The contract: a subscriber that applies its SUB_ACK answer, then
//! every NOTIFY delta **in wire order** (pushed and tick-response
//! alike), always holds exactly the answer a fresh in-process
//! evaluation of its standing query gives — bit-identically — while
//! commits stream in from other connections. Plus: adversarial
//! subscribe/tick frames are typed error frames that never disturb the
//! connection, and idle connections are reaped on the keepalive
//! deadline while pinging ones survive.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use iloc::core::pipeline::PointRequest;
use iloc::core::serve::Update;
use iloc::core::{Issuer, Match, RangeSpec};
use iloc::geometry::{Point, Rect};
use iloc::server::protocol::{self, opcode, ErrorCode, NotifyCause, WireUpdate};
use iloc::server::server::{QueryServer, ServerConfig};
use iloc::server::{Client, ClientError, CommitTarget};
use iloc::uncertainty::{ObjectId, PointObject, UncertainObject, UniformPdf};

/// The same deterministic scene the query-path suite uses: a 20×20
/// point grid and a 6×6 grid of uncertain boxes over [0, 1000]².
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

fn start_server(config: &ServerConfig) -> (QueryServer, iloc::server::ServerHandle) {
    let (points, uncertain) = scene();
    let server = QueryServer::new(points, uncertain, 3);
    let handle = server.start(config).expect("bind loopback");
    (server, handle)
}

fn request_at(x: f64, y: f64) -> PointRequest {
    PointRequest::ipq(
        Issuer::uniform(Rect::centered(Point::new(x, y), 50.0, 50.0)),
        RangeSpec::square(80.0),
    )
}

fn assert_bits_equal(state: &[Match], fresh: &[Match], what: &str) {
    assert_eq!(state.len(), fresh.len(), "{what}: result-set size");
    for (a, b) in state.iter().zip(fresh) {
        assert_eq!(a.id, b.id, "{what}");
        assert_eq!(a.probability.to_bits(), b.probability.to_bits(), "{what}");
    }
}

#[test]
fn subscription_lifecycle_tracks_fresh_evaluation_over_the_wire() {
    let (server, handle) = start_server(&ServerConfig {
        event_loops: 3,
        ..ServerConfig::loopback()
    });
    let engines = server.engines();
    let mut subscriber = Client::connect(handle.addr()).expect("connect subscriber");
    let mut writer = Client::connect(handle.addr()).expect("connect writer");

    // SUB_ACK carries the initial answer, bit-identical to in-process
    // evaluation of the same standing query.
    let mut request = request_at(260.0, 260.0);
    let (ack, mut answer) = subscriber.subscribe(&request, 120.0).expect("subscribe");
    let sub_id = ack.sub_id;
    // A fresh in-memory server recovered nothing.
    assert_eq!(ack.recovered_epoch, 0);
    assert_bits_equal(
        &answer.results,
        &engines.point.snapshot().execute_one(&request).results,
        "initial answer",
    );
    assert!(!answer.results.is_empty());

    let mut note = Default::default();
    for round in 0..6u64 {
        // Commits from ANOTHER connection change the catalog under the
        // standing query...
        let mut updates = vec![
            WireUpdate::Point(Update::Move(PointObject::new(
                round * 3,
                Point::new(250.0 + round as f64, 250.0),
            ))),
            WireUpdate::Point(Update::Depart(ObjectId(100 + round))),
        ];
        if round.is_multiple_of(2) {
            updates.push(WireUpdate::Point(Update::Arrive(PointObject::new(
                5_000 + round,
                Point::new(270.0, 260.0 + round as f64),
            ))));
        }
        writer.submit(&updates).expect("submit");
        writer.commit(CommitTarget::Point).expect("commit");

        // ...and the pushed deltas arrive without the subscriber
        // sending anything. Apply every pushed frame in order.
        let mut pushed = 0;
        while let Some(push) = subscriber
            .poll_notification(Duration::from_secs(5))
            .expect("poll")
        {
            assert_eq!(push.cause, NotifyCause::Commit);
            assert_eq!(push.sub_id, sub_id);
            push.delta.apply(&mut answer.results);
            pushed += 1;
            // One commit produces at most one NOTIFY per subscription;
            // stop polling once caught up with this round's epoch.
            if push.epoch > round {
                break;
            }
        }
        assert!(pushed <= 1, "round {round}: {pushed} pushes for one commit");
        assert_bits_equal(
            &answer.results,
            &engines.point.snapshot().execute_one(&request).results,
            &format!("after commit {round}"),
        );

        // A tick composes on top: move the issuer, apply the response
        // delta (pushes that raced in front come first, in order).
        request = request_at(260.0 + round as f64 * 15.0, 260.0);
        subscriber
            .tick_into(CommitTarget::Point, sub_id, request.issuer.pdf(), &mut note)
            .expect("tick");
        while let Some(push) = subscriber.take_notification() {
            push.delta.apply(&mut answer.results);
        }
        note.delta.apply(&mut answer.results);
        assert_bits_equal(
            &answer.results,
            &engines.point.snapshot().execute_one(&request).results,
            &format!("after tick {round}"),
        );
    }

    // Unsubscribe: acknowledged once, idempotently false after, and no
    // further pushes arrive for new commits.
    assert!(subscriber
        .unsubscribe(CommitTarget::Point, sub_id)
        .expect("unsubscribe"));
    assert!(!subscriber
        .unsubscribe(CommitTarget::Point, sub_id)
        .expect("re-unsubscribe"));
    writer
        .submit(&[WireUpdate::Point(Update::Depart(ObjectId(42)))])
        .expect("submit");
    writer.commit(CommitTarget::Point).expect("commit");
    assert!(subscriber
        .poll_notification(Duration::from_millis(300))
        .expect("poll after unsubscribe")
        .is_none());
    // Ticking a dead subscription is a clean, typed error.
    match subscriber.tick_into(CommitTarget::Point, sub_id, request.issuer.pdf(), &mut note) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, Some(ErrorCode::Malformed)),
        other => panic!("expected server error, got {other:?}"),
    }
    subscriber.ping().expect("connection unharmed");

    handle.shutdown();
}

#[test]
fn unaffected_subscriptions_receive_no_pushes() {
    let (server, handle) = start_server(&ServerConfig {
        event_loops: 2,
        ..ServerConfig::loopback()
    });
    let _engines = server.engines();
    let mut subscriber = Client::connect(handle.addr()).expect("connect");
    let mut writer = Client::connect(handle.addr()).expect("connect writer");

    // Standing far from the churn: the commit's dirty rectangle never
    // stabs this envelope, so nothing is pushed — the subscription did
    // zero work server-side.
    let request = request_at(900.0, 900.0);
    let (_, answer) = subscriber.subscribe(&request, 60.0).expect("subscribe");
    assert!(!answer.results.is_empty());

    for k in 0..5u64 {
        writer
            .submit(&[WireUpdate::Point(Update::Move(PointObject::new(
                k,
                Point::new(30.0 + k as f64, 30.0),
            )))])
            .expect("submit");
        writer.commit(CommitTarget::Point).expect("commit");
    }
    assert!(subscriber
        .poll_notification(Duration::from_millis(400))
        .expect("poll")
        .is_none());
    handle.shutdown();
}

#[test]
fn uncertain_subscriptions_work_over_the_wire() {
    let (server, handle) = start_server(&ServerConfig {
        event_loops: 2,
        ..ServerConfig::loopback()
    });
    let engines = server.engines();
    let mut subscriber = Client::connect(handle.addr()).expect("connect");
    let mut writer = Client::connect(handle.addr()).expect("connect writer");

    let request = iloc::core::pipeline::UncertainRequest::iuq(
        Issuer::uniform(Rect::centered(Point::new(240.0, 240.0), 60.0, 60.0)),
        RangeSpec::square(120.0),
    );
    let (ack, mut answer) = subscriber.subscribe(&request, 100.0).expect("subscribe");
    let sub_id = ack.sub_id;
    assert_bits_equal(
        &answer.results,
        &engines.uncertain.snapshot().execute_one(&request).results,
        "initial uncertain answer",
    );

    // Move an in-range object out to the expanded-query boundary,
    // where its qualification probability lands strictly between 0
    // and 1 — the answer must change, so a push must follow. (A move
    // that keeps the probability at 1.0 correctly pushes nothing.)
    writer
        .submit(&[WireUpdate::Uncertain(Update::Move(UncertainObject::new(
            7u64,
            UniformPdf::new(Rect::centered(Point::new(400.0, 400.0), 25.0, 25.0)),
        )))])
        .expect("submit");
    writer.commit(CommitTarget::Uncertain).expect("commit");

    let push = subscriber
        .poll_notification(Duration::from_secs(5))
        .expect("poll")
        .expect("a push must arrive");
    assert_eq!(push.target, CommitTarget::Uncertain);
    assert_eq!(push.sub_id, sub_id);
    push.delta.apply(&mut answer.results);
    assert_bits_equal(
        &answer.results,
        &engines.uncertain.snapshot().execute_one(&request).results,
        "after uncertain commit",
    );
    handle.shutdown();
}

/// Writes raw bytes and returns the first response frame, if any.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Option<(u8, u8, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream.write_all(bytes).expect("write raw");
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf).ok()?;
    let len = u32::from_le_bytes(len_buf) as usize;
    let mut frame = vec![0u8; len];
    stream.read_exact(&mut frame).ok()?;
    Some((frame[0], frame[1], frame[2..].to_vec()))
}

#[test]
fn adversarial_subscription_frames_yield_typed_errors() {
    let (_server, handle) = start_server(&ServerConfig {
        event_loops: 2,
        ..ServerConfig::loopback()
    });
    let addr = handle.addr();

    // A well-formed subscribe frame to mutate.
    let mut good = Vec::new();
    protocol::encode_subscribe_point(&mut good, 50.0, &request_at(500.0, 500.0)).unwrap();

    // Poisoned slack values: the frame-level payload keeps its shape,
    // only the slack f64 (payload bytes 1..9, frame bytes 7..15) is
    // adversarial. Typed Malformed errors, never a panic, and the
    // server keeps serving.
    for bad in [-5.0f64, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut frame = good.clone();
        frame[7..15].copy_from_slice(&bad.to_bits().to_le_bytes());
        let (_, op, payload) = raw_exchange(addr, &frame).expect("response");
        assert_eq!(op, opcode::ERROR, "slack {bad}");
        assert_eq!(payload[0], ErrorCode::Malformed as u8, "slack {bad}");
    }

    // Unknown catalog target byte.
    let mut frame = good.clone();
    frame[6] = 9;
    let (_, op, payload) = raw_exchange(addr, &frame).expect("response");
    assert_eq!(op, opcode::ERROR);
    assert_eq!(payload[0], ErrorCode::Malformed as u8);

    // Truncated subscribe payloads at every length fail cleanly.
    {
        let mut client = Client::connect(addr).expect("connect");
        for n in 0..good.len() - 6 {
            let mut truncated = ((n + 2) as u32).to_le_bytes().to_vec();
            truncated.extend_from_slice(&good[4..6 + n]);
            let (_, op, payload) = raw_exchange(addr, &truncated).expect("response");
            assert_eq!(op, opcode::ERROR, "prefix {n}");
            assert_eq!(payload[0], ErrorCode::Malformed as u8, "prefix {n}");
        }
        // Other connections were never disturbed.
        client.ping().expect("ping");
    }

    // A tick for a subscription that never existed.
    let mut tick = Vec::new();
    protocol::encode_tick(
        &mut tick,
        CommitTarget::Point,
        777,
        request_at(10.0, 10.0).issuer.pdf(),
    );
    let (_, op, payload) = raw_exchange(addr, &tick).expect("response");
    assert_eq!(op, opcode::ERROR);
    assert_eq!(payload[0], ErrorCode::Malformed as u8);

    // Client-side validation rejects bad slack before sending.
    let mut buf = Vec::new();
    assert!(protocol::encode_subscribe_point(&mut buf, f64::NAN, &request_at(0.0, 0.0)).is_err());
    assert!(buf.is_empty());

    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_pinging_ones_survive() {
    let (_server, handle) = start_server(&ServerConfig {
        event_loops: 1,
        idle_poll: Duration::from_millis(20),
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::loopback()
    });
    let addr = handle.addr();

    // A connection that keeps pinging within the deadline stays up
    // well past it.
    {
        let mut client = Client::connect(addr).expect("connect");
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(60));
            client
                .ping()
                .expect("keepalive ping must keep the connection alive");
        }
    }

    // An abandoned connection is reaped: its slot is freed and a new
    // connection gets served. (The reaped socket itself errors or
    // EOFs on its next use.)
    {
        let mut idle = Client::connect(addr).expect("connect idle");
        idle.ping().expect("first ping");
        std::thread::sleep(Duration::from_millis(600));
        let mut fresh = Client::connect(addr).expect("connect fresh");
        fresh
            .ping()
            .expect("the connection slot must have been reclaimed from the idle connection");
        assert!(idle.ping().is_err(), "reaped connection must be closed");
    }

    // A connection stalled MID-FRAME (half a length prefix, then
    // silence) is just as abandoned and must not bypass the deadline.
    {
        let mut stalled = TcpStream::connect(addr).expect("connect stalled");
        stalled.write_all(&[7u8, 0]).expect("half a length prefix");
        std::thread::sleep(Duration::from_millis(600));
        let mut fresh = Client::connect(addr).expect("connect fresh");
        fresh
            .ping()
            .expect("the connection slot must have been reclaimed from the mid-frame stall");
    }

    handle.shutdown();
}

/// One churn round: 150 arrivals (even rounds) or departures (odd
/// rounds) of the same synthetic ids, all inside the [130, 390]²
/// qualifying region of the standing query at (260, 260) — every
/// commit changes that query's answer, so every commit owes the
/// subscriber exactly one NOTIFY.
fn churn_batch(round: u64) -> Vec<WireUpdate> {
    (0..150u64)
        .map(|j| {
            let id = 50_000 + j;
            if round.is_multiple_of(2) {
                WireUpdate::Point(Update::Arrive(PointObject::new(
                    id,
                    Point::new(140.0 + (j % 30) as f64 * 8.0, 160.0 + (j / 30) as f64 * 8.0),
                )))
            } else {
                WireUpdate::Point(Update::Depart(ObjectId(id)))
            }
        })
        .collect()
}

#[test]
fn stalled_subscriber_receives_every_push_intact_after_draining() {
    // A tiny server-side SO_SNDBUF forces NOTIFY pushes through the
    // partial-write path: while the subscriber stalls mid-stream, the
    // queued pushes sit in the per-connection write buffer and drain a
    // few KB per writability event once the subscriber resumes.
    // Nothing may be lost, duplicated, reordered, or torn on the way.
    let (server, handle) = start_server(&ServerConfig {
        event_loops: 2,
        send_buffer: Some(4_096),
        ..ServerConfig::loopback()
    });
    let engines = server.engines();
    let mut subscriber = Client::connect(handle.addr()).expect("connect subscriber");
    let mut writer = Client::connect(handle.addr()).expect("connect writer");

    let request = request_at(260.0, 260.0);
    let (ack, mut answer) = subscriber.subscribe(&request, 120.0).expect("subscribe");
    let sub_id = ack.sub_id;

    // 24 answer-changing commits while the subscriber reads NOTHING.
    const ROUNDS: u64 = 24;
    for round in 0..ROUNDS {
        writer.submit(&churn_batch(round)).expect("submit");
        writer.commit(CommitTarget::Point).expect("commit");
    }

    // Drain: exactly ROUNDS pushes with consecutive epochs — one per
    // commit, none lost, none duplicated, in commit order.
    let mut seen = 0u64;
    while seen < ROUNDS {
        let push = subscriber
            .poll_notification(Duration::from_secs(10))
            .expect("poll")
            .expect("a push per commit is still due");
        assert_eq!(push.sub_id, sub_id);
        assert_eq!(push.cause, NotifyCause::Commit);
        seen += 1;
        assert_eq!(
            push.epoch, seen,
            "pushes must arrive exactly once, in commit order"
        );
        push.delta.apply(&mut answer.results);
    }
    assert!(subscriber
        .poll_notification(Duration::from_millis(300))
        .expect("poll")
        .is_none());
    assert_bits_equal(
        &answer.results,
        &engines.point.snapshot().execute_one(&request).results,
        "after draining every stalled push",
    );
    handle.shutdown();
}

#[test]
fn overflowing_slow_subscriber_is_closed_and_drops_are_counted() {
    // The push-backpressure contract: a live connection never silently
    // loses a push. When a subscriber stops reading and its queued
    // pushes outgrow `push_backlog`, the server must CLOSE it — a loss
    // the subscriber can observe — and account every undelivered frame
    // in the stats counter, while other connections stay unharmed.
    let (_server, handle) = start_server(&ServerConfig {
        event_loops: 1,
        send_buffer: Some(4_096),
        push_backlog: 8_192,
        ..ServerConfig::loopback()
    });
    let addr = handle.addr();
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut control = Client::connect(addr).expect("connect control");

    // A raw subscriber with a deliberately tiny receive buffer that
    // never reads past the SUB_ACK.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    iloc::server::poll::set_recv_buffer(&stalled, 4_096).expect("SO_RCVBUF");
    let mut sub = Vec::new();
    protocol::encode_subscribe_point(&mut sub, 120.0, &request_at(260.0, 260.0)).unwrap();
    stalled.write_all(&sub).expect("subscribe");
    let mut len_buf = [0u8; 4];
    stalled.read_exact(&mut len_buf).expect("ack length");
    let mut ack = vec![0u8; u32::from_le_bytes(len_buf) as usize];
    stalled.read_exact(&mut ack).expect("ack frame");
    assert_eq!(ack[1], opcode::SUB_ACK);

    // Churn until the backlog overflows and the server reaps the
    // stalled subscriber. The kernel absorbs a bounded amount (small
    // SO_SNDBUF + small SO_RCVBUF); after that the per-connection
    // queue grows past `push_backlog` and the typed close fires.
    let mut dropped = 0u64;
    for round in 0..400u64 {
        writer.submit(&churn_batch(round)).expect("submit");
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

    // Whatever did reach the socket is a clean prefix of the push
    // stream: complete NOTIFY frames with strictly increasing epochs.
    // The final frame may be cut where the server closed — a visible
    // break, never a silent gap or interleaved corruption.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4_096];
    loop {
        match stalled.read(&mut chunk) {
            Ok(0) => break,
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

    // The server is unharmed: other connections keep serving.
    control
        .ping()
        .expect("server healthy after reaping the slow reader");
    writer.ping().expect("writer connection unharmed");
    handle.shutdown();
}
