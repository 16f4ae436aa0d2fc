//! The traced run: fixed-count probes around each layer's public
//! functions, in-memory spans around every call the replay makes, and
//! the ledger that splits one round trip into its layers.
//!
//! Every probe is timed from here, outside the program; spans inside
//! `server.rs` and the router are a later change. Counts that must
//! repeat exactly for a seed are listed in `README.md`.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use iloc_core::durable::{DurableCatalog, FsyncPolicy, StoreConfig};
use iloc_core::integrate::closed::{uniform_uniform_batch, UniformHeader};
use iloc_core::pipeline::{BatchEngine, ExecutionContext, PointRequest, UncertainRequest};
use iloc_core::serve::{shard_of, ShardServer, ShardedEngine, Update};
use iloc_core::{
    merge_partials_into, minkowski_query, Integrator, Issuer, PointEngine, QueryAnswer, RangeSpec,
    SubscriptionRegistry,
};
use iloc_geometry::Rect;
use iloc_index::{AccessStats, Pti, PtiParams, RTree, RTreeParams, RangeIndex, TraversalScratch};
use iloc_server::alloc_count::allocations;
use iloc_server::protocol::{self, opcode, CommitTarget, StatsReport, WireUpdate};
use iloc_server::server::QueryServer;
use iloc_uncertainty::{ObjectId, PointObject, UncertainObject};

use crate::affinity::Cores;
use crate::inputs::{self, Inputs, Request};
use crate::load::{Driver, Limit, Load, Phase};
use crate::spec::{Scale, Spec, PROBE_WRITE_RATE, SUB_SLACK};
use crate::stats::{self, median_of, Outcome, Report};
use crate::system::{scratch_dir, System};
use crate::trace::Trace;
use crate::wire::{Conn, FRAME_HEADER};

/// Write cycles each commit probe runs (in process, durable, over the
/// wire, through the router). All start from the base catalog and
/// take the update stream from its beginning.
const CYCLES: usize = 32;
/// Write cycles between the probe store's checkpoint and its
/// recovery: what the reopened store has to replay.
const REPLAY_CYCLES: usize = 8;
/// Answers kept for the merge and codec probes.
const ANSWER_SAMPLE: usize = 128;
/// Candidate lane of the batch-kernel probe.
const LANE: usize = 4096;

fn micros(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e6
}

fn point_updates(batch: &[WireUpdate]) -> Vec<Update<PointObject>> {
    batch
        .iter()
        .map(|u| match u {
            WireUpdate::Point(u) => u.clone(),
            WireUpdate::Uncertain(_) => unreachable!("the write stream is point-only"),
        })
        .collect()
}

fn update_id(update: &Update<PointObject>) -> ObjectId {
    match update {
        Update::Arrive(o) | Update::Move(o) => o.id,
        Update::Depart(id) => *id,
    }
}

/// The part of `batch` that belongs to node `k` of `n`.
fn share_of(batch: &[WireUpdate], k: usize, n: usize) -> Vec<WireUpdate> {
    point_updates(batch)
        .into_iter()
        .filter(|u| shard_of(update_id(u), n) == k)
        .map(WireUpdate::Point)
        .collect()
}

fn dir_bytes(dir: &Path, prefix: &str) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().starts_with(prefix) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// One request after another on `conn`, each decoded; round trips in
/// µs (encode to decoded).
fn replay_untraced(
    conn: &mut Conn,
    pool: &[Request],
    answer: &mut QueryAnswer,
    rtt: &mut Vec<f64>,
) -> io::Result<()> {
    rtt.clear();
    for request in pool {
        let t0 = Instant::now();
        request.encode(&mut conn.out).map_err(io::Error::other)?;
        let frame = conn.call(opcode::ANSWER)?;
        protocol::decode_answer_into(conn.payload(frame), answer).map_err(io::Error::other)?;
        rtt.push(micros(t0));
    }
    Ok(())
}

fn ping_rtt_us(conn: &mut Conn, count: usize) -> io::Result<f64> {
    let mut rtt = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        protocol::encode_empty(&mut conn.out, opcode::PING);
        conn.call(opcode::PONG)?;
        rtt.push(micros(t0));
    }
    Ok(median_of(&mut rtt))
}

fn stats_of(conn: &mut Conn) -> io::Result<StatsReport> {
    protocol::encode_empty(&mut conn.out, opcode::STATS);
    let frame = conn.call(opcode::STATS_REPORT)?;
    let mut report = StatsReport::default();
    protocol::decode_stats_report_into(conn.payload(frame), &mut report)
        .map_err(io::Error::other)?;
    Ok(report)
}

/// One write cycle per batch on `conn`, one at a time; COMMIT sent →
/// COMMIT_DONE read, µs.
fn wire_commits_us(conn: &mut Conn, batches: &[Vec<WireUpdate>]) -> io::Result<Vec<f64>> {
    let mut commit = Vec::with_capacity(batches.len());
    for batch in batches {
        protocol::encode_update_batch(&mut conn.out, batch).map_err(io::Error::other)?;
        conn.call(opcode::UPDATE_ACK)?;
        let t0 = Instant::now();
        protocol::encode_commit(&mut conn.out, CommitTarget::Point);
        conn.call(opcode::COMMIT_DONE)?;
        commit.push(micros(t0));
    }
    Ok(commit)
}

/// What the in-process half of the replay needs from the server the
/// wire half talked to.
struct Replayer {
    point: ShardServer<PointEngine>,
    uncertain: ShardServer<iloc_core::UncertainEngine>,
    point_slot: PointRequest,
    uncertain_slot: UncertainRequest,
    answer: QueryAnswer,
    frame: Vec<u8>,
    out: Vec<u8>,
}

impl Replayer {
    fn new(server: &QueryServer) -> Replayer {
        let engines = server.engines();
        let placeholder = || Issuer::uniform(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        Replayer {
            point: ShardServer::new(engines.point.snapshot()),
            uncertain: ShardServer::new(engines.uncertain.snapshot()),
            point_slot: PointRequest::ipq(placeholder(), RangeSpec::square(1.0)),
            uncertain_slot: UncertainRequest::iuq(placeholder(), RangeSpec::square(1.0)),
            answer: QueryAnswer::default(),
            frame: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Decode → execute → encode, as the event loop does for one
    /// frame; returns the three instants after the start.
    fn replay(&mut self, request: &Request) -> io::Result<[Instant; 4]> {
        self.frame.clear();
        request.encode(&mut self.frame).map_err(io::Error::other)?;
        let payload = &self.frame[FRAME_HEADER..];
        let a0 = Instant::now();
        let is_point = matches!(request, Request::Point(_));
        if is_point {
            protocol::decode_point_query_into(payload, &mut self.point_slot)
        } else {
            protocol::decode_uncertain_query_into(payload, &mut self.uncertain_slot)
        }
        .map_err(io::Error::other)?;
        let a1 = Instant::now();
        if is_point {
            self.point.execute_into(&self.point_slot, &mut self.answer);
        } else {
            self.uncertain
                .execute_into(&self.uncertain_slot, &mut self.answer);
        }
        let a2 = Instant::now();
        self.out.clear();
        protocol::encode_answer(&mut self.out, &self.answer);
        let a3 = Instant::now();
        black_box(&self.out);
        Ok([a0, a1, a2, a3])
    }
}

/// What the probes share: where results go.
struct Probes {
    report: Report,
    trace: Trace,
    failures: Vec<String>,
}

/// `index.*`: the three bulk loads, then the R-tree each pool request
/// would probe, with that request's expanded rectangle.
fn index_probes(
    out: &mut Probes,
    pool: &[Request],
    points: &[PointObject],
    uncertain: &[UncertainObject],
) {
    let t = Instant::now();
    let mut point_tree: RTree<u32> = RTree::bulk_load(
        points
            .iter()
            .enumerate()
            .map(|(k, o)| (Rect::from_point(o.loc), k as u32))
            .collect(),
        RTreeParams::default(),
    );
    let region_tree: RTree<u32> = RTree::bulk_load(
        uncertain
            .iter()
            .enumerate()
            .map(|(k, o)| (o.region(), k as u32))
            .collect(),
        RTreeParams::default(),
    );
    let pti: Pti<u32> = Pti::bulk_load(
        uncertain[0].catalog().levels().collect(),
        uncertain
            .iter()
            .enumerate()
            .map(|(k, o)| {
                (
                    o.catalog().bounds().iter().map(|b| b.rect).collect(),
                    k as u32,
                )
            })
            .collect(),
        PtiParams::default(),
    );
    out.report.push("index.build_ms", micros(t) / 1e3, "ms");
    drop(black_box(pti));

    let mut scratch = TraversalScratch::new();
    let mut candidates: Vec<u32> = Vec::new();
    let mut access = AccessStats::new();
    let mut probe_us = Vec::with_capacity(pool.len());
    // Two passes: the first warms the scratch buffers.
    for _ in 0..2 {
        probe_us.clear();
        access = AccessStats::new();
        for request in pool {
            let (tree, rect) = match request {
                Request::Point(r) => (&point_tree, minkowski_query(&r.issuer, r.range)),
                Request::Uncertain(r) => (&region_tree, minkowski_query(&r.issuer, r.range)),
            };
            candidates.clear();
            let t = Instant::now();
            tree.query_range_scratch(rect, &mut access, &mut scratch, &mut candidates);
            probe_us.push(micros(t));
            black_box(&candidates);
        }
    }
    out.report
        .push("index.probe_us", median_of(&mut probe_us), "us");
    out.report.push_exact(
        "index.candidates_per_probe",
        access.candidates as f64 / pool.len() as f64,
        "count",
    );
    let moved = points.len().min(2048);
    let t = Instant::now();
    for (k, o) in points[..moved].iter().enumerate() {
        let extent = Rect::from_point(o.loc);
        black_box(point_tree.remove(extent, k as u32));
        point_tree.insert(extent, k as u32);
    }
    out.report
        .push("index.update_us", micros(t) / moved as f64, "us");
}

/// `integrate.*`: the closed-form batch kernel over one candidate lane,
/// once per header of the first pool requests.
fn kernel_probe(out: &mut Probes, pool: &[Request], uncertain: &[UncertainObject]) {
    let lane: Vec<[f64; 4]> = uncertain
        .iter()
        .take(LANE)
        .map(|o| {
            let r = o.region();
            [r.min.x, r.min.y, r.max.x, r.max.y]
        })
        .collect();
    let mut lane_out = vec![0.0; lane.len()];
    let headers: Vec<UniformHeader> = pool
        .iter()
        .take(64)
        .map(|request| {
            let (issuer, range) = match request {
                Request::Point(r) => (&r.issuer, r.range),
                Request::Uncertain(r) => (&r.issuer, r.range),
            };
            UniformHeader::new(issuer.region(), range, minkowski_query(issuer, range))
        })
        .collect();
    let t = Instant::now();
    for header in &headers {
        uniform_uniform_batch(black_box(header), black_box(&lane), &mut lane_out);
        black_box(&lane_out);
    }
    out.report.push(
        "integrate.uniform_batch_ns_per_obj",
        micros(t) * 1e3 / (headers.len() * lane.len()) as f64,
        "ns",
    );
}

/// `serve.*` commits, `subscribe.*` and `durable.*`: `CYCLES` write
/// cycles in process, first on a plain engine with the standing queries
/// registered, then on a store in `store_dir`, which is checkpointed,
/// written `REPLAY_CYCLES` more times and reopened. Returns the median
/// commit time in process, µs, on the kind of catalog the workload
/// serves.
///
/// The probes mirror one server of the system: on a cluster that is
/// node 0, with its share of the catalog and of every batch, so they
/// compare with what goes over node 0's wire.
fn write_path_probes(
    out: &mut Probes,
    spec: &Spec,
    inputs: &Inputs,
    points: &[PointObject],
    store_dir: &Path,
) -> io::Result<f64> {
    let nodes = spec.nodes.max(1);
    let points: Vec<PointObject> = points
        .iter()
        .filter(|o| shard_of(o.id, nodes) == 0)
        .cloned()
        .collect();
    let batches: Vec<Vec<Update<PointObject>>> = inputs
        .batches
        .iter()
        .map(|batch| point_updates(&share_of(batch, 0, nodes)))
        .collect();

    let engine: ShardedEngine<PointEngine> = ShardedEngine::build(points.clone(), spec.shards);
    let mut registry: SubscriptionRegistry<PointEngine> = SubscriptionRegistry::new();
    let sub_ids: Vec<u64> = inputs
        .subs
        .iter()
        .map(|request| registry.subscribe(&engine, request.clone(), SUB_SLACK))
        .collect();
    let (mut submit_us, mut commit_us, mut pump_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut woken, mut notified, mut updates, mut commit_allocs) = (0usize, 0usize, 0usize, 0u64);
    for (k, batch) in batches[..CYCLES].iter().enumerate() {
        let batch = batch.clone();
        updates += batch.len();
        let n = batch.len() as f64;
        let t0 = Instant::now();
        engine.submit_all(batch);
        let t1 = Instant::now();
        let before = allocations();
        engine.commit();
        commit_allocs += allocations() - before;
        let t2 = Instant::now();
        let pumped = registry.pump(&engine, |id, _, delta| {
            black_box((id, delta));
        });
        let t3 = Instant::now();
        submit_us.push((t1 - t0).as_secs_f64() * 1e6 / n);
        commit_us.push((t2 - t1).as_secs_f64() * 1e6);
        pump_us.push((t3 - t2).as_secs_f64() * 1e6);
        woken += pumped.woken;
        notified += pumped.notified;
        out.trace.push("serve.commit", t1, t2, None, k);
        out.trace.push("subscribe.pump", t2, t3, None, k);
    }
    let transient_us = median_of(&mut commit_us);
    let mut tick_us = Vec::with_capacity(1024);
    for k in 0..1024 {
        let id = sub_ids[k % sub_ids.len()];
        let pdf = inputs.subs[k % sub_ids.len()].issuer.pdf().clone();
        let t = Instant::now();
        black_box(registry.tick(&engine, id, pdf));
        tick_us.push(micros(t));
    }
    let report = &mut out.report;
    report.push(
        "serve.submit_us_per_update",
        median_of(&mut submit_us),
        "us",
    );
    report.push("serve.commit_us", transient_us, "us");
    report.push(
        "serve.commit_us_per_update",
        transient_us * CYCLES as f64 / updates as f64,
        "us",
    );
    report.push_exact(
        "serve.commit_allocs_per_update",
        commit_allocs as f64 / updates as f64,
        "count",
    );
    report.push("subscribe.pump_us", median_of(&mut pump_us), "us");
    report.push_exact(
        "subscribe.woken_ratio",
        woken as f64 / (CYCLES * sub_ids.len()) as f64,
        "ratio",
    );
    report.push_exact(
        "subscribe.notified_ratio",
        notified as f64 / woken.max(1) as f64,
        "ratio",
    );
    report.push("subscribe.tick_us", median_of(&mut tick_us), "us");
    drop(registry);
    drop(engine);

    let store = StoreConfig {
        dir: store_dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
    };
    std::fs::create_dir_all(&store.dir)?;
    let store_err = |e| io::Error::other(format!("probe store: {e}"));
    let (catalog, _) = DurableCatalog::<PointEngine>::open(&store, spec.shards, move || points)
        .map_err(store_err)?;
    let mut durable_us = Vec::with_capacity(CYCLES);
    for (k, batch) in batches[..CYCLES].iter().enumerate() {
        catalog.submit_all(batch.clone());
        let t0 = Instant::now();
        catalog.commit().map_err(store_err)?;
        let t1 = Instant::now();
        durable_us.push((t1 - t0).as_secs_f64() * 1e6);
        out.trace.push("durable.commit", t0, t1, None, k);
    }
    let durable_us = median_of(&mut durable_us);
    let report = &mut out.report;
    report.push("durable.commit_extra_us", durable_us - transient_us, "us");
    report.push_exact(
        "durable.wal_bytes_per_update",
        dir_bytes(&store.dir, "wal-")? as f64 / updates as f64,
        "B",
    );
    let t = Instant::now();
    catalog.checkpoint().map_err(store_err)?;
    report.push("durable.checkpoint_ms", micros(t) / 1e3, "ms");
    let checkpoint_bytes = dir_bytes(&store.dir, &format!("ckpt-{:020}", catalog.epoch()))?;
    report.push_exact(
        "durable.checkpoint_bytes_per_object",
        checkpoint_bytes as f64 / catalog.len().max(1) as f64,
        "B",
    );
    for batch in &batches[CYCLES..CYCLES + REPLAY_CYCLES] {
        catalog.submit_all(batch.clone());
        catalog.commit().map_err(store_err)?;
    }
    let acked_epoch = catalog.epoch();
    drop(catalog);
    let t = Instant::now();
    let (reopened, recovery) =
        DurableCatalog::<PointEngine>::open(&store, spec.shards, Vec::new).map_err(store_err)?;
    report.push("durable.recover_ms", micros(t) / 1e3, "ms");
    report.push_exact(
        "durable.replayed_updates",
        recovery.replayed_updates as f64,
        "count",
    );
    if recovery.epoch != acked_epoch || reopened.epoch() != acked_epoch {
        out.failures.push(format!(
            "probe store recovered epoch {} but {acked_epoch} was acknowledged",
            recovery.epoch
        ));
    }
    Ok(if spec.checkpoint_every > 0 {
        durable_us
    } else {
        transient_us
    })
}

/// Median round trips of the replay, µs.
struct Replay {
    traced_us: f64,
    untraced_us: f64,
}

/// `pipeline.*` and the spans of the ledger: every pool request once
/// over the wire with spans around the client's calls, then the same
/// request through the server's own steps in process. Then both again
/// without spans, counting allocations.
fn traced_replay(
    out: &mut Probes,
    pool: &[Request],
    conn: &mut Conn,
    replayer: &mut Replayer,
) -> io::Result<Replay> {
    let mut answer = QueryAnswer::default();
    let mut rtt = Vec::with_capacity(pool.len());
    for request in pool {
        replayer.replay(request)?;
    }
    replay_untraced(conn, pool, &mut answer, &mut rtt)?;

    let (mut candidates, mut pruned, mut refined_out, mut evals, mut matches) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut traced_rtt = Vec::with_capacity(pool.len());
    let mut answer_bytes = 0usize;
    let trace = &mut out.trace;
    for (k, request) in pool.iter().enumerate() {
        let t0 = Instant::now();
        request.encode(&mut conn.out).map_err(io::Error::other)?;
        let t1 = Instant::now();
        let frame = conn.call(opcode::ANSWER)?;
        let t2 = Instant::now();
        protocol::decode_answer_into(conn.payload(frame), &mut answer).map_err(io::Error::other)?;
        let t3 = Instant::now();
        let whole = trace.push("request", t0, t3, None, k);
        trace.push("client.encode", t0, t1, Some(whole), k);
        trace.push("wire.roundtrip", t1, t2, Some(whole), k);
        trace.push("client.decode", t2, t3, Some(whole), k);
        traced_rtt.push((t3 - t0).as_secs_f64() * 1e6);

        let [a0, a1, a2, a3] = replayer.replay(request)?;
        let replay = trace.push("replay", a0, a3, None, k);
        trace.push("protocol.decode_query", a0, a1, Some(replay), k);
        let execute = trace.push("serve.execute", a1, a2, Some(replay), k);
        trace.push("protocol.encode_answer", a2, a3, Some(replay), k);
        let s = replayer.answer.stats;
        let mut cursor = trace.at(a1);
        trace.push_counted("pipeline.filter", &mut cursor, s.filter_nanos, execute, k);
        trace.push_counted("pipeline.prune", &mut cursor, s.prune_nanos, execute, k);
        trace.push_counted("pipeline.refine", &mut cursor, s.refine_nanos, execute, k);
        candidates += s.access.candidates;
        pruned += s.pruned_s1 + s.pruned_s2 + s.pruned_s3;
        refined_out += s.refined_out;
        evals += s.prob_evals;
        matches += replayer.answer.results.len() as u64;
        answer_bytes += replayer.out.len();
        if !replayer.answer.same_matches(&answer) {
            out.failures.push(format!(
                "pool request {k}: the in-process replay and the wire disagree"
            ));
        }
    }

    let before = allocations();
    for request in pool {
        replayer.replay(request)?;
    }
    let pipeline_allocs = allocations() - before;
    let before = allocations();
    replay_untraced(conn, pool, &mut answer, &mut rtt)?;
    let wire_allocs = allocations() - before;

    let n = pool.len() as f64;
    let mut execute_us: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "serve.execute")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let self_times = trace.self_times_us();
    let report = &mut out.report;
    report.push("pipeline.execute_us", median_of(&mut execute_us), "us");
    for (metric, span) in [
        ("pipeline.filter_us", "pipeline.filter"),
        ("pipeline.prune_us", "pipeline.prune"),
        ("pipeline.refine_us", "pipeline.refine"),
    ] {
        report.push(metric, self_time(&self_times, span), "us");
    }
    report.push_exact("pipeline.candidates", candidates as f64 / n, "count");
    report.push_exact(
        "pipeline.pruned_ratio",
        pruned as f64 / candidates.max(1) as f64,
        "ratio",
    );
    report.push_exact(
        "pipeline.refined_out_ratio",
        refined_out as f64 / evals.max(1) as f64,
        "ratio",
    );
    report.push_exact("pipeline.matches_per_query", matches as f64 / n, "count");
    report.push_exact(
        "pipeline.allocs_per_query",
        pipeline_allocs as f64 / n,
        "count",
    );
    report.push_exact("protocol.answer_bytes", answer_bytes as f64 / n, "B");
    report.push_exact("server.allocs_per_req", wire_allocs as f64 / n, "count");
    Ok(Replay {
        traced_us: median_of(&mut traced_rtt),
        untraced_us: median_of(&mut rtt),
    })
}

fn self_time(self_times: &[(&'static str, f64)], name: &str) -> f64 {
    self_times
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, us)| *us)
}

/// One partial answer per shard of the catalog `request` asks.
fn shard_partials(server: &QueryServer, request: &Request) -> Vec<QueryAnswer> {
    fn each<E: BatchEngine>(
        shards: &[std::sync::Arc<E>],
        request: &E::Request,
    ) -> Vec<QueryAnswer> {
        let mut ctx = ExecutionContext::new(Integrator::Auto);
        shards
            .iter()
            .map(|shard| {
                let mut partial = QueryAnswer::default();
                shard.execute_one_into(request, &mut ctx, &mut partial);
                partial
            })
            .collect()
    }
    let engines = server.engines();
    match request {
        Request::Point(r) => each(engines.point.snapshot().shards(), r),
        Request::Uncertain(r) => each(engines.uncertain.snapshot().shards(), r),
    }
}

/// `serve.merge_us`, `serve.rebind_us` and `protocol.*`: the fan-in
/// merge and the codec, on the pool, its first answers and the first
/// write batches.
fn codec_probes(
    out: &mut Probes,
    server: &QueryServer,
    pool: &[Request],
    batches: &[Vec<WireUpdate>],
    replayer: &mut Replayer,
) -> io::Result<()> {
    let (mut merged, mut answer) = (QueryAnswer::default(), QueryAnswer::default());
    let (mut merge_us, mut encode_ns, mut decode_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for request in pool.iter().take(ANSWER_SAMPLE) {
        let partials = shard_partials(server, request);
        // Twice each: the first fills the buffers.
        for _ in 0..2 {
            let t = Instant::now();
            merge_partials_into(&mut merged, partials.iter().map(|p| p.results.as_slice()));
            merge_us.push(micros(t));
        }
        for _ in 0..2 {
            buf.clear();
            let t = Instant::now();
            protocol::encode_answer(&mut buf, &merged);
            encode_ns.push(micros(t) * 1e3);
            let t = Instant::now();
            protocol::decode_answer_into(&buf[FRAME_HEADER..], &mut answer)
                .map_err(io::Error::other)?;
            decode_ns.push(micros(t) * 1e3);
        }
    }
    let report = &mut out.report;
    report.push("serve.merge_us", median_of(&mut merge_us), "us");
    let snapshot = server.engines().point.snapshot();
    let mut shard_server = ShardServer::new(snapshot.clone());
    let t = Instant::now();
    for _ in 0..1024 {
        shard_server.rebind(black_box(snapshot.clone()));
    }
    report.push("serve.rebind_us", micros(t) / 1024.0, "us");

    let (mut encode_query_ns, mut decode_query_ns) = (Vec::new(), Vec::new());
    for request in pool {
        buf.clear();
        let t = Instant::now();
        request.encode(&mut buf).map_err(io::Error::other)?;
        encode_query_ns.push(micros(t) * 1e3);
        let t = Instant::now();
        match request {
            Request::Point(_) => {
                protocol::decode_point_query_into(&buf[FRAME_HEADER..], &mut replayer.point_slot)
            }
            Request::Uncertain(_) => protocol::decode_uncertain_query_into(
                &buf[FRAME_HEADER..],
                &mut replayer.uncertain_slot,
            ),
        }
        .map_err(io::Error::other)?;
        decode_query_ns.push(micros(t) * 1e3);
    }
    report.push(
        "protocol.encode_query_ns",
        median_of(&mut encode_query_ns),
        "ns",
    );
    report.push(
        "protocol.decode_query_ns",
        median_of(&mut decode_query_ns),
        "ns",
    );
    report.push("protocol.encode_answer_ns", median_of(&mut encode_ns), "ns");
    report.push("protocol.decode_answer_ns", median_of(&mut decode_ns), "ns");
    let mut decoded = Vec::new();
    let updates: usize = batches.iter().map(Vec::len).sum();
    let t = Instant::now();
    for batch in batches {
        buf.clear();
        protocol::encode_update_batch(&mut buf, batch).map_err(io::Error::other)?;
        protocol::decode_update_batch(&buf[FRAME_HEADER..], &mut decoded)
            .map_err(io::Error::other)?;
        black_box(&decoded);
    }
    report.push(
        "protocol.update_batch_ns_per_update",
        micros(t) * 1e3 / updates as f64,
        "ns",
    );
    Ok(())
}

/// `router.*` reads: the pool through `cluster`'s router, and the same
/// requests to each of its nodes directly.
fn router_probes(out: &mut Probes, cluster: &System, pool: &[Request]) -> io::Result<()> {
    let mut via_router = Conn::connect(cluster.addr)?;
    let mut answer = QueryAnswer::default();
    let mut rtt = Vec::with_capacity(pool.len());
    let merged_frames = |conn: &mut Conn| -> io::Result<u64> {
        Ok(stats_of(conn)?.nodes.iter().map(|h| h.merged).sum())
    };
    replay_untraced(&mut via_router, pool, &mut answer, &mut rtt)?;
    // Two probes back to back: what a STATS probe itself adds to the
    // router's merged-frame counters.
    let merged_0 = merged_frames(&mut via_router)?;
    let merged_1 = merged_frames(&mut via_router)?;
    let before = allocations();
    replay_untraced(&mut via_router, pool, &mut answer, &mut rtt)?;
    let router_allocs = allocations() - before;
    let merged_2 = merged_frames(&mut via_router)?;
    let mut router_rtt = rtt.clone();
    let mut node_rtts: Vec<Vec<f64>> = Vec::new();
    for addr in cluster.node_addrs() {
        let mut node = Conn::connect(addr)?;
        replay_untraced(&mut node, pool, &mut answer, &mut rtt)?;
        replay_untraced(&mut node, pool, &mut answer, &mut rtt)?;
        node_rtts.push(rtt.clone());
    }
    let (mut overhead_us, mut spread_us) = (Vec::new(), Vec::new());
    for (k, via) in router_rtt.iter().enumerate() {
        let slowest = node_rtts.iter().map(|n| n[k]).fold(f64::MIN, f64::max);
        let fastest = node_rtts.iter().map(|n| n[k]).fold(f64::MAX, f64::min);
        overhead_us.push(via - slowest);
        spread_us.push(slowest - fastest);
    }
    let n = pool.len() as f64;
    let report = &mut out.report;
    report.push(
        "router.ping_rtt_us",
        ping_rtt_us(&mut via_router, 2048)?,
        "us",
    );
    report.push("router.roundtrip_us", median_of(&mut router_rtt), "us");
    report.push("router.overhead_us", median_of(&mut overhead_us), "us");
    report.push("router.node_rtt_spread_us", median_of(&mut spread_us), "us");
    report.push_exact("router.allocs_per_req", router_allocs as f64 / n, "count");
    report.push_exact(
        "router.merged_per_query",
        (merged_2 - merged_1 - (merged_1 - merged_0)) as f64 / n,
        "count",
    );
    Ok(())
}

/// The traced run of one workload: the per-layer report.
pub fn run(spec: &'static Spec, scale: Scale, seed: u64, home: &Path) -> io::Result<Outcome> {
    let cores = Cores::pick();
    cores.enter_servers();
    let mut out = Probes {
        report: Report::default(),
        trace: Trace::start(),
        failures: Vec::new(),
    };
    let scratch = scratch_dir(home, spec, "trace");

    let t = Instant::now();
    let (points, uncertain) = inputs::catalogs(scale);
    out.report.push("datagen.build_ms", micros(t) / 1e3, "ms");
    let inputs = Inputs::generate(spec, scale, seed, &points, 2 * CYCLES);
    let pool = &inputs.pool;

    index_probes(&mut out, pool, &points, &uncertain);
    kernel_probe(&mut out, pool, &uncertain);
    let direct_commit_us =
        write_path_probes(&mut out, spec, &inputs, &points, &scratch.join("probe"))?;

    // The system under test, and a cluster for the router probes: the
    // system itself if it is one, else two single-shard nodes over the
    // same catalogs. Every workload's traced run reports every metric
    // as measured, so a workload without a router still measures what
    // one would cost it.
    let sys = System::start(
        spec,
        points.clone(),
        uncertain.clone(),
        &scratch.join("store"),
    )?;
    let fixture = if sys.is_cluster() {
        None
    } else {
        let cluster_spec = Spec {
            nodes: 2,
            shards: 1,
            checkpoint_every: 0,
            ..*spec
        };
        Some(System::start(
            &cluster_spec,
            points,
            uncertain,
            &scratch.join("unused"),
        )?)
    };
    let cluster = fixture.as_ref().unwrap_or(&sys);
    // The `server.*` probes want a plain server: on a cluster, node 0.
    let server = sys.servers().next().expect("a system has a server");
    let server_addr = sys.node_addrs()[0];

    let mut driver = Driver::connect(&sys, &inputs, cores)?;
    driver.subscribe()?;
    driver.warm_up(4)?;
    let fixed = |load, count| Phase {
        load,
        limit: Limit::Count(count),
        write_rate: 0.0,
        verify_every: u64::MAX,
    };

    let mut replayer = Replayer::new(server);
    let mut conn = Conn::connect(server_addr)?;
    let replay = traced_replay(&mut out, pool, &mut conn, &mut replayer)?;
    codec_probes(
        &mut out,
        server,
        pool,
        &inputs.batches[..CYCLES],
        &mut replayer,
    )?;

    // The ledger: every named share's median self time, and what is
    // left of the round trip.
    let self_times = out.trace.self_times_us();
    let mut ledger: Vec<(String, f64)> = [
        "client.encode",
        "client.decode",
        "protocol.decode_query",
        "serve.execute",
        "pipeline.filter",
        "pipeline.prune",
        "pipeline.refine",
        "protocol.encode_answer",
    ]
    .iter()
    .map(|name| (name.to_string(), self_time(&self_times, name)))
    .collect();
    let wire_overhead_us = replay.traced_us - ledger.iter().map(|(_, us)| us).sum::<f64>();
    ledger.push(("server.wire_overhead_us".to_string(), wire_overhead_us));
    ledger.push(("server.roundtrip_us".to_string(), replay.traced_us));

    let report = &mut out.report;
    report.push("server.ping_rtt_us", ping_rtt_us(&mut conn, 2048)?, "us");
    report.push("server.roundtrip_us", replay.traced_us, "us");
    report.push("server.wire_overhead_us", wire_overhead_us, "us");
    report.push(
        "trace.overhead_ratio",
        replay.traced_us / replay.untraced_us,
        "ratio",
    );
    let mut setup_us = Vec::with_capacity(64);
    for _ in 0..64 {
        let t = Instant::now();
        let fresh = Conn::connect(server_addr)?;
        setup_us.push(micros(t));
        drop(fresh);
    }
    report.push("server.conn_setup_us", median_of(&mut setup_us), "us");

    router_probes(&mut out, cluster, pool)?;
    let report = &mut out.report;

    // The driver's own behaviour, and the process's cost.
    let open = driver.run(fixed(
        Load::Open(spec.open_rate_per_s),
        (spec.open_rate_per_s * scale.probe_seconds) as u64,
    ))?;
    report.push("client.open_late_p99_us", open.late_p99_us, "us");
    report.push("client.lat_open_p50_us", open.lat_p50_us, "us");
    report.push("client.lat_open_p99_us", open.lat_p99_us, "us");
    let (cpu0, ctx0) = (stats::cpu_ms(), stats::context_switches());
    let closed = driver.run(Phase {
        limit: Limit::Seconds(scale.probe_seconds),
        ..fixed(Load::Closed, 0)
    })?;
    report.push(
        "proc.cpu_ms_per_kreq",
        (stats::cpu_ms() - cpu0) / (closed.answered as f64 / 1e3),
        "ms",
    );
    report.push(
        "proc.ctx_switches_per_req",
        (stats::context_switches() - ctx0) as f64 / closed.answered as f64,
        "count",
    );

    // Writes over the wire, through the system's own front door, with
    // the subscriber watching.
    driver.run(Phase {
        load: Load::Quiet,
        limit: Limit::Count(CYCLES as u64),
        write_rate: PROBE_WRITE_RATE,
        verify_every: u64::MAX,
    })?;
    driver.final_checks()?;
    let (front_commit_us, front_fresh_us, _) = driver
        .write_medians()
        .expect("the quiet phase ran its cycles");
    report.push("client.commit_p50_us", front_commit_us, "us");
    report.push("client.fresh_p50_us", front_fresh_us, "us");
    // Then, on the cluster (the system itself or the fixture), each
    // node is sent its own share of the following batches directly,
    // behind the router's back, which is why this comes after the final
    // checks. Like the driver's write cycles, from the other CPU: see
    // `Driver::own_cpu`.
    cores.enter_driver();
    let router_commit_us = match &fixture {
        Some(cluster) => {
            let mut via_router = Conn::connect(cluster.addr)?;
            median_of(&mut wire_commits_us(
                &mut via_router,
                &inputs.batches[..CYCLES],
            )?)
        }
        None => front_commit_us,
    };
    let node_addrs = cluster.node_addrs();
    let mut node_commit_us: Vec<Vec<f64>> = Vec::new();
    for (k, &addr) in node_addrs.iter().enumerate() {
        let shares: Vec<Vec<WireUpdate>> = inputs.batches[CYCLES..2 * CYCLES]
            .iter()
            .map(|batch| share_of(batch, k, node_addrs.len()))
            .collect();
        node_commit_us.push(wire_commits_us(&mut Conn::connect(addr)?, &shares)?);
    }
    cores.enter_servers();
    let mut slowest_node_us: Vec<f64> = (0..CYCLES)
        .map(|c| node_commit_us.iter().map(|n| n[c]).fold(f64::MIN, f64::max))
        .collect();
    report.push(
        "router.commit_overhead_us",
        router_commit_us - median_of(&mut slowest_node_us),
        "us",
    );
    let server_commit_us = if sys.is_cluster() {
        median_of(&mut node_commit_us[0])
    } else {
        front_commit_us
    };
    report.push(
        "server.writer_overhead_us",
        server_commit_us - direct_commit_us,
        "us",
    );
    report.push_exact(
        "server.dropped_pushes",
        stats_of(&mut conn)?.dropped_pushes as f64,
        "count",
    );

    println!(
        "ledger for one {} round trip (median self times, us):",
        spec.name
    );
    for (name, us) in &ledger {
        println!(
            "  {name:<28} {us:>12.3}  {:>5.1} %",
            100.0 * us / replay.traced_us
        );
    }
    let path = home.join("out").join(format!("trace-{}.json", spec.name));
    out.trace.write_json(&path, spec, seed, &ledger)?;
    println!(
        "{} spans written to {}",
        out.trace.spans.len(),
        path.display()
    );

    let Probes {
        report,
        mut failures,
        ..
    } = out;
    let outcome = Outcome {
        report,
        attempted: driver.attempted,
        failed: driver.failed + failures.len() as u64,
        messages: {
            failures.append(&mut driver.messages);
            failures
        },
    };
    drop(driver);
    drop(conn);
    drop(fixture);
    sys.stop()?;
    std::fs::remove_dir_all(&scratch)?;
    Ok(outcome)
}
