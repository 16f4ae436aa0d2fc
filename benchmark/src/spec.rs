//! The four workloads and the constants every run shares. Nothing
//! here is derived at run time: a workload is this table plus a seed.

use std::time::Duration;

/// Seed of the two catalogs (see `inputs::catalogs`).
pub const DATASET_SEED: u64 = 2007;
/// Issuer half-size `u` of every standing query (paper default).
pub const SUB_U: f64 = 250.0;
/// Outstanding requests in the closed phase.
pub const WINDOW: usize = 16;
/// Safe-envelope margin of every standing query.
pub const SUB_SLACK: f64 = 50.0;
/// Write cycles per second of the traced run's write phase, where
/// nothing else is going on.
pub const PROBE_WRITE_RATE: f64 = 100.0;
/// How often a run sets up: once before the timed phases, the rest
/// after them; `setup_s` is the fastest.
pub const SETUP_REPS: usize = 3;
/// The timed phases run this many times round, an equal share of
/// `--seconds` each.
pub const ROUNDS: usize = 25;
/// A metric is the mean of its this many best per-round values: the
/// host slows this machine by half for seconds at a time, in some
/// hours for four seconds in five, and only the rounds it left alone
/// measured the program (see `NOISE.md`).
pub const BEST_ROUNDS: usize = 3;
/// A request or write cycle unanswered for this long has failed, and
/// the run with it: the connection is pipelined, so nothing behind it
/// can be answered either.
pub const OP_DEADLINE: Duration = Duration::from_secs(10);
/// Closed-phase throughput is the median over buckets this long.
pub const BUCKET_SECONDS: f64 = 0.1;

/// What the query stream asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// C-IPQ with this threshold.
    Cipq(f64),
    Ipq,
    Iuq,
    /// 50 % IPQ, 25 % C-IPQ (Qp 0.3), 25 % IUQ.
    Mixed,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Issuer half-size `u` of the query stream.
    pub u: f64,
    /// Range half-size `w`.
    pub w: f64,
    pub mix: Mix,
    /// Shards per server.
    pub shards: usize,
    /// 0: one server. Otherwise a router in front of this many
    /// single-shard nodes.
    pub nodes: usize,
    /// Durable store (fsync always) with a background checkpoint
    /// every this many commits; 0 is a transient server.
    pub checkpoint_every: u64,
    /// Write cycles per second beside the queries, in every phase: one
    /// UPDATE_BATCH + COMMIT on the point catalog, then a PING barrier
    /// on the subscriber connection. 0 is a read-only workload.
    pub write_rate: f64,
    /// Updates per write cycle.
    pub write_batch: usize,
    /// Standing C-IPQ subscriptions on the subscriber connection.
    pub subs: usize,
    /// Arrival rate of the traced run's open phase: a quarter of the `qps_closed` the
    /// commit that added the benchmark measured (see `README.md` for
    /// why not half), two significant digits.
    pub open_rate_per_s: f64,
    /// Times each pool request is issued, one at a time, before the
    /// timed phases: at least 4, and enough for about a second of
    /// traffic at the speed of the commit that added the benchmark. A
    /// shorter warm-up ends before the heap's huge pages are faulted in
    /// and the socket buffers have grown, and the first round pays.
    pub warmup_passes: u64,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "wire_light",
        // Not the paper's 250: with `w` = 100 no object could reach
        // `Qp` = 0.8 (p <= (2w / 2u)^2 = 0.16) and every answer would be
        // empty. At `u` = 100 the centre of the issuer region reaches
        // 1, and an answer carries a handful of matches.
        u: 100.0,
        w: 100.0,
        mix: Mix::Cipq(0.8),
        shards: 1,
        nodes: 0,
        checkpoint_every: 0,
        write_rate: 0.0,
        write_batch: 64,
        subs: 16,
        open_rate_per_s: 70_000.0,
        warmup_passes: 96,
    },
    Spec {
        name: "refine_heavy",
        u: 250.0,
        w: 1500.0,
        mix: Mix::Iuq,
        shards: 4,
        nodes: 0,
        checkpoint_every: 0,
        write_rate: 0.0,
        write_batch: 64,
        subs: 16,
        open_rate_per_s: 600.0,
        warmup_passes: 4,
    },
    Spec {
        name: "churn_durable",
        u: 250.0,
        w: 500.0,
        mix: Mix::Ipq,
        shards: 4,
        nodes: 0,
        checkpoint_every: 64,
        write_rate: 20.0,
        write_batch: 256,
        subs: 64,
        open_rate_per_s: 1_800.0,
        warmup_passes: 12,
    },
    Spec {
        name: "cluster_fanout",
        u: 250.0,
        w: 500.0,
        mix: Mix::Mixed,
        shards: 1,
        nodes: 2,
        checkpoint_every: 0,
        write_rate: 10.0,
        write_batch: 64,
        subs: 16,
        open_rate_per_s: 2_000.0,
        warmup_passes: 10,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }
}

/// Shares of a round given to the idle and closed phases.
pub const PHASE_SHARES: [f64; 2] = [0.4, 0.6];

/// Catalog and pool sizes: paper scale, or a tenth of it for the
/// crate's own test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub points: usize,
    pub rects: usize,
    /// Side of the jittered grid the request pool is drawn on; the
    /// pool holds its square.
    pub pool_side: usize,
    /// Length of the traced run's two timed probes (open-loop
    /// lateness, CPU per request).
    pub probe_seconds: f64,
}

impl Scale {
    pub const PAPER: Scale = Scale {
        points: iloc_datagen::CALIFORNIA_SIZE,
        rects: iloc_datagen::LONG_BEACH_SIZE,
        pool_side: 32,
        probe_seconds: 2.0,
    };
    pub const QUICK: Scale = Scale {
        points: iloc_datagen::CALIFORNIA_SIZE / 10,
        rects: iloc_datagen::LONG_BEACH_SIZE / 10,
        pool_side: 12,
        probe_seconds: 0.25,
    };
}
