//! Standalone query server over the standard datasets.
//!
//! ```text
//! cargo run --release -p iloc-server --bin iloc-server -- [flags]
//!
//! --addr HOST:PORT   bind address        (default 127.0.0.1:7207)
//! --points N         point catalog size  (default 62,556 — California)
//! --uncertain N      uncertain catalog   (default 53,145 — Long Beach)
//! --shards N         shards per catalog  (default 4)
//! --event-loops N    event-loop threads, each multiplexing many
//!                    connections (default 2)
//! --max-connections N  connection capacity across all loops
//!                    (default 16,384; the process raises its own
//!                    RLIMIT_NOFILE toward this before binding)
//! --push-backlog N   per-connection buffered-push byte budget;
//!                    exceeding it closes the subscriber instead of
//!                    silently dropping NOTIFY frames (default 1 MiB)
//! --seed N           dataset seed        (default 2007)
//! --idle-timeout S   reap connections idle for S seconds (default
//!                    300; 0 disables) — abandoned subscriber sockets
//!                    must not pin connection slots; clients keep a
//!                    quiet connection alive with PING
//! --data-dir PATH    durable store directory: every commit is
//!                    write-ahead logged before it publishes, and on
//!                    startup the catalogs recover from the newest
//!                    checkpoint plus log replay (the dataset flags
//!                    only seed a fresh directory)
//! --fsync POLICY     WAL fsync policy: always | every=N | off
//!                    (default always; only with --data-dir)
//! --checkpoint-every N   background-checkpoint a catalog every N
//!                    commits (default 256; 0 disables)
//! --quick            ~10x smaller catalogs (CI smoke)
//! --cluster-node K/N serve node K of an N-node cluster: keep only
//!                    the objects whose id hashes to node K under
//!                    the cluster partition (`shard_of(id, N)`), so
//!                    N such processes behind an `iloc-router` hold
//!                    the standard datasets exactly once (see
//!                    docs/CLUSTER.md)
//! ```
//!
//! Any other argument is refused with exit status 2: a misspelt flag
//! must not quietly serve without the store or policy it asked for.
//!
//! With `--data-dir`, SIGTERM / SIGINT shut down gracefully: stop
//! accepting, drain in-flight frames, fsync the log tail, write a
//! clean checkpoint, exit 0.
//!
//! The process registers the counting global allocator, so its stats
//! frames report real allocation counts — a remote load generator can
//! gate on "zero steady-state allocations per request" without sharing
//! the server's address space (the CI smoke job does).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use iloc_core::durable::FsyncPolicy;
use iloc_core::serve::shard_of;
use iloc_datagen::{california_points, long_beach_rects, uniform_objects};
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_server::args::{die, Args};
use iloc_server::server::{DurabilityOptions, QueryServer, RecoveryInfo, ServerConfig};
use iloc_uncertainty::PointObject;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Set by the signal handler; the main thread polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

// Minimal libc-free signal registration (std has no public API for
// it). `signal(2)` with a plain flag-setting handler is exactly the
// async-signal-safe subset this binary needs.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn main() {
    alloc_count::mark_installed();
    let args = Args::from_env(
        &["--quick"],
        &[
            "--addr",
            "--points",
            "--uncertain",
            "--shards",
            "--event-loops",
            "--max-connections",
            "--push-backlog",
            "--seed",
            "--idle-timeout",
            "--data-dir",
            "--fsync",
            "--checkpoint-every",
            "--cluster-node",
        ],
    );
    let number = |name: &str, default: usize| -> usize { args.parsed(name, default) };

    let quick = args.given("--quick");
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7207").to_string();
    let points = number(
        "--points",
        if quick {
            6_200
        } else {
            iloc_datagen::CALIFORNIA_SIZE
        },
    );
    let uncertain = number(
        "--uncertain",
        if quick {
            5_300
        } else {
            iloc_datagen::LONG_BEACH_SIZE
        },
    );
    let shards = number("--shards", 4);
    let event_loops = number("--event-loops", 2);
    let max_connections = number("--max-connections", 16_384);
    let push_backlog = number("--push-backlog", 1 << 20);
    let seed = number("--seed", 2007) as u64;
    let idle_timeout = match number("--idle-timeout", 300) {
        0 => None,
        secs => Some(Duration::from_secs(secs as u64)),
    };
    let cluster_node = args.value("--cluster-node").map(|v| {
        let parse = || -> Option<(usize, usize)> {
            let (k, n) = v.split_once('/')?;
            let (k, n) = (k.parse().ok()?, n.parse().ok()?);
            (k < n).then_some((k, n))
        };
        parse().unwrap_or_else(|| die(&format!("invalid value for --cluster-node: {v}")))
    });
    let data_dir = args.value("--data-dir").map(String::from);
    let fsync = args
        .value("--fsync")
        .map(|v| {
            FsyncPolicy::parse(v).unwrap_or_else(|| die(&format!("invalid value for --fsync: {v}")))
        })
        .unwrap_or(FsyncPolicy::Always);
    let checkpoint_every = number("--checkpoint-every", 256) as u64;

    eprintln!(
        "building catalogs: {points} points (California), {uncertain} uncertain (Long Beach), \
         {shards} shards"
    );
    let mut point_objects: Vec<PointObject> = california_points(points, seed)
        .into_iter()
        .enumerate()
        .map(|(k, p)| PointObject::new(k as u64, p))
        .collect();
    let mut uncertain_objects = uniform_objects(&long_beach_rects(uncertain, seed + 1));
    if let Some((k, n)) = cluster_node {
        point_objects.retain(|o| shard_of(o.id, n) == k);
        uncertain_objects.retain(|o| shard_of(o.id, n) == k);
        eprintln!(
            "cluster node {k}/{n}: serving {} points, {} uncertain",
            point_objects.len(),
            uncertain_objects.len()
        );
    }

    let server = match data_dir {
        Some(dir) => {
            let durability = DurabilityOptions {
                data_dir: dir.clone().into(),
                fsync,
                checkpoint_every,
            };
            let (server, recovery) =
                QueryServer::open(point_objects, uncertain_objects, shards, &durability)
                    .unwrap_or_else(|e| {
                        eprintln!("durable open failed in {dir}: {e}");
                        std::process::exit(1);
                    });
            report_recovery(&dir, fsync, &recovery);
            server
        }
        None => QueryServer::new(point_objects, uncertain_objects, shards),
    };

    // Each connection is one fd (plus listener, wakers, and any WAL
    // handles); ask the kernel for headroom before binding.
    match iloc_server::poll::raise_nofile_limit(max_connections as u64 + 64) {
        Ok(limit) => {
            if limit < max_connections as u64 + 64 {
                eprintln!(
                    "warning: RLIMIT_NOFILE is {limit}; --max-connections {max_connections} may \
                     hit EMFILE under full load"
                );
            }
        }
        Err(e) => eprintln!("warning: could not read/raise RLIMIT_NOFILE: {e}"),
    }

    let config = ServerConfig {
        addr,
        event_loops,
        max_connections,
        push_backlog,
        idle_timeout,
        ..ServerConfig::loopback()
    };
    let handle = server.start(&config).unwrap_or_else(|e| {
        eprintln!("bind failed: {e}");
        std::process::exit(1);
    });

    // SAFETY contract is the C one: the handler only touches an
    // atomic flag, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }

    // Announce readiness on stdout so wrappers can wait for it.
    println!("listening on {}", handle.addr());

    // Poll instead of joining so the signal flag is honored: on
    // SIGTERM/SIGINT the handle's shutdown drains in-flight frames,
    // flushes the WAL tail and writes a clean final checkpoint.
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("signal received: draining, flushing WAL, writing final checkpoint");
    handle.shutdown();
    eprintln!("clean shutdown");
}

fn report_recovery(dir: &str, fsync: FsyncPolicy, recovery: &RecoveryInfo) {
    for (name, r) in [
        ("point", &recovery.point),
        ("uncertain", &recovery.uncertain),
    ] {
        if r.recovered {
            eprintln!(
                "recovered {name} catalog from {dir}: epoch {} (checkpoint {}, {} batches / {} \
                 updates replayed{}), {} objects, fsync {fsync}",
                r.epoch,
                r.checkpoint_epoch,
                r.replayed_batches,
                r.replayed_updates,
                if r.wal_truncated {
                    ", torn tail truncated"
                } else {
                    ""
                },
                r.objects,
            );
        } else {
            eprintln!(
                "initialized {name} catalog in {dir}: {} objects at epoch {}, fsync {fsync}",
                r.objects, r.epoch,
            );
        }
    }
}
