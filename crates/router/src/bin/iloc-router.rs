//! Standalone cluster router.
//!
//! ```text
//! cargo run --release -p iloc-router --bin iloc-router -- [flags]
//!
//! --addr HOST:PORT   bind address          (default 127.0.0.1:7307)
//! --node HOST:PORT   an upstream iloc-server node; repeatable, at
//!                    least one required. **Order matters**: it
//!                    defines the id-hash partition and the shard
//!                    order of merged commit reports, so every router
//!                    (and restart) must list nodes identically.
//! --event-loops N    event-loop threads    (default 2)
//! --max-connections N  downstream connection capacity (default
//!                    16,384; RLIMIT_NOFILE is raised toward it)
//! --push-backlog N   per-connection buffered-push byte budget
//!                    (default 1 MiB)
//! --upstream-timeout S  per-request read timeout toward nodes, in
//!                    seconds (default 5)
//! --connect-timeout S   deadline for dialing the whole fleet at
//!                    startup, in seconds (default 10)
//! ```
//!
//! Any other argument is refused with exit status 2.
//!
//! The router registers the counting global allocator, so its STATS
//! frames report real allocation counts — the CI cluster-smoke job
//! gates on "zero steady-state allocations per routed query" exactly
//! as it does for the single-node server.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use iloc_router::{Router, RouterConfig};
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_server::args::{die, Args};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Set by the signal handler; the main thread polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

// Minimal libc-free signal registration, same contract as the server
// binary: the handler only flips an atomic flag.
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn main() {
    alloc_count::mark_installed();
    let args = Args::from_env(
        &[],
        &[
            "--addr",
            "--node",
            "--event-loops",
            "--max-connections",
            "--push-backlog",
            "--upstream-timeout",
            "--connect-timeout",
        ],
    );
    let number = |name: &str, default: usize| -> usize { args.parsed(name, default) };

    let addr = args.value("--addr").unwrap_or("127.0.0.1:7307").to_string();
    let nodes: Vec<SocketAddr> = args
        .values("--node")
        .map(|spec| {
            spec.parse()
                .unwrap_or_else(|_| die(&format!("invalid value for --node: {spec}")))
        })
        .collect();
    if nodes.is_empty() {
        die("at least one --node HOST:PORT is required");
    }
    let event_loops = number("--event-loops", 2);
    let max_connections = number("--max-connections", 16_384);
    let push_backlog = number("--push-backlog", 1 << 20);
    let upstream_timeout = Duration::from_secs(number("--upstream-timeout", 5) as u64);
    let connect_timeout = Duration::from_secs(number("--connect-timeout", 10) as u64);

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

    eprintln!("dialing {} cluster node(s)", nodes.len());
    let config = RouterConfig {
        addr,
        nodes,
        event_loops,
        max_connections,
        push_backlog,
        upstream_timeout,
        connect_timeout,
        ..RouterConfig::loopback(Vec::new())
    };
    let handle = Router::start(&config).unwrap_or_else(|e| {
        eprintln!("router start failed: {e}");
        std::process::exit(1);
    });

    // SAFETY contract is the C one: the handler only touches an
    // atomic flag, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }

    // Announce readiness on stdout so wrappers can wait for it.
    println!("routing {} node(s)", handle.node_count());
    println!("listening on {}", handle.addr());

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("signal received: shutting down");
    handle.shutdown();
    eprintln!("clean shutdown");
}
