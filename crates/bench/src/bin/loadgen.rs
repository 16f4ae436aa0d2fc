//! Load generator for the network serving layer.
//!
//! ```text
//! cargo run --release -p iloc-bench --bin loadgen -- [flags]
//!
//! --scenario NAME   net (default): mixed query/update traffic
//!                   subscribers: standing continuous queries ticking
//!                   while an updater commits
//!                   subscribers-c10k: thousands of idle subscriber
//!                   connections multiplexed over a few event loops
//!                   while a small active set ticks under churn
//!                   cluster: the net workload through an iloc-router
//!                   scatter-gathering over N server nodes
//! --addr HOST:PORT  drive an external server (e.g. the `iloc-server`
//!                   binary) — or, for the cluster scenario, an
//!                   external `iloc-router`; without it an in-process
//!                   loopback deployment is spawned
//! --nodes N         cluster nodes behind the in-process router
//!                   (cluster scenario only; default 3)
//! --quick           CI-smoke scale (default: full paper scale)
//! --clients N       query connections / subscribers  (default 4/8)
//! --herd N          idle standing-query connections  (c10k only;
//!                   default 512 quick / 10,000 full, clamped to the
//!                   fd budget and the server's connection capacity)
//! --shards N        shards per catalog           (in-process only)
//! --event-loops N   server event-loop threads    (in-process only)
//! --queries N       queries (ticks) per client in the mixed window
//! --rounds N        update batches during the window
//! --updates N       updates per batch
//! --steady N        queries (ticks) in the alloc-gated steady window
//! --seed N          workload seed (default 2007)
//! --check-allocs    exit non-zero unless the steady window performed
//!                   exactly zero server-side allocations per request
//! --max-p99-ms MS   exit non-zero when the mixed-window p99 round
//!                   trip exceeds MS milliseconds (the c10k CI gate)
//! ```
//!
//! The allocation gate reads the **server's own counter** over the
//! wire (stats frames bracketing the steady window), so it works
//! identically against the in-process server and a separate
//! `iloc-server` process — the CI smoke job runs both scenarios
//! against a real server binary. For the `subscribers` scenario the
//! steady window is a fixed-position tick loop: motion inside the safe
//! envelope with no commits, gated at **zero allocations per tick**.

use std::net::SocketAddr;

use iloc_bench::c10k::{self, C10kConfig};
use iloc_bench::cluster::{self, ClusterConfig};
use iloc_bench::net::{run_against, run_in_process, NetConfig};
use iloc_bench::subscribers::{self, SubscribersConfig};
use iloc_server::alloc_count::{self, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn main() {
    alloc_count::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let number = |name: &str, default: usize| -> usize {
        value(name)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for {name}: {v}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(default)
    };

    let quick = flag("--quick");
    let scenario = value("--scenario").unwrap_or_else(|| "net".to_string());
    match scenario.as_str() {
        "net" => {}
        "subscribers" => {
            run_subscribers(quick, &flag, &value, &number);
            return;
        }
        "subscribers-c10k" => {
            run_c10k(quick, &flag, &value, &number);
            return;
        }
        "cluster" => {
            run_cluster(quick, &flag, &value, &number);
            return;
        }
        other => {
            eprintln!(
                "unknown --scenario {other} (expected: net, subscribers, subscribers-c10k, cluster)"
            );
            std::process::exit(2);
        }
    }

    let mut cfg = if quick {
        NetConfig::quick()
    } else {
        NetConfig::full()
    };
    cfg.clients = number("--clients", cfg.clients);
    cfg.shards = number("--shards", cfg.shards);
    cfg.event_loops = number("--event-loops", cfg.event_loops);
    cfg.points = number("--points", cfg.points);
    cfg.uncertain = number("--uncertain", cfg.uncertain);
    cfg.queries_per_client = number("--queries", cfg.queries_per_client);
    cfg.update_rounds = number("--rounds", cfg.update_rounds);
    cfg.updates_per_round = number("--updates", cfg.updates_per_round);
    cfg.steady_queries = number("--steady", cfg.steady_queries);
    cfg.seed = number("--seed", cfg.seed as usize) as u64;

    let report = match value("--addr") {
        Some(addr) => {
            let addr: SocketAddr = addr.parse().unwrap_or_else(|e| {
                eprintln!("invalid --addr {addr}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "loadgen: driving external server at {addr} with {} clients",
                cfg.clients
            );
            run_against(addr, &cfg)
        }
        None => {
            eprintln!(
                "loadgen: in-process loopback server ({} points, {} uncertain, {} shards, {} event loops)",
                cfg.points,
                cfg.uncertain,
                cfg.shards,
                cfg.server_config().event_loops
            );
            run_in_process(&cfg)
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("loadgen failed: {e}");
        std::process::exit(1);
    });

    println!(
        "net: {} queries from {} clients in {:.3}s -> {:.0} q/s (p50 {:.1}us, p99 {:.1}us)",
        report.queries,
        report.clients,
        report.elapsed.as_secs_f64(),
        report.qps(),
        report.p50.as_secs_f64() * 1e6,
        report.p99.as_secs_f64() * 1e6,
    );
    println!(
        "     {} updates in {} commits interleaved; {} matches returned",
        report.updates_submitted, report.commits, report.results_total
    );
    println!(
        "     server stage split: filter {:.1}ms / prune {:.1}ms / refine {:.1}ms \
         ({:.0}% refine); refine batches {:?}",
        report.stage_filter_nanos as f64 / 1e6,
        report.stage_prune_nanos as f64 / 1e6,
        report.stage_refine_nanos as f64 / 1e6,
        report.refine_share() * 100.0,
        report.refine_batches,
    );
    if report.alloc_counting {
        println!(
            "     steady window: {} queries, {:.3} server allocations/request",
            report.steady_queries, report.steady_allocs_per_request
        );
    } else {
        println!(
            "     steady window: {} queries (server does not count allocations)",
            report.steady_queries
        );
    }

    if flag("--check-allocs") {
        if !report.alloc_counting {
            eprintln!("FAIL: --check-allocs needs a server that counts allocations");
            std::process::exit(1);
        }
        if report.steady_allocs_per_request > 0.0 {
            eprintln!(
                "FAIL: steady-state request path performed {:.3} allocations/request (expected 0)",
                report.steady_allocs_per_request
            );
            std::process::exit(1);
        }
        eprintln!("OK: zero steady-state allocations per request");
    }
}

/// The `cluster` scenario: the `net` workload through an
/// `iloc-router` fanning out to N nodes, gated on the **router's**
/// steady-window allocation counter — the scatter-gather query path
/// must be allocation-free once warm, like the single server's.
fn run_cluster(
    quick: bool,
    flag: &dyn Fn(&str) -> bool,
    value: &dyn Fn(&str) -> Option<String>,
    number: &dyn Fn(&str, usize) -> usize,
) {
    let mut cfg = if quick {
        ClusterConfig::quick()
    } else {
        ClusterConfig::full()
    };
    cfg.nodes = number("--nodes", cfg.nodes);
    cfg.net.clients = number("--clients", cfg.net.clients);
    cfg.net.shards = number("--shards", cfg.net.shards);
    cfg.net.event_loops = number("--event-loops", cfg.net.event_loops);
    cfg.net.points = number("--points", cfg.net.points);
    cfg.net.uncertain = number("--uncertain", cfg.net.uncertain);
    cfg.net.queries_per_client = number("--queries", cfg.net.queries_per_client);
    cfg.net.update_rounds = number("--rounds", cfg.net.update_rounds);
    cfg.net.updates_per_round = number("--updates", cfg.net.updates_per_round);
    cfg.net.steady_queries = number("--steady", cfg.net.steady_queries);
    cfg.net.seed = number("--seed", cfg.net.seed as usize) as u64;

    let report = match value("--addr") {
        Some(addr) => {
            let addr: SocketAddr = addr.parse().unwrap_or_else(|e| {
                eprintln!("invalid --addr {addr}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "cluster: driving external router at {addr} with {} clients",
                cfg.net.clients
            );
            cluster::run_against(addr, &cfg)
        }
        None => {
            eprintln!(
                "cluster: in-process router over {} nodes ({} points, {} uncertain)",
                cfg.nodes, cfg.net.points, cfg.net.uncertain
            );
            cluster::run_in_process(&cfg)
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("cluster loadgen failed: {e}");
        std::process::exit(1);
    });

    let net = &report.net;
    println!(
        "cluster: {} queries from {} clients in {:.3}s -> {:.0} q/s (p50 {:.1}us, p99 {:.1}us)",
        net.queries,
        net.clients,
        net.elapsed.as_secs_f64(),
        net.qps(),
        net.p50.as_secs_f64() * 1e6,
        net.p99.as_secs_f64() * 1e6,
    );
    println!(
        "     {} updates in {} commits interleaved; {} matches returned",
        net.updates_submitted, net.commits, net.results_total
    );
    for (i, node) in report.nodes.iter().enumerate() {
        println!(
            "     node {i}: {} epochs point/uncertain {}/{}, {} routed, {} merged",
            if node.connected { "up," } else { "DOWN," },
            node.point_epoch,
            node.uncertain_epoch,
            node.routed,
            node.merged,
        );
    }
    if net.alloc_counting {
        println!(
            "     steady window: {} queries, {:.3} router allocations/request",
            net.steady_queries, net.steady_allocs_per_request
        );
    } else {
        println!(
            "     steady window: {} queries (router does not count allocations)",
            net.steady_queries
        );
    }

    if report.nodes.iter().any(|n| !n.connected) {
        eprintln!("FAIL: a cluster node went unhealthy during the run");
        std::process::exit(1);
    }
    if flag("--check-allocs") {
        if !net.alloc_counting {
            eprintln!("FAIL: --check-allocs needs a router that counts allocations");
            std::process::exit(1);
        }
        if net.steady_allocs_per_request > 0.0 {
            eprintln!(
                "FAIL: steady-state scatter-gather path performed {:.3} allocations/request \
                 (expected 0)",
                net.steady_allocs_per_request
            );
            std::process::exit(1);
        }
        eprintln!("OK: zero steady-state allocations per routed request");
    }
}

/// The `subscribers` scenario: standing continuous queries ticking
/// along random walks while an updater commits churn, with a steady
/// fixed-position tick window gated at zero server allocations.
fn run_subscribers(
    quick: bool,
    flag: &dyn Fn(&str) -> bool,
    value: &dyn Fn(&str) -> Option<String>,
    number: &dyn Fn(&str, usize) -> usize,
) {
    let mut cfg = if quick {
        SubscribersConfig::quick()
    } else {
        SubscribersConfig::full()
    };
    cfg.subscribers = number("--clients", cfg.subscribers);
    cfg.shards = number("--shards", cfg.shards);
    cfg.event_loops = number("--event-loops", cfg.event_loops);
    cfg.points = number("--points", cfg.points);
    cfg.ticks_per_sub = number("--queries", cfg.ticks_per_sub);
    cfg.update_rounds = number("--rounds", cfg.update_rounds);
    cfg.updates_per_round = number("--updates", cfg.updates_per_round);
    cfg.steady_ticks = number("--steady", cfg.steady_ticks);
    cfg.seed = number("--seed", cfg.seed as usize) as u64;

    let report = match value("--addr") {
        Some(addr) => {
            let addr: SocketAddr = addr.parse().unwrap_or_else(|e| {
                eprintln!("invalid --addr {addr}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "subscribers: driving external server at {addr} with {} standing queries",
                cfg.subscribers
            );
            subscribers::run_against(addr, &cfg)
        }
        None => {
            eprintln!(
                "subscribers: in-process loopback server ({} points, {} shards, {} event loops)",
                cfg.points,
                cfg.shards,
                if cfg.event_loops > 0 {
                    cfg.event_loops
                } else {
                    iloc_server::server::ServerConfig::loopback().event_loops
                }
            );
            subscribers::run_in_process(&cfg)
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("subscribers loadgen failed: {e}");
        std::process::exit(1);
    });

    println!(
        "subscribers: {} ticks from {} standing queries in {:.3}s -> {:.0} ticks/s \
         (p50 {:.1}us, p99 {:.1}us)",
        report.ticks,
        report.subscribers,
        report.elapsed.as_secs_f64(),
        report.ticks_per_sec(),
        report.p50.as_secs_f64() * 1e6,
        report.p99.as_secs_f64() * 1e6,
    );
    println!(
        "     {} updates in {} commits interleaved; {} pushed NOTIFYs, {} delta entries applied",
        report.updates_submitted, report.commits, report.pushes, report.delta_entries
    );
    if report.alloc_counting {
        println!(
            "     steady window: {} ticks, {:.3} server allocations/tick",
            report.steady_ticks, report.steady_allocs_per_tick
        );
    } else {
        println!(
            "     steady window: {} ticks (server does not count allocations)",
            report.steady_ticks
        );
    }

    if flag("--check-allocs") {
        if !report.alloc_counting {
            eprintln!("FAIL: --check-allocs needs a server that counts allocations");
            std::process::exit(1);
        }
        if report.steady_allocs_per_tick > 0.0 {
            eprintln!(
                "FAIL: steady-state tick path performed {:.3} allocations/tick (expected 0)",
                report.steady_allocs_per_tick
            );
            std::process::exit(1);
        }
        eprintln!("OK: zero steady-state allocations per tick");
    }
}

/// The `subscribers-c10k` scenario: an idle herd of standing-query
/// connections multiplexed over a few event loops while a small
/// active set ticks under commit churn; gated on steady allocations
/// per tick and (optionally) mixed-window p99.
fn run_c10k(
    quick: bool,
    flag: &dyn Fn(&str) -> bool,
    value: &dyn Fn(&str) -> Option<String>,
    number: &dyn Fn(&str, usize) -> usize,
) {
    let mut cfg = if quick {
        C10kConfig::quick()
    } else {
        C10kConfig::full()
    };
    cfg.herd = number("--herd", cfg.herd);
    cfg.active = number("--clients", cfg.active);
    cfg.shards = number("--shards", cfg.shards);
    cfg.event_loops = number("--event-loops", cfg.event_loops);
    cfg.points = number("--points", cfg.points);
    cfg.ticks_per_active = number("--queries", cfg.ticks_per_active);
    cfg.update_rounds = number("--rounds", cfg.update_rounds);
    cfg.updates_per_round = number("--updates", cfg.updates_per_round);
    cfg.steady_ticks = number("--steady", cfg.steady_ticks);
    cfg.seed = number("--seed", cfg.seed as usize) as u64;

    let report = match value("--addr") {
        Some(addr) => {
            let addr: SocketAddr = addr.parse().unwrap_or_else(|e| {
                eprintln!("invalid --addr {addr}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "c10k: driving external server at {addr} with a {}-connection herd",
                cfg.herd
            );
            c10k::run_against(addr, &cfg)
        }
        None => {
            eprintln!(
                "c10k: in-process loopback server ({} points, {} shards, {} event loops, \
                 herd target {})",
                cfg.points, cfg.shards, cfg.event_loops, cfg.herd
            );
            c10k::run_in_process(&cfg)
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("c10k loadgen failed: {e}");
        std::process::exit(1);
    });

    println!(
        "c10k: {} idle subscribers over {} event loops (server gauge {}), \
         herd setup {:.3}s",
        report.herd,
        report.server_event_loops,
        report.server_connections,
        report.setup.as_secs_f64(),
    );
    println!(
        "     {} ticks from {} active subscribers in {:.3}s -> {:.0} ticks/s \
         (p50 {:.1}us, p99 {:.1}us)",
        report.ticks,
        report.active,
        report.elapsed.as_secs_f64(),
        report.ticks_per_sec(),
        report.p50.as_secs_f64() * 1e6,
        report.p99.as_secs_f64() * 1e6,
    );
    println!(
        "     {} updates in {} commits interleaved; {} pushed NOTIFYs to active subs; \
         {} pushes dropped server-side",
        report.updates_submitted, report.commits, report.pushes, report.dropped_pushes
    );
    if report.alloc_counting {
        println!(
            "     steady window: {} ticks with the herd connected, {:.3} server allocations/tick",
            report.steady_ticks, report.steady_allocs_per_tick
        );
    } else {
        println!(
            "     steady window: {} ticks (server does not count allocations)",
            report.steady_ticks
        );
    }

    if report.dropped_pushes > 0 {
        eprintln!(
            "FAIL: server dropped {} pushes on an idle herd (expected 0)",
            report.dropped_pushes
        );
        std::process::exit(1);
    }
    if let Some(max_ms) = value("--max-p99-ms") {
        let max_ms: f64 = max_ms.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --max-p99-ms: {max_ms}");
            std::process::exit(2);
        });
        let p99_ms = report.p99.as_secs_f64() * 1e3;
        if p99_ms > max_ms {
            eprintln!("FAIL: mixed-window tick p99 {p99_ms:.2}ms exceeds the {max_ms:.2}ms gate");
            std::process::exit(1);
        }
        eprintln!("OK: tick p99 {p99_ms:.2}ms within the {max_ms:.2}ms gate");
    }
    if flag("--check-allocs") {
        if !report.alloc_counting {
            eprintln!("FAIL: --check-allocs needs a server that counts allocations");
            std::process::exit(1);
        }
        if report.steady_allocs_per_tick > 0.0 {
            eprintln!(
                "FAIL: steady-state tick path performed {:.3} allocations/tick with the herd \
                 connected (expected 0)",
                report.steady_allocs_per_tick
            );
            std::process::exit(1);
        }
        eprintln!("OK: zero steady-state allocations per tick with the herd connected");
    }
}
