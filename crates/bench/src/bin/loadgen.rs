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
//! --quick           CI-smoke scale (default: full paper scale); against
//!                   --addr, give it when the server was given it
//! --clients N       query connections / active subscribers (default
//!                   4 quick / 8 full)
//! --herd N          idle standing-query connections (subscribers-c10k
//!                   only; default 512 quick / 10,000 full, clamped to
//!                   the fd budget and the server's connection capacity)
//! --nodes N         cluster nodes behind the in-process router
//!                   (cluster only, in-process only; default 3)
//! --shards N        shards per catalog           (in-process only)
//! --event-loops N   server event-loop threads    (in-process only)
//! --queries N       queries (ticks) per client in the mixed window
//! --rounds N        update batches during the window
//! --updates N       updates per batch
//! --steady N        queries (ticks) in the alloc-gated steady window
//! --seed N          workload seed (default 2007)
//! --check-allocs    exit non-zero unless the steady window performed
//!                   exactly zero front-end allocations per operation
//! --max-p99-ms MS   exit non-zero when the mixed-window p99 round
//!                   trip exceeds MS milliseconds
//! ```
//!
//! An argument that is not in this list, or that does not apply to the
//! chosen scenario or target, exits with status 2: a gate that a typo
//! switched off must not leave a job green. Two more gates need no
//! flag — a cluster node that went unhealthy and a dropped push fail
//! any run that reports them.
//!
//! The allocation gate reads the **front end's own counter** over the
//! wire (stats frames bracketing the steady window), so it works
//! identically against the in-process deployment and separate
//! `iloc-server` / `iloc-router` processes — the CI smoke jobs run
//! every scenario against real binaries. See [`iloc_bench::loadgen`]
//! for what a scenario is and what a run measures.

use std::net::SocketAddr;

use iloc_bench::loadgen::{run, FrontEnd, Op, Report, Scenario, SCENARIOS};
use iloc_server::alloc_count::{self, CountingAllocator};
use iloc_server::args::{die, Args};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const SWITCHES: [&str; 2] = ["--quick", "--check-allocs"];
const VALUED: [&str; 13] = [
    "--scenario",
    "--addr",
    "--clients",
    "--herd",
    "--nodes",
    "--shards",
    "--event-loops",
    "--queries",
    "--rounds",
    "--updates",
    "--steady",
    "--seed",
    "--max-p99-ms",
];

/// Flags that shape the in-process deployment, so mean nothing beside
/// `--addr`.
const IN_PROCESS_ONLY: [&str; 3] = ["--nodes", "--shards", "--event-loops"];

/// Maps the command line onto the named preset.
fn scenario(args: &Args, name: &str, external: bool) -> Scenario {
    let preset = Scenario::preset(name, args.given("--quick")).unwrap_or_else(|| {
        die(&format!(
            "unknown --scenario {name} (expected: {})",
            SCENARIOS.join(", ")
        ))
    });
    for flag in IN_PROCESS_ONLY {
        if external && args.given(flag) {
            die(&format!(
                "{flag} shapes the in-process deployment; it does not apply with --addr"
            ));
        }
    }
    if args.given("--herd") && preset.herd == 0 {
        die(&format!("--herd does not apply to --scenario {name}"));
    }
    let front = match preset.front {
        FrontEnd::Router { nodes } => FrontEnd::Router {
            nodes: args.parsed("--nodes", nodes),
        },
        FrontEnd::Server if args.given("--nodes") => {
            die(&format!("--nodes does not apply to --scenario {name}"))
        }
        FrontEnd::Server => FrontEnd::Server,
    };
    Scenario {
        front,
        clients: args.parsed("--clients", preset.clients),
        herd: args.parsed("--herd", preset.herd),
        shards: args.parsed("--shards", preset.shards),
        event_loops: args.parsed("--event-loops", preset.event_loops),
        ops_per_client: args.parsed("--queries", preset.ops_per_client),
        update_rounds: args.parsed("--rounds", preset.update_rounds),
        updates_per_round: args.parsed("--updates", preset.updates_per_round),
        steady_ops: args.parsed("--steady", preset.steady_ops),
        seed: args.parsed("--seed", preset.seed),
        ..preset
    }
}

fn print(name: &str, report: &Report) {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let (ops, actors) = match report.op {
        Op::Query => ("queries", "clients"),
        Op::Tick { .. } => ("ticks", "standing queries"),
    };
    println!(
        "{name}: {} {ops} from {} {actors} in {:.3}s -> {:.0} {ops}/s (p50 {:.1}us, p99 {:.1}us)",
        report.ops,
        report.clients,
        report.elapsed.as_secs_f64(),
        report.ops_per_sec(),
        us(report.p50),
        us(report.p99),
    );
    if report.herd > 0 {
        println!(
            "     {} idle subscribers over {} event loops (connection gauge {}), \
             herd setup {:.3}s",
            report.herd,
            report.stats.event_loops,
            report.herd_connections,
            report.herd_setup.as_secs_f64(),
        );
    }
    print!(
        "     {} updates in {} commits interleaved; ",
        report.updates_submitted, report.commits
    );
    match report.op {
        Op::Query => {
            println!("{} matches returned", report.results_total);
            println!(
                "     stage split: filter {:.1}ms / prune {:.1}ms / refine {:.1}ms \
                 ({:.0}% refine); refine batches {:?}",
                report.stats.filter_nanos as f64 / 1e6,
                report.stats.prune_nanos as f64 / 1e6,
                report.stats.refine_nanos as f64 / 1e6,
                report.refine_share() * 100.0,
                report.stats.refine_batches,
            );
        }
        Op::Tick { .. } => println!(
            "{} pushed NOTIFYs, {} delta entries applied, {} pushes dropped",
            report.pushes, report.delta_entries, report.dropped_pushes
        ),
    }
    for (i, node) in report.stats.nodes.iter().enumerate() {
        println!(
            "     node {i}: {} epochs point/uncertain {}/{}, {} routed, {} merged",
            if node.connected { "up," } else { "DOWN," },
            node.point_epoch,
            node.uncertain_epoch,
            node.routed,
            node.merged,
        );
    }
    match report.steady_allocs_per_op {
        Some(allocs) => println!(
            "     steady window: {} {ops}, {allocs:.3} allocations per {}",
            report.steady_ops,
            report.unit()
        ),
        None => println!(
            "     steady window: {} {ops} (the front end does not count allocations)",
            report.steady_ops
        ),
    }
}

fn main() {
    alloc_count::mark_installed();
    let args = Args::from_env(&SWITCHES, &VALUED);
    let name = args.value("--scenario").unwrap_or("net");
    let addr: Option<SocketAddr> = args.value("--addr").map(|addr| {
        addr.parse()
            .unwrap_or_else(|e| die(&format!("invalid --addr {addr}: {e}")))
    });
    let max_p99_ms: Option<f64> = args.optional("--max-p99-ms");
    let scenario = scenario(&args, name, addr.is_some());

    match addr {
        Some(addr) => eprintln!("loadgen: {name} against {addr}: {scenario:?}"),
        None => eprintln!("loadgen: {name} against an in-process deployment: {scenario:?}"),
    }
    let report = run(addr, &scenario).unwrap_or_else(|e| {
        eprintln!("loadgen {name} failed: {e}");
        std::process::exit(1);
    });
    print(name, &report);

    match report.gate(args.given("--check-allocs"), max_p99_ms) {
        Ok(held) => held.iter().for_each(|line| eprintln!("OK: {line}")),
        Err(failure) => {
            eprintln!("FAIL: {failure}");
            std::process::exit(1);
        }
    }
}
