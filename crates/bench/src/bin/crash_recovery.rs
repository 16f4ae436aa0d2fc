//! Crash-recovery smoke: SIGKILL a durable server mid-stream, restart
//! it, and prove the recovered catalog answers **bit-identically** to
//! a clean engine that applied the same committed prefix.
//!
//! ```text
//! cargo run --release -p iloc-bench --bin crash_recovery -- [flags]
//!
//! --server PATH       iloc-server binary (default: sibling of this
//!                     binary in the same target directory)
//! --data-dir PATH     durable store (default: fresh temp directory,
//!                     removed on success)
//! --points N          point catalog size   (default 6,200)
//! --uncertain N       uncertain catalog    (default 5,300)
//! --shards N          shards per catalog   (default 4)
//! --batch N           updates per commit   (default 64)
//! --max-batches N     stream length cap    (default 4,096)
//! --kill-after-ms MS  SIGKILL delay        (default 500)
//! --fsync POLICY      always | every=N | off (default always)
//! --seed N            dataset seed         (default 2007)
//! ```
//!
//! The run:
//!
//! 1. starts `iloc-server --data-dir` on an ephemeral port and opens a
//!    [`ResilientClient`] with one standing subscription (fresh store,
//!    so its SUB_ACK must report recovered epoch 0);
//! 2. streams deterministic update batches (submit + commit per epoch)
//!    on a second connection while a killer thread SIGKILLs the server
//!    process mid-stream — the kill races WAL appends, fsyncs and
//!    epoch publishes, exactly the torn states recovery must handle;
//! 3. restarts the server on the **same port** against the same data
//!    directory; the next resilient query transparently reconnects and
//!    re-subscribes, and the SUB_ACK's recovered epoch `R` tells us
//!    which prefix survived (`acked ≤ R ≤ attempted` under
//!    `--fsync always`: every acknowledged commit is durable, plus at
//!    most the one that was in flight when the kill landed);
//! 4. rebuilds a reference in-process server from the same seed and
//!    applies the first `R` deterministic batches, then runs a mixed
//!    IPQ/C-IPQ/IUQ pool against both servers and compares every match
//!    id and probability **by f64 bit pattern**;
//! 5. commits one more batch to the recovered server (epoch must
//!    continue at `R + 1`) and stops it with SIGTERM, asserting a
//!    clean exit 0 (drain, WAL flush, final checkpoint).
//!
//! Exit status 0 means every assertion held; any mismatch prints the
//! offending query and exits 1.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, SystemTime};

use iloc_bench::loadgen::{catalogs, point_pool, to_wire, uncertain_pool};
use iloc_bench::ResilientClient;
use iloc_core::QueryAnswer;
use iloc_datagen::{PointUpdate, PointUpdateGen, UpdateMix};
use iloc_server::args::Args;
use iloc_server::client::Client;
use iloc_server::protocol::CommitTarget;
use iloc_server::server::{QueryServer, ServerConfig};

/// Uncertain requests compared (the head of the loadgen pool): IUQ and
/// C-IUQ refine an order of magnitude slower than the point queries.
const UNCERTAIN_COMPARED: usize = 12;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

struct Config {
    server_bin: PathBuf,
    data_dir: PathBuf,
    ephemeral_dir: bool,
    points: usize,
    uncertain: usize,
    shards: usize,
    batch: usize,
    max_batches: usize,
    kill_after: Duration,
    fsync: String,
    seed: u64,
}

fn parse_config() -> Config {
    let args = Args::from_env(
        &[],
        &[
            "--server",
            "--data-dir",
            "--points",
            "--uncertain",
            "--shards",
            "--batch",
            "--max-batches",
            "--kill-after-ms",
            "--fsync",
            "--seed",
        ],
    );
    let server_bin = args
        .value("--server")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            std::env::current_exe()
                .expect("current exe")
                .parent()
                .expect("exe dir")
                .join("iloc-server")
        });
    let (data_dir, ephemeral_dir) = match args.value("--data-dir") {
        Some(dir) => (PathBuf::from(dir), false),
        None => {
            let nanos = SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0);
            let dir = std::env::temp_dir().join(format!(
                "iloc-crash-recovery-{}-{nanos}",
                std::process::id()
            ));
            (dir, true)
        }
    };
    Config {
        server_bin,
        data_dir,
        ephemeral_dir,
        points: args.parsed("--points", 6_200),
        uncertain: args.parsed("--uncertain", 5_300),
        shards: args.parsed("--shards", 4),
        batch: args.parsed("--batch", 64),
        max_batches: args.parsed("--max-batches", 4_096),
        kill_after: Duration::from_millis(args.parsed("--kill-after-ms", 500)),
        fsync: args.value("--fsync").unwrap_or("always").to_string(),
        seed: args.parsed("--seed", 2007),
    }
}

/// Spawns the server binary and blocks until it announces its bound
/// address on stdout ("listening on ADDR").
fn spawn_server(cfg: &Config, addr: &str) -> (Child, SocketAddr) {
    let mut child = Command::new(&cfg.server_bin)
        .arg("--addr")
        .arg(addr)
        .arg("--points")
        .arg(cfg.points.to_string())
        .arg("--uncertain")
        .arg(cfg.uncertain.to_string())
        .arg("--shards")
        .arg(cfg.shards.to_string())
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .arg("--data-dir")
        .arg(&cfg.data_dir)
        .arg("--fsync")
        .arg(&cfg.fsync)
        .arg("--checkpoint-every")
        .arg("64")
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("failed to spawn {}: {e}", cfg.server_bin.display());
            std::process::exit(2);
        });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let bound = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(rest) = line.strip_prefix("listening on ") {
                    break rest.trim().parse::<SocketAddr>().expect("bound address");
                }
            }
            _ => {
                eprintln!("server exited before announcing its address");
                std::process::exit(2);
            }
        }
    };
    // Drain the rest of stdout in the background so the server never
    // blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, bound)
}

/// The deterministic update stream: batch `k` is always identical for
/// a given seed/catalog size, so "apply the first R batches" is a
/// complete description of any recovered state.
fn make_batches(cfg: &Config) -> Vec<Vec<PointUpdate>> {
    let (_, mut gen) = PointUpdateGen::over_california(cfg.points, cfg.seed, UpdateMix::balanced());
    (0..cfg.max_batches)
        .map(|_| gen.stream(cfg.batch))
        .collect()
}

/// Bit-exact comparison: same ids in the same order, and every
/// probability is the same 64-bit pattern — not "close", identical.
fn same_answer(a: &QueryAnswer, b: &QueryAnswer) -> bool {
    a.results.len() == b.results.len()
        && a.results
            .iter()
            .zip(&b.results)
            .all(|(x, y)| x.id == y.id && x.probability.to_bits() == y.probability.to_bits())
}

fn wait_exit(child: &mut Child) -> ExitStatus {
    child.wait().expect("wait on server process")
}

fn main() {
    let cfg = parse_config();
    std::fs::create_dir_all(&cfg.data_dir).expect("create data dir");
    let batches = make_batches(&cfg);

    // --- Phase 1: fresh durable server + standing subscription -------
    let (child1, addr) = spawn_server(&cfg, "127.0.0.1:0");
    eprintln!("server up at {addr}, data dir {}", cfg.data_dir.display());
    let mut resilient = ResilientClient::connect(addr, CONNECT_TIMEOUT).expect("connect");
    let sub_req = point_pool(cfg.seed + 101)[0].clone();
    let (ack, _) = resilient.subscribe_point(&sub_req, 0.0).expect("subscribe");
    assert_eq!(
        ack.recovered_epoch, 0,
        "fresh durable store must report recovered epoch 0"
    );

    // --- Phase 2: stream commits, SIGKILL mid-stream -----------------
    let killer = {
        let mut child = child1;
        let delay = cfg.kill_after;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            let _ = child.kill();
            wait_exit(&mut child)
        })
    };
    let mut driver = Client::connect_retry(addr, CONNECT_TIMEOUT).expect("driver connect");
    let mut acked: u64 = 0;
    let mut attempted: u64 = 0;
    for batch in &batches {
        let wire = to_wire(batch);
        if driver.submit(&wire).is_err() {
            break;
        }
        attempted += 1;
        match driver.commit(CommitTarget::Point) {
            Ok(report) => acked = report.epoch,
            Err(_) => break,
        }
    }
    let status = killer.join().expect("killer thread");
    assert!(
        !status.success(),
        "server was SIGKILLed; it must not report a clean exit"
    );
    if attempted as usize >= batches.len() {
        eprintln!(
            "warning: stream exhausted before the kill landed; \
             raise --max-batches or lower --kill-after-ms"
        );
    }
    eprintln!("killed mid-stream: {acked} commits acked, {attempted} attempted");

    // --- Phase 3: restart on the same port, heal the client ----------
    let (mut child2, addr2) = spawn_server(&cfg, &addr.to_string());
    assert_eq!(addr2, addr, "restart must reuse the port");
    // The next query transparently reconnects and re-subscribes; the
    // re-subscription's SUB_ACK carries the recovered epoch.
    resilient
        .point_query(&sub_req)
        .expect("query after restart");
    let recovered = resilient.last_recovered_epoch();
    assert!(
        resilient.reconnects() >= 1,
        "the restart must have forced a reconnect"
    );
    if cfg.fsync == "always" {
        assert!(
            recovered >= acked,
            "fsync=always lost acknowledged commits: recovered epoch \
             {recovered} < acked {acked}"
        );
    }
    assert!(
        recovered <= attempted,
        "recovered epoch {recovered} exceeds the {attempted} commits ever attempted"
    );
    eprintln!(
        "recovered at epoch {recovered} after {} reconnect(s)",
        resilient.reconnects()
    );

    // --- Phase 4: bit-identical comparison against a clean rebuild ---
    let reference = {
        let (points, uncertain) = catalogs(cfg.points, cfg.uncertain, cfg.seed, 1).remove(0);
        QueryServer::new(points, uncertain, cfg.shards)
    };
    let ref_handle = reference
        .start(&ServerConfig::loopback())
        .expect("reference server");
    let mut ref_client = Client::connect_retry(ref_handle.addr(), CONNECT_TIMEOUT).expect("ref");
    for batch in &batches[..recovered as usize] {
        ref_client.submit(&to_wire(batch)).expect("ref submit");
        ref_client.commit(CommitTarget::Point).expect("ref commit");
    }

    let live = resilient.raw().expect("live connection");
    let mut got = QueryAnswer::default();
    let mut want = QueryAnswer::default();
    let mut mismatches = 0usize;
    let mut compared = 0usize;
    for req in &point_pool(cfg.seed + 7) {
        live.query_into(req, &mut got).expect("recovered query");
        ref_client
            .query_into(req, &mut want)
            .expect("reference query");
        compared += 1;
        if !same_answer(&got, &want) {
            mismatches += 1;
            eprintln!(
                "MISMATCH on point request #{compared}: recovered {} matches, reference {}",
                got.results.len(),
                want.results.len()
            );
        }
    }
    for req in &uncertain_pool(cfg.seed + 13)[..UNCERTAIN_COMPARED] {
        live.query_into(req, &mut got).expect("recovered query");
        ref_client
            .query_into(req, &mut want)
            .expect("reference query");
        compared += 1;
        if !same_answer(&got, &want) {
            mismatches += 1;
            eprintln!("MISMATCH on uncertain request #{compared}");
        }
    }
    ref_handle.shutdown();
    if mismatches > 0 {
        eprintln!("{mismatches}/{compared} queries diverged after recovery");
        std::process::exit(1);
    }
    eprintln!("{compared} queries compared bit-identically");

    // --- Phase 5: epochs continue, then graceful SIGTERM -------------
    let next = &batches[recovered as usize];
    live.submit(&to_wire(next)).expect("post-recovery submit");
    let report = live
        .commit(CommitTarget::Point)
        .expect("post-recovery commit");
    assert_eq!(
        report.epoch,
        recovered + 1,
        "epochs must continue where recovery left off"
    );

    let term = Command::new("kill")
        .arg("-TERM")
        .arg(child2.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let status = wait_exit(&mut child2);
    assert!(
        status.success(),
        "SIGTERM must produce a clean exit 0, got {status}"
    );
    eprintln!("graceful shutdown confirmed (exit 0)");

    if cfg.ephemeral_dir {
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }
    println!(
        "crash-recovery-smoke ok: acked={acked} attempted={attempted} \
         recovered={recovered} compared={compared}"
    );
}
