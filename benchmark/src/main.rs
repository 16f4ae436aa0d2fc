//! `iloc-benchmark`: one workload per process, measured end to end
//! (`--trace 0`) or layer by layer (`--trace 1`). See `README.md`.

mod affinity;
mod inputs;
mod layers;
mod load;
mod spec;
mod stats;
mod system;
mod trace;
mod wire;

use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use iloc_server::alloc_count::{self, CountingAllocator};

use affinity::Cores;
use inputs::Inputs;
use load::{Driver, Limit, Load, Phase};
use spec::{Scale, Spec, BEST_ROUNDS, PHASE_SHARES, ROUNDS, SETUP_REPS, WORKLOADS};
use stats::{best_mean, Outcome, Report};
use system::{scratch_dir, System};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Where runs keep their store directories and traces: `benchmark/`
/// under the directory the command is run from.
const HOME: &str = "benchmark";

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
    format!(
        "usage: iloc-benchmark --workload <{}> [--seed 2007] [--seconds 25] [--trace 0|1] [--quick]\n       iloc-benchmark --list",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: &WORKLOADS[0],
        seed: 2007,
        seconds: 25.0,
        trace: false,
        scale: Scale::PAPER,
    };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.spec =
                    Spec::by_name(&name).ok_or(format!("unknown workload {name}\n{}", usage()))?;
                named = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.scale = Scale::QUICK,
            "--list" => {
                for spec in &WORKLOADS {
                    println!("{}", spec.name);
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !named {
        return Err(usage());
    }
    Ok(args)
}

/// One value per round of each thing the end-to-end run reports.
#[derive(Default)]
struct Rounds {
    qps: Vec<f64>,
    idle_p50: Vec<f64>,
}

/// A system listening, and the traffic of the run; what a set-up has
/// built before it connects.
struct Served {
    inputs: Inputs,
    sys: System,
    /// Seconds from the set-up's start until the catalogs and the
    /// traffic were generated, and until the servers were listening.
    generated_s: f64,
    listening_s: f64,
}

/// The first steps of a set-up that began at `t0`: datasets generated,
/// the run's traffic generated from the seed, indexes built, store
/// opened (in a directory of its own, named after `rep`), listening.
fn serve(args: &Args, rep: usize, t0: Instant) -> io::Result<Served> {
    let spec = args.spec;
    let cycles = (args.seconds * spec.write_rate).ceil() as usize;
    let (points, uncertain) = inputs::catalogs(args.scale);
    let inputs = Inputs::generate(spec, args.scale, args.seed, &points, cycles);
    let generated_s = t0.elapsed().as_secs_f64();
    let store = scratch_dir(Path::new(HOME), spec, &rep.to_string());
    let sys = System::start(spec, points, uncertain, &store)?;
    Ok(Served {
        inputs,
        sys,
        generated_s,
        listening_s: t0.elapsed().as_secs_f64(),
    })
}

/// The last steps of a set-up: connect, register the standing queries,
/// warm up (every answer of the first pass checked).
fn warm_driver(served: &Served, cores: Cores, passes: u64) -> io::Result<Driver<'_>> {
    let mut driver = Driver::connect(&served.sys, &served.inputs, cores)?;
    driver.subscribe()?;
    driver.warm_up(passes)?;
    Ok(driver)
}

/// The end-to-end run: set up, run the timed phases, tear down, then
/// set up and tear down `SETUP_REPS - 1` times more for `setup_s`.
/// `started` is when the process began.
fn measure(args: &Args, started: Instant) -> io::Result<Outcome> {
    let spec = args.spec;
    let cores = Cores::pick();
    cores.enter_servers();
    let [idle_share, closed_share] = PHASE_SHARES;
    let round_seconds = args.seconds / ROUNDS as f64;

    // Set-up, start to warm: from the start of the process to the last
    // warm-up answer.
    let served = serve(args, 0, started)?;
    let mut driver = warm_driver(&served, cores, spec.warmup_passes)?;
    let first_s = started.elapsed().as_secs_f64();
    let mut setup_s = vec![first_s];

    // The phases run in rounds, and a metric is the mean of its best
    // `BEST_ROUNDS` per-round values. The machine under this benchmark
    // has noisy neighbours: for seconds at a time everything takes half
    // as long again, in a bad hour for most of a run. Noise of that kind
    // only ever adds time, so the rounds it left alone are the ones that
    // measured the program; a slower program is slower in those too.
    let write_rate = spec.write_rate;
    let mut rounds = Rounds::default();
    let (mut idle_n, mut closed_n) = (0, 0);
    for _ in 0..ROUNDS {
        let idle = driver.run(Phase {
            load: Load::Idle,
            limit: Limit::Seconds(round_seconds * idle_share),
            write_rate,
            verify_every: 64,
        })?;
        let closed = driver.run(Phase {
            load: Load::Closed,
            limit: Limit::Seconds(round_seconds * closed_share),
            write_rate,
            verify_every: 256,
        })?;
        rounds.qps.push(closed.qps);
        rounds.idle_p50.push(idle.lat_p50_us);
        idle_n += idle.answered;
        closed_n += closed.answered;
    }
    driver.final_checks()?;
    // Before the set-ups that follow: what they leave on the heap is
    // the benchmark's, not the program's, and differs from run to run.
    let rss_peak_mb = stats::rss_peak_mb();
    // Not end-to-end metrics (see `NOISE.md`): the traced run reports a
    // write cycle as `client.commit_p50_us` and `client.fresh_p50_us`.
    if let Some((commit_us, fresh_us, cycles_n)) = driver.write_medians() {
        println!(
            "{cycles_n} write cycles beside the queries (mean of the idle and closed phases' medians): commit p50 {commit_us:.0} us  fresh p50 {fresh_us:.0} us"
        );
    }
    println!(
        "ops_attempted {}  ops_failed {}  answers checked against the oracle {}  write cycles {}",
        driver.attempted,
        driver.failed,
        driver.verified,
        driver.cycles_sent()
    );
    let (attempted, failed) = (driver.attempted, driver.failed);
    let messages = std::mem::take(&mut driver.messages);
    drop(driver);
    let Served {
        inputs,
        sys,
        generated_s,
        listening_s,
    } = served;
    sys.stop()?;
    let warm_up_requests = inputs.pool.len() as u64 * spec.warmup_passes;
    drop(inputs);

    // Set-up again, torn down each time. A set-up is a second or two of
    // wall clock and the host's slow stretches last longer than that,
    // so one set-up is slow or not as a whole: `setup_s` is the fastest
    // of the run's, which are taken half a minute apart.
    for rep in 1..SETUP_REPS {
        let t0 = Instant::now();
        let served = serve(args, rep, t0)?;
        let driver = warm_driver(&served, cores, spec.warmup_passes)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if driver.failed > 0 {
            return Err(io::Error::other(driver.messages.join("; ")));
        }
        drop(driver);
        served.sys.stop()?;
    }

    // The note keeps the rounds' values in the order they ran.
    let per_round = |n: u64, values: &[f64]| {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        format!(
            "mean of the best {BEST_ROUNDS} of {ROUNDS} rounds ({}), {} samples each",
            values.join(" "),
            n / ROUNDS as u64
        )
    };
    let mut report = Report::default();
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    report.push_noted(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
        format!(
            "fastest of {SETUP_REPS} set-ups ({}); the first: inputs {generated_s:.3}, servers up {:.3}, {warm_up_requests} warm-up requests {:.3}",
            each.join(" "),
            listening_s - generated_s,
            first_s - listening_s
        ),
    );
    report.push_noted(
        "qps_closed",
        best_mean(&rounds.qps, BEST_ROUNDS, true),
        "1/s",
        per_round(closed_n, &rounds.qps),
    );
    report.push_noted(
        "lat_idle_p50_us",
        best_mean(&rounds.idle_p50, BEST_ROUNDS, false),
        "us",
        per_round(idle_n, &rounds.idle_p50),
    );
    report.push("rss_peak_mb", rss_peak_mb, "MB");
    Ok(Outcome {
        report,
        attempted,
        failed,
        messages,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    alloc_count::mark_installed();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(HOME).is_dir() {
        eprintln!("run from the repository root: no {HOME}/ directory here");
        return ExitCode::from(2);
    }
    println!(
        "workload {}  seed {}  seconds {}  trace {}  cores {}",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        layers::run(args.spec, args.scale, args.seed, Path::new(HOME))
    } else {
        measure(&args, started)
    };
    match result {
        Ok(Outcome {
            report,
            attempted,
            failed,
            messages,
        }) => {
            print!("{}", report.table());
            for message in &messages {
                println!("FAILED: {message}");
            }
            println!("{}", report.result_line(failed == 0, attempted, failed));
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::FAILURE
        }
    }
}
