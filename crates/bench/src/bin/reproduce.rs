//! Reproduces every figure of Chen & Cheng (ICDE 2007) plus the
//! design-choice ablations (see the README's "Reproducing the paper").
//!
//! ```text
//! reproduce [targets...] [--quick] [--csv DIR]
//!
//! targets: fig8 fig9 fig10 fig11 fig12 fig13
//!          integrators index strategies continuous gaussian
//!          figures (fig8–fig13)   ablations (the other five)
//!          all (default)
//! --quick:    ~10× smaller datasets and query counts
//! --csv DIR:  additionally write one CSV per experiment into DIR
//! ```
//!
//! A target or flag the binary does not know is refused (exit 2)
//! before the testbed is built.

use std::time::Instant;

use iloc_bench::experiments::{ablations, fig08, fig09, fig10, fig11, fig12, fig13};
use iloc_bench::{Scale, TestBed};
use iloc_server::args::{die, Args};

/// Every experiment with the group that also selects it — the one
/// list target validation and dispatch both read.
const EXPERIMENTS: [(&str, &str); 11] = [
    ("fig8", "figures"),
    ("fig9", "figures"),
    ("fig10", "figures"),
    ("fig11", "figures"),
    ("fig12", "figures"),
    ("fig13", "figures"),
    ("integrators", "ablations"),
    ("index", "ablations"),
    ("strategies", "ablations"),
    ("continuous", "ablations"),
    ("gaussian", "ablations"),
];
const SWITCHES: [&str; 1] = ["--quick"];
const VALUED: [&str; 1] = ["--csv"];

fn main() {
    // Split the positional target names off; the rest are flags.
    let mut targets: Vec<String> = Vec::new();
    let mut flags: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if !arg.starts_with("--") {
            targets.push(arg);
            continue;
        }
        let valued = VALUED.contains(&arg.as_str());
        flags.push(arg);
        if valued {
            flags.extend(argv.next());
        }
    }
    let args = Args::parse(flags, &SWITCHES, &VALUED).unwrap_or_else(|e| die(&e));
    let quick = args.given("--quick");
    let csv_dir = args.value("--csv").map(std::path::PathBuf::from);
    if let Some(unknown) = targets.iter().find(|t| {
        *t != "all"
            && !EXPERIMENTS
                .iter()
                .any(|(name, group)| t == name || t == group)
    }) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        die(&format!(
            "unknown target {unknown} (known: {} figures ablations all)",
            names.join(" ")
        ));
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv output directory");
    }

    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    println!(
        "iloc reproduction harness — {} scale ({} points, {} uncertain objects, {} queries/point)",
        if quick { "quick" } else { "paper" },
        scale.point_count,
        scale.uncertain_count,
        scale.queries,
    );

    let t0 = Instant::now();
    let bed = TestBed::build(scale);
    println!(
        "testbed built in {:.1}s (California R-tree + Long Beach PTI with U-catalogs)",
        t0.elapsed().as_secs_f64()
    );

    let wants = |name: &str| {
        let (_, group) = EXPERIMENTS
            .iter()
            .find(|(n, _)| *n == name)
            .expect("dispatched experiments are listed in EXPERIMENTS");
        targets
            .iter()
            .any(|t| t == name || t == group || t == "all")
    };
    let save = |name: &str, x_name: &str, rows: &[iloc_bench::Row]| {
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{name}.csv"));
            iloc_bench::harness::write_csv(&path, x_name, rows)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("   → {}", path.display());
        }
    };

    if wants("fig8") {
        save("fig08_basic_vs_enhanced", "u", &fig08::run(&bed));
    }
    if wants("fig9") {
        save("fig09_ipq", "u", &fig09::run(&bed));
    }
    if wants("fig10") {
        save("fig10_iuq", "u", &fig10::run(&bed));
    }
    if wants("fig11") {
        save("fig11_cipq", "qp", &fig11::run(&bed));
    }
    if wants("fig12") {
        save("fig12_ciuq", "qp", &fig12::run(&bed));
    }
    if wants("fig13") {
        save("fig13_gaussian_mc", "qp", &fig13::run(&bed));
    }
    if wants("integrators") {
        save("ablation_integrators", "x", &ablations::integrators(&bed));
    }
    if wants("index") {
        save("ablation_index", "x", &ablations::index_choice(&bed));
    }
    if wants("strategies") {
        save(
            "ablation_strategies",
            "x",
            &ablations::pruning_strategies(&bed),
        );
    }
    if wants("continuous") {
        save(
            "ablation_continuous",
            "slack",
            &ablations::continuous_slack(&bed),
        );
    }
    if wants("gaussian") {
        save(
            "ablation_gaussian_objects",
            "x",
            &ablations::gaussian_objects(&bed),
        );
        save(
            "ablation_gaussian_pruning",
            "x",
            &ablations::gaussian_pruning(&bed),
        );
    }

    println!();
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
