//! The benchmark's own contract, checked on scaled-down catalogs
//! (`--quick`): counts marked exact repeat for a seed and move with
//! it, and the names the binary prints are the names `BENCHMARK.json`
//! declares.

use std::path::Path;
use std::process::Command;

/// Runs the binary from the repository root; returns its stdout.
fn run(args: &[&str]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository");
    let out = Command::new(env!("CARGO_BIN_EXE_iloc-benchmark"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `name value` of every table line marked as an exact count.
fn exact_counts(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.contains("= exact for a seed"))
        .map(|l| l.split_whitespace().take(2).collect::<Vec<_>>().join(" "))
        .collect()
}

/// The metric names of a result line, in order.
fn result_names(stdout: &str) -> Vec<String> {
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    line.split("\": {\"value\":")
        .filter_map(|before| before.rsplit('"').next())
        .map(str::to_string)
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .collect()
}

/// The `"name"` values inside one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn printed_names_are_the_declared_names() {
    let workloads: Vec<String> = run(&["--list"]).lines().map(str::to_string).collect();
    assert_eq!(workloads, declared("workloads"));

    let end_to_end = run(&[
        "--workload",
        "churn_durable",
        "--quick",
        "--seconds",
        "5",
        "--trace",
        "0",
    ]);
    let mut printed = result_names(&end_to_end);
    let mut wanted = declared("end_to_end");
    printed.sort();
    wanted.sort();
    assert_eq!(printed, wanted);

    let per_layer = run(&["--workload", "churn_durable", "--quick", "--trace", "1"]);
    let mut printed = result_names(&per_layer);
    let mut wanted = declared("per_layer");
    printed.sort();
    wanted.sort();
    assert_eq!(printed, wanted);
}

#[test]
fn exact_counts_repeat_for_a_seed_and_move_with_it() {
    for workload in declared("workloads") {
        let traced = |seed: &str| {
            exact_counts(&run(&[
                "--workload",
                &workload,
                "--quick",
                "--trace",
                "1",
                "--seed",
                seed,
            ]))
        };
        let (first, again, other) = (traced("7"), traced("7"), traced("8"));
        assert!(
            first.len() >= 10,
            "{workload}: exact counts missing: {first:?}"
        );
        // The oracle comparison must compare something: a workload
        // whose every answer is empty would pass it vacuously.
        let matches: f64 = first
            .iter()
            .find_map(|count| count.strip_prefix("pipeline.matches_per_query "))
            .expect("matches per query is an exact count")
            .parse()
            .expect("a number");
        assert!(matches > 0.0, "{workload}: every answer is empty");
        assert_eq!(first, again, "{workload}: a count moved under one seed");
        assert_ne!(first, other, "{workload}: no count moved with the seed");
    }
}
