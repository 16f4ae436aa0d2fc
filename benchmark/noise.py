#!/usr/bin/env python3
"""Noise self-check: run the suite several times on one build and say
whether the benchmark can tell a regression from its own noise.

Runs `--sets` sets of `--runs` runs of every workload (each run a fresh
process with its own seed), then prints, per end-to-end metric and
workload, each set's median, quartiles and (max-min)/median, and the
distance between the first and third quartile of all runs as a share of
their median. Fails when two sets' medians differ by more than the
metric's bound, when that spread exceeds the bound (every metric is held
to this, `setup_s` too), or when any run reports a failed operation.

Started by `benchmark/run.sh --sets 2 --runs 5`, which builds first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent,
        stdout=subprocess.PIPE,
        text=True,
    )
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}")
    result = json.loads(last)
    if result["failed"] or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bin", required=True, help="the built iloc-benchmark binary")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="first seed; every run takes the next")
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--markdown", help="also write the table to this file")
    ap.add_argument("--raw", help="also write every run's values to this JSON file")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"]
    # samples[workload][set] = list of {metric: value}; sets are
    # interleaved workload by workload so each sees the same weather.
    samples = {w: [[] for _ in range(args.sets)] for w in workloads}
    seed = args.seed
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                samples[w][s].append(run_once(args.bin, w, seed, args.seconds))
                print(f"set {s + 1} run {r + 1} {w} seed {seed}", file=sys.stderr)
            seed += 1

    if args.raw:
        Path(args.raw).parent.mkdir(parents=True, exist_ok=True)
        Path(args.raw).write_text(json.dumps(samples, indent=1) + "\n")

    head = "| metric | workload | bound | " + " | ".join(
        f"set {s + 1} median [q1, q3] (max-min)/med" for s in range(args.sets)
    ) + " | sets differ | IQR/median, all runs | verdict |"
    lines = [head, "|" + "---|" * (6 + args.sets)]
    failed = False
    for m in metrics:
        for w in workloads:
            cells, medians, everything = [], [], []
            for s in range(args.sets):
                values = [run[m["name"]] for run in samples[w][s]]
                everything += values
                q1, q2, q3 = quartiles(values)
                medians.append(statistics.median(values))
                swing = (max(values) - min(values)) / medians[-1]
                cells.append(f"{medians[-1]:.5g} [{q1:.5g}, {q3:.5g}] {swing:.1%}")
            differ = (max(medians) - min(medians)) / min(medians)
            q1, _, q3 = quartiles(everything)
            spread = (q3 - q1) / statistics.median(everything)
            ok = differ <= m["bound"] and spread <= m["bound"]
            failed |= not ok
            verdict = "ok" if ok else "TOO NOISY"
            if ok and spread > m["bound"] / 3:
                verdict = "ok, above a third of the bound"
            lines.append(
                f"| {m['name']} | {w} | {m['bound']} | " + " | ".join(cells)
                + f" | {differ:.1%} | {spread:.1%} | {verdict} |"
            )
    table = "\n".join(lines)
    print(table)
    if args.markdown:
        Path(args.markdown).parent.mkdir(parents=True, exist_ok=True)
        Path(args.markdown).write_text(table + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
