#!/usr/bin/env bash
# Builds the benchmark, then runs it.
#
#   bash benchmark/run.sh --workload wire_light --seed 1 --seconds 25 --trace 0
#       one workload in a fresh process (the command BENCHMARK.json names)
#   bash benchmark/run.sh --sets 2 --runs 5
#       the noise self-check (benchmark/noise.py)
#
# Run from the repository root: stores and traces go to benchmark/scratch
# and benchmark/out under the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/iloc-benchmark"

# Back the heap with 2 MB pages where the kernel allows it on request
# (transparent_hugepage=madvise). Under a hypervisor a TLB miss walks
# two page tables, and on a host with busy neighbours those walks are
# the noisiest part of a memory access: the same pointer chase swung
# +-25 % on 4 KB pages and +-8 % on 2 MB pages.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:+$GLIBC_TUNABLES:}glibc.malloc.hugetlb=1"

case "${1:-}" in
    --sets | --runs) exec python3 "$here/noise.py" --bin "$bin" "$@" ;;
    *) exec "$bin" "$@" ;;
esac
