#!/usr/bin/env bash
# The repo's benchmark, one workload per process:
#
#   benchmark/run.sh --workload target_grid|logp_grid|clogp_grid|paper_fleet \
#                    [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke          # all four workloads at the test size
#
# Builds the simulator's `figures` CLI and the benchmark package from
# source (offline, release), stamps the host, pins the three grid
# workloads to one CPU and runs the fleet unpinned. Prints one
# `name value unit` line per metric, a `record` line with the host stamp,
# and the driver's JSON result as the last line of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "run.sh: $root is not a checkout of the simulator (no Cargo.toml / crates)" >&2
    exit 3
fi

# One target directory for both builds; the driver names it, a local run
# uses the repo's own (already ignored) `target/`.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
{
    cargo build --release --offline -p spasm-bench --bin figures
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
} >&2
bin="$CARGO_TARGET_DIR/release"
export SPASM_FIGURES="$bin/figures"

export BENCH_OUT_DIR="benchmark/out"
export BENCH_NPROC="$(nproc)"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"

# The engine is thread-per-simulated-processor with a spin/yield
# rendezvous: left to the scheduler on two cores a grid measures the
# scheduler (2x slower, +-20 %), so grids run on one CPU — the first one
# this process is allowed on. The fleet stays unpinned on purpose: it is
# what a user types, and where scheduler interplay must stay visible.
run_workload() {
    local workload="$1"
    shift
    local pin=()
    export BENCH_PINNED=0
    if [[ "$workload" != paper_fleet ]] && command -v taskset >/dev/null; then
        local cpu
        cpu="$(awk '/^Cpus_allowed_list/ {split($2, a, /[-,]/); print a[1]}' /proc/self/status)"
        if taskset -c "$cpu" true 2>/dev/null; then
            pin=(taskset -c "$cpu")
            export BENCH_PINNED=1
        fi
    fi
    "${pin[@]}" "$bin/spasm-benchmark" --workload "$workload" "$@"
}

if [[ "${1:-}" == --smoke ]]; then
    for w in target_grid logp_grid clogp_grid paper_fleet; do
        run_workload "$w" --smoke | grep -E '^(record|failed_share)'
    done
    exit 0
fi

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == --workload ]]; then
        workload="${args[i + 1]:-}"
        unset 'args[i]' 'args[i+1]'
        break
    fi
done
if [[ -z "$workload" ]]; then
    echo "usage: benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --smoke" >&2
    exit 2
fi
run_workload "$workload" "${args[@]}"
