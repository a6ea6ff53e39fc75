#!/usr/bin/env bash
# A sampled profile of one benchmark grid or one figure, from committed
# tools only:
#
#   scripts/profile.sh target_grid|logp_grid|clogp_grid [seconds] [rows]
#   scripts/profile.sh figure ID SIZE [figures args]
#
# Compiles scripts/prof/sigprof.c (a SIGPROF sampler: rip + frame-pointer
# walk) with the system gcc, builds the benchmark package (grid mode) or
# the `figures` binary (figure mode) with frame pointers into
# target/profile (nothing under benchmark/ is edited and the measured
# build in target/ is not disturbed), runs it under LD_PRELOAD, and
# prints self and inclusive time by function (scripts/prof/symbolize.py,
# addr2line -i: an inlined function keeps its own row). A grid runs
# pinned as benchmark/run.sh pins it; a figure runs as `figures --figure
# ID --size SIZE [figures args]` (add --serial for one worker), its
# stdout sent to stderr. DESIGN.md §12 reads these tables; compare two
# commits by running this in a checkout of each.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/profile.sh target_grid|logp_grid|clogp_grid [seconds] [rows]" >&2
    echo "       scripts/profile.sh figure ID SIZE [figures args]" >&2
    exit 2
}
mode="${1:-}"
rows=25
case "$mode" in
    target_grid | logp_grid | clogp_grid)
        seconds="${2:-20}"
        rows="${3:-25}"
        ;;
    figure)
        [ $# -ge 3 ] || usage
        id="$2"
        size="$3"
        shift 3
        ;;
    *) usage ;;
esac
for tool in gcc python3 addr2line; do
    if ! command -v "$tool" > /dev/null; then
        echo "profile.sh: needs $tool" >&2
        exit 3
    fi
done

dir="$PWD/target/profile"
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/prof/sigprof.c
export RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir"

if [ "$mode" = figure ]; then
    cargo build --release --offline -p spasm-bench --bin figures >&2
    exe="$dir/release/figures"
    samples="$dir/figure-$id.samples"
    SPASM_PROF_OUT="$samples" LD_PRELOAD="$dir/sigprof.so" \
        "$exe" --figure "$id" --size "$size" "$@" >&2
    python3 scripts/prof/symbolize.py "$samples" "$exe" "$rows"
    exit
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
pin=()
export BENCH_PINNED=0 BENCH_NPROC="$(nproc)" BENCH_OUT_DIR="$dir/out"
if command -v taskset > /dev/null; then
    cpu="$(awk '/^Cpus_allowed_list/ {split($2, a, /[-,]/); print a[1]}' /proc/self/status)"
    if taskset -c "$cpu" true 2> /dev/null; then
        pin=(taskset -c "$cpu")
        BENCH_PINNED=1
    fi
fi
exe="$dir/release/spasm-benchmark"
SPASM_PROF_OUT="$dir/$mode.samples" LD_PRELOAD="$dir/sigprof.so" \
    "${pin[@]}" "$exe" --workload "$mode" --seconds "$seconds" --trace 0 \
    | grep -E '^(wall_s|record) ' >&2
python3 scripts/prof/symbolize.py "$dir/$mode.samples" "$exe" "$rows"
