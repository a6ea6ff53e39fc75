#!/usr/bin/env bash
# A sampled profile of one benchmark grid, from committed tools only:
#
#   scripts/profile.sh target_grid|logp_grid|clogp_grid [seconds] [rows]
#
# Compiles scripts/prof/sigprof.c (a SIGPROF sampler: rip + frame-pointer
# walk) with the system gcc, builds the benchmark package with frame
# pointers into target/profile (nothing under benchmark/ is edited and
# the measured build in target/ is not disturbed), runs the grid under
# LD_PRELOAD pinned as benchmark/run.sh pins it, and prints self and
# inclusive time by function (scripts/prof/symbolize.py, addr2line -i:
# an inlined function keeps its own row). DESIGN.md §12 reads these
# tables; compare two commits by running this in a checkout of each.
set -euo pipefail
cd "$(dirname "$0")/.."

grid="${1:-}"
seconds="${2:-20}"
rows="${3:-25}"
case "$grid" in
    target_grid | logp_grid | clogp_grid) ;;
    *)
        echo "usage: scripts/profile.sh target_grid|logp_grid|clogp_grid [seconds] [rows]" >&2
        exit 2
        ;;
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
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir" \
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
SPASM_PROF_OUT="$dir/$grid.samples" LD_PRELOAD="$dir/sigprof.so" \
    "${pin[@]}" "$exe" --workload "$grid" --seconds "$seconds" --trace 0 \
    | grep -E '^(wall_s|record) ' >&2
python3 scripts/prof/symbolize.py "$dir/$grid.samples" "$exe" "$rows"
