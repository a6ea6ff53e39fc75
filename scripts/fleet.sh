#!/usr/bin/env bash
# Fault-tolerant sharded sweep fan-out (DESIGN.md §13).
#
# Launches N `figures --shard k/N` worker processes over one shared
# journal directory, supervises each shard to convergence with bounded
# exponential-backoff relaunches, then merges the shard journals into
# stdout byte-identical to a single-process serial run. `--kill K`
# SIGKILLs shard K as soon as it has committed its first record — the
# crash-drill used by ci.sh to prove the fan-out survives losing a
# worker mid-sweep.
#
# usage: fleet.sh [--shards N] [--kill K] [--dir DIR] [--retries R]
#                 [--out FILE] -- <figures args>
#   e.g. fleet.sh --shards 3 --kill 2 -- --figure F2 --size test \
#        --procs 2,4,8 --serial
#
# A shard has converged when its worker exits 0 (clean) or 3 (point
# failures salvaged — deterministic, so a relaunch cannot do better).
# Anything else — SIGKILL, journal I/O trouble, a crashed worker — is
# retried up to R times; a shard that never converges fails the fleet
# with that worker's exit code. The merge's own exit code (0/3/4/5/6,
# see the exit-code table in DESIGN.md §13) is the fleet's verdict.
set -euo pipefail
caller=$PWD
cd "$(dirname "$0")/.."

FIG=./target/release/figures
shards=3
kill_shard=""
dir=""
retries=3
out=""

while [ $# -gt 0 ]; do
    case "$1" in
        --shards) shards=$2; shift 2 ;;
        --kill) kill_shard=$2; shift 2 ;;
        --dir) dir=$2; shift 2 ;;
        --retries) retries=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --) shift; break ;;
        *) echo "fleet.sh: unknown flag $1" >&2; exit 2 ;;
    esac
done
if [ $# -eq 0 ]; then
    echo "usage: fleet.sh [--shards N] [--kill K] [--dir DIR]" \
         "[--retries R] [--out FILE] -- <figures args>" >&2
    exit 2
fi
if [ ! -x "$FIG" ]; then
    echo "fleet.sh: $FIG not built (run: cargo build --release --offline)" >&2
    exit 2
fi
if [ -z "$dir" ]; then
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' EXIT
fi
# --dir/--out are the caller's paths, not repo-root-relative ones.
case "$dir" in /*) ;; *) dir=$caller/$dir ;; esac
case "$out" in ""|/*) ;; *) out=$caller/$out ;; esac
mkdir -p "$dir"

# The byte size of shard K's largest journal (0 if none yet): the poll
# target for landing the SIGKILL after the first committed record.
shard_size() {
    local best=0 f size
    for f in "$dir"/*".shard-$1-of-$shards.journal"; do
        [ -e "$f" ] || continue
        size=$(stat -c %s "$f" 2>/dev/null || echo 0)
        [ "$size" -gt "$best" ] && best=$size
    done
    echo "$best"
}

FIGARGS=("$@")
declare -a pids rcs

echo "fleet: launching $shards shard worker(s) over $dir" >&2
for k in $(seq 1 "$shards"); do
    "$FIG" --shard "$k/$shards" --journal "$dir" --resume "${FIGARGS[@]}" \
        2> >(sed "s/^/[shard $k] /" >&2) &
    pids[k]=$!
done

# The crash drill: wait until the victim has durably committed at least
# one record (its journal has grown past the 16-byte header), then
# SIGKILL it mid-sweep.
if [ -n "$kill_shard" ]; then
    for _ in $(seq 1 400); do
        [ "$(shard_size "$kill_shard")" -gt 16 ] && break
        sleep 0.025
    done
    echo "fleet: SIGKILL shard $kill_shard (pid ${pids[$kill_shard]})" >&2
    kill -9 "${pids[$kill_shard]}" 2>/dev/null || true
fi

for k in $(seq 1 "$shards"); do
    set +e
    wait "${pids[k]}"
    rcs[k]=$?
    set -e
done

# Supervision: relaunch any shard that has not converged, with bounded
# exponential backoff (0.1s doubling, capped at 2s) between attempts.
for k in $(seq 1 "$shards"); do
    rc=${rcs[k]}
    delay=0.1
    attempt=0
    while [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; do
        if [ "$attempt" -ge "$retries" ]; then
            echo "fleet: shard $k/$shards failed to converge" \
                 "after $retries relaunch(es) (last exit $rc)" >&2
            exit "$rc"
        fi
        attempt=$((attempt + 1))
        echo "fleet: relaunching shard $k/$shards" \
             "(attempt $attempt/$retries, exit was $rc, backoff ${delay}s)" >&2
        sleep "$delay"
        delay=$(awk -v d="$delay" 'BEGIN { d = d * 2; print (d > 2) ? 2 : d }')
        set +e
        "$FIG" --shard "$k/$shards" --journal "$dir" --resume "${FIGARGS[@]}" \
            2> >(sed "s/^/[shard $k] /" >&2)
        rc=$?
        set -e
    done
done

echo "fleet: all shards converged; merging" >&2
if [ -n "$out" ]; then
    exec "$FIG" --merge "$dir" "${FIGARGS[@]}" > "$out"
else
    exec "$FIG" --merge "$dir" "${FIGARGS[@]}"
fi
