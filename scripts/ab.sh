#!/usr/bin/env bash
# Alternating A/B of one benchmark workload between two checkouts:
#
#   scripts/ab.sh A B WORKLOAD [ROUNDS] [SECONDS]
#
# Each round runs `benchmark/run.sh --workload WORKLOAD --seconds SECONDS`
# (defaults: 10 rounds of 2 s) once in checkout A and once in checkout B,
# flipping which side goes first every round, so a host that drifts
# favours neither. Prints one `run` line per reading, then each side's
# minimum, median and interquartile range of `wall_s`, the B/A ratios of
# the minima and medians, and in how many rounds B read lower.
# `scripts/ab.sh . . WORKLOAD` is the A/A control: its ratios are the
# host's own spread, against which a B/A ratio is read.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: scripts/ab.sh A B WORKLOAD [ROUNDS] [SECONDS]" >&2
    exit 2
fi
a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)
workload=$3
rounds=${4:-10}
seconds=${5:-2}
for side in "$a" "$b"; do
    if [[ ! -f "$side/benchmark/run.sh" ]]; then
        echo "ab.sh: $side is not a checkout with benchmark/run.sh" >&2
        exit 2
    fi
done

# wall_s of one run in checkout $1; its stderr (the build) is dropped
# unless the run fails.
wall_s() {
    local out log
    log=$(mktemp)
    if ! out=$(bash "$1/benchmark/run.sh" --workload "$workload" --seconds "$seconds" 2> "$log"); then
        cat "$log" >&2
        rm -f "$log"
        echo "ab.sh: benchmark/run.sh failed in $1" >&2
        exit 1
    fi
    rm -f "$log"
    awk '$1 == "wall_s" { print $2 }' <<< "$out"
}

as=()
bs=()
for ((r = 1; r <= rounds; r++)); do
    if ((r % 2)); then order=(A B); else order=(B A); fi
    for side in "${order[@]}"; do
        if [[ $side == A ]]; then
            v=$(wall_s "$a")
            as+=("$v")
        else
            v=$(wall_s "$b")
            bs+=("$v")
        fi
        echo "run round=$r side=$side wall_s=$v"
    done
done

# min, median and quartiles (linear interpolation) of the values on stdin.
stats() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h)
            return i >= NR ? v[NR] : v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { printf "%.6f %.6f %.6f %.6f\n", v[1], q(0.5), q(0.25), q(0.75) }'
}
read -r amin amed aq1 aq3 < <(printf '%s\n' "${as[@]}" | stats)
read -r bmin bmed bq1 bq3 < <(printf '%s\n' "${bs[@]}" | stats)
lower=0
for ((i = 0; i < rounds; i++)); do
    if awk -v x="${bs[i]}" -v y="${as[i]}" 'BEGIN { exit !(x < y) }'; then
        lower=$((lower + 1))
    fi
done
echo "A $a: wall_s min $amin median $amed IQR $aq1..$aq3"
echo "B $b: wall_s min $bmin median $bmed IQR $bq1..$bq3"
awk -v am="$amin" -v bm="$bmin" -v ad="$amed" -v bd="$bmed" -v n="$lower" -v r="$rounds" \
    'BEGIN { printf "B/A: min %.3f median %.3f; B lower in %d of %d rounds\n", bm / am, bd / ad, n, r }'
