#!/usr/bin/env bash
# Checks the instrument against itself, about ten minutes on two cores:
#
#   every workload twice at seed 1995, once at seed 7, and once traced.
#
# Asserts that the exact counters (events, sim_fingerprint) repeat bit for
# bit between the two same-seed runs and between traced and untraced, that
# a second seed changes them without breaking any check, that
# failed_share is 0 everywhere, and that the two same-seed runs agree on
# every end-to-end metric within the bound BENCHMARK.json fixes. Prints
# the observed spread, and the R5 ratio from the untraced grids.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out/selfcheck"
rm -rf "$out"
mkdir -p "$out"

for w in target_grid logp_grid clogp_grid paper_fleet; do
    for run in a:1995:0 b:1995:0 c:7:0 t:1995:1; do
        IFS=: read -r tag seed trace <<<"$run"
        echo "== $w seed=$seed trace=$trace" >&2
        "$here/run.sh" --workload "$w" --seed "$seed" --trace "$trace" >"$out/$w.$tag.txt" 2>"$out/$w.$tag.err" ||
            { echo "run failed, see $out/$w.$tag.err" >&2; exit 1; }
    done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json, re, sys

spec = json.load(open(sys.argv[1]))
out = sys.argv[2]
bad = []

def load(workload, tag):
    lines = open(f"{out}/{workload}.{tag}.txt").read().splitlines()
    record = next(l for l in lines if l.startswith("record "))
    notes = dict(re.findall(r"(\S+)=(\"[^\"]*\"|\S+)", record))
    return json.loads(lines[-1]), notes

walls = {}
for w in [x["name"] for x in spec["workloads"]]:
    (a, na), (b, nb), (c, nc), (t, nt) = (load(w, tag) for tag in "abct")
    for tag, r in zip("abct", (a, b, c, t)):
        if not r["correct"] or r["failed"]:
            bad.append(f"{w}.{tag}: failed {r['failed']} of {r['attempted']}")
    for key in ("events", "sim_fingerprint", "points"):
        if not (na[key] == nb[key] == nt[key]):
            bad.append(f"{w}: {key} differs at one seed: {na[key]} {nb[key]} traced {nt[key]}")
    if na["sim_fingerprint"] == nc["sim_fingerprint"]:
        bad.append(f"{w}: a second seed did not change the simulation")
    print(f"{w}: events={na['events']} fingerprint={na['sim_fingerprint']} (seed 7: {nc['events']})")
    for m in spec["end_to_end"]:
        x, y = (r["metrics"][m["name"]]["value"] for r in (a, b))
        spread = abs(x - y) / min(x, y)
        flag = "" if spread <= m["bound"] else "  OUTSIDE BOUND"
        print(f"  {m['name']:14s} {x:14.4f} {y:14.4f} {m['unit']:9s} spread {100 * spread:5.2f}% (bound {100 * m['bound']:.0f}%){flag}")
        if flag and m["name"] != "setup_s":
            bad.append(f"{w}: {m['name']} spread {100 * spread:.1f}% over its bound")
    walls[w] = min(a["metrics"]["wall_s"]["value"], b["metrics"]["wall_s"]["value"])
    for name in ("desim.rendezvous_share", "desim.queue_share", "netsim.share", "logp.share",
                 "cachesim.share", "apps.build_share", "netsim.messages", "logp.messages", "cachesim.hits"):
        print(f"  {name:26s} {t['metrics'][name]['value']:.6g}")

print(f"R5: wall_s[clogp_grid] / wall_s[target_grid] = {walls['clogp_grid'] / walls['target_grid']:.3f} "
      f"(paper: 0.70-0.75); logp / target = {walls['logp_grid'] / walls['target_grid']:.3f} (paper: > 1)")
for line in bad:
    print("SELFCHECK FAILED:", line)
sys.exit(1 if bad else 0)
EOF
