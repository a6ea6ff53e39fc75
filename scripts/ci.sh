#!/usr/bin/env bash
# Canonical tier-1 gate for spasm-rs. Everything runs offline: the
# workspace has no external dependencies (see DESIGN.md §7), so a plain
# checkout on a machine with a Rust toolchain and no network must pass.
set -euo pipefail
cd "$(dirname "$0")/.."

# expect_rc N [NEEDLE] -- CMD...: CMD must exit with status N (its stdout
# is discarded) and, when NEEDLE is given, say it on stderr.
expect_rc() {
    local want=$1 needle="" err rc=0
    shift
    if [ "$1" != "--" ]; then
        needle=$1
        shift
    fi
    shift
    err=$("$@" 2>&1 > /dev/null) || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "ERROR: exit $rc, expected $want: $*" >&2
        echo "$err" >&2
        exit 1
    fi
    if [ -n "$needle" ] && ! grep -q -- "$needle" <<< "$err"; then
        echo "ERROR: stderr does not say \"$needle\": $*" >&2
        echo "$err" >&2
        exit 1
    fi
}

# kill_after_first_commit FILE -- CMD...: runs CMD (a journaled sweep) in
# the background and SIGKILLs it once FILE, a journal of its, holds a
# committed record (anything beyond the 16-byte header), so the kill lands
# genuinely mid-sweep.
kill_after_first_commit() {
    local file=$1 victim size
    shift 2
    "$@" > /dev/null 2>&1 &
    victim=$!
    for _ in $(seq 1 2000); do
        size=$(stat -c %s "$file" 2>/dev/null || echo 0)
        [ "$size" -gt 16 ] && break
        sleep 0.005
    done
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --offline --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# `unsafe` lives in exactly one module (desim's stack-switching coroutine
# backend); every other crate forbids it. A second opt-out fails here.
echo "==> exactly one module opts out of the unsafe_code lint"
[ "$(grep -rn "allow(unsafe_code)" crates src | wc -l)" -eq 1 ]

# The coherence checker reads cache state in one function, its mirror
# refresh; the structural invariants and the end-of-run sweep read the
# states it stored. A second `.peek(` outside the test module fails here.
echo "==> the coherence checker reads cache state once, in its mirror refresh"
[ "$(awk '/^#\[cfg\(test\)\]/ { exit } /\.peek\(/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }' crates/check/src/coherence.rs)" -eq 1 ]

# A panic is fenced in exactly two places: the experiment boundary
# (spasm-core's experiment.rs) and the coroutine root (desim's fiber.rs).
# The executor, the sweep and everything else let a panic unwind; a third
# fence outside test code fails here.
echo "==> catch_unwind only at the experiment and coroutine-root fences"
fences=$(find crates/*/src src -name '*.rs' -not -path 'crates/testkit/*' | sort |
    xargs awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
        !t && /catch_unwind/ && !/^[[:space:]]*\/\// { print FILENAME }' | sort -u | tr '\n' ' ')
if [ "$fences" != "crates/core/src/experiment.rs crates/desim/src/coro/fiber.rs " ]; then
    echo "ERROR: catch_unwind outside the two fences: $fences" >&2
    exit 1
fi

# No process-global state: whatever a run reads is passed to it (a
# compiled scenario's app included), so two sweeps in one process cannot
# couple through a global. A static item, a lazily initialised global or
# a thread-local outside test code fails here. The one exception is
# fiber.rs's spare stack list, which holds memory and no state: a body
# starts on a spare stack from a boot frame written for it, and reads
# nothing an earlier body left (DESIGN.md §12).
echo "==> no static items or lazy/thread-local globals in product code"
spare='^crates/desim/src/coro/fiber\.rs:[0-9]*: (thread_local! \{|    static SPARE_STACKS: RefCell<Vec<Stack>> = const \{ RefCell::new\(Vec::new\(\)\) \};)$'
globals=$(find crates/*/src src -name '*.rs' | sort |
    xargs awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
        !t && !/^[[:space:]]*\/\// &&
        (/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?static[[:space:]]/ ||
         /OnceLock|RwLock|thread_local!|static mut/) { print FILENAME ":" FNR ": " $0 }')
if [ "$(grep -cE "$spare" <<< "$globals")" -ne 2 ]; then
    echo "ERROR: fiber.rs's spare stack list is not the one thread_local! there" >&2
    echo "$globals" >&2
    exit 1
fi
globals=$(grep -vE "$spare" <<< "$globals" || true)
if [ -n "$globals" ]; then
    echo "ERROR: global state in product code:" >&2
    echo "$globals" >&2
    exit 1
fi

# A violation is made in one place: spasm-check returns it as the `Err`
# of the call that detected it. A `CheckViolation` literal anywhere else,
# or a latched violation polled later with `take_violation`, is a second
# reporting path.
echo "==> violations are made only in crates/check/src, and none is latched"
if grep -rnE 'CheckViolation[[:space:]]*\{' crates src tests examples | grep -v '^crates/check/src/' ||
    grep -rn 'take_violation' crates src tests examples; then
    echo "ERROR: a CheckViolation made outside spasm-check, or a latched one polled" >&2
    exit 1
fi

# One build of the workspace: a cargo feature is a second product that
# every tier below would have to run again to cover.
echo "==> no cargo features"
if grep -n '^\[features\]' Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: a manifest declares a [features] table" >&2
    exit 1
fi

# A machine prices a run; what a sweep journals of it is spasm-core's
# business. spasm-machine depending on spasm-journal again fails here.
echo "==> spasm-machine does not depend on spasm-journal"
machine_deps=$(cargo tree --offline -p spasm-machine -e normal)
if grep -q spasm-journal <<< "$machine_deps"; then
    echo "ERROR: spasm-machine depends on spasm-journal" >&2
    exit 1
fi

# Only benchmark/ (which `benchmark` PRs alone may edit) uses the call
# shapes kept for it: the retired engine's inert variant, the two
# positional sweep entry points and the event queue's former name.
# crates/core/src/sweep.rs holds the one definition and the one remnant
# test that name the first three; crates/desim/src/event_queue.rs holds
# the alias's one definition line, which desim's lib.rs re-exports. When
# benchmark/ stops, delete the remnants and this guard.
echo "==> only benchmark/ uses the remnant call shapes"
for shape in 'EngineMode::Optimistic' 'run_figure_journaled(' 'SweepJournal::resume('; do
    if grep -rnF "$shape" crates src tests examples | grep -v '^crates/core/src/sweep.rs:'; then
        echo "ERROR: the workspace uses the remnant $shape" >&2
        exit 1
    fi
done
if grep -rnw CalendarQueue crates src tests examples \
    | grep -vx 'crates/desim/src/event_queue.rs:[0-9]*:pub type CalendarQueue<E> = EventQueue<E>;' \
    | grep -vx 'crates/desim/src/lib.rs:[0-9]*:pub use event_queue::{CalendarQueue, EventQueue, PopIfBefore};'; then
    echo "ERROR: the workspace uses the remnant CalendarQueue" >&2
    exit 1
fi

# Traffic is counted once: every message's latency, contention, count and
# bytes are charged to the processor that caused it, in `Buckets::add`
# (crates/machine/src/stats.rs), and the run report sums those. A model,
# the LogP gap tracker or the network keeping a running total of its own
# is a second ledger of the same traffic.
echo "==> one traffic ledger: no running totals in the models, logp or netsim"
if grep -rnE 'self\.([a-z_]+\.)*(messages|bytes|latency|contention|waited|hops)(\[[^]]*\])?[[:space:]]*\+=' \
    crates/machine/src/models crates/logp/src crates/netsim/src; then
    echo "ERROR: a second traffic ledger; charge Buckets instead" >&2
    exit 1
fi

# The engine resolves a request's address once, in `priced_access`, and
# refuses an unallocated one on every machine; a model receives the home.
# A model looking an address up again, or naming `RunError`, is a second
# validation, and a sparse map in the store is a place for an address the
# engine should have refused.
echo "==> a request is validated once, in the engine"
if grep -nE 'RunError|home_of\(addr\)' crates/machine/src/models/*.rs ||
    grep -n BTreeMap crates/machine/src/store.rs; then
    echo "ERROR: validation outside Engine::priced_access" >&2
    exit 1
fi

# Block ids, words and processors are dense from zero, so every simulator
# layer keeps its state in `Vec`s indexed by them, as `AddressMap` does; a
# hash map beside it is a second indexing scheme, and so is a hand-rolled
# table (the Fibonacci multiplier `0x9E37_79B9...` is its mark).
echo "==> the simulator layers key no state by hash"
if grep -rnE 'HashMap|HashSet|BTreeMap|Hasher|fxhash|0x9E37_79B9' \
    crates/{desim,topology,netsim,logp,cachesim,machine,check}/src; then
    echo "ERROR: a simulator crate keys state by hash; index a Vec by a dense id" >&2
    exit 1
fi

# A component's state is compared by its `PartialEq`; a digest of it
# beside that is a second statement of the same equality.
echo "==> no state digests in product code"
if grep -rnE 'state_hash|fnv_' crates/*/src; then
    echo "ERROR: a state digest in crates/*/src; compare the value with ==" >&2
    exit 1
fi

# A sweep's identity travels as one `Sweep` value; a function in
# crates/core that needs this allowance is spelling it positionally again.
echo "==> no too_many_arguments allowance in crates/core"
if grep -rn too_many_arguments crates/core; then
    echo "ERROR: crates/core allows clippy::too_many_arguments" >&2
    exit 1
fi

# The two records every PR touches stay readable: DESIGN.md within its
# 40 KiB cap, and each `PR N` entry of CHANGES.md within 1.5 KiB (condense
# an old entry rather than let one grow past it).
echo "==> DESIGN.md <= 40960 bytes, every CHANGES.md PR entry <= 1536 bytes"
design_bytes=$(wc -c < DESIGN.md)
if [ "$design_bytes" -gt 40960 ]; then
    echo "ERROR: DESIGN.md is $design_bytes bytes, over its 40960-byte cap" >&2
    exit 1
fi
long_entries=$(LC_ALL=C awk '/^PR [0-9]+/ && length($0) > 1536 {
    print "CHANGES.md:" NR ": " length($0) " bytes" }' CHANGES.md)
if [ -n "$long_entries" ]; then
    echo "ERROR: CHANGES.md entries over 1536 bytes:" >&2
    echo "$long_entries" >&2
    exit 1
fi

# The docs describe the tree as it is. Every crate has a row in DESIGN.md
# §3 and in README.md's crate table, and every `crates/…`, `scripts/…`,
# `tests/…`, `benchmark/…`, `examples/…` or `src/…` path the docs put in
# backticks exists once a trailing `::item` or `:line` (and, for a quoted
# command, everything after its first space) is stripped.
echo "==> every crate has a row in DESIGN.md §3 and README.md"
rowless=""
for dir in crates/*/; do
    crate=${dir%/}
    for doc in DESIGN.md README.md; do
        grep -qE "^\| \[?\`$crate\`" "$doc" || rowless="$rowless $doc:$crate"
    done
done
if [ -n "$rowless" ]; then
    echo "ERROR: crates without a table row:$rowless" >&2
    exit 1
fi
echo "==> every path DESIGN.md, README.md and EXPERIMENTS.md name exists"
dangling=$(for doc in DESIGN.md README.md EXPERIMENTS.md; do
    { grep -oE '`(crates|scripts|tests|benchmark|examples|src)/[^`]*`' "$doc" || true; } |
        sed -E 's/^`//; s/[ `].*$//; s/::.*$//; s/:[0-9]+$//' | sort -u |
        while read -r path; do [ -e "$path" ] || echo "$doc: $path"; done
done)
if [ -n "$dangling" ]; then
    echo "ERROR: the docs name paths that do not exist:" >&2
    echo "$dangling" >&2
    exit 1
fi
# Every backticked `Type::item` in DESIGN.md names a type the workspace
# defines and an item it declares: a fn or field (lower case) or a const
# (upper case); `Type::a/b` names each of a and b. Enum variants
# (CamelCase) are not checked. Only DESIGN.md states the current design;
# EXPERIMENTS.md keeps retired names in its history on purpose.
echo "==> every Type::item DESIGN.md names exists"
rs_sources=$(find crates/*/src src -name '*.rs')
undeclared=$({ grep -oE '`[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_/]*' DESIGN.md || true; } |
    tr -d '`' | sort -u |
    while IFS=: read -r ty _ items; do
        grep -qE "\b(struct|enum|trait|type) $ty\b" $rs_sources || { echo "$ty::$items"; continue; }
        for item in ${items//\// }; do
            [[ $item =~ ^[A-Z] && $item =~ [a-z] ]] && continue
            grep -qE "\b(fn|const) $item\b|^[[:space:]]*(pub(\([a-z]+\))? )?$item:" $rs_sources ||
                echo "$ty::$item"
        done
    done)
if [ -n "$undeclared" ]; then
    echo "ERROR: DESIGN.md names items that do not exist:" >&2
    echo "$undeclared" >&2
    exit 1
fi

# --workspace so the release bins the later tiers drive (figures,
# scnlint) are built here explicitly.
echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
tests_started=$SECONDS
cargo test -q --offline --workspace
echo "==> tests took $((SECONDS - tests_started))s"

# The paper's R5 in host time (CLogP simulates clearly faster than the
# target) is only meaningful on the optimized build.
echo "==> R5 host time: cargo test --release --test reproduction -- --ignored r5_host_time"
cargo test --release --offline --test reproduction -- --ignored r5_host_time

# Paper-wide golden: every figure regenerated at --size small must match
# the committed tables and CSV byte for byte, with no exception: every
# byte is a function of the sweep's inputs. The golden's first 285 points
# were generated on the BinaryHeap event queue (the oracle in desim's
# tests/queue_diff.rs), so this is also the whole-stack differential
# check of the event queue: 300 points, every machine model, every
# app; the one invocation shares 145 of them between figures.
# The same bytes come out under --strict-check too, so no committed byte
# can come from a run that breaks an invariant; the unchecked run stays to
# prove that the checked and unchecked paths agree.
echo "==> golden: figures_small.{txt,csv} regenerate byte for byte, plain and --strict-check"
gdir=$(mktemp -d)
trap 'rm -rf "$gdir"' EXIT
for mode in plain strict; do
    flag=()
    [[ $mode == strict ]] && flag=(--strict-check)
    started=$(date +%s%N)
    ./target/release/figures --all --size small "${flag[@]}" --csv "$gdir/$mode.csv" \
        2> /dev/null | grep -v '^wrote ' > "$gdir/$mode.txt"
    elapsed=$((($(date +%s%N) - started) / 1000000))
    cmp figures_small.txt "$gdir/$mode.txt"
    cmp figures_small.csv "$gdir/$mode.csv"
    # The strict run is the wall time this tier adds for the invariants.
    echo "    $mode run: $elapsed ms"
done
rm -rf "$gdir"
trap - EXIT

# Examples are the README's entry points, and EXPERIMENTS.md and DESIGN.md
# quote numbers from some of them: each must run to exit 0, not just
# compile (each takes well under a second in release).
echo "==> examples: every examples/*.rs runs to exit 0 (60s watchdog apiece)"
cargo build --release --offline --examples
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    if ! timeout 60 "./target/release/examples/$name" > /dev/null; then
        echo "ERROR: example $name did not run to exit 0" >&2
        exit 1
    fi
done

# The repo benchmark is a package of its own (benchmark/, built by the
# pipeline from each commit's sources): its unit tests and a test-size
# pass over all four workloads here mean an API break in the crates it
# links turns this gate red before it turns the benchmark build red.
# The smoke's event counts and outcome fingerprints (the figures golden
# carries no event counts) must equal scripts/smoke_fingerprints.txt: a
# PR meaning to change simulated outcomes updates that file in the same diff.
echo "==> benchmark package: unit tests + run.sh --smoke == smoke_fingerprints.txt"
CARGO_TARGET_DIR=target cargo test -q --offline --manifest-path benchmark/Cargo.toml
out=$(bash benchmark/run.sh --smoke 2> /dev/null)
if [ "$(grep -c '^record .* failed=0 ' <<< "$out")" -ne 4 ]; then
    echo "ERROR: benchmark smoke did not record four workloads with failed=0:" >&2
    echo "$out" >&2
    exit 1
fi
if ! diff scripts/smoke_fingerprints.txt <(sed -n \
    's/^record workload=\([a-z_]*\) .* events=\([0-9]*\) sim_fingerprint=\([0-9a-f]*\)$/\1 \2 \3/p' \
    <<< "$out"); then
    echo "ERROR: benchmark smoke events/fingerprints differ from scripts/smoke_fingerprints.txt" >&2
    exit 1
fi

# The sampler DESIGN.md §12 judges inlining with must keep building,
# sampling and symbolizing, in both modes: two seconds of clogp_grid, and
# figure F2 at small (F2 at test lasts ~20 ms, 7-11 samples: too few to
# gate on), have to put samples under Engine::run. Its tools are the
# host's, not the toolchain's, so a host without them skips.
if command -v gcc > /dev/null && command -v python3 > /dev/null && command -v addr2line > /dev/null; then
    for args in "clogp_grid 2" "figure F2 small --serial"; do
        echo "==> profile smoke: scripts/profile.sh $args samples Engine::run"
        out=$(scripts/profile.sh $args 2> /dev/null)
        if ! grep -q 'engine::Engine>::run$' <<< "$out"; then
            echo "ERROR: the profile attributes no sample to Engine::run:" >&2
            echo "$out" >&2
            exit 1
        fi
    done
else
    echo "==> profile smoke: skipped"
fi

# Executor smoke: one real figure sweep on 2 workers. Belt and braces
# against a hung pool: the shell kills the process after 60s, and
# --budget-events caps each run inside the simulator (RunBudget fails a
# runaway point typed long before the watchdog fires).
echo "==> figures --figure F2 --size test --jobs 2 (60s watchdog)"
timeout 60 ./target/release/figures \
    --figure F2 --size test --procs 2,4 --jobs 2 --budget-events 50000000 \
    > /dev/null

# Checked smoke: the same class of sweep with the online invariant
# checkers enabled — coherence, gap/latency, conservation, timing — on
# every machine the figure touches. A violation fails the point, which
# fails the run.
echo "==> figures --figure F12 --size test --check --jobs 2 (60s watchdog)"
timeout 60 ./target/release/figures \
    --figure F12 --size test --procs 2,4 --check --jobs 2 \
    --budget-events 50000000 > /dev/null

# Shared points: F3 and F12 plot the same runs, so one invocation sweeping
# both simulates them once — F12 runs nothing — and still leaves F12 a
# whole journal of its own: resumed alone it prints what a journal-less
# solo F12 prints. (The golden tier above is the wide version: its one
# invocation shares 145 of 300 points and must still match byte for byte.)
echo "==> shared points: F12 after F3 runs 0 fresh, and its journal resumes alone"
pdir=$(mktemp -d)
trap 'rm -rf "$pdir"' EXIT
expect_rc 0 "F12: swept in .*(0 fresh, 0 replayed, 6 shared" -- timeout 60 \
    ./target/release/figures --figure F3 --figure F12 --size test --procs 2,4 \
    --jobs 2 --journal "$pdir/j"
timeout 60 ./target/release/figures --figure F12 --size test --procs 2,4 \
    --jobs 2 > "$pdir/solo.out" 2> /dev/null
timeout 60 ./target/release/figures --figure F12 --size test --procs 2,4 \
    --jobs 2 --journal "$pdir/j" --resume > "$pdir/resume.out" 2> "$pdir/resume.err"
grep -q "F12: swept in .*(0 fresh, 6 replayed, 0 shared" "$pdir/resume.err"
if ! diff "$pdir/solo.out" "$pdir/resume.out"; then
    echo "ERROR: F12 resumed from a journal of shared points differs from a solo F12" >&2
    exit 1
fi
# Group commit, read off stderr: serially the submitting thread commits
# after every point, so F3 reports a commit per fresh point and all-shared
# F12 its one batch. (With workers a commit takes whatever finished during
# the one before it: never more commits than that, and the same records.)
timeout 60 ./target/release/figures --figure F3 --figure F12 --size test --procs 2,4 \
    --serial --journal "$pdir/s" > /dev/null 2> "$pdir/serial.err"
grep -q "F3: swept in .*(6 fresh, 0 replayed, 0 shared, 6 commits, jobs=1)" "$pdir/serial.err"
grep -q "F12: swept in .*(0 fresh, 0 replayed, 6 shared, 1 commits, jobs=1)" "$pdir/serial.err"
rm -rf "$pdir"
trap - EXIT

# Fault-negative: under a hostile fault plan the strict checker MUST
# fire (nonzero exit naming an invariant); a quiet pass here would mean
# the checker is wired to nothing.
echo "==> figures --strict-check --faults 7 must fail with a named invariant"
expect_rc 3 "invariant" -- timeout 60 ./target/release/figures \
    --figure F12 --size test --procs 2 --strict-check --faults 7 --jobs 1

# Kill-and-resume: a journaled sweep SIGKILLed mid-run and resumed must
# produce byte-identical stdout to an uninterrupted run.
echo "==> kill-and-resume: journaled sweep survives SIGKILL"
jdir=$(mktemp -d)
trap 'rm -rf "$jdir"' EXIT
timeout 60 ./target/release/figures --figure F2 --size test --procs 2,4,8 \
    --serial --budget-events 50000000 > "$jdir/ref.out"
kill_after_first_commit "$jdir/j.F2" -- ./target/release/figures --figure F2 \
    --size test --procs 2,4,8 --serial --budget-events 50000000 --journal "$jdir/j"
timeout 60 ./target/release/figures --figure F2 --size test --procs 2,4,8 \
    --serial --budget-events 50000000 --journal "$jdir/j" --resume \
    > "$jdir/resume.out"
if ! diff "$jdir/ref.out" "$jdir/resume.out"; then
    echo "ERROR: resumed sweep is not byte-identical to the straight run" >&2
    exit 1
fi

# The same kill on a victim with two workers, whose finished points wait in
# a backlog for the submitting thread's next commit: whatever the kill
# catches there or in flight, a serial resume converges on the same bytes.
echo "==> kill-and-resume: a --jobs 2 victim resumes --serial byte-identically"
kill_after_first_commit "$jdir/p.F2" -- ./target/release/figures --figure F2 \
    --size test --procs 2,4,8 --jobs 2 --budget-events 50000000 --journal "$jdir/p"
timeout 60 ./target/release/figures --figure F2 --size test --procs 2,4,8 \
    --serial --budget-events 50000000 --journal "$jdir/p" --resume \
    > "$jdir/resume-p.out"
if ! diff "$jdir/ref.out" "$jdir/resume-p.out"; then
    echo "ERROR: a --jobs 2 victim resumed --serial is not byte-identical to the straight run" >&2
    exit 1
fi

# And a second kill aimed inside a figure that shares: A1 takes its target
# and clogp series from F8 (one batched commit, the moment its journal
# grows past the header) and then runs clogp-pet itself, which is where
# the kill should land. Wherever it lands, the resume must converge.
echo "==> kill-and-resume: SIGKILL inside a figure written partly from shared points"
timeout 60 ./target/release/figures --figure F8 --figure A1 --size small \
    --serial > "$jdir/ref2.out" 2> /dev/null
kill_after_first_commit "$jdir/k.A1" -- ./target/release/figures --figure F8 \
    --figure A1 --size small --serial --journal "$jdir/k"
timeout 60 ./target/release/figures --figure F8 --figure A1 --size small \
    --serial --journal "$jdir/k" --resume > "$jdir/resume2.out" 2> /dev/null
if ! diff "$jdir/ref2.out" "$jdir/resume2.out"; then
    echo "ERROR: a sweep killed inside a sharing figure did not resume byte-identically" >&2
    exit 1
fi

# Exit-code protocol: 2 = usage (a flag the mode would ignore),
# 3 = point failures salvaged, 4 = journal fingerprint mismatch,
# 5 = journal I/O / interior corruption (which must also name the
# damaged record on stderr).
echo "==> figures exit codes: usage=2, salvaged=3, mismatch=4, corrupt=5"
expect_rc 3 -- timeout 60 ./target/release/figures --figure F2 --size test --procs 2,3 --serial
# Which command lines are refused, and with what message, is the unit test
# of `Cli::parse` (crates/bench); this proves main turns a refusal into 2.
expect_rc 2 "--serial does not apply to --list" -- ./target/release/figures --list --serial
expect_rc 4 -- timeout 60 ./target/release/figures --figure F2 --size test --procs 2,4,8 \
    --seed 7 --serial --budget-events 50000000 --journal "$jdir/j" --resume
printf '\x41' | dd of="$jdir/j.F2" bs=1 seek=40 conv=notrunc 2>/dev/null
expect_rc 5 "record" -- timeout 60 ./target/release/figures --figure F2 --size test \
    --procs 2,4,8 --serial --budget-events 50000000 --journal "$jdir/j" \
    --resume

# Sharded fan-out: fleet.sh launches 3 shard workers over one journal
# directory, SIGKILLs shard 2 after its first committed record,
# relaunches it, and merges — the merged stdout must be byte-identical
# to the serial reference from the kill-and-resume tier above.
echo "==> fleet: 3 shards, SIGKILL one, relaunch, merge == serial"
fdir=$(mktemp -d)
trap 'rm -rf "$jdir" "$fdir"' EXIT
timeout 120 scripts/fleet.sh --shards 3 --kill 2 --dir "$fdir" \
    --out "$fdir/merged.out" -- --figure F2 --size test --procs 2,4,8 \
    --serial --budget-events 50000000 2> /dev/null
if ! diff "$jdir/ref.out" "$fdir/merged.out"; then
    echo "ERROR: fleet merge is not byte-identical to the serial run" >&2
    exit 1
fi

# Shard-merge degradation protocol: an interior-corrupt shard is
# quarantined (exit 5), and once its file is gone entirely the merge
# salvages partial figures (exit 3) with FAILED rows naming the absent
# shard.
echo "==> shard merge exit codes: corrupt=5, missing=3"
printf '\x41' | dd of="$fdir/F2.shard-1-of-3.journal" bs=1 seek=40 \
    conv=notrunc 2>/dev/null
expect_rc 5 "quarantined" -- timeout 60 ./target/release/figures --merge "$fdir" --figure F2 \
    --size test --procs 2,4,8 --serial --budget-events 50000000
rm "$fdir/F2.shard-1-of-3.journal"
expect_rc 3 "shard 1/3" -- timeout 60 ./target/release/figures --merge "$fdir" --figure F2 \
    --size test --procs 2,4,8 --serial --budget-events 50000000

# Scenario tier: every bundled .scn workload sweeps clean on all four
# machine models with the strict invariant checkers on, and its
# telemetry stream passes scnlint (parseable JSONL, monotone
# non-overlapping sim-time windows, conserved event counts). Then one
# workload re-runs on 4 workers: the telemetry bytes must match the
# serial run exactly.
echo "==> scenario tier: bundled .scn workloads, strict-check + scnlint"
sdir=$(mktemp -d)
trap 'rm -rf "$jdir" "$fdir" "$sdir"' EXIT
for scn in examples/scenarios/*.scn; do
    name=$(basename "$scn" .scn)
    timeout 60 ./target/release/figures --scenario "$scn" --size test \
        --procs 2,4 --strict-check --serial --budget-events 50000000 \
        --telemetry "$sdir/$name.jsonl" > /dev/null
    ./target/release/scnlint "$sdir/$name.jsonl" > /dev/null
done
# The writer skips buckets with no events, so interval indexes may jump:
# a long compute phase leaves empty buckets before the barrier's events.
printf '[scenario]\nname = gap\n\n[phase]\nkind = compute\ncycles = 10000\n\n[phase]\nkind = barrier\n' \
    > "$sdir/gap.scn"
timeout 60 ./target/release/figures --scenario "$sdir/gap.scn" --size test --procs 2 \
    --serial --telemetry "$sdir/gap.jsonl" > /dev/null
if ! grep -q '"i":0,' "$sdir/gap.jsonl" || grep -q '"i":1,' "$sdir/gap.jsonl"; then
    echo "ERROR: the gap scenario's telemetry no longer skips bucket 1" >&2
    exit 1
fi
./target/release/scnlint "$sdir/gap.jsonl" > /dev/null
timeout 60 ./target/release/figures --scenario examples/scenarios/bsp.scn \
    --size test --procs 2,4 --strict-check --jobs 4 \
    --budget-events 50000000 --telemetry "$sdir/bsp-j4.jsonl" > /dev/null
if ! cmp "$sdir/bsp.jsonl" "$sdir/bsp-j4.jsonl"; then
    echo "ERROR: scenario telemetry differs between --serial and --jobs 4" >&2
    exit 1
fi
# One id names one definition per invocation: the same file twice sweeps
# once (two files defining one name differently are refused, naming both:
# a unit test of `Cli::parse`).
expect_rc 0 "total: 1 figure(s), 8 point(s)" -- ./target/release/figures \
    --scenario examples/scenarios/bsp.scn --scenario examples/scenarios/bsp.scn \
    --size test --procs 2,4 --serial

echo "==> tier-1 green (total $((SECONDS))s)"
