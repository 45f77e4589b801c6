#!/usr/bin/env bash
# The repo's CI gate: formatting, lints, tier-1 tests, and a parallel
# quick reproduction of every experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt check ==" >&2
cargo fmt --all --check

echo "== clippy (deny warnings) ==" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) ==" >&2
cargo build --release

echo "== simlint (determinism & poisoning rules) ==" >&2
# The D1-D7 gate (see DESIGN.md §4.9). Fails on any finding not covered
# by the checked-in simlint.allow baseline and on stale baseline entries.
# After an intentional, justified addition, regenerate the baseline with
#   cargo run -p simlint --release -- --workspace --write-baseline
# and record the justification as a `#` comment above the new entry.
cargo run -p simlint --release --quiet -- --workspace --baseline simlint.allow

echo "== experiments are functions of records ==" >&2
# An experiment cell runs a machine only through Grid::window or
# Grid::finish and reads only the Measured record they return (DESIGN.md
# §4.7). Outside the runner, no file under crates/experiments/src may
# name `Machine`, run one, or read its stats or guest kernel.
if grep -rnE '\bMachine\b|run_until|vm_work_done|\.stats\.|\.kernel\.' \
    --include='*.rs' --exclude=runner.rs --exclude-dir=runner crates/experiments/src; then
    echo "an experiment reads a machine instead of its Measured record" >&2
    exit 1
fi

echo "== doc build (deny warnings) ==" >&2
# Broken intra-doc links and missing docs (missing_docs warns
# workspace-wide) fail fast here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== tests ==" >&2
cargo test -q

echo "== tests (release) ==" >&2
# The debug run above ignores the heavy tests
# (`#[cfg_attr(debug_assertions, ignore)]`): the byte-identity suites,
# the paper-shape checks and the calibration checks. Release runs them
# all, and the seeded harnesses at full size: 100 generated scenarios
# under --paranoid (scenario_fuzz; debug runs a 16-case slice), the
# 100-plan fault fuzz with its empty-plan byte-identity check
# (fault_injection), and the timing wheel against a binary-heap
# reference over 72 seeded op streams (wheel_vs_heap). Every seed is
# fixed, so a failure here is a real bug, never flake.
cargo test --release -q -p experiments -p workloads

echo "== simbench tests ==" >&2
# simbench is a workspace of its own that builds the simulator's crates
# from their paths, so no step above compiles it: without this step, a
# change to an API simbench calls would first break in the benchmark
# run. None of its tests runs the untraced pass that resets the peak-RSS
# counter.
cargo test --offline --manifest-path simbench/Cargo.toml

echo "== quick suite reference ==" >&2
# The quick-repro smoke, and the reference stdout the fork and serial
# steps below compare against.
ci_out="$(mktemp -d)"
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 2 all > "$ci_out/reference.txt"

echo "== shared-prefix fork byte-identity (--fork vs --no-fork) ==" >&2
# Forking warm snapshots is an execution strategy, never an observable:
# the quick suite's stdout must not change when cells re-simulate their
# warm prefix from scratch and every cell several experiments show is
# simulated again for each of them (--no-fork bypasses the checkpoint
# store). The reference run forked (the default), so one --no-fork pass
# closes the comparison.
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 2 --no-fork all > "$ci_out/scratch.txt"
cmp "$ci_out/reference.txt" "$ci_out/scratch.txt" || {
    echo "forked cells changed repro output vs --no-fork" >&2
    exit 1
}

echo "== serial driver byte-identity (--jobs 1 vs --jobs 2) ==" >&2
# The serial loop and the streamed fan-out are two driver paths over the
# same invocation budget and checkpoint store: at --jobs 1 every
# experiment runs in order on one thread, and the bytes must match the
# 2-job runs above.
cargo run --release -p experiments --bin repro -- \
    --quick --jobs 1 all > "$ci_out/serial.txt"
cmp "$ci_out/reference.txt" "$ci_out/serial.txt" || {
    echo "the serial driver path changed repro output vs --jobs 2" >&2
    exit 1
}
rm -rf "$ci_out"

echo "== full-budget reproduction ==" >&2
# The full budget is what EXPERIMENTS.md reports, and no other step runs
# it. A failed cell aborts repro with a non-zero exit, which fails the
# step; the `compare` tally goes to the log. The stdout's `cksum` must
# equal the value recorded here (fnv64 `cc2499a38ab09b08`), so a change
# that moves a full-budget byte says so, as the quick digests in
# tests/determinism.rs do; a change that alters it on purpose updates
# this line and says why. `NaN` cells and `DEVIATION` verdicts are not
# gated until ROADMAP item 1 lands: the swaptions co-runner still runs
# out of iterations in long cells.
full_out="$(mktemp)"
target/release/repro --jobs 2 all > "$full_out"
grep 'Paper-vs-measured shape verification' "$full_out" >&2
full_sum="$(cksum < "$full_out")"
rm -f "$full_out"
if [ "$full_sum" != "1619511864 12983" ]; then
    echo "full-budget stdout cksum '$full_sum', recorded '1619511864 12983'" >&2
    exit 1
fi

echo "== scenario catalog smoke ==" >&2
# The declarative scenario catalog (SCENARIOS.md): every cookbook file
# must pass both validation layers and a representative file must render
# byte-identical stdout across --jobs (the release test step above runs
# the scenario fuzzer).
target/release/repro scenarios examples/scenarios --check
sc_out="$(mktemp -d)"
# No --quick here: quick mode floors measurement windows at 800 ms,
# which would *inflate* the cookbook's deliberately small windows.
target/release/repro --jobs 1 \
    --scenario examples/scenarios/overcommit-grid.toml > "$sc_out/j1.txt"
target/release/repro --jobs 2 \
    --scenario examples/scenarios/overcommit-grid.toml > "$sc_out/j2.txt"
cmp "$sc_out/j1.txt" "$sc_out/j2.txt" || {
    echo "--jobs changed scenario stdout" >&2
    exit 1
}
rm -rf "$sc_out"

echo "== root examples print their recorded bytes ==" >&2
# The five examples under examples/ are user-facing surfaces that no test
# runs. Each runs with no arguments (about a second for all five), and
# the `cksum` of its stdout must equal the value recorded here. A change
# that alters an example's output on purpose updates its line and says
# why.
cargo build --release --quiet -p microslice --examples
while read -r example sum bytes; do
    got="$(target/release/examples/"$example" </dev/null | cksum)"
    if [ "$got" != "$sum $bytes" ]; then
        echo "example $example printed cksum '$got', recorded '$sum $bytes'" >&2
        exit 1
    fi
done <<'EXAMPLES'
quickstart 2959084517 516
io_latency 3826160000 626
adaptive_in_action 2522867142 1567
consolidation_study 171064692 414
symbol_detective 1840999595 5707
EXAMPLES

echo "== bench smoke (hot paths within 25% of committed baseline) ==" >&2
# Re-measure the two load-bearing hot-path benchmarks and compare each
# against its committed baseline in BENCH_hotpaths.json; >25% slower
# fails the gate. Real regressions of the kind this guards against
# (accidental O(n) in the queue, a lost inline) blow far past 25%.
#
# Each row's statistic is its minimum: host preemption only ever adds
# time, so the mean swings 10-15% run-to-run on an unchanged build while
# min-of-N stays put within one process. Across processes it does not:
# event_queue_push_pop_1k's minimum is bimodal per process (the same
# build reads either of two levels about 40% apart, by where the process
# lands, and the slow level is the more common one), so a median over a
# few processes follows which level most of them landed on. The gate
# therefore runs the benches in ten fresh processes and takes the
# minimum of their minima per row: it reads the fast level unless all
# ten processes land on the slow one. The baseline is the minimum over
# the rows of that name's newest label, recorded by the same procedure:
# ten processes at 0.5-s windows (the ten take about 40 s on a 2-vCPU
# host, most of it the benches' fixed 1-s warm-ups).
#
# The comparison is host-speed-normalized: `calibration_spin` is a fixed
# pure-integer workload whose minimum tracks only the executing core's
# effective speed, so the gate compares
#     fresh_min / fresh_calibration  vs  committed_min / committed_calibration
# instead of raw nanoseconds. A CI host running at a different clock (or
# a laptop on battery) shifts both numerator and denominator together
# and the ratio stays put; a real code regression moves only the
# numerator (the pr6->pr7 push_pop "regression" was half host drift).
smoke_json="$(mktemp)"
for _ in $(seq 10); do
    BENCH_JSON="$smoke_json" BENCH_LABEL=smoke BENCH_MEASURE_SECS=0.5 \
        scripts/bench.sh calibration_spin event_queue_push_pop_1k simulate_one_second_baseline >/dev/null
done
# min_min FILE NAME: the minimum min_ns over the rows named NAME that
# carry the label of that name's last row.
min_min() {
    awk -v name="$2" '
        index($0, "\"name\":\"" name "\"") {
            split($0, parts, "\"min_ns\":")
            split(parts[2], num, ",")
            split($0, parts, "\"label\":\"")
            split(parts[2], lab, "\"")
            n++
            mins[n] = num[1] + 0
            labels[n] = lab[1]
        }
        END {
            if (n == 0) exit
            m = ""
            for (i = 1; i <= n; i++)
                if (labels[i] == labels[n] && (m == "" || mins[i] < m)) m = mins[i]
            printf "%.1f\n", m
        }
    ' "$1"
}
committed_cal="$(min_min BENCH_hotpaths.json calibration_spin)"
fresh_cal="$(min_min "$smoke_json" calibration_spin)"
for name in event_queue_push_pop_1k simulate_one_second_baseline; do
    committed="$(min_min BENCH_hotpaths.json "$name")"
    fresh="$(min_min "$smoke_json" "$name")"
    awk -v committed="$committed" -v fresh="$fresh" \
        -v ccal="$committed_cal" -v fcal="$fresh_cal" -v name="$name" 'BEGIN {
        if (committed == "" || fresh == "" || ccal == "" || fcal == "") {
            printf "bench smoke: missing row (name=%s committed=%s fresh=%s committed_cal=%s fresh_cal=%s)\n", \
                name, committed, fresh, ccal, fcal > "/dev/stderr"
            exit 1
        }
        committed_ratio = (committed + 0) / (ccal + 0)
        fresh_ratio = (fresh + 0) / (fcal + 0)
        if (fresh_ratio > committed_ratio * 1.25) {
            printf "bench smoke: %s regressed >25%% normalized: min %.0f ns (ratio %.4f) vs committed %.0f ns (ratio %.4f)\n", \
                name, fresh, fresh_ratio, committed, committed_ratio > "/dev/stderr"
            exit 1
        }
        printf "bench smoke: %s ok (min %.0f ns, ratio %.4f vs committed %.4f)\n", \
            name, fresh, fresh_ratio, committed_ratio > "/dev/stderr"
    }'
done
rm -f "$smoke_json"

echo "== paranoid quick repro under injected faults ==" >&2
cargo run --release -p experiments --bin repro -- --quick --paranoid \
    --faults count=24,window_ms=300 --keep-going fig9 table2 > /dev/null

echo "== crash-replay soak (randomized seeds, ~30 s) ==" >&2
# Hammer one cheap experiment and one scenario file with random seeds,
# alternating survivable fault plans (kinds=all: no artifacts expected)
# and sabotage plans (every cell crashes and dumps an artifact). Then
# execute every artifact's embedded replay command and require it to
# reproduce the recorded failure line — the suite must end with zero
# unreplayable failures, and with at least one scenario cell replayed
# (its `scenario:PATH` id must survive into the artifact's file name
# and replay command).
soak_dir="$(mktemp -d)"
soak_deadline=$(($(date +%s) + 30))
soak_i=0
while [ "$(date +%s)" -lt "$soak_deadline" ]; do
    soak_i=$((soak_i + 1))
    seed=$((RANDOM * 32768 + RANDOM))
    if [ $((soak_i % 2)) -eq 0 ]; then kinds=all; else kinds=sabotage; fi
    target/release/repro --quick --keep-going --seed "$seed" \
        --faults "seed=$seed,count=24,window_ms=300,kinds=$kinds" \
        --artifacts "$soak_dir/crash$soak_i" table2 \
        --scenario examples/scenarios/solo-gmake.toml >/dev/null 2>&1 || true
done
unreplayable=0
replayed=0
scenario_replayed=0
for artifact in "$soak_dir"/crash*/*.txt; do
    [ -e "$artifact" ] || continue
    recorded="$(sed -n 's/^failure: //p' "$artifact" | head -1)"
    replay="$(sed -n 's/^replay: repro //p' "$artifact" | head -1)"
    if [ -z "$replay" ]; then
        echo "soak: $artifact has no replay command" >&2
        unreplayable=$((unreplayable + 1))
        continue
    fi
    rerun_dir="$(mktemp -d)"
    eval "target/release/repro --artifacts '$rerun_dir' $replay" \
        >/dev/null 2>&1 || true
    fresh="$(cat "$rerun_dir"/*.txt 2>/dev/null | sed -n 's/^failure: //p' | head -1)"
    if [ "$recorded" != "$fresh" ]; then
        echo "soak: unreplayable failure in $artifact" >&2
        echo "  recorded: $recorded" >&2
        echo "  fresh:    ${fresh:-<no failure reproduced>}" >&2
        unreplayable=$((unreplayable + 1))
    else
        replayed=$((replayed + 1))
        if grep -q '^experiment: scenario:' "$artifact"; then
            scenario_replayed=$((scenario_replayed + 1))
        fi
    fi
    rm -rf "$rerun_dir"
done
if [ "$unreplayable" -ne 0 ]; then
    echo "soak: $unreplayable unreplayable failures" >&2
    exit 1
fi
if [ "$scenario_replayed" -eq 0 ]; then
    echo "soak: no scenario-cell artifact was written and replayed" >&2
    exit 1
fi
echo "soak: $soak_i faulted runs, $replayed artifacts replayed identically" \
    "($scenario_replayed of them scenario cells)" >&2
rm -rf "$soak_dir"

echo "CI OK" >&2
