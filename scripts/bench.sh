#!/usr/bin/env bash
# Runs the hot-path micro-benchmarks and appends one JSON line per
# benchmark to BENCH_hotpaths.json (override with BENCH_JSON).
#
# Usage:
#   scripts/bench.sh                  # run everything, label "current"
#   BENCH_LABEL=mybranch scripts/bench.sh event_queue
#
# Each line is {"name", "mean_ns", "min_ns", "samples", "label"}; the
# checked-in file keeps a "seed" baseline so regressions are diffable.
set -euo pipefail
cd "$(dirname "$0")/.."

# Anchor relative paths to the repo root: cargo runs bench binaries with
# the *package* directory as cwd, which would scatter JSON files under
# crates/bench/.
export BENCH_JSON="${BENCH_JSON:-BENCH_hotpaths.json}"
case "$BENCH_JSON" in
/*) ;;
*) BENCH_JSON="$PWD/$BENCH_JSON" ;;
esac
export BENCH_LABEL="${BENCH_LABEL:-current}"
export BENCH_MEASURE_SECS="${BENCH_MEASURE_SECS:-3}"

cargo bench -p bench --bench hotpaths -- "$@"

# With no filter args (a full run), also time the real quick suite end to
# end: the default path users run (forking, with the checkpoint store
# serving shared warm-ups, windows and completions) and the same suite
# with --no-fork, whose rows go back to pr5. Their delta is the
# shared-prefix payoff. --no-fork also re-simulates every cell several
# experiments show, so the repro_suite_quick_fifo row times the suite
# with nothing shared.
if [ "$#" -eq 0 ]; then
    cargo build --release -p experiments --bin repro >/dev/null 2>&1
    repro=target/release/repro
    time_suite() { # time_suite <name> <extra repro args...>
        local name="$1"
        shift
        local samples=3 total=0 min=""
        for _ in $(seq "$samples"); do
            local t0 t1 dt
            t0="$(date +%s%N)"
            "$repro" --quick --jobs 8 "$@" all >/dev/null 2>/dev/null
            t1="$(date +%s%N)"
            dt=$((t1 - t0))
            total=$((total + dt))
            if [ -z "$min" ] || [ "$dt" -lt "$min" ]; then min="$dt"; fi
        done
        printf '{"name":"%s","mean_ns":%d,"min_ns":%d,"samples":%d,"label":"%s"}\n' \
            "$name" "$((total / samples))" "$min" "$samples" "$BENCH_LABEL" >> "$BENCH_JSON"
        echo "suite ${name}: mean $((total / samples / 1000000)) ms over ${samples} runs"
    }
    time_suite repro_suite_quick_fork
    time_suite repro_suite_quick_fifo --no-fork
fi

echo "appended results to ${BENCH_JSON} (label: ${BENCH_LABEL})"
