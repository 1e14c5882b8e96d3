#!/usr/bin/env sh
# Tier-1 verification: configure, build, run the test suite (and the
# socket/daemon tests 20 times over, to catch ordering races), then prove the
# tree still builds and passes with the obs instrumentation (metrics, trace,
# provenance) compiled out via the obs_off_smoke target. Finishes with the
# scale_smoke guard (M=500, N=100k generate -> binary round-trip -> serial
# vs sharded solve -> validate under a time budget) and an obs smoke: a
# small faulted `rtsp execute` with the flight recorder armed, `rtsp
# report`, and obs_lint over the journal + series files.
#
# Usage: scripts/check.sh [--quick | --sanitize | --bench | --daemon-smoke]
#                          [BUILD_DIR]                     (default: build)
#
# --quick is the inner-loop mode: configure, build, and run only the tests
# labelled `unit` (ctest -L unit) — fast and deterministic, skipping the
# property/cli/slow tiers and the smoke guards.
#
# --sanitize runs the same configure/build/test cycle in a separate build
# directory (<BUILD_DIR>_asan) with RTSP_SANITIZE=ON (ASan + UBSan,
# no-recover), instead of the regular cycle; scale_smoke runs there too with
# a roomier budget.
#
# --bench rebuilds perf_heuristics + bench_compare, reruns the benchmarks and
# compares against the committed BENCH_perf_heuristics.json baseline, failing
# (exit 2) on regressions past the bench_compare threshold.
#
# --daemon-smoke rebuilds rtsp + obs_lint + daemon_chaos and runs only the
# daemon crash/recover smoke (also part of the default and sanitize cycles):
# serve in the background, feed epochs over HTTP, SIGKILL it, recover from
# the checkpoint + WAL, drain gracefully (exit 3), lint the durable state,
# compare the final placement against the expected stream tail, and finish
# with a deterministic daemon_chaos sweep.
set -eu

cd "$(dirname "$0")/.."

MODE=check
if [ "${1:-}" = "--sanitize" ]; then
  MODE=sanitize
  shift
elif [ "${1:-}" = "--bench" ]; then
  MODE=bench
  shift
elif [ "${1:-}" = "--quick" ]; then
  MODE=quick
  shift
elif [ "${1:-}" = "--daemon-smoke" ]; then
  MODE=daemon
  shift
fi
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Flight-recorder smoke: faulted execute with journal/series/timeline
# recording on, report over the artifacts, then schema-lint them (plus the
# structured log and an in-process HTTP scrape of the introspect endpoints —
# no curl needed). $1 is the build dir whose rtsp/obs_lint to use.
obs_smoke() {
  SMOKE_DIR="$1/obs_smoke"
  RTSP="$1/tools/rtsp"
  rm -rf "$SMOKE_DIR"
  mkdir -p "$SMOKE_DIR"
  "$RTSP" generate --kind random --servers 10 --objects 60 --seed 7 \
    --out "$SMOKE_DIR/inst.txt" > /dev/null
  "$RTSP" solve --instance "$SMOKE_DIR/inst.txt" --algo GOLCF+H1+H2+OP1 \
    --seed 1 --out "$SMOKE_DIR/plan.txt" \
    --log-out "$SMOKE_DIR/run.log.jsonl" --log-level debug > /dev/null
  cat > "$SMOKE_DIR/faults.json" <<'EOF'
{"version": 1, "seed": 42, "transient_failure_rate": 0.15,
 "offline": [{"server": 2, "begin": 0, "end": 900}],
 "losses": [{"server": 0, "object": 1, "at": 50}, {"server": 3, "object": 7, "at": 200}]}
EOF
  "$RTSP" execute --instance "$SMOKE_DIR/inst.txt" \
    --schedule "$SMOKE_DIR/plan.txt" --faults "$SMOKE_DIR/faults.json" \
    --seed 9 --journal-out "$SMOKE_DIR/run.journal" \
    --timeline-out "$SMOKE_DIR/run.trace.json" \
    --series-out "$SMOKE_DIR/run.series.jsonl" --sample-ms 10 > /dev/null
  "$RTSP" report --journal "$SMOKE_DIR/run.journal" \
    --series "$SMOKE_DIR/run.series.jsonl" \
    --html "$SMOKE_DIR/report.html" --out "$SMOKE_DIR/report.json" > /dev/null
  "$1"/tools/obs_lint --journal "$SMOKE_DIR/run.journal" \
    --series "$SMOKE_DIR/run.series.jsonl" \
    --log "$SMOKE_DIR/run.log.jsonl" --scrape-smoke
}

# Daemon crash/recover smoke: a real kill -9 against a live `rtsp serve`,
# then recovery from the durable state it left behind. $1 is the build dir
# whose rtsp/obs_lint/daemon_chaos to use. Exercises the full loop the unit
# tests cover in-process: HTTP admission, SIGKILL, --recover, /drain with
# the distinct exit code, state linting, and the expected final placement.
daemon_smoke() {
  DSMOKE="$1/daemon_smoke"
  RTSP="$1/tools/rtsp"
  rm -rf "$DSMOKE"
  mkdir -p "$DSMOKE"
  "$RTSP" generate --kind random --servers 8 --objects 40 --seed 11 \
    --out "$DSMOKE/inst.txt" > /dev/null
  "$RTSP" epochs --instance "$DSMOKE/inst.txt" --count 3 --moves 6 --seed 5 \
    --out "$DSMOKE/epochs.jsonl" --final-out "$DSMOKE/expect.place" > /dev/null

  # Phase 1: serve on a kernel-picked port, feed the stream over HTTP, then
  # SIGKILL the daemon so only fsync-ordered checkpoint/WAL state survives.
  "$RTSP" serve --instance "$DSMOKE/inst.txt" --state-dir "$DSMOKE/state" \
    --listen 0 --port-file "$DSMOKE/port" --seed 5 --epoch-budget 40 \
    --checkpoint-every 2 > "$DSMOKE/serve1.log" 2>&1 &
  SERVE_PID=$!
  i=0
  while [ ! -s "$DSMOKE/port" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.05
  done
  if [ ! -s "$DSMOKE/port" ]; then
    echo "daemon_smoke: serve never published its port" >&2
    kill -9 "$SERVE_PID" 2> /dev/null || true
    return 1
  fi
  "$RTSP" submit --port-file "$DSMOKE/port" --epochs "$DSMOKE/epochs.jsonl" \
    > /dev/null
  kill -9 "$SERVE_PID" 2> /dev/null || true
  wait "$SERVE_PID" 2> /dev/null || true

  # Phase 2: recover from the surviving state, let it converge, then drain.
  "$RTSP" serve --instance "$DSMOKE/inst.txt" --state-dir "$DSMOKE/state" \
    --recover --listen 0 --port-file "$DSMOKE/port2" --seed 5 \
    --epoch-budget 40 --checkpoint-every 2 \
    --final-out "$DSMOKE/final.place" > "$DSMOKE/serve2.log" 2>&1 &
  SERVE_PID=$!
  i=0
  while [ ! -s "$DSMOKE/port2" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.05
  done
  if [ ! -s "$DSMOKE/port2" ]; then
    echo "daemon_smoke: recovered serve never published its port" >&2
    cat "$DSMOKE/serve2.log" >&2
    kill -9 "$SERVE_PID" 2> /dev/null || true
    return 1
  fi
  grep -q "recovered: generation" "$DSMOKE/serve2.log" || {
    echo "daemon_smoke: no recovery banner in serve2.log" >&2
    kill -9 "$SERVE_PID" 2> /dev/null || true
    return 1
  }
  i=0
  while [ "$i" -lt 200 ]; do
    if "$RTSP" submit --port-file "$DSMOKE/port2" --status 2> /dev/null \
        | grep -q '"idle":true'; then
      break
    fi
    i=$((i + 1)); sleep 0.05
  done
  "$RTSP" submit --port-file "$DSMOKE/port2" --drain > /dev/null
  set +e
  wait "$SERVE_PID"
  SERVE_CODE=$?
  set -e
  if [ "$SERVE_CODE" -ne 3 ]; then
    echo "daemon_smoke: drained serve exited $SERVE_CODE, want 3" >&2
    cat "$DSMOKE/serve2.log" >&2
    return 1
  fi

  # The durable state must lint (generation-consistent checkpoint + WAL)
  # and the daemon must have landed exactly on the stream's final target.
  "$1"/tools/obs_lint --checkpoint "$DSMOKE/state/checkpoint" \
    --wal "$DSMOKE/state/wal.log"
  cmp "$DSMOKE/final.place" "$DSMOKE/expect.place"

  # Deterministic kill/recover sweep: recovered runs must be bit-identical
  # to uninterrupted ones across randomized crash points and torn tails.
  "$1"/tools/daemon_chaos --seeds 4 --crashes 3
}

if [ "$MODE" = "daemon" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$JOBS" -t rtsp_tool obs_lint daemon_chaos
  daemon_smoke "$BUILD_DIR"
  echo "check.sh: daemon smoke green"
  exit 0
fi

if [ "$MODE" = "sanitize" ]; then
  SAN_DIR="${BUILD_DIR}_asan"
  cmake -B "$SAN_DIR" -S . -DRTSP_SANITIZE=ON
  cmake --build "$SAN_DIR" -j "$JOBS"
  ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS"
  "$SAN_DIR"/tools/scale_smoke 600
  obs_smoke "$SAN_DIR"
  daemon_smoke "$SAN_DIR"
  echo "check.sh: sanitizer build green"
  exit 0
fi

if [ "$MODE" = "quick" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$JOBS"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L unit
  echo "check.sh: quick (unit) green"
  exit 0
fi

if [ "$MODE" = "bench" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j "$JOBS" -t perf_heuristics bench_compare
  FRESH="$BUILD_DIR/bench_fresh.json"
  "$BUILD_DIR"/bench/perf_heuristics --json "$FRESH"
  # 10% threshold: the sub-millisecond builder benches jitter ~5-8% run to
  # run on shared hardware; real regressions from code changes clear 10%.
  "$BUILD_DIR"/tools/bench_compare BENCH_perf_heuristics.json "$FRESH" --fail --threshold 10
  echo "check.sh: bench comparison green"
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# The socket and daemon tests race real threads; a one-in-25 ordering bug
# only shows under repetition.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
  --repeat until-fail:20 -R "Introspect|Net|Daemon"

# RTSP_OBS=OFF must still build (provenance hooks fold away) and pass tests.
cmake --build "$BUILD_DIR" -t obs_off_smoke

# The scale tier must stay solvable within budget.
"$BUILD_DIR"/tools/scale_smoke 120

# The flight recorder's artifacts must stay schema-valid end to end.
obs_smoke "$BUILD_DIR"

# The daemon must survive kill -9 and recover bit-identically.
daemon_smoke "$BUILD_DIR"

echo "check.sh: all green"
