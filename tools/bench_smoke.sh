#!/usr/bin/env bash
# Bench regression smoke: run a small, fast, deterministic subset of the
# reproduction benches, emit their machine-readable result files, ingest
# every report into a scratch bench-db, and gate them against the
# checked-in baselines in bench/baselines/ with `gemmtune bench-db
# compare`. CI runs this as its third job.
#
# Usage: tools/bench_smoke.sh [--update | --reseed-db]
#   --update     regenerate bench/baselines/ from the current build
#                instead of comparing (commit the result)
#   --reseed-db  regenerate the committed trajectory seed bench/db/ci.jsonl
#                from the current build: five synthetic commits seed-1..5
#                of every smoke report, with a pinned hostname and thread
#                count so the artifact is machine-independent (commit it)
#
# Environment:
#   BUILD_DIR  build tree with compiled benches (default: build)
#   OUT_DIR    where to put the fresh results (default: $BUILD_DIR/bench-smoke)
#   RTOL       relative tolerance for the comparison (default: 1e-4)
#   GEMMTUNE   gemmtune binary (default: $BUILD_DIR/tools/gemmtune)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-$BUILD_DIR/bench-smoke}"
RTOL="${RTOL:-1e-4}"
GEMMTUNE="${GEMMTUNE:-$BUILD_DIR/tools/gemmtune}"
BASELINES=bench/baselines
SMOKE_DB="$OUT_DIR/smoke.jsonl"
CI_DB=bench/db/ci.jsonl

# Model-driven benches (pure functions of the device tables, so the
# baselines are tight) plus the micro benches, which run only deterministic
# checks: their gated scalars are pass/fail bits, dynamic counters and
# exact element sums (host wall-clock is perfbench's). serve_core
# follows the same contract: its checksum check and overload accounting
# are exact. strategy_quality gates the guided-search acceptance criterion
# (model_topk and anneal match the exhaustive winner at <= 10% of its
# measurements) and exits non-zero when a strategy regresses below the
# exhaustive bar.
SMOKE="table3_impl_vs_vendor fig9_tahiti fig10_nvidia smallsize_direct \
micro_interp micro_layout serve_core strategy_quality"

MODE=check
case "${1:-}" in
  --update) MODE=update ;;
  --reseed-db) MODE=reseed ;;
  "") ;;
  *) echo "usage: tools/bench_smoke.sh [--update | --reseed-db]" >&2; exit 2 ;;
esac

if [[ ! -x "$GEMMTUNE" ]]; then
  echo "error: $GEMMTUNE not built (build the gemmtune_tool target first)" >&2
  exit 2
fi

# The reseed artifact is committed, so pin every machine-dependent meta
# field the reports would otherwise pick up from this host.
if [[ "$MODE" == "reseed" ]]; then
  export GEMMTUNE_HOSTNAME=ci-seed
  export GEMMTUNE_THREADS=1
fi

mkdir -p "$OUT_DIR"
rm -f "$SMOKE_DB"
status=0
reports=()
for b in $SMOKE; do
  bin="$BUILD_DIR/bench/bench_$b"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (build the repo first)" >&2
    exit 2
  fi
  extra=""
  case "$b" in
    # Smaller space (800 candidates, budget 80 = 10%) keeps the smoke
    # fast; the acceptance gate is identical to the full-size run.
    strategy_quality) extra="800 80" ;;
  esac
  "$bin" $extra --json "$OUT_DIR/$b.json" > "$OUT_DIR/$b.txt"
  reports+=("$OUT_DIR/$b.json")
  if [[ "$MODE" == "update" ]]; then
    mkdir -p "$BASELINES"
    cp "$OUT_DIR/$b.json" "$BASELINES/$b.json"
    echo "[$b] baseline updated"
  elif [[ "$MODE" == "check" ]]; then
    "$GEMMTUNE" bench-db compare "$BASELINES/$b.json" "$OUT_DIR/$b.json" \
      --rtol "$RTOL" || status=1
  fi
done

# Native-backend leg: re-run the micro_interp bench in --native mode. It
# JITs the Table II kernel through the host toolchain into a fresh
# GEMMTUNE_JIT_CACHE directory (so the .so landing there proves the disk
# cache works end to end) and gates the three-way differential bits plus
# the native >= 3x-over-bytecode speedup bit against
# micro_interp_native.json. The bench exits 3 when no usable host
# compiler exists; that skips the leg instead of failing it.
NATIVE_CACHE="$OUT_DIR/jit-cache"
rm -rf "$NATIVE_CACHE"
mkdir -p "$NATIVE_CACHE"
native_rc=0
GEMMTUNE_JIT_CACHE="$NATIVE_CACHE" "$BUILD_DIR/bench/bench_micro_interp" \
  --native --json "$OUT_DIR/micro_interp_native.json" \
  > "$OUT_DIR/micro_interp_native.txt" || native_rc=$?
if [[ "$native_rc" == "3" ]]; then
  echo "[micro_interp_native] skipped: no usable host toolchain"
elif [[ "$native_rc" != "0" ]]; then
  echo "error: bench_micro_interp --native failed (rc $native_rc)" >&2
  status=1
else
  if ! ls "$NATIVE_CACHE"/gemmtune-*.so >/dev/null 2>&1; then
    echo "[micro_interp_native] no .so landed in GEMMTUNE_JIT_CACHE" >&2
    status=1
  fi
  reports+=("$OUT_DIR/micro_interp_native.json")
  if [[ "$MODE" == "update" ]]; then
    cp "$OUT_DIR/micro_interp_native.json" "$BASELINES/micro_interp_native.json"
    echo "[micro_interp_native] baseline updated"
  elif [[ "$MODE" == "check" ]]; then
    "$GEMMTUNE" bench-db compare "$BASELINES/micro_interp_native.json" \
      "$OUT_DIR/micro_interp_native.json" --rtol "$RTOL" || status=1
  fi
fi

# Serving stress leg: a sustained overload workload through the serve
# pipeline (deterministic at any thread count), so the serve report's
# throughput, shed counters and p50/p99/p999 tail percentiles ride the
# same baseline + trajectory gates as the bench reports.
SERVE_WL="requests=500,seed=23,rate=120000,max_batch=8,queue=32"
SERVE_WL="$SERVE_WL,devices=Tahiti+Kepler+Cayman+SandyBridge"
"$GEMMTUNE" serve --workload "$SERVE_WL" \
  --report "$OUT_DIR/serve_stress.json" > "$OUT_DIR/serve_stress.txt"
reports+=("$OUT_DIR/serve_stress.json")
if [[ "$MODE" == "update" ]]; then
  cp "$OUT_DIR/serve_stress.json" "$BASELINES/serve_stress.json"
  echo "[serve_stress] baseline updated"
elif [[ "$MODE" == "check" ]]; then
  "$GEMMTUNE" bench-db compare "$BASELINES/serve_stress.json" \
    "$OUT_DIR/serve_stress.json" --rtol "$RTOL" || status=1
fi

if [[ "$MODE" == "reseed" ]]; then
  # Five synthetic commits of the identical deterministic results: the
  # trajectory the CI gate starts from until real history accumulates.
  mkdir -p "$(dirname "$CI_DB")"
  rm -f "$CI_DB"
  for i in 1 2 3 4 5; do
    "$GEMMTUNE" bench-db ingest "${reports[@]}" --db "$CI_DB" \
      --commit "seed-$i" --time "$i"
  done
  echo "reseeded $CI_DB ($(wc -l < "$CI_DB") records)"
  exit 0
fi

# Every report of this run also lands in a scratch experiment database,
# which doubles as an ingest smoke and gives one queryable record set.
"$GEMMTUNE" bench-db ingest "${reports[@]}" --db "$SMOKE_DB"
"$GEMMTUNE" bench-db query --db "$SMOKE_DB"

if [[ "$MODE" == "check" && "$status" != "0" ]]; then
  echo "bench smoke: regressions detected (see above)" >&2
fi
exit "$status"
