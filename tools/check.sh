#!/usr/bin/env bash
# CI-style verification: the tier-1 build + full test suite, a
# ThreadSanitizer build of the concurrency-sensitive tests (the parallel
# execution layer, the work-group-parallel interpreter, kernel handles and
# concurrent native JIT builds, the trace collector, concurrent GemmEngine
# calls, and the serving core's request executors), and an
# AddressSanitizer + UndefinedBehaviorSanitizer build of the whole suite.
#
# Usage: tools/check.sh [--tier1-only|--tsan-only|--asan-only] [jobs]
#
# Environment:
#   CTEST_PARALLEL_LEVEL  test-run parallelism (default: the jobs value)
#   WERROR=1              configure with -DGEMMTUNE_WERROR=ON (CI sets this)
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TIER1=1
RUN_TSAN=1
RUN_ASAN=1
case "${1:-}" in
  --tier1-only) RUN_TSAN=0; RUN_ASAN=0; shift ;;
  --tsan-only)  RUN_TIER1=0; RUN_ASAN=0; shift ;;
  --asan-only)  RUN_TIER1=0; RUN_TSAN=0; shift ;;
esac

# Portable core count: nproc is Linux-only.
detect_jobs() {
  if command -v nproc >/dev/null 2>&1; then nproc
  elif getconf _NPROCESSORS_ONLN >/dev/null 2>&1; then
    getconf _NPROCESSORS_ONLN
  elif sysctl -n hw.ncpu >/dev/null 2>&1; then
    sysctl -n hw.ncpu
  else echo 2
  fi
}

JOBS="${1:-$(detect_jobs)}"
TEST_JOBS="${CTEST_PARALLEL_LEVEL:-$JOBS}"
CMAKE_ARGS=()
if [[ "${WERROR:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DGEMMTUNE_WERROR=ON)
fi

if [[ "$RUN_TIER1" == "1" ]]; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}" >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$TEST_JOBS"
fi

if [[ "$RUN_TSAN" == "1" ]]; then
  echo "== ThreadSanitizer: parallel_test + kernelir_test + vm_test + native_test + trace_test + servecore_test + blas_test =="
  cmake -B build-tsan -S . -DGEMMTUNE_TSAN=ON \
    "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}" >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target parallel_test kernelir_test vm_test native_test trace_test \
             servecore_test blas_test
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
    -R '^(parallel_test|kernelir_test|vm_test|native_test|trace_test|servecore_test|blas_test)$'
fi

if [[ "$RUN_ASAN" == "1" ]]; then
  echo "== AddressSanitizer + UndefinedBehaviorSanitizer: full test suite =="
  cmake -B build-asan -S . -DGEMMTUNE_ASAN=ON \
    "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}" >/dev/null
  cmake --build build-asan -j "$JOBS"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure -j "$TEST_JOBS"
fi

echo "== all checks passed =="
