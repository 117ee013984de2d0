#!/usr/bin/env python3
"""Builds and runs the gemmtune host wall-clock benchmark.

    python3 perfbench/run.py --workload gemm_native|serve_small|tune \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/perfbench; later runs only check the build is up
to date. Build output goes to stderr. The benchmark's report goes to
stdout, ending with one JSON line {"correct", "attempted", "failed",
"metrics"}. Exits non-zero, without a JSON line, when the sources are
missing, the build fails, or the run fails or exceeds its time limit.

Every file the run writes (JIT objects, compiler temporaries) stays in a
private directory under .bench_build, removed when the run ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("gemm_native", "serve_small", "tune")
# A run must finish within 180 s; leave room for the build check and
# clean-up around the benchmark process itself.
RUN_TIMEOUT_S = 165
# Library settings that would change what is measured if inherited.
SCRUBBED_ENV = (
    "GEMMTUNE_INTERP", "GEMMTUNE_JIT_CACHE", "GEMMTUNE_JIT_CXX",
    "GEMMTUNE_NATIVE_SIMD", "GEMMTUNE_VM_DISPATCH", "GEMMTUNE_THREADS",
    "GEMMTUNE_PROGRAM_CACHE_MAX",
)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"gemmtune sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            fail(f"build step failed ({rc}): {' '.join(cmd)}", 3)
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (see selftest.py)")
    args = ap.parse_args()

    binary = build()
    scratch = BUILD / "runs" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = str(scratch)  # the JIT compiler's temporaries too
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {proc.returncode}", 5)
    try:
        result = json.loads(out.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out)
        fail("benchmark printed no result line", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail(f"unexpected result keys {sorted(result)}", 5)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
