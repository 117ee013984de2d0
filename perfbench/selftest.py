#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at tiny sizes (run.py --tiny),
once untraced and once traced, and checks that each run is correct, fails
nothing, and emits exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json lists, each with its unit. Exits non-zero on the
first mismatch report.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload["name"], "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{label}: {name} expected unit "
                                    f"{want.get(name)}, got {got.get(name)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            print(f"{label}: {len(got)} metrics, attempted "
                  f"{result['attempted']}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
