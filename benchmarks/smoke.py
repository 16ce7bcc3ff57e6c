#!/usr/bin/env python3
"""Smoke test of the benchmark at reduced sizes.

    python3 benchmarks/smoke.py

Runs every workload untraced and traced for one second in `--smoke` mode
and checks the result line against BENCHMARK.json: exact keys, every
metric with its unit, finite values, non-zero end-to-end values, no failed
operation. Then checks that the benchmark exits non-zero without printing
a result from a directory that holds only BENCHMARK.json and benchmarks/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(cwd: str, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{wl['name']} --trace {trace}"
            proc = run_bench(ROOT, wl["name"], trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metrics missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, m in got.items():
                value = m["value"]
                if m["unit"] != want.get(name, m["unit"]):
                    problems.append(f"{tag}: {name} unit {m['unit']} != {want[name]}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {name} = {value!r}")
                elif key == "end_to_end" and value == 0:
                    problems.append(f"{tag}: {name} is 0")
            print(f"ok  {tag}: {result['attempted']} operations, {len(got)} metrics")

    bare = os.path.join(HERE, ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(bare, spec["workloads"][0]["name"], 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  bare directory: exit {proc.returncode}, no result printed")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
