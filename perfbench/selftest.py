#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 1]

Checks, for every workload in ``BENCHMARK.json``:
  * an untraced run prints every end-to-end metric, by name and with the
    unit the file names, in its result line and in its text lines, and
    reports no failed operation;
  * two traced runs with the same seed print every per-layer metric with
    its unit, and their counts (calls, nodes, bytes, overlap counts and
    shares) are identical;
and that the benchmark refuses to run, without printing a result, from a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
COUNT_UNITS = ("count", "bytes", "ratio")


def run(script: Path, cwd: Path, workload: str, seed: int, seconds: float,
        trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc, what: str) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}\n{proc.stdout}")
    return result, lines[:-1]


def check_metrics(what: str, result: dict, text: list[str], spec: list) -> None:
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec}
    if set(got) != set(want):
        fail(f"{what}: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail(f"{what}: {name} has unit {got[name]['unit']!r}, "
                 f"expected {unit!r}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in text):
            fail(f"{what}: no text line for {name} with unit {unit}")


def fail(message: str):
    print(f"FAIL {message}")
    raise SystemExit(1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=3)
    opts = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    for wl in (w["name"] for w in bench["workloads"]):
        proc = run(RUN, ROOT, wl, opts.seed, opts.seconds, 0)
        result, text = result_of(proc, f"{wl} untraced")
        check_metrics(f"{wl} untraced", result, text, bench["end_to_end"])
        traced = []
        for attempt in (1, 2):
            proc = run(RUN, ROOT, wl, opts.seed, opts.seconds, 1)
            result, text = result_of(proc, f"{wl} traced #{attempt}")
            check_metrics(f"{wl} traced", result, text, bench["per_layer"])
            traced.append(result["metrics"])
        for name, m in traced[0].items():
            if m["unit"] in COUNT_UNITS and m != traced[1][name]:
                fail(f"{wl}: {name} differs between runs with the same seed: "
                     f"{m['value']!r} vs {traced[1][name]['value']!r}")
        print(f"ok {wl}")

    # A directory with only BENCHMARK.json and the benchmark must refuse.
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / "perfbench" / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare / "perfbench" / "run.py", bare, "fig4", 0, 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"bare directory: exit {proc.returncode}, "
                 f"stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
