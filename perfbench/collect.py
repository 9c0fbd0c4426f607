#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads figures fig4 study \
        --seeds 0-9 [--trace] [--out perfbench/out/collect.json]

For every end-to-end metric of every workload it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, beside the
metric's bound from ``BENCHMARK.json``, and stores them with the host
facts of each run.  With ``--trace`` it also makes one traced run per
workload, at the first seed, and stores its metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    full = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(full.read_text())


def summarise(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["figures", "fig4", "study"])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=str(ROOT / "perfbench" / "out"
                                         / "collect.json"))
    opts = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(opts.seeds)
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in opts.workloads:
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "host": results[0]["host"],
            "host_ref_ms_per_run": [r["host"]["ref_ms"] for r in results],
            "end_to_end": {},
        }
        print(f"{workload}: correct={entry['correct']} "
              f"failed {entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarise(values, bound)
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {name:18s} median {s['median']:12.5g}  "
                  f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}")
        if opts.trace:
            traced = run(workload, seeds[0], seconds, 1)
            entry["traced"] = {"info": traced["info"],
                               "metrics": traced["metrics"],
                               "report_only": traced["report_only"]}
        summary["workloads"][workload] = entry
    Path(opts.out).parent.mkdir(parents=True, exist_ok=True)
    Path(opts.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
