#!/usr/bin/env python3
"""polcascade benchmark: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload {figures,fig4,study} --seed N \
        --seconds S --trace {0,1}

Run it from a checkout of the repository; it imports the package from
``src/`` and builds nothing.  ``--trace 0`` times the workload untraced
and prints the end-to-end metrics.  ``--trace 1`` repeats a fixed pass
of the workload's operations, once untraced and once traced, and prints
the per-layer metrics and the tracing overhead.  Correctness checks run
outside the timed regions in both modes.  The last line of standard
output is the JSON result; the full result (host facts included) and the
recorded spans go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_SAMPLES_PER_CHECKPOINT = 3

# Workload-specific names for the end-to-end figures of each workload:
# alias -> (metric, scale, unit).
ALIASES = {
    "figures": {
        "figures_s.p50": ("latency_ms.p50", 1e-3, "s"),
        "figures_peak_rss_mb": ("peak_rss_mb", 1.0, "MB"),
    },
    "fig4": {
        "fig4_points_per_s": ("throughput_per_s", 1.0, "1/s"),
        "fig4_sweep_ms.p50": ("latency_ms.p50", 1.0, "ms"),
        "fig4_sweep_ms.p90": ("latency_ms.p90", 1.0, "ms"),
    },
    "study": {
        "study_points_per_s": ("throughput_per_s", 1.0, "1/s"),
        "study_point_ms.p50": ("latency_ms.p50", 1.0, "ms"),
        "study_point_ms.p90": ("latency_ms.p90", 1.0, "ms"),
    },
}

# Per-layer metrics read from span totals: (metric, unit, span, field).
# Counts may read 0 on a workload that never calls the layer; every time
# listed here is spent on all three workloads.
SPAN_METRICS = (
    ("kernels.overlap_integrand.calls", "count", "kernels.overlap_integrand", "calls"),
    ("kernels.overlap_integrand.nodes", "count", "kernels.overlap_integrand", "work"),
    ("kernels.overlap_integrand.ms", "ms", "kernels.overlap_integrand", "ms"),
    ("pairstate.windowed_overlap.calls", "count", "pairstate.windowed_overlap", "calls"),
    ("pairstate.windowed_overlap.self_ms", "ms", "pairstate.windowed_overlap", "self_ms"),
    ("pairstate.overlap_box.self_ms", "ms", "pairstate.overlap_box", "self_ms"),
    ("pairstate.gamma_prime.calls", "count", "pairstate.gamma_prime", "calls"),
    ("pairstate.gamma_prime.ms", "ms", "pairstate.gamma_prime", "ms"),
    ("pairstate.gamma_unprojected.calls", "count", "pairstate.gamma_unprojected", "calls"),
    ("cascade.enumerate_channels.calls", "count", "cascade.enumerate_channels", "calls"),
    ("cascade.enumerate_channels.ms", "ms", "cascade.enumerate_channels", "ms"),
    ("polariton.solve_polaritons.calls", "count", "polariton.solve_polaritons", "calls"),
    ("polariton.solve_polaritons.ms", "ms", "polariton.solve_polaritons", "ms"),
    ("model.with_detuning.calls", "count", "model.with_detuning", "calls"),
    ("entanglement.projected_state.calls", "count", "entanglement.projected_state", "calls"),
    ("experiments.tracked_window.ms", "ms", "experiments.tracked_window", "ms"),
    ("experiments.write_rows_csv.bytes", "bytes", "experiments.write_rows_csv", "work"),
    ("cascade.write_spectrum_csv.bytes", "bytes", "cascade.write_spectrum_csv", "work"),
    ("svg.line_plot.bytes", "bytes", "svg.line_plot", "work"),
    ("cli.main.calls", "count", "cli.main", "calls"),
)

# Times of layers that only some workloads call.  They are printed and
# stored with the run but left out of the result line, where a time that
# reads 0 on every run of a workload would look like a constant.
WORKLOAD_LAYER_TIMES = (
    ("pairstate.gamma_unprojected.ms", "ms", "pairstate.gamma_unprojected", "ms"),
    ("entanglement.projected_state.self_ms", "ms", "entanglement.projected_state", "self_ms"),
    ("entanglement.peres_test.ms", "ms", "entanglement.peres_test", "ms"),
    ("entanglement.sample_coincidences.ms", "ms", "entanglement.sample_coincidences", "ms"),
    ("experiments.fig4_sweep.self_ms", "ms", "experiments.fig4_sweep", "self_ms"),
    *((f"experiments.reproduce_figure.{fig}.self_ms", "ms",
       f"experiments.reproduce_figure.{fig}", "self_ms")
      for fig in ("2a", "3a", "1c", "2c", "3c", "4")),
    ("experiments.write_rows_csv.ms", "ms", "experiments.write_rows_csv", "ms"),
    ("cascade.write_spectrum_csv.ms", "ms", "cascade.write_spectrum_csv", "ms"),
    ("cascade.pl_spectrum.ms", "ms", "cascade.pl_spectrum", "ms"),
    ("svg.line_plot.ms", "ms", "svg.line_plot", "ms"),
    ("polariton.find_crossings.ms", "ms", "polariton.find_crossings", "ms"),
    ("polariton.anticrossing_sweep.ms", "ms", "polariton.anticrossing_sweep", "ms"),
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("figures", "fig4", "study"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def host_ref_ms() -> float:
    """Time of a fixed calibration loop, so slow host phases show."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for k in range(200000):
        acc += k * k % 7
    np.sort(np.random.default_rng(0).random(200000))
    return (perf_counter() - t0) * 1e3


def host_facts() -> dict:
    import numpy as np

    from polcascade import kernels

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd_baseline": list(umath.__cpu_baseline__),
        "numpy_simd_dispatch": [d for d in umath.__cpu_dispatch__
                                if features.get(d)],
        "kernels_backend": kernels.BACKEND,
    }


def import_seconds(env) -> float:
    """Wall time of a fresh interpreter importing the package."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import polcascade"], cwd=ROOT,
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def percentile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


class Tally:
    """Attempted and failed operations, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, messages) -> bool:
        self.attempted += 1
        if messages:
            self.failed += 1
            self.errors.extend(messages)
        return not messages

    def record_run(self, messages) -> None:
        """Run-level check failures; each counts as one failed operation."""
        self.failed = min(self.attempted, self.failed + len(messages))
        self.errors.extend(messages)


def timed_run(wl, seconds, tally, host):
    """End-to-end metrics: ops for `seconds`, in two halves between three
    checkpoints that time the calibration loop and fresh imports."""
    from workloads import OP_ERRORS, child_env

    env = child_env(str(ROOT))
    latencies, setup = [], []
    host["ref_ms"] = []

    def checkpoint():
        host["ref_ms"].append(host_ref_ms())
        setup.extend(import_seconds(env)
                     for _ in range(SETUP_SAMPLES_PER_CHECKPOINT))

    checkpoint()
    i = 0
    for _ in range(2):
        deadline = perf_counter() + seconds / 2
        while True:
            try:
                dt, result = wl.op(i)
            except OP_ERRORS as exc:
                tally.record([f"op {i}: {type(exc).__name__}: {exc}"])
            else:
                if tally.record(wl.check(i, result)):
                    latencies.append(dt * 1e3)
            i += 1
            if perf_counter() >= deadline:
                break
        checkpoint()
    tally.record_run(wl.finish())
    if not latencies:
        return {"metrics": {}, "report_only": {}, "info": {}}
    return {
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "latency_ms.p90": (percentile(latencies, 90), "ms"),
            "throughput_per_s": (
                wl.units_per_op * len(latencies) * 1e3 / sum(latencies), "1/s"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        },
        # Printed, not gated: the host's CPU speed switches between two
        # levels for seconds at a time, so the median of single-threaded
        # latencies flips between them from run to run.
        "report_only": {"latency_ms.p50": (percentile(latencies, 50), "ms")},
        "info": {"samples": len(latencies), "setup_samples": len(setup)},
        "samples_ms": latencies,
    }


def kernel_probe(points=200000, repeats=5):
    """Nanoseconds per node of the active overlap kernel on large arrays,
    for the scheme-1 H-LP self case (arctan path) and the H-LP/V-LP cross
    case (log path)."""
    import numpy as np

    from polcascade import cascade, kernels, model

    chans = {(c.pol, c.branch): c
             for c in cascade.enumerate_channels(model.scheme_preset(1))}
    a, b = chans[("H", "LP")], chans[("V", "LP")]
    out = {}
    for label, (x, y) in (("arctan", (a, a)), ("log", (a, b))):
        args = (x.photon1 - 0.1, x.photon1 + 0.1,
                x.e_xx, x.xx_total_width, y.e_xx, y.xx_total_width,
                x.intermediate.energy, x.intermediate.linewidth,
                y.intermediate.energy, y.intermediate.linewidth, 1.0)
        center = x.intermediate.energy
        vs = np.linspace(center - 0.1, center + 0.1, points)
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            kernels.overlap_integrand(vs, *args)
            best = min(best, perf_counter() - t0)
        out[label] = best * 1e9 / points
    return out


def traced_run(wl, seconds, tally, host, spans_path):
    """Per-layer metrics: repeat a fixed pass, untraced and traced in
    alternating order, until `seconds` have passed."""
    from tracing import KERNEL_BYTES_PER_NODE, Tracer, layer_metrics
    from workloads import OP_ERRORS

    tracer = Tracer()
    ops = wl.traced_pass()
    pass_ms = {False: [], True: []}
    passes = 0
    host["ref_ms"] = [host_ref_ms()]
    middle = perf_counter() + seconds / 2
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        tracer.current_pass = passes
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            results = []
            total = 0.0
            if traced:
                tracer.install()
            try:
                for j, op in enumerate(ops):
                    tracer.set_request(f"{wl.name}:{j}")
                    t0 = perf_counter()
                    try:
                        results.append((j, op()))
                    except OP_ERRORS as exc:
                        tally.record([f"op {j}: {type(exc).__name__}: {exc}"])
                    total += perf_counter() - t0
            finally:
                tracer.uninstall()
            for j, res in results:
                tally.record(wl.check(j, res))
            pass_ms[traced].append(total * 1e3)
        passes += 1
        if len(host["ref_ms"]) == 1 and perf_counter() >= middle:
            host["ref_ms"].append(host_ref_ms())
    host["ref_ms"].append(host_ref_ms())
    tally.record_run(wl.finish())

    layers = layer_metrics(tracer, passes)
    tracer.save(spans_path)

    def field(span, name):
        return layers.get(span, {}).get(name, 0)

    metrics = {m: (field(span, f), unit) for m, unit, span, f in SPAN_METRICS}
    report_only = {m: (field(span, f), unit)
                   for m, unit, span, f in WORKLOAD_LAYER_TIMES}
    kcalls = field("kernels.overlap_integrand", "calls")
    windowed = layers["overlaps.windowed"]
    unprojected = layers["overlaps.unprojected"]
    overlaps = windowed["count"] + unprojected["count"]

    def share(part):
        return part["refined"] / part["count"] if part["count"] else 0.0

    probe = kernel_probe()
    untraced = statistics.median(pass_ms[False])
    traced = statistics.median(pass_ms[True])
    metrics.update({
        "kernels.overlap_integrand.computed_bytes": (
            field("kernels.overlap_integrand", "work") * KERNEL_BYTES_PER_NODE,
            "bytes"),
        "kernels.calls_per_overlap": (kcalls / overlaps if overlaps else 0.0,
                                      "ratio"),
        "kernels.probe_arctan_ns_per_node": (probe["arctan"], "ns"),
        "kernels.probe_log_ns_per_node": (probe["log"], "ns"),
        "pairstate.refined_share": (share(windowed), "ratio"),
        "pairstate.refined_overlaps": (windowed["refined"], "count"),
        "pairstate.unprojected_overlaps": (unprojected["count"], "count"),
        "pairstate.unprojected_refined_share": (share(unprojected), "ratio"),
        "trace.spans_per_pass": (len(tracer.start) // passes, "count"),
        "trace.untraced_pass_ms": (untraced, "ms"),
        "trace.traced_pass_ms": (traced, "ms"),
        "trace.overhead_pct": ((traced / untraced - 1.0) * 100.0, "%"),
    })
    info = {"passes": passes, "ops_per_pass": len(ops),
            "max_kernel_calls_per_overlap": max(
                windowed["max_kernel_calls"], unprojected["max_kernel_calls"]),
            "spans_file": str(spans_path.relative_to(ROOT))}
    return {"metrics": metrics, "report_only": report_only, "info": info}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polcascade" / "__init__.py").is_file():
        print(f"error: no polcascade package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = host_facts()
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](args.seed, str(ROOT), scratch)
        if args.trace:
            run = traced_run(wl, args.seconds, tally, host,
                             OUT / f"{stem}.spans.npz")
        else:
            run = timed_run(wl, args.seconds, tally, host)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = run["metrics"]
    shown = {**metrics, **run["report_only"]}
    correct = tally.failed == 0 and not tally.errors and bool(metrics)
    fail_ratio = tally.failed / max(tally.attempted, 1)
    for msg in tally.errors[:20]:
        print(f"check failed: {msg}")
    print(f"host: {json.dumps(host)}")
    for key, value in run["info"].items():
        print(f"{key}: {value}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value!r} {unit}")
    if not args.trace:
        for alias, (name, scale, unit) in ALIASES[args.workload].items():
            if name in shown:
                print(f"{alias} = {shown[name][0] * scale!r} {unit}")
    print(f"fail_ratio = {fail_ratio!r} ({tally.failed}/{tally.attempted})")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fail_ratio": fail_ratio, "host": host,
                   "report_only": {k: {"value": v, "unit": u} for k, (v, u)
                                   in run["report_only"].items()},
                   "info": run["info"], "errors": tally.errors,
                   "samples_ms": run.get("samples_ms", [])}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
