"""The three benchmark workloads: inputs from a seed, one timed operation,
and correctness checks that run outside the timed region.

Each workload offers
  ``op(i)``          run operation i; returns (seconds taken, result)
  ``check(i, res)``  list of failed-check messages for that result
  ``finish()``       checks that need the whole run; list of messages
  ``traced_pass()``  the fixed operations of one traced pass, as callables
  ``units_per_op``   work units counted by the throughput metric
  ``peak_rss_mb()``  peak resident memory of the process doing the work
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np

from polcascade import (cascade, cli, entanglement, experiments, model,
                        pairstate)
from polcascade.errors import ConvergenceError, ValidationError

# Errors that make one operation count as failed instead of ending the run.
OP_ERRORS = (ConvergenceError, ValidationError)

def child_env(root: str) -> dict:
    """Environment for a child interpreter that imports the package from
    the checkout's ``src/``."""
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


FIGURE_FILES = (
    "fig2a.csv", "fig2a.svg", "fig3a.csv", "fig3a.svg", "fig1c.csv",
    "fig1c.svg", "fig2c.csv", "fig2c.svg", "fig3c.csv", "fig3c.svg",
    "fig4_scheme1.csv", "fig4_scheme2.csv", "fig4_scheme3.csv", "fig4.svg",
)


class Workload:
    """Defaults shared by the workloads."""

    units_per_op = 1

    def finish(self):
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Figures(Workload):
    """``python -m polcascade figures --all`` as a user runs it.

    The command has no inputs to vary, so the seed changes nothing here.
    Untimed runs use a fresh subprocess with the CLI defaults (including
    its default worker count); the traced pass calls ``cli.main`` in
    process with one worker so that every span lands in this process.
    """

    name = "figures"

    def __init__(self, seed: int, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.env = child_env(root)
        self.csv_digests = None
        self.child_rss_mb: list[float] = []

    def op(self, i):
        out_dir = tempfile.mkdtemp(prefix="figures-", dir=self.scratch)
        stdout_path = os.path.join(self.scratch, f"figures-{i}.out")
        with open(stdout_path, "wb") as out, open(os.devnull, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "polcascade", "figures", "--all",
                 "--out-dir", out_dir],
                cwd=self.root, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
        with open(stdout_path) as fh:
            stdout = fh.read()
        os.remove(stdout_path)
        return elapsed, (proc.returncode, stdout, out_dir)

    def _run_in_process(self):
        out_dir = tempfile.mkdtemp(prefix="figures-", dir=self.scratch)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["figures", "--all", "--out-dir", out_dir,
                             "--workers", "1"])
        return code, buf.getvalue(), out_dir

    def traced_pass(self):
        return [self._run_in_process]

    def check(self, i, result):
        code, stdout, out_dir = result
        try:
            return self._check(code, stdout, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, code, stdout, out_dir):
        if code != 0:
            return [f"figures exited with {code}"]
        lines = stdout.strip().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            return ["figures printed no JSON summary"]
        errors = []
        if len(summary.get("outputs", ())) != len(FIGURE_FILES):
            errors.append(f"summary lists {len(summary.get('outputs', ()))} "
                          f"outputs, expected {len(FIGURE_FILES)}")
        missing = [f for f in FIGURE_FILES
                   if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            return errors + [f"missing outputs: {', '.join(missing)}"]
        digests = {}
        for f in FIGURE_FILES:
            if f.endswith(".csv"):
                with open(os.path.join(out_dir, f), "rb") as fh:
                    digests[f] = hashlib.sha256(fh.read()).hexdigest()
        if self.csv_digests is None:
            self.csv_digests = digests
        changed = [f for f in digests if digests[f] != self.csv_digests[f]]
        if changed:
            errors.append(f"CSV bytes changed between repetitions: "
                          f"{', '.join(changed)}")
        return errors

    def peak_rss_mb(self) -> float:
        """Median over the runs of each figures child's peak RSS."""
        return statistics.median(self.child_rss_mb)


class Fig4(Workload):
    """The three fig4 sweeps, single-threaded, on a seeded 161-point grid.

    The seed shifts the standard grid by a fraction of one step (seed 0 is
    the standard grid) and picks the points checked against the midpoint
    oracle.
    """

    name = "fig4"
    ORACLE_POINTS = 2
    ORACLE_N = 1000
    # Midpoint-rule error at n = 1000, relative to sqrt(self_a * self_b),
    # stays below 1e-4 on these grids; 1e-3 still catches a wrong term.
    ORACLE_TOL = 1e-3

    def __init__(self, seed: int, root: str, scratch: str):
        rng = np.random.default_rng(seed)
        base = experiments.default_delta_grid()
        shift = 0.0 if seed == 0 else float(rng.random())
        self.grid = base + shift * (base[1] - base[0])
        self.units_per_op = len(self.grid)
        self.oracle_points = [(int(rng.integers(1, 4)),
                               int(rng.integers(0, len(self.grid))))
                              for _ in range(self.ORACLE_POINTS)]
        self.first_curve = {}

    def _sweep(self, scheme):
        return experiments.fig4_sweep(scheme, deltas=self.grid, workers=1)

    def op(self, i):
        scheme = 1 + i % 3
        t0 = perf_counter()
        curve = self._sweep(scheme)
        return perf_counter() - t0, curve

    def traced_pass(self):
        return [lambda s=s: self._sweep(s) for s in (1, 2, 3)]

    def check(self, i, curve):
        errors = []
        worst = float(np.max(curve.abs_gamma))
        if worst > 0.5:
            errors.append(f"scheme {curve.scheme}: |gamma'| = {worst!r} > 1/2")
        gammas = tuple(r.gamma for r in curve.rows)
        first = self.first_curve.setdefault(curve.scheme, curve)
        if gammas != tuple(r.gamma for r in first.rows):
            errors.append(f"scheme {curve.scheme}: gamma' changed between "
                          "repetitions of the same sweep")
        return errors

    def finish(self):
        errors = []
        for scheme, index in self.oracle_points:
            curve = self.first_curve.get(scheme) or self._sweep(scheme)
            row = curve.rows[index]
            at = model.scheme_preset(scheme).with_detuning(row.delta_cx)
            ch_a, ch_b = pairstate.pairing_channels(
                cascade.enumerate_channels(at), row.pairing)
            pairs = {"aa": (ch_a, ch_a), "bb": (ch_b, ch_b), "ab": (ch_a, ch_b)}
            quad = {k: pairstate.windowed_overlap(x, y, row.window)
                    for k, (x, y) in pairs.items()}
            oracle = {k: pairstate.brute_force_overlap(x, y, row.window,
                                                       n=self.ORACLE_N)
                      for k, (x, y) in pairs.items()}
            scale = math.sqrt(oracle["aa"].real * oracle["bb"].real)
            for k in pairs:
                err = abs(quad[k] - oracle[k]) / scale
                if not err <= self.ORACLE_TOL:
                    errors.append(f"scheme {scheme} point {index} overlap {k}: "
                                  f"quadrature vs midpoint error {err:.2e}")
            gamma = oracle["ab"] / (oracle["aa"].real + oracle["bb"].real)
            if not abs(row.gamma - gamma) <= self.ORACLE_TOL:
                errors.append(f"scheme {scheme} point {index}: gamma' "
                              f"{row.gamma!r} vs midpoint {gamma!r}")
        return errors


class Study(Workload):
    """Independent random single-point studies at rel_tol = 1e-12.

    Each point runs tracked_window, projected_state, peres_test,
    sample_coincidences and gamma_unprojected, like the CLI's gamma,
    entangle and sample commands.
    """

    name = "study"
    PASS_POINTS = 30
    SAMPLES = 100000
    ANGLES = (0.0, math.radians(22.5))
    QUAD = pairstate.QuadratureSpec(rel_tol=1e-12)
    PAIRINGS = ("LP-LP", "UP-UP", "LP-UP")

    def __init__(self, seed: int, root: str, scratch: str):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.points = []

    def point(self, i):
        while len(self.points) <= i:
            r = self.rng
            params = model.SystemParams(
                ex_mean=1000.0,
                delta_x=float(r.uniform(-0.3, 0.3)),
                cav_mean=1000.0 + float(r.uniform(-0.5, 0.5)),
                delta_c=float(r.uniform(-0.6, 0.6)),
                rabi=float(r.uniform(0.1, 0.4)),
                tau_c=float(r.uniform(5.0, 30.0)),
                tau_xx=float(r.uniform(200.0, 1000.0)),
                binding=3.0)
            width = float(r.uniform(0.05, 0.5))
            pairing = self.PAIRINGS[len(self.points) % 3]
            self.points.append((params, pairing, width, [self.seed, len(self.points)]))
        return self.points[i]

    def _run(self, params, pairing, width, sample_seed):
        w = experiments.tracked_window(params, pairing, width)
        rho = entanglement.projected_state(params, pairing, w, self.QUAD)
        report = entanglement.peres_test(rho)
        counts = entanglement.sample_coincidences(rho, self.ANGLES,
                                                  self.SAMPLES, sample_seed)
        gamma = pairstate.gamma_unprojected(params, self.QUAD)
        return rho, report, counts, gamma, sample_seed

    def op(self, i):
        inputs = self.point(i)
        t0 = perf_counter()
        result = self._run(*inputs)
        return perf_counter() - t0, result

    def traced_pass(self):
        return [lambda i=i: self._run(*self.point(i))
                for i in range(self.PASS_POINTS)]

    def check(self, i, result):
        rho, report, counts, gamma, sample_seed = result
        errors = []
        # For X states the partial-transpose negativity equals |gamma'|.
        if not abs(report.negativity - abs(rho.gamma)) <= 1e-12:
            errors.append(f"point {i}: negativity {report.negativity!r} vs "
                          f"|gamma'| {abs(rho.gamma)!r}")
        if int(counts.sum()) != self.SAMPLES:
            errors.append(f"point {i}: counts sum to {int(counts.sum())}")
        again = entanglement.sample_coincidences(rho, self.ANGLES,
                                                 self.SAMPLES, sample_seed)
        if not np.array_equal(counts, again):
            errors.append(f"point {i}: counts differ for the same seed")
        if not abs(gamma) <= 0.5:
            errors.append(f"point {i}: unprojected |gamma| = {abs(gamma)!r}")
        return errors


WORKLOADS = {w.name: w for w in (Figures, Fig4, Study)}
