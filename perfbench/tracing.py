"""In-memory span tracer that wraps polcascade's public names from outside.

Each wrapped call records one span: name, start, end, parent span, request
id, pass index and a work count (kernel nodes, or bytes written).  Spans
live in flat arrays while the run lasts and are written to one ``.npz``
file when it ends.  Nothing inside the package changes: the tracer swaps
module attributes at the places where callers look them up, and
``uninstall`` puts the originals back.
"""
from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from polcascade import (cascade, cli, entanglement, experiments, kernels,
                        model, pairstate, polariton, svg)

# Bytes one kernel node reads and writes: a float64 v in, a complex128 out.
# Computed from array sizes, not measured; temporaries are not counted.
KERNEL_BYTES_PER_NODE = 8 + 16


def _nodes(args, kwargs, out):
    return int(np.size(args[0]))


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _sweep_point_id(args, kwargs):
    _, delta, pairing = args[0][:3]
    return f"{pairing}@{delta!r}"


def _figure_id(args, kwargs):
    return str(args[0]).lower()


@dataclass(frozen=True)
class Site:
    """One traced name and every attribute it is looked up through."""

    name: str
    targets: tuple            # (owner, attribute) pairs
    work: object = None       # (args, kwargs, result) -> int
    request: object = None    # (args, kwargs) -> request id
    name_by_request: bool = False


# Modules that bind a name at import get their own target; pairstate looks
# kernels.overlap_integrand up at call time, so one target covers it.
SITES = (
    Site("cli.main", ((cli, "main"),)),
    Site("experiments.reproduce_figure",
         ((experiments, "reproduce_figure"), (cli, "reproduce_figure")),
         request=_figure_id, name_by_request=True),
    Site("experiments.fig4_sweep", ((experiments, "fig4_sweep"),)),
    Site("experiments.sweep_point", ((experiments, "_sweep_point"),),
         request=_sweep_point_id),
    Site("experiments.tracked_window",
         ((experiments, "tracked_window"), (cli, "tracked_window"))),
    Site("experiments.write_rows_csv",
         ((experiments, "_write_rows_csv"), (cli, "_write_rows_csv")),
         work=_file_bytes),
    Site("entanglement.projected_state",
         ((entanglement, "projected_state"), (cli, "projected_state"))),
    Site("entanglement.peres_test",
         ((entanglement, "peres_test"), (cli, "peres_test"))),
    Site("entanglement.sample_coincidences",
         ((entanglement, "sample_coincidences"),
          (cli, "sample_coincidences"))),
    Site("pairstate.gamma_prime",
         ((pairstate, "gamma_prime"), (experiments, "gamma_prime"),
          (cli, "gamma_prime"))),
    Site("pairstate.gamma_unprojected",
         ((pairstate, "gamma_unprojected"), (cli, "gamma_unprojected"))),
    Site("pairstate.windowed_overlap", ((pairstate, "windowed_overlap"),)),
    Site("pairstate.overlap_box", ((pairstate, "_overlap_box"),)),
    Site("kernels.overlap_integrand", ((kernels, "overlap_integrand"),),
         work=_nodes),
    Site("cascade.enumerate_channels",
         ((cascade, "enumerate_channels"), (pairstate, "enumerate_channels"),
          (experiments, "enumerate_channels"))),
    Site("cascade.pl_spectrum",
         ((cascade, "pl_spectrum"), (experiments, "pl_spectrum"),
          (cli, "pl_spectrum"))),
    Site("cascade.write_spectrum_csv",
         ((cascade, "write_spectrum_csv"),
          (experiments, "write_spectrum_csv"), (cli, "write_spectrum_csv")),
         work=_file_bytes),
    Site("polariton.solve_polaritons",
         ((polariton, "solve_polaritons"), (cascade, "solve_polaritons"))),
    Site("polariton.find_crossings",
         ((polariton, "find_crossings"), (experiments, "find_crossings"))),
    Site("polariton.anticrossing_sweep",
         ((polariton, "anticrossing_sweep"),
          (experiments, "anticrossing_sweep"), (cli, "anticrossing_sweep"))),
    Site("model.with_detuning", ((model.SystemParams, "with_detuning"),)),
    Site("svg.line_plot",
         ((svg, "line_plot"), (experiments, "line_plot"), (cli, "line_plot")),
         work=_file_bytes),
)


class Tracer:
    """Records spans for every Site while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.requests: list[str] = []
        self._request_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.pass_index = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_pass = 0
        self._stack: list[int] = []
        self._current_request = -1
        self._saved: list[tuple] = []

    def _intern(self, table: list, index: dict, key: str) -> int:
        ix = index.get(key)
        if ix is None:
            ix = index[key] = len(table)
            table.append(key)
        return ix

    def set_request(self, request_id: str) -> None:
        """Request id given to spans opened outside any request-setting span."""
        self._current_request = self._intern(self.requests, self._request_ix,
                                             request_id)

    def _wrap(self, site: Site, fn):
        fixed_name = self._intern(self.names, self._name_ix, site.name)

        def traced(*args, **kwargs):
            i = len(self.start)
            saved_request = self._current_request
            name = fixed_name
            if site.request is not None:
                rid = site.request(args, kwargs)
                self.set_request(rid)
                if site.name_by_request:
                    name = self._intern(self.names, self._name_ix,
                                        f"{site.name}.{rid}")
            self.name.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self._current_request)
            self.pass_index.append(self.current_pass)
            self.work.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._current_request = saved_request
                self.start[i] = t0
                self.end[i] = t1
            if site.work is not None:
                self.work[i] = site.work(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for site in SITES:
            for owner, attr in site.targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(site, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def spans(self) -> dict:
        """The recorded spans as NumPy arrays plus the name tables."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
            "pass_index": np.array(self.pass_index, dtype=np.int32),
            "work": np.array(self.work, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "names": np.array(self.names, dtype=str),
            "requests": np.array(self.requests, dtype=str),
        }

    def save(self, path) -> None:
        np.savez(path, **self.spans())


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass calls, work, inclusive and self time for every span name.

    Counts must repeat exactly from pass to pass (every pass runs the same
    inputs); times are the median over passes.  Returns
    {name: {"calls", "work", "ms", "self_ms"}} plus, under "overlaps.*",
    the overlap counts of the gamma' windows and the unprojected boxes.
    """
    s = tracer.spans()
    n = len(s["name"])
    dur = s["end"] - s["start"]
    child = np.zeros(n)
    has_parent = s["parent"] >= 0
    np.add.at(child, s["parent"][has_parent], dur[has_parent])
    self_t = dur - child
    n_names = len(tracer.names)
    key = s["name"].astype(np.int64) * passes + s["pass_index"]
    size = n_names * passes

    def per_pass(weights=None):
        return np.bincount(key, weights=weights, minlength=size).reshape(
            n_names, passes)

    calls = per_pass()
    work = per_pass(s["work"].astype(np.float64))
    ms = per_pass(dur) * 1e3
    self_ms = per_pass(self_t) * 1e3
    out = {}
    for ix, name in enumerate(tracer.names):
        for label, table in (("calls", calls), ("work", work)):
            if np.any(table[ix] != table[ix, 0]):
                raise RuntimeError(
                    f"{name}.{label} differs between passes of the same "
                    f"inputs: {sorted(set(table[ix].tolist()))}")
        out[name] = {"calls": int(calls[ix, 0]), "work": int(work[ix, 0]),
                     "ms": float(np.median(ms[ix])),
                     "self_ms": float(np.median(self_ms[ix]))}

    # Kernel calls made directly under each overlap span, split by the
    # caller of the overlap: gamma' windows or the unprojected boxes.
    def name_index(name):
        return tracer._name_ix.get(name, -1)

    is_kernel = s["name"] == name_index("kernels.overlap_integrand")
    per_span = np.bincount(s["parent"][is_kernel & has_parent], minlength=n)
    boxes = np.flatnonzero(s["name"] == name_index("pairstate.overlap_box"))
    box_caller = s["name"][s["parent"][boxes]]
    for label, caller in (("windowed", "pairstate.windowed_overlap"),
                          ("unprojected", "pairstate.gamma_unprojected")):
        kernel_calls = per_span[boxes[box_caller == name_index(caller)]]
        out[f"overlaps.{label}"] = {
            "count": len(kernel_calls) // passes,
            "refined": int(np.count_nonzero(kernel_calls > 2)) // passes,
            "max_kernel_calls": int(kernel_calls.max(initial=0)),
        }
    return out
