"""Command-line interface.

Commands: spectrum, sweep, gamma, entangle, optimize, sample, figures.
Settings come from defaults, then an optional flat ``key = value`` config
file, then flags, in that order of precedence.  Every run prints a
single-line JSON summary (with the full effective config echoed) to
stdout; diagnostics go to stderr.  A setting that the command does not
read is refused by name (SETTINGS lists each key's readers); one that it
reads is checked once, before any file is written, by the code that
reads it: the library, or _cmd_sweep for the sweep grid.  Exit codes:
0 success, 1 validation error, 2 numerical non-convergence: optimize
found a flat objective, or a crossing search did not converge.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, fields, make_dataclass, replace

import numpy as np

from . import __version__
# pl_spectrum, write_spectrum_csv, anticrossing_sweep and line_plot are not
# called here; they are imported only so that the benchmark tracer's cli
# sites resolve, and patching them here changes nothing.
from .cascade import (_write_rows_csv, channel_table,  # noqa: F401
                      pl_spectrum, write_spectrum_csv)
from .entanglement import (born_probabilities, correlation_from_counts,
                           peres_test, projected_state, sample_coincidences)
from .errors import ConvergenceError, ValidationError
from .experiments import (_GRID_HI, _GRID_LO, _GRID_POINTS, _SPECTRUM_MARGIN,
                          _SPECTRUM_POINTS, _WINDOW_WIDTH, FIGURE_IDS,
                          SCHEME_PAIRING, optimize_detuning, reproduce_figure,
                          spectrum_grid, tracked_window,
                          write_anticrossing_files, write_spectrum_files)
from .model import (SystemParams, _require_count, _require_range,
                    scheme_preset)
from .pairstate import DetectorWindow, gamma_prime, gamma_unprojected
from .polariton import anticrossing_sweep, hypot  # noqa: F401
from .svg import line_plot  # noqa: F401


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Readers of each group of settings.  sweep moves the cavity along its grid
# from ex_mean: it reads no cavity energy, lifetime, binding or delta_cx.
_LEVELS = "spectrum sweep gamma entangle sample"
_SYSTEM = "spectrum gamma entangle sample"
_WINDOW = "gamma entangle optimize sample"

# Every setting, once: key -> (default, parser, help, readers).  RunConfig's
# fields, the config-file keys, the flags and their --help text all come
# from this table, in this order.  readers names the commands that read
# the key; any other command refuses it.
SETTINGS = {
    "scheme": (1, int, "level-matching scheme preset: 1, 2 or 3",
               "spectrum sweep gamma entangle optimize sample"),
    # A None default defers to the scheme preset's value.
    **{key: (None, float, f"{text} (preset override)", readers)
       for key, text, readers in (
           ("ex_mean", "mean exciton energy, meV", _LEVELS),
           ("delta_x", "exciton H-V splitting, meV", _LEVELS),
           ("cav_mean", "mean cavity energy, meV", _SYSTEM),
           ("delta_c", "cavity H-V splitting, meV", _LEVELS),
           ("rabi", "vacuum Rabi splitting, meV", _LEVELS),
           ("tau_c", "cavity photon lifetime, ps", _SYSTEM),
           ("tau_xx", "biexciton radiative lifetime, ps", _SYSTEM),
           ("binding", "biexciton binding energy, meV", _SYSTEM))},
    "delta_cx": (0.0, float, "cavity-exciton detuning applied to the "
                             "preset, meV (not with --cav-mean)", _SYSTEM),
    "pairing": (None, str, "correlated branches: LP-LP, UP-UP or LP-UP "
                "(default: the scheme's pairing)", "gamma entangle sample"),
    "width": (_WINDOW_WIDTH, float, "detector window full width, meV",
              _WINDOW),
    "center1": (None, float, "fixed first-photon window center, meV (needs "
                "--center2; default: track the paired lines)", _WINDOW),
    "center2": (None, float, "fixed second-photon window center, meV",
                _WINDOW),
    "unprojected": (False, _as_bool, "report the unfiltered coherence, which "
                    "reads no window or pairing", "gamma"),
    "reference": ("absolute", str, "spectrum energy reference: absolute or "
                                   "relative_to_ex_mean", "spectrum"),
    "points": (_SPECTRUM_POINTS, int, "spectrum grid points", "spectrum"),
    "margin": (_SPECTRUM_MARGIN, float, "spectrum grid margin beyond the "
               "outermost lines, meV", "spectrum"),
    "sweep_lo": (_GRID_LO, float, "sweep grid start, meV", "sweep"),
    "sweep_hi": (_GRID_HI, float, "sweep grid end, meV", "sweep"),
    "sweep_points": (_GRID_POINTS, int, "sweep grid size", "sweep"),
    "lo": (_GRID_LO, float, "optimize search range start, meV", "optimize"),
    "hi": (_GRID_HI, float, "optimize search range end, meV", "optimize"),
    "angle_a": (0.0, float, "analyzer A angle, degrees from H", "sample"),
    "angle_b": (22.5, float, "analyzer B angle, degrees from H", "sample"),
    "n": (100000, int, "number of coincidence samples", "sample"),
    "seed": (0, int, "random seed for sampling", "sample"),
    # Ignored; kept because the benchmark's traced figures pass gives it.
    "workers": (None, int, "ignored: sweeps run in one process", "figures"),
    "out_dir": (".", str, "directory for output files",
                "spectrum sweep sample figures"),
    "figures": ("all", str, "comma-separated figure ids "
                            f"({', '.join(FIGURE_IDS)}) or 'all'", "figures"),
    "svg": (True, _as_bool, "also write SVG plots (--svg false to disable)",
            "spectrum sweep figures"),
}

RunConfig = make_dataclass(
    "RunConfig",
    [("command", str, ""),
     *((key, bool if parse is _as_bool else parse, default)
       for key, (default, parse, *_) in SETTINGS.items())],
    namespace={"__doc__": "Effective settings for one CLI run.",
               "__module__": __name__})


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; unknown keys and bad values are errors."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SETTINGS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = SETTINGS[key][1](value)
        except ValueError as exc:
            raise ValidationError(
                f"{path}:{lineno}: bad value for {key!r}: {exc}")
    return out


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # validation-error path (exit 1) instead.
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polcascade",
        description="Polariton-cascade photon pairs: spectra, coherence "
                    "curves, entanglement tests, figure reproduction.  "
                    "[Brackets] name the commands that read a setting; any "
                    "other command refuses it.")
    # argparse reads only -1 and -.5 as negative numbers, not -1e-2 or -inf;
    # no option string looks like a number, so every float form is a value.
    parser._negative_number_matcher = re.compile(
        r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.I)
    parser.add_argument("--version", action="version",
                        version=f"polcascade {__version__}")
    parser.add_argument("command", choices=_DISPATCH, help="what to run")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value settings file")
    for key, (_, parse, text, readers) in SETTINGS.items():
        # A bare boolean flag means true; an explicit true/false also works.
        extra = {"nargs": "?", "const": True} if parse is _as_bool else {}
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            type=parse, default=argparse.SUPPRESS,
                            metavar=key.upper(),
                            help=f"{text} [{readers.replace(' ', ', ')}]",
                            **extra)
    parser.add_argument("--all", dest="figures", action="store_const",
                        const="all", default=argparse.SUPPRESS,
                        help="emit every figure [figures]")
    return parser


def build_config(argv=None) -> RunConfig:
    """Defaults, then the config file, then flags."""
    args = _build_parser().parse_args(argv)
    named = parse_config_file(args.config) if args.config else {}
    named.update({k: v for k, v in vars(args).items()
                  if k not in ("command", "config")})
    _check_named(args.command, named)
    return replace(RunConfig(command=args.command), **named)


def _check_named(command: str, named: dict) -> None:
    """Refuse, each by name, the keys that a flag or config line names and
    command does not read, and keys that exclude each other."""
    unprojected = command == "gamma" and bool(named.get("unprojected"))
    unread = [k for k in SETTINGS if k in named and (
        command not in SETTINGS[k][3].split()
        or unprojected and k in ("pairing", "width", "center1", "center2"))]
    if unread:
        label = "gamma --unprojected" if unprojected else command
        raise ValidationError(f"{label} does not read {', '.join(unread)} "
                              "(polcascade --help names each key's readers)")
    if ("center1" in named) != ("center2" in named):
        raise ValidationError("--center1 and --center2 must be given together")
    if "cav_mean" in named and "delta_cx" in named:
        raise ValidationError("--cav-mean and --delta-cx cannot be given "
                              "together: delta_cx moves the cavity")


def _figure_ids(text: str) -> list[str]:
    """The ids that a figures setting names, each once, in the order first
    named; an empty list or an unknown id is refused."""
    if text.strip().lower() == "all":
        return list(FIGURE_IDS)
    wanted = list(dict.fromkeys(
        f.strip().lower() for f in text.split(",") if f.strip()))
    if not wanted or not set(wanted) <= set(FIGURE_IDS):
        raise ValidationError(
            f"figures must be 'all' or ids among {', '.join(FIGURE_IDS)}, "
            f"got {text!r}")
    return wanted


def effective_params(cfg: RunConfig) -> SystemParams:
    base = scheme_preset(cfg.scheme)
    overrides = {f.name: getattr(cfg, f.name) for f in fields(SystemParams)
                 if getattr(cfg, f.name) is not None}
    if "ex_mean" in overrides and "cav_mean" not in overrides:
        # Presets tie the cavity to the exciton; keep them tied when only
        # the exciton is moved.
        overrides["cav_mean"] = overrides["ex_mean"]
    params = base.replace(**overrides) if overrides else base
    if cfg.delta_cx != 0.0:
        params = params.with_detuning(cfg.delta_cx)
    return params


def _fixed_window(cfg: RunConfig) -> DetectorWindow | None:
    """The window that center1, center2 and width fix; None if tracked."""
    if cfg.center1 is None:
        return None
    return DetectorWindow(cfg.center1, cfg.center2, cfg.width)


def _paired_system(cfg: RunConfig):
    """The system, the pairing (cfg's, else the scheme's) and the window
    (the one cfg fixes, else one tracking the paired lines) of a run."""
    params = effective_params(cfg)
    pairing = SCHEME_PAIRING[cfg.scheme] if cfg.pairing is None else cfg.pairing
    return params, pairing, _fixed_window(cfg) or tracked_window(
        params, pairing, cfg.width)


def _output_header(cfg: RunConfig) -> list[str]:
    # Worker count and output directory deliberately left out: the bytes
    # of an output file must not depend on either.
    skip = {"workers", "out_dir"}
    return [f"polcascade {__version__}",
            *(f"{f.name} = {getattr(cfg, f.name)!r}"
              for f in fields(RunConfig) if f.name not in skip)]


def _cmd_spectrum(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    grid = spectrum_grid(params, margin=cfg.margin, points=cfg.points)
    if cfg.reference == "relative_to_ex_mean":
        grid = grid - params.ex_mean
    outputs = write_spectrum_files(
        os.path.join(cfg.out_dir, "spectrum.csv"), params, grid,
        _output_header(cfg), "Emission spectrum", cfg.svg,
        reference=cfg.reference)
    return {"outputs": outputs, "channels": channel_table(params)}


def _cmd_sweep(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    # The sweep grid is read here alone, so its keys are checked here.
    _require_range("sweep_lo", "sweep_hi", cfg.sweep_lo, cfg.sweep_hi)
    points = _require_count("sweep_points", cfg.sweep_points, 1)
    deltas = np.linspace(cfg.sweep_lo, cfg.sweep_hi, points)
    outputs, states = write_anticrossing_files(
        os.path.join(cfg.out_dir, "anticrossing.csv"), params, deltas,
        _output_header(cfg), "Polariton levels", cfg.svg)
    # Rows in STATE_ORDER: H LP, H UP, V LP, V UP.
    gaps = states.energy[1::2] - states.energy[0::2]
    return {"outputs": outputs, "min_same_pol_gap_mev": float(gaps.min())}


def _cmd_gamma(cfg: RunConfig) -> dict:
    if cfg.unprojected:
        g, rest = gamma_unprojected(effective_params(cfg)), {"projected": False}
    else:
        params, pairing, w = _paired_system(cfg)
        coh = gamma_prime(params, pairing, w)
        g, rest = coh.gamma, {"projected": True, "pairing": coh.pairing,
                              "window": asdict(w),
                              "channel_norms": dict(coh.channel_norms)}
    magnitude = hypot(g.real, g.imag)
    return {"gamma": {"re": g.real, "im": g.imag, "abs": magnitude}, **rest}


def _cmd_entangle(cfg: RunConfig) -> dict:
    params, pairing, w = _paired_system(cfg)
    rho = projected_state(params, pairing, w)
    return {"report": peres_test(rho).as_dict(), "pairing": pairing,
            "window": asdict(w)}


def _cmd_optimize(cfg: RunConfig) -> dict:
    # optimize searches delta_cx on the scheme preset with its pairing.
    delta, value = optimize_detuning(cfg.scheme, cfg.lo, cfg.hi, cfg.width,
                                     window=_fixed_window(cfg))
    return {"delta_cx": delta, "abs_gamma": value,
            "pairing": SCHEME_PAIRING[cfg.scheme]}


def _cmd_sample(cfg: RunConfig) -> dict:
    params, pairing, w = _paired_system(cfg)
    rho = projected_state(params, pairing, w)
    angles = (math.radians(cfg.angle_a), math.radians(cfg.angle_b))
    counts = sample_coincidences(rho, angles, cfg.n, cfg.seed)
    probs = born_probabilities(rho, *angles)
    csv_path = os.path.join(cfg.out_dir, "counts.csv")
    # counts[a, b] in row-major order: ports (0, 0), (0, 1), (1, 0), (1, 1).
    _write_rows_csv(csv_path, _output_header(cfg),
                    {"a_port": ["0", "0", "1", "1"],
                     "b_port": ["0", "1", "0", "1"],
                     "count": [f"{c}" for c in counts.ravel().tolist()]})
    return {"outputs": [csv_path],
            "counts": [[int(c) for c in row] for row in counts],
            "born_probabilities": [[float(p) for p in row] for row in probs],
            "correlation": correlation_from_counts(counts),
            "angles_deg": [cfg.angle_a, cfg.angle_b],
            "n": cfg.n, "seed": cfg.seed}


def _cmd_figures(cfg: RunConfig) -> dict:
    wanted = _figure_ids(cfg.figures)
    outputs = [path for fig in wanted
               for path in reproduce_figure(fig, cfg.out_dir, svg=cfg.svg)]
    return {"figures": wanted, "outputs": outputs}


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "gamma": _cmd_gamma,
    "entangle": _cmd_entangle,
    "optimize": _cmd_optimize,
    "sample": _cmd_sample,
    "figures": _cmd_figures,
}


def run(cfg: RunConfig) -> dict:
    """Execute one command; the payload is the JSON summary body."""
    return {"command": cfg.command, **_DISPATCH[cfg.command](cfg),
            "config": asdict(cfg)}


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
        payload = run(cfg)
    except (ConvergenceError, ValueError, OSError) as exc:
        # ValidationError is a ValueError; a ConvergenceError exits 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceError) else 1
    print(json.dumps(payload, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
