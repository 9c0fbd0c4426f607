"""Command-line interface.

Commands: spectrum, sweep, gamma, entangle, optimize, sample, figures.
Settings come from defaults, then an optional flat ``key = value`` config
file, then flags, in that order of precedence.  Every run prints a
single-line JSON summary (with the full effective config echoed) to
stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 validation
error, 2 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .cascade import channel_table, pl_spectrum, write_spectrum_csv
from .entanglement import (born_probabilities, correlation_from_counts,
                           peres_test, projected_state, sample_coincidences)
from .errors import ConvergenceError, ValidationError
from .experiments import (FIGURE_IDS, SCHEME_PAIRING, _spectrum_grid,
                          _write_rows_csv, optimize_detuning,
                          reproduce_figure, tracked_window)
from .model import SystemParams, scheme_preset
from .pairstate import (DetectorWindow, QuadratureSpec, gamma_prime,
                        gamma_unprojected)
from .polariton import STATE_ORDER, anticrossing_sweep
from .svg import line_plot

COMMANDS = ("spectrum", "sweep", "gamma", "entangle", "optimize", "sample",
            "figures")


def _as_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    """Effective settings for one CLI run."""

    command: str = ""
    scheme: int = 1
    # None defers to the scheme preset's value.
    ex_mean: float | None = None
    delta_x: float | None = None
    cav_mean: float | None = None
    delta_c: float | None = None
    rabi: float | None = None
    tau_c: float | None = None
    tau_xx: float | None = None
    binding: float | None = None
    delta_cx: float = 0.0
    pairing: str | None = None      # default: the scheme's pairing
    width: float = 0.2              # window full width, meV
    center1: float | None = None    # fixed window override, meV
    center2: float | None = None
    base_nodes: int = 16
    rel_tol: float = 1e-9
    max_refinements: int = 30
    unprojected: bool = False
    reference: str = "absolute"
    points: int = 4001              # spectrum grid size
    margin: float = 0.5             # spectrum grid margin, meV
    sweep_lo: float = -0.4
    sweep_hi: float = 0.4
    sweep_points: int = 161
    lo: float = -0.4                # optimize range, meV
    hi: float = 0.4
    angle_a: float = 0.0            # analyzer angles, degrees
    angle_b: float = 22.5
    n: int = 100000                 # sample count
    seed: int = 0
    workers: int | None = None      # default: POLCASCADE_WORKERS or 1
    out_dir: str = "."
    figures: str = "all"
    svg: bool = True


# Config-file and flag type table; every key is settable both ways.
_CASTS = {
    "scheme": int, "ex_mean": float, "delta_x": float, "cav_mean": float,
    "delta_c": float, "rabi": float, "tau_c": float, "tau_xx": float,
    "binding": float, "delta_cx": float, "pairing": str, "width": float,
    "center1": float, "center2": float, "base_nodes": int, "rel_tol": float,
    "max_refinements": int, "unprojected": _as_bool, "reference": str,
    "points": int, "margin": float, "sweep_lo": float, "sweep_hi": float,
    "sweep_points": int, "lo": float, "hi": float, "angle_a": float,
    "angle_b": float, "n": int, "seed": int, "workers": int,
    "out_dir": str, "figures": str, "svg": _as_bool,
}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; unknown keys and bad values are errors."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
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
        if key not in _CASTS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _CASTS[key](value)
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
                    "curves, entanglement tests, figure reproduction.")
    parser.add_argument("--version", action="version",
                        version=f"polcascade {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value settings file")
    flag_help = {
        "scheme": "level-matching scheme preset: 1, 2 or 3",
        "ex_mean": "mean exciton energy, meV (preset override)",
        "delta_x": "exciton H-V splitting, meV (preset override)",
        "cav_mean": "mean cavity energy, meV (preset override)",
        "delta_c": "cavity H-V splitting, meV (preset override)",
        "rabi": "vacuum Rabi splitting, meV (preset override)",
        "tau_c": "cavity photon lifetime, ps (preset override)",
        "tau_xx": "biexciton radiative lifetime, ps (preset override)",
        "binding": "biexciton binding energy, meV (preset override)",
        "delta_cx": "cavity-exciton detuning applied to the preset, meV",
        "pairing": "correlated branches: LP-LP, UP-UP or LP-UP "
                   "(default: the scheme's pairing)",
        "width": "detector window full width, meV",
        "center1": "fixed first-photon window center, meV "
                   "(needs --center2; default: track the paired lines)",
        "center2": "fixed second-photon window center, meV",
        "base_nodes": "quadrature nodes per panel",
        "rel_tol": "quadrature relative tolerance",
        "max_refinements": "quadrature refinement passes",
        "unprojected": "gamma command: report the unfiltered coherence",
        "reference": "spectrum energy reference: absolute or "
                     "relative_to_ex_mean",
        "points": "spectrum grid points",
        "margin": "spectrum grid margin beyond the outermost lines, meV",
        "sweep_lo": "sweep grid start, meV",
        "sweep_hi": "sweep grid end, meV",
        "sweep_points": "sweep grid size",
        "lo": "optimize search range start, meV",
        "hi": "optimize search range end, meV",
        "angle_a": "analyzer A angle, degrees from H",
        "angle_b": "analyzer B angle, degrees from H",
        "n": "number of coincidence samples",
        "seed": "random seed for sampling",
        "workers": "process count for sweeps; more than 1 farms grid "
                   "chunks out to a process pool "
                   "(default: POLCASCADE_WORKERS or 1)",
        "out_dir": "directory for output files",
        "figures": "comma-separated figure ids "
                   f"({', '.join(FIGURE_IDS)}) or 'all'",
        "svg": "also write SVG plots (--svg false to disable)",
    }
    for key, cast in _CASTS.items():
        extra = {}
        if cast is _as_bool:
            # Bare flag means true; an explicit true/false also works.
            extra = {"nargs": "?", "const": True}
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            type=cast, default=argparse.SUPPRESS,
                            metavar=key.upper(), help=flag_help[key], **extra)
    parser.add_argument("--all", dest="figures", action="store_const",
                        const="all", default=argparse.SUPPRESS,
                        help="figures command: emit every figure")
    return parser


def build_config(argv=None) -> RunConfig:
    """Defaults, then the config file, then flags."""
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    path = getattr(args, "config", None)
    overrides = dict(parse_config_file(path)) if path else {}
    overrides.update({k: v for k, v in vars(args).items()
                      if k not in ("command", "config")})
    cfg = replace(cfg, **overrides)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.scheme not in (1, 2, 3):
        raise ValidationError(f"scheme must be 1, 2 or 3, got {cfg.scheme!r}")
    if (cfg.center1 is None) != (cfg.center2 is None):
        raise ValidationError("--center1 and --center2 must be given together")
    if cfg.reference not in ("absolute", "relative_to_ex_mean"):
        raise ValidationError(
            f"reference must be absolute or relative_to_ex_mean, "
            f"got {cfg.reference!r}")
    for name in ("width", "margin"):
        if getattr(cfg, name) <= 0:
            raise ValidationError(f"{name} must be > 0")
    for name in ("points", "sweep_points", "n"):
        if getattr(cfg, name) < 1:
            raise ValidationError(f"{name} must be >= 1")
    if cfg.workers is not None and cfg.workers < 1:
        raise ValidationError("workers must be >= 1")
    if not (math.isfinite(cfg.sweep_lo) and math.isfinite(cfg.sweep_hi)
            and cfg.sweep_lo < cfg.sweep_hi):
        raise ValidationError("sweep range must satisfy sweep_lo < sweep_hi")


def effective_params(cfg: RunConfig) -> SystemParams:
    base = scheme_preset(cfg.scheme)
    overrides = {name: getattr(cfg, name)
                 for name in ("ex_mean", "delta_x", "cav_mean", "delta_c",
                              "rabi", "tau_c", "tau_xx", "binding")
                 if getattr(cfg, name) is not None}
    if "ex_mean" in overrides and "cav_mean" not in overrides:
        # Presets tie the cavity to the exciton; keep them tied when only
        # the exciton is moved.
        overrides["cav_mean"] = overrides["ex_mean"]
    params = base.replace(**overrides) if overrides else base
    if cfg.delta_cx != 0.0:
        params = params.with_detuning(cfg.delta_cx)
    return params


def effective_quad(cfg: RunConfig) -> QuadratureSpec:
    return QuadratureSpec(base_nodes=cfg.base_nodes, rel_tol=cfg.rel_tol,
                          max_refinements=cfg.max_refinements)


def effective_pairing(cfg: RunConfig) -> str:
    return cfg.pairing if cfg.pairing is not None else SCHEME_PAIRING[cfg.scheme]


def effective_window(cfg: RunConfig, params: SystemParams) -> DetectorWindow:
    if cfg.center1 is not None:
        return DetectorWindow(center1=cfg.center1, center2=cfg.center2,
                              width=cfg.width)
    return tracked_window(params, effective_pairing(cfg), cfg.width)


def config_echo(cfg: RunConfig) -> dict:
    out = {}
    for f in fields(RunConfig):
        out[f.name] = getattr(cfg, f.name)
    return out


def _config_header_lines(cfg: RunConfig) -> list[str]:
    # Worker count and output directory deliberately left out: the bytes
    # of an output file must not depend on either.
    skip = {"workers", "out_dir"}
    return [f"{f.name} = {getattr(cfg, f.name)!r}"
            for f in fields(RunConfig) if f.name not in skip]


def _window_dict(w: DetectorWindow) -> dict:
    return {"center1": w.center1, "center2": w.center2, "width": w.width}


def _cmd_spectrum(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    grid = _spectrum_grid(params, margin=cfg.margin, points=cfg.points)
    if cfg.reference == "relative_to_ex_mean":
        grid = grid - params.ex_mean
    spectrum = pl_spectrum(params, grid, reference=cfg.reference)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "spectrum.csv")
    write_spectrum_csv(csv_path, spectrum,
                       header_lines=[f"polcascade {__version__}",
                                     *_config_header_lines(cfg)])
    outputs = [csv_path]
    if cfg.svg:
        svg_path = os.path.join(cfg.out_dir, "spectrum.svg")
        line_plot(svg_path, [("H", grid, spectrum.intensity_h),
                             ("V", grid, spectrum.intensity_v)],
                  title="Emission spectrum",
                  xlabel="photon energy (meV)", ylabel="intensity (1/meV)")
        outputs.append(svg_path)
    return {"outputs": outputs, "channels": channel_table(params)}


def _cmd_sweep(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    deltas = np.linspace(cfg.sweep_lo, cfg.sweep_hi, cfg.sweep_points)
    rows = anticrossing_sweep(params, deltas)
    columns = (["delta_cx_mev"]
               + [f"E_{p}_{b}" for p, b in STATE_ORDER]
               + [f"xex2_{p}_{b}" for p, b in STATE_ORDER])
    data = [[r.delta_cx] + [r.energies[k] for k in STATE_ORDER]
            + [r.x_ex2[k] for k in STATE_ORDER] for r in rows]
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "anticrossing.csv")
    _write_rows_csv(csv_path, [f"polcascade {__version__}",
                               *_config_header_lines(cfg)], columns, data)
    outputs = [csv_path]
    if cfg.svg:
        svg_path = os.path.join(cfg.out_dir, "anticrossing.svg")
        xs = [r.delta_cx for r in rows]
        line_plot(svg_path,
                  [(f"{p} {b}", xs, [r.energies[(p, b)] for r in rows])
                   for p, b in STATE_ORDER],
                  title="Polariton levels",
                  xlabel="cavity-exciton detuning (meV)",
                  ylabel="energy (meV)")
        outputs.append(svg_path)
    min_gap_h = min(r.energies[("H", "UP")] - r.energies[("H", "LP")] for r in rows)
    min_gap_v = min(r.energies[("V", "UP")] - r.energies[("V", "LP")] for r in rows)
    return {"outputs": outputs,
            "min_same_pol_gap_mev": min(min_gap_h, min_gap_v)}


def _cmd_gamma(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    quad = effective_quad(cfg)
    if cfg.unprojected:
        g = gamma_unprojected(params, quad)
        return {"gamma": {"re": g.real, "im": g.imag, "abs": abs(g)},
                "projected": False}
    pairing = effective_pairing(cfg)
    w = effective_window(cfg, params)
    coh = gamma_prime(params, pairing, w, quad)
    return {"gamma": {"re": coh.gamma.real, "im": coh.gamma.imag,
                      "abs": abs(coh.gamma)},
            "projected": True, "pairing": coh.pairing,
            "window": _window_dict(w),
            "channel_norms": dict(coh.channel_norms)}


def _cmd_entangle(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    pairing = effective_pairing(cfg)
    w = effective_window(cfg, params)
    rho = projected_state(params, pairing, w, effective_quad(cfg))
    report = peres_test(rho)
    return {"report": report.as_dict(), "pairing": pairing,
            "window": _window_dict(w)}


def _cmd_optimize(cfg: RunConfig) -> dict:
    window = None
    if cfg.center1 is not None:
        window = DetectorWindow(center1=cfg.center1, center2=cfg.center2,
                                width=cfg.width)
    delta, value = optimize_detuning(cfg.scheme, lo=cfg.lo, hi=cfg.hi,
                                     width=cfg.width,
                                     quad=effective_quad(cfg), window=window)
    return {"delta_cx": delta, "abs_gamma": value,
            "pairing": SCHEME_PAIRING[cfg.scheme]}


def _cmd_sample(cfg: RunConfig) -> dict:
    params = effective_params(cfg)
    pairing = effective_pairing(cfg)
    w = effective_window(cfg, params)
    rho = projected_state(params, pairing, w, effective_quad(cfg))
    angles = (math.radians(cfg.angle_a), math.radians(cfg.angle_b))
    counts = sample_coincidences(rho, angles, cfg.n, cfg.seed)
    probs = born_probabilities(rho, *angles)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "counts.csv")
    data = [[f"{a}", f"{b}", f"{int(counts[a, b])}"]
            for a in (0, 1) for b in (0, 1)]
    _write_rows_csv(csv_path, [f"polcascade {__version__}",
                               *_config_header_lines(cfg)],
                    ["a_port", "b_port", "count"], data)
    return {"outputs": [csv_path],
            "counts": [[int(c) for c in row] for row in counts],
            "born_probabilities": [[float(p) for p in row] for row in probs],
            "correlation": correlation_from_counts(counts),
            "angles_deg": [cfg.angle_a, cfg.angle_b],
            "n": cfg.n, "seed": cfg.seed}


def _cmd_figures(cfg: RunConfig) -> dict:
    if cfg.figures.strip().lower() == "all":
        wanted = list(FIGURE_IDS)
    else:
        wanted = [f.strip() for f in cfg.figures.split(",") if f.strip()]
    outputs = []
    for fig in wanted:
        outputs.extend(reproduce_figure(fig, cfg.out_dir,
                                        quad=effective_quad(cfg),
                                        workers=cfg.workers, svg=cfg.svg))
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
    payload = {"command": cfg.command}
    payload.update(_DISPATCH[cfg.command](cfg))
    payload["config"] = config_echo(cfg)
    return payload


def main(argv=None) -> int:
    try:
        cfg = build_config(argv)
        payload = run(cfg)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # ValidationError is a ValueError; parameter and config mistakes
        # land here.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
