"""Radiative cascade channels and polarization-resolved emission spectra.

The biexciton decays through either polariton branch of either linear
polarization, emitting a photon pair: first the biexciton-to-polariton
photon, then the polariton-to-ground photon.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import HBAR_MEV_PS, SystemParams, _require_grid
# cascade no longer calls solve_polaritons.  The name stays importable from
# here only so that the benchmark tracer's (cascade, "solve_polaritons")
# site resolves; patching it here changes nothing.
from .polariton import (STATE_ORDER, PolaritonArrays, PolaritonState,  # noqa: F401
                        polariton_arrays, solve_polaritons)


@dataclass(frozen=True)
class CascadeChannel:
    """One decay path biexciton -> polariton -> ground."""

    pol: str                       # "H" or "V"
    branch: str                    # "LP" or "UP"
    intermediate: PolaritonState
    photon1: float                 # biexciton-transition photon energy, meV
    photon2: float                 # polariton-transition photon energy, meV
    amp: float                     # branching amplitude, real >= 0, sum of squares = 1
    xx_channel_width: float        # this channel's share of the biexciton width, meV
    xx_total_width: float          # total biexciton half width, meV
    # The cascade's biexciton energy, meV: the u-pole energy that every
    # channel of the cascade shares, equal to photon1 + photon2 wherever
    # both photon energies are positive (see ChannelArrays).
    e_xx: float


def _paired_photon_energies(e_xx: float, e_pol: np.ndarray):
    # Pair the two photon energies so their float sum reproduces e_xx
    # exactly; photon2 may shift from e_pol by at most 1 ulp.
    p2 = e_pol
    p1 = e_xx - p2
    for _ in range(10):
        off = p1 + p2 != e_xx
        if not off.any():
            break
        p2 = np.where(off, e_xx - p1, p2)
        p1 = np.where(off, e_xx - p2, p1)
    return p1, p2


@dataclass(frozen=True)
class ChannelArrays:
    """The four cascade channels at many cavity-mode energies.

    Each per-channel field has one row per channel, in the (H,LP),
    (H,UP), (V,LP), (V,UP) order of STATE_ORDER, and one column per
    point.  vanished flags the points where every branching weight is
    zero; their amp entries are NaN.  The biexciton pole that all four
    channels share is stored once: xx_total_width holds its width, one
    value per point, and e_biexciton its energy, the same at every
    point.  Where a photon energy is not positive, photon1 + photon2 of
    two rows can differ from e_biexciton, and from each other, by an ulp.
    """

    states: PolaritonArrays
    photon1: np.ndarray
    photon2: np.ndarray
    amp: np.ndarray
    xx_channel_width: np.ndarray
    xx_total_width: np.ndarray
    vanished: np.ndarray
    e_biexciton: float

    def check(self, i: int) -> None:
        """Raise ValidationError if every branching weight of point i
        vanished."""
        if self.vanished[i]:
            raise ValidationError("all branching weights vanished")

    def channels(self, i: int) -> list[CascadeChannel]:
        """The CascadeChannel list of point i."""
        total = self.xx_total_width[i].item()
        columns = zip(STATE_ORDER, self.states.states(i),
                      self.photon1[:, i].tolist(), self.photon2[:, i].tolist(),
                      self.amp[:, i], self.xx_channel_width[:, i].tolist())
        return [CascadeChannel(pol=pol, branch=branch, intermediate=s,
                               photon1=p1, photon2=p2, amp=amp,
                               xx_channel_width=own, xx_total_width=total,
                               e_xx=self.e_biexciton)
                for (pol, branch), s, p1, p2, amp, own in columns]


def channel_arrays(params: SystemParams, cav_mean) -> ChannelArrays:
    """The four cascade channels at each cavity-mode mean, as arrays.

    cav_mean replaces params.cav_mean, one point per element.  Column i
    equals enumerate_channels(params.replace(cav_mean=cav_mean[i])) bit
    for bit; enumerate_channels is the one-point case.
    """
    states = polariton_arrays(params, cav_mean)
    x_ex2 = states.x_ex * states.x_ex
    x_ph2 = states.x_ph * states.x_ph
    raw = x_ex2 * x_ph2 / 4.0
    widths = x_ex2 * (HBAR_MEV_PS / params.tau_xx)
    # Pairwise sums keep H/V relabeling bit-exact under a sign flip of
    # both splittings.
    pairs = np.array([raw, widths])
    pairs = pairs[:, :2] + pairs[:, 2:]
    total, xx_total = pairs[:, 0] + pairs[:, 1]
    p1, p2 = _paired_photon_energies(params.e_biexciton, states.energy)
    vanished = total <= 0
    return ChannelArrays(
        states=states, photon1=p1, photon2=p2,
        # NaN where the weights vanished, without a 0/0 warning.
        amp=np.sqrt(raw / np.where(vanished, np.nan, total)),
        xx_channel_width=widths, xx_total_width=xx_total,
        vanished=vanished, e_biexciton=params.e_biexciton)


def enumerate_channels(params: SystemParams) -> list[CascadeChannel]:
    """The four cascade channels in (H,LP), (H,UP), (V,LP), (V,UP) order.

    Branching weights follow the product of the exciton fraction feeding
    the first transition and the photon fraction feeding the second;
    amplitudes are normalized so the squares sum to one.  Every channel's
    two-photon resonance has the total biexciton width.
    """
    arrays = channel_arrays(params, [params.cav_mean])
    arrays.check(0)
    return arrays.channels(0)


@dataclass(frozen=True)
class Spectrum:
    """Emission intensity per polarization on a shared energy grid."""

    energy_grid: np.ndarray
    intensity_h: np.ndarray
    intensity_v: np.ndarray
    reference: str  # "absolute" or "relative_to_ex_mean"


def _lorentzian(grid: np.ndarray, center: float, halfwidth: float) -> np.ndarray:
    # Unit-area line; halfwidth is the HWHM.
    d = grid - center
    return (halfwidth / np.pi) / (d * d + halfwidth * halfwidth)


def _check_reference(reference) -> None:
    """Refuse a spectrum energy reference other than the two known."""
    if reference not in ("absolute", "relative_to_ex_mean"):
        raise ValidationError(
            f"reference must be 'absolute' or 'relative_to_ex_mean', got {reference!r}")


def pl_spectrum(params: SystemParams, energy_grid,
                reference: str = "absolute") -> Spectrum:
    """Luminescence spectrum of the full cascade.

    Each channel contributes two unit-area Lorentzians weighted by its
    branching probability: the biexciton line broadened by both the total
    biexciton width and the polariton width, and the polariton line with
    the polariton width alone.
    """
    _check_reference(reference)
    grid = _require_grid("energy grid", energy_grid, least=2)
    if np.diff(grid).min() < 1e-12:
        raise ValidationError("energy grid points closer than 1e-12 meV")
    offset = params.ex_mean if reference == "relative_to_ex_mean" else 0.0
    channels = enumerate_channels(params)
    out = {"H": np.zeros_like(grid), "V": np.zeros_like(grid)}
    for ch in channels:
        w = ch.amp * ch.amp
        g1 = ch.xx_total_width + ch.intermediate.linewidth
        g2 = ch.intermediate.linewidth
        acc = out[ch.pol]
        acc += w * _lorentzian(grid, ch.photon1 - offset, g1)
        acc += w * _lorentzian(grid, ch.photon2 - offset, g2)
    return Spectrum(energy_grid=grid, intensity_h=out["H"],
                    intensity_v=out["V"], reference=reference)


def channel_table(params: SystemParams) -> dict:
    """JSON-friendly summary of the four channels."""
    channels = enumerate_channels(params)
    rows = []
    for ch in channels:
        s = ch.intermediate
        rows.append({
            "pol": ch.pol,
            "branch": ch.branch,
            "energy_mev": s.energy,
            "photon1_mev": ch.photon1,
            "photon2_mev": ch.photon2,
            "amp2": ch.amp * ch.amp,
            "x_ex2": s.x_ex * s.x_ex,
            "x_ph2": s.x_ph * s.x_ph,
            "linewidth_mev": s.linewidth,
            "xx_channel_width_mev": ch.xx_channel_width,
        })
    return {
        "e_xx_mev": params.e_biexciton,
        "gamma_xx_total_mev": channels[0].xx_total_width,
        "channels": rows,
    }


def _write_rows_csv(path, header_lines, columns) -> None:
    """Write "# " header lines, the column names, then one CSV row per index.

    columns maps each name to a column, in file order.  A column of str is
    written as it is, any other as the repr of each value's float; the
    choice is made once per column.  path's directory is made here, by the
    first file of every output set, so a refused run leaves none behind.
    """
    cells = [column if isinstance(next(iter(column), None), str)
             else list(map(repr, np.asarray(column, dtype=float).tolist()))
             for column in columns.values()]
    lines = [*(f"# {line}" for line in header_lines), ",".join(columns),
             *map(",".join, zip(*cells))]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_spectrum_csv(path, spectrum: Spectrum, header_lines=()) -> None:
    """Write energy_mev,intensity_H,intensity_V rows (repr formatting)."""
    _write_rows_csv(path, header_lines,
                    {"energy_mev": spectrum.energy_grid,
                     "intensity_H": spectrum.intensity_h,
                     "intensity_V": spectrum.intensity_v})
