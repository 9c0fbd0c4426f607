"""System parameters for a quantum dot in an anisotropic two-mode cavity.

All energies are in meV, lifetimes in ps.  Level positions are stored as a
mean plus a fine-structure splitting for each of the exciton doublet and the
cavity mode doublet; polarization-resolved levels are derived on access.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass

from .errors import ValidationError

HBAR_MEV_PS = 0.6582119569  # reduced Planck constant, meV*ps

POLARIZATIONS = ("H", "V")
BRANCHES = ("LP", "UP")

# Cavity means in the presets sit at a positive absolute energy so every
# emission line (and hence every detector window) lies at k > 0.
PRESET_EX_MEAN = 1000.0  # meV


def hbar_mev_ps() -> float:
    """Return hbar in meV*ps."""
    return HBAR_MEV_PS


def lifetime_to_linewidth(tau_ps: float) -> float:
    """Half width at half maximum (meV) of a state with lifetime tau_ps."""
    if not tau_ps > 0:
        raise ValidationError(f"lifetime must be positive, got {tau_ps}")
    return HBAR_MEV_PS / tau_ps


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


def _exact_mean_split(a: float, b: float) -> tuple[float, float]:
    """Find (mean, delta) whose reconstruction reproduces a and b.

    Reconstruction is mean + delta/2 -> a and mean - delta/2 -> b.  An
    exactly reproducing pair does not always exist in float arithmetic;
    a small lattice of candidates around the naive values is searched and
    the naive pair is returned (reconstruction then within 1 ulp) when
    none reproduces exactly.
    """
    mean0 = (a + b) / 2
    delta0 = a - b
    means = [mean0]
    deltas = [delta0]
    for k in (1, 2):
        means.append(_nudge(mean0, k))
        means.append(_nudge(mean0, -k))
        deltas.append(_nudge(delta0, k))
        deltas.append(_nudge(delta0, -k))
    # Anchored candidates: pinning one side exactly often fixes the other.
    for m in list(means):
        deltas.append(2 * (a - m))
        deltas.append(2 * (m - b))
    for m in means:
        for d in deltas:
            h = d / 2
            if m + h == a and m - h == b:
                return m, d
    return mean0, delta0


def _nudge(x: float, k: int) -> float:
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


@dataclass(frozen=True)
class SystemParams:
    """Dot and cavity parameters.

    Sign conventions: delta_x = E_H - E_V, delta_c = E_C^H - E_C^V, and the
    mode-exciton detuning is cav_mean - ex_mean.
    """

    ex_mean: float = 0.0      # mean exciton energy, meV; outputs are relative to it
    delta_x: float = 0.0      # exciton fine-structure splitting E_H - E_V, meV
    cav_mean: float = 0.0     # mean cavity-mode energy, meV
    delta_c: float = 0.0      # cavity polarization splitting E_C^H - E_C^V, meV
    rabi: float = 0.22        # vacuum Rabi splitting 2*hbar*Omega_R at resonance, meV
    tau_c: float = 15.0       # cavity photon lifetime, ps
    tau_xx: float = 500.0     # biexciton radiative lifetime per channel, ps
    binding: float = 3.0      # biexciton binding energy, meV

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _require_finite(field.name, getattr(self, field.name))
        if not self.rabi > 0:
            raise ValidationError(f"rabi must be positive, got {self.rabi}")
        if not self.tau_c > 0:
            raise ValidationError(f"tau_c must be positive, got {self.tau_c}")
        if not self.tau_xx > 0:
            raise ValidationError(f"tau_xx must be positive, got {self.tau_xx}")
        if not self.binding > 0:
            raise ValidationError(f"binding must be positive, got {self.binding}")
        # Strong-coupling treatment assumes the biexciton line is far from
        # the polariton doublets: binding well above hbar*Omega_R.
        if self.binding < 10 * (self.rabi / 2):
            warnings.warn(
                f"binding {self.binding} meV is less than 10x hbar*Omega_R "
                f"({self.rabi / 2} meV); two-photon resonance effects are "
                "not modeled",
                stacklevel=2,
            )

    @classmethod
    def from_levels(cls, e_h: float, e_v: float, e_c_h: float, e_c_v: float,
                    **kwargs) -> "SystemParams":
        """Build from the four level energies (meV)."""
        ex_mean, delta_x = _exact_mean_split(e_h, e_v)
        cav_mean, delta_c = _exact_mean_split(e_c_h, e_c_v)
        return cls(ex_mean=ex_mean, delta_x=delta_x,
                   cav_mean=cav_mean, delta_c=delta_c, **kwargs)

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)

    def with_detuning(self, delta_cx: float) -> "SystemParams":
        """Shift the cavity doublet so cav_mean - ex_mean = delta_cx."""
        _require_finite("delta_cx", delta_cx)
        return self.replace(cav_mean=self.ex_mean + delta_cx)

    # Derived level energies -------------------------------------------------

    def e_exciton(self, pol: str) -> float:
        if pol == "H":
            return self.ex_mean + self.delta_x / 2
        if pol == "V":
            return self.ex_mean + (-self.delta_x) / 2
        raise ValidationError(f"polarization must be 'H' or 'V', got {pol!r}")

    def e_cavity(self, pol: str) -> float:
        if pol == "H":
            return self.cav_mean + self.delta_c / 2
        if pol == "V":
            return self.cav_mean + (-self.delta_c) / 2
        raise ValidationError(f"polarization must be 'H' or 'V', got {pol!r}")

    @property
    def e_biexciton(self) -> float:
        """Biexciton level 2*ex_mean - binding, meV (ground state at 0)."""
        return 2 * self.ex_mean - self.binding

    @property
    def detuning_cx(self) -> float:
        """Mode-exciton detuning cav_mean - ex_mean, meV."""
        return self.cav_mean - self.ex_mean


def scheme_id(scheme) -> int:
    """The scheme number 1, 2 or 3 of an int or of a name such as
    "Scheme2", "scheme2" or "2"; anything else, bools included, raises."""
    if isinstance(scheme, str):
        digits = scheme.lower().removeprefix("scheme").strip()
        if digits in ("1", "2", "3"):
            return int(digits)
    elif (isinstance(scheme, numbers.Integral)
          and not isinstance(scheme, bool) and scheme in (1, 2, 3)):
        return int(scheme)
    raise ValidationError(f"scheme must be 1, 2 or 3, got {scheme!r}")


def scheme_preset(scheme: int | str, ex_mean: float = PRESET_EX_MEAN,
                  tau_c: float = 15.0, tau_xx: float = 500.0,
                  binding: float = 3.0) -> SystemParams:
    """Parameter presets for the three level-matching schemes.

    Scheme 1 mirrors each cavity mode onto the opposite exciton line
    (E_C^H = E_V, E_C^V = E_H at zero detuning).  Scheme 2 uses a cavity
    splitting of the same sign as the exciton splitting, which holds one
    lower and one upper polariton of opposite polarizations nearly
    degenerate around zero detuning.  Scheme 3 flips the relative sign,
    which moves the lower-lower (and upper-upper) degeneracy out to a
    finite detuning.
    """
    delta_x, delta_c = {1: (0.1, -0.1), 2: (0.1, 0.5),
                        3: (-0.1, 0.5)}[scheme_id(scheme)]
    return SystemParams(ex_mean=ex_mean, delta_x=delta_x, cav_mean=ex_mean,
                        delta_c=delta_c, rabi=0.22, tau_c=tau_c,
                        tau_xx=tau_xx, binding=binding)
