"""System parameters for a quantum dot in an anisotropic two-mode cavity.

All energies are in meV, lifetimes in ps.  Level positions are stored as a
mean plus a fine-structure splitting for each of the exciton doublet and the
cavity mode doublet; polarization-resolved levels are derived on access.

The package's input rules, one per kind, are here; each raises a
ValidationError naming the input, and none takes a bool as a number:
_require_finite, _require_complex (finite parts), _require_positive
(inf passes), _require_count (an integer up to 2**63 - 1), _require_seed
(such an integer from 0, or a non-empty list or tuple of them),
_require_items (a fixed number of items, such as a tuple of analyzer
angles), _require_range (finite lo < hi) and _require_grid (a 1-d,
finite, strictly increasing grid).
Detector windows take the finite and positive rules (pairstate), and a
SweepCurve's detunings the grid rule (experiments).
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HBAR_MEV_PS = 0.6582119569  # reduced Planck constant, meV*ps

POLARIZATIONS = ("H", "V")
BRANCHES = ("LP", "UP")

# Cavity means in the presets sit at a positive absolute energy so every
# emission line (and hence every detector window) lies at k > 0.
PRESET_EX_MEAN = 1000.0  # meV


def lifetime_to_linewidth(tau_ps: float) -> float:
    """Half width at half maximum (meV) of a state with lifetime tau_ps."""
    return HBAR_MEV_PS / _require_positive("tau_ps", tau_ps)


def _require_real(name: str, value):
    """value, a real number that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return value


def _require_finite(name: str, value):
    """value, a real number that is neither NaN nor infinite."""
    if not math.isfinite(_require_real(name, value)):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def _require_complex(name: str, value) -> complex:
    """value as a complex: a real number by the finite rule, or a complex
    number whose two parts pass it."""
    if (isinstance(value, numbers.Real)
            or not isinstance(value, numbers.Complex)):
        return complex(_require_finite(name, value))
    return complex(_require_finite(name, value.real),
                   _require_finite(name, value.imag))


def _require_positive(name: str, value):
    """value, a real number above 0; inf passes."""
    if not _require_real(name, value) > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def _require_count(name: str, value, least: int) -> int:
    """value as an int: an integer, not a bool, from least up to 2**63 - 1,
    the largest C long that NumPy takes."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not least <= value <= 2**63 - 1):
        raise ValidationError(
            f"{name} must be an integer in [{least}, 2**63 - 1], got {value!r}")
    return int(value)


def _require_seed(name: str, value):
    """value as a seed of np.random.default_rng: an int by the count rule
    from 0, or a non-empty list or tuple of such ints, as a list."""
    if not isinstance(value, (list, tuple)):
        return _require_count(name, value, 0)
    if not value:
        raise ValidationError(f"{name} must not be an empty sequence")
    return [_require_count(f"{name}[{i}]", v, 0) for i, v in enumerate(value)]


def _require_items(name: str, value, count: int) -> tuple:
    """value as a tuple of exactly count items, taken from any iterable;
    the items themselves are the caller's to check."""
    try:
        items = tuple(value)
    except TypeError:
        items = ()
    if len(items) != count:
        raise ValidationError(
            f"{name} must hold exactly {count} items, got {value!r}")
    return items


def _require_range(lo_name: str, hi_name: str, lo, hi) -> None:
    """lo and hi finite, with lo < hi; a failure names lo_name or hi_name."""
    _require_finite(lo_name, lo)
    _require_finite(hi_name, hi)
    if not lo < hi:
        raise ValidationError(f"need {lo_name} < {hi_name}, got [{lo}, {hi}]")


def _require_grid(name: str, values, least: int = 1) -> np.ndarray:
    """values as a new float array.  A grid must be a 1-d sequence of at
    least least finite numbers in strictly increasing order; each fault
    raises its own ValidationError."""
    try:
        grid = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold only numbers: {exc}") from None
    if grid.ndim != 1:
        raise ValidationError(f"{name} must be 1-d, got shape {grid.shape}")
    if grid.size < least:
        raise ValidationError(
            f"{name} is empty" if grid.size == 0 else
            f"{name} must hold at least {least} points, got {grid.size}")
    bad = ~np.isfinite(grid)
    if bad.any():
        i = int(bad.argmax())
        raise ValidationError(
            f"{name} must be finite, got {grid.item(i)!r} at index {i}")
    bad = np.diff(grid) <= 0
    if bad.any():
        i = int(bad.argmax()) + 1
        raise ValidationError(
            f"{name} must be strictly increasing, got "
            f"{grid.item(i - 1)!r} then {grid.item(i)!r} at index {i}")
    return grid


@dataclass(frozen=True, slots=True)
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
        for name in ("rabi", "tau_c", "tau_xx", "binding"):
            _require_positive(name, getattr(self, name))
        # Strong-coupling treatment assumes the biexciton line is far from
        # the polariton doublets: binding well above hbar*Omega_R.
        if self.binding < 10 * (self.rabi / 2):
            warnings.warn(
                f"binding {self.binding} meV is less than 10x hbar*Omega_R "
                f"({self.rabi / 2} meV); two-photon resonance effects are "
                "not modeled",
                stacklevel=2,
            )

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


def scheme_preset(scheme: int | str) -> SystemParams:
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
    return SystemParams(ex_mean=PRESET_EX_MEAN, delta_x=delta_x,
                        cav_mean=PRESET_EX_MEAN, delta_c=delta_c)
