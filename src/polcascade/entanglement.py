"""Two-qubit polarization density matrices and entanglement measures.

The cascade populates only the HH and VV amplitudes, so physical states
are X-shaped: diagonal (pHH, 0, 0, pVV) with corner coherences.  General
4x4 density matrices are still accepted so perturbed inputs can be
analyzed.  One eigenvalue rule, _eigenvalues, serves the state check and
the Peres test: only non-X input reaches LAPACK's eigvalsh.

Basis order is (HH, HV, VH, VV).  Analyzer angles are in radians.

The Pauli correlation matrix behind the CHSH bound takes the nine
constant sigma_i x sigma_j products from one stack built at import, in
one matmul and one trace; each entry is the same matmul and trace as a
pair-by-pair loop would take, so its bits do not depend on the stacking.
The Born probabilities take their four analyzer operators the same way,
as one stack from a broadcast outer product of the two projector pairs.
Sampling seeds pass model._require_seed.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .model import (_require_count, _require_finite, _require_items,
                    _require_seed)
from .polariton import hypot

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SIGMA_X, _SIGMA_Y, _SIGMA_Z)
# The nine sigma_i x sigma_j of the correlation matrix, (i, j) in row-major
# order, as one (9, 4, 4) stack.
_PAULI_PAIRS = np.array([np.kron(si, sj) for si in _PAULIS for sj in _PAULIS])

# Entries that must vanish in an X-shaped matrix (off both diagonals).
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def _is_x(m: np.ndarray) -> bool:
    """Whether every entry of m off both diagonals is at most 1e-14."""
    return bool(np.max(np.abs(m[_OFF_X])) <= 1e-14)


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian 4x4 matrix: where it is X-shaped,
    the closed form of its 2x2 blocks (0, 3) and (1, 2); else eigvalsh."""
    if not _is_x(m):
        return np.linalg.eigvalsh(m)
    out = []
    for i, j in ((0, 3), (1, 2)):
        a, d = m[i, i].real, m[j, j].real
        r = hypot((a - d) / 2.0, hypot(m[i, j].real, m[i, j].imag))
        mean = (a + d) / 2.0
        out.extend((mean - r, mean + r))
    return np.array(sorted(out))


@dataclass(frozen=True, eq=False)
class TwoQubitDensityMatrix:
    """Validated 4x4 density matrix in the (HH, HV, VH, VV) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.matrix, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValidationError("density matrix must be a 4x4 array of "
                                  f"numbers: {exc}") from None
        if m.shape != (4, 4):
            raise ValidationError(f"density matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValidationError("density matrix contains non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValidationError("density matrix is not Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValidationError("density matrix trace differs from 1 by > 1e-12")
        if _eigenvalues(m)[0] < -1e-10:
            raise ValidationError("density matrix has an eigenvalue below -1e-10")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def gamma(self) -> complex:
        """The HH-VV corner coherence."""
        return complex(self.matrix[0, 3])

    def is_x_form(self) -> bool:
        return _is_x(self.matrix)


@dataclass(frozen=True)
class EntanglementReport:
    """Peres test plus the Horodecki CHSH bound, JSON-serializable."""

    min_pt_eigenvalue: float
    negativity: float
    entangled: bool
    chsh_max: float
    gamma_magnitude: float

    def as_dict(self) -> dict:
        return asdict(self)


def x_state(p_hh: float, p_vv: float, gamma: complex) -> TwoQubitDensityMatrix:
    """The cascade's state family: HH/VV populations with corner coherence."""
    _require_finite("p_hh", p_hh)
    _require_finite("p_vv", p_vv)
    gamma = complex(*(_require_finite("gamma", part) for part in (
        getattr(gamma, "real", gamma), getattr(gamma, "imag", 0.0))))
    if p_hh < 0 or p_vv < 0:
        raise ValidationError(f"populations must be >= 0, got {(p_hh, p_vv)!r}")
    if abs(p_hh + p_vv - 1.0) > 1e-12:
        raise ValidationError(
            f"populations must sum to 1, got {p_hh + p_vv!r}")
    # Reject, never clip: a corner exceeding the populations' geometric
    # mean is not a state.
    magnitude = hypot(gamma.real, gamma.imag)
    gamma2 = magnitude * magnitude
    if gamma2 > p_hh * p_vv + 1e-12:
        raise ValidationError(
            f"|gamma|^2 = {gamma2!r} exceeds pHH*pVV = {p_hh * p_vv!r}")
    return TwoQubitDensityMatrix(np.array(
        [[p_hh, 0, 0, gamma], [0, 0, 0, 0], [0, 0, 0, 0],
         [gamma.conjugate(), 0, 0, p_vv]], dtype=complex))


def partial_transpose(rho: TwoQubitDensityMatrix) -> np.ndarray:
    """Transpose over the second qubit; an involution preserving the trace."""
    m = rho.matrix.reshape(2, 2, 2, 2)
    return m.transpose(0, 3, 2, 1).reshape(4, 4)


def correlation_matrix(rho: TwoQubitDensityMatrix) -> np.ndarray:
    """3x3 Pauli correlation matrix T_ij = Tr(rho sigma_i x sigma_j).

    One matmul over the stack of the nine products and one trace take the
    same product and trace per pair as nine separate calls, with the same
    bits; an einsum would add in another order.
    """
    t = np.trace(rho.matrix @ _PAULI_PAIRS, axis1=1, axis2=2).real
    # A contiguous copy, as the loop filled, for chsh_bound's t.T @ t.
    return t.reshape(3, 3).copy()


def chsh_bound(rho: TwoQubitDensityMatrix) -> float:
    """Largest CHSH value over analyzer settings, 2 sqrt(m1 + m2)."""
    t = correlation_matrix(rho)
    ev = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(ev[-1] + ev[-2], 0.0))


def peres_test(rho: TwoQubitDensityMatrix) -> EntanglementReport:
    """Partial-transpose separability test with negativity and CHSH bound.

    A partial transpose keeps the X entries on the X, so it takes the
    state's eigenvalue path.  For two qubits a negative partial transpose
    is equivalent to entanglement.
    """
    if not isinstance(rho, TwoQubitDensityMatrix):
        rho = TwoQubitDensityMatrix(rho)
    eigs = _eigenvalues(partial_transpose(rho))
    min_eig = float(eigs[0])
    negativity = float(-np.sum(eigs[eigs < 0.0])) if np.any(eigs < 0.0) else 0.0
    return EntanglementReport(
        min_pt_eigenvalue=min_eig,
        negativity=negativity,
        entangled=min_eig < -1e-10,
        chsh_max=chsh_bound(rho),
        gamma_magnitude=hypot(rho.gamma.real, rho.gamma.imag),
    )


def _polarizer_projectors(angle: float) -> np.ndarray:
    """The (2, 2, 2) stack of the transmission port of a linear polarizer
    at angle from H and the orthogonal reflection port."""
    ket = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
    p0 = np.outer(ket, ket.conj())
    return np.array([p0, np.eye(2, dtype=complex) - p0])


def born_probabilities(rho: TwoQubitDensityMatrix, angle_a: float,
                       angle_b: float) -> np.ndarray:
    """2x2 outcome probabilities; rows = analyzer A port, cols = B port.

    The four operators P_i x P_j are one broadcast outer product of the
    two projector stacks, each entry np.kron's product.  One matmul over
    their stack and one trace take the same product and trace per pair as
    four separate calls, with the same bits, as in correlation_matrix.
    Negative rounding is clipped to 0 and the table normalised to sum 1.
    """
    pa = _polarizer_projectors(_require_finite("angle_a", angle_a))
    pb = _polarizer_projectors(_require_finite("angle_b", angle_b))
    # Axes (port a, port b, row a, row b, column a, column b).
    ops = (pa[:, None, :, None, :, None]
           * pb[None, :, None, :, None, :]).reshape(4, 4, 4)
    probs = np.trace(rho.matrix @ ops, axis1=1, axis2=2).real.reshape(2, 2)
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def correlation(rho: TwoQubitDensityMatrix, angle_a: float,
                angle_b: float) -> float:
    """Analytic polarization correlation E(a, b)."""
    p = born_probabilities(rho, angle_a, angle_b)
    return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])


def chsh_value(rho: TwoQubitDensityMatrix, angles) -> float:
    """CHSH combination E(a,b) + E(a',b) + E(a,b') - E(a',b')."""
    a, a2, b, b2 = _require_items("angles", angles, 4)
    return (correlation(rho, a, b) + correlation(rho, a2, b)
            + correlation(rho, a, b2) - correlation(rho, a2, b2))


def optimal_chsh_angles(gamma: float) -> tuple[float, float, float, float]:
    """Angles maximizing chsh_value for x_state(1/2, 1/2, gamma), real gamma.

    With E(a,b) = cos2a cos2b + 2*gamma sin2a sin2b the optimum is a = 0,
    a' = pi/4 and analyzers B at +-atan(2 gamma)/2, giving 2 sqrt(1+4g^2).
    """
    phi = math.atan(2.0 * _require_finite("gamma", gamma)) / 2.0
    return (0.0, math.pi / 4.0, phi, -phi)


def correlation_from_counts(counts) -> float:
    """Empirical correlation of one 2x2 coincidence-count table."""
    try:
        c = np.asarray(counts, dtype=float)
        valid = c.shape == (2, 2) and bool(np.all(np.isfinite(c) & (c >= 0)))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValidationError(
            f"counts must be a 2x2 table of finite counts >= 0, got {counts!r}")
    total = c.sum()
    if total <= 0:
        raise ValidationError("counts table is empty")
    return float((c[0, 0] - c[0, 1] - c[1, 0] + c[1, 1]) / total)


def sample_coincidences(rho: TwoQubitDensityMatrix, basis_pair, n: int,
                        seed) -> np.ndarray:
    """n seeded coincidence draws at one pair of analyzer angles.

    Returns the 2x2 integer count table; identical (rho, angles, n, seed)
    give identical counts.  seed must pass model._require_seed: an
    integer from 0 to 2**63 - 1, or a non-empty list or tuple of them.
    """
    n = _require_count("n", n, 1)
    seed = _require_seed("seed", seed)
    angle_a, angle_b = _require_items("basis_pair", basis_pair, 2)
    probs = born_probabilities(rho, angle_a, angle_b)
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, probs.ravel()).reshape(2, 2)


# quad is unused (overlaps are exact); the benchmark's study workload passes it.
def projected_state(params, pairing: str, w, quad=None) -> TwoQubitDensityMatrix:
    """Spectrally filtered two-photon polarization state of the cascade."""
    from .pairstate import gamma_prime

    coh = gamma_prime(params, pairing, w)
    s_h, s_v = coh.channel_norms.values()      # H side first
    p_hh = s_h / (s_h + s_v)
    return x_state(p_hh, 1.0 - p_hh, coh.gamma)
