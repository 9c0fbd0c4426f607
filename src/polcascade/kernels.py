"""NumPy kernels for the window integrals.

Both kernels integrate products of two-photon amplitudes.  In rotated
coordinates u = k1 + k2, v = k2 the u-integral of the biexciton factor has
a closed form, so the 2-d window integral reduces to a 1-d v-integral whose
integrand overlap_integrand evaluates.  midpoint_overlap is the brute-force
2-d midpoint rule over the original (k1, k2) box, used as a cross check.

Pole conventions for the product conj(A_a) * A_b:
the conjugated factor carries poles in the upper half plane
(exx_a + i*gxx_a along u, e_a + i*g_a along v), the direct factor in the
lower half plane (exx_b - i*gxx_b, e_b - i*g_b).
"""
import numpy as np

# Kept for callers that record which implementation ran; NumPy is the only one.
BACKEND = "python"


# The closed forms of overlap_integrand, in the order kind_index numbers
# them.
KINDS = ("self", "arctan", "log")


def kind_index(exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b):
    """Index into KINDS of the closed form for each element's poles.

    2 ("log") where the biexciton poles differ, else 0 ("self") where the
    polariton poles coincide too, else 1 ("arctan").
    """
    return np.where((exx_a != exx_b) | (gxx_a != gxx_b), 2,
                    np.where((e_a == e_b) & (g_a == g_b), 0, 1))


def integrand_kind(exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b) -> str:
    """Which closed form overlap_integrand uses for these pole parameters.

    "self" when both factors share every pole (a real Lorentzian product),
    "arctan" when only the biexciton poles coincide, otherwise "log".
    Array parameters select one form for all of their elements: the
    highest kind_index among them.
    """
    return KINDS[int(np.max(kind_index(exx_a, gxx_a, exx_b, gxx_b,
                                       e_a, g_a, e_b, g_b)))]


def _u_integral(v, k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b, log_path):
    """Closed-form integral of the biexciton factor over u in k1 + v.

    v has the broadcast shape of all arguments.  The arctan form works in
    place on two temporaries and returns one of them.
    """
    if log_path:
        u1 = k1_lo + v
        u2 = k1_hi + v
        p = exx_a + 1j * gxx_a
        q = exx_b - 1j * gxx_b
        # Both u-paths stay on one side of each branch cut (Im(u - p) < 0,
        # Im(u - q) > 0), so principal logs are safe.
        return (np.log(u2 - p) - np.log(u1 - p)
                - np.log(u2 - q) + np.log(u1 - q)) / (p - q)
    # Conjugate u-poles collapse to a real Lorentzian with an arctan
    # antiderivative.
    terms = []
    for k1 in (k1_hi, k1_lo):
        x = np.asarray(k1 + v)
        x -= exx_a
        x /= gxx_a
        terms.append(np.arctan(x, out=x))
    fu, lower = terms
    fu -= lower
    fu /= gxx_a
    return fu


def overlap_integrand(v, k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b,
                      e_a, g_a, e_b, g_b, pref, kind=None):
    """Closed-form u-integral times the v-pole factors, on an array of v.

    The parameters are scalars or arrays that broadcast against v, so one
    call can cover panels of many overlaps of the same integrand_kind.
    kind names that closed form when the caller already knows it; by
    default integrand_kind derives it.  Self overlaps come back real.
    Every step is elementwise: a value depends on its own v and
    parameters, not on the rest of the call.
    """
    v = np.asarray(v, dtype=float)
    shape = np.broadcast(v, k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b,
                         e_a, g_a, e_b, g_b, pref).shape
    if v.shape != shape:
        v = np.broadcast_to(v, shape)
    if kind is None:
        kind = integrand_kind(exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b)
    fu = _u_integral(v, k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b,
                     kind == "log")
    if kind == "self":
        # |v - (e - i g)|^2 in real arithmetic: no complex rounding residue.
        denom = (v - e_a) ** 2
        denom += g_a * g_a
        fu *= pref
        fu /= denom
        return fu[()]
    denom = v - (e_a + 1j * g_a)
    denom *= v - (e_b - 1j * g_b)
    return pref * fu / denom


def midpoint_overlap(k1_lo, k1_hi, n1, k2_lo, k2_hi, n2, exx_a, gxx_a,
                     exx_b, gxx_b, e_a, g_a, e_b, g_b, pref, chunk=256):
    """Midpoint-rule value of the same window integral on an n1 x n2 grid."""
    n1 = int(n1)
    n2 = int(n2)
    h1 = (k1_hi - k1_lo) / n1
    h2 = (k2_hi - k2_lo) / n2
    k1 = k1_lo + (np.arange(n1) + 0.5) * h1
    same = exx_a == exx_b and gxx_a == gxx_b
    p = exx_a + 1j * gxx_a
    q = exx_b - 1j * gxx_b
    pa = e_a + 1j * g_a
    pb = e_b - 1j * g_b
    total = 0.0 + 0.0j
    for j0 in range(0, n2, chunk):
        k2 = k2_lo + (np.arange(j0, min(j0 + chunk, n2)) + 0.5) * h2
        u = k1[:, None] + k2[None, :]
        if same:
            fu = 1.0 / ((u - exx_a) ** 2 + gxx_a * gxx_a)
        else:
            fu = 1.0 / ((u - p) * (u - q))
        gv = 1.0 / ((k2 - pa) * (k2 - pb))
        total += np.sum(fu * gv[None, :])
    return pref * h1 * h2 * total
