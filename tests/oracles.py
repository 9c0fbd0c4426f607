"""Reference formulas that tests compare the package against.

The package never evaluates a channel's two-photon amplitude pointwise
or its packet's all-space norm: window overlaps and gamma_unprojected
are closed forms.  These are the definitions those closed forms
integrate, written out directly on CascadeChannel objects.
"""
import math

from polcascade.model import _require_finite, _require_positive


def amplitude(ch, k1, k2):
    """Two-photon amplitude of one channel at photon energies (k1, k2):
    pref / ((k1 + k2 - (E - iG)) (k2 - (e - ig))), with the biexciton
    pole E - iG, the intermediate state's pole e - ig and the prefactor
    pref = x_ex x_ph sqrt(G g) / 2pi."""
    for name, k in (("k1", k1), ("k2", k2)):
        _require_positive(name, _require_finite(name, k))
    s = ch.intermediate
    exx, gxx = ch.e_xx, ch.xx_total_width
    pref = s.x_ex * s.x_ph * math.sqrt(gxx * s.linewidth) / (2.0 * math.pi)
    if pref == 0.0:
        return 0j
    return pref / ((k1 + k2 - (exx - 1j * gxx))
                   * (k2 - (s.energy - 1j * s.linewidth)))


def channel_norm(ch):
    """All-space integral of |amplitude|^2 over (k1, k2):
    pref^2 (pi / G) (pi / g) = x_ex^2 x_ph^2 / 4."""
    s = ch.intermediate
    return s.x_ex * s.x_ex * (s.x_ph * s.x_ph) / 4.0
