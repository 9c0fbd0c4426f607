"""Polarization-entangled photon pairs from a cavity-polariton cascade.

Models a biexciton cascade whose intermediate exciton states strongly
couple to a two-mode anisotropic cavity, and quantifies the polarization
entanglement of the emitted photon pair with and without spectral
filtering.
"""
from .errors import ConvergenceError, EmptyWindowError, ValidationError
from .model import (HBAR_MEV_PS, PRESET_EX_MEAN, SystemParams, hbar_mev_ps,
                    lifetime_to_linewidth, scheme_preset)
from .polariton import (CrossingScan, PolaritonSet, PolaritonState,
                        anticrossing_sweep, exciton_cavity_detuning,
                        find_crossings, min_gap, solve_polaritons)
from .cascade import (CascadeChannel, Spectrum, channel_table,
                      enumerate_channels, gamma_xx_total, pl_spectrum,
                      write_spectrum_csv)
from .kernels import BACKEND
from .pairstate import (DetectorWindow, PairCoherence, QuadratureSpec,
                        amplitude, brute_force_overlap, channel_norm,
                        gamma_prime, gamma_prime_from_channels,
                        gamma_unprojected, normalize_pairing,
                        pairing_channels, window_value, windowed_overlap)
from .entanglement import (EntanglementReport, TwoQubitDensityMatrix,
                           born_probabilities, chsh_bound, chsh_value,
                           correlation, correlation_from_counts,
                           correlation_matrix, optimal_chsh_angles,
                           partial_transpose, peres_test, projected_state,
                           sample_coincidences, x_state)
from .experiments import (FIGURE_IDS, SCHEME_PAIRING, SweepCurve, SweepRow,
                          default_delta_grid, fig4_sweep, optimize_detuning,
                          reproduce_all, reproduce_figure, sweep_gamma,
                          tracked_window)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "CascadeChannel", "ConvergenceError", "CrossingScan",
    "DetectorWindow", "EmptyWindowError", "EntanglementReport", "FIGURE_IDS",
    "HBAR_MEV_PS", "PRESET_EX_MEAN", "PairCoherence", "PolaritonSet",
    "PolaritonState",
    "QuadratureSpec", "SCHEME_PAIRING", "Spectrum", "SweepCurve", "SweepRow",
    "SystemParams", "TwoQubitDensityMatrix", "ValidationError", "amplitude",
    "anticrossing_sweep", "born_probabilities", "brute_force_overlap",
    "channel_norm", "channel_table", "chsh_bound", "chsh_value",
    "correlation", "correlation_from_counts", "correlation_matrix",
    "default_delta_grid", "enumerate_channels", "exciton_cavity_detuning",
    "fig4_sweep", "find_crossings", "gamma_prime",
    "gamma_prime_from_channels", "gamma_unprojected", "gamma_xx_total",
    "hbar_mev_ps", "lifetime_to_linewidth", "min_gap", "normalize_pairing",
    "optimal_chsh_angles", "optimize_detuning", "pairing_channels",
    "partial_transpose", "peres_test", "pl_spectrum", "projected_state",
    "reproduce_all", "reproduce_figure", "sample_coincidences",
    "scheme_preset", "solve_polaritons", "sweep_gamma", "tracked_window",
    "window_value", "windowed_overlap", "write_spectrum_csv", "x_state",
]
