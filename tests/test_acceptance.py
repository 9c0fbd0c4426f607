"""End-to-end checks, one test per numbered claim about the package.

Each test prints the measured numbers it judged, so a bare `pytest -v`
run gives one pass/fail line per claim plus the evidence on failure.
"""
import hashlib
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _corpus import overlap_corpus
from polcascade.cascade import enumerate_channels, pl_spectrum
from polcascade.entanglement import (born_probabilities, chsh_value,
                                     peres_test, projected_state,
                                     sample_coincidences, x_state)
from polcascade.experiments import reproduce_all, tracked_window
from polcascade.model import HBAR_MEV_PS, SystemParams, scheme_preset
from polcascade.pairstate import (DetectorWindow, brute_force_overlap,
                                  channel_norm, gamma_prime, windowed_overlap)
from polcascade.polariton import find_crossings, min_gap, solve_polaritons

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def random_params(rng):
    return SystemParams(
        ex_mean=rng.uniform(900.0, 1100.0),
        delta_x=rng.uniform(-0.5, 0.5),
        cav_mean=rng.uniform(900.0, 1100.0),
        delta_c=rng.uniform(-0.5, 0.5),
        rabi=rng.uniform(0.05, 0.5),
        tau_c=rng.uniform(5.0, 50.0),
        tau_xx=rng.uniform(100.0, 1000.0),
        binding=rng.uniform(3.0, 6.0),
    )


@pytest.fixture(scope="module")
def figures_runs(tmp_path_factory):
    """Full `figures --all` runs, each in a fresh process, made on first
    use and keyed by the --workers value passed (None: flag left out).
    Returns a function giving a run's output directory and wall time."""
    runs = {}

    def run(workers=None):
        if workers not in runs:
            out = tmp_path_factory.mktemp(f"figs_w{workers}")
            extra = [] if workers is None else ["--workers", str(workers)]
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "polcascade", "figures", "--all",
                 "--out-dir", str(out), *extra],
                capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            assert proc.returncode == 0, proc.stderr
            runs[workers] = (out, elapsed)
        return runs[workers]
    return run


@pytest.fixture(scope="module")
def figures_run(figures_runs):
    """One full `figures --all` run with the CLI defaults."""
    return figures_runs()


def read_column(path, name, dtype=float):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh
                if not line.startswith("#")]
    return np.array([dtype(r[rows[0].index(name)]) for r in rows[1:]])


def wide_window_gamma(states, label_a, label_b):
    """|gamma'| of two paired channels in an unbounded detector window.

    Built from the polariton fields alone.  A channel's packet norm is
    N = x_ex^2 x_ph^2 / 4 and its v-pole half width is the polariton
    linewidth g.  Both channels share the biexciton pole, so the
    u-integrals cancel from the ratio.  The cross v-integral
    int dv [(v - E_a - i g_a)(v - E_b + i g_b)]^-1 = 2 pi / ((g_a + g_b) - i D)
    against the self integrals pi / g leaves
    sqrt(N_a N_b) / (N_a + N_b) * 2 sqrt(g_a g_b) / |(g_a + g_b) - i D|,
    with D = E_a - E_b.
    """
    a, b = states.get(*label_a), states.get(*label_b)
    norm_a = a.x_ex ** 2 * a.x_ph ** 2 / 4.0
    norm_b = b.x_ex ** 2 * b.x_ph ** 2 / 4.0
    g_a, g_b = a.linewidth, b.linewidth
    return (math.sqrt(norm_a * norm_b) / (norm_a + norm_b)
            * 2.0 * math.sqrt(g_a * g_b)
            / math.hypot(g_a + g_b, a.energy - b.energy))


def test_criterion_01_polariton_energies_match_eigenvalue_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240821)
    worst_energy = 0.0
    worst_split = 0.0
    for i in range(1000):
        p = random_params(rng)
        states = solve_polaritons(p)
        for pol in ("H", "V"):
            h = np.array([
                [p.e_exciton(pol), p.rabi / 2.0],
                [p.rabi / 2.0, p.e_cavity(pol)],
            ])
            expected = np.linalg.eigvalsh(h)
            got = np.array([states.get(pol, "LP").energy,
                            states.get(pol, "UP").energy])
            worst_energy = max(worst_energy, np.max(np.abs(got - expected)))
            # the same-polarization gap bottoms out at rabi, reached
            # where the cavity meets the exciton
            sign = 1.0 if pol == "H" else -1.0
            at = p.with_detuning(sign * (p.delta_x - p.delta_c) / 2.0)
            assert abs(at.e_cavity(pol) - at.e_exciton(pol)) < 1e-9
            res = solve_polaritons(at)
            gap = res.get(pol, "UP").energy - res.get(pol, "LP").energy
            worst_split = max(worst_split, abs(gap - p.rabi))
        if i < 5:
            d, g = min_gap(p, (("H", "LP"), ("H", "UP")), -2.0, 2.0)
            worst_split = max(worst_split, abs(g - p.rabi))
    elapsed = time.perf_counter() - t0
    print(f"worst energy dev {worst_energy:.3e}, worst splitting dev "
          f"{worst_split:.3e}, {elapsed:.2f} s")
    assert worst_energy <= 1e-12
    assert worst_split <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_mirrored_levels_give_polarization_degenerate_branches():
    t0 = time.perf_counter()
    worst = 0.0
    for delta_x in np.linspace(-0.4, 0.4, 161):
        p = SystemParams(ex_mean=1000.0, delta_x=float(delta_x),
                         cav_mean=1000.0, delta_c=float(-delta_x),
                         rabi=0.22, tau_c=15.0, tau_xx=500.0, binding=3.0)
        assert p.e_cavity("H") == p.e_exciton("V")
        assert p.e_cavity("V") == p.e_exciton("H")
        s = solve_polaritons(p)
        worst = max(worst,
                    abs(s.h_lp.energy - s.v_lp.energy),
                    abs(s.h_up.energy - s.v_up.energy))
    elapsed = time.perf_counter() - t0
    print(f"worst H-V branch gap {worst:.3e} over 161 points, {elapsed:.2f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_03_scheme3_crossing_location():
    t0 = time.perf_counter()
    p = scheme_preset(3)
    pair = (("H", "LP"), ("V", "LP"))
    scan = find_crossings(p, pair, -0.5, 0.5, tol=1e-9)
    assert len(scan.detunings) == 1
    delta = scan.detunings[0]

    grid = np.linspace(-0.5, 0.5, 4001)
    gaps = np.array([
        solve_polaritons(p.with_detuning(float(d))).get("H", "LP").energy
        - solve_polaritons(p.with_detuning(float(d))).get("V", "LP").energy
        for d in grid])
    brute = float(grid[np.argmin(np.abs(gaps))])
    sign_changes = int(np.sum(np.diff(np.sign(gaps)) != 0))
    elapsed = time.perf_counter() - t0
    print(f"crossing {delta:.10f}, brute scan {brute:.5f}, "
          f"{sign_changes} sign change(s), {elapsed:.2f} s")
    assert 0.27 <= abs(delta) <= 0.29
    assert abs(delta - brute) <= (grid[1] - grid[0])
    assert sign_changes == 1
    assert elapsed < 2.0


def test_criterion_04_packet_norm_and_integrator_oracles():
    t0 = time.perf_counter()
    worst_norm = 0.0
    for ch in enumerate_channels(scheme_preset(1)):
        hw = ch.xx_total_width + ch.intermediate.linewidth
        w = DetectorWindow(center1=ch.photon1, center2=ch.photon2,
                           width=2 * 200 * hw)
        got = windowed_overlap(ch, ch, w).real
        worst_norm = max(worst_norm, abs(got / channel_norm(ch) - 1.0))

    worst_case = ("", 0.0)
    for label, ca, cb, w in overlap_corpus():
        q = windowed_overlap(ca, cb, w)
        b = brute_force_overlap(ca, cb, w, n=4000)
        rel = abs(q - b) / max(abs(q), abs(b))
        if rel > worst_case[1]:
            worst_case = (label, rel)
    elapsed = time.perf_counter() - t0
    print(f"worst wide-window norm dev {worst_norm:.3e}, worst "
          f"quad-vs-brute rel {worst_case[1]:.3e} ({worst_case[0]}), "
          f"{elapsed:.1f} s")
    assert worst_norm <= 1e-2
    assert worst_case[1] <= 1e-4
    assert elapsed < 60.0


def test_criterion_05_scheme1_coherence_magnitude():
    t0 = time.perf_counter()
    p = scheme_preset(1)
    coh = gamma_prime(p, "LP-LP", tracked_window(p, "LP-LP", 0.2))
    sym = SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                       delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                       binding=3.0)
    coh_sym = gamma_prime(sym, "LP-LP", tracked_window(sym, "LP-LP", 0.2))
    elapsed = time.perf_counter() - t0
    print(f"|gamma'| scheme 1 at zero: {abs(coh.gamma):.9f}, symmetric "
          f"channels: {abs(coh_sym.gamma):.12f}, {elapsed:.2f} s")
    assert 0.45 <= abs(coh.gamma) <= 0.5
    assert abs(abs(coh_sym.gamma) - 0.5) <= 1e-6
    assert elapsed < 10.0


def test_criterion_06_scheme_ordering_and_asymmetry(figures_run):
    """Fig. 4 peaks: schemes 1 and 2 at their closed form, scheme 3 lowest
    and at its LP-LP crossing.

    Only rows whose tracked window holds both paired lines are judged;
    elsewhere |gamma'| comes from Lorentzian tails.  Scheme 1 stays below
    scheme 2 by construction: at zero detuning its H-LP line is
    photon-like and its V-LP line exciton-like, so the width factor
    2 sqrt(g_a g_b) / (g_a + g_b) caps it near 0.455, while scheme 2 pairs
    lines of equal Hopfield fractions 0.0027 meV apart.
    """
    out, elapsed = figures_run
    crossing = find_crossings(scheme_preset(3), (("H", "LP"), ("V", "LP")),
                              -0.5, 0.5, tol=1e-9).detunings[0]
    documented_pairing = {1: "LP-LP", 2: "LP-UP", 3: "LP-LP"}
    peaks = {}
    for scheme in (1, 2, 3):
        path = out / f"fig4_scheme{scheme}.csv"
        deltas = read_column(path, "delta_cx_mev")
        curve = read_column(path, "abs_gamma_prime")
        center1 = read_column(path, "center1")
        center2 = read_column(path, "center2")
        width = read_column(path, "width")
        pairing = read_column(path, "pairing", str)
        assert curve.size == 161
        assert set(pairing) == {documented_pairing[scheme]}
        # The H-side branch comes first, the V-side branch second.
        branch_h, branch_v = documented_pairing[scheme].split("-")
        labels = (("H", branch_h), ("V", branch_v))
        held = np.empty(curve.size, dtype=bool)
        for i, delta in enumerate(deltas):
            states = solve_polaritons(
                scheme_preset(scheme).with_detuning(float(delta)))
            lo, hi = DetectorWindow(center1=center1[i], center2=center2[i],
                                    width=width[i]).k2_interval
            held[i] = all(lo <= states.get(*label).energy <= hi
                          for label in labels)
        i = int(np.flatnonzero(held)[np.argmax(curve[held])])
        states = solve_polaritons(
            scheme_preset(scheme).with_detuning(float(deltas[i])))
        peaks[scheme] = (float(deltas[i]), float(curve[i]),
                         wide_window_gamma(states, *labels), int(held.sum()))
    # deltas, curve and held are scheme 3's from here on.
    photon = deltas < crossing
    sides_all = (curve[photon].mean(), curve[~photon].mean())
    sides_held = (curve[held & photon].mean(), curve[held & ~photon].mean())
    for scheme, (delta, peak, closed, n_held) in peaks.items():
        print(f"scheme {scheme}: peak {peak:.7f} at {delta:+.3f} meV, "
              f"closed form {closed:.7f}, difference {peak - closed:+.2e}, "
              f"{n_held}/161 rows hold both lines")
    print(f"scheme-3 crossing {crossing:.5f} meV; side means photon-like vs "
          f"exciton-like: {sides_held[0]:.4f} vs {sides_held[1]:.4f} over "
          f"rows holding both lines, {sides_all[0]:.4f} vs "
          f"{sides_all[1]:.4f} over all rows; sweep run {elapsed:.1f} s")
    assert elapsed < 60.0
    # The 0.2 meV window cuts the Lorentzian tails by about 5e-4.
    for scheme in (1, 2):
        _, peak, closed, _ = peaks[scheme]
        assert abs(peak - closed) <= 1e-3, (scheme, peak, closed)
    assert peaks[3][1] < peaks[1][1] < peaks[2][1]
    # Two steps of the 0.005 meV grid.
    assert abs(peaks[3][0] - crossing) <= 0.01
    assert sides_held[0] > sides_held[1]


def test_criterion_07_peres_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240818)
    for i in range(1000):
        p_hh = rng.uniform(0.05, 0.95)
        mag = rng.uniform(0.0, 1.0) * math.sqrt(p_hh * (1.0 - p_hh))
        if i % 5 == 0:
            mag = 0.0
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rho = x_state(p_hh, 1.0 - p_hh, mag * np.exp(1j * phase))
        rep = peres_test(rho)
        assert rep.entangled == (mag > 1e-10)

    worst_balanced = 0.0
    for _ in range(200):
        mag = rng.uniform(0.0, 0.5)
        rep = peres_test(x_state(0.5, 0.5, mag))
        worst_balanced = max(worst_balanced,
                             abs(rep.min_pt_eigenvalue - (-mag)))

    rho = x_state(0.5, 0.5, 0.5)
    best = -np.inf
    from scipy.optimize import minimize
    for start in [(0.1, 0.9, 0.3, -0.2), (0.0, math.pi / 4, 0.4, -0.4)]:
        r = minimize(lambda a: -chsh_value(rho, a), start,
                     method="Nelder-Mead",
                     options=dict(xatol=1e-12, fatol=1e-14, maxiter=20000))
        best = max(best, -r.fun)
    chsh_dev = abs(peres_test(rho).chsh_max - best)
    elapsed = time.perf_counter() - t0
    print(f"balanced PT dev {worst_balanced:.3e}, chsh vs oracle dev "
          f"{chsh_dev:.3e}, {elapsed:.2f} s")
    assert worst_balanced <= 1e-10
    assert chsh_dev <= 1e-9
    assert abs(best - 2.0 * math.sqrt(2.0)) <= 1e-9
    assert elapsed < 5.0


def test_criterion_08_four_resolved_peaks_with_coincident_pair():
    t0 = time.perf_counter()
    checks = []
    crossing = find_crossings(scheme_preset(3), (("H", "LP"), ("V", "LP")),
                              -0.5, 0.5, tol=1e-9).detunings[0]
    for scheme, delta, partner in ((2, 0.0, ("V", "UP")),
                                   (3, crossing, ("V", "LP"))):
        p = scheme_preset(scheme).with_detuning(delta)
        gamma_c = HBAR_MEV_PS / p.tau_c        # bare cavity linewidth
        chans = {(c.pol, c.branch): c for c in enumerate_channels(p)}
        lines = []
        for c in chans.values():
            lines.extend((c.photon1, c.photon2))
        grid = np.linspace(min(lines) - 0.5, max(lines) + 0.5, 40001)
        spec = pl_spectrum(p, grid)
        for pol, intensity in (("H", spec.intensity_h),
                               ("V", spec.intensity_v)):
            interior = ((intensity[1:-1] > intensity[:-2])
                        & (intensity[1:-1] > intensity[2:]))
            peaks = grid[1:-1][interior]
            assert peaks.size == 4, (scheme, pol, peaks)
            expected = sorted([chans[(pol, "LP")].photon1,
                               chans[(pol, "LP")].photon2,
                               chans[(pol, "UP")].photon1,
                               chans[(pol, "UP")].photon2])
            worst = np.max(np.abs(np.sort(peaks) - np.array(expected)))
            assert worst <= gamma_c / 10.0, (scheme, pol, worst)
            checks.append(worst)
        pair_gap = abs(chans[("H", "LP")].photon2
                       - chans[partner].photon2)
        assert pair_gap <= gamma_c / 10.0, (scheme, pair_gap)
        checks.append(pair_gap)
    elapsed = time.perf_counter() - t0
    print(f"worst peak/pair deviation {max(checks):.3e} meV "
          f"(allowance {gamma_c / 10.0:.3e}), {elapsed:.2f} s")
    assert elapsed < 2.0


def test_criterion_09_sampler_statistics():
    t0 = time.perf_counter()
    p = scheme_preset(1)
    rho = projected_state(p, "LP-LP", tracked_window(p, "LP-LP", 0.2))
    settings = [(0.0, 0.0), (0.0, math.pi / 8), (math.pi / 4, math.pi / 8),
                (math.pi / 4, -math.pi / 8), (0.0, math.pi / 4),
                (math.pi / 8, 0.0), (math.pi / 3, math.pi / 6),
                (-math.pi / 8, math.pi / 8)]
    n = 100000
    worst_z = 0.0
    for k, pair in enumerate(settings):
        prob = born_probabilities(rho, *pair)
        counts = sample_coincidences(rho, pair, n, seed=900 + k)
        sigma = np.sqrt(n * prob * (1.0 - prob))
        for idx in np.ndindex(2, 2):
            dev = abs(counts[idx] - n * prob[idx])
            if sigma[idx] == 0.0:
                assert dev == 0.0
            else:
                worst_z = max(worst_z, dev / sigma[idx])
    again = sample_coincidences(rho, settings[1], n, seed=901)
    assert np.array_equal(again,
                          sample_coincidences(rho, settings[1], n, seed=901))
    elapsed = time.perf_counter() - t0
    print(f"worst |z| over 8 settings {worst_z:.2f}, {elapsed:.2f} s")
    assert worst_z <= 3.0
    assert elapsed < 5.0


def test_criterion_10_figures_deterministic_across_processes(figures_run,
                                                              tmp_path):
    """The CLI's fresh process and this test process write the same
    figure bytes."""
    out, _ = figures_run
    reproduce_all(str(tmp_path))
    names = sorted(f.name for f in out.glob("*.csv"))
    assert names == sorted(f.name for f in tmp_path.glob("*.csv"))
    assert len(names) == 8
    differing = [name for name in names
                 if (out / name).read_bytes() != (tmp_path / name).read_bytes()]
    print(f"{len(names)} CSV files, {len(differing)} differing: {differing}")
    assert differing == []


# SHA-256 of every `figures --all` file.  Figure bytes change only on
# purpose; a change that alters them updates these digests and says why.
FIGURE_SHA256 = {
    "fig1c.csv": "c93c60781d3abd0c715c94cbc517ac9aecde56d6b946fe8f1b3eb7df19f03a0a",
    "fig1c.svg": "362e6f321af298653cc87715f1f66277041bfbb1b3e0824e00ab5667092d9239",
    "fig2a.csv": "d14cfd5184b81946465cbafe4bf58938848b1716590c9fe6006672a613d24d6c",
    "fig2a.svg": "e997a644aa7570a953fe1d4a322b95527e68ba181c26c0b46a789c2004b41932",
    "fig2c.csv": "850e1fd20cc7b640a3e07189d5e981026669ce4d256b6e25165999caf35c67b9",
    "fig2c.svg": "0c89f54502f1e1cdc6cb229437979aa7877d1f9adc2f1f6ff26abc352f91b839",
    "fig3a.csv": "6018d9c15fd0b811bd8e3cd093b0a1783bff6da3ae0b4ce0a2d338c3259fe97f",
    "fig3a.svg": "e82ab8e658ce97f1e498df76a7ada4b11bd2f1f5051592c8b9bf01a79a6aedda",
    "fig3c.csv": "1a99d0f350ab09e4f6d88b2fd054b94acff8dbdd34cd4bcc66a8502bf79355da",
    "fig3c.svg": "68fcf5046e83b74d32796b13b55a884fedc473bdc53a36217911ace63d9cd6e0",
    "fig4.svg": "58231c2978e0979c0fffef8fa4c621d1086ac538c2bc0212c8f7d97901305553",
    "fig4_scheme1.csv": "9c1a9c018ae1bea5dfc3022206cf3d9b7889a86c659224122c95565d9b90b912",
    "fig4_scheme2.csv": "9cda203a2a6d313ac8a691886dad27dcc6d0f4bfbf4f50588ac0b2db91f38e1a",
    "fig4_scheme3.csv": "fe926d9095886030c6f30fce1d567baaa74af5940fc98155352a481ffa77878e",
}


@pytest.mark.parametrize("workers", (None, 2, 4))
def test_figure_bytes_match_pinned_digests(figures_runs, workers):
    """--workers is accepted and ignored: with or without it, every
    figure file keeps its pinned bytes."""
    out, _ = figures_runs(workers)
    assert sorted(f.name for f in out.iterdir()) == sorted(FIGURE_SHA256)
    for name, digest in FIGURE_SHA256.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} changed at workers={workers}: sha256 {got}"
