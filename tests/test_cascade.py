import numpy as np
import pytest
from numpy.testing import assert_allclose

from polcascade.cascade import (_write_rows_csv, channel_table,
                                enumerate_channels, pl_spectrum,
                                write_spectrum_csv)
from polcascade.errors import ValidationError
from polcascade.model import HBAR_MEV_PS, SystemParams, scheme_preset
from polcascade.polariton import find_crossings, solve_polaritons


def resonant_params():
    return SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                        delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                        binding=3.0)


def random_params(rng):
    return SystemParams(
        ex_mean=float(rng.uniform(900.0, 1100.0)),
        delta_x=float(rng.uniform(-0.5, 0.5)),
        cav_mean=float(rng.uniform(900.0, 1100.0)),
        delta_c=float(rng.uniform(-1.0, 1.0)),
        rabi=float(rng.uniform(0.05, 0.5)),
        tau_c=float(rng.uniform(5.0, 50.0)),
        tau_xx=float(rng.uniform(100.0, 1000.0)),
        binding=float(rng.uniform(3.0, 6.0)))


def channels_by_key(params):
    return {(c.pol, c.branch): c for c in enumerate_channels(params)}


def local_maxima(xs, ys):
    ys = np.asarray(ys)
    idx = np.flatnonzero((ys[1:-1] > ys[:-2]) & (ys[1:-1] > ys[2:])) + 1
    return [xs[i] for i in idx]


def test_four_channels_one_per_state():
    chans = enumerate_channels(scheme_preset(2))
    assert sorted((c.pol, c.branch) for c in chans) == [
        ("H", "LP"), ("H", "UP"), ("V", "LP"), ("V", "UP")]


def test_resonance_equal_branching():
    for c in enumerate_channels(resonant_params()):
        assert_allclose(c.amp ** 2, 0.25, atol=1e-12)


def test_scheme1_channels_degenerate_but_distinguishable_widths():
    # The H and V detunings are opposite, so the Hopfield fractions differ
    # channel by channel while their product (the branching weight) is the
    # same; the distinguishing quantity is the exciton fraction, visible in
    # the per-channel biexciton width.
    chans = channels_by_key(scheme_preset(1))
    assert (chans[("H", "LP")].intermediate.x_ex
            != chans[("V", "LP")].intermediate.x_ex)
    assert chans[("H", "LP")].xx_channel_width != chans[("V", "LP")].xx_channel_width
    assert_allclose(chans[("H", "LP")].amp, chans[("V", "LP")].amp, atol=1e-12)
    assert abs(chans[("H", "LP")].photon2 - chans[("V", "LP")].photon2) <= 1e-12
    assert abs(chans[("H", "UP")].photon2 - chans[("V", "UP")].photon2) <= 1e-12


def test_energy_conservation_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = random_params(rng)
        for c in enumerate_channels(p):
            assert c.photon1 + c.photon2 == p.e_biexciton
            # photon2 tracks the intermediate level to an ulp.
            assert abs(c.photon2 - c.intermediate.energy) <= 1e-9


def test_branching_normalization_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        total = sum(c.amp ** 2 for c in enumerate_channels(random_params(rng)))
        assert abs(total - 1.0) <= 1e-10


def test_branching_weights_follow_hopfield_product():
    # Unnormalized weight of each channel is x_ex^2 x_ph^2 / 4.
    p = scheme_preset(3)
    chans = enumerate_channels(p)
    raw = [c.intermediate.x_ex ** 2 * c.intermediate.x_ph ** 2 / 4.0
           for c in chans]
    total = sum(raw)
    for c, w in zip(chans, raw):
        assert_allclose(c.amp ** 2, w / total, atol=1e-12)


def test_channel_widths():
    p = scheme_preset(2)
    chans = enumerate_channels(p)
    for c in chans:
        assert_allclose(c.xx_channel_width,
                        c.intermediate.x_ex ** 2 * HBAR_MEV_PS / p.tau_xx,
                        atol=1e-15)
    # The four exciton fractions pair to 1 per polarization, so the total
    # biexciton width is exactly 2 hbar / tau_xx.
    total = channel_table(p)["gamma_xx_total_mev"]
    assert_allclose(total, 2.0 * HBAR_MEV_PS / p.tau_xx, atol=1e-15)
    assert_allclose(sum(c.xx_channel_width for c in chans), total,
                    atol=1e-15)


def test_spectrum_four_peaks_per_polarization():
    p = scheme_preset(2)
    grid = np.linspace(996.0, 1001.0, 40001)
    spec = pl_spectrum(p, grid)
    chans = enumerate_channels(p)
    for pol, intensity in (("H", spec.intensity_h), ("V", spec.intensity_v)):
        peaks = local_maxima(grid, intensity)
        assert len(peaks) == 4
        expected = sorted(e for c in chans if c.pol == pol
                          for e in (c.photon1, c.photon2))
        gamma = max(c.intermediate.linewidth for c in chans)
        assert_allclose(sorted(peaks), expected, atol=gamma / 10.0)


def test_scheme2_central_peaks_coincide_at_crossing():
    # At the detuning where the cross-polarized LP/UP levels cross, the
    # two central polariton lines of opposite polarization sit on top of
    # each other.  Under this sign convention the near-degenerate pair is
    # (H,LP) with (V,UP); flipping both splitting signs relabels it.
    scan = find_crossings(scheme_preset(2), (("H", "LP"), ("V", "UP")),
                          -0.5, 0.5, tol=1e-12)
    assert len(scan.detunings) == 2
    p = scheme_preset(2).with_detuning(scan.detunings[0])
    chans = channels_by_key(p)
    assert abs(chans[("H", "LP")].photon2
               - chans[("V", "UP")].photon2) < 1e-9


def test_spectrum_unit_area_lines():
    p = scheme_preset(2)
    # Wide grid so the Lorentzian tails are captured.
    grid = np.linspace(900.0, 1100.0, 400001)
    spec = pl_spectrum(p, grid)
    chans = enumerate_channels(p)
    for pol, intensity in (("H", spec.intensity_h), ("V", spec.intensity_v)):
        expected = 2.0 * sum(c.amp ** 2 for c in chans if c.pol == pol)
        assert_allclose(np.trapezoid(intensity, grid), expected, atol=2e-3)


def test_spectrum_swap_symmetry():
    p = scheme_preset(3)
    q = p.replace(delta_x=-p.delta_x, delta_c=-p.delta_c)
    grid = np.linspace(996.0, 1001.0, 2001)
    sp = pl_spectrum(p, grid)
    sq = pl_spectrum(q, grid)
    assert np.array_equal(sp.intensity_h, sq.intensity_v)
    assert np.array_equal(sp.intensity_v, sq.intensity_h)


def test_spectrum_relative_reference():
    p = scheme_preset(1)
    grid_abs = np.linspace(996.0, 1001.0, 5001)
    spec_abs = pl_spectrum(p, grid_abs)
    spec_rel = pl_spectrum(p, grid_abs - p.ex_mean,
                           reference="relative_to_ex_mean")
    assert_allclose(spec_rel.intensity_h, spec_abs.intensity_h, rtol=1e-12)


@pytest.mark.parametrize("bad_grid", [[], [1.0, 1.0], [2.0, 1.0]])
def test_spectrum_rejects_bad_grid(bad_grid):
    with pytest.raises(ValidationError):
        pl_spectrum(scheme_preset(1), bad_grid)


def test_channel_table_contents():
    p = scheme_preset(3)
    table = channel_table(p)
    assert table["e_xx_mev"] == p.e_biexciton
    assert_allclose(table["gamma_xx_total_mev"], 2.0 * HBAR_MEV_PS / p.tau_xx,
                    atol=1e-15)
    assert len(table["channels"]) == 4
    states = {(s.pol, s.branch): s for s in solve_polaritons(p)}
    for row in table["channels"]:
        s = states[(row["pol"], row["branch"])]
        assert_allclose(row["x_ex2"], s.x_ex ** 2, atol=1e-12)
        assert row["photon1_mev"] + row["photon2_mev"] == p.e_biexciton


def test_channel_table_scheme3_lp_rows_at_crossing():
    scan = find_crossings(scheme_preset(3), (("H", "LP"), ("V", "LP")),
                          -0.5, 0.5, tol=1e-12)
    p = scheme_preset(3).with_detuning(scan.detunings[0])
    rows = {(r["pol"], r["branch"]): r for r in channel_table(p)["channels"]}
    assert abs(rows[("H", "LP")]["photon2_mev"]
               - rows[("V", "LP")]["photon2_mev"]) < 1e-9


def row_rule_csv(header_lines, columns) -> bytes:
    """The CSV bytes by the row-by-row rule: each value a str as it is,
    any other value the repr of its float."""
    lines = [f"# {line}\n" for line in header_lines]
    lines.append(",".join(columns) + "\n")
    for row in zip(*columns.values()):
        lines.append(",".join([v if isinstance(v, str) else repr(float(v))
                               for v in row]) + "\n")
    return "".join(lines).encode()


def test_write_rows_csv_matches_row_rule(tmp_path):
    inf, nan = float("inf"), float("nan")
    columns = {
        "label": ["a", "b", "c", "d", "e", "f"],
        "array": np.array([-0.0, 5e-324, 1e22, nan, inf, -inf]),
        "list": [1e22, nan, -0.0, inf, 5e-324, 0.1],
    }
    path = tmp_path / "table.csv"
    _write_rows_csv(path, ["one", "two"], columns)
    assert path.read_bytes() == row_rule_csv(["one", "two"], columns)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# one", "# two", "label,array,list"]
    assert lines[3] == "a,-0.0,1e+22"
    assert lines[4] == "b,5e-324,nan"


def test_write_rows_csv_zero_rows(tmp_path):
    path = tmp_path / "empty.csv"
    _write_rows_csv(path, ["only the header"],
                    {"label": [], "value": np.array([])})
    assert path.read_bytes() == b"# only the header\nlabel,value\n"


def test_write_spectrum_csv(tmp_path):
    p = scheme_preset(1)
    grid = np.linspace(999.0, 1001.0, 11)
    spec = pl_spectrum(p, grid)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec, header_lines=["hello"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == "energy_mev,intensity_H,intensity_V"
    assert len(lines) == 2 + len(grid)
    e, ih, iv = lines[2].split(",")
    assert float(e) == grid[0]
    assert float(ih) == spec.intensity_h[0]
