import math

import numpy as np
import pytest

from polcascade.errors import ValidationError
from polcascade.svg import _ticks, line_plot


def test_line_plot_writes_valid_svg(tmp_path):
    path = tmp_path / "plot.svg"
    xs = np.linspace(0.0, 1.0, 50)
    line_plot(path, [("rise", xs, xs ** 2), ("fall", xs, 1.0 - xs)],
              title="two series", xlabel="x (meV)", ylabel="y")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    for word in ("two series", "x (meV)", "rise", "fall"):
        assert word in text


def test_line_plot_deterministic_bytes(tmp_path):
    xs = [0.0, 0.5, 1.0]
    ys = [1.0, -0.25, 0.125]
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    line_plot(a, [("s", xs, ys)], title="t")
    line_plot(b, [("s", xs, ys)], title="t")
    assert a.read_bytes() == b.read_bytes()


def test_line_plot_list_and_array_inputs_same_bytes(tmp_path):
    xs = np.linspace(-0.4, 0.4, 161)
    ys = np.cos(9.0 * xs) / (1.0 + xs ** 2)
    a = tmp_path / "arrays.svg"
    b = tmp_path / "lists.svg"
    line_plot(a, [("s", xs, ys), ("t", xs[::2], -ys[::2])], title="t")
    line_plot(b, [("s", xs.tolist(), ys.tolist()),
                  ("t", xs[::2].tolist(), (-ys[::2]).tolist())], title="t")
    assert a.read_bytes() == b.read_bytes()


def test_line_plot_flat_and_single_point_series(tmp_path):
    # degenerate ranges must still produce a finite layout
    path = tmp_path / "flat.svg"
    line_plot(path, [("flat", [0.0, 1.0], [2.0, 2.0]),
                     ("dot", [0.5], [2.0])])
    text = path.read_text()
    assert "NaN" not in text and "nan" not in text


@pytest.mark.parametrize("level", [3e15, 1e16, 1e23, -1e300])
def test_line_plot_levels_of_any_magnitude(tmp_path, level):
    # From 2**53 on a flat range stays flat under + 1.0, and a tick step
    # under half an ulp of the tick left the tick loop where it was.
    two_ulps = math.nextafter(math.nextafter(level, math.inf), math.inf)
    assert _ticks(level, two_ulps)
    for top in (level, two_ulps):
        path = tmp_path / "levels.svg"
        line_plot(path, [("s", [0.0, 1.0], [level, top])])
        assert "nan" not in path.read_text().lower()


@pytest.mark.parametrize("series", [
    [],
    [("empty", [], [])],
    [("ragged", [0.0, 1.0], [0.0])],
])
def test_line_plot_rejects(tmp_path, series):
    with pytest.raises(ValidationError):
        line_plot(tmp_path / "bad.svg", series)
