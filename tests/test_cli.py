import contextlib
import dataclasses
import hashlib
import importlib
import importlib.metadata
import inspect
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from polcascade.cli import (_DISPATCH, SETTINGS, RunConfig, _as_bool,
                            build_config, main, parse_config_file)
from polcascade.errors import ValidationError
from polcascade.experiments import (default_delta_grid, fig4_sweep,
                                    optimize_detuning, spectrum_grid,
                                    sweep_gamma, tracked_window)
from polcascade.model import SystemParams, scheme_preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out.count("\n") == 1          # single-line JSON summary
    return json.loads(out)


# --------------------------------------------------------------- parsing

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("polcascade ")


def test_help_lists_every_config_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for field in dataclasses.fields(RunConfig):
        if field.name == "command":
            continue
        assert f"--{field.name.replace('_', '-')}" in text, field.name


def _default(function, name):
    return inspect.signature(function).parameters[name].default


GRID = default_delta_grid()
# (CLI or preset value, library default) for each setting written once.
DEFAULT_PAIRS = {
    **{f"width-{f.__name__}": (SETTINGS["width"][0], _default(f, "width"))
       for f in (tracked_window, sweep_gamma, fig4_sweep, optimize_detuning)},
    "sweep_lo": (SETTINGS["sweep_lo"][0], GRID[0]),
    "sweep_hi": (SETTINGS["sweep_hi"][0], GRID[-1]),
    "sweep_points": (SETTINGS["sweep_points"][0], GRID.size),
    "lo": (SETTINGS["lo"][0], _default(optimize_detuning, "lo")),
    "hi": (SETTINGS["hi"][0], _default(optimize_detuning, "hi")),
    "margin": (SETTINGS["margin"][0], _default(spectrum_grid, "margin")),
    "points": (SETTINGS["points"][0], _default(spectrum_grid, "points")),
    **{f"scheme{k}-{name}": (getattr(scheme_preset(k), name),
                             getattr(SystemParams(), name))
       for k in (1, 2, 3) for name in ("rabi", "tau_c", "tau_xx", "binding")},
}


@pytest.mark.parametrize("pair", list(DEFAULT_PAIRS.values()),
                         ids=list(DEFAULT_PAIRS))
def test_cli_and_preset_defaults_equal_the_library_defaults(pair):
    value, library = pair
    assert value == library


def test_unknown_command_exits_one(capsys):
    code, out, err = run_cli(capsys, "transmogrify")
    assert code == 1
    assert "error:" in err


def test_config_echo_round_trips_every_field(capsys):
    data = payload(capsys, "gamma", "--scheme", "1")
    echo = data["config"]
    assert set(echo) == {f.name for f in dataclasses.fields(RunConfig)}
    assert list(data)[0] == "command"
    assert list(data)[-1] == "config"


# A value for every key that differs from its default and passes
# validation.  center1 and center2 are given with their partner.
_SAMPLE_TEXT = {int: "3", float: "0.3", str: "sample"}
_PARTNER = {"center1": ("center2",), "center2": ("center1",)}


def _text(key):
    default, parse, *_ = SETTINGS[key]
    if parse is _as_bool:
        return "false" if default else "true"
    return {"reference": "relative_to_ex_mean",
            "figures": "2a,4"}.get(key, _SAMPLE_TEXT[parse])


def _flags(*keys):
    return [arg for key in keys
            for arg in (f"--{key.replace('_', '-')}", _text(key))]


@pytest.mark.parametrize("key", list(SETTINGS))
def test_flag_and_config_line_give_equal_configs(tmp_path, key):
    default, parse, _, readers = SETTINGS[key]
    text = _text(key)
    base = [readers.split()[0], *_flags(*_PARTNER.get(key, ()))]
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {text}\n")
    from_file = build_config([*base, "--config", str(path)])
    from_flag = build_config([*base, f"--{key.replace('_', '-')}", text])
    assert from_file == from_flag
    assert getattr(from_flag, key) == parse(text) != default


def test_flag_overrides_file_overrides_default(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("width = 0.3\nseed = 11  # trailing comment\n")
    data = payload(capsys, "sample", "--config", str(cfg), "--width", "0.4",
                   "--out-dir", str(tmp_path))
    assert data["config"]["width"] == 0.4     # flag beats file
    assert data["config"]["seed"] == 11       # file beats default
    assert data["config"]["points"] == 4001   # untouched default


# The keys each command reads, counted from what its code uses; the
# settings table must say the same.
READ_COUNTS = {"spectrum": 15, "sweep": 10, "gamma": 15, "entangle": 14,
               "optimize": 6, "sample": 19, "figures": 4}
PAIRS = [(command, key) for command in READ_COUNTS for key in SETTINGS]


def test_settings_table_reads_83_of_217_pairs():
    reads = {command: [key for key in SETTINGS
                       if command in SETTINGS[key][3].split()]
             for command in READ_COUNTS}
    assert {command: len(keys) for command, keys in reads.items()} == (
        READ_COUNTS)
    assert (sum(READ_COUNTS.values()), len(PAIRS)) == (83, 217)
    assert set(READ_COUNTS) == set(_DISPATCH)


@pytest.mark.parametrize("command, key", PAIRS,
                         ids=[f"{command}-{key}" for command, key in PAIRS])
def test_each_command_refuses_every_key_it_does_not_read(
        capsys, monkeypatch, tmp_path, command, key):
    monkeypatch.chdir(tmp_path)
    keys = [k for k in SETTINGS if k == key or k in _PARTNER.get(key, ())]
    if command not in SETTINGS[key][3].split():
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {_text(k)}\n" for k in keys))
        for source in (_flags(*keys), ["--config", str(path)]):
            code, out, err = run_cli(capsys, command, *source)
            assert (code, out) == (1, "")
            assert f"{command} does not read {', '.join(keys)} " in err
        assert os.listdir(tmp_path) == ["run.cfg"]
    else:
        cfg = build_config([command, *_flags(*keys)])
        assert getattr(cfg, key) == SETTINGS[key][1](_text(key))


@pytest.mark.parametrize("argv, keys", [
    (("figures", "--figures", "2a", "--tau-xx", "1", "--pairing", "UP-UP"),
     "tau_xx, pairing"),
    (("figures", "--scheme", "3"), "scheme"),
    (("spectrum", "--pairing", "abc"), "pairing"),
    (("spectrum", "--workers", "4"), "workers"),
    (("sample", "--svg", "false"), "svg"),
    (("sample", "--sweep-lo", "5", "--sweep-hi", "1"), "sweep_lo, sweep_hi"),
    (("sweep", "--cav-mean", "1001", "--tau-c", "9", "--tau-xx", "90",
      "--binding", "3", "--delta-cx", "0.2"),
     "cav_mean, tau_c, tau_xx, binding, delta_cx"),
    (("optimize", "--delta-cx", "0"), "delta_cx"),
    (("gamma", "--all"), "figures"),
    (("gamma", "--unprojected", "--width", "0.01", "--center1", "997",
      "--center2", "1000"), "width, center1, center2"),
    (("gamma", "--unprojected", "true", "--pairing", "UP-UP", "--lo", "0"),
     "pairing, lo"),
])
def test_refusal_names_every_unread_key(capsys, monkeypatch, tmp_path, argv,
                                        keys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"does not read {keys} " in err
    assert os.listdir(tmp_path) == []


def test_unprojected_false_reads_the_window_keys(capsys):
    data = payload(capsys, "gamma", "--unprojected", "false", "--width",
                   "0.3", "--pairing", "LP-LP")
    assert data["projected"] is True
    assert data["window"]["width"] == 0.3


def test_cav_mean_and_delta_cx_are_refused_together(capsys, tmp_path):
    # delta_cx sets the cavity from ex_mean, so a cav_mean beside it would
    # be echoed and overwritten.
    path = tmp_path / "run.cfg"
    path.write_text("cav_mean = 1001\n")
    for argv in (("--cav-mean", "1001", "--delta-cx", "0.1"),
                 ("--config", str(path), "--delta-cx", "0"),
                 ("--delta-cx", "0.1", "--cav-mean", "999.9")):
        code, out, err = run_cli(capsys, "gamma", *argv)
        assert (code, out) == (1, "")
        assert "cav-mean" in err and "delta-cx" in err


def test_unknown_config_key_named_in_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("widht = 0.3\n")
    code, out, err = run_cli(capsys, "gamma", "--config", str(cfg))
    assert code == 1
    assert "widht" in err
    assert "run.cfg:1" in err


def test_removed_per_channel_xx_width_key_is_unknown(capsys, tmp_path):
    # The key never reached the channel model, so it is no longer accepted.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("per_channel_xx_width = true\n")
    code, out, err = run_cli(capsys, "gamma", "--config", str(cfg))
    assert code == 1
    assert "unknown config key 'per_channel_xx_width'" in err


@pytest.mark.parametrize("key", ["base_nodes", "max_refinements", "rel_tol"])
def test_removed_quadrature_keys_are_unknown(capsys, tmp_path, key):
    # Window overlaps and gamma --unprojected are exact, so these settings
    # no longer exist.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 8\n")
    code, out, err = run_cli(capsys, "gamma", "--config", str(cfg))
    assert code == 1
    assert f"unknown config key {key!r}" in err
    code, out, err = run_cli(capsys, "gamma", f"--{key.replace('_', '-')}", "8")
    assert code == 1
    assert err.startswith("error:")


def test_bad_config_value_exits_one(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = many\n")
    code, out, err = run_cli(capsys, "gamma", "--config", str(cfg))
    assert code == 1
    assert "points" in err


# Each row is refused by the command or library function that reads its
# key; no other code checks it.
REFUSED_ARGV = [
    ("gamma", "--scheme", "7"),
    ("gamma", "--tau-c", "-5"),
    ("gamma", "--center1", "997.0"),             # center2 missing
    ("spectrum", "--reference", "sideways"),
    ("sweep", "--sweep-lo", "0.4", "--sweep-hi", "-0.4"),
    ("sample", "--n", "0"),
    ("sample", "--angle-a", "nan"),
    ("sample", "--angle-b", "inf"),
    ("sample", "--seed", "-1"),
    ("spectrum", "--margin", "nan"),
    ("spectrum", "--points", "1"),
    ("optimize", "--lo", "nan"),
    ("optimize", "--hi", "inf"),
    ("optimize", "--lo", "0.3", "--hi", "0.1"),
    ("figures", "--figures", "2a,9z"),
    ("figures", "--figures", ","),
    ("sample", "--n", "9223372036854775808"),   # 2**63: beyond NumPy's C long
    ("sample", "--seed", "9223372036854775808"),  # counts stop at 2**63 - 1
    ("sweep", "--sweep-lo", "-inf"),
    ("spectrum", "--margin", "0"),
    ("spectrum", "--margin", "-1"),
    ("sweep", "--sweep-points", "0"),
    ("gamma", "--width", "nan"),
]


@pytest.mark.parametrize("argv", REFUSED_ARGV)
def test_validation_failures_exit_one(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    # The message names the key that caused it.
    assert argv[1].removeprefix("--").replace("-", "_") in err
    # The whole input is checked before any file is written.
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    argv for argv in REFUSED_ARGV if argv[0] in SETTINGS["out_dir"][3].split()])
def test_refused_run_makes_no_out_dir(capsys, monkeypatch, tmp_path, argv):
    # spectrum --reference is refused by pl_spectrum, after the grid is
    # built: the output directory must not exist by then.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv, "--out-dir", "new")
    assert code == 1
    assert argv[1].removeprefix("--").replace("-", "_") in err
    assert os.listdir(tmp_path) == []


def test_margin_nan_is_refused_as_not_finite(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spectrum", "--margin", "nan",
                           "--out-dir", str(tmp_path / "new"))
    assert code == 1
    assert err == "error: margin must be finite, got nan\n"
    assert os.listdir(tmp_path) == []


def test_negative_numbers_in_exponent_form_are_values(capsys, tmp_path):
    assert (payload(capsys, "gamma", "--delta-cx", "-1e-2")
            == payload(capsys, "gamma", "--delta-cx", "-0.01"))
    payload(capsys, "sweep", "--sweep-lo", "-1e-3", "--sweep-points", "3",
            "--out-dir", str(tmp_path))


def test_nonconvergence_exits_two(capsys):
    code, out, err = run_cli(capsys, "optimize", "--scheme", "1",
                             "--lo", "0.1", "--hi", "0.1000000000001")
    assert code == 2
    assert "flat" in err


# -------------------------------------------------------------- commands

def test_gamma_command_value(capsys):
    data = payload(capsys, "gamma", "--scheme", "1")
    assert data["projected"] is True
    assert data["pairing"] == "LP-LP"
    assert_allclose(data["gamma"]["abs"], 0.455183238731736, atol=1e-9)
    assert set(data["channel_norms"]) == {"H:LP", "V:LP"}


def test_gamma_unprojected(capsys):
    data = payload(capsys, "gamma", "--scheme", "1", "--unprojected")
    assert data["projected"] is False
    assert_allclose(data["gamma"]["abs"], 0.4551832387313733, atol=1e-12)


def test_entangle_scheme1_is_entangled(capsys):
    data = payload(capsys, "entangle", "--scheme", "1")
    assert data["report"]["entangled"] is True
    assert data["report"]["chsh_max"] > 2.0


def test_spectrum_writes_files(capsys, tmp_path):
    data = payload(capsys, "spectrum", "--scheme", "2",
                   "--out-dir", str(tmp_path), "--points", "801")
    names = sorted(os.path.basename(p) for p in data["outputs"])
    assert names == ["spectrum.csv", "spectrum.svg"]
    for p in data["outputs"]:
        assert os.path.isfile(p)
    assert len(data["channels"]["channels"]) == 4
    with open(os.path.join(tmp_path, "spectrum.csv")) as fh:
        first = fh.readline()
    assert first.startswith("# polcascade ")


def test_sweep_reports_rabi_floor(capsys, tmp_path):
    data = payload(capsys, "sweep", "--scheme", "2",
                   "--out-dir", str(tmp_path), "--svg", "false")
    assert_allclose(data["min_same_pol_gap_mev"], 0.22, atol=1e-9)
    names = sorted(os.path.basename(p) for p in data["outputs"])
    assert names == ["anticrossing.csv"]


def test_optimize_command(capsys):
    data = payload(capsys, "optimize", "--scheme", "1",
                   "--lo", "-0.1", "--hi", "0.1")
    assert abs(data["delta_cx"]) < 0.02
    assert data["abs_gamma"] > 0.45


@pytest.mark.parametrize("argv, keys", [
    (("--rabi", "0.35"), ["rabi"]),
    (("--lo", "0.1", "--rabi", "0.35", "--pairing", "UP-UP",
      "--delta-cx", "0.2"), ["rabi", "delta_cx", "pairing"]),
])
def test_optimize_refuses_settings_it_would_ignore(capsys, argv, keys):
    code, out, err = run_cli(capsys, "optimize", "--scheme", "1", *argv)
    assert code == 1
    assert out == ""
    for key in keys:
        assert key in err


def test_figures_subset(capsys, tmp_path):
    data = payload(capsys, "figures", "--figures", "2a",
                   "--out-dir", str(tmp_path), "--svg", "false")
    assert [os.path.basename(p) for p in data["outputs"]] == ["fig2a.csv"]


def test_figures_writes_each_id_once_in_first_named_order(capsys, tmp_path):
    data = payload(capsys, "figures", "--figures", "4,2a,4,2A",
                   "--out-dir", str(tmp_path), "--svg", "false")
    assert data["figures"] == ["4", "2a"]
    assert [os.path.basename(p) for p in data["outputs"]] == [
        "fig4_scheme1.csv", "fig4_scheme2.csv", "fig4_scheme3.csv",
        "fig2a.csv"]


def test_sample_determinism_across_dirs(capsys, tmp_path):
    out = {}
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        data = payload(capsys, "sample", "--scheme", "1", "--n", "100000",
                       "--seed", "7", "--out-dir", str(d))
        with open(os.path.join(d, "counts.csv"), "rb") as fh:
            out[name] = fh.read()
        assert sum(sum(row) for row in data["counts"]) == 100000
    assert out["a"] == out["b"]


def test_sample_different_seed_differs(capsys, tmp_path):
    counts = {}
    for seed in ("7", "8"):
        d = tmp_path / seed
        d.mkdir()
        data = payload(capsys, "sample", "--scheme", "1", "--n", "100000",
                       "--seed", seed, "--out-dir", str(d))
        counts[seed] = data["counts"]
    assert counts["7"] != counts["8"]


# SHA-256 of the files the file-writing commands leave in --out-dir.  Like
# the figure digests in test_acceptance, they change only on purpose.
CLI_OUTPUT_SHA256 = {
    ("sweep", "--scheme", "2"): {
        "anticrossing.csv": "bf3f92840c495b46407cce446e7c6589a756004a859f4d207d7b9365cca39da5",
        "anticrossing.svg": "f45a210c5978839b88c9316cee808d413df8e9742154f0ac4f8b5a3968033689",
    },
    ("spectrum", "--scheme", "3", "--reference", "absolute"): {
        "spectrum.csv": "363237af2c7106335b06ac93ee66b035416fbbeb4317836e8609ec692d099bc2",
        "spectrum.svg": "801ef47c13d3ea9fb27ec35b2d1a713edd61b9f26e2b285bf7f68ff29c7a3810",
    },
    ("spectrum", "--scheme", "3", "--reference", "relative_to_ex_mean"): {
        "spectrum.csv": "94e9a6e88e3b9ea069cb434b863f216d3a232ff6d777682d164fe8ab06aadefa",
        "spectrum.svg": "4c51e7991a07614fc8ab47d2cb2458d82a97ecbf33ccb7b333169a81b6bbfae7",
    },
    ("sample", "--scheme", "1", "--seed", "7"): {
        "counts.csv": "22830c265c3d355da0e7bc0610fa25a7f2ebb15a8f2c978ba4f2d4f764a62506",
    },
}


@pytest.mark.parametrize("argv", list(CLI_OUTPUT_SHA256), ids=" ".join)
def test_command_output_bytes_match_pinned_digests(capsys, tmp_path, argv):
    payload(capsys, *argv, "--out-dir", str(tmp_path))
    expected = CLI_OUTPUT_SHA256[argv]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, digest in expected.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, f"{name} changed: sha256 {got}"


# The JSON summaries of two commands that write no file.  Without
# --out-dir they print "out_dir": ".", so the bytes hold in any directory.
STDOUT_SHA256 = {
    ("entangle", "--scheme", "1"):
        "40fb2b1106b5f87dfdbee37a04836c25bde1d43307032baa874ee324438c121c",
    ("gamma", "--scheme", "1", "--unprojected"):
        "78e9a241b4b88ece53d3cbb0ab5b4b0d6f135cf0f1e6ea452e9449edaa577457",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_command_stdout_matches_pinned_digest(capsys, monkeypatch, tmp_path,
                                              argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert list(tmp_path.iterdir()) == []
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == STDOUT_SHA256[argv], f"stdout changed: sha256 {got}"


# ---------------------------------------------------------- fuzzed configs

# Values for known keys: numbers of every size and sign, booleans, and
# text that casts to nothing.
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["true", "false", "LP-UP", "relative_to_ex_mean", ""]),
    st.text(max_size=12))
_LINES = st.one_of(
    st.tuples(st.sampled_from(sorted(SETTINGS)), _VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30))


@settings(max_examples=80, deadline=None)
@given(data=st.one_of(
    st.binary(), st.text().map(str.encode),
    st.lists(_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode())))
def test_fuzzed_config_parses_or_is_refused(tmp_path_factory, data):
    # Bytes, so that files that are not UTF-8 are drawn too.
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_bytes(data)
    try:
        parsed = parse_config_file(str(path))
    except ValidationError:
        pass
    else:
        assert isinstance(parsed, dict)
    # No capsys: a fixture shared across examples would keep their output.
    with open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["gamma", "--config", str(path)])
    assert code in (0, 1)


# ------------------------------------------------------------ end to end

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polcascade", "gamma", "--scheme", "3",
         "--delta-cx", "0.2805708466680039"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert_allclose(data["gamma"]["abs"], 0.15507402637173892, atol=1e-6)


@pytest.mark.parametrize("ex_mean", ["3e15", "1e16", "1e18", "1e23"])
def test_sweep_plots_levels_of_any_magnitude(tmp_path, ex_mean):
    # At 3e15 the tick loop never ended once a step fell under half an ulp;
    # from 1e16 a flat level range widened by 1.0 stayed flat, and the plot
    # divided by zero after writing the CSV.
    proc = subprocess.run(
        [sys.executable, "-m", "polcascade", "sweep", "--ex-mean", ex_mean,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["outputs"] == [
        str(tmp_path / "anticrossing.csv"), str(tmp_path / "anticrossing.svg")]


def test_console_script_on_path():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"polcascade": "polcascade.cli:main"}
    module, _, attr = scripts["polcascade"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    # The script itself exists only once the package is installed; a
    # source-tree run (PYTHONPATH=src) has no distribution metadata.
    try:
        importlib.metadata.distribution("polcascade")
    except importlib.metadata.PackageNotFoundError:
        return
    proc = subprocess.run(["polcascade", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("polcascade ")
