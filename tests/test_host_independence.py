"""Output bytes do not depend on the SIMD level NumPy dispatches to, nor
on the OpenBLAS kernels.

NumPy picks a SIMD implementation of each ufunc at run time from the CPU's
features, and NPY_DISABLE_CPU_FEATURES narrows that choice for one
process.  Some ufuncs round differently from level to level (real log,
arctan and log1p without AVX-512; complex multiply without AVX2), so the
program avoids them on every path that reaches a file.  OpenBLAS, behind
NumPy's matmul, likewise picks its kernels by CPU core type, and
OPENBLAS_CORETYPE forces one: 4x4 complex products of the entanglement
code round differently under Prescott (SSE3) than under Haswell (AVX2).
This test runs `figures --all` and one `sample`, `spectrum`, `sweep` and
`entangle` command each in subprocesses at five levels: the default,
NumPy without AVX-512, NumPy at the X86_V2 baseline, and OpenBLAS forced
to Prescott and to Haswell, and requires the same output bytes and the
same JSON summaries at each.

A level is skipped only when the running NumPy cannot disable its
features, or the host lacks the CPU features the level needs.  What stays
untested: levels above the features of the host that runs the test,
other glibc (libm) versions, other BLAS builds, and non-x86 hosts.
"""
import json
import os
import subprocess
import sys

import pytest

import polcascade

# Each level: the environment it sets, and the CPU features it needs.
LEVELS = {
    "no AVX-512": (
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, ()),
    "X86_V2 baseline": (
        {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
        ()),
    "OpenBLAS Prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, ("SSE3",)),
    "OpenBLAS Haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
}

COMMANDS = (
    ("figures", "--all", "--out-dir", "figures"),
    ("sample", "--scheme", "1", "--seed", "7", "--n", "1000",
     "--out-dir", "sample"),
    ("spectrum", "--scheme", "2", "--out-dir", "spectrum"),
    ("sweep", "--scheme", "2", "--out-dir", "sweep"),
    # Writes no file; its JSON carries the Peres report at full precision.
    ("entangle", "--scheme", "1"),
)

PROBE = """
import json, sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
disabled, needed = sys.argv[1].split(), sys.argv[2].split()
print(json.dumps(all(n in __cpu_dispatch__ and not __cpu_features__[n]
                     for n in disabled)
                 and all(__cpu_features__.get(n) for n in needed)))
"""


def child_env(level_env):
    src = os.path.dirname(os.path.dirname(polcascade.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("OPENBLAS_CORETYPE", None)
    env.update(level_env)
    return env


def run_level(level_env, cwd):
    """The JSON summary of each command and the bytes of every file they
    wrote, run with the level's environment."""
    env = child_env(level_env)
    summaries = []
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "polcascade", *argv],
                              cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        summaries.append(json.loads(proc.stdout))
    files = {}
    for root, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, cwd)] = fh.read()
    return summaries, files


def can_run(level_env, needed):
    """Whether NumPy disables the level's features and the CPU has the
    features it needs."""
    disabled = level_env.get("NPY_DISABLE_CPU_FEATURES", "")
    proc = subprocess.run([sys.executable, "-c", PROBE, disabled,
                           " ".join(needed)],
                          env=child_env(level_env), capture_output=True,
                          text=True, timeout=60)
    return proc.returncode == 0 and json.loads(proc.stdout)


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return run_level({}, tmp_path_factory.mktemp("default"))


@pytest.mark.parametrize("level", list(LEVELS))
def test_outputs_identical_at_every_dispatch_level(level, default_outputs,
                                                   tmp_path):
    level_env, needed = LEVELS[level]
    if not can_run(level_env, needed):
        pytest.skip(f"this host cannot run {level}: {level_env}, "
                    f"needs {needed}")
    summaries, files = run_level(level_env, tmp_path)
    expected_summaries, expected_files = default_outputs
    # 14 figures, counts.csv, spectrum.csv and .svg, and anticrossing.csv
    # and .svg.
    assert len(expected_files) == 19
    assert summaries == expected_summaries
    assert sorted(files) == sorted(expected_files)
    changed = [name for name in files if files[name] != expected_files[name]]
    assert changed == []
