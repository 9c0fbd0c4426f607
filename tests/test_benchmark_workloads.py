"""Each benchmark workload's traced pass runs and passes its own checks.

perfbench/workloads.py reaches some package surfaces that nothing else
uses: fig4_sweep(workers=1), the CLI's --workers 1, QuadratureSpec and
the quad arguments.  A change that removes or breaks one of them breaks
every benchmark run; this test fails first.
"""
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ("figures", "fig4", "study"))
def test_traced_pass_runs_and_checks_clean(name, tmp_path):
    workload = load_workloads().WORKLOADS[name](0, ROOT, str(tmp_path))
    operations = workload.traced_pass()
    assert operations
    for i, operation in enumerate(operations):
        assert workload.check(i, operation()) == []
    assert workload.finish() == []
