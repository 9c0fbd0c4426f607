"""The benchmark's tracer wraps package names by (owner, attribute).

perfbench/tracing.py looks every target of its SITES up with getattr when
a traced run starts, so a name removed from the package breaks that run.
This test fails first.
"""
import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = load_tracing()
    missing = [f"{site.name}: {getattr(owner, '__name__', owner)}.{attr}"
               for site in tracing.SITES for owner, attr in site.targets
               if not hasattr(owner, attr)]
    assert tracing.SITES
    assert not missing, missing
