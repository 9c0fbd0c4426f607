"""The benchmark's tracer wraps package names by (owner, attribute).

perfbench/tracing.py looks every target of its SITES up with getattr when
a traced run starts, so a name removed from the package breaks that run.
This test fails first.  An import that only such a site needs is the one
unused import a module may keep.
"""
import ast
import importlib.util
import inspect
import os
import sys

from polcascade import cascade, experiments, model, pairstate

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


def imported_names(tree):
    """Every name an import binds in a module, except __future__ flags."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).partition(".")[0]
                        for alias in node.names)


def test_every_import_is_used_or_traced():
    tracing = load_tracing()
    traced = {(owner.__name__, attr) for site in tracing.SITES
              for owner, attr in site.targets if inspect.ismodule(owner)}
    package = os.path.join(ROOT, "src", "polcascade")
    unused = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        module = f"polcascade.{filename[:-3]}"
        with open(os.path.join(package, filename)) as fh:
            tree = ast.parse(fh.read())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{module}.{name}" for name in imported_names(tree)
                   if name not in used and (module, name) not in traced]
    assert not unused, unused


def test_windowed_overlap_reaches_the_traced_overlap_box_once(monkeypatch):
    # The benchmark's pairstate.overlap_box span wraps _overlap_box on the
    # pairstate module, so windowed_overlap must look it up there.
    calls = []
    overlap_box = pairstate._overlap_box

    def counted(*args):
        calls.append(args)
        return overlap_box(*args)

    monkeypatch.setattr(pairstate, "_overlap_box", counted)
    params = model.scheme_preset(1)
    a, b = pairstate.pairing_channels(cascade.enumerate_channels(params),
                                      "LP-LP")
    w = experiments.tracked_window(params, "LP-LP")
    value = pairstate.windowed_overlap(a, b, w)
    assert len(calls) == 1
    assert value == overlap_box(*calls[0])
