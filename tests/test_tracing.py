"""The traced benchmark (perfbench/tracing.py) wraps library functions at the
names their callers bind. Each of those names must exist, and removing the
tracer must give each name its original object back."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound(owner_name, attr):
    """The object at a binding, read as Tracer.install reads it."""
    module_name, _, member = owner_name.partition(".")
    owner = importlib.import_module(f"rulescreen.{module_name}")
    if member:
        owner = getattr(owner, member)
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_wraps_every_binding_and_restores_it():
    tracing = load_tracing()
    bindings = [binding for _, names in tracing.BINDINGS for binding in names]
    originals = {binding: bound(*binding) for binding in bindings}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for binding in bindings:
            assert bound(*binding) is not originals[binding], binding
    finally:
        tracer.uninstall()
    for binding in bindings:
        assert bound(*binding) is originals[binding], binding
