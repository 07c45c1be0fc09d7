"""Every function the benchmark's span tracer wraps exists in the package.

``perfbench/spans.py`` wraps package functions by name, and
``Tracer.install`` only warns about a target it cannot find, so a rename
would silently drop a per-layer metric.  This test resolves each target as
``install`` does, with ``importlib`` and ``inspect.getattr_static``, and
installs nothing.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    targets = span_targets()
    assert targets
    missing = []
    for _layer, module_name, path, _count in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = inspect.getattr_static(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
    assert missing == []
