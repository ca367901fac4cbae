"""Every name the benchmark's span tracer wraps must exist on the package.

``bench/tracer.py`` replaces each function in its ``TARGETS`` list (and
the oracle's RK4 integrator) by name before a traced op starts; a name
that no longer resolves makes every ``--trace 1`` op fail.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TARGETS]


TARGETS = _tracer_targets() + [("welfare_moments.oracle", "_rk4_scalar_family")]


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=["%s.%s" % t for t in TARGETS])
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    target = functools.reduce(getattr, attr.split("."), module)
    assert callable(target)
