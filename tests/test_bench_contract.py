"""The benchmark's calls into the library must keep working.

``bench/tracer.py`` replaces each function in its ``TARGETS`` list (and
the oracle's RK4 integrator) by name before a traced op starts; a name
that no longer resolves makes every ``--trace 1`` op fail.  The reference
builder and the bootstrap op call the library directly, so a changed
signature fails them; each runs here on a few inputs.
"""

import functools
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import welfare_moments as wm

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, which import each other by bare name."""
    monkeypatch.syspath_prepend(str(BENCH))
    return SimpleNamespace(**{name: importlib.import_module(name) for name in
                              ("checks", "make_references", "bootstrap_op")})


@pytest.mark.parametrize("pop,dps", [("L0", ("-0.300", "0.050")), ("Q0", ("-0.2000", "0.1000"))])
def test_reference_builder_reproduces_the_stored_references(bench, pop, dps):
    checks = bench.checks
    stored = checks.load_strict(BENCH / "references.json")[pop]
    table = bench.make_references.table(getattr(wm, pop), dps, exact=True)
    for i, dp in enumerate(dps):
        row = stored["dp"].index(dp)
        for name, values in table["fields"].items():
            ref = stored["fields"][name][row]
            assert abs(values[i] - ref) <= checks.REL_TOL[pop] * abs(ref) + 1e-15, name
        # the dp of the checker's own L0 closed form, as it computes it
        want = (checks.l0_exact_cv(checks.P0, checks.Y0, (checks.P0 + float(dp)) - checks.P0)
                if pop == "L0" else stored["exact"][row])
        assert abs(table["exact"][i] - want) <= checks.EXACT_TOL


def test_bootstrap_op_writes_an_ordered_interval(bench, tmp_path):
    argv = ["--n", "600", "--seed", "5", "--reps", "5", "--p0", "0.98", "--p1", "1.01",
            "--y", "4.0", "--out", str(tmp_path)]
    assert bench.bootstrap_op.main(argv) == 0
    result = bench.checks.load_strict(tmp_path / "result.json")
    assert result["lower"] <= result["point"] <= result["upper"]
    assert result["replicates"] == 5 and result["failed"] == 0


@pytest.mark.parametrize("n,reps,want", [
    (5000, 20, (0.04565618313027868, 0.044550770266518325, 0.04640748789534735)),
    (20000, 10, (0.045623767512021, 0.044943451870895, 0.04587934358918672)),
], ids=["one row block", "several row blocks"])
def test_bootstrap_op_keeps_its_statistic_and_interval(bench, tmp_path, n, reps, want):
    # the values of the whole-array factor that the row-block one replaced; a
    # fit on a resample that predicted sqrt(count) x theta, not x theta, still
    # wrote finite numbers but moved the survey's lower bound from 0.0449 to
    # 0.0573
    argv = ["--n", str(n), "--seed", "7", "--reps", str(reps), "--p0", "0.98",
            "--p1", "1.01", "--y", "4.0", "--out", str(tmp_path)]
    assert bench.bootstrap_op.main(argv) == 0
    result = bench.checks.load_strict(tmp_path / "result.json")
    got = (result["point"], result["lower"], result["upper"])
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)
    assert result["failed"] == 0
