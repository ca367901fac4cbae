"""What importing the package and running each subcommand loads.

``import welfare_moments`` loads no submodule and no numpy; every exported
name resolves on first use to the object of its home module, and a CLI
process loads only the modules its subcommand runs.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import welfare_moments as wm
from welfare_moments.cli import main

# every name the package exported when its __init__ imported all modules
EXPORTS = {
    "core": ("Budget", "DomainError", "MomentSurface", "OrderError", "PriceChange",
             "ShapeError", "ShareMomentSurface", "numeric_partial",
             "quantity_surface_from_shares"),
    "oracle": ("B_STAR", "CobbDouglasPopulation", "L0", "LinearHeteroPopulation",
               "LinearTypeMixture", "OdeConfig", "Q0", "QuantileCounterexamplePopulation",
               "aggregate_expenditure", "counterexample_discrepancy",
               "cv_constant_income_effect", "exact_cv_type", "population_cv",
               "population_cv_sweep",
               "share_surface_from_population", "surface_from_population"),
    "welfare": ("QuadratureRule", "WelfareReport", "build_report",
                "chebyshev_bounds", "compensated_jacobian_multigood", "compensated_moment_fo",
                "compensated_share_moment", "cv_decompose", "cv_first_order",
                "cv_mean_multigood", "cv_moment_local", "cv_path", "cv_ra", "cv_variance",
                "hn_bounds_path", "price_index", "price_index_decompose", "tax_deadweight"),
    "rationality": ("SupportBox", "degree1_cone_test",
                    "lp_violation_search", "monomial_translation", "translate_polynomial"),
    "estimation": ("BasisSpec", "BootstrapConfig", "Dataset", "FirstStageFit", "MomentFit",
                   "bootstrap", "first_stage", "fit_moment_surface", "fitted_surface"),
}


@pytest.mark.parametrize("module, names", EXPORTS.items())
def test_every_export_resolves_to_its_home_object(monkeypatch, module, names):
    home = importlib.import_module("welfare_moments." + module)
    for name in names:
        # drop a value cached by an earlier read, so each read runs the lazy lookup
        monkeypatch.delitem(vars(wm), name, raising=False)
        assert getattr(wm, name) is getattr(home, name)
        monkeypatch.delitem(vars(wm), name)
        scope = {}
        exec("from welfare_moments import " + name, scope)
        assert scope[name] is getattr(home, name)
        assert name in dir(wm)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wm.no_such_name
    with pytest.raises(ImportError):
        exec("from welfare_moments import no_such_name", {})


def test_submodules_import_through_the_package():
    from welfare_moments import cli, estimation

    assert estimation is sys.modules["welfare_moments.estimation"]
    assert cli is sys.modules["welfare_moments.cli"]
    assert wm.oracle is sys.modules["welfare_moments.oracle"]


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package;
    returns the JSON it prints."""
    src = os.path.dirname(os.path.dirname(wm.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('welfare_moments'))"


def test_importing_the_package_loads_no_module_and_no_numpy():
    loaded, numpy = _python("import json, sys, welfare_moments; "
                            "print(json.dumps([%s, 'numpy' in sys.modules]))" % LOADED)
    assert loaded == ["welfare_moments"]
    assert not numpy


@pytest.fixture(scope="module")
def draws(tmp_path_factory):
    out = tmp_path_factory.mktemp("draws")
    assert main(["simulate", "--population", "L0", "--n", "400", "--seed", "3",
                 "--out", str(out)]) == 0
    return str(out / "draws.csv")


@pytest.mark.parametrize("argv, modules", [
    (["oracle-check", "--dp", "0.05"], "core oracle welfare"),
    (["welfare", "--population", "Q0"], "core oracle welfare"),
    (["rationality", "--population", "CD2(0.3)"], "core oracle rationality"),
    (["rationality", "--data", "DATA", "--y-grid", "4"], "core estimation rationality"),
    (["estimate", "--data", "DATA"], "core estimation"),
    (["welfare", "--data", "DATA", "--y", "4"], "core estimation welfare"),
    (["simulate", "--population", "L0", "--n", "10", "--seed", "1"],
     "core estimation oracle synthetic"),
    (["simulate", "--population", "CD2(0.3)", "--n", "10", "--seed", "1"],
     "core estimation oracle synthetic"),
])
def test_each_command_loads_only_its_modules(tmp_path, draws, argv, modules):
    argv = [draws if arg == "DATA" else arg for arg in argv] + ["--out", str(tmp_path)]
    code, loaded = _python("import json, sys; from welfare_moments.cli import main; "
                           "code = main(sys.argv[1:]); print(json.dumps([code, %s]))" % LOADED,
                           *argv)
    assert code == 0
    assert loaded == sorted(["welfare_moments", "welfare_moments.cli"]
                            + ["welfare_moments." + m for m in modules.split()])


def test_welfare_settings_check_loads_no_welfare_module():
    # the check reads the income-effect bounds from core, and welfare loads
    # its formulas after the fit, so they are not resident at its peak
    loaded = _python("import json, sys; from welfare_moments.cli import RunConfig, "
                     "_check_settings; _check_settings('welfare', RunConfig("
                     "population='L0', b_hi=0.5, z=0.1, k=0.2)); print(json.dumps(%s))" % LOADED)
    assert "welfare_moments.cli" in loaded and "welfare_moments.welfare" not in loaded


def test_commands_load_no_openssl(tmp_path, draws):
    # config_hash is taken by the interpreter's own SHA-256: hashlib would
    # load OpenSSL's _hashlib.  numpy 1.x loads it through numpy.random at
    # import, so the package is held to what numpy loaded before it.
    codes, before, after = _python(
        "import json, sys; import numpy; before = '_hashlib' in sys.modules; "
        "from welfare_moments.cli import main; data, out = sys.argv[1:]; "
        "codes = [main(['oracle-check', '--population', 'L0', '--out', out + '/o']), "
        "main(['estimate', '--data', data, '--out', out + '/e'])]; "
        "print(json.dumps([codes, before, '_hashlib' in sys.modules]))", draws, str(tmp_path))
    assert codes == [0, 0]
    assert after == before
