"""Robust welfare effects of price changes from cross-sectional demand moments.

Importing the package loads none of its modules (and so no numpy): each
exported name is imported from its module on first use (PEP 562), so a
CLI run loads only the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each module
_EXPORTS = {
    "core": ("Budget", "DomainError", "MomentSurface", "OrderError", "PriceChange", "ShapeError",
             "ShareMomentSurface", "numeric_partial", "quantity_surface_from_shares"),
    "oracle": ("B_STAR", "CobbDouglasPopulation", "L0", "LinearHeteroPopulation",
               "LinearTypeMixture", "OdeConfig", "Q0", "QuantileCounterexamplePopulation",
               "aggregate_expenditure", "counterexample_discrepancy", "cv_constant_income_effect",
               "exact_cv_type", "population_cv", "population_cv_sweep",
               "share_surface_from_population", "surface_from_population"),
    "welfare": ("QuadratureRule", "WelfareReport", "build_report", "chebyshev_bounds",
                "compensated_jacobian_multigood", "compensated_moment_fo",
                "compensated_share_moment", "cv_decompose", "cv_first_order", "cv_mean_multigood",
                "cv_moment_local", "cv_path", "cv_ra", "cv_variance", "hn_bounds_path",
                "price_index", "price_index_decompose", "tax_deadweight"),
    "rationality": ("SupportBox", "degree1_cone_test", "lp_violation_search",
                    "monomial_translation", "translate_polynomial"),
    "estimation": ("BasisSpec", "BootstrapConfig", "Dataset", "FirstStageFit", "MomentFit",
                   "bootstrap", "first_stage", "fit_moment_surface", "fitted_surface"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # wm.oracle keeps working without "import welfare_moments.oracle"
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
