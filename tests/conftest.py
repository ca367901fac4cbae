"""Shared fixtures: oracle surfaces, budget samplers, cached exact CV sweeps,
and scalar reference formulas."""

import math
import tracemalloc

import numpy as np
import pytest

from welfare_moments import (
    Budget,
    CobbDouglasPopulation,
    DomainError,
    L0,
    PriceChange,
    Q0,
    population_cv_sweep,
    surface_from_population,
)

# Budgets where the linear and quantile populations are observationally
# equivalent (income below 3).
EQUIV_P = (0.8, 1.2)
EQUIV_Y = (1.6, 2.6)

# Budgets where every linear-population type satisfies pointwise Slutsky
# negativity (income effects at most 2/3 require 1 - p + 2y/3 <= 3/2).
RATIONAL_P = (0.85, 1.2)
RATIONAL_Y = (1.6, 1.9)

SWEEP_DPS = (0.01, 0.02, 0.04, 0.08, 0.16)


def random_budgets(rng, count, p_range, y_range, k=1):
    out = []
    for _ in range(count):
        prices = tuple(rng.uniform(*p_range) for _ in range(k))
        out.append(Budget(prices, rng.uniform(*y_range)))
    return out


@pytest.fixture(scope="session")
def l0_surface():
    return surface_from_population(L0, 6)


@pytest.fixture(scope="session")
def q0_surface():
    return surface_from_population(Q0, 6)


@pytest.fixture(scope="session")
def cd2_surface():
    return surface_from_population(CobbDouglasPopulation.two_type(0.3), 6)


def _exact_means(dps):
    """Exact mean CV of the linear population at income 2, one sweep over dps."""
    pcs = [PriceChange.scalar(1.0, 1.0 + dp, 2.0) for dp in dps]
    return {dp: res.mean for dp, res in zip(dps, population_cv_sweep(L0, pcs))}


@pytest.fixture(scope="session")
def l0_exact_sweep():
    """Exact mean CV of the linear population over the error-slope sweep."""
    return _exact_means(SWEEP_DPS)


@pytest.fixture(scope="session")
def l0_containment_grid():
    """Exact mean CV on the wide price-change grid used for bound containment."""
    return _exact_means((0.05, 0.1, 0.15, 0.2, 0.25, 0.3))


def loglog_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def constant_batch(moments, d_price=0.0, d_income=0.0):
    """``batch_fn`` of a surface whose values do not depend on the budget.

    ``moments`` lists the moment of orders 1, 2, ...; each partial takes
    one value at every order.
    """
    def batch(prices, incomes, orders):
        shape = (orders, len(incomes))
        m = np.broadcast_to(np.asarray(moments, dtype=float)[:orders, None], shape)
        return m, np.full(shape, float(d_price)), np.full(shape, float(d_income))

    return batch


def path_budget_reference(pc, t):
    """Budget on the linear price path p(t) = p0 + t * delta, one node at a time."""
    delta = np.asarray(pc.end.prices) - np.asarray(pc.start.prices)
    p = np.asarray(pc.start.prices) + t * delta
    if np.any(p <= 0.0):
        raise DomainError("price path leaves the positive domain at t=%g" % t)
    return Budget(tuple(p), pc.income)


def cobb_douglas_cv_mean(pop, pc):
    """Exact mean CV of a Cobb-Douglas mixture, y (prod (p1/p0)^alpha - 1) per
    type, in the expm1/log1p form, which does not cancel for small changes."""
    logs = np.log1p(pc.delta / np.asarray(pc.start.prices))
    return sum(prob * pc.income * math.expm1(float(np.dot(alpha, logs)))
               for alpha, prob in pop.types)


def traced(call):
    """(bytes that ``call`` leaves allocated, its peak above that), as
    tracemalloc sees them: numpy's arrays, not LAPACK's own buffers."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, peak - after
