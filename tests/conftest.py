"""Shared fixtures: oracle surfaces, budget samplers, cached exact CV sweeps."""

import numpy as np
import pytest

from welfare_moments import (
    Budget,
    CobbDouglasPopulation,
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
