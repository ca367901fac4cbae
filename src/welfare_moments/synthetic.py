"""Synthetic cross-sections for simulation, round-trip checks, and recovery tests.

Two kinds of generators live here: cross-sections drawn from the oracle
populations (budgets sampled on a region where demand stays strictly
positive, so budget shares are well defined), and a planted
exponential-polynomial share model whose conditional moments are inside
the estimation model class, giving an exact target for plant-and-recover
tests.  With multiplicative mean-preserving noise w = W1(b) (1 + u),
u ~ U(-d, d), the higher share moments remain exponential polynomials:
W2 = W1^2 (1 + d^2/3) and W3 = W1^3 (1 + d^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import quantity_surface_from_shares
from .estimation import BasisSpec, Dataset, _basis_matrix, _sealed, exp_poly_share_surface
from .oracle import CobbDouglasPopulation


# Uniform price and instrument ranges (lo, hi).  The scalar region keeps the
# linear population's demand positive for every type, so shares are in (0, 1).
SCALAR_PRICES, SCALAR_INSTRUMENT = (0.88, 1.08), (3.6, 4.4)
COBB_DOUGLAS_PRICES, COBB_DOUGLAS_INSTRUMENT = (0.7, 1.4), (1.5, 3.0)
PLANTED_PRICES = (0.65, 1.55)
INCOME_NOISE = 0.03  # scale of log income's noise around the instrument
CLIP = 2.5  # a truncated normal draw is clipped at CLIP times its scale


def _truncated_normal(rng, scale, size):
    draw = rng.normal(0.0, scale, size=size)
    return np.clip(draw, -CLIP * scale, CLIP * scale)


def _log_uniform(rng, bounds, size):
    return rng.uniform(np.log(bounds[0]), np.log(bounds[1]), size=size)


def population_cross_section(pop, n, seed, goods=None):
    """Households drawn from an oracle population, one share column per good
    of ``goods``: by default ("q",), or g0..g(k-1) for a Cobb-Douglas mixture."""
    rng = np.random.default_rng(seed)
    if isinstance(pop, CobbDouglasPopulation):
        log_z = _log_uniform(rng, COBB_DOUGLAS_INSTRUMENT, n)
        log_y = log_z + _truncated_normal(rng, INCOME_NOISE, n)
        log_p = _log_uniform(rng, COBB_DOUGLAS_PRICES, (n, pop.k))
        idx = rng.choice(len(pop.types), size=n, p=[prob for _, prob in pop.types])
        shares = np.array([alpha for alpha, _ in pop.types])[idx]
        default = ["g%d" % i for i in range(pop.k)]
    else:
        log_p = _log_uniform(rng, SCALAR_PRICES, n)
        log_z = _log_uniform(rng, SCALAR_INSTRUMENT, n)
        log_y = log_z + _truncated_normal(rng, INCOME_NOISE, n)
        p, y = np.exp(log_p), np.exp(log_y)
        q = pop.draw_quantities(rng, p, y)
        if np.any(q <= 0.0):
            raise ValueError("sampled region produced nonpositive demand; shrink it")
        shares, log_p = (p * q / y)[:, None], log_p[:, None]
        default = ["q"]
    return Dataset(tuple(goods or default), *_sealed(shares, log_p, log_y, log_z))


@dataclass(frozen=True)
class PlantedShareModel:
    """Exponential-polynomial share model with known coefficients.

    The n-th moment's theta is n (alpha, beta[0], ..., gamma), in the order
    of a fit's ``to_dict``, plus the log of the noise law's factor in alpha.
    """

    alpha: float
    beta: tuple              # per good, per power of log price
    gamma: tuple             # per power of log income
    noise: float = 0.10
    goods: tuple = ("q",)

    @property
    def basis(self):
        return BasisSpec(price_degree=len(self.beta[0]),
                         income_degree=len(self.gamma),
                         include_control=False)

    def _noise_factor(self, n):
        d2 = self.noise ** 2
        return {1: 1.0, 2: 1.0 + d2 / 3.0, 3: 1.0 + d2}[n]

    def order_theta(self, n):
        theta = n * np.concatenate([[self.alpha], *self.beta, self.gamma])
        theta[0] += np.log(self._noise_factor(n))
        return theta

    def mean_share(self, log_p, log_y):
        row = _basis_matrix(np.atleast_2d(log_p), np.atleast_1d(log_y), self.basis)
        return np.exp(row @ self.order_theta(1))

    def share_surface(self, max_order=3):
        thetas = {n: self.order_theta(n) for n in range(1, max_order + 1)}
        return exp_poly_share_surface(thetas, self.basis, len(self.beta))

    def moment_surface(self, max_order=3):
        return quantity_surface_from_shares(self.share_surface(max_order))

    def sample(self, n, seed, endogeneity=0.0, income_shock=0.2, z_lo=1.4, z_hi=6.5):
        """Draw a cross-section; endogeneity > 0 routes a shared shock into
        both log expenditure and the share level."""
        rng = np.random.default_rng(seed)
        log_p = _log_uniform(rng, PLANTED_PRICES, (n, len(self.goods)))
        log_z = _log_uniform(rng, (z_lo, z_hi), n)
        if endogeneity:
            shock = _truncated_normal(rng, income_shock, n)
            log_y = log_z + shock
        else:
            shock = np.zeros(n)
            log_y = log_z + _truncated_normal(rng, 0.02, n)
        mean = self.mean_share(log_p, log_y) * np.exp(endogeneity * shock)
        u = rng.uniform(-self.noise, self.noise, size=n)
        w = mean * (1.0 + u)
        if np.any(w <= 0.0) or np.any(w >= 1.0):
            raise ValueError("planted coefficients pushed shares outside (0, 1)")
        return Dataset(self.goods, *_sealed(w.reshape(-1, 1), log_p, log_y, log_z))


def default_planted_model():
    """A planted model whose shares stay inside (0, 1) on the default region."""
    return PlantedShareModel(alpha=np.log(0.30), beta=((-0.35, 0.10, 0.04),),
                             gamma=(-0.18, 0.05, -0.01))
