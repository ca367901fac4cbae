"""Analytic synthetic populations with exact moments and exact compensating variation.

Populations here serve as ground truth for the approximation formulas in
:mod:`welfare_moments.welfare`: their conditional moments have closed
forms (or machine-precision quadrature), their income effects are known
analytically, and the exact welfare effect of a price change is computed
per type by integrating the compensation ODE

    ds/dt = q(p(t), y + s(t)) . dp/dt,   s(0) = 0,

whose value at t = 1 is the compensating variation for that type along
the linear price path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Budget,
    DomainError,
    MomentSurface,
    MultigoodMoments,
    OrderError,
    ShapeError,
    ShareMomentSurface,
)


class NumericError(RuntimeError):
    """A quadrature or ODE routine failed to reach its tolerance."""


@lru_cache(maxsize=32)
def _leggauss01(n):
    """Gauss-Legendre nodes/weights on [0, 1]; weights sum to one."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _segment_nodes(lo, hi, n=64):
    x, w = _leggauss01(n)
    return lo + (hi - lo) * x, (hi - lo) * w


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step classical RK4 configuration for the compensation ODE."""

    steps: int = 1024

    def __post_init__(self):
        if self.steps < 16:
            raise ValueError("need at least 16 integration steps")


DEFAULT_ODE = OdeConfig()


@dataclass(frozen=True)
class DemandClosure:
    """A per-type demand map (p, y) -> quantity vector, with optional d/dy."""

    fn: object
    d_income: object = None

    def __call__(self, p, y):
        return self.fn(p, y)


@dataclass(frozen=True)
class PopulationCv:
    """Moments of the distribution of compensating variation across types."""

    mean: float
    variance: float
    raw_moments: tuple


def _rk4_scalar_family(drift, y0, steps):
    """Integrate ds/dt = drift(t, y0 + s) for a family of types at once.

    ``drift(t, y_arr)`` must return the array of per-type derivatives;
    it raises DomainError when any compensated income turns nonpositive.
    """
    s = np.zeros_like(y0, dtype=float)
    h = 1.0 / steps
    for i in range(steps):
        t = i * h
        k1 = drift(t, y0 + s)
        k2 = drift(t + h / 2.0, y0 + s + (h / 2.0) * k1)
        k3 = drift(t + h / 2.0, y0 + s + (h / 2.0) * k2)
        k4 = drift(t + h, y0 + s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def _guard_income(y_arr, t, pcs, owner):
    """Raise DomainError if a compensated income is nonpositive.

    ``owner[i]`` indexes the price change in ``pcs`` that family element
    ``i`` belongs to; the message names the first offending one.
    """
    bad = y_arr <= 0.0
    if np.any(bad):
        pc = pcs[owner[np.argmax(bad)]]
        dp = ", ".join("%g" % d for d in pc.delta)
        raise DomainError("compensated income left the positive domain at t=%.6f "
                          "for the price change dp=%s at income %g" % (t, dp, pc.income))


def _own_price_paths(pcs, sizes):
    """Start price and price step of good 0 for each family element."""
    p0 = np.repeat([pc.start.prices[0] for pc in pcs], sizes)
    dp = np.repeat([pc.delta[0] for pc in pcs], sizes)
    return p0, dp


class LinearHeteroPopulation:
    """Heterogeneous linear demand q = intercept - slope*p + effect*y.

    The intercept is uniform on [a0, a1]; the income effect takes finitely
    many values with given probabilities.  All moments and their partials
    have closed polynomial forms.
    """

    def __init__(self, intercept_lo=0.0, intercept_hi=1.0, price_slope=1.0,
                 income_effects=((1.0 / 3.0, 0.5), (2.0 / 3.0, 0.5))):
        if intercept_hi <= intercept_lo:
            raise ValueError("intercept bounds must satisfy lo < hi")
        probs = sum(p for _, p in income_effects)
        if abs(probs - 1.0) > 1e-12 or any(p < 0 for _, p in income_effects):
            raise ValueError("income effect probabilities must be nonnegative and sum to 1")
        self.a0 = float(intercept_lo)
        self.a1 = float(intercept_hi)
        self.beta = float(price_slope)
        self.effects = tuple((float(a), float(p)) for a, p in income_effects)

    def _shift(self, a, b):
        return -self.beta * b.price(0) + a * b.income

    def _uniform_power_mean(self, c, m):
        # E[(u + c)^m] for u ~ U(a0, a1)
        if m == 0:
            return 1.0
        hi, lo = self.a1 + c, self.a0 + c
        return (hi ** (m + 1) - lo ** (m + 1)) / ((m + 1) * (self.a1 - self.a0))

    def moment(self, n, b):
        return sum(p * self._uniform_power_mean(self._shift(a, b), n)
                   for a, p in self.effects)

    def d_price_moment(self, n, b, j=0):
        if j != 0:
            return 0.0
        if n == 1:
            return -self.beta
        return -self.beta * n * self.moment(n - 1, b)

    def income_effect_moment(self, n, b):
        # E[q^(n-1) dq/dy]
        return sum(p * a * self._uniform_power_mean(self._shift(a, b), n - 1)
                   for a, p in self.effects)

    def income_effect_power(self, n, b):
        # E[q (dq/dy)^n]
        return sum(p * a ** n * self._uniform_power_mean(self._shift(a, b), 1)
                   for a, p in self.effects)

    def support(self, b):
        shifts = [self._shift(a, b) for a, _ in self.effects]
        return self.a0 + min(shifts), self.a1 + max(shifts)

    def type_demand(self, intercept, effect, p, y):
        return intercept - self.beta * p + effect * y

    def cv_nodes(self, n_nodes=64):
        u, w = _segment_nodes(self.a0, self.a1, n_nodes)
        omegas, effs, weights = [], [], []
        for a, pr in self.effects:
            omegas.append(u)
            effs.append(np.full_like(u, a))
            weights.append(pr * w / (self.a1 - self.a0))
        return np.concatenate(omegas), np.concatenate(effs), np.concatenate(weights)

    def cv_family(self, pcs, n_nodes=64):
        om, ef, w = self.cv_nodes(n_nodes)
        sizes = [len(w)] * len(pcs)
        om, ef = np.tile(om, len(pcs)), np.tile(ef, len(pcs))
        p0, dp = _own_price_paths(pcs, sizes)

        def rate(t, y_arr):
            return (om - self.beta * (p0 + t * dp) + ef * y_arr) * dp

        return rate, np.tile(w, len(pcs)), sizes

    def draw_quantities(self, rng, p_arr, y_arr):
        n = len(p_arr)
        om = rng.uniform(self.a0, self.a1, size=n)
        vals = np.array([a for a, _ in self.effects])
        probs = np.array([p for _, p in self.effects])
        ef = rng.choice(vals, size=n, p=probs)
        return om - self.beta * np.asarray(p_arr) + ef * np.asarray(y_arr)


class QuantileCounterexamplePopulation:
    """Piecewise-linear quantile demand observationally equivalent to the
    heterogeneous linear population for incomes below 3, yet with a
    different distribution of income effects."""

    def demand(self, omega, p, y):
        omega = np.asarray(omega, dtype=float)
        p = np.asarray(p, dtype=float)
        y = np.asarray(y, dtype=float)
        low = np.where(y < 6.0 * omega, y / 2.0 + omega, y / 3.0 + 2.0 * omega)
        high = np.where(y < 6.0 * (1.0 - omega), y / 2.0 + omega,
                        2.0 * y / 3.0 + 2.0 * omega - 1.0)
        return -p + np.where(omega <= 0.5, low, high)

    def d_income(self, omega, y):
        omega = np.asarray(omega, dtype=float)
        y = np.asarray(y, dtype=float)
        low = np.where(y < 6.0 * omega, 0.5, 1.0 / 3.0)
        high = np.where(y < 6.0 * (1.0 - omega), 0.5, 2.0 / 3.0)
        return np.where(omega <= 0.5, low, high)

    def _segments(self, y):
        t1 = min(max(y / 6.0, 0.0), 0.5)
        t2 = max(min(1.0 - y / 6.0, 1.0), 0.5)
        cuts = [0.0, t1, 0.5, t2, 1.0]
        return [(cuts[i], cuts[i + 1]) for i in range(4) if cuts[i + 1] > cuts[i] + 1e-15]

    def _nodes(self, y, n_nodes=64):
        """Gauss-Legendre nodes and weights at income y, one row per segment."""
        seg = np.array(self._segments(y))
        x, w = _leggauss01(n_nodes)
        width = (seg[:, 1] - seg[:, 0])[:, None]
        return seg[:, :1] + width * x, width * w

    def _integrate(self, f, b, n_nodes=64):
        x, weights = self._nodes(b.income, n_nodes)
        vals = f(x.ravel()).reshape(x.shape)
        total = 0.0
        for w, v in zip(weights, vals):
            total += float(np.dot(w, v))
        return total

    def moment(self, n, b):
        p, y = b.price(0), b.income
        return self._integrate(lambda om: self.demand(om, p, y) ** n, b)

    def d_price_moment(self, n, b, j=0):
        # every type has dq/dp = -1, so d/dp E[q^n] = -n E[q^(n-1)]
        if j != 0:
            return 0.0
        if n == 1:
            return -1.0
        return -n * self.moment(n - 1, b)

    def income_effect_moment(self, n, b):
        p, y = b.price(0), b.income
        return self._integrate(
            lambda om: self.demand(om, p, y) ** (n - 1) * self.d_income(om, y), b)

    def income_effect_power(self, n, b):
        p, y = b.price(0), b.income
        return self._integrate(
            lambda om: self.demand(om, p, y) * self.d_income(om, y) ** n, b)

    def support(self, b):
        p, y = b.price(0), b.income
        pts = sorted({lo for lo, _ in self._segments(y)} | {1.0, 0.5})
        vals = self.demand(np.array(pts), p, y)
        return float(np.min(vals)), float(np.max(vals))

    def cv_family(self, pcs, n_nodes=64):
        nodes = [self._nodes(pc.income, n_nodes) for pc in pcs]
        om = np.concatenate([x.ravel() for x, _ in nodes])
        w = np.concatenate([w.ravel() for _, w in nodes])
        sizes = [x.size for x, _ in nodes]
        p0, dp = _own_price_paths(pcs, sizes)

        def rate(t, y_arr):
            return self.demand(om, p0 + t * dp, y_arr) * dp

        return rate, w, sizes

    def draw_quantities(self, rng, p_arr, y_arr):
        om = rng.uniform(0.0, 1.0, size=len(p_arr))
        return self.demand(om, np.asarray(p_arr), np.asarray(y_arr))


class CobbDouglasPopulation:
    """Finite mixture of Cobb-Douglas consumers over k goods.

    Each type has an expenditure share vector alpha (positive, summing to
    one) and demands q_i = alpha_i * y / p_i; its expenditure function is
    e(p, u) = u * prod(p_i ** alpha_i) with the normalization constant
    absorbed into u.
    """

    def __init__(self, types):
        total = 0.0
        cleaned = []
        for alpha, prob in types:
            alpha = tuple(float(a) for a in alpha)
            if any(a < 0.0 for a in alpha) or abs(sum(alpha) - 1.0) > 1e-12:
                raise ValueError("share vectors must be nonnegative and sum to 1")
            cleaned.append((alpha, float(prob)))
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValueError("type probabilities must sum to 1")
        self.types = tuple(cleaned)
        self.k = len(cleaned[0][0])
        if any(len(alpha) != self.k for alpha, _ in cleaned):
            raise ValueError("all share vectors must have equal length")

    @classmethod
    def single(cls, alpha):
        return cls([((alpha, 1.0 - alpha), 1.0)])

    @classmethod
    def two_type(cls, alpha):
        return cls([((alpha, 1.0 - alpha), 0.5), ((1.0 - alpha, alpha), 0.5)])

    def share_power_mean(self, n, good):
        return sum(prob * alpha[good] ** n for alpha, prob in self.types)

    def moment(self, n, b, good=0):
        return self.share_power_mean(n, good) * (b.income / b.price(good)) ** n

    def d_price_moment(self, n, b, j=0, good=0):
        if j != good:
            return 0.0
        return -n * self.moment(n, b, good) / b.price(good)

    def income_effect_moment(self, n, b, good=0):
        return self.moment(n, b, good) / b.income

    def income_effect_power(self, n, b, good=0):
        y, p = b.income, b.price(good)
        return sum(prob * (alpha[good] * y / p) * (alpha[good] / p) ** n
                   for alpha, prob in self.types)

    def support(self, b, good=0):
        vals = [alpha[good] * b.income / b.price(good) for alpha, _ in self.types]
        return min(vals), max(vals)

    def mean_shares(self):
        return np.array([sum(prob * alpha[i] for alpha, prob in self.types)
                         for i in range(self.k)])

    def cross_share_matrix(self):
        out = np.zeros((self.k, self.k))
        for alpha, prob in self.types:
            a = np.asarray(alpha)
            out += prob * np.outer(a, a)
        return out

    def expenditure(self, alpha, prices, u):
        prices = np.asarray(prices, dtype=float)
        if np.any(prices <= 0.0):
            raise DomainError("prices must be strictly positive")
        return u * float(np.prod(prices ** np.asarray(alpha)))

    def exact_cv_mean(self, pc):
        p0 = np.asarray(pc.start.prices)
        p1 = np.asarray(pc.end.prices)
        y = pc.income
        return sum(prob * y * (float(np.prod((p1 / p0) ** np.asarray(alpha))) - 1.0)
                   for alpha, prob in self.types)

    def cv_family(self, pcs, n_nodes=None):
        alphas = np.array([alpha for alpha, _ in self.types])
        w = np.array([prob for _, prob in self.types])
        paths = [(np.asarray(pc.start.prices), pc.delta) for pc in pcs]

        def rate(t, y_arr):
            # sum_i alpha_i * y / p_i * dp_i, per type.  One product per price
            # change: a single stacked product sums in another order.
            return y_arr * np.concatenate([alphas @ (dp / (p0 + t * dp))
                                           for p0, dp in paths])

        return rate, np.tile(w, len(pcs)), [len(w)] * len(pcs)

    def draw_quantities(self, rng, p_arr, y_arr, good=0):
        probs = np.array([prob for _, prob in self.types])
        idx = rng.choice(len(self.types), size=len(p_arr), p=probs)
        shares = np.array([alpha[good] for alpha, _ in self.types])[idx]
        return shares * np.asarray(y_arr) / np.asarray(p_arr)


class LinearTypeMixture:
    """Finite mixture of affine demand types q = c + g_p * p + g_y * y.

    Used to build fully analytic fixtures: degenerate consumers,
    quasi-linear consumers, additive-heterogeneity models, and planted
    violators of Slutsky negativity.
    """

    def __init__(self, types):
        total = sum(m for m, *_ in types)
        if abs(total - 1.0) > 1e-12:
            raise ValueError("type masses must sum to 1")
        self.types = tuple((float(m), float(c), float(gp), float(gy))
                           for m, c, gp, gy in types)

    def type_quantities(self, b):
        p, y = b.price(0), b.income
        return np.array([c + gp * p + gy * y for _, c, gp, gy in self.types])

    def moment(self, n, b):
        q = self.type_quantities(b)
        m = np.array([t[0] for t in self.types])
        return float(np.dot(m, q ** n))

    def d_price_moment(self, n, b, j=0):
        if j != 0:
            return 0.0
        q = self.type_quantities(b)
        m = np.array([t[0] for t in self.types])
        gp = np.array([t[2] for t in self.types])
        return float(n * np.dot(m, q ** (n - 1) * gp))

    def income_effect_moment(self, n, b):
        q = self.type_quantities(b)
        m = np.array([t[0] for t in self.types])
        gy = np.array([t[3] for t in self.types])
        return float(np.dot(m, q ** (n - 1) * gy))

    def income_effect_power(self, n, b):
        q = self.type_quantities(b)
        m = np.array([t[0] for t in self.types])
        gy = np.array([t[3] for t in self.types])
        return float(np.dot(m, q * gy ** n))

    def support(self, b):
        q = self.type_quantities(b)
        return float(np.min(q)), float(np.max(q))

    def cv_family(self, pcs, n_nodes=None):
        m, c, gp, gy = (np.tile([t[i] for t in self.types], len(pcs)) for i in range(4))
        sizes = [len(self.types)] * len(pcs)
        p0, dp = _own_price_paths(pcs, sizes)

        def rate(t, y_arr):
            return (c + gp * (p0 + t * dp) + gy * y_arr) * dp

        return rate, m, sizes


# Canonical fixtures: the two observationally equivalent populations and
# the budget at which their closed forms are printed.
L0 = LinearHeteroPopulation()
Q0 = QuantileCounterexamplePopulation()
B_STAR = Budget((1.0,), 2.0)


def exact_moment(pop, n, b, good=0):
    """n-th conditional moment of demand under a synthetic population."""
    if n < 1:
        raise OrderError("moment order must be >= 1")
    if isinstance(pop, CobbDouglasPopulation):
        return float(pop.moment(n, b, good))
    return float(pop.moment(n, b))


def income_effect_moment(pop, n, b, good=0):
    """E[q^(n-1) dq/dy]; equals (1/n) d/dy of the n-th moment."""
    if n < 1:
        raise OrderError("moment order must be >= 1")
    if isinstance(pop, CobbDouglasPopulation):
        return float(pop.income_effect_moment(n, b, good))
    return float(pop.income_effect_moment(n, b))


def counterexample_discrepancy(n, b=B_STAR):
    """E[q (dq/dy)^n] under the linear and the quantile population.

    The two populations generate identical conditional demand
    distributions for incomes below 3, and the two values coincide at
    n = 1; for n >= 2 they differ, so this functional is not identified
    from cross-sectional data.
    """
    return float(L0.income_effect_power(n, b)), float(Q0.income_effect_power(n, b))


def exact_cv_type(demand, pc, cfg=None):
    """Compensating variation of one consumer type by RK4 on the compensation ODE.

    ``demand`` is a DemandClosure or callable (prices array, income) ->
    quantity vector; the price path is linear.  Raises DomainError with
    the exit time if compensated income turns nonpositive.
    """
    cfg = cfg or DEFAULT_ODE
    fn = demand.fn if isinstance(demand, DemandClosure) else demand
    p0 = np.asarray(pc.start.prices)
    dp = pc.delta

    def drift(t, y_arr):
        _guard_income(y_arr, t, (pc,), (0,))
        q = np.atleast_1d(np.asarray(fn(p0 + t * dp, float(y_arr[0])), dtype=float))
        return np.array([float(np.dot(q, dp))])

    s = _rk4_scalar_family(drift, np.array([pc.income]), cfg.steps)
    return float(s[0])


def cv_constant_income_effect(demand, a, pc, n_nodes=64):
    """Closed-form CV for a type with constant income effect.

    Solves the linearized compensation ODE explicitly:
    s(1) = int_0^1 exp(a dp (1 - t)) q(p(t), y) . dp dt, evaluated by
    Gauss-Legendre quadrature at base income.
    """
    fn = demand.fn if isinstance(demand, DemandClosure) else demand
    p0 = np.asarray(pc.start.prices)
    dp = pc.delta
    y = pc.income
    rate = float(np.dot(np.atleast_1d(a), dp))
    x, w = _leggauss01(n_nodes)
    total = 0.0
    for t, wt in zip(x, w):
        q = np.atleast_1d(np.asarray(fn(p0 + t * dp, y), dtype=float))
        total += wt * np.exp(rate * (1.0 - t)) * float(np.dot(q, dp))
    return float(total)


def population_cv_sweep(pop, pcs, cfg=None, n_nodes=64):
    """Exact CV-distribution moments for each price change, from one RK4 family.

    Every (price change, type node) pair is one element of the family.
    ``pop.cv_family(pcs, n_nodes)`` returns the per-element right side
    ``rate(t, y)`` of the compensation ODE, the quadrature weight of every
    element, and the number of elements of each price change.  Each price
    change's moments come from its own slice of the result.  Returns one
    :class:`PopulationCv` per price change, in order.
    """
    cfg = cfg or DEFAULT_ODE
    pcs = tuple(pcs)
    if not pcs:
        return []
    rate, w, sizes = pop.cv_family(pcs, n_nodes)
    owner = np.repeat(np.arange(len(pcs)), sizes)
    y0 = np.array([pc.income for pc in pcs])[owner]

    def drift(t, y_arr):
        _guard_income(y_arr, t, pcs, owner)
        return rate(t, y_arr)

    s_all = _rk4_scalar_family(drift, y0, cfg.steps)
    out = []
    for hi, size in zip(np.cumsum(sizes), sizes):
        wi, s = w[hi - size:hi], s_all[hi - size:hi]
        mean = float(np.dot(wi, s))
        variance = float(np.dot(wi, (s - mean) ** 2))
        raw = tuple(float(np.dot(wi, s ** m)) for m in range(1, 5))
        out.append(PopulationCv(mean=mean, variance=variance, raw_moments=raw))
    return out


def population_cv(pop, pc, cfg=None, n_nodes=64):
    """Exact moments of the CV distribution of one price change."""
    return population_cv_sweep(pop, (pc,), cfg, n_nodes)[0]


def aggregate_expenditure(pop, prices, u):
    """Average expenditure across types and the mean-demand consumer's expenditure.

    Returns (e_total, e_ra); e_ra <= e_total with equality only when the
    exponent alpha . log(p) is the same for every type.
    """
    prices = np.asarray(prices, dtype=float)
    if np.any(prices <= 0.0):
        raise DomainError("prices must be strictly positive")
    e_total = sum(prob * pop.expenditure(alpha, prices, u) for alpha, prob in pop.types)
    e_ra = u * float(np.prod(prices ** pop.mean_shares()))
    return float(e_total), float(e_ra)


def surface_from_population(pop, max_order, good=0):
    """Moment surface backed by a population's exact moments and partials.

    The price partial is the population's ``d_price_moment``; the income
    partial is the identity dM_n/dy = n E[q^(n-1) dq/dy], from
    ``income_effect_moment``.  Cobb-Douglas surfaces also carry the
    multigood moment fields, which require a budget with one price per good.
    """
    def d_income(n, b):
        return n * income_effect_moment(pop, n, b, good)

    if not isinstance(pop, CobbDouglasPopulation):
        return MomentSurface(max_order, pop.moment, pop.d_price_moment, d_income,
                             good=good)

    def prices(b):
        if b.k != pop.k:
            raise ShapeError("budget has %d prices but the population has %d goods"
                             % (b.k, pop.k))
        return np.asarray(b.prices)

    def mean_vec(b):
        return pop.mean_shares() * b.income / prices(b)

    def jac(b):
        return np.diag(-pop.mean_shares() * b.income / prices(b) ** 2)

    def second(b):
        p = prices(b)
        return pop.cross_share_matrix() * b.income ** 2 / np.outer(p, p)

    def d_second(b):
        p = prices(b)
        return 2.0 * pop.cross_share_matrix() * b.income / np.outer(p, p)

    return MomentSurface(
        max_order,
        lambda n, b: pop.moment(n, b, good),
        lambda n, b, j: pop.d_price_moment(n, b, j, good),
        d_income,
        good=good, multigood=MultigoodMoments(mean_vec, jac, second, d_second))


def share_surface_from_population(pop, max_order, good=0):
    """Share-moment surface W_n = (p/y)^n M_n with analytic log-derivatives."""
    surf = surface_from_population(pop, max_order, good=good)

    def w_mom(n, b):
        r = b.price(good) / b.income
        return r ** n * surf.moment(n, b)

    def d_logp(n, b, j):
        r = b.price(good) / b.income
        if j == good:
            return r ** n * (n * surf.moment(n, b) + b.price(good) * surf.d_price(n, b, good))
        return r ** n * b.price(j) * surf.d_price(n, b, j)

    def d_logy(n, b):
        r = b.price(good) / b.income
        return r ** n * (-n * surf.moment(n, b) + b.income * surf.d_income(n, b))

    return ShareMomentSurface(max_order, w_mom, d_logp, d_logy, good=good)


def demand_support(pop, b, good=0):
    """Exact support bounds of quantity demanded at a budget."""
    if isinstance(pop, CobbDouglasPopulation):
        return pop.support(b, good)
    return pop.support(b)
