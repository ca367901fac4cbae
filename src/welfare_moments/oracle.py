"""Analytic synthetic populations with exact moments and exact compensating variation.

Populations here serve as ground truth for the approximation formulas in
:mod:`welfare_moments.welfare`: their conditional moments have closed
forms (or machine-precision quadrature), their income effects are known
analytically, and the exact welfare effect of a price change is, per
type, the value at t = 1 of the compensation ODE

    ds/dt = q(p(t), y + s(t)) . dp/dt,   s(0) = 0,

along the linear price path.  Every population here solves it in closed
form: Cobb-Douglas types by their expenditure function, and the others
piece by piece, since their demand is affine in price and income between
kinks, where the ODE is linear with constant coefficients.  Fixed-step
RK4 remains for an arbitrary demand callable and as a reference.

Every population is a table of consumer types.  Its moment surfaces
(:func:`surface_from_population`, :func:`share_surface_from_population`)
evaluate the table at arrays of budgets, every order in one product; the
population's own scalar functionals (``moment``, ``d_price_moment``,
``income_effect_moment``) sum the table row by row at one budget and are
the independent reference for those surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Budget,
    DomainError,
    MomentSurface,
    OrderError,
    ShapeError,
    ShareMomentSurface,
)


class NumericError(RuntimeError):
    """A quadrature or ODE routine failed to reach its tolerance."""


GL_NODES = 64  # Gauss-Legendre nodes of a type table and of cv_constant_income_effect


@lru_cache(maxsize=1)
def _leggauss01():
    """The GL_NODES rule on [0, 1], built on first use; weights sum to one."""
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step classical RK4 configuration for the compensation ODE."""

    steps: int = 1024

    def __post_init__(self):
        if self.steps < 16:
            raise ValueError("need at least 16 integration steps")


DEFAULT_ODE = OdeConfig()


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


def _income_exit(t, pc):
    dp = ", ".join("%g" % d for d in pc.delta)
    return DomainError("compensated income left the positive domain at t=%.6f "
                       "for the price change dp=%s at income %g" % (t, dp, pc.income))


def _guard_income(y_arr, t, pcs, owner):
    """Raise DomainError if a compensated income is nonpositive.

    ``owner[i]`` indexes the price change in ``pcs`` that family element
    ``i`` belongs to; the message names the first offending one.
    """
    bad = y_arr <= 0.0
    if np.any(bad):
        raise _income_exit(t, pcs[owner[np.argmax(bad)]])


def _own_price_paths(pcs, owner):
    """Start price and price step of good 0 for each family element."""
    p0 = np.array([pc.start.prices[0] for pc in pcs])[owner]
    dp = np.array([pc.delta[0] for pc in pcs])[owner]
    return p0, dp


# phi2(x) = (e^x - 1 - x)/x^2 cancels for small |x|; below this bound it is
# summed from its Taylor coefficients 1/(k+2)!, whose tail is then < 1e-19.
_SERIES_BELOW = 0.5
_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(17))
_NEWTON_ITERATIONS = 100
_MAX_PIECES = 64


def _phi(x):
    """phi1(x) = (e^x - 1)/x and phi2(x) = (e^x - 1 - x)/x^2, exact at and near 0."""
    small = np.abs(x) < _SERIES_BELOW
    xs = np.where(small, x, 0.0)
    series = np.full_like(xs, _PHI2_TAYLOR[-1])
    for c in _PHI2_TAYLOR[-2::-1]:
        series = series * xs + c
    xl = np.where(small, 1.0, x)
    em1 = np.expm1(xl)
    return (np.where(small, 1.0 + xs * series, em1 / xl),
            np.where(small, series, (em1 - xl) / (xl * xl)))


def _piece_gain(r0, lam, a1, u):
    """Compensation gained after time u on an affine piece, and its rate there.

    On the piece z' = lam z + beta0 + a1 u with z'(0) = r0, so
    z(u) - z(0) = r0 u phi1(lam u) + a1 u^2 phi2(lam u).
    """
    phi1, phi2 = _phi(lam * u)
    return r0 * u * phi1 + a1 * u * u * phi2, r0 + (lam * r0 + a1) * u * phi1


def _turning_point(r0, lam, a1):
    """The u > 0 where a piece's rate r0 e^(lam u) + a1 u phi1(lam u) vanishes,
    or inf; the gain is monotone on either side of it."""
    # e^(lam u) = 1 / (1 + x) with x = lam r0 / a1, so u = -(r0 / a1) log1p(x) / x
    ratio = np.divide(r0, a1, out=np.zeros_like(r0), where=a1 != 0.0)
    x = lam * ratio
    ok = (a1 != 0.0) & (x > -1.0)
    psi = np.divide(np.log1p(np.where(ok, x, 0.0)), x, out=np.ones_like(x),
                    where=ok & (x != 0.0))
    u = -ratio * psi
    return np.where(ok & (u > 0.0), u, np.inf)


def _solve_gain(r0, lam, a1, c, a, b):
    """The time in [a, b] at which a piece's gain reaches c.

    The gain is monotone on [a, b], on one side of c at a and on the other
    side (or at c) at b.  Newton steps that leave the bracket are replaced
    by bisection, and the bracket shrinks every step.
    """
    side = np.sign(_piece_gain(r0, lam, a1, a)[0] - c)
    u = 0.5 * (a + b)
    for _ in range(_NEWTON_ITERATIONS):
        gain, rate = _piece_gain(r0, lam, a1, u)
        h = gain - c
        past = np.sign(h) != side
        a, b = np.where(past, a, u), np.where(past, u, b)
        newton = u - np.divide(h, rate, out=np.full_like(u, np.inf), where=rate != 0.0)
        new = np.where(h == 0.0, u,
                       np.where((newton >= a) & (newton <= b), newton, 0.5 * (a + b)))
        done = np.all(np.abs(new - u) <= 4.0 * np.finfo(float).eps * np.abs(new))
        u = new
        if done:
            break
    return u


def _first_crossing(r0, lam, a1, c, turn, span):
    """Earliest u in (0, span) at which a piece's gain crosses c, or inf.

    The gain is monotone on [0, turn] and on [turn, span], so each holds at
    most one crossing; a piece starting on c (c = 0) leaves it on the first.
    """
    mid = np.minimum(turn, span)
    h_mid = _piece_gain(r0, lam, a1, mid)[0] - c
    h_end = _piece_gain(r0, lam, a1, span)[0] - c
    first = np.sign(-c) * np.sign(h_mid) < 0.0
    second = ~first & (np.sign(h_mid) * np.sign(h_end) < 0.0)
    root = np.full_like(c, np.inf)
    for sel, lo, hi in ((first, np.zeros_like(mid), mid), (second, mid, span)):
        if np.any(sel):
            root[sel] = _solve_gain(r0[sel], lam[sel], a1[sel], c[sel], lo[sel], hi[sel])
    return root


# Reference rule whose nodes are the two ends of every row of a type table.
_ROW_ENDS = (np.array([0.0, 1.0]),) * 2


class _TypeTable:
    """A population described by a table of consumer types.

    A subclass supplies ``_types(y, good, x, w)``, the type nodes (a tuple
    of parameter arrays that broadcast to the weights) and their weights at
    income ``y``, shaped (rows, m), with the reference rule ``(x, w)`` on
    [0, 1] mapped into each row's interval (a finite population ignores
    it); and ``_demand(nodes, p, y)``, the quantity, own-price and income
    derivative of every type, each an array or a scalar that broadcasts
    against the quantity.  The scalar functionals (``moment``,
    ``d_price_moment``, ...) are weighted means over the table, summed row
    by row; :meth:`moments_on_budgets` takes every order at an array of
    budgets in one product per order.
    """

    k = 1

    @staticmethod
    def _weights(weights):
        w = np.array(weights, dtype=float)
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("type weights must be finite, nonnegative and sum to 1")
        return w

    def _check_good(self, good):
        if not 0 <= good < self.k:
            raise ShapeError("good %d is not one of the population's %d goods"
                             % (good, self.k))

    def _own_price(self, b, good):
        self._check_good(good)
        return b.price(good)

    def _mean(self, b, good, f):
        p = self._own_price(b, good)
        nodes, w = self._types(b.income, good, *_leggauss01())
        total = 0.0
        for w_row, v_row in zip(w, f(*self._demand(nodes, p, b.income))):
            total += float(np.dot(w_row, v_row))
        return total

    def moment(self, n, b, good=0):
        return self._mean(b, good, lambda q, dp, dy: q ** n)

    def d_price_moment(self, n, b, j=0, good=0):
        # a type's demand for a good moves only with that good's own price
        if j != good:
            return 0.0
        return n * self._mean(b, good, lambda q, dp, dy: q ** (n - 1) * dp)

    def income_effect_moment(self, n, b, good=0):
        # E[q^(n-1) dq/dy]
        return self._mean(b, good, lambda q, dp, dy: q ** (n - 1) * dy)

    def income_effect_power(self, n, b, good=0):
        # E[q (dq/dy)^n]
        return self._mean(b, good, lambda q, dp, dy: q * dy ** n)

    def moments_on_budgets(self, max_order, prices, incomes, good=0):
        """Moments, own-price partials n E[q^(n-1) dq/dp] and income partials
        n E[q^(n-1) dq/dy] of orders 1..max_order at m budgets, as three
        (max_order, m) arrays.

        Budgets are grouped by income, since a type table's layout may
        depend on it; each group evaluates demand once, with the budget as
        a leading axis, and takes every order's weighted sums over the
        whole table in one product per array.
        """
        self._check_good(good)
        out = np.empty((3, max_order, len(incomes)))
        n = np.arange(1, max_order + 1)[:, None]
        for y in dict.fromkeys(incomes.tolist()):
            sel = np.flatnonzero(incomes == y)
            nodes, w = self._types(y, good, *_leggauss01())
            q, dq_dp, dq_dy = self._demand(nodes, prices[sel, good, None, None], y)
            w = w.ravel()

            def mean(v):
                return v.reshape(max_order, len(sel), -1) @ w

            # q^0..q^max_order by running products: ** is slow on arrays
            q_pow = np.empty((max_order + 1,) + q.shape)
            q_pow[0] = 1.0
            for k in range(max_order):
                np.multiply(q_pow[k], q, out=q_pow[k + 1])
            lower = q_pow[:-1]
            out[:, :, sel] = mean(q_pow[1:]), n * mean(lower * dq_dp), n * mean(lower * dq_dy)
        return tuple(out)

    def support(self, b, good=0):
        # demand is monotone along each row, so its extremes sit at the row ends
        p = self._own_price(b, good)
        nodes, _ = self._types(b.income, good, *_ROW_ENDS)
        q = self._demand(nodes, p, b.income)[0]
        return float(np.min(q)), float(np.max(q))

    def cv_family(self, pcs):
        """Type nodes of every (price change, type) pair, their weights, and
        the number of pairs of each price change."""
        x, w = _leggauss01()
        tables = [self._types(pc.income, 0, x, w) for pc in pcs]
        weights = [t for _, t in tables]
        nodes = [np.concatenate([np.broadcast_to(a, t.shape).ravel()
                                 for a, t in zip(col, weights)])
                 for col in zip(*(n for n, _ in tables))]
        return nodes, np.concatenate([t.ravel() for t in weights]), [t.size for t in weights]

    def _kinks(self, nodes):
        """Income at which each type's demand changes slope, or None if none does."""
        return None

    def _cv_rate(self, pcs, nodes, owner):
        p0, dp = _own_price_paths(pcs, owner)

        def rate(t, y_arr):
            return self._demand(nodes, p0 + t * dp, y_arr)[0] * dp

        return rate

    def _cv_closed_form(self, pcs, nodes, owner, y0):
        """s(1) of every family element, solved exactly one affine piece at a time.

        Demand must be affine in price and income between the incomes of
        ``_kinks``.  A piece starting at time t0 with compensation z0 then has
        z' = lam z + beta0 + a1 u (u = t - t0), with rate r0 = q dp at its
        start, lam = dq/dy dp and a1 = dq/dp dp^2.  A piece ends where the
        income first crosses the type's kink, located to full precision,
        and the next starts there with the income exactly on the kink.
        Raises DomainError for the element whose income reaches zero first.
        """
        p0, dp = _own_price_paths(pcs, owner)
        kinks = self._kinks(nodes)
        s, t0, income = np.zeros_like(y0), np.zeros_like(y0), y0.copy()
        exit_t = np.full_like(y0, np.inf)
        live = np.arange(len(y0))
        for _ in range(_MAX_PIECES):
            sub = [a[live] for a in nodes]
            y, d = income[live], dp[live]
            p = p0[live] + t0[live] * d
            q, dq_dp, dq_dy = self._demand(sub, p, y)
            r0 = q * d
            if kinks is not None:
                # On its kink a type takes the slopes of the side its income
                # moves to: the sign of the rate, or of dq/dp where that is 0.
                k = kinks[live]
                on = y == k
                if np.any(on):
                    falling = np.where(r0 != 0.0, r0, dq_dp) < 0.0
                    side = np.nextafter(k, np.where(falling, -np.inf, np.inf))
                    _, dq_dp, dq_dy = self._demand(sub, p, np.where(on, side, y))
            r0, lam, a1 = np.broadcast_arrays(r0, dq_dy * d, dq_dp * d * d)
            span = 1.0 - t0[live]
            turn = _turning_point(r0, lam, a1)
            end = span
            if kinks is not None:
                end = np.minimum(span, _first_crossing(r0, lam, a1, k - y, turn, span))
            gain = _piece_gain(r0, lam, a1, end)[0]
            # the income's least value on the piece: at an end or the turning point
            low = np.minimum(turn, end)
            gain_low = _piece_gain(r0, lam, a1, low)[0]
            out = np.minimum(gain_low, gain) <= -y
            if np.any(out):
                before = gain_low[out] <= -y[out]
                lo = np.where(before, 0.0, low[out])
                hi = np.where(before, low[out], end[out])
                exit_t[live[out]] = t0[live[out]] + _solve_gain(
                    r0[out], lam[out], a1[out], -y[out], lo, hi)
            s[live] += gain
            t0[live] += end
            crossed = (end < span) & ~out
            income[live] = y + gain
            if kinks is not None:
                income[live[crossed]] = k[crossed]
            live = live[crossed]
            if not live.size:
                break
        else:
            raise NumericError("kink crossings did not end after %d pieces" % _MAX_PIECES)
        if np.any(np.isfinite(exit_t)):
            first = int(np.argmin(exit_t))
            raise _income_exit(exit_t[first], pcs[owner[first]])
        return s


class LinearHeteroPopulation(_TypeTable):
    """Heterogeneous linear demand q = intercept - slope*p + effect*y.

    The intercept is uniform on [a0, a1]; the income effect takes finitely
    many values with given probabilities.  Each effect value is one row of
    the type table, over Gauss-Legendre nodes in the intercept, which are
    exact for the polynomial moments.
    """

    def __init__(self, intercept_lo=0.0, intercept_hi=1.0, price_slope=1.0,
                 income_effects=((1.0 / 3.0, 0.5), (2.0 / 3.0, 0.5))):
        self.a0 = float(intercept_lo)
        self.a1 = float(intercept_hi)
        self.beta = float(price_slope)
        self.effects = tuple((float(a), float(p)) for a, p in income_effects)
        coefs = [self.a0, self.a1, self.beta] + [a for a, _ in self.effects]
        if not np.all(np.isfinite(coefs)):
            raise ValueError("intercept bounds, slope and income effects must be finite")
        if self.a1 <= self.a0:
            raise ValueError("intercept bounds must satisfy lo < hi")
        self._effect = np.array([a for a, _ in self.effects])
        self._w = self._weights([p for _, p in self.effects])

    def _types(self, y, good, x, w):
        return ((self.a0 + (self.a1 - self.a0) * x, self._effect[:, None]),
                self._w[:, None] * w)

    def _demand(self, nodes, p, y):
        u, effect = nodes
        return u - self.beta * p + effect * y, -self.beta, effect

    def draw_quantities(self, rng, p_arr, y_arr):
        n = len(p_arr)
        om = rng.uniform(self.a0, self.a1, size=n)
        vals = np.array([a for a, _ in self.effects])
        probs = np.array([p for _, p in self.effects])
        ef = rng.choice(vals, size=n, p=probs)
        return om - self.beta * np.asarray(p_arr) + ef * np.asarray(y_arr)


class QuantileCounterexamplePopulation(_TypeTable):
    """Piecewise-linear quantile demand observationally equivalent to the
    heterogeneous linear population for incomes below 3, yet with a
    different distribution of income effects.  Each segment between the
    quantile kinks at income y is one row of the type table."""

    def demand(self, omega, p, y):
        return self._demand((np.asarray(omega, dtype=float),), p, y)[0]

    def d_income(self, omega, y):
        return self._demand((np.asarray(omega, dtype=float),), 0.0, y)[2]

    def _kinks(self, nodes):
        (omega,) = nodes
        return 6.0 * np.where(omega <= 0.5, omega, 1.0 - omega)

    def _demand(self, nodes, p, y):
        (omega,) = nodes
        lower = omega <= 0.5
        # below its kink a type spends half of marginal income on the good
        flat = y < self._kinks(nodes)
        q = -p + np.where(flat, y / 2.0 + omega,
                          np.where(lower, y / 3.0 + 2.0 * omega,
                                   2.0 * y / 3.0 + 2.0 * omega - 1.0))
        return q, -1.0, np.where(flat, 0.5, np.where(lower, 1.0 / 3.0, 2.0 / 3.0))

    def _segments(self, y):
        t1 = min(max(y / 6.0, 0.0), 0.5)
        t2 = max(min(1.0 - y / 6.0, 1.0), 0.5)
        cuts = [0.0, t1, 0.5, t2, 1.0]
        return [(cuts[i], cuts[i + 1]) for i in range(4) if cuts[i + 1] > cuts[i] + 1e-15]

    def _types(self, y, good, x, w):
        seg = np.array(self._segments(y))
        width = (seg[:, 1] - seg[:, 0])[:, None]
        return (seg[:, :1] + width * x,), width * w

    def draw_quantities(self, rng, p_arr, y_arr):
        om = rng.uniform(0.0, 1.0, size=len(p_arr))
        return self.demand(om, np.asarray(p_arr), np.asarray(y_arr))


class CobbDouglasPopulation(_TypeTable):
    """Finite mixture of Cobb-Douglas consumers over k goods.

    Each type has an expenditure share vector alpha (positive, summing to
    one) and demands q_i = alpha_i * y / p_i; its expenditure function is
    e(p, u) = u * prod(p_i ** alpha_i) with the normalization constant
    absorbed into u.
    """

    def __init__(self, types):
        self.types = tuple((tuple(float(a) for a in alpha), float(prob))
                           for alpha, prob in types)
        self.k = len(self.types[0][0])
        if any(len(alpha) != self.k for alpha, _ in self.types):
            raise ValueError("all share vectors must have equal length")
        self._alphas = np.array([alpha for alpha, _ in self.types])
        if (not np.all(np.isfinite(self._alphas)) or np.any(self._alphas < 0.0)
                or np.any(np.abs(self._alphas.sum(axis=1) - 1.0) > 1e-12)):
            raise ValueError("share vectors must be finite, nonnegative and sum to 1")
        self._w = self._weights([prob for _, prob in self.types])

    @classmethod
    def single(cls, alpha):
        return cls([((alpha, 1.0 - alpha), 1.0)])

    @classmethod
    def two_type(cls, alpha):
        return cls([((alpha, 1.0 - alpha), 0.5), ((1.0 - alpha, alpha), 0.5)])

    def _types(self, y, good, x, w):
        return (self._alphas[None, :, good],), self._w[None, :]

    def _demand(self, nodes, p, y):
        (alpha,) = nodes
        q = alpha * y / p
        return q, -q / p, alpha / p

    def _cv_rate(self, pcs, nodes, owner):
        paths = [(np.asarray(pc.start.prices), pc.delta) for pc in pcs]

        def rate(t, y_arr):
            # sum_i alpha_i * y / p_i * dp_i, per type.  One product per price
            # change: a single stacked product sums in another order.
            return y_arr * np.concatenate([self._alphas @ (dp / (p0 + t * dp))
                                           for p0, dp in paths])

        return rate

    def _cv_closed_form(self, pcs, nodes, owner, y0):
        # s(1) = y (prod_i (p1_i / p0_i) ** alpha_i - 1); income stays positive
        logs = np.concatenate([self._alphas @ np.log1p(pc.delta / np.asarray(pc.start.prices))
                               for pc in pcs])
        return y0 * np.expm1(logs)

    def mean_shares(self):
        return self._w @ self._alphas

    def _prices(self, b):
        if b.k != self.k:
            raise ShapeError("budget has %d prices but the population has %d goods"
                             % (b.k, self.k))
        return np.asarray(b.prices)

    def mean_vector(self, b):
        """Mean demand of every good, E[q] = E[alpha] y / p."""
        return self.mean_shares() * b.income / self._prices(b)

    def jacobian(self, b):
        """Price Jacobian of E[q]; diagonal, as q_i moves only with p_i."""
        return np.diag(-self.mean_vector(b) / self._prices(b))

    def second_matrix(self, b):
        """E[q q^T] = E[alpha alpha^T] y^2 / (p p^T)."""
        s = b.income / self._prices(b)
        return (self._alphas.T * self._w) @ self._alphas * np.outer(s, s)

    def d_income_second(self, b):
        """Income derivative of E[q q^T], which is quadratic in y."""
        return 2.0 * self.second_matrix(b) / b.income

    def expenditure(self, alpha, prices, u):
        prices = np.asarray(prices, dtype=float)
        if np.any(prices <= 0.0):
            raise DomainError("prices must be strictly positive")
        return u * float(np.prod(prices ** np.asarray(alpha)))


class LinearTypeMixture(_TypeTable):
    """Finite mixture of affine demand types q = c + g_p * p + g_y * y.

    Used to build fully analytic fixtures: degenerate consumers,
    quasi-linear consumers, additive-heterogeneity models, and planted
    violators of Slutsky negativity.
    """

    def __init__(self, types):
        self.types = tuple((float(m), float(c), float(gp), float(gy))
                           for m, c, gp, gy in types)
        table = np.array(self.types).reshape(-1, 4).T
        if not np.all(np.isfinite(table[1:])):
            raise ValueError("type coefficients must be finite")
        self._w = self._weights(table[0])
        self._coefs = tuple(table[1:, None, :])

    def _types(self, y, good, x, w):
        return self._coefs, self._w[None, :]

    def _demand(self, nodes, p, y):
        c, gp, gy = nodes
        return c + gp * p + gy * y, gp, gy


# Canonical fixtures: the two observationally equivalent populations and
# the budget at which their closed forms are printed.
L0 = LinearHeteroPopulation()
Q0 = QuantileCounterexamplePopulation()
B_STAR = Budget((1.0,), 2.0)


def exact_moment(pop, n, b, good=0):
    """n-th conditional moment of demand under a synthetic population."""
    if n < 1:
        raise OrderError("moment order must be >= 1")
    return float(pop.moment(n, b, good))


def income_effect_moment(pop, n, b, good=0):
    """E[q^(n-1) dq/dy]; equals (1/n) d/dy of the n-th moment."""
    if n < 1:
        raise OrderError("moment order must be >= 1")
    return float(pop.income_effect_moment(n, b, good))


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

    ``demand`` is a callable (prices array, income) -> quantity vector;
    the price path is linear.  Raises DomainError with
    the exit time if compensated income turns nonpositive.
    """
    cfg = cfg or DEFAULT_ODE
    p0 = np.asarray(pc.start.prices)
    dp = pc.delta

    def drift(t, y_arr):
        _guard_income(y_arr, t, (pc,), (0,))
        q = np.atleast_1d(np.asarray(demand(p0 + t * dp, float(y_arr[0])), dtype=float))
        return np.array([float(np.dot(q, dp))])

    s = _rk4_scalar_family(drift, np.array([pc.income]), cfg.steps)
    return float(s[0])


def cv_constant_income_effect(demand, a, pc):
    """Closed-form CV for a type with constant income effect.

    Solves the linearized compensation ODE explicitly:
    s(1) = int_0^1 exp(a dp (1 - t)) q(p(t), y) . dp dt, evaluated by
    Gauss-Legendre quadrature at base income.
    """
    p0 = np.asarray(pc.start.prices)
    dp = pc.delta
    y = pc.income
    rate = float(np.dot(np.atleast_1d(a), dp))
    x, w = _leggauss01()
    total = 0.0
    for t, wt in zip(x, w):
        q = np.atleast_1d(np.asarray(demand(p0 + t * dp, y), dtype=float))
        total += wt * np.exp(rate * (1.0 - t)) * float(np.dot(q, dp))
    return float(total)


def population_cv_sweep(pop, pcs, cfg=None):
    """Exact CV-distribution moments for each price change, from one family.

    Every (price change, type node) pair is one element of the family, laid
    out by ``pop.cv_family(pcs)``.  Without ``cfg`` each element's
    s(1) is the population's closed form; ``cfg`` integrates the family by
    RK4 with ``cfg.steps`` steps instead.  Each price change's moments come
    from its own slice of the result.  Raises DomainError naming the price
    change whose compensated income reaches zero first, with the time.
    Returns one :class:`PopulationCv` per price change, in order.
    """
    pcs = tuple(pcs)
    if not pcs:
        return []
    nodes, w, sizes = pop.cv_family(pcs)
    owner = np.repeat(np.arange(len(pcs)), sizes)
    y0 = np.array([pc.income for pc in pcs])[owner]
    if cfg is None:
        s_all = pop._cv_closed_form(pcs, nodes, owner, y0)
    else:
        rate = pop._cv_rate(pcs, nodes, owner)

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


def population_cv(pop, pc, cfg=None):
    """Exact moments of the CV distribution of one price change."""
    return population_cv_sweep(pop, (pc,), cfg)[0]


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
    """Moment surface backed by a population's type table.

    Its batch is :meth:`_TypeTable.moments_on_budgets`: the price partial
    is n E[q^(n-1) dq/dp] and the income partial the identity
    dM_n/dy = n E[q^(n-1) dq/dy].
    """
    def batch(prices, incomes, orders):
        return pop.moments_on_budgets(orders, prices, incomes, good)

    return MomentSurface(max_order, batch, good=good)


def share_surface_from_population(pop, max_order, good=0):
    """Share-moment surface W_n = (p/y)^n M_n with analytic log-derivatives."""
    def batch(prices, incomes, orders):
        m, dm_dp, dm_dy = pop.moments_on_budgets(orders, prices, incomes, good)
        n = np.arange(1, orders + 1)[:, None]
        p = prices[:, good]
        r = (p / incomes) ** n
        return r * m, r * (n * m + p * dm_dp), r * (-n * m + incomes * dm_dy)

    return ShareMomentSurface(max_order, batch, good=good)


def demand_support(pop, b, good=0):
    """Exact support bounds of quantity demanded at a budget."""
    return pop.support(b, good)
