"""Shared domain types: budgets, price changes, moment surfaces, numeric derivatives.

A moment surface is the central abstraction: an evaluatable map
``(n, budget) -> E[q^n | budget]`` together with its partials in the
modeled good's own price and in income.  Each surface is one batch
function: ``on_budgets(prices, incomes)`` returns every order's moment
and both partials at an array of budgets, and the path integrals of
:mod:`welfare_moments.welfare` read their quadrature nodes that way;
``at(b, *orders)`` reads every order at one budget, and ``moment``,
``d_price`` and ``d_income`` are entries of that read.  Surfaces come
from synthetic populations (:mod:`welfare_moments.oracle`) or from fitted
series regressions (:mod:`welfare_moments.estimation`); every welfare
formula consumes only this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """A budget (or a perturbation of one) left the positive price/income domain."""


class OrderError(ValueError):
    """A moment of higher order than the surface carries was requested."""


class ShapeError(ValueError):
    """Vector dimensions do not line up, as a budget without one price per good."""


# The numeric failures of the other modules live here too, so that the CLI
# can map every exit-2 error without importing the module that raises it.
class NumericError(RuntimeError):
    """A quadrature or ODE routine failed to reach its tolerance."""


class FitError(RuntimeError):
    """Gauss-Newton failed to converge; carries the last iterate."""

    def __init__(self, message, theta=None, gradient_norm=None):
        super().__init__(message)
        self.theta = theta
        self.gradient_norm = gradient_norm


class InternalConsistencyError(RuntimeError):
    """A decomposition failed its algebraic identity; the surface is broken."""


@dataclass(frozen=True)
class Budget:
    """A price vector and an income level; the conditioning point for all moments."""

    prices: tuple
    income: float

    def __post_init__(self):
        prices = self.prices if isinstance(self.prices, tuple) else np.atleast_1d(self.prices)
        prices = tuple(float(p) for p in prices)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "income", float(self.income))
        if len(prices) < 1:
            raise ShapeError("budget needs at least one price")
        if any(not math.isfinite(p) or p <= 0.0 for p in prices):
            raise DomainError("prices must be strictly positive and finite")
        if not math.isfinite(self.income) or self.income <= 0.0:
            raise DomainError("income must be strictly positive and finite")

    @property
    def k(self):
        return len(self.prices)

    def price(self, j=0):
        return self.prices[j]

    def with_price(self, j, value):
        prices = list(self.prices)
        prices[j] = value
        return Budget(tuple(prices), self.income)

    def with_income(self, value):
        return Budget(self.prices, value)


@dataclass(frozen=True)
class PriceChange:
    """An ordered pair of budgets with common income; delta = to.prices - from.prices."""

    start: Budget
    end: Budget
    _delta: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.start.k != self.end.k:
            raise ShapeError("price change endpoints differ in dimension")
        if abs(self.start.income - self.end.income) > 1e-12 * max(1.0, self.start.income):
            raise ValueError("price change must hold income fixed")
        object.__setattr__(self, "_delta", tuple(
            e - s for s, e in zip(self.start.prices, self.end.prices)))

    @classmethod
    def scalar(cls, p0, p1, y):
        return cls(Budget((p0,), y), Budget((p1,), y))

    @property
    def delta(self):
        return np.array(self._delta)

    @property
    def income(self):
        return self.start.income

    def scalar_delta(self, j=0):
        """Return delta for coordinate j, requiring every other coordinate fixed."""
        if any(abs(d) > 1e-12 for i, d in enumerate(self._delta) if i != j):
            raise ShapeError("only coordinate %d may move for a scalar operation" % j)
        return self._delta[j]

    def path_prices(self, t):
        """Prices p(t) = p0 + t * delta at an array of path times, shaped (m, k)."""
        return np.asarray(self.start.prices) + np.outer(t, self.delta)


class _Surface:
    """One batch evaluator and its one-budget read, shared by the
    quantity and the share surface.

    ``batch_fn(prices, incomes, orders)`` returns the moments of orders
    1..orders at m budgets, their partials in the modeled good's own price
    and their partials in income, as three (orders, m) arrays.
    """

    def __init__(self, max_order, batch_fn, good=0):
        if max_order < 1:
            raise OrderError("max_order must be >= 1")
        self.max_order = int(max_order)
        self.good = int(good)
        self._batch = batch_fn
        self._last = (None, None)

    def on_budgets(self, prices, incomes, orders=None):
        """Moments and both partials of orders 1..orders at m budgets.

        ``prices`` is (m, k) and ``incomes`` is (m,); returns three
        (orders, m) arrays, row n - 1 holding order n.  ``orders``
        defaults to every order the surface carries.
        """
        orders = self.max_order if orders is None else int(orders)
        self._check_order(orders)
        prices = np.asarray(prices, dtype=float)
        incomes = np.asarray(incomes, dtype=float)
        if prices.ndim != 2 or incomes.shape != prices.shape[:1]:
            raise ShapeError("need prices shaped (m, k) and incomes shaped (m,)")
        # NaN fails both comparisons
        if not (np.all((prices > 0.0) & (prices < np.inf))
                and np.all((incomes > 0.0) & (incomes < np.inf))):
            raise DomainError("prices and incomes must be strictly positive and finite")
        return tuple(np.asarray(a, dtype=float) for a in self._batch(prices, incomes, orders))

    def _check_order(self, n):
        if not 1 <= n <= self.max_order:
            raise OrderError("order %d outside 1..%d" % (n, self.max_order))

    def at(self, b, *orders):
        """The jet at b, after checking each of ``orders`` (the ones the caller
        reads): moments, price and income partials of every order as three
        lists of floats, entry n - 1 holding order n.  The last budget's jet is
        kept, so reads at one budget share one batch; a refused one is not."""
        for n in orders:
            self._check_order(n)
        last, jet = self._last
        if b != last:
            jet = tuple(a[:, 0].tolist() for a in self.on_budgets([b.prices], [b.income]))
            self._last = (b, jet)
        return jet

    def moment(self, n, b):
        return self.at(b, n)[0][n - 1]


class MomentSurface(_Surface):
    """Evaluatable conditional moments of demand for one modeled good.

    ``moment(n, b)`` returns the n-th raw moment of quantity demanded at
    budget ``b``; ``d_price`` and ``d_income`` return its partials in the
    good's own price and in income.  All three read ``batch_fn``.
    """

    def d_price(self, n, b):
        return self.at(b, n)[1][n - 1]

    def d_income(self, n, b):
        return self.at(b, n)[2][n - 1]


class ShareMomentSurface(_Surface):
    """Budget-share analogue of :class:`MomentSurface`, in log-price/log-income space.

    ``moment(n, b)`` is the n-th raw moment of the budget share of the
    modeled good; ``d_logp``/``d_logy`` are its derivatives in the log of
    the own price and of income, and ``batch_fn`` returns those three.
    """

    def d_logp(self, n, b):
        return self.at(b, n)[1][n - 1]

    def d_logy(self, n, b):
        return self.at(b, n)[2][n - 1]


def income_effect_bounds(b_lo, b_hi, price):
    """The bounds [b_lo, b_hi] of a report at the modeled good's initial
    ``price``; an unset one takes the normal-good worst case [0, 1/price]."""
    b_lo = 0.0 if b_lo is None else b_lo
    b_hi = 1.0 / price if b_hi is None else b_hi
    if b_lo > b_hi:
        raise ValueError("lower income-effect bound exceeds upper bound")
    return b_lo, b_hi


@lru_cache(maxsize=4)
def gauss_legendre01(n):
    """The n-node Gauss-Legendre rule on [0, 1] as read-only (nodes, weights)
    arrays; the weights sum to one."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def monomial_translation(surface, degree, b):
    """Slutsky moment S_(degree+1): population mean of (dq/dp + q dq/dy) q^degree.

    It is the translation of x^degree; the n-th Slutsky moment inequality
    is ``monomial_translation(surface, n - 1, b) <= 0``, and n S_n is the
    price slope of the n-th compensated demand moment.  It reads order
    degree + 2, so a surface without it raises :class:`OrderError`.
    """
    n = degree + 1
    _, d_price, d_income = surface.at(b, n, n + 1)
    return d_price[n - 1] / n + d_income[n] / (n + 1)


# Relative step of every central difference: the reference partials below
# and the log-income derivative in ``welfare.price_index_decompose``.
FD_STEP = 1e-5


def _central(f, x):
    """Richardson-combined central difference with relative step FD_STEP."""
    h = FD_STEP * max(1.0, abs(x))
    if x - h <= 0.0:
        raise DomainError("perturbation leaves the positive domain at %g" % x)

    def diff(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    d1 = diff(h)
    d2 = diff(h / 2.0)
    return float((4.0 * d2 - d1) / 3.0)


def numeric_partial(surface, n, b, var):
    """Central-difference partial of a moment surface in the own price of
    its good (``var="price"``) or in income (``var="income"``).

    The library's surfaces carry exact partials; this is the independent
    reference for checking them.  The surface refuses an order it lacks.
    """
    if var == "income":
        return _central(lambda y: surface.moment(n, b.with_income(y)), b.income)
    if var == "price":
        j = surface.good
        return _central(lambda p: surface.moment(n, b.with_price(j, p)), b.price(j))
    raise ValueError("var must be 'price' or 'income', got %r" % (var,))


def quantity_surface_from_shares(share_surface):
    """Wrap a share surface as a quantity-space :class:`MomentSurface`.

    M_n = (y / p)^n W_n, and its partials in the own price and in income
    are exact images of the share surface's log-derivatives.
    """
    j = share_surface.good

    def batch(prices, incomes, orders):
        w, d_logp, d_logy = share_surface.on_budgets(prices, incomes, orders)
        n = np.arange(1, orders + 1)[:, None]
        p = prices[:, j]
        return ((incomes / p) ** n * w,
                (incomes ** n / p ** (n + 1)) * (d_logp - n * w),
                (incomes ** (n - 1) / p ** n) * (d_logy + n * w))

    return MomentSurface(share_surface.max_order, batch, good=j)
