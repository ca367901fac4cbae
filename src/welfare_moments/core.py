"""Shared domain types: budgets, price changes, moment surfaces, numeric derivatives.

A moment surface is the central abstraction: an evaluatable map
``(n, budget) -> E[q^n | budget]`` together with its partials in the
modeled good's own price and in income.  Each surface is one batch
function: ``on_budgets(prices, incomes)`` returns every order's moment
and both partials at an array of budgets, and the path integrals of
:mod:`welfare_moments.welfare` read their quadrature nodes that way.  The
scalar ``moment``/``d_price``/``d_income`` are reads of that batch at one
budget.  Surfaces are built either analytically from synthetic
populations (see :mod:`welfare_moments.oracle`) or from fitted series
regressions (see :mod:`welfare_moments.estimation`); every welfare
formula consumes only this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """A budget (or a perturbation of one) left the positive price/income domain."""


class OrderError(ValueError):
    """A moment of higher order than the surface carries was requested."""


class ShapeError(ValueError):
    """Vector dimensions do not line up, as a budget without one price per good."""


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
    """One batch evaluator and the scalar reads of it, shared by the
    quantity and the share surface.

    ``batch_fn(prices, incomes, orders)`` returns the moments of orders
    1..orders at m budgets, their partials in the modeled good's own price
    and their partials in income, as three (orders, m) arrays.  A scalar
    read evaluates every order at its one budget and the surface keeps
    that budget's values, so the reads at one budget share one batch.
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

    def _read(self, part, n, b):
        """Order n of batch array ``part`` (0 moments, 1 price, 2 income) at b."""
        self._check_order(n)
        last, values = self._last
        if b != last:
            values = self.on_budgets(np.array([b.prices]), np.array([b.income]))
            self._last = (b, values)
        return float(values[part][n - 1, 0])

    def moment(self, n, b):
        return self._read(0, n, b)


class MomentSurface(_Surface):
    """Evaluatable conditional moments of demand for one modeled good.

    ``moment(n, b)`` returns the n-th raw moment of quantity demanded at
    budget ``b``; ``d_price`` and ``d_income`` return its partials in the
    good's own price and in income.  All three read ``batch_fn``.
    """

    def d_price(self, n, b):
        return self._read(1, n, b)

    def d_income(self, n, b):
        return self._read(2, n, b)


class ShareMomentSurface(_Surface):
    """Budget-share analogue of :class:`MomentSurface`, in log-price/log-income space.

    ``moment(n, b)`` is the n-th raw moment of the budget share of the
    modeled good; ``d_logp``/``d_logy`` are its derivatives in the log of
    the own price and of income, and ``batch_fn`` returns those three.
    """

    def d_logp(self, n, b):
        return self._read(1, n, b)

    def d_logy(self, n, b):
        return self._read(2, n, b)


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


def numeric_partial(surface, n, b, var, j=0):
    """Central-difference partial of a moment surface in one price or in income.

    The library's surfaces carry exact partials; this is the independent
    reference for checking them.
    """
    if n > surface.max_order:
        raise OrderError("order %d exceeds surface max_order %d" % (n, surface.max_order))
    if var == "income":
        return _central(lambda y: surface.moment(n, b.with_income(y)), b.income)
    if var == "price":
        return _central(lambda p: surface.moment(n, b.with_price(j, p)), b.price(j))
    raise ValueError("var must be 'price' or 'income', got %r" % (var,))


def shares_to_quantities(share_surface, b):
    """Quantity moments and partials of a share surface at one budget.

    Reads :func:`quantity_surface_from_shares`, so the chain rule lives in
    one place.  Requires share orders up to 3.
    """
    q = quantity_surface_from_shares(share_surface)
    out = {"M%d" % n: q.moment(n, b) for n in (1, 2, 3)}
    out.update({"D_p_M%d" % n: q.d_price(n, b) for n in (1, 2)})
    out.update({"D_y_M%d" % n: q.d_income(n, b) for n in (1, 2, 3)})
    return out


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
