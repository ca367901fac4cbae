"""Welfare effects of price changes from conditional demand moments.

Everything here consumes a :class:`~welfare_moments.core.MomentSurface`
(or its budget-share analogue) and returns second-order welfare
quantities that are robust to unobserved preference heterogeneity:
compensated-moment approximations, local and path-based compensating
variation, representative-agent and first-order baselines, worst-case
and probability-tightened bounds, variance estimators, decompositions,
a price index, and a marginal tax deadweight formula.  Sign convention:
the compensating variation is positive for price increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FD_STEP, OrderError, ShapeError


class InternalConsistencyError(RuntimeError):
    """A decomposition failed its algebraic identity; the surface is broken."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [0, 1]; weights are positive and sum to one."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights)
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to one")

    @classmethod
    def gauss_legendre(cls, n=32):
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(tuple((x + 1.0) / 2.0), tuple(w / 2.0))

    def integrate(self, f):
        return float(sum(wt * f(t) for t, wt in zip(self.nodes, self.weights)))


DEFAULT_QUAD = QuadratureRule.gauss_legendre(32)


def _own_delta(surface, pc):
    return pc.scalar_delta(surface.good)


def _on_path(surface, pc, orders, t, s=0.0):
    """One batch of ``surface``'s orders 1..orders on the price path at
    times ``t``, with income raised by ``s``: moments, price and income
    partials."""
    t = np.asarray(t, dtype=float)
    return surface.on_budgets(pc.path_prices(t), np.full(t.shape, pc.income) + s, orders)


def _path_value(dp, t, w, moments, d_income):
    """``cv_path`` from orders 1 and 2 at path nodes ``t`` with weights ``w``."""
    first = dp * float(w @ moments[0])
    second = (dp ** 2 / 2.0) * float(w @ (d_income[1] * (1.0 - t)))
    return first + second


def _path_bound(dp, t, w, m1, effect):
    """``hn_bounds_path`` from mean demand ``m1`` at path nodes ``t``."""
    return dp * float(w @ (np.exp(effect * dp * (1.0 - t)) * m1))


def compensated_moment_fo(surface, n, b, dp):
    """First-order approximation of the n-th compensated demand moment."""
    if n + 1 > surface.max_order:
        raise OrderError("needs moment order %d, surface has %d" % (n + 1, surface.max_order))
    correction = (surface.d_price(n, b) / n
                  + surface.d_income(n + 1, b) / (n + 1))
    return surface.moment(n, b) + correction * dp


def compensated_share_moment(share_surface, n, b, dp):
    """First-order approximation of the n-th compensated budget-share moment."""
    if n + 1 > share_surface.max_order:
        raise OrderError("needs share order %d, surface has %d" % (n + 1, share_surface.max_order))
    p0 = b.price(share_surface.good)
    correction = (share_surface.d_logp(n, b) / n
                  + share_surface.d_logy(n + 1, b) / (n + 1)
                  + share_surface.moment(n + 1, b))
    return share_surface.moment(n, b) + correction * (dp / p0)


def cv_moment_local(surface, n, pc):
    """Second-order approximation of the n-th moment of the compensating variation.

    Uses only the n-th and (n+1)-st demand moments at the initial budget.
    """
    if n + 1 > surface.max_order:
        raise OrderError("needs moment order %d, surface has %d" % (n + 1, surface.max_order))
    dp = _own_delta(surface, pc)
    b0 = pc.start
    inner = (surface.moment(n, b0)
             + (dp / 2.0) * (surface.d_price(n, b0)
                             + surface.d_income(n + 1, b0) * n / (n + 1.0)))
    return dp ** n * inner


def cv_first_order(surface, pc):
    """First-order welfare effect: price change times mean demand."""
    return _own_delta(surface, pc) * surface.moment(1, pc.start)


def cv_ra(surface, pc):
    """Representative-agent welfare effect; treats mean demand as one consumer."""
    dp = _own_delta(surface, pc)
    b0 = pc.start
    m1 = surface.moment(1, b0)
    return dp * m1 + (dp ** 2 / 2.0) * (surface.d_price(1, b0)
                                        + m1 * surface.d_income(1, b0))


def cv_path(surface, pc, quad=None):
    """Average CV approximated along the linear price path.

    First term integrates mean demand along the path; the second-order
    correction integrates the income derivative of the second moment
    with weight (1 - t).
    """
    quad = quad or DEFAULT_QUAD
    if surface.max_order < 2:
        raise OrderError("path approximation needs moment orders up to 2")
    dp = _own_delta(surface, pc)
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    moments, _, d_income = _on_path(surface, pc, 2, t)
    return _path_value(dp, t, w, moments, d_income)


def hn_bounds_local(surface, pc, b_lo, b_hi):
    """Worst-case local CV bounds from uniform income-effect bounds [b_lo, b_hi].

    The bound value is increasing in the income-effect level whenever mean
    demand is nonnegative, for either sign of the price change, so the
    pair comes back ordered as (lower, upper).
    """
    if b_lo > b_hi:
        raise ValueError("lower income-effect bound exceeds upper bound")
    dp = _own_delta(surface, pc)
    b0 = pc.start
    m1 = surface.moment(1, b0)
    dpm1 = surface.d_price(1, b0)

    def bound(eff):
        return dp * m1 + (dp ** 2 / 2.0) * (dpm1 + m1 * eff)

    lo, hi = bound(b_lo), bound(b_hi)
    return (lo, hi) if lo <= hi else (hi, lo)


def hn_bounds_path(surface, pc, effect, quad=None):
    """Path-based CV bound for a uniform income effect level."""
    quad = quad or DEFAULT_QUAD
    dp = _own_delta(surface, pc)
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    return _path_bound(dp, t, w, _on_path(surface, pc, 1, t)[0][0], effect)


@dataclass(frozen=True)
class ChebyshevBounds:
    lower: float
    upper: float
    coverage_note: str


COMPENSATION_LEVELS = 8  # levels s on which chebyshev_bounds averages the income effect


def chebyshev_bounds(surface, pc, b_lo, b_hi, z, k, quad=None):
    """Probability-tightened CV bounds from the observed average income effect.

    The average income effect along the price path (over compensation
    levels s) bounds how much probability mass the income-effect
    distribution can place beyond the thresholds z (for the lower bound)
    and k (for the upper bound); the result mixes the worst-case path
    bounds accordingly.  Thresholds at the support endpoints reproduce
    the worst-case bounds exactly; the interior tightenings carry a
    coverage probability rather than an almost-sure guarantee.
    """
    quad = quad or DEFAULT_QUAD
    if not (b_lo <= z <= b_hi and b_lo <= k <= b_hi):
        raise ValueError("thresholds must lie inside the income-effect support")
    dp = _own_delta(surface, pc)
    if dp <= 0.0:
        raise ValueError("probability-tightened bounds require a price increase")

    # one batch of mean demand on the path serves all four path bounds
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    m1 = _on_path(surface, pc, 1, t)[0][0]
    worst_lo = _path_bound(dp, t, w, m1, b_lo)
    worst_hi = _path_bound(dp, t, w, m1, b_hi)

    # Mean income effect over the (path time, compensation level) rectangle.
    # One batch over the grid, path time outer and compensation level inner.
    s_grid = np.linspace(0.0, max(worst_hi, 0.0), COMPENSATION_LEVELS)
    d_income = _on_path(surface, pc, 1, np.repeat(t, len(s_grid)), np.tile(s_grid, len(t)))[2]
    sup_b, inf_b = float(np.max(d_income[0])), float(np.min(d_income[0]))

    eps = 1e-12
    if k <= b_lo + eps:
        pi_u = 1.0  # every income effect clears the support floor
    else:
        pi_u = min(max((sup_b - k) / b_hi, 0.0), 1.0) if b_hi > 0 else 0.0
    if z >= b_hi - eps:
        pi_l = 0.0  # no mass can be claimed above the support ceiling
    else:
        pi_l = min(max(inf_b / z, 0.0), 1.0) if z > 0 else 1.0

    lower = pi_l * _path_bound(dp, t, w, m1, z) + (1.0 - pi_l) * worst_lo
    upper = pi_u * worst_hi + (1.0 - pi_u) * _path_bound(dp, t, w, m1, k)
    note = ("Pr[inf effect >= %.4g] <= %.4f; Pr[sup effect >= %.4g] >= %.4f"
            % (z, pi_l, k, pi_u))
    return ChebyshevBounds(lower=float(lower), upper=float(upper), coverage_note=note)


VARIANCE_KINDS = ("robust", "additive_separable", "first_order")


def cv_variance(surface, pc, kind="robust"):
    """Approximate variance of the CV across the population.

    ``robust`` uses the second-order approximations of the first two CV
    moments; ``additive_separable`` is exact only when heterogeneity is
    an additive demand shifter; ``first_order`` scales the demand
    variance by the squared price change.
    """
    if kind not in VARIANCE_KINDS:
        raise ValueError("kind must be one of %s" % (VARIANCE_KINDS,))
    dp = _own_delta(surface, pc)
    b0 = pc.start
    m1 = surface.moment(1, b0)
    m2 = surface.moment(2, b0)
    if kind == "first_order":
        return dp ** 2 * (m2 - m1 ** 2)
    dpm1 = surface.d_price(1, b0)
    dym1 = surface.d_income(1, b0)
    if kind == "additive_separable":
        first = m2 + dp * (m1 * dpm1 + m2 * dym1)
        second = m1 + (dp / 2.0) * (dpm1 + m1 * dym1)
        return dp ** 2 * (first - second ** 2)
    if surface.max_order < 3:
        raise OrderError("robust variance needs moment orders up to 3")
    dpm2 = surface.d_price(2, b0)
    dym2 = surface.d_income(2, b0)
    dym3 = surface.d_income(3, b0)
    first = m2 + (dp / 2.0) * (dpm2 + (2.0 / 3.0) * dym3)
    second = m1 + (dp / 2.0) * (dpm1 + 0.5 * dym2)
    return dp ** 2 * (first - second ** 2)


@dataclass(frozen=True)
class CvDecomposition:
    """Second-order CV contribution split into four channels.

    a1: homothetic representative agent; a2: non-homothetic adjustment
    of that agent; a3: heterogeneity with homothetic types; a4: joint
    heterogeneity/non-homotheticity remainder.
    """

    a1: float
    a2: float
    a3: float
    a4: float

    @property
    def total(self):
        return self.a1 + self.a2 + self.a3 + self.a4


def cv_decompose(surface, pc):
    """Decompose the second-order CV contribution; enforces its sum identity."""
    dp = _own_delta(surface, pc)
    b0 = pc.start
    y = b0.income
    m1 = surface.moment(1, b0)
    m2 = surface.moment(2, b0)
    dpm1 = surface.d_price(1, b0)
    dym1 = surface.d_income(1, b0)
    dym2 = surface.d_income(2, b0)
    half = dp ** 2 / 2.0
    a1 = half * (dpm1 + m1 ** 2 / y)
    a2 = half * (m1 * dym1 - m1 ** 2 / y)
    a3 = half * (m2 - m1 ** 2) / y
    a4 = half * (0.5 * dym2 - m1 * dym1 - (m2 - m1 ** 2) / y)
    dec = CvDecomposition(a1, a2, a3, a4)
    target = half * (dpm1 + 0.5 * dym2)
    if abs(dec.total - target) > 1e-10 * max(1.0, abs(target)):
        raise InternalConsistencyError(
            "CV decomposition sums to %.3e, expected %.3e" % (dec.total, target))
    return dec


def price_index(share_surface, dlogp, b):
    """Second-order approximation to the average compensated price index.

    Interpreted as the proportional compensated expenditure change
    (e(p1, v0) - y) / y for a log price change of the modeled good.
    """
    if share_surface.max_order < 2:
        raise OrderError("price index needs share orders up to 2")
    w1 = share_surface.moment(1, b)
    w2 = share_surface.moment(2, b)
    second = (share_surface.d_logp(1, b)
              + 0.5 * share_surface.d_logy(2, b)
              + w2)
    return w1 * dlogp + (dlogp ** 2 / 2.0) * second


@dataclass(frozen=True)
class PriceIndexDecomposition:
    a1: float
    a2: float
    a3: float
    a4: float
    homotheticity_correction: dict = field(default_factory=dict)

    @property
    def total(self):
        return self.a1 + self.a2 + self.a3 + self.a4


def price_index_decompose(share_surface, dlogp, b):
    """Split the index's second-order term into homotheticity/heterogeneity channels.

    Also reports the log-income derivative of the representative-agent
    part (first order plus a1 + a2) and of the heterogeneity part
    (a3 + a4), by central differences in log income.
    """
    if share_surface.max_order < 2:
        raise OrderError("price index decomposition needs share orders up to 2")

    def parts(budget):
        w1 = share_surface.moment(1, budget)
        w2 = share_surface.moment(2, budget)
        half = dlogp ** 2 / 2.0
        a1 = half * (share_surface.d_logp(1, budget) + w1 ** 2)
        a2 = half * (w1 * share_surface.d_logy(1, budget))
        a3 = half * (w2 - w1 ** 2)
        a4 = half * (0.5 * (share_surface.d_logy(2, budget)
                            - 2.0 * w1 * share_surface.d_logy(1, budget)))
        ra = w1 * dlogp + a1 + a2
        het = a3 + a4
        return a1, a2, a3, a4, ra, het

    a1, a2, a3, a4, _, _ = parts(b)
    target = price_index(share_surface, dlogp, b) - share_surface.moment(1, b) * dlogp
    total = a1 + a2 + a3 + a4
    if abs(total - target) > 1e-10 * max(1.0, abs(target)):
        raise InternalConsistencyError(
            "price index decomposition sums to %.3e, expected %.3e" % (total, target))

    # log-income derivative of the assembled RA and heterogeneity parts
    y = b.income
    h = FD_STEP * max(1.0, abs(np.log(y)))
    up, dn = b.with_income(y * np.exp(h)), b.with_income(y * np.exp(-h))
    *_, ra_up, het_up = parts(up)
    *_, ra_dn, het_dn = parts(dn)
    correction = {
        "ra": (ra_up - ra_dn) / (2.0 * h),
        "heterogeneity": (het_up - het_dn) / (2.0 * h),
    }
    return PriceIndexDecomposition(a1, a2, a3, a4, correction)


def tax_deadweight(surface, b, tau, dtau_dtheta):
    """Efficiency effect of a marginal perturbation of a linear tax rate."""
    slope = (surface.d_price(1, b)
             + 0.5 * surface.d_income(2, b)
             - surface.d_income(1, b))
    return slope * tau * dtau_dtheta


@dataclass(frozen=True)
class CompensatedJacobian:
    matrix: np.ndarray
    max_eigenvalue: float


def compensated_jacobian_multigood(pop, b):
    """Average compensated price Jacobian by symmetrizing observable moments.

    Equals (J + J^T + d/dy E[q q^T]) / 2 from ``pop.jacobian(b)`` = J and
    ``pop.d_income_second(b)``, as on a Cobb-Douglas population; symmetric
    by construction, and negative semidefinite for rational populations
    (largest eigenvalue reported as a diagnostic).
    """
    jac = np.asarray(pop.jacobian(b), dtype=float)
    dm2 = np.asarray(pop.d_income_second(b), dtype=float)
    if jac.shape != dm2.shape or jac.shape[0] != jac.shape[1]:
        raise ShapeError("multigood moment matrices must be square and conformable")
    sym = 0.5 * (jac + jac.T + dm2)
    sym = 0.5 * (sym + sym.T)
    return CompensatedJacobian(matrix=sym,
                               max_eigenvalue=float(np.linalg.eigvalsh(sym)[-1]))


def cv_mean_multigood(pop, pc):
    """Second-order average CV for a vector price change; reads ``pop`` as above."""
    dp = pc.delta
    m1 = np.asarray(pop.mean_vector(pc.start), dtype=float)
    if m1.shape[0] != dp.shape[0]:
        raise ShapeError("price change dimension does not match the population")
    comp = compensated_jacobian_multigood(pop, pc.start)
    return float(dp @ m1 + 0.5 * dp @ comp.matrix @ dp)


@dataclass(frozen=True)
class WelfareReport:
    """All welfare estimates for one price change, with stable JSON field names."""

    dp: float
    first_order: float
    ra: float
    robust: float
    path: float
    bounds: dict
    variance: dict
    decomposition: dict
    moments: tuple

    def to_dict(self):
        return _unsigned_zeros(vars(self))


def _unsigned_zeros(obj):
    """``obj`` with lists for tuples, and the -0.0 of a zero price change
    times a negative term written 0.0 (v + 0.0 is v for any other v)."""
    if isinstance(obj, dict):
        return {k: _unsigned_zeros(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_unsigned_zeros(v) for v in obj]
    return obj + 0.0 if isinstance(obj, float) else obj


def build_report(surface, pc, quad=None, b_lo=None, b_hi=None,
                 chebyshev_thresholds=None):
    """Assemble a full welfare report for one price change.

    Income-effect bounds default to the normal-good worst case
    [0, 1/p] for the modeled good's initial price; passing
    ``chebyshev_thresholds=(z, k)`` switches the bound kind.
    """
    quad = quad or DEFAULT_QUAD
    dp = _own_delta(surface, pc)
    b_lo = 0.0 if b_lo is None else b_lo
    b_hi = 1.0 / pc.start.price(surface.good) if b_hi is None else b_hi
    if b_lo > b_hi:
        raise ValueError("lower income-effect bound exceeds upper bound")

    robust = cv_moment_local(surface, 1, pc)
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    # one batch on the price path serves the path value and the worst-case bounds
    path_m, _, path_dy = _on_path(surface, pc, 2, t)
    if chebyshev_thresholds is not None and dp > 0:
        z, k = chebyshev_thresholds
        cheb = chebyshev_bounds(surface, pc, b_lo, b_hi, z, k, quad)
        bounds = {"lower": cheb.lower, "upper": cheb.upper, "kind": "chebyshev"}
    else:
        lo = _path_bound(dp, t, w, path_m[0], b_lo)
        hi = _path_bound(dp, t, w, path_m[0], b_hi)
        bounds = {"lower": min(lo, hi), "upper": max(lo, hi), "kind": "worst-case"}
    if bounds["lower"] > bounds["upper"]:
        bounds["lower"], bounds["upper"] = bounds["upper"], bounds["lower"]

    dec = cv_decompose(surface, pc)
    variance = {
        "robust": cv_variance(surface, pc, "robust") if surface.max_order >= 3 else None,
        "additive": cv_variance(surface, pc, "additive_separable"),
        "first_order": cv_variance(surface, pc, "first_order"),
    }
    moments = tuple(cv_moment_local(surface, n, pc)
                    for n in range(1, surface.max_order))
    return WelfareReport(
        dp=dp,
        first_order=cv_first_order(surface, pc),
        ra=cv_ra(surface, pc),
        robust=robust,
        path=_path_value(dp, t, w, path_m, path_dy),
        bounds=bounds,
        variance=variance,
        decomposition={"A1": dec.a1, "A2": dec.a2, "A3": dec.a3, "A4": dec.a4},
        moments=moments,
    )
