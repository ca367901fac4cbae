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

from dataclasses import dataclass

import numpy as np

from .core import (
    FD_STEP,
    InternalConsistencyError,
    ShapeError,
    gauss_legendre01,
    income_effect_bounds,
    monomial_translation,
)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in [0, 1], one positive weight each; the weights sum to one."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        x, w = np.asarray(self.nodes, dtype=float), np.asarray(self.weights, dtype=float)
        if x.shape != w.shape or x.size == 0 or not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("a rule needs at least one node, each in [0, 1] with one weight")
        if not (np.all(w > 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError("weights must be positive and sum to one")

    @classmethod
    def gauss_legendre(cls, n=32):
        return cls(*map(tuple, gauss_legendre01(n)))

    def integrate(self, f):
        return float(sum(wt * f(t) for t, wt in zip(self.nodes, self.weights)))


DEFAULT_QUAD = QuadratureRule.gauss_legendre(32)


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
    """First-order approximation of the n-th compensated demand moment,
    M_n + n S_n dp with S_n the n-th Slutsky moment."""
    return surface.at(b, n)[0][n - 1] + n * monomial_translation(surface, n - 1, b) * dp


def _share_slope(share_surface, n, b):
    """The share surface's Slutsky moment: the mean of
    w^(n-1) (dw/dlogp + w dw/dlogy + w^2), from the log-derivatives of
    W_n and W_(n+1)."""
    w, d_logp, d_logy = share_surface.at(b, n, n + 1)
    return d_logp[n - 1] / n + d_logy[n] / (n + 1) + w[n]


def compensated_share_moment(share_surface, n, b, dp):
    """First-order approximation of the n-th compensated budget-share moment."""
    p0 = b.price(share_surface.good)
    return share_surface.at(b, n)[0][n - 1] + n * _share_slope(share_surface, n, b) * (dp / p0)


def cv_moment_local(surface, n, pc):
    """Second-order approximation of the n-th moment of the compensating variation:
    dp^n times the n-th compensated demand moment at the midpoint price.

    Uses only the n-th and (n+1)-st demand moments at the initial budget.
    """
    dp = pc.scalar_delta(surface.good)
    return dp ** n * compensated_moment_fo(surface, n, pc.start, dp / 2.0)


def cv_first_order(surface, pc):
    """First-order welfare effect: price change times mean demand."""
    return pc.scalar_delta(surface.good) * surface.at(pc.start, 1)[0][0]


def cv_ra(surface, pc):
    """Representative-agent welfare effect; treats mean demand as one consumer."""
    dp = pc.scalar_delta(surface.good)
    (m1, *_), (dpm1, *_), (dym1, *_) = surface.at(pc.start, 1)
    return dp * m1 + (dp ** 2 / 2.0) * (dpm1 + m1 * dym1)


def cv_path(surface, pc, quad=DEFAULT_QUAD):
    """Average CV approximated along the linear price path.

    First term integrates mean demand along the path; the second-order
    correction integrates the income derivative of the second moment
    with weight (1 - t).
    """
    dp = pc.scalar_delta(surface.good)
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    moments, _, d_income = _on_path(surface, pc, 2, t)
    return _path_value(dp, t, w, moments, d_income)


def hn_bounds_path(surface, pc, effect, quad=DEFAULT_QUAD):
    """Path-based CV bound for a uniform income effect level."""
    dp = pc.scalar_delta(surface.good)
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    return _path_bound(dp, t, w, _on_path(surface, pc, 1, t)[0][0], effect)


COMPENSATION_LEVELS = 8  # levels s on which chebyshev_bounds averages the income effect


def chebyshev_bounds(surface, pc, b_lo, b_hi, z, k, quad=DEFAULT_QUAD):
    """Probability-tightened CV bounds from the observed average income effect.

    The average income effect along the price path (over compensation
    levels s) bounds how much probability mass the income-effect
    distribution can place beyond the thresholds z (for the lower bound)
    and k (for the upper bound); the result mixes the worst-case path
    bounds accordingly.  Thresholds at the support endpoints reproduce
    the worst-case bounds exactly; the interior tightenings carry a
    coverage probability rather than an almost-sure guarantee.  Returns
    the pair (lower, upper).
    """
    if not (b_lo <= z <= b_hi and b_lo <= k <= b_hi):
        raise ValueError("thresholds must lie inside the income-effect support")
    dp = pc.scalar_delta(surface.good)
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
    return float(lower), float(upper)


def cv_variance(surface, pc):
    """Three approximations of the variance of the CV across the population.

    ``robust`` uses the second-order approximations of the first two CV
    moments, and is None on a surface without order 3; ``additive`` is
    exact only when heterogeneity is an additive demand shifter;
    ``first_order`` scales the demand variance by the squared price change.
    """
    dp = pc.scalar_delta(surface.good)
    (m1, m2, *_), (dpm1, *_), (dym1, *_) = surface.at(pc.start, 1, 2)
    first = m2 + dp * (m1 * dpm1 + m2 * dym1)
    second = m1 + (dp / 2.0) * (dpm1 + m1 * dym1)
    robust = (cv_moment_local(surface, 2, pc) - cv_moment_local(surface, 1, pc) ** 2
              if surface.max_order >= 3 else None)
    return {"robust": robust, "additive": dp ** 2 * (first - second ** 2),
            "first_order": dp ** 2 * (m2 - m1 ** 2)}


def cv_decompose(surface, pc):
    """The second-order CV contribution split into four channels, with its
    sum identity enforced.

    A1: homothetic representative agent; A2: non-homothetic adjustment
    of that agent; A3: heterogeneity with homothetic types; A4: joint
    heterogeneity/non-homotheticity remainder.
    """
    dp = pc.scalar_delta(surface.good)
    y = pc.income
    (m1, m2, *_), (dpm1, *_), (dym1, dym2, *_) = surface.at(pc.start, 1, 2)
    half = dp ** 2 / 2.0
    a1 = half * (dpm1 + m1 ** 2 / y)
    a2 = half * (m1 * dym1 - m1 ** 2 / y)
    a3 = half * (m2 - m1 ** 2) / y
    a4 = half * (0.5 * dym2 - m1 * dym1 - (m2 - m1 ** 2) / y)
    total = a1 + a2 + a3 + a4
    target = half * monomial_translation(surface, 0, pc.start)
    if abs(total - target) > 1e-10 * max(1.0, abs(target)):
        raise InternalConsistencyError(
            "CV decomposition sums to %.3e, expected %.3e" % (total, target))
    return {"A1": a1, "A2": a2, "A3": a3, "A4": a4}


def price_index(share_surface, dlogp, b):
    """Second-order approximation to the average compensated price index.

    Interpreted as the proportional compensated expenditure change
    (e(p1, v0) - y) / y for a log price change of the modeled good.
    """
    return (share_surface.at(b, 1)[0][0] * dlogp
            + (dlogp ** 2 / 2.0) * _share_slope(share_surface, 1, b))


def price_index_decompose(share_surface, dlogp, b):
    """Split the index's second-order term into homotheticity/heterogeneity
    channels A1..A4, as :func:`cv_decompose` does.

    Also reports, as ``homotheticity_correction``, the log-income
    derivative of the representative-agent part (first order plus A1 + A2)
    and of the heterogeneity part (A3 + A4), by central differences in log
    income.
    """
    def parts(budget):
        (w1, w2, *_), (dpw1, *_), (dyw1, dyw2, *_) = share_surface.at(budget, 1, 2)
        half = dlogp ** 2 / 2.0
        a1 = half * (dpw1 + w1 ** 2)
        a2 = half * (w1 * dyw1)
        a3 = half * (w2 - w1 ** 2)
        a4 = half * (0.5 * (dyw2 - 2.0 * w1 * dyw1))
        # the channels, then the RA part (first order + A1 + A2) and A3 + A4
        return a1, a2, a3, a4, w1 * dlogp + a1 + a2, a3 + a4

    a1, a2, a3, a4, _, _ = parts(b)
    target = (dlogp ** 2 / 2.0) * _share_slope(share_surface, 1, b)
    total = a1 + a2 + a3 + a4
    if abs(total - target) > 1e-10 * max(1.0, abs(target)):
        raise InternalConsistencyError(
            "price index decomposition sums to %.3e, expected %.3e" % (total, target))

    # log-income derivative of the assembled RA and heterogeneity parts
    y = b.income
    h = FD_STEP * max(1.0, abs(np.log(y)))
    *_, ra_up, het_up = parts(b.with_income(y * np.exp(h)))
    *_, ra_dn, het_dn = parts(b.with_income(y * np.exp(-h)))
    correction = {"ra": (ra_up - ra_dn) / (2.0 * h),
                  "heterogeneity": (het_up - het_dn) / (2.0 * h)}
    return {"A1": a1, "A2": a2, "A3": a3, "A4": a4, "homotheticity_correction": correction}


def tax_deadweight(surface, b, tau, dtau_dtheta):
    """Efficiency effect of a marginal perturbation of a linear tax rate."""
    slope = monomial_translation(surface, 0, b) - surface.at(b, 1)[2][0]
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


def build_report(surface, pc, quad=DEFAULT_QUAD, b_lo=None, b_hi=None,
                 chebyshev_thresholds=None):
    """Assemble a full welfare report for one price change.

    Income-effect bounds are :func:`income_effect_bounds`; passing
    ``chebyshev_thresholds=(z, k)`` switches the bounds from the worst-case
    pair to the probability-tightened one; either pair is ordered once.
    """
    dp = pc.scalar_delta(surface.good)
    b_lo, b_hi = income_effect_bounds(b_lo, b_hi, pc.start.price(surface.good))

    robust = cv_moment_local(surface, 1, pc)
    moments = (robust,) + tuple(cv_moment_local(surface, n, pc)
                                for n in range(2, surface.max_order))
    t, w = np.asarray(quad.nodes), np.asarray(quad.weights)
    # one batch on the price path serves the path value and the worst-case bounds
    path_m, _, path_dy = _on_path(surface, pc, 2, t)
    if chebyshev_thresholds is not None and dp > 0:
        pair = chebyshev_bounds(surface, pc, b_lo, b_hi, *chebyshev_thresholds, quad)
        kind = "chebyshev"
    else:
        pair, kind = [_path_bound(dp, t, w, path_m[0], b) for b in (b_lo, b_hi)], "worst-case"
    lower, upper = sorted(pair)
    bounds = {"lower": lower, "upper": upper, "kind": kind}
    return WelfareReport(
        dp=dp,
        first_order=cv_first_order(surface, pc),
        ra=cv_ra(surface, pc),
        robust=robust,
        path=_path_value(dp, t, w, path_m, path_dy),
        bounds=bounds,
        variance=cv_variance(surface, pc),
        decomposition=cv_decompose(surface, pc),
        moments=moments,
    )
