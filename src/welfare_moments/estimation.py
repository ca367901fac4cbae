"""Semiparametric estimation of budget-share moments from cross-sections.

The pipeline mirrors standard practice for household budget surveys:
an OLS first stage regresses log expenditure on a log income instrument
and log prices (control function for endogenous expenditure), then each
share moment E[w^n | b] is fitted as the exponential of a polynomial in
log prices and log expenditure by nonlinear least squares, which keeps
fitted moments positive by construction.  Analytic derivatives of the
exponential-polynomial give the moment partials consumed by the welfare
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DomainError,
    MomentSurface,
    OrderError,
    ShareMomentSurface,
    quantity_surface_from_shares,
)


class SingularDesignError(ValueError):
    """The regression design matrix is rank deficient."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__("collinear design columns: %s" % ", ".join(self.columns))


class DegenerateDataError(ValueError):
    """Share data cannot support the requested fit."""


class FitError(RuntimeError):
    """Gauss-Newton failed to converge; carries the last iterate."""

    def __init__(self, message, theta=None, gradient_norm=None):
        super().__init__(message)
        self.theta = theta
        self.gradient_norm = gradient_norm


class BootstrapInstabilityError(RuntimeError):
    def __init__(self, failures, total):
        self.failures = failures
        super().__init__("statistic failed on %d of %d resamples" % (failures, total))


@dataclass(frozen=True)
class Dataset:
    """Cross-section of budget shares, log prices, log expenditure, log instrument.

    The arrays are stored as read-only views (the caller's own arrays keep
    their flags), so an in-place write through a dataset raises ValueError.
    Each sample keeps the regression designs fitted on it, one per (basis,
    first stage), in ``_designs``: every moment order and good of the sample
    shares one basis, rank check and QR.  ``take`` starts with none.
    """

    goods: tuple
    shares: np.ndarray
    log_prices: np.ndarray
    log_y: np.ndarray
    log_z: np.ndarray
    _designs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("shares", "log_prices", "log_y", "log_z"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        n = len(self.log_y)
        if self.shares.shape != (n, len(self.goods)):
            raise ValueError("share matrix shape mismatch")
        if self.log_prices.shape != (n, len(self.goods)):
            raise ValueError("log price matrix shape mismatch")
        if len(self.log_z) != n:
            raise ValueError("instrument length mismatch")

    @property
    def n(self):
        return len(self.log_y)

    def good_index(self, good):
        if isinstance(good, str):
            return self.goods.index(good)
        return int(good)

    def take(self, indices):
        idx = np.asarray(indices)
        return Dataset(self.goods, self.shares[idx], self.log_prices[idx],
                       self.log_y[idx], self.log_z[idx])


@dataclass(frozen=True)
class BasisSpec:
    price_degree: int = 3
    income_degree: int = 3
    include_control: bool = True

    def __post_init__(self):
        if self.price_degree < 1 or self.income_degree < 1:
            raise ValueError("polynomial degrees must be >= 1")


@dataclass(frozen=True, eq=False)
class FirstStageFit:
    """First-stage OLS; compared and hashed by identity, so a sample keeps
    one design per first-stage object."""

    coefficients: dict
    residuals: np.ndarray
    dropped: tuple = ()


@dataclass(frozen=True)
class BootstrapConfig:
    replications: int = 200
    level: float = 0.90
    seed: int = 0

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 bootstrap replications")
        if not 0.0 < self.level < 1.0:
            raise ValueError("confidence level must lie in (0, 1)")


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    lower: float
    upper: float


@dataclass
class MomentFit:
    """Fitted exponential-polynomial for one good and moment order."""

    good: str
    good_index: int
    order: int
    basis: BasisSpec
    n_goods: int
    theta: np.ndarray
    rss: float
    iters: int
    # (min, max) over the estimation sample of each log price column, then
    # of log expenditure: the region the fit may be evaluated on
    domain: tuple

    @property
    def alpha(self):
        return float(self.theta[0])

    @property
    def beta(self):
        p = self.basis.price_degree
        out = []
        for j in range(self.n_goods):
            start = 1 + j * p
            out.append([float(v) for v in self.theta[start:start + p]])
        return out

    @property
    def gamma(self):
        start = 1 + self.n_goods * self.basis.price_degree
        return [float(v) for v in self.theta[start:start + self.basis.income_degree]]

    @property
    def control(self):
        if not self.basis.include_control:
            return None
        return float(self.theta[-1])

    def to_dict(self):
        return {
            "good": self.good,
            "order": self.order,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "control": self.control,
            "rss": self.rss,
            "iters": self.iters,
        }


def _basis_labels(goods, spec):
    labels = ["const"]
    for g in goods:
        labels += ["log_p_%s^%d" % (g, s) for s in range(1, spec.price_degree + 1)]
    labels += ["log_y^%d" % s for s in range(1, spec.income_degree + 1)]
    if spec.include_control:
        labels.append("control")
    return labels


def _basis_matrix(log_prices, log_y, control, spec):
    n = len(log_y)
    cols = [np.ones(n)]
    for j in range(log_prices.shape[1]):
        for s in range(1, spec.price_degree + 1):
            cols.append(log_prices[:, j] ** s)
    for s in range(1, spec.income_degree + 1):
        cols.append(log_y ** s)
    if spec.include_control:
        cols.append(control if control is not None else np.zeros(n))
    return np.column_stack(cols)


def _collinear_columns(x, labels):
    """Name columns that do not add rank, scanning left to right."""
    bad = []
    kept = np.empty((x.shape[0], 0))
    for i in range(x.shape[1]):
        cand = np.column_stack([kept, x[:, i]])
        if np.linalg.matrix_rank(cand) > kept.shape[1]:
            kept = cand
        else:
            bad.append(labels[i])
    return bad


def first_stage(ds):
    """OLS of log expenditure on intercept, log instrument, and log prices.

    Zero-variance price columns are dropped with coefficient zero; a rank
    deficient design raises SingularDesignError naming the columns.
    """
    labels = ["const", "log_z"] + ["log_p_%s" % g for g in ds.goods]
    x = np.column_stack([np.ones(ds.n), ds.log_z, ds.log_prices])
    keep, dropped = [0], []
    for i in range(1, x.shape[1]):
        if np.std(x[:, i]) < 1e-12:
            dropped.append(labels[i])
        else:
            keep.append(i)
    design = x[:, keep]
    if ds.n <= design.shape[1] or np.linalg.matrix_rank(design) < design.shape[1]:
        raise SingularDesignError(_collinear_columns(x, labels) or labels[1:])
    coef, *_ = np.linalg.lstsq(design, ds.log_y, rcond=None)
    residuals = ds.log_y - design @ coef
    full = dict.fromkeys(labels, 0.0)
    for pos, i in enumerate(keep):
        full[labels[i]] = float(coef[pos])
    return FirstStageFit(coefficients=full, residuals=residuals, dropped=tuple(dropped))


class _Design(NamedTuple):
    """The order-independent part of a share-moment fit on one sample."""

    x: np.ndarray  # basis columns that vary over the sample
    active: list  # their indices among all basis columns
    n_columns: int
    q: np.ndarray  # x = q r
    r: np.ndarray
    domain: tuple  # MomentFit.domain


def _design(ds, basis, fs):
    """The sample's design for (basis, first stage), built on first use.

    A rank deficient basis raises SingularDesignError naming the collinear
    columns; nothing is stored then, so every call raises again.
    """
    if not basis.include_control:
        fs = None  # then the first stage plays no part in the design
    design = ds._designs.get((basis, fs))
    if design is not None:
        return design
    x_full = _basis_matrix(ds.log_prices, ds.log_y, None if fs is None else fs.residuals, basis)

    # fixed (zero-variance) columns are pinned at coefficient zero
    active = [0] + [i for i in range(1, x_full.shape[1]) if np.std(x_full[:, i]) >= 1e-12]
    x = x_full[:, active]
    q, r = np.linalg.qr(x)
    r_diag = np.abs(np.diag(r))
    if r_diag.min() <= r_diag.max() * max(x.shape) * np.finfo(float).eps:
        labels = _basis_labels(ds.goods, basis)
        active_labels = [labels[i] for i in active]
        raise SingularDesignError(_collinear_columns(x, active_labels) or active_labels)
    region = np.column_stack([ds.log_prices, ds.log_y])
    design = _Design(x, active, x_full.shape[1], q, r,
                     (region.min(axis=0), region.max(axis=0)))
    ds._designs[basis, fs] = design
    return design


# Gauss-Newton stops once a step lowers the rss by a relative amount below
# GN_MIN_DECREASE, and fails after GN_MAX_STEPS steps.
GN_MIN_DECREASE = 1e-10
GN_MAX_STEPS = 200


def fit_moment_surface(ds, good, order, basis=None, fs=None):
    """Fit E[w^n | b] = exp(basis . theta) by Gauss-Newton with line search.

    Initialization comes from OLS of log(w^n + 1e-6) on the basis over
    rows with positive shares; zero-share rows stay in the nonlinear fit.
    The basis, its rank check and QR come from the sample's design for
    (basis, fs), which every order and good fitted on ``ds`` shares.
    """
    basis = basis or BasisSpec()
    k = ds.good_index(good)
    w = ds.shares[:, k]
    if np.all(w == 0.0):
        raise DegenerateDataError("all shares are zero for good %r" % (good,))
    pos_rate = float(np.mean(w > 0.0))
    if pos_rate < 0.95:
        raise DegenerateDataError(
            "only %.1f%% of shares are strictly positive for good %r" % (100 * pos_rate, good))
    if basis.include_control and fs is None:
        raise ValueError("control-function basis needs a first-stage fit")
    # Each step solves min |pred * (x s) - resid| through x = q r: the normal
    # matrix of pred * q has cond <= (max pred / min pred)^2, so the basis'
    # own conditioning is never squared.
    x, active, n_columns, q, r, domain = _design(ds, basis, fs)
    target = w ** order

    pos = w > 0.0
    theta_active, *_ = np.linalg.lstsq(x[pos], np.log(target[pos] + 1e-6), rcond=None)

    def predict(th):
        return np.exp(np.clip(x @ th, -700.0, 700.0))

    pred = predict(theta_active)
    rss = float(np.sum((target - pred) ** 2))
    iters = 0
    for iters in range(1, GN_MAX_STEPS + 1):
        jac_q = pred[:, None] * q
        resid = target - pred
        grad_q = jac_q.T @ resid
        grad_norm = float(np.linalg.norm(r.T @ grad_q))
        try:
            chol = np.linalg.cholesky(jac_q.T @ jac_q)
        except np.linalg.LinAlgError:
            raise FitError("Gauss-Newton normal matrix is not positive definite",
                           theta=theta_active, gradient_norm=grad_norm) from None
        step = np.linalg.solve(r, np.linalg.solve(chol.T, np.linalg.solve(chol, grad_q)))
        scale = 1.0
        improved = False
        for _ in range(40):
            cand = theta_active + scale * step
            cand_pred = predict(cand)
            cand_rss = float(np.sum((target - cand_pred) ** 2))
            if np.isfinite(cand_rss) and cand_rss <= rss:
                improved = True
                break
            scale /= 2.0
        if not improved:
            break
        rel_change = (rss - cand_rss) / max(rss, 1e-300)
        theta_active, pred, rss = cand, cand_pred, cand_rss
        if rel_change < GN_MIN_DECREASE:
            break
    else:
        raise FitError("Gauss-Newton did not converge in %d iterations" % GN_MAX_STEPS,
                       theta=theta_active, gradient_norm=grad_norm)

    theta = np.zeros(n_columns)
    theta[active] = theta_active
    name = good if isinstance(good, str) else ds.goods[k]
    return MomentFit(good=name, good_index=k, order=order, basis=basis,
                     n_goods=len(ds.goods), theta=theta, rss=rss, iters=iters,
                     domain=domain)


@dataclass(frozen=True)
class FittedSurface:
    """Share- and quantity-space views of a set of fitted moment equations."""

    share_surface: ShareMomentSurface
    moment_surface: MomentSurface
    fits: tuple


def exp_poly_share_surface(thetas, basis, n_goods, good=0, domain=None):
    """Share moments W_n(b) = exp(x(b) . theta_n) with analytic log-derivatives
    in the own price and in income, one basis matrix per batch of budgets.

    ``thetas`` maps each moment order 1..max to a coefficient vector laid
    out like the columns of :func:`_basis_matrix`.  Counterfactual budgets
    evaluate the control column at zero, its conditional mean.  ``domain``
    is the (lo, hi) box of (log p_1, ..., log p_k, log y) that fitted
    coefficients were estimated on; a budget outside it raises DomainError,
    and a batch names its first such budget.
    """
    p_deg, y_deg = basis.price_degree, basis.income_degree
    max_order = len(thetas)

    def log_budgets(prices, incomes):
        """Log prices and incomes of m budgets, checked against the domain."""
        if prices.shape[1] != n_goods:
            raise ValueError("budget has %d prices, basis expects %d"
                             % (prices.shape[1], n_goods))
        lp, ly = np.log(prices), np.log(incomes)
        if domain is not None:
            point = np.concatenate([lp, ly[:, None]], axis=1)
            outside = ((point < domain[0]) | (point > domain[1])).any(axis=1)
            if outside.any():
                i = int(np.argmax(outside))
                raise DomainError(_outside_message(prices[i], incomes[i], domain))
        return lp, ly

    def slope(coef, x):
        # d/dx of sum_s coef[s] x^(s+1)
        return sum((s + 1) * coef[s] * x ** s for s in range(len(coef)))

    def batch(prices, incomes, orders):
        lp, ly = log_budgets(prices, incomes)
        x = _basis_matrix(lp, ly, None, basis)
        p_start, y_start = 1 + good * p_deg, 1 + n_goods * p_deg
        w = np.array([np.exp(x @ thetas[n]) for n in range(1, orders + 1)])
        return (w,
                w * np.array([slope(thetas[n][p_start:p_start + p_deg], lp[:, good])
                              for n in range(1, orders + 1)]),
                w * np.array([slope(thetas[n][y_start:y_start + y_deg], ly)
                              for n in range(1, orders + 1)]))

    return ShareMomentSurface(max_order, batch, good=good)


def _outside_message(prices, income, domain):
    lo, hi = np.exp(domain[0]), np.exp(domain[1])
    box = " x ".join("[%.6g, %.6g]" % pair for pair in zip(lo[:-1], hi[:-1]))
    return ("budget with prices %s and income %.6g lies outside the estimation "
            "sample: prices %s, income [%.6g, %.6g]"
            % (", ".join("%.6g" % p for p in prices), income, box, lo[-1], hi[-1]))


def fitted_surface(fits):
    """Assemble fitted moment equations (orders 1..max) into moment surfaces.

    The share surface is :func:`exp_poly_share_surface` of the fitted
    coefficients, restricted to the data region common to every fit; the
    quantity surface is its chain-rule image.
    """
    fits = sorted(fits, key=lambda f: f.order)
    if not fits:
        raise OrderError("no fits supplied")
    orders = [f.order for f in fits]
    if orders != list(range(1, len(fits) + 1)):
        raise OrderError("need consecutive moment orders starting at 1, got %s" % orders)
    good_idx = fits[0].good_index
    if any(f.good_index != good_idx for f in fits):
        raise ValueError("fits mix different goods")
    domain = (np.max([f.domain[0] for f in fits], axis=0),
              np.min([f.domain[1] for f in fits], axis=0))
    share = exp_poly_share_surface({f.order: f.theta for f in fits}, fits[0].basis,
                                   fits[0].n_goods, good=good_idx, domain=domain)
    quantity = quantity_surface_from_shares(share)
    return FittedSurface(share_surface=share, moment_surface=quantity,
                         fits=tuple(fits))


# What a statistic may legitimately raise on an unlucky resample; any
# other exception is a bug and propagates.
REPLICATE_ERRORS = (FitError, SingularDesignError, DegenerateDataError, DomainError,
                    np.linalg.LinAlgError, FloatingPointError)


def bootstrap(ds, statistic, cfg):
    """Percentile bootstrap over row resamples; deterministic given the seed.

    Each replicate derives its RNG stream from (seed, replicate index),
    so parallel and serial evaluation orders agree.
    """
    point = float(statistic(ds))
    values, failures = [], 0
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        idx = rng.integers(0, ds.n, size=ds.n)
        try:
            values.append(float(statistic(ds.take(idx))))
        except REPLICATE_ERRORS:
            failures += 1
    if failures > 0.10 * cfg.replications:
        raise BootstrapInstabilityError(failures, cfg.replications)
    tail = (1.0 - cfg.level) / 2.0
    lower, upper = np.quantile(values, [tail, 1.0 - tail])
    return BootstrapResult(point=point, lower=float(lower), upper=float(upper))
