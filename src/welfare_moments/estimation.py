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
    FitError,
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


class BootstrapInstabilityError(RuntimeError):
    def __init__(self, failures, total):
        self.failures = failures
        super().__init__("statistic failed on %d of %d resamples" % (failures, total))


class _Rows(NamedTuple):
    """The rows that fits on a sample factor and iterate on.

    A plain sample fits all of its rows (``index`` is None).  A sample that
    ``take`` drew with a repeated index fits each distinct row once:
    ``index`` holds a position of it in the sample, ``count`` how often the
    sample holds it, and each row of a least-squares problem is scaled by
    ``root``, the square root of its count (frequency weights).
    """

    index: np.ndarray = None
    count: np.ndarray = None
    root: np.ndarray = None

    def pick(self, a, subset=slice(None)):
        """The fitted rows (of ``subset``) of ``a``, a per-sample-row array."""
        return a[subset] if self.index is None else a[self.index[subset]]

    def weigh(self, v, subset=slice(None)):
        """The fitted rows ``v`` (of ``subset``), each scaled by its root count."""
        if self.root is None:
            return v
        root = self.root[subset]
        return root[:, None] * v if v.ndim == 2 else root * v

    def spread(self, x):
        """The standard deviation over the sample of each column of ``x``,
        an array of fitted rows."""
        if self.count is None:
            return [np.std(column) for column in x.T]
        total = self.count.sum()
        return [np.sqrt(self.count @ (c - self.count @ c / total) ** 2 / total) for c in x.T]


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
    _rows: _Rows = field(default=_Rows(), init=False, repr=False, compare=False)
    # per row of a sample that take drew, its row in the sample the takes started from
    _source: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("shares", "log_prices", "log_y", "log_z"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
            if not np.isfinite(view).all():
                raise ValueError("%s holds a non-finite value" % name)
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

    def take(self, indices):
        """The sample of the rows ``indices`` (integer or boolean) select.

        Its arrays hold one row per index, repeats included, so a statistic
        that reads them sees the resample.  When an index repeats, as in a
        bootstrap resample, the sample also records each distinct row with
        its count, and fits on it run on those rows with the counts as
        frequency weights: the same estimator on fewer rows.  Rows repeat by
        their source row, so a take of a take fits each source row once.
        """
        idx = np.asarray(indices)
        sample = Dataset(self.goods, self.shares[idx], self.log_prices[idx],
                         self.log_y[idx], self.log_z[idx])
        source = (np.arange(self.n) if self._source is None else self._source)[idx]
        object.__setattr__(sample, "_source", source)
        count = np.bincount(source)
        if count.max(initial=0) > 1:
            position = np.empty(len(count), dtype=np.intp)
            position[source] = np.arange(len(source))
            held = np.flatnonzero(count)
            count = count[held].astype(float)
            object.__setattr__(sample, "_rows", _Rows(position[held], count, np.sqrt(count)))
        return sample


@dataclass(frozen=True)
class BasisSpec:
    price_degree: int = 3
    income_degree: int = 3
    include_control: bool = True

    def __post_init__(self):
        if self.price_degree < 1 or self.income_degree < 1:
            raise ValueError("polynomial degrees must be >= 1")


def _blocks(spec, n_goods):
    """The layout of theta on basis ``spec``: the slice of log price powers
    1..d of each good, then the slice of log income powers.  Entry 0 is the
    constant, and the control, when the basis has it, is the last entry."""
    p, end = spec.price_degree, 1 + n_goods * spec.price_degree
    return ([slice(1 + j * p, 1 + (j + 1) * p) for j in range(n_goods)]
            + [slice(end, end + spec.income_degree)])


@dataclass(frozen=True, eq=False)
class FirstStageFit:
    """First-stage OLS: a coefficient per column (const, log_z, then each
    good's log price) and the columns dropped at zero.  Compared and hashed
    by identity, so a sample keeps one design per first-stage object."""

    coefficients: dict
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
        return [self.theta[block].tolist() for block in _blocks(self.basis, self.n_goods)[:-1]]

    @property
    def gamma(self):
        return self.theta[_blocks(self.basis, self.n_goods)[-1]].tolist()

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
    for name, block in zip(["log_p_%s" % g for g in goods] + ["log_y"], _blocks(spec, len(goods))):
        labels += ["%s^%d" % (name, s) for s in range(1, block.stop - block.start + 1)]
    return labels + ["control"] * spec.include_control


def _basis_matrix(log_prices, log_y, spec):
    """The basis columns of ``spec`` at each row, filled into one
    Fortran-ordered array (a design's kept columns, which q overwrites, stay
    contiguous).  The control column, when the basis has one, holds 0, its
    conditional mean; a design writes the sample's residuals over it."""
    blocks = _blocks(spec, log_prices.shape[1])
    x = np.zeros((len(log_y), blocks[-1].stop + spec.include_control), order="F")
    # the constant, and the powers by running products (np.power of a
    # negative base, a log price below 0, takes pow's scalar path, about 50
    # times slower)
    x[:, 0] = 1.0
    for block, column in zip(blocks, [*log_prices.T, log_y]):
        x[:, block.start] = column
        for i in range(block.start + 1, block.stop):
            np.multiply(x[:, i - 1], column, out=x[:, i])
    return x


BLOCK_ROWS = 8192  # rows per block of the factor, of q and of each Gauss-Newton sum


def _row_blocks(n):
    return [slice(i, min(i + BLOCK_ROWS, n)) for i in range(0, n, BLOCK_ROWS)]


def _screened_qr(x, labels, what, rows=_Rows()):
    """The intercept and every varying column of ``x``: (their indices, q,
    r) of the reduced QR ``x[:, kept] = q r``, with q written over ``x``.

    R is the R of the row blocks' stacked R's (tall-skinny QR, Demmel et
    al. 2012), the whole-array R up to row signs; q is ``x R^-1`` (Bjorck
    1996's Q-less QR), written block by block over the kept columns, moved
    to the front of ``x``.  A sample with no more rows than kept columns
    raises DegenerateDataError ("<rows> rows cannot fit <kept> <what>").  A
    kept column adds no rank to the columns before it exactly when its R
    diagonal vanishes, so SingularDesignError names exactly those columns'
    labels.

    On a sample with repeated rows, ``x`` holds its distinct ``rows``: the
    screen weighs each by its count, q and r factor the scaled rows,
    sqrt(count) x = q r, and the row count and the rank threshold are the
    sample's.  With fewer distinct rows than columns, R is padded with zero
    rows to its full size, so the columns past the rank are named as on the
    repeated rows.
    """
    n = x.shape[0] if rows.count is None else int(rows.count.sum())
    spread = rows.spread(x[:, 1:]) if n else ()  # no rows: no spread to take
    kept = [0] + [i + 1 for i, s in enumerate(spread) if s >= 1e-12]
    m = len(kept)
    if n <= m:
        raise DegenerateDataError("%d rows cannot fit %d %s" % (n, m, what))
    for i, column in enumerate(kept):
        x[:, i] = x[:, column]
    blocks = _row_blocks(x.shape[0])
    for b in blocks if rows.root is not None else ():  # weighed once, for r and for q
        x[b, :m] = rows.weigh(x[b, :m], b)
    r = [np.linalg.qr(x[b, :m], mode="r") for b in blocks]
    r = r[0] if len(r) == 1 else np.linalg.qr(np.vstack(r), mode="r")
    if r.shape[0] < m:
        r = np.vstack([r, np.zeros((m - r.shape[0], m))])
    r_diag = np.abs(np.diag(r))
    collinear = np.flatnonzero(r_diag <= r_diag.max() * max(n, m) * np.finfo(float).eps)
    if collinear.size:
        raise SingularDesignError([labels[kept[i]] for i in collinear])
    r_inv = np.linalg.inv(r)
    for b in blocks:
        x[b, :m] = x[b, :m] @ r_inv
    return kept, x[:, :m], r


def _first_stage_labels(goods):
    return ["const", "log_z"] + ["log_p_%s" % g for g in goods]


def _first_stage_residuals(ds, coefficients, out):
    """``out``, with the first-stage residuals at ``coefficients`` (label ->
    coefficient) of the sample's own fitted rows written in by row blocks:
    no residual vector outlives a block."""
    rows, coef = ds._rows, [coefficients[label] for label in _first_stage_labels(ds.goods)]
    for b in _row_blocks(len(out)):
        columns = [1.0, rows.pick(ds.log_z, b), *rows.pick(ds.log_prices, b).T]
        out[b] = rows.pick(ds.log_y, b) - sum(c * column for c, column in zip(coef, columns))
    return out


def first_stage(ds):
    """OLS of log expenditure on intercept, log instrument, and log prices.

    Zero-variance price columns are dropped with coefficient zero; the rest
    are screened, factored and solved through :func:`_screened_qr`, on the
    distinct rows weighted by their counts when the sample repeats rows.
    """
    labels = _first_stage_labels(ds.goods)
    rows = ds._rows
    x = np.empty((len(rows.pick(ds.log_y)), len(labels)), order="F")
    x[:, 0], x[:, 1], x[:, 2:] = 1.0, rows.pick(ds.log_z), rows.pick(ds.log_prices)
    kept, q, r = _screened_qr(x, labels, "columns", rows)
    kept = [labels[i] for i in kept]
    fit = dict.fromkeys(labels, 0.0)  # each dropped column at zero
    # a solve, then one corrected semi-normal step (Bjorck 1996): on L0, the
    # coefficients are 1e-12 off lstsq's without it, 1e-15 with it
    coef = np.linalg.solve(r, q.T @ rows.weigh(rows.pick(ds.log_y)))
    fit.update(zip(kept, coef.tolist()))
    coef += np.linalg.solve(r, q.T @ rows.weigh(_first_stage_residuals(ds, fit, np.empty(len(q)))))
    fit.update(zip(kept, coef.tolist()))
    return FirstStageFit(fit, tuple(label for label in labels if label not in kept))


class _Design(NamedTuple):
    """The order-independent part of a share-moment fit on one sample: the
    one factor of its basis that every start and Gauss-Newton step reads."""

    active: list  # indices of the basis columns that vary over the sample
    n_columns: int
    q: np.ndarray  # sqrt(count) x = q r on the fitted rows (see _screened_qr)
    r: np.ndarray
    qtq: np.ndarray  # q'q, which every start reads
    domain: tuple  # MomentFit.domain


def _design(ds, basis, fs):
    """The sample's design for (basis, first stage), built on first use.

    Fixed (zero-variance) basis columns are pinned at coefficient zero, and
    the rest go through :func:`_screened_qr`; a design it refuses is not
    stored, so every call raises again.  The basis is built on the sample's
    fitted rows (its distinct rows when it repeats rows), which q overwrites;
    its control column holds those rows' first-stage residuals at ``fs``,
    whose coefficients must be finite: a NaN column would be pinned at zero
    as if it were fixed, and the fit would run without the control.
    """
    if not basis.include_control:
        fs = None  # then the first stage plays no part in the design
    design = ds._designs.get((basis, fs))
    if design is not None:
        return design
    if fs is not None:
        for label in _first_stage_labels(ds.goods):
            if not np.isfinite(fs.coefficients[label]):
                raise ValueError("first-stage coefficient %r is %r; the control column needs "
                                 "finite ones" % (label, fs.coefficients[label]))
    rows = ds._rows
    log_prices, log_y = rows.pick(ds.log_prices), rows.pick(ds.log_y)
    x = _basis_matrix(log_prices, log_y, basis)
    if fs is not None:
        _first_stage_residuals(ds, fs.coefficients, x[:, -1])
    active, q, r = _screened_qr(x, _basis_labels(ds.goods, basis), "basis columns", rows)
    columns = [*log_prices.T, log_y]
    domain = (np.array([c.min() for c in columns]), np.array([c.max() for c in columns]))
    design = _Design(active, x.shape[1], q, r, q.T @ q, domain)
    ds._designs[basis, fs] = design
    return design


# Gauss-Newton stops once a step lowers the rss by a relative amount below
# GN_MIN_DECREASE, and fails after GN_MAX_STEPS steps.
GN_MIN_DECREASE = 1e-10
GN_MAX_STEPS = 200


def fit_moment_surface(ds, good, order, basis, fs=None):
    """Fit E[w^n | b] = exp(basis . theta) by Gauss-Newton with line search.

    Initialization comes from OLS of log(w^n + 1e-6) on the basis over
    rows with positive shares; zero-share rows stay in the nonlinear fit.
    The basis, its rank check and factor come from the sample's design for
    (basis, fs), which every order and good fitted on ``ds`` shares; the
    start and every step (its sums taken over row blocks) are solved
    through that factor.  On a sample that repeats rows, the start, every
    step and the rss weigh each distinct row by its count.
    """
    if good not in ds.goods:
        raise ValueError("good %r is not one of the sample's goods %r" % (good, list(ds.goods)))
    k = ds.goods.index(good)
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
    active, n_columns, q, r, qtq, domain = _design(ds, basis, fs)
    rows = ds._rows
    w = rows.pick(w)
    target = w ** order
    # pred holds each prediction, resid the start's right-hand side, then each rss's terms
    pred, resid = np.empty_like(target), np.empty_like(target)

    # the start r^-1 (qp'qp)^-1 qp'b on q's positive-share rows qp takes
    # qp'qp as q'q less the Gram of the zero-share rows (at most 5% of them)
    zero = ~(w > 0.0)
    np.log(np.add(target, 1e-6, out=resid), out=resid)
    resid[zero] = 0.0
    zero_q = q[zero]
    theta_active = np.linalg.solve(r, np.linalg.solve(
        qtq - zero_q.T @ zero_q, q.T @ rows.weigh(resid)))

    def rss_at(th):  # writes its prediction over pred, which a step reads only for its sums
        eta = np.matmul(q, r @ th, out=pred)  # x th, times sqrt(count) on a repeated-row sample
        eta /= 1.0 if rows.root is None else rows.root
        np.exp(np.minimum(np.maximum(eta, -700.0, out=eta), 700.0, out=eta), out=eta)
        np.subtract(target, pred, out=resid)
        if rows.root is not None:
            np.multiply(resid, rows.root, out=resid)
        return float(np.sum(np.square(resid, out=resid)))

    rss = rss_at(theta_active)
    iters = 0
    jac = np.empty((min(len(q), BLOCK_ROWS), q.shape[1]), order="F")  # pred * q, by blocks
    for iters in range(1, GN_MAX_STEPS + 1):
        gram, grad_q = 0.0, 0.0
        for b in _row_blocks(len(q)):
            block = np.multiply(pred[b, None], q[b], out=jac[:b.stop - b.start])
            gram = gram + block.T @ block
            grad_q = grad_q + block.T @ rows.weigh(target[b] - pred[b], b)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise FitError("Gauss-Newton normal matrix is not positive definite",
                           theta=theta_active,
                           gradient_norm=float(np.linalg.norm(r.T @ grad_q))) from None
        step = np.linalg.solve(r, np.linalg.solve(chol.T, np.linalg.solve(chol, grad_q)))
        scale = 1.0
        improved = False
        for _ in range(40):
            cand = theta_active + scale * step
            cand_rss = rss_at(cand)
            if np.isfinite(cand_rss) and cand_rss <= rss:
                improved = True
                break
            scale /= 2.0
        if not improved:
            break
        rel_change = (rss - cand_rss) / max(rss, 1e-300)
        theta_active, rss = cand, cand_rss
        if rel_change < GN_MIN_DECREASE:
            break
    else:
        # gradient_norm is taken where the last step started
        raise FitError("Gauss-Newton did not converge in %d iterations" % GN_MAX_STEPS,
                       theta=theta_active, gradient_norm=float(np.linalg.norm(r.T @ grad_q)))

    theta = np.zeros(n_columns)
    theta[active] = theta_active
    return MomentFit(good=good, good_index=k, order=order, basis=basis,
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
    out as :func:`_blocks` gives it.  Counterfactual budgets evaluate the
    control column at zero, its conditional mean.  ``domain``
    is the (lo, hi) box of (log p_1, ..., log p_k, log y) that fitted
    coefficients were estimated on; a budget outside it raises DomainError,
    and a batch names its first such budget.
    """
    blocks = _blocks(basis, n_goods)
    own, income = blocks[good], blocks[-1]

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
        x = _basis_matrix(lp, ly, basis)
        w = np.array([np.exp(x @ thetas[n]) for n in range(1, orders + 1)])
        return (w,
                w * np.array([slope(thetas[n][own], lp[:, good]) for n in range(1, orders + 1)]),
                w * np.array([slope(thetas[n][income], ly) for n in range(1, orders + 1)]))

    return ShareMomentSurface(len(thetas), batch, good=good)


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

    Replicate r resamples rows with the stream seeded by (seed, r), so its
    draw does not depend on the replicates before it.  Fits on a resample
    (``ds.take``) run on its distinct rows, about 63% of n, weighted by
    their counts: the multinomial-weight view of the bootstrap (Efron &
    Tibshirani 1993).
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
