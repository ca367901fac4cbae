import math
import warnings

import numpy as np
import pytest

from welfare_moments import (
    BasisSpec,
    DomainError,
    BootstrapConfig,
    Budget,
    Dataset,
    L0,
    OrderError,
    PriceChange,
    bootstrap,
    cv_moment_local,
    first_stage,
    fit_moment_surface,
    fitted_surface,
    population_cv,
    quantity_surface_from_shares,
)
from welfare_moments import estimation
from welfare_moments.estimation import (
    BootstrapInstabilityError,
    DegenerateDataError,
    FirstStageFit,
    FitError,
    MomentFit,
    SingularDesignError,
    _basis_matrix,
    _basis_labels,
    _design,
    _screened_qr,
    exp_poly_share_surface,
)
from welfare_moments.oracle import CobbDouglasPopulation
from welfare_moments.synthetic import (
    PlantedShareModel,
    default_planted_model,
    population_cross_section,
)

from conftest import traced

NO_CONTROL = BasisSpec(include_control=False)


def first_stage_residuals(ds, fs):
    """Each sample row's first-stage residual at ``fs``, from the sample's own columns."""
    columns = [np.ones(ds.n), ds.log_z, *ds.log_prices.T]
    return ds.log_y - sum(c * column for c, column in zip(fs.coefficients.values(), columns))


def control_basis(log_prices, log_y, spec, control):
    """The basis of ``spec`` with ``control`` in its control column, as a design holds it."""
    x = _basis_matrix(log_prices, log_y, spec)
    x[:, -1] = control
    return x


def constant_dataset(n=400, w=0.4, seed=0):
    rng = np.random.default_rng(seed)
    lz = rng.uniform(0.0, 1.0, n)
    return Dataset(("q",), np.full((n, 1), w), np.zeros((n, 1)), 1.0 + 0.5 * lz, lz)


def test_first_stage_exact_relation():
    ds = constant_dataset()
    fs = first_stage(ds)
    assert fs.coefficients["const"] == pytest.approx(1.0, abs=1e-10)
    assert fs.coefficients["log_z"] == pytest.approx(0.5, abs=1e-10)
    assert fs.coefficients["log_p_q"] == 0.0
    assert "log_p_q" in fs.dropped
    assert np.max(np.abs(first_stage_residuals(ds, fs))) < 1e-10


def test_first_stage_noise_consistency():
    rng = np.random.default_rng(8)
    n = 10000
    lz = rng.uniform(0.0, 2.0, n)
    lp = rng.uniform(-0.3, 0.3, (n, 1))
    noise = rng.normal(0.0, 0.1, n)
    ly = 0.7 + 0.5 * lz + 0.2 * lp[:, 0] + noise
    ds = Dataset(("q",), np.full((n, 1), 0.4), lp, ly, lz)
    fs = first_stage(ds)
    assert fs.coefficients["log_z"] == pytest.approx(0.5, abs=0.01)
    # oracle: direct normal-equation solve
    x = np.column_stack([np.ones(n), lz, lp[:, 0]])
    direct = np.linalg.solve(x.T @ x, x.T @ ly)
    assert fs.coefficients["log_z"] == pytest.approx(direct[1], abs=1e-10)
    assert abs(np.mean(first_stage_residuals(ds, fs))) < 1e-10


def test_first_stage_singular_design():
    ds = Dataset(("a", "b", "c"), np.full((2, 3), 0.2),
                 np.arange(6, dtype=float).reshape(2, 3),
                 np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    # five columns vary over two rows: too few rows, reported before any rank test
    with pytest.raises(DegenerateDataError, match="^2 rows cannot fit 5 columns$"):
        first_stage(ds)


def test_first_stage_with_no_more_rows_than_columns_is_degenerate():
    # three rows of full rank fit const, log_z and log_p_q exactly: too few, not collinear
    ds = Dataset(("q",), np.full((3, 1), 0.2), np.array([[0.0], [0.1], [-0.1]]),
                 np.array([1.0, 1.2, 0.9]), np.array([0.5, 0.7, 0.6]))
    with pytest.raises(DegenerateDataError, match="^3 rows cannot fit 3 columns$"):
        first_stage(ds)


def test_first_stage_names_only_kept_collinear_columns():
    # log_p_b is constant, so it is dropped with coefficient zero and is not
    # one of the collinear columns; log_z is an affine image of log_p_a
    lp_a = np.random.default_rng(2).uniform(-0.3, 0.3, 50)
    ds = Dataset(("a", "b"), np.full((50, 2), 0.2), np.column_stack([lp_a, np.zeros(50)]),
                 1.0 + lp_a, 2.0 * lp_a + 1.0)
    with pytest.raises(SingularDesignError) as err:
        first_stage(ds)
    assert err.value.columns == ["log_p_a"]


def _l0_sample(n, seed=3):
    return population_cross_section(L0, n, seed=seed)


def _cd2_sample(n, seed=5):
    pop = CobbDouglasPopulation.two_type(0.3)
    return population_cross_section(pop, n, seed, goods=("food", "fuel"))


@pytest.mark.parametrize("n", [5000, 100000])
@pytest.mark.parametrize("sample", [_l0_sample, _cd2_sample], ids=["L0", "CD2(0.3)"])
def test_first_stage_matches_lstsq_oracle(sample, n):
    ds = sample(n)
    fs = first_stage(ds)
    x = np.column_stack([np.ones(ds.n), ds.log_z, ds.log_prices])
    oracle, *_ = np.linalg.lstsq(x, ds.log_y, rcond=None)
    coef = np.array(list(fs.coefficients.values()))
    assert np.linalg.norm(coef - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert np.allclose(first_stage_residuals(ds, fs), ds.log_y - x @ oracle,
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("sample", [_l0_sample, _cd2_sample], ids=["L0", "CD2(0.3)"])
def test_screened_qr_factors_the_design(sample):
    # q = x R^-1 is orthogonal to about eps cond(x); cond is about 7.5e4 on L0
    ds = sample(20000)
    x = control_basis(ds.log_prices, ds.log_y, BasisSpec(),
                      first_stage_residuals(ds, first_stage(ds)))
    kept, q, r = _screened_qr(x.copy(), _basis_labels(ds.goods, BasisSpec()), "basis columns")
    assert np.linalg.norm(q.T @ q - np.eye(len(kept))) <= 1e-10
    assert np.linalg.norm(q @ r - x[:, kept]) <= 1e-12 * np.linalg.norm(x)


def _whole_array_r(x, kept, rows=estimation._Rows()):
    """The R that one qr of every fitted row gives: the factor before row blocks."""
    scaled = x[:, kept] if rows.root is None else rows.root[:, None] * x[:, kept]
    return np.linalg.qr(scaled, mode="r")


def _assert_same_r(r, oracle):
    # R is unique up to the sign of each row
    signed = [np.sign(np.diag(a))[:, None] * a for a in (r, oracle)]
    assert np.linalg.norm(signed[0] - signed[1]) <= 1e-12 * np.linalg.norm(oracle)


def _design_basis(ds):
    rows = ds._rows
    x = control_basis(rows.pick(ds.log_prices), rows.pick(ds.log_y), BasisSpec(),
                      rows.pick(first_stage_residuals(ds, first_stage(ds))))
    return x, rows


@pytest.mark.parametrize("sample", [
    lambda: _l0_sample(20000), lambda: _cd2_sample(20000),
    lambda: _l0_sample(8191), lambda: _l0_sample(8192), lambda: _l0_sample(8193),
    lambda: _l0_sample(20000).take(np.random.default_rng([3, 0]).integers(0, 20000, 20000)),
], ids=["L0", "CD2(0.3)", "8191 rows", "8192 rows", "8193 rows", "resample"])
def test_row_block_r_matches_whole_array_qr(sample):
    ds = sample()
    x, rows = _design_basis(ds)
    kept, q, r = _screened_qr(x.copy(order="F"), _basis_labels(ds.goods, BasisSpec()),
                              "basis columns", rows)
    _assert_same_r(r, _whole_array_r(x, kept, rows))


def test_basis_powers_match_np_power():
    rng = np.random.default_rng(12)
    log_p = rng.uniform(-0.4, 0.4, (5000, 2))
    log_y = rng.uniform(-1.0, 2.0, 5000)
    spec = BasisSpec(price_degree=4, income_degree=3, include_control=False)
    x = _basis_matrix(log_p, log_y, spec)
    ref = np.column_stack([np.ones(5000)] + [log_p[:, j] ** s for j in range(2)
                                             for s in range(1, 5)]
                          + [log_y ** s for s in range(1, 4)])
    assert np.all(np.abs(x - ref) <= 4 * np.spacing(np.abs(ref)))


def test_fit_constant_shares():
    ds = constant_dataset()
    fit1 = fit_moment_surface(ds, "q", 1, NO_CONTROL)
    assert fit1.alpha == pytest.approx(np.log(0.4), abs=1e-8)
    slopes = [abs(v) for row in fit1.beta for v in row] + [abs(v) for v in fit1.gamma]
    assert max(slopes) < 1e-8
    fit2 = fit_moment_surface(ds, "q", 2, NO_CONTROL)
    assert fit2.alpha == pytest.approx(np.log(0.16), abs=1e-8)


def test_fit_degenerate_shares():
    ds = constant_dataset(w=0.0)
    with pytest.raises(DegenerateDataError):
        fit_moment_surface(ds, "q", 1, NO_CONTROL)


def test_fit_mostly_zero_shares():
    rng = np.random.default_rng(4)
    n = 400
    w = np.where(rng.uniform(size=n) < 0.5, 0.0, 0.4)
    ds = Dataset(("q",), w.reshape(-1, 1), np.zeros((n, 1)),
                 rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n))
    with pytest.raises(DegenerateDataError):
        fit_moment_surface(ds, "q", 1, NO_CONTROL)


def test_fit_planted_recovery():
    model = default_planted_model()
    ds = model.sample(20000, seed=7)
    fit = fit_moment_surface(ds, "q", 1, model.basis)
    assert np.max(np.abs(fit.theta - model.order_theta(1))) < 0.05


def fit_lstsq_reference(ds, good, order, basis, fs=None, max_iter=200, rel_tol=1e-10):
    """Reference Gauss-Newton: an SVD lstsq solve of the full Jacobian per step.

    The fit loop that fit_moment_surface used before its QR/Cholesky step,
    kept as the independent oracle; returns (theta, rss).
    """
    k = ds.goods.index(good)
    w = ds.shares[:, k]
    x_full = _basis_matrix(ds.log_prices, ds.log_y, basis)
    if basis.include_control:
        x_full[:, -1] = first_stage_residuals(ds, fs)
    active = [0] + [i for i in range(1, x_full.shape[1]) if np.std(x_full[:, i]) >= 1e-12]
    x = x_full[:, active]
    target = w ** order
    pos = w > 0.0
    theta_active, *_ = np.linalg.lstsq(x[pos], np.log(target[pos] + 1e-6), rcond=None)

    def predict(th):
        return np.exp(np.clip(x @ th, -700.0, 700.0))

    pred = predict(theta_active)
    rss = float(np.sum((target - pred) ** 2))
    for _ in range(max_iter):
        jac = pred[:, None] * x
        step, *_ = np.linalg.lstsq(jac, target - pred, rcond=None)
        scale = 1.0
        for _ in range(40):
            cand = theta_active + scale * step
            cand_pred = predict(cand)
            cand_rss = float(np.sum((target - cand_pred) ** 2))
            if np.isfinite(cand_rss) and cand_rss <= rss:
                break
            scale /= 2.0
        else:
            break
        rel_change = (rss - cand_rss) / max(rss, 1e-300)
        theta_active, pred, rss = cand, cand_pred, cand_rss
        if rel_change < rel_tol:
            break
    theta = np.zeros(x_full.shape[1])
    theta[active] = theta_active
    return theta, rss


def _l0_case():
    ds = population_cross_section(L0, 20000, seed=3)
    return ds, ["q"], BasisSpec(), first_stage(ds)


def _planted_case():
    model = default_planted_model()
    return model.sample(20000, seed=7), ["q"], model.basis, None


def _cd2_case():
    pop = CobbDouglasPopulation.two_type(0.3)
    ds = population_cross_section(pop, 20000, 5, goods=("food", "fuel"))
    return ds, ["food", "fuel"], BasisSpec(), first_stage(ds)


def _l0_zero_shares_case():
    # about 3% of the shares are zero: the OLS start reads the other rows
    ds = _l0_sample(20000)
    shares = np.where(np.random.default_rng(4).random((ds.n, 1)) < 0.03, 0.0, ds.shares)
    ds = Dataset(ds.goods, shares, ds.log_prices, ds.log_y, ds.log_z)
    return ds, ["q"], BasisSpec(), first_stage(ds)


@pytest.mark.parametrize("case", [_l0_case, _planted_case, _cd2_case, _l0_zero_shares_case],
                         ids=["L0", "planted", "CD2(0.3)", "L0-zero-shares"])
def test_fit_matches_lstsq_reference(case):
    ds, goods, basis, fs = case()
    for good in goods:
        for order in (1, 2, 3):
            fit = fit_moment_surface(ds, good, order, basis, fs)
            theta, rss = fit_lstsq_reference(ds, good, order, basis, fs)
            assert np.linalg.norm(fit.theta - theta) <= 1e-8 * np.linalg.norm(theta)
            assert fit.rss == pytest.approx(rss, rel=1e-12, abs=0.0)


def test_fit_rank_deficient_basis():
    rng = np.random.default_rng(6)
    n = 2000
    lp = rng.uniform(-0.2, 0.2, n)
    ly = rng.uniform(0.5, 1.5, n)
    ds = Dataset(("food", "fuel"), np.full((n, 2), 0.3), np.column_stack([lp, lp]),
                 ly, ly)
    # a design that fails its rank check is not kept: every call raises
    for good, order in (("food", 1), ("food", 2), ("fuel", 1)):
        with pytest.raises(SingularDesignError) as err:
            fit_moment_surface(ds, good, order, NO_CONTROL)
        assert err.value.columns == ["log_p_fuel^1", "log_p_fuel^2", "log_p_fuel^3"]


def test_sample_no_larger_than_basis_is_degenerate():
    # a reduced QR of a wide basis has only n diagonal entries, so the rank
    # check alone would pass it
    ds = population_cross_section(L0, 9, 0)
    assert fit_moment_surface(ds, "q", 1, BasisSpec(), first_stage(ds)).iters > 0
    for n in (6, 8):
        small = ds.take(np.arange(n))
        with pytest.raises(DegenerateDataError,
                           match="^%d rows cannot fit 8 basis columns" % n):
            fit_moment_surface(small, "q", 1, BasisSpec(), first_stage(small))
        assert small._designs == {}


def _count_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def _small_cd2():
    pop = CobbDouglasPopulation.two_type(0.3)
    ds = population_cross_section(pop, 4000, 5, goods=("food", "fuel"))
    return ds, first_stage(ds)


def test_orders_and_goods_of_a_sample_share_one_qr(monkeypatch):
    # the first stages take their own QR before the counter counts share designs
    ds = population_cross_section(L0, 4000, seed=3)
    fs = first_stage(ds)
    cd2, cd2_fs = _small_cd2()
    calls = _count_qr(monkeypatch)
    for order in (1, 2, 3):
        fit_moment_surface(ds, "q", order, BasisSpec(), fs)
    assert len(calls) == 1
    calls.clear()
    ds, fs = cd2, cd2_fs
    for good in ds.goods:
        for order in (1, 2, 3):
            fit_moment_surface(ds, good, order, BasisSpec(), fs)
    assert len(calls) == 1


def test_bootstrap_replicate_factors_twice_and_calls_no_lstsq(monkeypatch):
    ds = _l0_sample(5000)
    sample = ds.take(np.random.default_rng([3, 0]).integers(0, ds.n, ds.n))
    qr_calls = _count_qr(monkeypatch)
    lstsq, lstsq_calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *args, **kwargs: lstsq_calls.append(args) or lstsq(*args, **kwargs))
    fs = first_stage(sample)
    for order in (1, 2, 3):
        fit_moment_surface(sample, "q", order, BasisSpec(), fs)
    assert (len(qr_calls), len(lstsq_calls)) == (2, 0)
    # each factor is of the distinct rows: (const, log_z, log_p_q), then the basis
    distinct = len(np.unique(sample.log_z))
    assert distinct < 0.7 * ds.n
    assert qr_calls == [(distinct, 3), (distinct, 8)]


@pytest.mark.parametrize("indices", [np.arange(5000), np.arange(0, 5000, 3),
                                     np.arange(5000) % 4 > 0, np.arange(4999, -1, -2),
                                     np.array([], dtype=int)],
                         ids=["all", "every third", "mask", "reversed", "none"])
def test_take_without_repeats_is_a_plain_sample(indices):
    ds = _l0_sample(5000)
    sample = ds.take(indices)
    assert sample._rows.index is None and sample._rows.count is None


def test_a_take_of_a_take_fits_each_source_row_once():
    # the second resample repeats rows of the first, and rows of the first
    # that are one source row: each source row is one fitted row
    ds = _l0_sample(5000)
    rng = np.random.default_rng(1)
    first, second = (rng.integers(0, ds.n, ds.n) for _ in range(2))
    sample = ds.take(first).take(second)
    distinct, count = np.unique(first[second], return_counts=True)
    rows = sample._rows
    assert len(rows.index) == len(distinct) and rows.count.sum() == sample.n
    assert np.array_equal(rows.count, count)
    assert np.array_equal(rows.pick(sample.log_y), ds.log_y[distinct])


def test_shared_design_fits_equal_fresh_fits():
    ds, fs = _small_cd2()
    for good in ds.goods:
        for order in (1, 2, 3):
            fit = fit_moment_surface(ds, good, order, BasisSpec(), fs)
            fresh = fit_moment_surface(ds.take(np.arange(ds.n)), good, order,
                                       BasisSpec(), fs)
            assert np.array_equal(fit.theta, fresh.theta)
            assert (fit.rss, fit.iters) == (fresh.rss, fresh.iters)
            for got, want in zip(fit.domain, fresh.domain):
                assert np.array_equal(got, want)


def _duplicated(sample):
    """The same rows as a plain sample: no record of which rows repeat."""
    return Dataset(sample.goods, sample.shares, sample.log_prices, sample.log_y, sample.log_z)


def _outcome(ds, goods, basis=BasisSpec()):
    """The first stage and every fit of orders 1-3 on ``ds``, or the type,
    message and columns of the first exception they raise."""
    try:
        fs = first_stage(ds)
        return fs, [fit_moment_surface(ds, good, order, basis,
                                       fs if basis.include_control else None)
                    for good in goods for order in (1, 2, 3)]
    except Exception as err:
        return type(err), str(err), getattr(err, "columns", None)


def _assert_fits_match(sample, goods, basis=BasisSpec()):
    got, want = _outcome(sample, goods, basis), _outcome(_duplicated(sample), goods, basis)
    if not isinstance(want[0], FirstStageFit):
        assert got == want
        return
    (fs, fits), (fs_ref, fits_ref) = got, want
    assert list(fs.coefficients) == list(fs_ref.coefficients) and fs.dropped == fs_ref.dropped
    coef, coef_ref = (np.array(list(f.coefficients.values())) for f in (fs, fs_ref))
    assert np.max(np.abs(coef - coef_ref)) <= 1e-12
    residuals = first_stage_residuals(sample, fs) - first_stage_residuals(sample, fs_ref)
    assert np.max(np.abs(residuals)) <= 1e-12
    for fit, ref in zip(fits, fits_ref):
        assert np.linalg.norm(fit.theta - ref.theta) <= 1e-9 * np.linalg.norm(ref.theta)
        assert np.array_equal(fit.theta == 0.0, ref.theta == 0.0)
        assert fit.rss == pytest.approx(ref.rss, rel=1e-12, abs=0.0)
        assert fit.iters == ref.iters
        for got_bound, want_bound in zip(fit.domain, ref.domain):
            assert np.array_equal(got_bound, want_bound)


@pytest.mark.parametrize("case", [(_l0_sample, 5000, ("q",)),
                                  (_cd2_sample, 4000, ("food", "fuel"))],
                         ids=["L0", "CD2(0.3)"])
def test_resample_fits_equal_fits_on_the_duplicated_rows(case):
    # the resamples are bootstrap's own: each distinct row is fitted once,
    # weighted by its count, and the fit is the one on the repeated rows
    sample_of, n, goods = case
    ds, samples = sample_of(n), []
    bootstrap(ds, lambda sample: samples.append(sample) or 0.0,
              BootstrapConfig(8, 0.90, seed=9))
    assert samples[0] is ds and len(samples) == 9
    for sample in samples[1:]:
        assert sample._rows.count.sum() == sample.n > len(sample._rows.index)
        _assert_fits_match(sample, goods)


def _nine():
    return population_cross_section(L0, 9, 0)


def _constant_on_the_taken_rows():
    # log_p_q is 0.01 on rows 0-99 and varies on the others
    ds = _l0_sample(200)
    log_p = np.where(np.arange(200)[:, None] < 100, 0.01, ds.log_prices)
    return Dataset(ds.goods, ds.shares, log_p, ds.log_y, ds.log_z), np.r_[0:100, 0:50]


def _below_the_screen_by_count():
    # log_p_q is 4e-12 on rows 0-49 and 0 on rows 50-99: its spread is 2e-12
    # over these 100 distinct rows but 4e-13 over the 5050 taken ones, which
    # hold each zero row 100 times: below the 1e-12 screen
    ds = _l0_sample(200)
    log_p = np.where(np.arange(200)[:, None] < 50, 4e-12, 0.0)
    return (Dataset(ds.goods, ds.shares, log_p, ds.log_y, ds.log_z),
            np.r_[0:50, np.repeat(np.arange(50, 100), 100)])


def _take_of_a_take():
    rng = np.random.default_rng(2)
    ds = _l0_sample(300).take(rng.integers(0, 300, 300))
    return ds, rng.integers(0, 300, 300)


@pytest.mark.parametrize("case", [
    lambda: (_nine(), [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]),
    lambda: (_nine(), [0, 0, 1, 1, 2, 2, 3, 3]),
    lambda: (_nine(), [5, 5, 5, 1, 1, 1, 2, 2, 2]),
    lambda: (_nine(), [0, 0, 1, 1]),
    _constant_on_the_taken_rows,
    _below_the_screen_by_count,
    lambda: (_l0_sample(300), -1 - np.random.default_rng(3).integers(0, 300, 300)),
    lambda: (_l0_sample(300), np.random.default_rng(4).integers(0, 300, 300) % 2 == 0),
    _take_of_a_take,
], ids=["4 rows x3", "4 rows x2", "3 rows x3", "2 rows x2", "constant column",
        "screened by count", "negative", "boolean", "take of a take"])
@pytest.mark.parametrize("basis", [BasisSpec(), NO_CONTROL], ids=["control", "no control"])
def test_resample_edge_cases_match_the_duplicated_rows(case, basis):
    ds, indices = case()
    _assert_fits_match(ds.take(indices), ("q",), basis)


def test_first_stage_of_an_empty_sample_raises_without_a_warning():
    empty = _nine().take(np.array([], dtype=int))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match="^0 rows cannot fit 1 columns$"):
            first_stage(empty)


def test_resample_of_few_distinct_rows_names_the_collinear_columns():
    # 12 rows of 4 distinct ones fit 8 basis columns by row count; the
    # factor of the 4 distinct rows is padded to 8 x 8, as the rank of the
    # 12 rows would have it
    sample = _nine().take([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
    with pytest.raises(SingularDesignError) as err:
        fit_moment_surface(sample, "q", 1, BasisSpec(), first_stage(sample))
    assert err.value.columns == ["log_y^1", "log_y^2", "log_y^3", "control"]
    # the columns past the rank of the whole-array R
    x, rows = _design_basis(sample)
    assert _whole_array_r(x, list(range(8)), rows).shape == (4, 8)


def test_design_is_kept_per_first_stage_and_basis(monkeypatch):
    # the first stages take their own QR before the counter counts share designs
    ds, fs = _small_cd2()
    other_fs = first_stage(ds)
    calls = _count_qr(monkeypatch)
    fit_moment_surface(ds, "food", 1, BasisSpec(), fs)
    fit_moment_surface(ds, "fuel", 2, BasisSpec(), fs)
    assert len(calls) == 1
    fit_moment_surface(ds, "food", 1, BasisSpec(), other_fs)
    assert len(calls) == 2
    fit_moment_surface(ds, "food", 1, BasisSpec(price_degree=2), fs)
    assert len(calls) == 3
    # without a control column the first stage plays no part in the design
    fit_moment_surface(ds, "food", 1, NO_CONTROL, fs)
    fit_moment_surface(ds, "food", 2, NO_CONTROL)
    assert len(calls) == 4
    # a resample starts with no designs
    fit_moment_surface(ds.take(np.arange(ds.n)), "food", 1, BasisSpec(), fs)
    assert len(calls) == 5


def test_dataset_arrays_are_read_only():
    rng = np.random.default_rng(4)
    n = 500
    ly = rng.uniform(1.0, 1.5, n)
    ds = Dataset(("q",), rng.uniform(0.2, 0.4, (n, 1)), rng.uniform(-0.1, 0.1, (n, 1)),
                 ly, ly + rng.normal(0.0, 0.1, n))
    for arr in (ds.shares, ds.log_prices, ds.log_y, ds.log_z):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        ds.log_y[0] = 0.0
    assert ly.flags.writeable  # the caller's own array is not touched
    sub = ds.take(np.arange(0, n, 2))
    assert sub.n == n // 2 and not sub.log_y.flags.writeable
    fit = fit_moment_surface(sub, "q", 1, BasisSpec(), first_stage(sub))
    assert np.all(np.isfinite(fit.theta))


def test_fit_failed_cholesky_is_fit_error(monkeypatch):
    def not_positive_definite(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    with pytest.raises(FitError) as err:
        fit_moment_surface(constant_dataset(), "q", 1, NO_CONTROL)
    assert err.value.theta is not None


@pytest.mark.parametrize("arrays, message", [
    ((np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(3), np.zeros(3)), "share matrix"),
    ((np.zeros((3, 1)), np.zeros((2, 1)), np.zeros(3), np.zeros(3)), "log price matrix"),
    ((np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3), np.zeros(2)), "instrument length"),
], ids=["shares", "log prices", "instrument"])
def test_dataset_refuses_mismatched_shapes(arrays, message):
    with pytest.raises(ValueError, match=message + " .*mismatch"):
        Dataset(("q",), *arrays)


def test_control_basis_without_a_first_stage_is_refused():
    with pytest.raises(ValueError, match="control-function basis needs a first-stage fit"):
        fit_moment_surface(constant_dataset(), "q", 1, BasisSpec())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_control_from_a_non_finite_first_stage_is_refused(bad):
    # a NaN control column would be pinned at zero like a fixed column, and
    # the fit would run without the control and say nothing
    ds = _l0_sample(2000, seed=5)
    fs = FirstStageFit(dict(first_stage(ds).coefficients, log_z=bad))
    with pytest.raises(ValueError, match="first-stage coefficient 'log_z' is %s" % bad):
        fit_moment_surface(ds, "q", 1, BasisSpec(), fs)
    assert not ds._designs  # nothing is stored, so a later call raises again
    with pytest.raises(ValueError, match="'log_z'"):
        _design(ds, BasisSpec(), fs)


@pytest.mark.parametrize("good", ["x", 0])
def test_fit_refuses_a_good_the_sample_does_not_name(good):
    # goods are given by name, so an index is refused like an unknown name
    with pytest.raises(ValueError, match=r"good %r is not one of the sample's goods \['q'\]"
                       % (good,)):
        fit_moment_surface(constant_dataset(), good, 1, NO_CONTROL)


def test_fit_out_of_steps_is_fit_error_with_its_iterate(monkeypatch):
    monkeypatch.setattr(estimation, "GN_MAX_STEPS", 1)
    ds = _l0_sample(5000)
    with pytest.raises(FitError, match="did not converge in 1 iterations") as err:
        fit_moment_surface(ds, "q", 2, BasisSpec(), first_stage(ds))
    assert np.all(np.isfinite(err.value.theta))
    assert math.isfinite(err.value.gradient_norm)


def test_fit_stops_where_no_step_lowers_the_rss(monkeypatch):
    # a degree-8 income polynomial on 40 rows is so ill-conditioned that
    # rounding leaves Gauss-Newton a step that no halving of the line search
    # turns into a lower rss; with no minimum decrease, that line search is
    # the one stop left, and it stops where the default stops, at a finite fit
    ds, spec = _l0_sample(40), BasisSpec(1, 8, include_control=False)
    fit = fit_moment_surface(ds, "q", 3, spec)
    monkeypatch.setattr(estimation, "GN_MIN_DECREASE", 0.0)
    stopped = fit_moment_surface(ds, "q", 3, spec)
    assert np.array_equal(stopped.theta, fit.theta) and stopped.rss == fit.rss
    assert stopped.iters == fit.iters < estimation.GN_MAX_STEPS
    assert math.isfinite(fit.rss) and np.all(np.isfinite(fit.theta))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["NaN", "infinity"])
@pytest.mark.parametrize("name", ["shares", "log_prices", "log_y", "log_z"])
def test_dataset_refuses_a_non_finite_value(name, bad):
    ds = _l0_sample(50)
    names = ("shares", "log_prices", "log_y", "log_z")
    arrays = {key: np.array(getattr(ds, key)) for key in names}
    arrays[name][7] = bad
    with pytest.raises(ValueError, match="^%s holds a non-finite value$" % name):
        Dataset(ds.goods, **arrays)


def test_a_take_fits_on_its_own_first_stage_residuals(monkeypatch):
    # the control column of a fit holds the fitted rows' own residuals at the
    # given first stage's coefficients, so rows taken from a sample fit alike
    # in either order
    a = population_cross_section(L0, 2000, 5)
    fs, controls = first_stage(a), []
    screened_qr = estimation._screened_qr
    monkeypatch.setattr(estimation, "_screened_qr",
                        lambda x, *args: controls.append(x[:, -1].copy()) or screened_qr(x, *args))
    fits = []
    for index in (np.arange(1000, 2000), np.arange(1999, 999, -1)):
        sample = a.take(index)
        fits.append([fit_moment_surface(sample, "q", n, BasisSpec(), fs) for n in (1, 2, 3)])
        assert np.allclose(controls[-1], first_stage_residuals(sample, fs), rtol=0.0, atol=1e-12)
    for fit, reverse in zip(*fits):
        assert np.linalg.norm(fit.theta - reverse.theta) <= 1e-10 * np.linalg.norm(fit.theta)
    assert fits[0][0].control == pytest.approx(-0.59524801935219, rel=1e-10)


def test_fitted_surface_refuses_a_budget_of_other_goods():
    ds = constant_dataset()
    surface = fitted_surface([fit_moment_surface(ds, "q", 1, NO_CONTROL)]).share_surface
    with pytest.raises(ValueError, match="budget has 2 prices, basis expects 1"):
        surface.moment(1, Budget((1.0, 1.0), 3.0))


def test_fitted_surface_needs_fits_of_one_good():
    with pytest.raises(OrderError, match="no fits supplied"):
        fitted_surface([])
    ds = _cd2_sample(2000)
    fits = [fit_moment_surface(ds, "food", 1, NO_CONTROL),
            fit_moment_surface(ds, "fuel", 2, NO_CONTROL)]
    with pytest.raises(ValueError, match="fits mix different goods"):
        fitted_surface(fits)


def test_fitted_surface_refuses_budgets_outside_sample():
    ds = constant_dataset()  # log prices all 0, log income in [1, 1.5]
    fits = [fit_moment_surface(ds, "q", n, NO_CONTROL) for n in (1, 2, 3)]
    surface = fitted_surface(fits)
    lo, hi = np.exp(ds.log_y.min()), np.exp(ds.log_y.max())
    for b in (Budget((1.0,), 1.0001 * lo), Budget((1.0,), 0.9999 * hi)):
        assert surface.moment_surface.moment(1, b) > 0.0
    for b in (Budget((1.0,), 0.999 * lo), Budget((1.0,), 1.001 * hi),
              Budget((1.01,), 3.0)):
        with pytest.raises(DomainError, match="outside the estimation sample"):
            surface.share_surface.moment(1, b)
        with pytest.raises(DomainError):
            surface.moment_surface.d_income(1, b)


def test_fitted_surface_domain_is_common_to_all_fits():
    model = default_planted_model()
    ds = model.sample(4000, seed=3)
    low = ds.take(np.flatnonzero(ds.log_y < np.median(ds.log_y)))
    fits = [fit_moment_surface(ds, "q", 1, model.basis),
            fit_moment_surface(low, "q", 2, model.basis),
            fit_moment_surface(ds, "q", 3, model.basis)]
    surface = fitted_surface(fits).share_surface
    p = float(np.exp(np.median(ds.log_prices)))
    surface.moment(1, Budget((p,), float(np.exp(low.log_y.max()))))
    with pytest.raises(DomainError):
        surface.moment(1, Budget((p,), float(np.exp(ds.log_y.max()))))
    # the planted model's own surface has no sample and no domain
    assert model.share_surface().moment(1, Budget((p,), 100.0)) > 0.0


def test_fit_to_dict_fields():
    fit = fit_moment_surface(constant_dataset(), "q", 1, NO_CONTROL)
    payload = fit.to_dict()
    assert sorted(payload) == ["alpha", "beta", "control", "gamma", "good",
                               "iters", "order", "rss"]
    assert payload["control"] is None
    assert payload["good"] == "q"


@pytest.mark.parametrize("control", [True, False], ids=["control", "no control"])
@pytest.mark.parametrize("degrees", [(1, 1), (3, 3), (4, 2)], ids=["1,1", "3,3", "4,2"])
@pytest.mark.parametrize("goods", [("q",), ("food", "fuel")], ids=["one good", "two goods"])
def test_theta_layout_is_read_alike_everywhere(goods, degrees, control):
    spec, (p, y), k = BasisSpec(*degrees, include_control=control), degrees, len(goods)
    labels = _basis_labels(goods, spec)
    assert labels == (["const"] + ["log_p_%s^%d" % (g, s) for g in goods for s in range(1, p + 1)]
                      + ["log_y^%d" % s for s in range(1, y + 1)] + ["control"] * control)
    # each basis column is the power its label names; the control holds 0,
    # its conditional mean, until a design writes a sample's residuals there
    rng = np.random.default_rng(4)
    log_p, log_y = rng.uniform(0.5, 1.5, (6, k)), rng.uniform(0.5, 1.5, 6)
    column = {"const": np.ones(6), "control": np.zeros(6)}
    column.update(("log_p_%s^%d" % (g, s), log_p[:, j] ** s)
                  for j, g in enumerate(goods) for s in range(1, p + 1))
    column.update(("log_y^%d" % s, log_y ** s) for s in range(1, y + 1))
    x = _basis_matrix(log_p, log_y, spec)
    assert x.shape == (6, len(labels))
    for i, label in enumerate(labels):
        assert np.allclose(x[:, i], column[label], rtol=1e-14, atol=0.0), label
    # theta entry i is i: to_dict holds each entry once, in label order
    theta = np.arange(len(labels), dtype=float)
    fit = MomentFit(goods[0], 0, 1, spec, k, theta, 0.0, 0, None).to_dict()
    coefficients = [fit["alpha"], *(v for row in fit["beta"] for v in row), *fit["gamma"]]
    assert coefficients + [fit["control"]] * control == theta.tolist()
    assert (fit["control"] is None) == (not control)
    assert labels[int(fit["alpha"])] == "const"
    assert [[labels[int(v)] for v in row] for row in fit["beta"]] \
        == [["log_p_%s^%d" % (g, s) for s in range(1, p + 1)] for g in goods]
    assert [labels[int(v)] for v in fit["gamma"]] == ["log_y^%d" % s for s in range(1, y + 1)]
    # a planted model of those fields lays its theta out alike (its noise
    # factor at order 1 is 1)
    planted = PlantedShareModel(fit["alpha"], fit["beta"], fit["gamma"], goods=goods)
    assert planted.order_theta(1).tolist() == coefficients
    # the surface's own-price and income slopes read the same entries
    theta = rng.uniform(-0.3, 0.3, len(labels))
    b = Budget(tuple(np.exp(log_p[0])), float(np.exp(log_y[0])))
    d_log_y = sum(s * theta[labels.index("log_y^%d" % s)] * log_y[0] ** (s - 1)
                  for s in range(1, y + 1))
    for j, g in enumerate(goods):
        d_log_p = sum(s * theta[labels.index("log_p_%s^%d" % (g, s))] * log_p[0, j] ** (s - 1)
                      for s in range(1, p + 1))
        surface = exp_poly_share_surface({1: theta}, spec, k, good=j)
        w = surface.moment(1, b)
        assert surface.d_logp(1, b) == pytest.approx(w * d_log_p, rel=1e-12)
        assert surface.d_logy(1, b) == pytest.approx(w * d_log_y, rel=1e-12)


def test_fitted_surface_constant_derivatives():
    ds = constant_dataset()
    fits = [fit_moment_surface(ds, "q", n, NO_CONTROL) for n in (1, 2, 3)]
    fs = fitted_surface(fits)
    b = Budget((1.0,), 3.0)  # log income of the sample lies in [1, 1.5]
    assert fs.share_surface.d_logp(1, b) == pytest.approx(0.0, abs=1e-8)
    assert fs.share_surface.d_logy(1, b) == pytest.approx(0.0, abs=1e-8)
    assert fs.share_surface.moment(1, b) == pytest.approx(0.4, abs=1e-6)


def test_fitted_surface_missing_order():
    ds = constant_dataset()
    fit1 = fit_moment_surface(ds, "q", 1, NO_CONTROL)
    fit3 = fit_moment_surface(ds, "q", 3, NO_CONTROL)
    from welfare_moments import OrderError
    with pytest.raises(OrderError):
        fitted_surface([fit1, fit3])


def test_fitted_surface_order_overflow():
    ds = constant_dataset()
    fits = [fit_moment_surface(ds, "q", n, NO_CONTROL) for n in (1, 2, 3)]
    fs = fitted_surface(fits)
    from welfare_moments import OrderError
    with pytest.raises(OrderError):
        fs.share_surface.moment(4, Budget((1.0,), 2.0))


def test_fitted_surface_partials_within_one_percent():
    model = default_planted_model()
    ds = model.sample(20000, seed=7)
    fits = [fit_moment_surface(ds, "q", n, model.basis) for n in (1, 2, 3)]
    fs = fitted_surface(fits)
    b_med = Budget((float(np.exp(np.median(ds.log_prices))),),
                   float(np.exp(np.median(ds.log_y))))
    got = quantity_surface_from_shares(fs.share_surface)
    want = quantity_surface_from_shares(model.share_surface())
    for n in (1, 2, 3):
        assert got.moment(n, b_med) == pytest.approx(want.moment(n, b_med), rel=0.01)
        assert got.d_income(n, b_med) == pytest.approx(want.d_income(n, b_med), rel=0.01)
    for n in (1, 2):
        assert got.d_price(n, b_med) == pytest.approx(want.d_price(n, b_med), rel=0.01)


def test_fitted_surface_positivity():
    model = default_planted_model()
    ds = model.sample(5000, seed=19)
    fits = [fit_moment_surface(ds, "q", n, model.basis) for n in (1, 2, 3)]
    fs = fitted_surface(fits)
    rng = np.random.default_rng(2)
    for _ in range(50):
        b = Budget((rng.uniform(0.7, 1.5),), rng.uniform(1.6, 6.0))
        for n in (1, 2, 3):
            assert fs.share_surface.moment(n, b) > 0.0


def test_control_function_reduces_income_derivative_bias():
    model = default_planted_model()
    ds = model.sample(20000, seed=11, endogeneity=0.6, z_lo=2.0, z_hi=4.5,
                      income_shock=0.2)
    b_med = Budget((float(np.exp(np.median(ds.log_prices))),),
                   float(np.exp(np.median(ds.log_y))))
    truth = model.share_surface().d_logy(1, b_med)
    fs = first_stage(ds)
    with_control = fitted_surface(
        [fit_moment_surface(ds, "q", n, BasisSpec(3, 3, True), fs) for n in (1, 2, 3)])
    without = fitted_surface(
        [fit_moment_surface(ds, "q", n, BasisSpec(3, 3, False)) for n in (1, 2, 3)])
    bias_with = abs(with_control.share_surface.d_logy(1, b_med) - truth)
    bias_without = abs(without.share_surface.d_logy(1, b_med) - truth)
    assert bias_with <= 0.5 * bias_without


def test_plant_and_recover_cv():
    model = default_planted_model()
    ds = model.sample(20000, seed=7)
    fits = [fit_moment_surface(ds, "q", n, model.basis) for n in (1, 2, 3)]
    fs = fitted_surface(fits)
    pc = PriceChange.scalar(1.0, 1.05, 3.0)
    recovered = cv_moment_local(fs.moment_surface, 1, pc)
    truth = cv_moment_local(model.moment_surface(), 1, pc)
    assert recovered == pytest.approx(truth, rel=0.01)


def test_l0_pipeline_recovers_exact_cv():
    ds = population_cross_section(L0, 20000, seed=3)
    fs0 = first_stage(ds)
    fits = [fit_moment_surface(ds, "q", n, BasisSpec(), fs0) for n in (1, 2, 3)]
    surface = fitted_surface(fits).moment_surface
    pc = PriceChange.scalar(1.0, 1.05, 4.0)
    exact = population_cv(L0, pc).mean
    assert cv_moment_local(surface, 1, pc) == pytest.approx(exact, rel=0.01)


def test_bootstrap_constant_statistic():
    ds = constant_dataset()
    res = bootstrap(ds, lambda d: 3.0, BootstrapConfig(50, 0.90, seed=1))
    assert (res.point, res.lower, res.upper) == (3.0, 3.0, 3.0)


def test_bootstrap_mean_interval_width():
    rng = np.random.default_rng(5)
    n = 10000
    col = rng.uniform(0.0, 1.0, n)
    ds = Dataset(("q",), np.full((n, 1), 0.5), np.zeros((n, 1)), col, col)
    res = bootstrap(ds, lambda d: float(np.mean(d.log_y)),
                    BootstrapConfig(200, 0.90, seed=42))
    width = res.upper - res.lower
    assert 0.008 < width < 0.011


def test_bootstrap_deterministic():
    ds = constant_dataset(seed=3)
    cfg = BootstrapConfig(100, 0.90, seed=123)
    stat = lambda d: float(np.mean(d.log_z))
    first = bootstrap(ds, stat, cfg)
    second = bootstrap(ds, stat, cfg)
    assert first == second


def test_bootstrap_instability():
    ds = constant_dataset()

    def fragile(d):
        # resamples contain duplicated rows almost surely; the full sample not
        if len(np.unique(d.log_z)) < d.n:
            raise FitError("duplicate rows")
        return 1.0

    with pytest.raises(BootstrapInstabilityError) as err:
        bootstrap(ds, fragile, BootstrapConfig(20, 0.90, seed=0))
    assert err.value.failures == 20


def test_bootstrap_propagates_statistic_bugs():
    ds = constant_dataset()

    def broken(d):
        if d is not ds:
            raise TypeError("a bug, not an unlucky resample")
        return 1.0

    with pytest.raises(TypeError):
        bootstrap(ds, broken, BootstrapConfig(20, 0.90, seed=0))


def test_basis_and_bootstrap_validation():
    with pytest.raises(ValueError):
        BasisSpec(price_degree=0)
    with pytest.raises(ValueError):
        BootstrapConfig(replications=1)
    with pytest.raises(ValueError):
        BootstrapConfig(level=1.5)


def _block_bytes(q):
    return 8 * estimation.BLOCK_ROWS * q.shape[1]


def test_design_holds_one_basis():
    # the basis is filled in place and q is written over it: the design keeps
    # one n x k array, and its build peaks one row block above that
    ds = _l0_sample(50000)
    fs = first_stage(ds)
    design = {}
    kept, above = traced(lambda: design.update(d=_design(ds, BasisSpec(), fs)))
    q = design["d"].q
    assert q.nbytes <= kept < q.nbytes + 8 * ds.n
    assert above <= _block_bytes(q) + 64 * 1024


def test_first_stage_holds_one_design():
    # its three columns are filled once into the array q is written over:
    # one n x 3 array, and the n-vector of the corrected step's residuals,
    # each row block of which takes three block-length temporaries
    ds = _l0_sample(50000)
    kept, above = traced(lambda: first_stage(ds))
    assert kept + above <= 4 * 8 * ds.n + 3 * 8 * estimation.BLOCK_ROWS + 64 * 1024


def test_fits_hold_one_jacobian():
    # on a built design, the three fits add three n-vectors (target, pred and
    # resid), the n-byte share masks, one block-sized Jacobian buffer and up
    # to four block-length vectors (a block's residuals, and numpy's buffers
    # for the three operands of a short block's product): no n x k array, no
    # copy of q
    ds = _l0_sample(50000)
    fs = first_stage(ds)
    q = _design(ds, BasisSpec(), fs).q
    assert np.all(ds.shares > 0.0)
    kept, above = traced(lambda: [fit_moment_surface(ds, "q", n, BasisSpec(), fs)
                                  for n in (1, 2, 3)])
    bound = (3 * 8 + 2) * ds.n + _block_bytes(q) + 4 * 8 * estimation.BLOCK_ROWS
    assert kept + above <= bound < q.nbytes


def test_design_and_evaluation_layouts(monkeypatch):
    # a fit's q is Fortran-ordered and written over the very array
    # _basis_matrix filled, and a surface evaluates on a basis of that layout
    built = []
    basis_matrix = estimation._basis_matrix

    def record(*args, **kw):
        built.append(basis_matrix(*args, **kw))
        return built[-1]

    monkeypatch.setattr(estimation, "_basis_matrix", record)
    ds = _l0_sample(2000)
    fs = first_stage(ds)
    design = _design(ds, BasisSpec(), fs)
    assert len(design.active) == design.n_columns
    assert design.q.flags.f_contiguous
    assert np.shares_memory(design.q, built[-1])
    fits = [fit_moment_surface(ds, "q", n, BasisSpec(), fs) for n in (1, 2, 3)]
    surface = fitted_surface(fits).share_surface
    surface.on_budgets(np.array([[1.0], [1.02]]), np.array([4.0, 4.1]))
    assert len(built) == 2
    assert built[-1].flags.f_contiguous and not built[-1].flags.c_contiguous
