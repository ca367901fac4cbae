import numpy as np
import pytest

from welfare_moments import (
    BasisSpec,
    DomainError,
    BootstrapConfig,
    Budget,
    Dataset,
    L0,
    PriceChange,
    bootstrap,
    cv_moment_local,
    first_stage,
    fit_moment_surface,
    fitted_surface,
    population_cv,
    shares_to_quantities,
)
from welfare_moments.estimation import (
    BootstrapInstabilityError,
    DegenerateDataError,
    FitError,
    SingularDesignError,
    _basis_matrix,
)
from welfare_moments.oracle import CobbDouglasPopulation
from welfare_moments.synthetic import (
    cobb_douglas_cross_section,
    default_planted_model,
    population_cross_section,
)

NO_CONTROL = BasisSpec(include_control=False)


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
    assert np.max(np.abs(fs.residuals)) < 1e-10


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
    assert abs(np.mean(fs.residuals)) < 1e-10


def test_first_stage_singular_design():
    ds = Dataset(("a", "b", "c"), np.full((2, 3), 0.2),
                 np.arange(6, dtype=float).reshape(2, 3),
                 np.array([1.0, 2.0]), np.array([0.5, 1.5]))
    with pytest.raises(SingularDesignError):
        first_stage(ds)


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
    k = ds.good_index(good)
    w = ds.shares[:, k]
    control = fs.residuals if basis.include_control else None
    x_full = _basis_matrix(ds.log_prices, ds.log_y, control, basis)
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
    ds = cobb_douglas_cross_section(pop, 20000, 5, goods=("food", "fuel"))
    return ds, ["food", "fuel"], BasisSpec(), first_stage(ds)


@pytest.mark.parametrize("case", [_l0_case, _planted_case, _cd2_case],
                         ids=["L0", "planted", "CD2(0.3)"])
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
    ds = cobb_douglas_cross_section(pop, 4000, 5, goods=("food", "fuel"))
    return ds, first_stage(ds)


def test_orders_and_goods_of_a_sample_share_one_qr(monkeypatch):
    calls = _count_qr(monkeypatch)
    ds = population_cross_section(L0, 4000, seed=3)
    fs = first_stage(ds)
    for order in (1, 2, 3):
        fit_moment_surface(ds, "q", order, BasisSpec(), fs)
    assert len(calls) == 1
    calls.clear()
    ds, fs = _small_cd2()
    for good in ds.goods:
        for order in (1, 2, 3):
            fit_moment_surface(ds, good, order, BasisSpec(), fs)
    assert len(calls) == 1


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


def test_design_is_kept_per_first_stage_and_basis(monkeypatch):
    calls = _count_qr(monkeypatch)
    ds, fs = _small_cd2()
    fit_moment_surface(ds, "food", 1, BasisSpec(), fs)
    fit_moment_surface(ds, "fuel", 2, BasisSpec(), fs)
    assert len(calls) == 1
    fit_moment_surface(ds, "food", 1, BasisSpec(), first_stage(ds))
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
    got = shares_to_quantities(fs.share_surface, b_med)
    want = shares_to_quantities(model.share_surface(), b_med)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=0.01)


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
