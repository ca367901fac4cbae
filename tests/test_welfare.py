import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from welfare_moments import (
    BasisSpec,
    Budget,
    CobbDouglasPopulation,
    DomainError,
    L0,
    LinearTypeMixture,
    MomentSurface,
    OrderError,
    PriceChange,
    Q0,
    ShapeError,
    ShareMomentSurface,
    chebyshev_bounds,
    compensated_jacobian_multigood,
    compensated_moment_fo,
    compensated_share_moment,
    counterexample_discrepancy,
    build_report,
    cv_decompose,
    cv_first_order,
    cv_mean_multigood,
    cv_moment_local,
    cv_path,
    cv_ra,
    cv_variance,
    first_stage,
    fit_moment_surface,
    fitted_surface,
    hn_bounds_path,
    population_cv,
    price_index,
    price_index_decompose,
    quantity_surface_from_shares,
    share_surface_from_population,
    surface_from_population,
    tax_deadweight,
)
from welfare_moments import estimation
from welfare_moments.core import gauss_legendre01, monomial_translation
from welfare_moments.oracle import B_STAR
from welfare_moments.rationality import SupportBox, degree1_cone_test, lp_violation_search
from welfare_moments.synthetic import population_cross_section
from welfare_moments.welfare import DEFAULT_QUAD, QuadratureRule

from conftest import (
    EQUIV_P,
    EQUIV_Y,
    SWEEP_DPS,
    cobb_douglas_cv_mean,
    constant_batch,
    loglog_slope,
    path_budget_reference,
    random_budgets,
)

PC_STAR = PriceChange.scalar(1.0, 1.1, 2.0)


def quasilinear_mixture():
    # two linear types with no income effect, downward sloping
    return LinearTypeMixture([(0.5, 1.8, -0.7, 0.0), (0.5, 1.2, -0.4, 0.0)])


def homothetic_type(gy=0.25):
    # q = gy * y satisfies dq/dy = q / y at every budget
    return LinearTypeMixture([(1.0, 0.0, 0.0, gy)])


def test_quadrature_rule_weights():
    quad = QuadratureRule.gauss_legendre(16)
    assert sum(quad.weights) == pytest.approx(1.0, abs=1e-13)
    assert quad.integrate(lambda t: t ** 3) == pytest.approx(0.25, abs=1e-13)
    # a negative or NaN weight, a weight without a node, no node, a node outside [0, 1]
    for nodes, weights in [((0.5,), (-1.0,)), ((0.5,), (math.nan,)), ((0.2, 0.8), (1.0,)),
                           ((), ()), ((2.0,), (1.0,)), ((-0.1, 0.5), (0.5, 0.5)),
                           ((math.nan,), (1.0,))]:
        with pytest.raises(ValueError):
            QuadratureRule(nodes, weights)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_one_gauss_legendre_rule_on_the_unit_interval(n):
    # the rule the path integrals and the oracle's type tables read, bit for bit
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = gauss_legendre01(n)
    assert nodes.tolist() == ((x + 1.0) / 2.0).tolist()
    assert weights.tolist() == (w / 2.0).tolist()
    quad = QuadratureRule.gauss_legendre(n)
    assert (quad.nodes, quad.weights) == (tuple((x + 1.0) / 2.0), tuple(w / 2.0))
    with pytest.raises(ValueError):
        nodes[0] = 0.0  # the cached arrays are shared, so they are read-only


def test_compensated_moment_fo_l0(l0_surface):
    got = compensated_moment_fo(l0_surface, 1, B_STAR, 0.1)
    assert got == pytest.approx(0.5 + 0.1 * (-1.0 + 11.0 / 36.0), abs=1e-12)
    assert compensated_moment_fo(l0_surface, 2, B_STAR, 0.0) == pytest.approx(
        l0_surface.moment(2, B_STAR))


def test_compensated_moment_fo_quasilinear_exact():
    surface = surface_from_population(quasilinear_mixture(), 3)
    dp = 0.2
    got = compensated_moment_fo(surface, 1, B_STAR, dp)
    shifted = Budget((B_STAR.price(0) + dp,), B_STAR.income)
    assert got == pytest.approx(surface.moment(1, shifted), abs=1e-12)


HALVING_DPS = (1e-2, 5e-3, 2.5e-3)


def assert_second_order(errors):
    """Errors at HALVING_DPS are below 2 dp^2 and fall by 4 as dp halves
    (a zero error stays at rounding)."""
    assert errors[0] <= 2.0 * HALVING_DPS[0] ** 2
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 1.05 * coarse / 4.0 + 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_compensated_moment_fo_is_first_order_at_every_order(n):
    # without income effects compensated demand is demand, so the exact
    # compensated moment is the moment at the new price; the error of a
    # first-order approximation falls like dp^2
    surface = surface_from_population(
        LinearTypeMixture([(0.5, 1.0, -0.5, 0.0), (0.5, 2.0, -0.8, 0.0)]), n + 1)
    errors = [abs(compensated_moment_fo(surface, n, B_STAR, dp)
                  - surface.moment(n, B_STAR.with_price(0, B_STAR.price(0) + dp)))
              for dp in HALVING_DPS]
    assert_second_order(errors)


@pytest.mark.parametrize("n", [2, 3])
def test_compensated_share_moment_is_first_order_at_every_order(n):
    # a CD(0.5) consumer's compensated share p h / y is 0.5 (p1 / p0)^0.5
    ws = share_surface_from_population(CobbDouglasPopulation.single(0.5), n + 1)
    b = Budget((1.0, 1.0), 2.0)
    errors = [abs(compensated_share_moment(ws, n, b, dp) - 0.5 ** n * (1.0 + dp) ** (n / 2.0))
              for dp in HALVING_DPS]
    assert_second_order(errors)


def test_compensated_moment_fo_order_error(l0_surface):
    with pytest.raises(OrderError):
        compensated_moment_fo(l0_surface, 6, B_STAR, 0.1)


def test_compensated_share_moment_cobb_douglas():
    ws = share_surface_from_population(CobbDouglasPopulation.single(0.5), 3)
    b = Budget((1.0, 1.0), 2.0)
    got = compensated_share_moment(ws, 1, b, 0.1)
    assert got == pytest.approx(0.5 + 0.25 * 0.1, abs=1e-12)
    assert compensated_share_moment(ws, 2, b, 0.0) == pytest.approx(0.25)
    # approximation error against the exact compensated share is second order
    exact = 0.5 * np.exp(0.5 * np.log(1.1))
    assert abs(got - exact) < 2e-3


def test_compensated_share_moment_homothetic_population():
    ws = share_surface_from_population(CobbDouglasPopulation.two_type(0.3), 3)
    b = Budget((1.0, 1.0), 2.0)
    w1, w2 = ws.moment(1, b), ws.moment(2, b)
    got = compensated_share_moment(ws, 1, b, 0.1)
    assert got == pytest.approx(w1 + w2 * 0.1, abs=1e-12)


def test_cv_moment_local_first_moment(l0_surface):
    assert cv_moment_local(l0_surface, 1, PC_STAR) == pytest.approx(
        0.1 * 0.5 + 0.005 * (-1.0 + 11.0 / 36.0), abs=1e-12)
    zero = PriceChange.scalar(1.0, 1.0, 2.0)
    assert cv_moment_local(l0_surface, 1, zero) == 0.0


def test_cv_moment_local_second_moment(l0_surface):
    # d/dy M3 = 3 E[q^2 w2] = 5/6 at the canonical budget
    assert l0_surface.d_income(3, B_STAR) == pytest.approx(5.0 / 6.0, abs=1e-12)
    expected = 0.01 * (4.0 / 9.0 + 0.05 * (-1.0 + (2.0 / 3.0) * (5.0 / 6.0)))
    assert cv_moment_local(l0_surface, 2, PC_STAR) == pytest.approx(expected, abs=1e-12)
    exact2 = population_cv(L0, PC_STAR).raw_moments[1]
    assert cv_moment_local(l0_surface, 2, PC_STAR) == pytest.approx(exact2, rel=2e-2)


def test_cv_first_order(l0_surface):
    assert cv_first_order(l0_surface, PC_STAR) == pytest.approx(0.05, abs=1e-13)
    assert cv_first_order(l0_surface, PriceChange.scalar(1.0, 1.0, 2.0)) == 0.0
    double = cv_first_order(l0_surface, PriceChange.scalar(1.0, 1.2, 2.0))
    assert double == pytest.approx(2 * 0.05, abs=1e-13)


def test_cv_ra_l0(l0_surface):
    assert cv_ra(l0_surface, PC_STAR) == pytest.approx(0.04625, abs=1e-12)
    gap = cv_moment_local(l0_surface, 1, PC_STAR) - cv_ra(l0_surface, PC_STAR)
    assert gap == pytest.approx(0.005 * (1.0 / 18.0), abs=1e-12)


def test_cv_ra_degenerate_equals_robust():
    single = LinearTypeMixture([(1.0, 0.6, -0.5, 0.3)])
    surface = surface_from_population(single, 3)
    assert cv_ra(surface, PC_STAR) == cv_moment_local(surface, 1, PC_STAR)


def test_ra_gap_identity_random_budgets(l0_surface):
    # robust minus RA equals half the squared price change times the
    # covariance between demand and its income derivative
    rng = np.random.default_rng(41)
    for b in random_budgets(rng, 20, EQUIV_P, EQUIV_Y):
        pc = PriceChange(b, b.with_price(0, b.price(0) + 0.1))
        gap = cv_moment_local(l0_surface, 1, pc) - cv_ra(l0_surface, pc)
        cov = (L0.income_effect_moment(2, b)
               - l0_surface.moment(1, b) * l0_surface.d_income(1, b))
        assert gap == pytest.approx(0.005 * cov, abs=1e-10)


def test_cv_path_l0_value(l0_surface):
    # first integral is exact for demand linear in price; the second is a
    # polynomial integral: dp * (M1 - dp/2) + dp^2/2 * (11/36 - dp/6)
    expected = 0.1 * (0.5 - 0.05) + 0.005 * (11.0 / 36.0 - 0.1 / 6.0)
    assert cv_path(l0_surface, PC_STAR) == pytest.approx(expected, abs=1e-12)


def test_cv_path_constant_mean():
    flat = LinearTypeMixture([(1.0, 1.5, 0.0, 0.0)])
    surface = surface_from_population(flat, 3)
    assert cv_path(surface, PC_STAR) == pytest.approx(0.1 * 1.5, abs=1e-12)


def test_cv_path_agrees_with_local_to_third_order(l0_surface):
    gaps = [abs(cv_path(l0_surface, PriceChange.scalar(1.0, 1.0 + dp, 2.0))
                - cv_moment_local(l0_surface, 1, PriceChange.scalar(1.0, 1.0 + dp, 2.0)))
            for dp in SWEEP_DPS]
    assert loglog_slope(SWEEP_DPS, gaps) >= 2.7


def test_hn_bounds_path(l0_surface):
    plain = hn_bounds_path(l0_surface, PC_STAR, 0.0)
    assert plain == pytest.approx(0.1 * (0.5 - 0.05), abs=1e-12)
    grid = [hn_bounds_path(l0_surface, PC_STAR, eff) for eff in (0.0, 0.3, 0.6, 0.9)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_hn_bounds_path_contain_exact(l0_containment_grid, l0_surface):
    for dp, exact in l0_containment_grid.items():
        pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
        lo = hn_bounds_path(l0_surface, pc, 1.0 / 3.0)
        hi = hn_bounds_path(l0_surface, pc, 2.0 / 3.0)
        assert lo <= exact <= hi


def test_chebyshev_extreme_thresholds_reproduce_worst_case(l0_surface):
    lower, upper = chebyshev_bounds(l0_surface, PC_STAR, 1.0 / 3.0, 2.0 / 3.0,
                                    z=2.0 / 3.0, k=1.0 / 3.0)
    lo = hn_bounds_path(l0_surface, PC_STAR, 1.0 / 3.0)
    hi = hn_bounds_path(l0_surface, PC_STAR, 2.0 / 3.0)
    assert lower == pytest.approx(lo, abs=1e-9)
    assert upper == pytest.approx(hi, abs=1e-9)


def test_chebyshev_degenerate_effects_collapse():
    deg = LinearTypeMixture([(0.5, 0.2, -0.4, 0.5), (0.5, 0.8, -0.6, 0.5)])
    surface = surface_from_population(deg, 3)
    lower, upper = chebyshev_bounds(surface, PC_STAR, 1.0 / 3.0, 2.0 / 3.0, z=0.5, k=0.5)
    exact = hn_bounds_path(surface, PC_STAR, 0.5)
    assert lower == pytest.approx(exact, abs=1e-12)
    assert upper == pytest.approx(exact, abs=1e-12)


def test_chebyshev_interior_strictly_inside(l0_surface):
    lower, upper = chebyshev_bounds(l0_surface, PC_STAR, 0.0, 1.0, z=0.5, k=0.5)
    lo = hn_bounds_path(l0_surface, PC_STAR, 0.0)
    hi = hn_bounds_path(l0_surface, PC_STAR, 1.0)
    assert lo < lower <= upper < hi
    with pytest.raises(ValueError):
        chebyshev_bounds(l0_surface, PC_STAR, 0.0, 1.0, z=1.5, k=0.5)


def test_chebyshev_bounds_need_a_price_increase(l0_surface):
    for p1 in (1.0, 0.9):
        with pytest.raises(ValueError, match="require a price increase"):
            chebyshev_bounds(l0_surface, PriceChange.scalar(1.0, p1, 2.0), 0.0, 1.0, 0.5, 0.5)


def test_cv_variance_zero_change(l0_surface):
    zero = PriceChange.scalar(1.0, 1.0, 2.0)
    assert cv_variance(l0_surface, zero) == {"robust": 0.0, "additive": 0.0, "first_order": 0.0}


def test_cv_variance_small_change_limit(l0_surface):
    dp = 1e-4
    pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
    variance = cv_variance(l0_surface, pc)
    scaled = variance["robust"] / dp ** 2
    assert scaled == pytest.approx(7.0 / 36.0, rel=1e-3)
    assert variance["first_order"] / dp ** 2 == pytest.approx(7.0 / 36.0, abs=1e-12)


def test_cv_variance_degenerate_population():
    single = LinearTypeMixture([(1.0, 0.6, -0.5, 0.3)])
    surface = surface_from_population(single, 3)
    pc = PriceChange.scalar(1.0, 1.01, 2.0)
    for value in cv_variance(surface, pc).values():
        assert value == pytest.approx(0.0, abs=1e-8)


def test_cv_variance_additive_model_matches_robust():
    # additive heterogeneity (common slopes, shifted intercepts): the two
    # estimators coincide identically, which bounds their gap at any order
    additive = LinearTypeMixture([(0.25, 0.4, -0.5, 0.3), (0.25, 0.6, -0.5, 0.3),
                                  (0.25, 0.8, -0.5, 0.3), (0.25, 1.0, -0.5, 0.3)])
    surface = surface_from_population(additive, 3)
    for dp in SWEEP_DPS:
        pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
        variance = cv_variance(surface, pc)
        gap = abs(variance["robust"] - variance["additive"])
        assert gap <= 1e-14


def test_cv_variance_additive_gap_third_order_on_heterogeneous(l0_surface):
    # with heterogeneous income effects the additive estimator deviates from
    # the robust one only at third order in the price change
    gaps = []
    for dp in SWEEP_DPS:
        pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
        variance = cv_variance(l0_surface, pc)
        gaps.append(abs(variance["robust"] - variance["additive"]))
    assert loglog_slope(SWEEP_DPS, gaps) >= 2.7


def test_cv_variance_order_error():
    # without order 3 there is no robust variance; the other two read
    # orders 1 and 2 only
    shallow = surface_from_population(L0, 2)
    dp, b = PC_STAR.scalar_delta(), PC_STAR.start
    m1, m2 = shallow.moment(1, b), shallow.moment(2, b)
    dpm1, dym1 = shallow.d_price(1, b), shallow.d_income(1, b)
    first = m2 + dp * (m1 * dpm1 + m2 * dym1)
    second = m1 + (dp / 2.0) * (dpm1 + m1 * dym1)
    assert cv_variance(shallow, PC_STAR) == {"robust": None,
                                             "additive": dp ** 2 * (first - second ** 2),
                                             "first_order": dp ** 2 * (m2 - m1 ** 2)}


def test_cv_decompose_l0(l0_surface):
    dec = cv_decompose(l0_surface, PC_STAR)
    assert dec["A3"] == pytest.approx(0.005 * (7.0 / 36.0) / 2.0, abs=1e-12)
    target = 0.005 * (-1.0 + 0.5 * 11.0 / 18.0)
    assert sum(dec.values()) == pytest.approx(target, abs=1e-12)


def test_cv_decompose_homothetic_single_type():
    surface = surface_from_population(homothetic_type(), 3)
    dec = cv_decompose(surface, PC_STAR)
    assert dec["A2"] == pytest.approx(0.0, abs=1e-15)
    assert dec["A3"] == pytest.approx(0.0, abs=1e-15)
    assert dec["A4"] == pytest.approx(0.0, abs=1e-15)


def test_cv_decompose_degenerate_non_homothetic():
    single = LinearTypeMixture([(1.0, 0.6, -0.5, 0.1)])
    dec = cv_decompose(surface_from_population(single, 3), PC_STAR)
    assert dec["A3"] == pytest.approx(0.0, abs=1e-15)
    assert dec["A4"] == pytest.approx(0.0, abs=1e-15)
    assert abs(dec["A2"]) > 1e-6


def test_price_index_cobb_douglas():
    ws = share_surface_from_population(CobbDouglasPopulation.single(0.5), 2)
    b = Budget((1.0, 1.0), 2.0)
    approx = price_index(ws, 0.1, b)
    assert approx == pytest.approx(0.05125, abs=1e-12)
    exact = np.exp(0.5 * 0.1) - 1.0
    assert abs(approx - exact) <= 3e-5
    assert price_index(ws, 0.0, b) == 0.0


def test_price_index_zero_share_good():
    dead = ShareMomentSurface(2, constant_batch([0.0, 0.0]))
    assert price_index(dead, 0.1, Budget((1.0,), 2.0)) == 0.0


def test_price_index_decompose_homothetic_heterogeneous():
    ws = share_surface_from_population(CobbDouglasPopulation.two_type(0.3), 2)
    b = Budget((1.0, 1.0), 2.0)
    dec = price_index_decompose(ws, 0.1, b)
    var_w = 0.5 * (0.3 ** 2 + 0.7 ** 2) - 0.25
    assert dec["A2"] == 0.0
    assert dec["A4"] == 0.0
    assert dec["A3"] == pytest.approx(0.005 * var_w, abs=1e-14)
    assert dec["A3"] > 0.0
    assert dec["homotheticity_correction"]["ra"] == pytest.approx(0.0, abs=1e-10)
    assert dec["homotheticity_correction"]["heterogeneity"] == pytest.approx(0.0, abs=1e-10)


def test_price_index_decompose_single_type():
    ws = share_surface_from_population(CobbDouglasPopulation.single(0.4), 2)
    dec = price_index_decompose(ws, 0.1, Budget((1.0, 1.0), 2.0))
    assert dec["A3"] == pytest.approx(0.0, abs=1e-15)
    assert dec["A4"] == pytest.approx(0.0, abs=1e-15)


def test_price_index_decompose_sum_identity(l0_surface):
    ws = share_surface_from_population(L0, 2)
    b = Budget((1.05,), 2.1)
    dec = price_index_decompose(ws, 0.07, b)
    target = price_index(ws, 0.07, b) - ws.moment(1, b) * 0.07
    total = dec["A1"] + dec["A2"] + dec["A3"] + dec["A4"]
    assert total == pytest.approx(target, abs=1e-14)


def test_tax_deadweight():
    surface_ql = surface_from_population(quasilinear_mixture(), 3)
    got = tax_deadweight(surface_ql, B_STAR, 0.1, 0.1)
    assert got == surface_ql.d_price(1, B_STAR) * 0.1 * 0.1
    l0s = surface_from_population(L0, 3)
    assert tax_deadweight(l0s, B_STAR, 0.1, 0.1) == pytest.approx(
        -43.0 / 36.0 * 0.01, abs=1e-10)
    assert tax_deadweight(l0s, B_STAR, 0.1, 0.0) == 0.0


def cd2_direct_average_slutsky(alpha, b):
    # per-type Cobb-Douglas Slutsky matrices averaged by hand
    out = np.zeros((2, 2))
    for shares in ((alpha, 1 - alpha), (1 - alpha, alpha)):
        a = np.asarray(shares)
        p = np.asarray(b.prices)
        d_price = np.diag(-a * b.income / p ** 2)
        d_inc = a / p
        q = a * b.income / p
        out += 0.5 * (d_price + np.outer(d_inc, q))
    return out


def test_compensated_jacobian_multigood_cd2():
    for alpha in (0.1, 0.3, 0.5):
        pop = CobbDouglasPopulation.two_type(alpha)
        b = Budget((1.0, 1.3), 2.0)
        comp = compensated_jacobian_multigood(pop, b)
        direct = cd2_direct_average_slutsky(alpha, b)
        np.testing.assert_allclose(comp.matrix, direct, atol=1e-8)
        np.testing.assert_allclose(comp.matrix, comp.matrix.T, atol=0.0)
        assert comp.max_eigenvalue <= 1e-10
        assert comp.matrix[0, 0] == pytest.approx(-alpha * (1 - alpha) * 2.0, abs=1e-12)
        assert comp.matrix[0, 1] == pytest.approx(alpha * (1 - alpha) * 2.0 / 1.3, abs=1e-12)


def jacobi_max_eigenvalue(matrix, sweeps=50, tol=1e-14):
    """Largest eigenvalue of a symmetric matrix by cyclic Jacobi rotations.

    Independent oracle for the LAPACK eigenvalue used by the library.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return float(np.max(np.diag(a)))


def test_compensated_jacobian_eigenvalue_matches_jacobi_oracle():
    rng = np.random.default_rng(11)
    for k in range(2, 7):
        for _ in range(5):
            half = rng.normal(size=(k, k))
            sym = half + half.T
            moments = SimpleNamespace(jacobian=lambda b, m=sym: m,
                                      d_income_second=lambda b, k=k: np.zeros((k, k)))
            comp = compensated_jacobian_multigood(moments, Budget((1.0,) * k, 2.0))
            np.testing.assert_array_equal(comp.matrix, sym)
            assert comp.max_eigenvalue == pytest.approx(jacobi_max_eigenvalue(sym), abs=1e-10)


def test_multigood_moments_must_conform():
    b = Budget((1.0, 1.3), 2.0)
    unequal = SimpleNamespace(jacobian=lambda b: np.eye(2), d_income_second=lambda b: np.eye(3))
    with pytest.raises(ShapeError, match="square and conformable"):
        compensated_jacobian_multigood(unequal, b)
    three_goods = SimpleNamespace(mean_vector=lambda b: np.ones(3))
    with pytest.raises(ShapeError, match="dimension does not match the population"):
        cv_mean_multigood(three_goods, PriceChange(b, b.with_price(0, 1.1)))


def test_cv_mean_multigood_reduces_to_scalar():
    pop = CobbDouglasPopulation.two_type(0.3)
    surface = surface_from_population(pop, 3, good=0)
    b0 = Budget((1.0, 1.3), 2.0)
    pc = PriceChange(b0, b0.with_price(0, 1.1))
    assert cv_mean_multigood(pop, pc) == pytest.approx(
        cv_moment_local(surface, 1, pc), abs=1e-12)
    zero = PriceChange(b0, b0)
    assert cv_mean_multigood(pop, zero) == 0.0


def test_cv_mean_multigood_third_order_accuracy():
    pop = CobbDouglasPopulation.two_type(0.3)
    base = np.array([0.1, 0.05])
    scales = (1.0, 0.5, 0.25, 0.125)
    errors, sizes = [], []
    for s in scales:
        b0 = Budget((1.0, 1.0), 2.0)
        b1 = Budget(tuple(1.0 + s * base), 2.0)
        pc = PriceChange(b0, b1)
        approx = cv_mean_multigood(pop, pc)
        exact = cobb_douglas_cv_mean(pop, pc)
        errors.append(abs(approx - exact))
        sizes.append(s * np.linalg.norm(base))
    assert loglog_slope(sizes, errors) >= 2.7


def test_equivalent_populations_same_robust_output(l0_surface, q0_surface):
    # observationally equivalent populations produce the same second-order
    # welfare numbers, yet their higher-order income-effect functionals differ
    robust_l = cv_moment_local(l0_surface, 1, PC_STAR)
    robust_q = cv_moment_local(q0_surface, 1, PC_STAR)
    assert robust_l == pytest.approx(robust_q, abs=1e-7)
    lin2, qua2 = counterexample_discrepancy(2)
    assert abs(lin2 - qua2) > 0.004


def test_build_report_invariants(l0_surface):
    rep = build_report(l0_surface, PC_STAR)
    dec_sum = sum(rep.decomposition.values())
    assert dec_sum == pytest.approx(rep.robust - rep.first_order, abs=1e-10)
    assert rep.bounds["lower"] <= rep.robust <= rep.bounds["upper"]
    assert rep.bounds["kind"] == "worst-case"
    payload = rep.to_dict()
    assert sorted(payload) == ["bounds", "decomposition", "dp", "first_order",
                               "moments", "path", "ra", "robust", "variance"]
    assert len(rep.moments) == l0_surface.max_order - 1
    assert rep.moments[0] == rep.robust


def test_build_report_zero_change(l0_surface):
    rep = build_report(l0_surface, PriceChange.scalar(1.0, 1.0, 2.0))
    assert rep.robust == 0.0 and rep.path == 0.0 and rep.ra == 0.0
    assert all(v == 0.0 for v in rep.decomposition.values())


def test_build_report_refuses_inverted_bounds(l0_surface):
    for thresholds in (None, (0.3, 0.3)):
        with pytest.raises(ValueError, match="lower income-effect bound exceeds upper"):
            build_report(l0_surface, PC_STAR, b_lo=0.6, b_hi=0.1,
                         chebyshev_thresholds=thresholds)


def test_build_report_chebyshev_kind(l0_surface):
    rep = build_report(l0_surface, PC_STAR, b_lo=0.0, b_hi=1.0,
                       chebyshev_thresholds=(0.5, 0.5))
    assert rep.bounds["kind"] == "chebyshev"
    assert rep.bounds["lower"] <= rep.bounds["upper"]
    cheb = chebyshev_bounds(l0_surface, PC_STAR, 0.0, 1.0, 0.5, 0.5)
    assert (rep.bounds["lower"], rep.bounds["upper"]) == cheb
    assert rep.path == cv_path(l0_surface, PC_STAR)


def test_build_report_orders_an_inverted_chebyshev_pair():
    # at z = 0.45 above k = 0.2 the tightened lower bound passes the upper
    # one (0.0240239 against 0.0240192); the report writes them in order
    surface, pc = surface_from_population(L0, 4), PriceChange.scalar(1.0, 1.05, 2.0)
    lower, upper = chebyshev_bounds(surface, pc, 0.0, 1.0, 0.45, 0.2)
    assert lower > upper
    rep = build_report(surface, pc, chebyshev_thresholds=(0.45, 0.2))
    assert rep.bounds == {"lower": upper, "upper": lower, "kind": "chebyshev"}


def test_mean_demand_respects_budget_feasibility(cd2_surface):
    # nonnegative demand systems spend at most total income on the good
    rng = np.random.default_rng(12)
    for b in random_budgets(rng, 10, (0.5, 2.0), (1.0, 5.0), k=2):
        outlay = b.price(0) * cd2_surface.moment(1, b)
        assert 0.0 <= outlay <= b.income + 1e-12


def test_cv_decompose_flags_catastrophic_cancellation():
    # enormous moment magnitudes at tiny income break the identity in floats
    from welfare_moments.welfare import InternalConsistencyError
    huge = MomentSurface(2, constant_batch([1e9, 1e18], d_price=1.0, d_income=1.0))
    pc = PriceChange.scalar(1.0, 1.1, 1e-6)
    with pytest.raises(InternalConsistencyError):
        cv_decompose(huge, pc)


def test_price_index_order_error():
    shallow = share_surface_from_population(CobbDouglasPopulation.single(0.5), 1)
    with pytest.raises(OrderError):
        price_index(shallow, 0.1, Budget((1.0, 1.0), 2.0))
    with pytest.raises(OrderError):
        price_index_decompose(shallow, 0.1, Budget((1.0, 1.0), 2.0))


PC_SHORT = PriceChange.scalar(1.0, 1.05, 2.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cv_path(surface_from_population(L0, 1), PC_STAR),
                 "order 2 outside 1..1", id="cv_path"),
    pytest.param(lambda: degree1_cone_test(surface_from_population(L0, 2), B_STAR,
                                           SupportBox(0.0, 1.0)),
                 "order 3 outside 1..2", id="degree1_cone_test"),
    pytest.param(lambda: monomial_translation(surface_from_population(L0, 2), 1, B_STAR),
                 "order 3 outside 1..2", id="monomial_translation"),
    pytest.param(lambda: compensated_share_moment(
        share_surface_from_population(CobbDouglasPopulation.single(0.5), 2), 2,
        Budget((1.0, 1.0), 2.0), 0.1), "order 3 outside 1..2", id="compensated_share_moment"),
    pytest.param(lambda: cv_moment_local(surface_from_population(L0, 4), 0, PC_SHORT),
                 "order 0 outside 1..4", id="cv_moment_local-0"),
    pytest.param(lambda: compensated_moment_fo(surface_from_population(L0, 4), 0, B_STAR, 0.1),
                 "order 0 outside 1..4", id="compensated_moment_fo-0"),
    pytest.param(lambda: monomial_translation(surface_from_population(L0, 4), -1, B_STAR),
                 "order 0 outside 1..4", id="monomial_translation-minus-1"),
    pytest.param(lambda: cv_moment_local(surface_from_population(L0, 4), 4, PC_SHORT),
                 "order 5 outside 1..4", id="cv_moment_local-4"),
    pytest.param(lambda: lp_violation_search(surface_from_population(L0, 4), B_STAR, 3,
                                             SupportBox(0.0, 1.0)),
                 "order 5 outside 1..4", id="lp_violation_search-3"),
    pytest.param(lambda: compensated_share_moment(share_surface_from_population(L0, 3), 0,
                                                  B_STAR, 0.1),
                 "order 0 outside 1..3", id="compensated_share_moment-0"),
    pytest.param(lambda: cv_variance(surface_from_population(L0, 1), PC_SHORT),
                 "order 2 outside 1..1", id="cv_variance"),
    pytest.param(lambda: cv_decompose(surface_from_population(L0, 1), PC_SHORT),
                 "order 2 outside 1..1", id="cv_decompose"),
    pytest.param(lambda: build_report(surface_from_population(L0, 1), PC_SHORT),
                 "order 2 outside 1..1", id="build_report"),
    pytest.param(lambda: tax_deadweight(surface_from_population(L0, 1), B_STAR, 0.1, 1.0),
                 "order 2 outside 1..1", id="tax_deadweight"),
    pytest.param(lambda: price_index(share_surface_from_population(L0, 1), 0.1, B_STAR),
                 "order 2 outside 1..1", id="price_index"),
])
def test_short_surface_refuses_from_its_read(call, message):
    # each formula lists the orders it reads in its one read of the surface,
    # and that read refuses the missing one
    with pytest.raises(OrderError, match="^%s$" % re.escape(message)):
        call()


def test_short_surface_gives_what_it_carries():
    # a formula that reads only the orders a short surface has still runs
    assert cv_ra(surface_from_population(L0, 1), PC_SHORT) == 0.02406250000000002
    assert cv_first_order(surface_from_population(L0, 1), PC_SHORT) == 0.025000000000000022
    assert cv_variance(surface_from_population(L0, 2), PC_SHORT)["robust"] is None


# The node-by-node path integrals that the batched ones replaced, kept as
# their oracle: one scalar surface call, on one Budget, per quadrature node.

def cv_path_reference(surface, pc, quad=DEFAULT_QUAD):
    dp = pc.scalar_delta(surface.good)

    def m1_at(t):
        return surface.moment(1, path_budget_reference(pc, t))

    def dym2_at(t):
        return surface.d_income(2, path_budget_reference(pc, t))

    first = dp * quad.integrate(m1_at)
    second = (dp ** 2 / 2.0) * quad.integrate(lambda t: dym2_at(t) * (1.0 - t))
    return first + second


def hn_bounds_path_reference(surface, pc, effect, quad=DEFAULT_QUAD):
    dp = pc.scalar_delta(surface.good)

    def integrand(t):
        b = path_budget_reference(pc, t)
        return np.exp(effect * dp * (1.0 - t)) * surface.moment(1, b)

    return dp * quad.integrate(integrand)


def chebyshev_bounds_reference(surface, pc, b_lo, b_hi, z, k, quad=DEFAULT_QUAD,
                               s_levels=8):
    worst_lo = hn_bounds_path_reference(surface, pc, b_lo, quad)
    worst_hi = hn_bounds_path_reference(surface, pc, b_hi, quad)
    s_grid = np.linspace(0.0, max(worst_hi, 0.0), s_levels)
    vals = []
    for t in quad.nodes:
        b = path_budget_reference(pc, t)
        for s in s_grid:
            vals.append(surface.d_income(1, b.with_income(b.income + s)))
    sup_b, inf_b = max(vals), min(vals)
    eps = 1e-12
    if k <= b_lo + eps:
        pi_u = 1.0
    else:
        pi_u = min(max((sup_b - k) / b_hi, 0.0), 1.0) if b_hi > 0 else 0.0
    if z >= b_hi - eps:
        pi_l = 0.0
    else:
        pi_l = min(max(inf_b / z, 0.0), 1.0) if z > 0 else 1.0
    lower = pi_l * hn_bounds_path_reference(surface, pc, z, quad) + (1.0 - pi_l) * worst_lo
    upper = pi_u * worst_hi + (1.0 - pi_u) * hn_bounds_path_reference(surface, pc, k, quad)
    return float(lower), float(upper)


# The hand-written second-order CV moments that are now read from the Slutsky
# moment, kept as their independent reference.

def cv_moment_local_reference(surface, n, pc):
    dp = pc.scalar_delta(surface.good)
    b0 = pc.start
    inner = (surface.moment(n, b0)
             + (dp / 2.0) * (surface.d_price(n, b0)
                             + surface.d_income(n + 1, b0) * n / (n + 1.0)))
    return dp ** n * inner


def cv_variance_robust_reference(surface, pc):
    dp = pc.scalar_delta(surface.good)
    b0 = pc.start
    m1, m2 = surface.moment(1, b0), surface.moment(2, b0)
    first = m2 + (dp / 2.0) * (surface.d_price(2, b0) + (2.0 / 3.0) * surface.d_income(3, b0))
    second = m1 + (dp / 2.0) * (surface.d_price(1, b0) + 0.5 * surface.d_income(2, b0))
    return dp ** 2 * (first - second ** 2)


def close(got, ref):
    return got == pytest.approx(ref, rel=1e-13, abs=1e-15)


@pytest.fixture(scope="module")
def l0_fitted_surface():
    ds = population_cross_section(L0, 20000, seed=3)
    fits = [fit_moment_surface(ds, "q", n, BasisSpec(), first_stage(ds)) for n in (1, 2, 3)]
    return fitted_surface(fits)


MIXTURE = LinearTypeMixture([(0.3, 1.4, -0.6, 0.2), (0.7, 0.9, -0.3, 0.45)])

# (name, surface maker, price changes); every surface has good 0
BATCH_CASES = [
    ("L0", lambda: surface_from_population(L0, 6),
     [PriceChange.scalar(1.0, 1.0 + dp, 2.0) for dp in (0.1, -0.2, 0.3, -0.05)]),
    ("Q0", lambda: surface_from_population(Q0, 4),
     [PriceChange.scalar(p0, p0 + dp, y) for p0, y in ((1.0, 2.5), (0.9, 3.5), (1.1, 2.99))
      for dp in (0.15, -0.15)]),
    ("CD2", lambda: surface_from_population(CobbDouglasPopulation.two_type(0.3), 4),
     [PriceChange(Budget((1.0, 1.3), 2.0), Budget((1.0 + dp, 1.3), 2.0))
      for dp in (0.2, -0.1)]),
    ("mixture", lambda: surface_from_population(MIXTURE, 3),
     [PriceChange.scalar(1.0, 1.0 + dp, 2.0) for dp in (0.1, -0.1)]),
]


@pytest.mark.parametrize("name, make, pcs", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_batched_path_integrals_match_node_loops(name, make, pcs):
    surface = make()
    for pc in pcs:
        assert close(cv_path(surface, pc), cv_path_reference(surface, pc))
        for effect in (0.0, 0.4, 1.0):
            assert close(hn_bounds_path(surface, pc, effect),
                         hn_bounds_path_reference(surface, pc, effect))
        if pc.scalar_delta() > 0:
            p0 = pc.start.price(0)
            lower, upper = chebyshev_bounds(surface, pc, 0.0, 1.0 / p0, 0.3, 0.5)
            ref = chebyshev_bounds_reference(surface, pc, 0.0, 1.0 / p0, 0.3, 0.5)
            assert close(lower, ref[0]) and close(upper, ref[1])


def test_batched_path_integrals_match_node_loops_fitted(l0_fitted_surface):
    surface = l0_fitted_surface.moment_surface
    for dp in (0.05, -0.06):
        pc = PriceChange.scalar(1.0, 1.0 + dp, 4.0)
        assert close(cv_path(surface, pc), cv_path_reference(surface, pc))
        assert close(hn_bounds_path(surface, pc, 0.25),
                     hn_bounds_path_reference(surface, pc, 0.25))
    pc = PriceChange.scalar(1.0, 1.05, 3.9)
    lower, upper = chebyshev_bounds(surface, pc, 0.0, 1.0, 0.3, 0.5)
    ref = chebyshev_bounds_reference(surface, pc, 0.0, 1.0, 0.3, 0.5)
    assert close(lower, ref[0]) and close(upper, ref[1])


def test_q0_chebyshev_grid_across_the_kink():
    # incomes y + s on the (t, s) grid run from below to above Q0's kink at
    # y = 3, where its table changes from three segments to two
    surface = surface_from_population(Q0, 4)
    pc = PriceChange.scalar(1.0, 1.3, 2.9)
    worst_hi = hn_bounds_path(surface, pc, 1.0)
    assert 2.9 < 3.0 < 2.9 + worst_hi
    assert len(Q0._segments(2.9)) != len(Q0._segments(2.9 + worst_hi))
    for z, k in ((0.3, 0.5), (0.1, 0.9), (0.5, 0.5)):
        lower, upper = chebyshev_bounds(surface, pc, 0.0, 1.0, z, k)
        ref = chebyshev_bounds_reference(surface, pc, 0.0, 1.0, z, k)
        assert close(lower, ref[0]) and close(upper, ref[1])


@pytest.mark.parametrize("name", [c[0] for c in BATCH_CASES] + ["fitted"])
def test_cv_moments_match_the_hand_written_formulas(name, request):
    if name == "fitted":
        surface = request.getfixturevalue("l0_fitted_surface").moment_surface
        pcs = [PriceChange.scalar(1.0, 1.0 + dp, 4.0) for dp in (0.05, -0.06)]
    else:
        _, make, pcs = next(c for c in BATCH_CASES if c[0] == name)
        surface = make()
    for pc in pcs:
        for n in range(1, surface.max_order):
            assert cv_moment_local(surface, n, pc) == pytest.approx(
                cv_moment_local_reference(surface, n, pc), rel=1e-14, abs=0.0)
        # a difference of two terms of the second CV moment's size, so its
        # rounding error scales with that size
        assert cv_variance(surface, pc)["robust"] == pytest.approx(
            cv_variance_robust_reference(surface, pc),
            rel=0.0, abs=1e-14 * cv_moment_local_reference(surface, 2, pc))


@pytest.mark.parametrize("name, make, pcs", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_build_report_start_budget_fields_are_the_scalar_formulas(name, make, pcs):
    surface = make()
    for pc in pcs:
        rep = build_report(surface, pc)
        assert rep.first_order == cv_first_order(surface, pc)
        assert rep.ra == cv_ra(surface, pc)
        assert rep.robust == cv_moment_local(surface, 1, pc)
        assert rep.moments == tuple(cv_moment_local(surface, n, pc)
                                    for n in range(1, surface.max_order))
        assert rep.decomposition == cv_decompose(surface, pc)
        assert rep.variance == cv_variance(surface, pc)
        assert close(rep.path, cv_path_reference(surface, pc))
        lo = hn_bounds_path_reference(surface, pc, 0.0)
        hi = hn_bounds_path_reference(surface, pc, 1.0 / pc.start.price(0))
        assert close(rep.bounds["lower"], min(lo, hi))
        assert close(rep.bounds["upper"], max(lo, hi))
        # the report's one path batch gives what the public functions give
        assert rep.path == cv_path(surface, pc)
        bounds = sorted(hn_bounds_path(surface, pc, e) for e in (0.0, 1.0 / pc.start.price(0)))
        assert [rep.bounds["lower"], rep.bounds["upper"]] == bounds
        if pc.scalar_delta() > 0:  # --z and --k switch the pair to the tightened one
            rep = build_report(surface, pc, chebyshev_thresholds=(0.3, 0.5))
            cheb = chebyshev_bounds(surface, pc, 0.0, 1.0 / pc.start.price(0), 0.3, 0.5)
            assert [rep.bounds["lower"], rep.bounds["upper"]] == sorted(cheb)


# Scalar reference formulas, one budget at a time.  Each maps (n, b) to an
# order's value and its partials in the own price and in income (a share
# reference: in log price and log income).

def population_reference(pop):
    """The population functionals, summed over the type table row by row."""
    def ref(n, b):
        return (pop.moment(n, b), pop.d_price_moment(n, b),
                n * pop.income_effect_moment(n, b))

    return ref


def share_reference(quantity):
    """W_n = (p/y)^n M_n and its log-derivatives, from a quantity reference."""
    def ref(n, b):
        m, dm_dp, dm_dy = quantity(n, b)
        p, y = b.price(0), b.income
        r = (p / y) ** n
        return r * m, r * (n * m + p * dm_dp), r * (-n * m + y * dm_dy)

    return ref


def chain_rule_reference(share):
    """M_n = (y/p)^n W_n and its partials, from a share reference."""
    def ref(n, b):
        w, d_logp, d_logy = share(n, b)
        p, y = b.price(0), b.income
        return ((y / p) ** n * w, (y ** n / p ** (n + 1)) * (d_logp - n * w),
                (y ** (n - 1) / p ** n) * (d_logy + n * w))

    return ref


def exp_poly_reference(fits):
    """W_n = exp(alpha + sum_s beta_s log(p)^s + sum_s gamma_s log(y)^s) of the
    fitted coefficients, control term at zero, and its log-derivatives."""
    def poly(coefs, x):
        return (sum(c * x ** (s + 1) for s, c in enumerate(coefs)),
                sum((s + 1) * c * x ** s for s, c in enumerate(coefs)))

    def ref(n, b):
        fit = fits[n - 1]
        log_p = [poly(coefs, math.log(p)) for coefs, p in zip(fit.beta, b.prices)]
        log_y, slope_y = poly(fit.gamma, math.log(b.income))
        w = math.exp(fit.alpha + sum(v for v, _ in log_p) + log_y)
        return w, w * log_p[fit.good_index][1], w * slope_y

    return ref


def _surfaces_and_references(name, request):
    """Budgets, and (surface, reference) pairs of one case of
    test_on_budgets_matches_scalar_calls."""
    rng = np.random.default_rng(5)
    if name == "fitted":
        fitted = request.getfixturevalue("l0_fitted_surface")
        lo, hi = fitted.fits[0].domain
        point = np.exp(rng.uniform(0.9 * lo + 0.1 * hi, 0.1 * lo + 0.9 * hi, size=(12, 2)))
        share = exp_poly_reference(fitted.fits)
        return point[:, :1], point[:, 1], [
            (fitted.share_surface, share),
            (fitted.moment_surface, chain_rule_reference(share))]
    pop = POPULATIONS[name]
    prices = rng.uniform(0.8, 1.2, size=(12, pop.k))
    incomes = rng.choice([1.7, 2.5, 2.9, 3.0, 3.2, 4.5], size=12)
    quantity = population_reference(pop)
    share = share_surface_from_population(pop, 4)
    return prices, incomes, [
        (surface_from_population(pop, 4), quantity),
        (share, share_reference(quantity)),
        (quantity_surface_from_shares(share), chain_rule_reference(share_reference(quantity)))]


POPULATIONS = {"L0": L0, "Q0": Q0, "CD2": CobbDouglasPopulation.two_type(0.3),
               "mixture": MIXTURE}


@pytest.mark.parametrize("name", ["L0", "Q0", "CD2", "mixture", "fitted"])
def test_on_budgets_matches_scalar_calls(name, request):
    # every built-in surface's batch, against scalar reference formulas at
    # each budget; the scalar reads give the same values
    prices, incomes, cases = _surfaces_and_references(name, request)
    budgets = [Budget(tuple(p), y) for p, y in zip(prices, incomes)]
    for surface, reference in cases:
        batch = surface.on_budgets(prices, incomes)
        orders = surface.max_order
        assert [a.shape for a in batch] == [(orders, len(budgets))] * 3
        reads = ((surface.moment, surface.d_logp, surface.d_logy)
                 if isinstance(surface, ShareMomentSurface)
                 else (surface.moment, surface.d_price, surface.d_income))
        for i, b in enumerate(budgets):
            for n in range(1, orders + 1):
                for got, read, want in zip(batch, reads, reference(n, b)):
                    assert close(got[n - 1, i], want)
                    assert close(read(n, b), want)
        for low, full in zip(surface.on_budgets(prices, incomes, orders=2), batch):
            np.testing.assert_array_equal(low, full[:2])


def test_scalar_reads_keep_the_last_budget(l0_fitted_surface, monkeypatch):
    # reads at one budget share one batch; a refused budget stores nothing
    batches = []
    basis_matrix = estimation._basis_matrix
    monkeypatch.setattr(estimation, "_basis_matrix",
                        lambda *args: batches.append(1) or basis_matrix(*args))
    surface = fitted_surface(l0_fitted_surface.fits).moment_surface

    def reads(b):
        return [read(n, b) for n in (1, 2, 3)
                for read in (surface.moment, surface.d_price, surface.d_income)]

    a, b = Budget((1.0,), 4.0), Budget((0.95,), 3.9)
    first = reads(a)
    other = reads(b)
    assert reads(a) == first and other != first
    assert len(batches) == 3
    outside = Budget((1.0,), 400.0)
    for _ in range(2):
        for read in (surface.moment, surface.d_price, surface.d_income):
            with pytest.raises(DomainError, match="outside the estimation sample"):
                read(1, outside)
    assert reads(a) == first


def test_build_report_on_a_fitted_surface_builds_two_basis_matrices(
        l0_fitted_surface, monkeypatch):
    # one at the start budget, read by every start-budget field, and one
    # on the quadrature nodes of the price path
    rows = []
    basis_matrix = estimation._basis_matrix
    monkeypatch.setattr(estimation, "_basis_matrix",
                        lambda *args: rows.append(len(args[1])) or basis_matrix(*args))
    surface = fitted_surface(l0_fitted_surface.fits).moment_surface
    build_report(surface, PriceChange.scalar(1.0, 1.05, 4.0))
    assert rows == [1, len(DEFAULT_QUAD.nodes)]


def test_one_batch_per_budget_on_l0(monkeypatch):
    # fresh surfaces: a report reads its start budget and its price path, a
    # verdict its one budget, and the index decomposition its budget and the
    # two incomes of its log-income difference
    from welfare_moments.oracle import _TypeTable
    calls = []
    batch = _TypeTable.moments_on_budgets
    monkeypatch.setattr(_TypeTable, "moments_on_budgets",
                        lambda *args: calls.append(1) or batch(*args))
    box = SupportBox(0.0, 1.0)
    for run, count in (
            (lambda: build_report(surface_from_population(L0, 4), PC_SHORT), 2),
            (lambda: lp_violation_search(surface_from_population(L0, 5), B_STAR, 3, box), 1),
            (lambda: price_index_decompose(share_surface_from_population(L0, 2), 0.1, B_STAR), 3)):
        calls.clear()
        run()
        assert len(calls) == count


def test_on_budgets_refuses_bad_batches(l0_surface):
    with pytest.raises(ShapeError):
        l0_surface.on_budgets(np.ones(3), np.ones(3))
    with pytest.raises(ShapeError):
        l0_surface.on_budgets(np.ones((3, 1)), np.ones(2))
    with pytest.raises(DomainError):
        l0_surface.on_budgets(np.array([[1.0], [-1.0]]), np.ones(2))
    with pytest.raises(DomainError):
        l0_surface.on_budgets(np.ones((2, 1)), np.array([2.0, np.nan]))
    with pytest.raises(OrderError):
        l0_surface.on_budgets(np.ones((2, 1)), np.ones(2), orders=7)


@pytest.mark.parametrize("p1", [1.15, 0.8])
def test_fitted_path_leaving_the_sample_names_its_first_node(l0_fitted_surface, p1):
    # the sample's prices span about [0.88, 1.08]: the path leaves partway
    surface = l0_fitted_surface.moment_surface
    pc = PriceChange.scalar(1.0, p1, 4.0)
    lo, hi = l0_fitted_surface.fits[0].domain  # one sample: every fit has this box
    path = [path_budget_reference(pc, t) for t in DEFAULT_QUAD.nodes]
    outside = [not lo[0] <= np.log(b.price(0)) <= hi[0] for b in path]
    first = outside.index(True)
    assert first > 0
    expected = re.escape("budget with prices %.6g and income 4 lies outside"
                         % path[first].price(0))
    for evaluate in (lambda: cv_path(surface, pc), lambda: hn_bounds_path(surface, pc, 0.2),
                     lambda: build_report(surface, pc)):
        with pytest.raises(DomainError, match=expected):
            evaluate()
    # the node loop fails at the same node
    with pytest.raises(DomainError, match=expected):
        cv_path_reference(surface, pc)
