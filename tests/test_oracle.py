import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from welfare_moments import (
    Budget,
    CobbDouglasPopulation,
    DomainError,
    L0,
    LinearHeteroPopulation,
    LinearTypeMixture,
    OdeConfig,
    PriceChange,
    Q0,
    QuantileCounterexamplePopulation,
    ShapeError,
    aggregate_expenditure,
    compensated_jacobian_multigood,
    counterexample_discrepancy,
    cv_constant_income_effect,
    demand_support,
    exact_cv_type,
    exact_moment,
    income_effect_moment,
    population_cv,
    population_cv_sweep,
    surface_from_population,
)
from welfare_moments import oracle
from welfare_moments.oracle import B_STAR, PopulationCv

from conftest import EQUIV_P, EQUIV_Y, cobb_douglas_cv_mean, random_budgets


def test_exact_moment_l0():
    assert exact_moment(L0, 1, B_STAR) == pytest.approx(0.5, abs=1e-12)
    assert exact_moment(L0, 2, B_STAR) == pytest.approx(4.0 / 9.0, abs=1e-12)


def test_exact_moment_zero_demand():
    silent = LinearTypeMixture([(1.0, 0.0, 0.0, 0.0)])
    assert exact_moment(silent, 1, B_STAR) == 0.0


def test_income_effect_moment_examples():
    assert income_effect_moment(L0, 1, B_STAR) == pytest.approx(0.5, abs=1e-12)
    assert income_effect_moment(L0, 2, B_STAR) == pytest.approx(11.0 / 36.0, abs=1e-12)
    assert income_effect_moment(Q0, 2, B_STAR) == pytest.approx(11.0 / 36.0, abs=1e-9)


def test_income_effect_lemma_identity(l0_surface, q0_surface, cd2_surface):
    # E[q^(n-1) dq/dy] equals the income derivative of the n-th moment over n
    rng = np.random.default_rng(17)
    cd2 = CobbDouglasPopulation.two_type(0.3)
    cases = [
        (L0, l0_surface, random_budgets(rng, 20, EQUIV_P, EQUIV_Y)),
        (Q0, q0_surface, random_budgets(rng, 20, EQUIV_P, EQUIV_Y)),
        (cd2, cd2_surface, random_budgets(rng, 20, (0.6, 1.8), (1.5, 4.0), k=2)),
    ]
    for pop, surface, budgets in cases:
        for b in budgets:
            for n in (1, 2, 3, 4):
                lhs = income_effect_moment(pop, n, b)
                rhs = surface.d_income(n, b) / n
                assert abs(lhs - rhs) <= 1e-8


def test_counterexample_closed_forms():
    def linear_form(n):
        return (1.0 / 12.0) * (1.0 / 3.0) ** n + (5.0 / 12.0) * (2.0 / 3.0) ** n

    def quantile_form(n):
        return (1.0 / 6.0) * 0.5 ** n + (1.0 / 3.0) * (2.0 / 3.0) ** n

    for n in (1, 2, 3, 4):
        lin, qua = counterexample_discrepancy(n)
        assert lin == pytest.approx(linear_form(n), abs=1e-9)
        assert qua == pytest.approx(quantile_form(n), abs=1e-9)
    lin1, qua1 = counterexample_discrepancy(1)
    assert lin1 == pytest.approx(11.0 / 36.0, abs=1e-9)
    assert qua1 == pytest.approx(11.0 / 36.0, abs=1e-9)
    lin2, qua2 = counterexample_discrepancy(2)
    assert lin2 == pytest.approx(7.0 / 36.0, abs=1e-9)
    assert qua2 == pytest.approx(41.0 / 216.0, abs=1e-9)
    assert abs(lin2 - qua2) > 0.004
    lin3, qua3 = counterexample_discrepancy(3)
    assert lin3 == pytest.approx(0.126543, abs=1e-6)
    assert qua3 == pytest.approx(0.119599, abs=1e-6)


def test_observational_equivalence_below_income_three(l0_surface, q0_surface):
    rng = np.random.default_rng(23)
    for b in random_budgets(rng, 10, EQUIV_P, EQUIV_Y):
        for n in (1, 2, 3, 4):
            assert l0_surface.moment(n, b) == pytest.approx(
                q0_surface.moment(n, b), abs=1e-9)


def test_exact_cv_zero_change():
    pc = PriceChange.scalar(1.0, 1.0, 2.0)
    assert exact_cv_type(lambda p, y: 0.7 - p[0] + 0.4 * y, pc) == pytest.approx(0.0, abs=1e-14)


def test_exact_cv_quasilinear_consumer_surplus():
    # no income effect: the ODE decouples and CV is the consumer surplus
    pc = PriceChange.scalar(1.0, 1.2, 2.0)
    cv = exact_cv_type(lambda p, y: 2.0 - p[0], pc)
    surplus = 0.2 * (2.0 - 1.0) - 0.2 ** 2 / 2.0
    assert cv == pytest.approx(surplus, abs=1e-10)


def test_exact_cv_matches_constant_effect_closed_form():
    for w1 in (0.0, 0.5, 1.0):
        for a in (1.0 / 3.0, 2.0 / 3.0):
            for dp in (0.05, 0.15, 0.3):
                pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
                demand = lambda p, y, w1=w1, a=a: w1 - p[0] + a * y
                rk4 = exact_cv_type(demand, pc)
                closed = cv_constant_income_effect(demand, a, pc)
                assert abs(rk4 - closed) <= 1e-8


def test_exact_cv_domain_exit_reports_time():
    pc = PriceChange.scalar(1.0, 1.1, 2.0)
    with pytest.raises(DomainError) as err:
        exact_cv_type(lambda p, y: -100.0, pc)
    assert "t=" in str(err.value)


def test_ode_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(steps=8)


def test_population_cv_zero_change():
    res = population_cv(L0, PriceChange.scalar(1.0, 1.0, 2.0))
    assert res.mean == pytest.approx(0.0, abs=1e-14)
    assert res.variance == pytest.approx(0.0, abs=1e-14)


def test_population_cv_degenerate_variance():
    single = LinearTypeMixture([(1.0, 0.6, -0.5, 0.3)])
    res = population_cv(single, PriceChange.scalar(1.0, 1.1, 2.0))
    assert res.variance == 0.0


def test_population_cv_l0_ground_truth():
    res = population_cv(L0, PriceChange.scalar(1.0, 1.1, 2.0))
    assert 0.0460 < res.mean < 0.0470
    assert res.variance > 0.0


def test_aggregate_expenditure_examples():
    even = CobbDouglasPopulation.two_type(0.5)
    assert aggregate_expenditure(even, (1.0, 4.0), 1.0) == pytest.approx((2.0, 2.0))
    polar = CobbDouglasPopulation.two_type(1.0)
    e_total, e_ra = aggregate_expenditure(polar, (1.0, 4.0), 1.0)
    assert e_total == pytest.approx(2.5)
    assert e_ra == pytest.approx(2.0)
    tilted = CobbDouglasPopulation.two_type(0.3)
    assert aggregate_expenditure(tilted, (1.0, 1.0), 1.0) == pytest.approx((1.0, 1.0))
    with pytest.raises(DomainError):
        aggregate_expenditure(even, (1.0, -1.0), 1.0)


def test_aggregate_expenditure_am_gm():
    rng = np.random.default_rng(31)
    for alpha in (0.1, 0.3, 0.5, 0.77):
        pop = CobbDouglasPopulation.two_type(alpha)
        for _ in range(100):
            p = (rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            e_total, e_ra = aggregate_expenditure(pop, p, 1.0)
            assert e_ra <= e_total + 1e-12
            degenerate = abs(alpha - 0.5) < 1e-15 or abs(p[0] - p[1]) < 1e-15
            if degenerate:
                assert abs(e_total - e_ra) <= 1e-12
            else:
                assert e_total - e_ra > 1e-12
        p_eq = rng.uniform(0.2, 5.0)
        e_total, e_ra = aggregate_expenditure(pop, (p_eq, p_eq), 1.0)
        assert abs(e_total - e_ra) <= 1e-12


def test_surface_from_population_l0(l0_surface):
    assert l0_surface.moment(1, B_STAR) == pytest.approx(0.5, abs=1e-12)
    assert l0_surface.d_price(1, B_STAR) == pytest.approx(-1.0, abs=1e-12)
    assert l0_surface.d_income(2, B_STAR) == pytest.approx(11.0 / 18.0, abs=1e-12)


def test_surface_from_population_cd2_mean_vector():
    pop = CobbDouglasPopulation.two_type(0.3)
    b = Budget((1.0, 2.0), 3.0)
    np.testing.assert_allclose(pop.mean_vector(b),
                               [3.0 / 2.0, 3.0 / 4.0], atol=1e-12)
    # closed forms from mean shares (1/2, 1/2) and
    # E[alpha alpha^T] = [[0.29, 0.21], [0.21, 0.29]]
    np.testing.assert_allclose(pop.jacobian(b), np.diag([-1.5, -0.375]), atol=1e-12)
    np.testing.assert_allclose(pop.second_matrix(b),
                               [[2.61, 0.945], [0.945, 0.6525]], atol=1e-12)
    np.testing.assert_allclose(pop.d_income_second(b),
                               [[1.74, 0.63], [0.63, 0.435]], atol=1e-12)


def test_surface_from_population_cd2_rejects_one_price_budget():
    pop = CobbDouglasPopulation.two_type(0.3)
    surface = surface_from_population(pop, 3)
    b = Budget((1.0,), 2.0)
    for field in (pop.mean_vector, pop.jacobian, pop.second_matrix,
                  pop.d_income_second, lambda b: compensated_jacobian_multigood(pop, b)):
        with pytest.raises(ShapeError, match="1 prices but the population has 2 goods"):
            field(b)
    # the scalar fields read only the modeled good's price
    assert surface.moment(1, b) == pytest.approx(1.0, abs=1e-12)


def test_cobb_douglas_multigood_moments_match_surface_batch():
    pop = CobbDouglasPopulation.two_type(0.3)
    for prices, y in (((1.0, 2.0), 3.0), ((0.7, 1.3), 2.2), ((1.4, 0.9), 5.0)):
        b = Budget(prices, y)
        for g in range(2):
            surface = surface_from_population(pop, 2, good=g)
            pairs = ((pop.mean_vector(b)[g], surface.moment(1, b)),
                     (pop.jacobian(b)[g, g], surface.d_price(1, b)),
                     (pop.second_matrix(b)[g, g], surface.moment(2, b)),
                     (pop.d_income_second(b)[g, g], surface.d_income(2, b)))
            for matrix_value, batch_value in pairs:
                assert matrix_value == pytest.approx(batch_value, rel=1e-12, abs=0.0)


def test_surface_degenerate_population_jensen_equality():
    single = LinearTypeMixture([(1.0, 0.6, -0.5, 0.3)])
    surface = surface_from_population(single, 3)
    rng = np.random.default_rng(3)
    for b in random_budgets(rng, 5, (0.8, 1.2), (1.5, 2.5)):
        assert surface.moment(2, b) == pytest.approx(surface.moment(1, b) ** 2, abs=1e-14)


def test_demand_support_l0():
    lo, hi = demand_support(L0, B_STAR)
    assert lo == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_q0_support_matches_l0():
    rng = np.random.default_rng(9)
    for b in random_budgets(rng, 5, EQUIV_P, EQUIV_Y):
        lo_l, hi_l = demand_support(L0, b)
        lo_q, hi_q = demand_support(Q0, b)
        assert lo_q == pytest.approx(lo_l, abs=1e-9)
        assert hi_q == pytest.approx(hi_l, abs=1e-9)


def test_moments_monte_carlo_cross_check():
    # seeded Monte Carlo over ten million draws as an independent check
    rng = np.random.default_rng(77)
    sums = np.zeros(2)
    chunks, size = 10, 1_000_000
    for _ in range(chunks):
        q = L0.draw_quantities(rng, np.full(size, 1.0), np.full(size, 2.0))
        sums += [q.mean(), (q ** 2).mean()]
    m1, m2 = sums / chunks
    assert m1 == pytest.approx(0.5, abs=1e-3)
    assert m2 == pytest.approx(4.0 / 9.0, abs=1e-3)


def test_population_validation():
    with pytest.raises(ValueError):
        LinearHeteroPopulation(income_effects=((0.5, 0.6), (0.7, 0.6)))
    with pytest.raises(ValueError):
        CobbDouglasPopulation([((0.5, 0.4), 1.0)])
    with pytest.raises(ValueError):
        LinearTypeMixture([(0.7, 0.0, 0.0, 0.0)])


@pytest.mark.parametrize("weights", [(float("nan"), 1.0), (1.5, -0.5)],
                         ids=["nan", "negative"])
def test_population_weights_validated(weights):
    w0, w1 = weights
    with pytest.raises(ValueError, match="type weights"):
        LinearHeteroPopulation(income_effects=((1.0 / 3.0, w0), (2.0 / 3.0, w1)))
    with pytest.raises(ValueError, match="type weights"):
        CobbDouglasPopulation([((0.3, 0.7), w0), ((0.7, 0.3), w1)])
    with pytest.raises(ValueError, match="type weights"):
        LinearTypeMixture([(w0, 0.6, -0.5, 0.3), (w1, 1.0, -1.0, 0.1)])


def test_population_coefficients_validated():
    nan = float("nan")
    with pytest.raises(ValueError, match="type weights"):
        LinearHeteroPopulation(income_effects=((0.5, nan),))
    with pytest.raises(ValueError, match="must be finite"):
        LinearHeteroPopulation(income_effects=((nan, 1.0),))
    with pytest.raises(ValueError, match="must be finite"):
        LinearHeteroPopulation(intercept_hi=nan)
    for maker in (CobbDouglasPopulation.single, CobbDouglasPopulation.two_type):
        with pytest.raises(ValueError, match="share vectors"):
            maker(nan)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        LinearTypeMixture([(1.0, 0.6, nan, 0.3)])


def test_exact_cv_accepts_demand_callable():
    pc = PriceChange.scalar(1.0, 1.1, 2.0)

    def demand(p, y):
        return 0.5 - p[0] + (2.0 / 3.0) * y

    rk4 = exact_cv_type(demand, pc)
    closed = cv_constant_income_effect(demand, 2.0 / 3.0, pc)
    assert abs(rk4 - closed) <= 1e-8


# Independent oracles: one RK4 integration per price change, and one demand
# evaluation per quadrature segment, as the library computed them before the
# sweep stacked every price change into one family and solved it in closed
# form.  RK4 is second order across Q0's kinks, so at 4096 steps it is within
# about 1e-13 of the exact solution there, and far closer elsewhere.

def _segment_nodes(lo, hi, n=64):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    return lo + (hi - lo) * x, (hi - lo) * w


def _serial_drift(pop, pc, n_nodes=64):
    p0 = np.asarray(pc.start.prices)
    dp = pc.delta
    if isinstance(pop, LinearHeteroPopulation):
        u, w = _segment_nodes(pop.a0, pop.a1, n_nodes)
        om = np.concatenate([u for _ in pop.effects])
        ef = np.concatenate([np.full_like(u, a) for a, _ in pop.effects])
        w = np.concatenate([pr * w / (pop.a1 - pop.a0) for _, pr in pop.effects])

        def drift(t, y):
            p = float(p0[0] + t * dp[0])
            return (om - pop.beta * p + ef * y) * dp[0]
    elif pop is Q0:
        parts = [_segment_nodes(lo, hi, n_nodes) for lo, hi in Q0._segments(pc.income)]
        om = np.concatenate([x for x, _ in parts])
        w = np.concatenate([w for _, w in parts])

        def drift(t, y):
            p = float(p0[0] + t * dp[0])
            return Q0.demand(om, p, y) * dp[0]
    elif isinstance(pop, CobbDouglasPopulation):
        alphas = np.array([alpha for alpha, _ in pop.types])
        w = np.array([prob for _, prob in pop.types])

        def drift(t, y):
            return y * (alphas @ (dp / (p0 + t * dp)))
    else:
        w, c, gp, gy = (np.array([t[i] for t in pop.types]) for i in range(4))

        def drift(t, y):
            p = float(p0[0] + t * dp[0])
            return (c + gp * p + gy * y) * dp[0]
    return drift, w


def _serial_cv_values(pop, pc, steps):
    """Per-type CV of one price change by RK4, and the type weights."""
    drift, w = _serial_drift(pop, pc)
    y0 = np.full(len(w), pc.income)
    s = np.zeros_like(y0)
    h = 1.0 / steps
    for i in range(steps):
        t = i * h
        k1 = drift(t, y0 + s)
        k2 = drift(t + h / 2.0, y0 + s + (h / 2.0) * k1)
        k3 = drift(t + h / 2.0, y0 + s + (h / 2.0) * k2)
        k4 = drift(t + h, y0 + s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s, w


def _serial_population_cv(pop, pc, steps):
    s, w = _serial_cv_values(pop, pc, steps)
    mean = float(np.dot(w, s))
    variance = float(np.dot(w, (s - mean) ** 2))
    raw = tuple(float(np.dot(w, s ** m)) for m in range(1, 5))
    return mean, variance, raw


def _assert_sweep_matches_serial(pop, pcs):
    sweep = population_cv_sweep(pop, pcs)
    assert len(sweep) == len(pcs)
    for pc, res in zip(pcs, sweep):
        mean, variance, raw = _serial_population_cv(pop, pc, steps=4096)
        assert res.mean == pytest.approx(mean, rel=0.0, abs=1e-12)
        assert res.variance == pytest.approx(variance, rel=0.0, abs=1e-12)
        assert res.raw_moments == pytest.approx(raw, rel=0.0, abs=1e-12)
        assert res == population_cv(pop, pc)


def test_population_cv_sweep_matches_serial_l0():
    pcs = [PriceChange.scalar(1.0, 1.0 + dp, 2.0) for dp in (0.16, -0.05, 0.0, 0.01)]
    _assert_sweep_matches_serial(L0, pcs)
    assert population_cv_sweep(Q0, []) == []


def test_population_cv_sweep_matches_serial_q0_mixed_incomes():
    # below income 3 the quantile population has four segments, above it two
    budgets = ((1.0, 2.0), (0.9, 3.5), (1.1, 2.6), (1.0, 4.5), (1.2, 1.7))
    pcs = [PriceChange.scalar(p, p + dp, y)
           for (p, y), dp in zip(budgets, (0.1, -0.15, 0.04, 0.2, -0.02))]
    assert sorted({len(Q0._segments(pc.income)) for pc in pcs}) == [2, 4]
    _assert_sweep_matches_serial(Q0, pcs)


def test_population_cv_sweep_matches_serial_cd2_two_prices():
    pop = CobbDouglasPopulation.two_type(0.3)
    pcs = [PriceChange(Budget((1.0, 1.0), 2.0), Budget((1.05, 1.0), 2.0)),
           PriceChange(Budget((0.8, 1.3), 3.0), Budget((0.9, 1.1), 3.0)),
           PriceChange(Budget((1.0, 1.0), 2.0), Budget((0.7, 1.0), 2.0))]
    _assert_sweep_matches_serial(pop, pcs)
    for pc, res in zip(pcs, population_cv_sweep(pop, pcs)):
        assert res.mean == pytest.approx(cobb_douglas_cv_mean(pop, pc), rel=1e-14, abs=0.0)


def test_population_cv_sweep_matches_serial_type_mixture():
    pop = LinearTypeMixture([(0.2, 0.6, -0.5, 0.3), (0.5, 1.0, -1.0, 0.1),
                             (0.3, 0.2, -0.2, 0.6)])
    pcs = [PriceChange.scalar(1.0, 1.0 + dp, y) for dp, y in ((0.1, 2.0), (-0.2, 1.5))]
    _assert_sweep_matches_serial(pop, pcs)


def test_population_cv_sweep_domain_error_names_price_change():
    falling = LinearTypeMixture([(1.0, 10.0, 0.0, 0.0)])
    pcs = [PriceChange.scalar(1.0, 1.0 + dp, 2.0) for dp in (-0.01, -0.5)]
    with pytest.raises(DomainError) as err:
        population_cv_sweep(falling, pcs)
    message = str(err.value)
    assert "t=0.400000 " in message
    assert "dp=-0.5 " in message and "income 2" in message


def test_population_cv_income_dipping_below_zero_inside_the_path():
    # q = -30 + 20 p rises through zero as p goes from 1 to 2, so the income
    # 2 - 10 t + 10 t^2 is negative only inside the path: its least value
    # is at the piece's turning point, not at an end
    giffen = LinearTypeMixture([(1.0, -30.0, 20.0, 0.0)])
    with pytest.raises(DomainError, match=r"t=0\.276393 .*dp=1 "):
        population_cv(giffen, PriceChange.scalar(1.0, 2.0, 2.0))


def test_turning_point_zeroes_the_rate():
    r0 = np.array([0.3, -0.2, 0.5, 0.1, 0.2])
    lam = np.array([0.1, -0.4, 0.0, 2.0, 0.1])
    a1 = np.array([-0.04, 0.09, -0.25, -0.01, 0.04])
    u = oracle._turning_point(r0, lam, a1)
    # the last two rates never vanish for u > 0
    assert np.isfinite(u).tolist() == [True, True, True, False, False]
    u, r0, lam, a1 = u[:3], r0[:3], lam[:3], a1[:3]
    growth = np.exp(lam * u)
    rate = r0 * growth + a1 * np.where(lam == 0.0, u, (growth - 1.0) / np.where(lam == 0.0, 1.0, lam))
    assert np.all(np.abs(rate) <= 1e-15)
    assert u[2] == 2.0


def _q0_kink_crossings(pc):
    """Q0 type nodes whose income ends on the other side of its kink, by RK4."""
    s, _ = _serial_cv_values(Q0, pc, 256)
    omega = np.concatenate([_segment_nodes(lo, hi)[0] for lo, hi in Q0._segments(pc.income)])
    kink = 6.0 * np.minimum(omega, 1.0 - omega)
    return int(np.sum((pc.income < kink) != (pc.income + s < kink)))


@pytest.mark.parametrize("dp,y", [(0.2, 2.0), (0.2, 2.9), (-0.2, 2.0), (-0.2, 3.2)])
def test_population_cv_sweep_q0_kink_crossings(dp, y):
    pc = PriceChange.scalar(1.0, 1.0 + dp, y)
    assert _q0_kink_crossings(pc) > 0
    _assert_sweep_matches_serial(Q0, [pc])


class _QuantileTypes(QuantileCounterexamplePopulation):
    """Q0's demand for a finite list of types omega, equally weighted."""

    def __init__(self, *omegas):
        self.omegas = np.array(omegas)

    def _types(self, y, good, x, w):
        return (self.omegas[None, :],), np.full((1, len(self.omegas)), 1.0 / len(self.omegas))


@pytest.mark.parametrize("omegas,y", [((0.25, 0.75), 1.5), ((1.0 / 3.0, 2.0 / 3.0), 2.0)])
@pytest.mark.parametrize("dp", [0.2, -0.2])
def test_population_cv_starting_on_a_kink(omegas, y, dp):
    # each type's kink, 6 omega or 6 (1 - omega), sits exactly at the start income
    assert all(6.0 * min(om, 1.0 - om) == y for om in omegas)
    pop, pc = _QuantileTypes(*omegas), PriceChange.scalar(1.0, 1.0 + dp, y)
    rk4 = population_cv(pop, pc, OdeConfig(4096))
    res = population_cv(pop, pc)
    assert res.raw_moments == pytest.approx(rk4.raw_moments, rel=0.0, abs=1e-12)
    assert res.variance == pytest.approx(rk4.variance, rel=0.0, abs=1e-12)


CLOSED_FORM_POPULATIONS = (L0, Q0, CobbDouglasPopulation.two_type(0.3),
                           LinearTypeMixture([(0.2, 0.6, -0.5, 0.3), (0.8, 1.0, -1.0, 0.1)]))


def test_population_cv_sweep_zero_change_is_exactly_zero():
    pc = PriceChange.scalar(1.0, 1.0, 2.0)
    for pop in CLOSED_FORM_POPULATIONS:
        if pop.k == 2:
            pc = PriceChange(Budget((1.0, 1.0), 2.0), Budget((1.0, 1.0), 2.0))
        assert population_cv(pop, pc) == PopulationCv(0.0, 0.0, (0.0, 0.0, 0.0, 0.0))


def test_population_cv_tiny_change_matches_constant_effect_closed_form():
    # dp = 1e-9 keeps every lam u far inside the Taylor branch of phi.  L0's
    # CV is affine in the intercept, so its mean is the mean-intercept type's.
    pc = PriceChange.scalar(1.0, 1.0 + 1e-9, 2.0)
    mid = (L0.a0 + L0.a1) / 2.0
    expected = sum(prob * cv_constant_income_effect(
        lambda p, y, a=a: mid - L0.beta * p[0] + a * y, a, pc) for a, prob in L0.effects)
    assert population_cv(L0, pc).mean == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_phi_matches_decimal_reference():
    xs = np.array([1e-12, -1e-9, 1e-5, -0.01, 0.3, -0.49, 0.5, -0.51, 1.5, -4.0, 20.0])
    phi1, phi2 = oracle._phi(xs)
    with localcontext() as ctx:
        ctx.prec = 50
        for x, f1, f2 in zip(xs, phi1, phi2):
            d = Decimal(float(x))
            em1 = d.exp() - 1
            assert f1 == pytest.approx(float(em1 / d), rel=4e-16, abs=0.0)
            assert f2 == pytest.approx(float((em1 - d) / (d * d)), rel=4e-16, abs=0.0)
    phi1, phi2 = oracle._phi(np.array([0.0, -0.0]))
    assert phi1.tolist() == [1.0, 1.0] and phi2.tolist() == [0.5, 0.5]


def test_population_cv_sweep_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pop in CLOSED_FORM_POPULATIONS[:3]:
            others = (1.0,) * (pop.k - 1)
            pcs = [PriceChange(Budget((1.0,) + others, y), Budget((1.0 + dp,) + others, y))
                   for dp in (0.0, 1e-9, 0.15, -0.2) for y in (1.5, 2.0, 3.0)]
            population_cv_sweep(pop, pcs)


def test_q0_quadrature_matches_segment_loop():
    def serial_integrate(f, b, n_nodes=64):
        total = 0.0
        for lo, hi in Q0._segments(b.income):
            x, w = _segment_nodes(lo, hi, n_nodes)
            total += float(np.dot(w, f(x)))
        return total

    budgets = [Budget((p, ), y) for p, y in
               ((1.0, 2.0), (0.85, 1.7), (1.15, 2.9), (0.95, 3.0), (1.0, 3.4), (1.1, 5.5))]
    for b in budgets:
        p, y = b.price(0), b.income
        for n in (1, 2, 3, 4):
            assert Q0.moment(n, b) == serial_integrate(
                lambda om: Q0.demand(om, p, y) ** n, b)
            assert Q0.income_effect_moment(n, b) == serial_integrate(
                lambda om: Q0.demand(om, p, y) ** (n - 1) * Q0.d_income(om, y), b)
            assert Q0.income_effect_power(n, b) == serial_integrate(
                lambda om: Q0.demand(om, p, y) * Q0.d_income(om, y) ** n, b)


# Independent oracle: the closed forms the linear and Cobb-Douglas
# populations used before they became type tables.

def _uniform_power_mean(pop, c, m):
    # E[(u + c)^m] for u ~ U(a0, a1)
    if m == 0:
        return 1.0
    hi, lo = pop.a1 + c, pop.a0 + c
    return (hi ** (m + 1) - lo ** (m + 1)) / ((m + 1) * (pop.a1 - pop.a0))


def _linear_closed_forms(pop, n, b):
    def mean(f, m):
        return sum(p * f(a) * _uniform_power_mean(pop, -pop.beta * b.price(0) + a * b.income, m)
                   for a, p in pop.effects)

    shifts = [-pop.beta * b.price(0) + a * b.income for a, _ in pop.effects]
    return {
        "moment": mean(lambda a: 1.0, n),
        "d_price_moment": -pop.beta * n * mean(lambda a: 1.0, n - 1),
        "income_effect_moment": mean(lambda a: a, n - 1),
        "income_effect_power": mean(lambda a: a ** n, 1),
        "support": (pop.a0 + min(shifts), pop.a1 + max(shifts)),
    }


def _cobb_douglas_closed_forms(pop, n, b, good):
    y, p = b.income, b.price(good)
    share_power_mean = sum(prob * alpha[good] ** n for alpha, prob in pop.types)
    moment = share_power_mean * (y / p) ** n
    quantities = [alpha[good] * y / p for alpha, _ in pop.types]
    return {
        "moment": moment,
        "d_price_moment": -n * moment / p,
        "income_effect_moment": moment / y,
        "income_effect_power": sum(prob * (alpha[good] * y / p) * (alpha[good] / p) ** n
                                   for alpha, prob in pop.types),
        "support": (min(quantities), max(quantities)),
    }


def _assert_table_matches(pop, closed, n, b, good=0):
    def close(got, want):
        assert abs(got - want) <= 1e-13 * abs(want) + 1e-15, (n, b, got, want)

    for name in ("moment", "income_effect_moment", "income_effect_power"):
        close(getattr(pop, name)(n, b, good=good), closed[name])
    close(pop.d_price_moment(n, b, good, good=good), closed["d_price_moment"])
    for got, want in zip(pop.support(b, good=good), closed["support"]):
        close(got, want)


TABLE_BUDGETS = ((1.0, 2.0), (0.85, 1.7), (1.15, 2.9), (0.95, 3.4), (1.1, 4.5), (0.9, 5.5))


def test_linear_table_matches_closed_forms():
    wide = LinearHeteroPopulation(0.2, 1.7, 0.8, ((0.1, 0.2), (0.5, 0.3), (0.9, 0.5)))
    for pop in (L0, wide):
        for p, y in TABLE_BUDGETS:
            b = Budget((p,), y)
            for n in range(1, 8):
                _assert_table_matches(pop, _linear_closed_forms(pop, n, b), n, b)


def test_cobb_douglas_table_matches_closed_forms():
    three = CobbDouglasPopulation([((0.2, 0.8), 0.25), ((0.5, 0.5), 0.35), ((0.9, 0.1), 0.4)])
    for pop in (CobbDouglasPopulation.two_type(0.3), three):
        for p, y in TABLE_BUDGETS:
            b = Budget((p, 1.3 - p / 2.0), y)
            for good in (0, 1):
                for n in range(1, 8):
                    closed = _cobb_douglas_closed_forms(pop, n, b, good)
                    _assert_table_matches(pop, closed, n, b, good)
                    assert pop.d_price_moment(n, b, 1 - good, good=good) == 0.0


def test_type_table_rejects_unknown_good():
    b = Budget((1.0, 1.0), 2.0)
    with pytest.raises(ShapeError, match="good 1"):
        L0.moment(1, b, good=1)
    with pytest.raises(ShapeError, match="good 2"):
        CobbDouglasPopulation.two_type(0.3).support(b, good=2)


def test_q0_one_demand_evaluation_per_budget(monkeypatch):
    # every order and partial read at one budget comes from one evaluation
    # of the type table's demand
    calls = []
    demand = QuantileCounterexamplePopulation._demand

    def counted(self, nodes, p, y):
        calls.append((float(np.squeeze(p)), y))
        return demand(self, nodes, p, y)

    monkeypatch.setattr(QuantileCounterexamplePopulation, "_demand", counted)
    surface = surface_from_population(Q0, 4)
    budgets = [Budget((p,), y) for p, y in TABLE_BUDGETS]
    for b in budgets:
        for n in range(1, 5):
            surface.moment(n, b)
            surface.d_price(n, b)
            surface.d_income(n, b)
    assert calls == [(b.price(0), b.income) for b in budgets]
