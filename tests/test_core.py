import numpy as np
import pytest

from welfare_moments import (
    Budget,
    CobbDouglasPopulation,
    DomainError,
    L0,
    LinearTypeMixture,
    MomentSurface,
    OrderError,
    PriceChange,
    ShapeError,
    ShareMomentSurface,
    numeric_partial,
    quantity_surface_from_shares,
    share_surface_from_population,
    shares_to_quantities,
    surface_from_population,
)
from welfare_moments.oracle import B_STAR

from conftest import EQUIV_P, EQUIV_Y, constant_batch, random_budgets


def test_budget_validation():
    with pytest.raises(DomainError):
        Budget((0.0,), 1.0)
    with pytest.raises(DomainError):
        Budget((1.0,), -2.0)
    b = Budget((1.0, 2.0), 3.0)
    assert b.k == 2 and b.price(1) == 2.0
    assert b.with_price(0, 1.5).prices == (1.5, 2.0)
    assert b.with_income(4.0).income == 4.0


def test_price_change_validation():
    with pytest.raises(ValueError):
        PriceChange(Budget((1.0,), 2.0), Budget((1.1,), 2.5))
    pc = PriceChange.scalar(1.0, 1.1, 2.0)
    assert pc.scalar_delta() == pytest.approx(0.1)
    zero = PriceChange.scalar(1.0, 1.0, 2.0)
    assert zero.scalar_delta() == 0.0


def test_scalar_delta_of_two_price_changes():
    own = PriceChange(Budget((1.0, 0.7), 2.0), Budget((1.3, 0.7), 2.0))
    assert own.scalar_delta(0) == 1.3 - 1.0
    assert type(own.scalar_delta(0)) is float
    with pytest.raises(ShapeError, match="only coordinate 1 may move"):
        own.scalar_delta(1)
    both = PriceChange(Budget((1.0, 0.7), 2.0), Budget((1.3, 0.6), 2.0))
    with pytest.raises(ShapeError, match="only coordinate 0 may move"):
        both.scalar_delta(0)


def test_numeric_partial_l0_income(l0_surface):
    got = numeric_partial(l0_surface, 1, B_STAR, "income")
    assert got == pytest.approx(0.5, abs=1e-9)


def test_numeric_partial_l0_price(l0_surface):
    got = numeric_partial(l0_surface, 1, B_STAR, "price")
    assert got == pytest.approx(-1.0, abs=1e-9)


def test_numeric_partial_constant_surface():
    const = MomentSurface(3, constant_batch([2.5] * 3))
    for var in ("price", "income"):
        assert numeric_partial(const, 2, B_STAR, var) == pytest.approx(0.0, abs=1e-12)


def test_numeric_partial_order_error(l0_surface):
    with pytest.raises(OrderError):
        numeric_partial(l0_surface, 7, B_STAR, "income")


def test_numeric_partial_domain_error():
    const = MomentSurface(1, constant_batch([1.0]))
    with pytest.raises(DomainError):
        numeric_partial(const, 1, Budget((1e-7,), 1.0), "price")


def test_numeric_matches_analytic_everywhere(l0_surface, q0_surface, cd2_surface):
    # numeric partials track analytic ones within 1e-6 relative everywhere;
    # Q0 incomes keep away from its kinks at y = 3 and y = 6
    rng = np.random.default_rng(11)
    mixture = surface_from_population(
        LinearTypeMixture([(0.4, 0.6, -0.5, 0.3), (0.6, 1.1, -0.8, 0.1)]), 3)
    cases = [(l0_surface, random_budgets(rng, 5, EQUIV_P, EQUIV_Y)),
             (cd2_surface, random_budgets(rng, 5, (0.6, 1.8), (1.5, 4.0), k=2)),
             (q0_surface, random_budgets(rng, 5, EQUIV_P, EQUIV_Y)),
             (q0_surface, random_budgets(rng, 5, EQUIV_P, (3.2, 5.5))),
             (mixture, random_budgets(rng, 5, EQUIV_P, EQUIV_Y))]
    for surface, budgets in cases:
        for b in budgets:
            for n in (1, 2, 3):
                for var in ("price", "income"):
                    analytic = (surface.d_price(n, b) if var == "price"
                                else surface.d_income(n, b))
                    numeric = numeric_partial(surface, n, b, var)
                    assert abs(numeric - analytic) <= 1e-6 * max(1.0, abs(analytic))


def constant_share_surface(w):
    return ShareMomentSurface(3, constant_batch([w, w ** 2, w ** 3]))


def test_shares_to_quantities_constant():
    vals = shares_to_quantities(constant_share_surface(0.25), Budget((1.0,), 2.0))
    w = 0.25
    assert vals["M1"] == pytest.approx(2 * w)
    assert vals["D_y_M1"] == pytest.approx(w)
    assert vals["D_p_M1"] == pytest.approx(-2 * w)
    # D_y M2 at constant second moment w^2 with zero log-derivative
    assert vals["D_y_M2"] == pytest.approx(2 * 2.0 * w ** 2 / 1.0)


def test_shares_to_quantities_l0_roundtrip(l0_surface):
    ws = share_surface_from_population(L0, 4)
    vals = shares_to_quantities(ws, B_STAR)
    assert vals["M1"] == pytest.approx(0.5, abs=1e-10)
    assert vals["M2"] == pytest.approx(4.0 / 9.0, abs=1e-10)
    assert vals["D_p_M1"] == pytest.approx(-1.0, abs=1e-10)
    assert vals["D_y_M2"] == pytest.approx(11.0 / 18.0, abs=1e-10)
    rng = np.random.default_rng(3)
    for b in random_budgets(rng, 5, EQUIV_P, EQUIV_Y):
        got = shares_to_quantities(ws, b)
        assert got["M1"] == pytest.approx(l0_surface.moment(1, b), abs=1e-10)
        assert got["M3"] == pytest.approx(l0_surface.moment(3, b), abs=1e-10)
        assert got["D_y_M3"] == pytest.approx(l0_surface.d_income(3, b), abs=1e-10)


def test_share_transform_monte_carlo():
    # seeded draws of w = p q / y reproduce the analytic share moment
    rng = np.random.default_rng(2024)
    p, y = 1.0, 2.0
    total = np.zeros(2)
    chunks, size = 10, 100_000
    for _ in range(chunks):
        q = L0.draw_quantities(rng, np.full(size, p), np.full(size, y))
        w = p * q / y
        total += [w.mean(), (w ** 2).mean()]
    mc_w1, mc_w2 = total / chunks
    ws = share_surface_from_population(L0, 2)
    assert mc_w1 == pytest.approx(ws.moment(1, B_STAR), abs=2e-3)
    assert mc_w2 == pytest.approx(ws.moment(2, B_STAR), abs=2e-3)


def test_quantity_surface_from_shares_matches_population(l0_surface):
    qs = quantity_surface_from_shares(share_surface_from_population(L0, 4))
    rng = np.random.default_rng(5)
    for b in random_budgets(rng, 5, EQUIV_P, EQUIV_Y):
        for n in (1, 2, 3):
            assert qs.moment(n, b) == pytest.approx(l0_surface.moment(n, b), abs=1e-10)
            assert qs.d_income(n, b) == pytest.approx(l0_surface.d_income(n, b), abs=1e-9)
            assert qs.d_price(n, b) == pytest.approx(l0_surface.d_price(n, b), abs=1e-9)


def test_jensen_inequality_all_oracles(l0_surface, q0_surface, cd2_surface):
    rng = np.random.default_rng(7)
    for surface, p_range, y_range, k in [
        (l0_surface, EQUIV_P, EQUIV_Y, 1),
        (q0_surface, EQUIV_P, EQUIV_Y, 1),
        (cd2_surface, (0.6, 1.8), (1.5, 4.0), 2),
    ]:
        for b in random_budgets(rng, 10, p_range, y_range, k):
            assert surface.moment(2, b) >= surface.moment(1, b) ** 2 - 1e-12


def test_multigood_psd_second_moment():
    pop = CobbDouglasPopulation.two_type(0.3)
    b = Budget((1.0, 1.3), 2.0)
    m1 = pop.mean_vector(b)
    cov = pop.second_matrix(b) - np.outer(m1, m1)
    assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12


def test_surface_order_error(l0_surface):
    with pytest.raises(OrderError):
        l0_surface.moment(7, B_STAR)
    with pytest.raises(OrderError):
        l0_surface.moment(0, B_STAR)
