import numpy as np
import pytest

from welfare_moments import (
    Budget,
    CobbDouglasPopulation,
    L0,
    LinearTypeMixture,
    OrderError,
    RationalityVerdict,
    SupportBox,
    degree1_cone_test,
    demand_support,
    lp_violation_search,
    monomial_translation,
    slutsky_moment_inequality,
    surface_from_population,
    translate_polynomial,
)
from welfare_moments.oracle import B_STAR
from welfare_moments.rationality import TOLERANCE, hankel_verdict, simplex_max

from conftest import RATIONAL_P, RATIONAL_Y, random_budgets


def _chebyshev_lobatto(lo, hi, n):
    """Chebyshev-spaced grid including both endpoints."""
    if hi <= lo:
        return np.array([lo])
    j = np.arange(n)
    x = np.cos(np.pi * j / (n - 1))
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * x[::-1]


def _grid_lp(surface, b, degree, box, grid_size):
    """(c, a_ub, b_ub) of the grid LP: maximize the translation over
    l1-normalized polynomials nonnegative at Chebyshev points of the box;
    the variables are the positive and negative parts of the coefficients."""
    gammas = np.array([monomial_translation(surface, i, b).value
                       for i in range(degree + 1)])
    grid = _chebyshev_lobatto(box.q_min, box.q_max, grid_size)
    vand = np.vander(grid, degree + 1, increasing=True)  # rows: [1, x, x^2, ...]
    c = np.concatenate([gammas, -gammas])
    a_ub = np.vstack([np.hstack([-vand, vand]),          # -(sum a_i x^i) <= 0
                      np.ones((1, 2 * (degree + 1)))])  # l1 normalization
    b_ub = np.concatenate([np.zeros(len(grid)), [1.0]])
    return c, a_ub, b_ub


def lp_violation_search_reference(surface, b, degree, box, grid_size=None):
    """The former verdict: the grid LP solved by the dense simplex.

    Grid nonnegativity relaxes nonnegativity on the box, so its optimum
    bounds the exact test's from above; a positive optimum beyond
    tolerance is a violation with the maximizing coefficients as witness.
    """
    if degree + 2 > surface.max_order:
        raise OrderError("degree %d needs moment order %d, surface has %d"
                         % (degree, degree + 2, surface.max_order))
    if grid_size is None:
        grid_size = 10 * (degree + 1)
    if grid_size < 10 * (degree + 1):
        raise ValueError("grid must have at least 10 * (degree + 1) points")
    value, x = simplex_max(*_grid_lp(surface, b, degree, box, grid_size))
    coeffs = tuple(x[:degree + 1] - x[degree + 1:])
    return RationalityVerdict(passed=value <= TOLERANCE, worst_margin=float(value),
                              witness=coeffs if value > TOLERANCE else None)


def random_mixture(seed):
    """The three-type linear mixture of acceptance criterion 10."""
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(3))
    return LinearTypeMixture([(m, rng.uniform(0.0, 1.5), rng.uniform(-1.0, 0.5),
                               rng.uniform(-0.2, 0.6)) for m in masses])


def direct_translation(mixture, coeffs, b):
    """Translation of a polynomial by direct integration over the types."""
    total = 0.0
    for mass, c, gp, gy in mixture.types:
        q = c + gp * b.price(0) + gy * b.income
        total += mass * (gp + q * gy) * sum(a * q ** i for i, a in enumerate(coeffs))
    return total


def planted_violator():
    """Ninety percent of mass has Slutsky term -0.6 at q = 0.3; ten percent
    has +0.5 concentrated at q = 0.95 near the top of the support."""
    return LinearTypeMixture([(0.9, 0.56, -0.66, 0.2), (0.1, 0.135, 0.215, 0.3)])


@pytest.fixture(scope="module")
def violator_surface():
    return surface_from_population(planted_violator(), 7)


def test_slutsky_inequality_l0(l0_surface):
    got = slutsky_moment_inequality(l0_surface, 1, B_STAR)
    assert got == pytest.approx(-25.0 / 36.0, abs=1e-12)
    assert got <= 0.0


def test_slutsky_inequality_quasilinear_downward():
    pop = LinearTypeMixture([(1.0, 2.0, -0.8, 0.0)])
    surface = surface_from_population(pop, 3)
    assert slutsky_moment_inequality(surface, 1, B_STAR) == pytest.approx(-0.8)


def test_slutsky_inequality_violator():
    upward = LinearTypeMixture([(1.0, 0.5, 1.0, 0.0)])
    surface = surface_from_population(upward, 3)
    assert slutsky_moment_inequality(surface, 1, B_STAR) == pytest.approx(1.0)


def test_slutsky_equals_monomial_translation(l0_surface):
    rng = np.random.default_rng(13)
    for b in random_budgets(rng, 5, RATIONAL_P, RATIONAL_Y):
        for n in (1, 2, 3, 4):
            assert slutsky_moment_inequality(l0_surface, n, b) == pytest.approx(
                monomial_translation(l0_surface, n - 1, b).value, abs=1e-12)


def test_translate_polynomial(l0_surface):
    assert translate_polynomial([1.0], l0_surface, B_STAR) == pytest.approx(
        -25.0 / 36.0, abs=1e-12)
    assert translate_polynomial([0.0, 0.0], l0_surface, B_STAR) == 0.0
    base = translate_polynomial([0.2, -0.5, 1.0], l0_surface, B_STAR)
    scaled = translate_polynomial([0.6, -1.5, 3.0], l0_surface, B_STAR)
    assert scaled == pytest.approx(3.0 * base, abs=1e-12)
    with pytest.raises(OrderError):
        translate_polynomial([0.0] * 7, l0_surface, B_STAR)


def test_degree1_cone_l0_passes(l0_surface):
    box = SupportBox(*demand_support(L0, B_STAR))
    verdict = degree1_cone_test(l0_surface, B_STAR, box)
    assert verdict.passed
    assert verdict.worst_margin < 0.0


def test_degree1_cone_constructed_failure():
    # translations: degree zero -1, degree one +0.5 on support [0, 1]
    pop = LinearTypeMixture([(0.5, 3.6, -3.5, 0.0), (0.5, -0.6, 1.5, 0.0)])
    surface = surface_from_population(pop, 3)
    assert monomial_translation(surface, 0, B_STAR).value == pytest.approx(-1.0)
    assert monomial_translation(surface, 1, B_STAR).value == pytest.approx(0.5)
    verdict = degree1_cone_test(surface, B_STAR, SupportBox(0.0, 1.0))
    assert not verdict.passed
    assert verdict.worst_margin == pytest.approx(0.5)


def test_degree1_cone_degenerate_box(l0_surface):
    q_bar = 0.5
    verdict = degree1_cone_test(l0_surface, B_STAR, SupportBox(q_bar, q_bar))
    g0 = monomial_translation(l0_surface, 0, B_STAR).value
    g1 = monomial_translation(l0_surface, 1, B_STAR).value
    expected = max(g0, g1 - q_bar * g0, q_bar * g0 - g1, g1)
    assert verdict.worst_margin == pytest.approx(expected, abs=1e-14)


def test_verdict_invariant():
    v = RationalityVerdict(passed=True, worst_margin=-0.2)
    assert v.passed == (v.worst_margin <= TOLERANCE)
    assert v.to_dict()["witness_coeffs"] == []


def test_box_validation():
    with pytest.raises(ValueError):
        SupportBox(1.0, 0.0)


def test_lp_agrees_with_cone_on_random_surfaces(l0_surface):
    b0 = Budget((1.0,), 2.0)
    agreements = 0
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        masses = rng.dirichlet(np.ones(3))
        masses = masses / masses.sum()
        mix = LinearTypeMixture([(m, rng.uniform(0.0, 1.5), rng.uniform(-1.0, 0.5),
                                  rng.uniform(-0.2, 0.6)) for m in masses])
        surface = surface_from_population(mix, 5)
        lo, hi = demand_support(mix, b0)
        box = SupportBox(lo - 0.05, hi + 0.05)
        cone = degree1_cone_test(surface, b0, box)
        lp = lp_violation_search(surface, b0, 1, box)
        agreements += cone.passed == lp.passed
    assert agreements == 50


def test_lp_rational_oracles_pass(l0_surface, cd2_surface):
    rng = np.random.default_rng(42)
    cd2 = CobbDouglasPopulation.two_type(0.3)
    for b in random_budgets(rng, 20, RATIONAL_P, RATIONAL_Y):
        box = SupportBox(*demand_support(L0, b))
        for d in (1, 2, 3):
            verdict = lp_violation_search(l0_surface, b, d, box)
            assert verdict.passed and verdict.worst_margin <= 1e-8
    for b in random_budgets(rng, 20, (0.5, 2.0), (1.0, 5.0), k=2):
        box = SupportBox(*demand_support(cd2, b))
        for d in (1, 2, 3):
            verdict = lp_violation_search(cd2_surface, b, d, box)
            assert verdict.passed and verdict.worst_margin <= 1e-8


def test_lp_planted_violator(violator_surface):
    b0 = Budget((1.0,), 2.0)
    box = SupportBox(0.0, 1.0)
    d1 = lp_violation_search(violator_surface, b0, 1, box)
    assert d1.passed
    d2 = lp_violation_search(violator_surface, b0, 2, box)
    assert not d2.passed
    assert d2.worst_margin > 0.01
    # witness polynomial peaks near the top of the support
    xs = np.linspace(0.0, 1.0, 501)
    vals = sum(a * xs ** i for i, a in enumerate(d2.witness))
    assert xs[np.argmax(vals)] > 0.8
    # cross-check the witness translation by direct integration over types
    direct = 0.0
    for mass, c, gp, gy in planted_violator().types:
        q = c + gp * 1.0 + gy * 2.0
        slutsky = gp + q * gy
        direct += mass * slutsky * sum(a * q ** i for i, a in enumerate(d2.witness))
    assert d2.worst_margin == pytest.approx(direct, abs=1e-9)


def test_lp_failures_monotone_in_degree(violator_surface):
    b0 = Budget((1.0,), 2.0)
    box = SupportBox(0.0, 1.0)
    assert all(not lp_violation_search(violator_surface, b0, d, box).passed
               for d in (2, 3, 4))
    # the l1-normalized LP optimum grows with the degree; the Hankel margin
    # is normalized per degree and need not
    opts = [lp_violation_search_reference(violator_surface, b0, d, box).worst_margin
            for d in (2, 3, 4)]
    assert all(opt > 1e-8 for opt in opts)
    assert opts[1] >= opts[0] - 1e-9
    assert opts[2] >= opts[1] - 1e-9


def test_lp_grid_doubling_stability(violator_surface, l0_surface):
    b0 = Budget((1.0,), 2.0)
    v1 = lp_violation_search_reference(violator_surface, b0, 2, SupportBox(0.0, 1.0), 512)
    v2 = lp_violation_search_reference(violator_surface, b0, 2, SupportBox(0.0, 1.0), 1024)
    assert abs(v1.worst_margin - v2.worst_margin) < 1e-6
    box = SupportBox(*demand_support(L0, B_STAR))
    r1 = lp_violation_search_reference(l0_surface, B_STAR, 2, box, 512)
    r2 = lp_violation_search_reference(l0_surface, B_STAR, 2, box, 1024)
    assert abs(r1.worst_margin - r2.worst_margin) < 1e-6


def test_lp_grid_floor(l0_surface):
    with pytest.raises(ValueError):
        lp_violation_search_reference(l0_surface, B_STAR, 2, SupportBox(0.0, 1.0), 15)


def test_lp_order_error(l0_surface):
    with pytest.raises(OrderError):
        lp_violation_search(l0_surface, B_STAR, 5, SupportBox(0.0, 1.0))


def test_simplex_solves_simple_lp():
    # max x0 + 2 x1 s.t. x0 + x1 <= 4, x1 <= 3, x >= 0 -> 1 * 1 + 2 * 3
    val, x = simplex_max([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], [4.0, 3.0])
    assert val == pytest.approx(7.0, abs=1e-12)
    np.testing.assert_allclose(x, [1.0, 3.0], atol=1e-12)


def _rational_grids():
    """(population, budget) pairs on 4 x 4 grids from the benchmark's
    rationality ranges, budgets built as the CLI builds them."""
    ps = np.linspace(*RATIONAL_P, 4)
    ys = np.linspace(*RATIONAL_Y, 4)
    return [(pop, Budget((p,), y))
            for pop in (L0, CobbDouglasPopulation.two_type(0.3))
            for p in ps for y in ys]


def test_hankel_flags_match_lp_reference_on_rational_grids():
    surfaces = {}
    for pop, b in _rational_grids():
        surface = surfaces.setdefault(pop, surface_from_population(pop, 5))
        box = SupportBox(*demand_support(pop, b))
        for d in (1, 2, 3):
            exact = lp_violation_search(surface, b, d, box)
            reference = lp_violation_search_reference(surface, b, d, box)
            assert exact.passed == reference.passed
            assert exact.passed


def test_hankel_flags_match_lp_reference_on_random_mixtures():
    b0 = Budget((1.0,), 2.0)
    failures = 0
    for i in range(50):
        mix = random_mixture(100 + i)
        surface = surface_from_population(mix, 5)
        lo, hi = demand_support(mix, b0)
        box = SupportBox(lo - 0.05, hi + 0.05)
        for d in (1, 2, 3):
            exact = lp_violation_search(surface, b0, d, box)
            assert exact.passed == lp_violation_search_reference(surface, b0, d, box).passed
            failures += not exact.passed
    assert 0 < failures < 150  # both outcomes are exercised


def test_hankel_witness_translation_equals_margin():
    b0 = Budget((1.0,), 2.0)
    checked = 0
    for i in range(50):
        mix = random_mixture(100 + i)
        surface = surface_from_population(mix, 6)
        lo, hi = demand_support(mix, b0)
        box = SupportBox(lo - 0.05, hi + 0.05)
        for d in (1, 2, 3, 4):
            verdict = lp_violation_search(surface, b0, d, box)
            if verdict.passed:
                assert verdict.witness is None
                continue
            assert len(verdict.witness) == d + 1
            assert direct_translation(mix, verdict.witness, b0) == pytest.approx(
                verdict.worst_margin, abs=1e-9)
            xs = np.linspace(box.q_min, box.q_max, 401)
            vals = sum(a * xs ** k for k, a in enumerate(verdict.witness))
            assert vals.min() >= -1e-12 * np.abs(vals).max()
            checked += 1
    assert checked >= 20


def test_hankel_failure_persists_at_higher_degree():
    b0 = Budget((1.0,), 2.0)
    for i in range(50):
        mix = random_mixture(100 + i)
        surface = surface_from_population(mix, 6)
        lo, hi = demand_support(mix, b0)
        box = SupportBox(lo - 0.05, hi + 0.05)
        flags = [lp_violation_search(surface, b0, d, box).passed for d in (1, 2, 3, 4)]
        for lower, higher in zip(flags, flags[1:]):
            assert lower or not higher


def test_hankel_degenerate_box():
    b0 = Budget((1.0,), 2.0)
    for i in range(10):
        mix = random_mixture(100 + i)
        surface = surface_from_population(mix, 5)
        q_bar = mix.types[0][1] + mix.types[0][2] + 2.0 * mix.types[0][3]
        box = SupportBox(q_bar, q_bar)
        assert lp_violation_search(surface, b0, 1, box).passed == \
            degree1_cone_test(surface, b0, box).passed
        for d in (1, 2, 3):
            verdict = lp_violation_search(surface, b0, d, box)
            assert np.isfinite(verdict.worst_margin)
            assert verdict.passed == lp_violation_search_reference(surface, b0, d, box).passed
            if not verdict.passed:
                assert direct_translation(mix, verdict.witness, b0) == pytest.approx(
                    verdict.worst_margin, abs=1e-9)
    # -L proportional to evaluation at the point passes
    gammas = [-2.0 * 0.5 ** k for k in range(4)]
    assert hankel_verdict(gammas, SupportBox(0.5, 0.5)).passed
    assert not hankel_verdict([-1.0, 0.0, 0.0, 1e-6], SupportBox(0.5, 0.5)).passed


def test_hankel_margin_stable_under_last_bit_changes():
    rng = np.random.default_rng(17)
    pop = CobbDouglasPopulation.two_type(0.3)
    surface = surface_from_population(pop, 5)
    for _, b in _rational_grids()[16:]:
        box = SupportBox(*demand_support(pop, b))
        for d in (2, 3):
            gammas = np.array([monomial_translation(surface, k, b).value
                               for k in range(d + 1)])
            base = hankel_verdict(gammas, box)
            nudged = np.nextafter(gammas, np.where(rng.random(d + 1) < 0.5, -np.inf, np.inf))
            moved = hankel_verdict(nudged, box)
            assert base.passed and moved.passed
            assert abs(moved.worst_margin - base.worst_margin) <= 1e-13


def test_lp_reference_matches_scipy_linprog(violator_surface, l0_surface):
    linprog = pytest.importorskip("scipy.optimize").linprog
    b0 = Budget((1.0,), 2.0)
    cases = [(violator_surface, b0, d, SupportBox(0.0, 1.0)) for d in (1, 2, 3)]
    box = SupportBox(*demand_support(L0, B_STAR))
    cases += [(l0_surface, B_STAR, d, box) for d in (1, 2, 3)]
    for i in range(5):
        mix = random_mixture(100 + i)
        lo, hi = demand_support(mix, b0)
        cases.append((surface_from_population(mix, 5), b0, 3,
                      SupportBox(lo - 0.05, hi + 0.05)))
    for surface, b, d, box in cases:
        c, a_ub, b_ub = _grid_lp(surface, b, d, box, 10 * (d + 1))
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        assert res.status == 0
        reference = lp_violation_search_reference(surface, b, d, box)
        assert reference.worst_margin == pytest.approx(-res.fun, abs=1e-9)
