"""Acceptance suite: every criterion at its stated tolerance, one line each.

Each test prints ``ACCEPTANCE <n> PASS|FAIL <summary>`` so a plain test
run doubles as the acceptance report.  Expensive artifacts (exact ODE
sweeps, fitted pipelines) are shared through session fixtures.
"""

import numpy as np

from welfare_moments import (
    BasisSpec,
    Budget,
    CobbDouglasPopulation,
    L0,
    LinearTypeMixture,
    PriceChange,
    Q0,
    SupportBox,
    aggregate_expenditure,
    chebyshev_bounds,
    compensated_jacobian_multigood,
    counterexample_discrepancy,
    cv_decompose,
    cv_moment_local,
    cv_path,
    cv_ra,
    degree1_cone_test,
    demand_support,
    first_stage,
    fit_moment_surface,
    fitted_surface,
    hn_bounds_path,
    income_effect_moment,
    lp_violation_search,
    price_index,
    price_index_decompose,
    share_surface_from_population,
    surface_from_population,
    tax_deadweight,
)
from welfare_moments.cli import main as cli_main
from welfare_moments.oracle import B_STAR
from welfare_moments.synthetic import default_planted_model

from conftest import (
    EQUIV_P,
    EQUIV_Y,
    RATIONAL_P,
    RATIONAL_Y,
    SWEEP_DPS,
    loglog_slope,
    random_budgets,
)


def report(number, ok, summary):
    print("ACCEPTANCE %2d %s  %s" % (number, "PASS" if ok else "FAIL", summary))
    assert ok, "acceptance criterion %d failed: %s" % (number, summary)


def test_criterion_01_counterexample_closed_forms():
    checks = []
    for n in range(1, 5):
        lin, qua = counterexample_discrepancy(n)
        lin_form = (1 / 12) * (1 / 3) ** n + (5 / 12) * (2 / 3) ** n
        qua_form = (1 / 6) * (1 / 2) ** n + (1 / 3) * (2 / 3) ** n
        checks.append(abs(lin - lin_form) <= 1e-9)
        checks.append(abs(qua - qua_form) <= 1e-5)
    lin1, qua1 = counterexample_discrepancy(1)
    checks.append(abs(lin1 - 11 / 36) <= 1e-9 and abs(qua1 - 11 / 36) <= 1e-5)
    lin2, qua2 = counterexample_discrepancy(2)
    checks.append(abs(lin2 - 7 / 36) <= 1e-9 and abs(qua2 - 41 / 216) <= 1e-5)
    checks.append(abs(lin2 - qua2) > 0.004)
    report(1, all(checks),
           "income-effect functionals: equal at first order (11/36), "
           "split at second (7/36 vs 41/216)")


def test_criterion_02_income_moment_identity(l0_surface, q0_surface, cd2_surface):
    rng = np.random.default_rng(17)
    cd2 = CobbDouglasPopulation.two_type(0.3)
    worst = 0.0
    cases = [
        (L0, l0_surface, random_budgets(rng, 20, EQUIV_P, EQUIV_Y)),
        (Q0, q0_surface, random_budgets(rng, 20, EQUIV_P, EQUIV_Y)),
        (cd2, cd2_surface, random_budgets(rng, 20, (0.6, 1.8), (1.5, 4.0), k=2)),
    ]
    for pop, surface, budgets in cases:
        for b in budgets:
            for n in (1, 2, 3, 4):
                gap = abs(income_effect_moment(pop, n, b) - surface.d_income(n, b) / n)
                worst = max(worst, gap)
    report(2, worst <= 1e-8,
           "E[q^(n-1) dq/dy] vs moment derivative, worst gap %.2e" % worst)


def test_criterion_03_local_error_slopes(l0_surface, l0_exact_sweep):
    errs_robust, errs_ra = [], []
    for dp in SWEEP_DPS:
        pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
        exact = l0_exact_sweep[dp]
        errs_robust.append(abs(cv_moment_local(l0_surface, 1, pc) - exact))
        errs_ra.append(abs(cv_ra(l0_surface, pc) - exact))
    slope_robust = loglog_slope(SWEEP_DPS, errs_robust)
    slope_ra = loglog_slope(SWEEP_DPS, errs_ra)
    pc = PriceChange.scalar(1.0, 1.01, 2.0)
    cov = income_effect_moment(L0, 2, B_STAR) - 0.5 * 0.5
    ratio = errs_ra[0] / ((0.01 ** 2 / 2) * cov)
    ok = slope_robust >= 2.7 and 1.8 <= slope_ra <= 2.2 and 0.9 <= ratio <= 1.1
    report(3, ok, "robust slope %.2f (>=2.7), RA slope %.2f (in [1.8,2.2]), "
                  "RA gap ratio %.3f (in [0.9,1.1])" % (slope_robust, slope_ra, ratio))


def test_criterion_04_path_approximation(l0_surface, l0_exact_sweep):
    err_path, err_local = {}, {}
    for dp in SWEEP_DPS:
        pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
        exact = l0_exact_sweep[dp]
        err_path[dp] = abs(cv_path(l0_surface, pc) - exact)
        err_local[dp] = abs(cv_moment_local(l0_surface, 1, pc) - exact)
    slope = loglog_slope(SWEEP_DPS, [err_path[dp] for dp in SWEEP_DPS])
    dominates = all(err_path[dp] <= err_local[dp] for dp in SWEEP_DPS if dp >= 0.08)
    report(4, slope >= 2.7 and dominates,
           "path slope %.2f (>=2.7); path error below local error for dp>=0.08"
           % slope)


def test_criterion_05_bound_containment(l0_surface, l0_containment_grid):
    contained = True
    for dp, exact in l0_containment_grid.items():
        pc = PriceChange.scalar(1.0, 1.0 + dp, 2.0)
        lo = hn_bounds_path(l0_surface, pc, 1 / 3)
        hi = hn_bounds_path(l0_surface, pc, 2 / 3)
        contained &= lo <= exact <= hi
    pc = PriceChange.scalar(1.0, 1.1, 2.0)
    cheb = chebyshev_bounds(l0_surface, pc, 1 / 3, 2 / 3, z=2 / 3, k=1 / 3)
    lo = hn_bounds_path(l0_surface, pc, 1 / 3)
    hi = hn_bounds_path(l0_surface, pc, 2 / 3)
    extreme = abs(cheb.lower - lo) <= 1e-9 and abs(cheb.upper - hi) <= 1e-9
    interior = chebyshev_bounds(l0_surface, pc, 1 / 3, 2 / 3, z=0.55, k=0.45)
    narrower = (interior.lower >= lo - 1e-12 and interior.upper <= hi + 1e-12)
    report(5, contained and extreme and narrower,
           "exact CV inside worst-case path bounds up to dp=0.3; "
           "extreme thresholds reproduce them; interior thresholds narrow them")


def test_criterion_06_decomposition_identities(l0_surface):
    pc = PriceChange.scalar(1.0, 1.1, 2.0)
    dec = cv_decompose(l0_surface, pc)
    target = 0.005 * (l0_surface.d_price(1, B_STAR)
                      + 0.5 * l0_surface.d_income(2, B_STAR))
    cv_ok = abs(dec.total - target) <= 1e-10
    homothetic = surface_from_population(LinearTypeMixture([(1.0, 0.0, 0.0, 0.25)]), 3)
    hdec = cv_decompose(homothetic, pc)
    cv_zeros = hdec.a2 == 0.0 and hdec.a3 == 0.0 and hdec.a4 == 0.0
    ws = share_surface_from_population(CobbDouglasPopulation.two_type(0.3), 2)
    b = Budget((1.0, 1.0), 2.0)
    pdec = price_index_decompose(ws, 0.1, b)
    index_target = price_index(ws, 0.1, b) - ws.moment(1, b) * 0.1
    index_ok = abs(pdec.total - index_target) <= 1e-10
    index_zeros = pdec.a2 == 0.0 and pdec.a4 == 0.0
    report(6, cv_ok and cv_zeros and index_ok and index_zeros,
           "CV and price-index second-order terms decompose exactly; "
           "homothetic fixtures zero the designated channels")


def test_criterion_07_price_index_cobb_douglas():
    ws = share_surface_from_population(CobbDouglasPopulation.single(0.5), 2)
    approx = price_index(ws, 0.1, Budget((1.0, 1.0), 2.0))
    exact = np.exp(0.05) - 1.0
    ok = abs(approx - 0.05125) <= 1e-12 and abs(approx - exact) <= 3e-5
    report(7, ok, "index approximation 0.05125 vs exact %.7f, error %.2e"
           % (exact, abs(approx - exact)))


def test_criterion_08_many_good_symmetrization():
    worst = 0.0
    symmetric = True
    nsd = True
    for alpha in (0.1, 0.3, 0.5):
        pop = CobbDouglasPopulation.two_type(alpha)
        b = Budget((1.0, 1.3), 2.0)
        comp = compensated_jacobian_multigood(pop, b)
        direct = np.zeros((2, 2))
        for shares in ((alpha, 1 - alpha), (1 - alpha, alpha)):
            a = np.asarray(shares)
            p = np.asarray(b.prices)
            q = a * b.income / p
            direct += 0.5 * (np.diag(-a * b.income / p ** 2) + np.outer(a / p, q))
        worst = max(worst, float(np.max(np.abs(comp.matrix - direct))))
        symmetric &= np.array_equal(comp.matrix, comp.matrix.T)
        nsd &= comp.max_eigenvalue <= 1e-10
    report(8, worst <= 1e-8 and symmetric and nsd,
           "symmetrized Jacobian matches averaged Slutsky matrices "
           "(worst %.1e), symmetric, NSD" % worst)


def test_criterion_09_expenditure_am_gm():
    rng = np.random.default_rng(31)
    ok = True
    for alpha in (0.5, 0.3):
        pop = CobbDouglasPopulation.two_type(alpha)
        for _ in range(100):
            p = (rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            e_total, e_ra = aggregate_expenditure(pop, p, 1.0)
            ok &= e_ra <= e_total + 1e-12
            if alpha == 0.5:
                ok &= abs(e_total - e_ra) <= 1e-12
            else:
                ok &= (e_total - e_ra) > 1e-12
        if alpha != 0.5:
            p_eq = rng.uniform(0.2, 5.0)
            e_total, e_ra = aggregate_expenditure(pop, (p_eq, p_eq), 1.0)
            ok &= abs(e_total - e_ra) <= 1e-12
    report(9, ok, "mean expenditure dominates mean-demand expenditure; "
                  "equality only for symmetric shares or equal prices")


def test_criterion_10_rationality_battery(l0_surface, cd2_surface):
    rng = np.random.default_rng(42)
    cd2 = CobbDouglasPopulation.two_type(0.3)
    worst = -np.inf
    for b in random_budgets(rng, 20, RATIONAL_P, RATIONAL_Y):
        box = SupportBox(*demand_support(L0, b))
        worst = max(worst, degree1_cone_test(l0_surface, b, box).worst_margin)
        for d in (1, 2, 3):
            worst = max(worst, lp_violation_search(l0_surface, b, d, box).worst_margin)
    for b in random_budgets(rng, 20, (0.5, 2.0), (1.0, 5.0), k=2):
        box = SupportBox(*demand_support(cd2, b))
        for d in (1, 2, 3):
            worst = max(worst, lp_violation_search(cd2_surface, b, d, box).worst_margin)
    rational_ok = worst <= 1e-8

    violator = LinearTypeMixture([(0.9, 0.56, -0.66, 0.2), (0.1, 0.135, 0.215, 0.3)])
    vs = surface_from_population(violator, 4)
    v2 = lp_violation_search(vs, Budget((1.0,), 2.0), 2, SupportBox(0.0, 1.0))
    violator_ok = (not v2.passed) and v2.worst_margin > 0.01

    agree = 0
    b0 = Budget((1.0,), 2.0)
    for i in range(50):
        r = np.random.default_rng(100 + i)
        masses = r.dirichlet(np.ones(3))
        mix = LinearTypeMixture([(m, r.uniform(0.0, 1.5), r.uniform(-1.0, 0.5),
                                  r.uniform(-0.2, 0.6)) for m in masses])
        sm = surface_from_population(mix, 5)
        lo, hi = demand_support(mix, b0)
        box = SupportBox(lo - 0.05, hi + 0.05)
        agree += (degree1_cone_test(sm, b0, box).passed
                  == lp_violation_search(sm, b0, 1, box).passed)
    report(10, rational_ok and violator_ok and agree == 50,
           "rational surfaces pass (worst margin %.1e); planted violator "
           "fails at degree 2 (optimum %.4f); cone/LP agree on 50 surfaces"
           % (worst, v2.worst_margin))


def test_criterion_11_plant_and_recover():
    model = default_planted_model()
    ds = model.sample(20000, seed=7)
    fits = [fit_moment_surface(ds, "q", n, model.basis) for n in (1, 2, 3)]
    surface = fitted_surface(fits).moment_surface
    pc = PriceChange.scalar(1.0, 1.05, 3.0)
    recovered = cv_moment_local(surface, 1, pc)
    truth = cv_moment_local(model.moment_surface(), 1, pc)
    rel = abs(recovered / truth - 1.0)

    endo = model.sample(20000, seed=11, endogeneity=0.6, z_lo=2.0, z_hi=4.5,
                        income_shock=0.2)
    b_med = Budget((float(np.exp(np.median(endo.log_prices))),),
                   float(np.exp(np.median(endo.log_y))))
    truth_dy = model.share_surface().d_logy(1, b_med)
    fs = first_stage(endo)
    with_ctrl = fitted_surface(
        [fit_moment_surface(endo, "q", n, BasisSpec(3, 3, True), fs)
         for n in (1, 2, 3)]).share_surface
    without = fitted_surface(
        [fit_moment_surface(endo, "q", n, BasisSpec(3, 3, False))
         for n in (1, 2, 3)]).share_surface
    bias_with = abs(with_ctrl.d_logy(1, b_med) - truth_dy)
    bias_without = abs(without.d_logy(1, b_med) - truth_dy)
    ok = rel <= 0.01 and bias_with <= 0.5 * bias_without
    report(11, ok, "end-to-end CV error %.3f%%; control function cuts income-"
                   "derivative bias by %.0f%%"
           % (100 * rel, 100 * (1 - bias_with / max(bias_without, 1e-300))))


def test_criterion_12_tax_formula(l0_surface):
    quasilinear = LinearTypeMixture([(0.5, 1.8, -0.7, 0.0), (0.5, 1.2, -0.4, 0.0)])
    qs = surface_from_population(quasilinear, 3)
    exact_ql = tax_deadweight(qs, B_STAR, 0.1, 0.1) == qs.d_price(1, B_STAR) * 0.1 * 0.1
    l0_val = tax_deadweight(l0_surface, B_STAR, 0.1, 0.1)
    l0_ok = abs(l0_val - (-43 / 36) * 0.01) <= 1e-10
    report(12, exact_ql and l0_ok,
           "quasi-linear deadweight reduces to the price-derivative term; "
           "linear fixture gives -43/36 of the tax perturbation")


def test_criterion_13_determinism(tmp_path):
    sims = []
    for name in ("s1", "s2"):
        sim = tmp_path / name
        assert cli_main(["simulate", "--population", "L0", "--n", "2000",
                         "--seed", "11", "--out", str(sim)]) == 0
        sims.append((sim / "draws.csv").read_bytes())
    data = str(tmp_path / "s1" / "draws.csv")
    ests = []
    for name in ("e1", "e2"):
        est = tmp_path / name
        assert cli_main(["estimate", "--data", data, "--goods", "q",
                         "--seed", "11", "--out", str(est)]) == 0
        ests.append(((est / "fits.json").read_bytes(),
                     (est / "report.json").read_bytes()))
    ok = sims[0] == sims[1] and ests[0] == ests[1]
    report(13, ok, "identical seeds give byte-identical draws, fits, and bundles")
