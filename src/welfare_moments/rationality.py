"""Stochastic-rationalizability tests on moment surfaces.

A population of utility maximizers satisfies pointwise Slutsky
negativity, so the population average of (dq/dp + q dq/dy) weighted by
any polynomial in demand that is nonnegative on the demand support must
be nonpositive.  Those weighted averages ("translations") are values of
a linear functional L, observable from consecutive moment derivatives.
Nonnegativity of -L on those polynomials is a semidefinite condition on
small Hankel matrices (Krein & Nudelman 1977; Curto & Fialkow 1991), so
a passing verdict certifies the tested degree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import OrderError


TOLERANCE = 1e-8  # a verdict passes when its worst margin is at most this


class SimplexError(RuntimeError):
    """The LP solver hit a state that the problem structure rules out."""


@dataclass(frozen=True)
class Translation:
    """Value of the Slutsky functional against one monomial in demand."""

    degree: int
    value: float


@dataclass(frozen=True)
class SupportBox:
    """Bounds on quantity demanded at the tested budget."""

    q_min: float
    q_max: float

    def __post_init__(self):
        if self.q_min > self.q_max:
            raise ValueError("q_min exceeds q_max")


@dataclass(frozen=True)
class RationalityVerdict:
    passed: bool
    worst_margin: float
    witness: tuple = None

    def to_dict(self):
        return {
            "pass": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "witness_coeffs": list(self.witness) if self.witness is not None else [],
        }


def monomial_translation(surface, degree, b):
    """Translation of x^degree: population mean of (dq/dp + q dq/dy) q^degree."""
    if degree + 2 > surface.max_order:
        raise OrderError("degree %d needs moment order %d, surface has %d"
                         % (degree, degree + 2, surface.max_order))
    n = degree + 1
    return Translation(degree, surface.d_price(n, b) / n
                       + surface.d_income(n + 1, b) / (n + 1))


def slutsky_moment_inequality(surface, n, b):
    """Left side of the n-th Slutsky moment inequality; <= 0 is necessary.

    Identical to the translation of the degree (n-1) monomial.
    """
    return monomial_translation(surface, n - 1, b).value


def translate_polynomial(coeffs, surface, b):
    """Translation of a polynomial sum a_i x^i, by linearity over monomials."""
    coeffs = list(coeffs)
    if len(coeffs) - 1 + 2 > surface.max_order:
        raise OrderError("polynomial degree %d needs moment order %d"
                         % (len(coeffs) - 1, len(coeffs) + 1))
    return float(sum(a * monomial_translation(surface, i, b).value
                     for i, a in enumerate(coeffs)))


def degree1_cone_test(surface, b, box):
    """Check the cone generators of degree <= 1 polynomials nonnegative on the box.

    Generators: 1, (x - q_min), (q_max - x), and x itself when the
    support is nonnegative.  All translations must be nonpositive.
    """
    if surface.max_order < 3:
        raise OrderError("degree-1 cone test needs moment orders up to 3")
    g0 = monomial_translation(surface, 0, b).value
    g1 = monomial_translation(surface, 1, b).value
    margins = [g0, g1 - box.q_min * g0, box.q_max * g0 - g1]
    if box.q_min >= 0.0:
        margins.append(g1)
    return RationalityVerdict(max(margins) <= TOLERANCE, float(max(margins)))


def simplex_max(c, a_ub, b_ub, max_iter=20000, tol=1e-11):
    """Maximize c.x subject to a_ub x <= b_ub, x >= 0, with b_ub >= 0.

    Dense tableau simplex starting from the slack basis, with Bland's
    anti-cycling rule.  Returns (objective value, solution vector).  No
    verdict uses it; it solves the grid LP that the tests keep as the
    reference for :func:`hankel_verdict`.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a_ub.shape
    if np.any(b_ub < -tol):
        raise SimplexError("slack basis start requires nonnegative right-hand sides")

    # tableau: [A | I | b], objective row holds reduced costs for max
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a_ub
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b_ub
    tab[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(max_iter):
        reduced = tab[m, :-1]
        candidates = np.nonzero(reduced < -tol)[0]
        if candidates.size == 0:
            x = np.zeros(n + m)
            for row, col in enumerate(basis):
                x[col] = tab[row, -1]
            return float(tab[m, -1]), x[:n]
        enter = int(candidates[0])  # Bland: smallest index
        col = tab[:m, enter]
        rows = np.nonzero(col > tol)[0]
        if rows.size == 0:
            raise SimplexError("LP unbounded; normalization constraint missing")
        ratios = tab[rows, -1] / col[rows]
        best = np.min(ratios)
        tied = rows[ratios <= best + tol]
        leave = int(min(tied, key=lambda r: basis[r]))  # Bland on ties
        tab[leave, :] /= tab[leave, enter]
        factors = tab[:, enter].copy()
        factors[leave] = 0.0
        tab -= np.outer(factors, tab[leave, :])
        basis[leave] = enter
    raise SimplexError("simplex failed to converge in %d pivots" % max_iter)


def hankel_verdict(gammas, box):
    """Exact test at degree d = len(gammas) - 1 from gammas[k] = L(x^k).

    Map the box to [-1, 1] by x = center + half * t.  -L is nonnegative
    on the degree-d polynomials nonnegative there iff its Hankel matrices
    localized at 1, 1 - t^2 (even d) or 1 + t, 1 - t (odd d) are positive
    semidefinite.  The margin is minus their smallest eigenvalue; the
    failing eigenvector v of localizer g gives the witness g(t) v(t)^2
    (x-coefficients), whose translation is the margin.  On a one-point box
    (t = x - q_min) -L must be a nonnegative multiple of evaluation there.
    """
    degree = len(gammas) - 1
    center, half = (box.q_max + box.q_min) / 2.0, (box.q_max - box.q_min) / 2.0
    step = np.array([-center, 1.0]) / (half or 1.0)  # t as a polynomial in x
    shift = np.eye(degree + 1)  # row k: x-coefficients of t^k
    for k in range(1, degree + 1):
        shift[k, :k + 1] = np.convolve(shift[k - 1, :k], step)
    mapped = shift @ np.asarray(gammas, dtype=float)  # L(t^k)
    if half == 0.0:
        margins = np.concatenate([mapped[:1], np.abs(mapped[1:])])
        k = int(np.argmax(margins))
        worst, witness_t = margins[k], np.sign(mapped[k]) * np.eye(degree + 1)[k]
    else:
        worst = -np.inf
        for g in ((1.0, 1.0), (1.0, -1.0)) if degree % 2 else ((1.0,), (1.0, 0.0, -1.0)):
            size = (degree + 1 - len(g)) // 2 + 1  # g v^2 has degree at most d
            if size:
                idx = np.add.outer(np.arange(size), np.arange(size))
                matrix = -sum(c * mapped[idx + r] for r, c in enumerate(g))
                margin = -np.linalg.eigvalsh(matrix)[0]
                if margin > worst:
                    worst, failing = margin, (g, matrix)
        g, matrix = failing
        v = np.linalg.eigh(matrix)[1][:, 0]
        witness_t = np.convolve(g, np.convolve(v, v))
    witness = tuple(map(float, witness_t @ shift)) if worst > TOLERANCE else None
    return RationalityVerdict(worst <= TOLERANCE, float(worst), witness)


def lp_violation_search(surface, b, degree, box):
    """Exact rationalizability verdict at the given polynomial degree
    (:func:`hankel_verdict` on the surface's translations at b)."""
    gammas = [monomial_translation(surface, i, b).value for i in range(degree + 1)]
    return hankel_verdict(gammas, box)
