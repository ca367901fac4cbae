"""Output checks.  Each returns how many of an op's rows failed.

Outputs are read by named field from strictly parsed JSON (no NaN or
Infinity, every number finite); bytes are never compared, so new fields
or diagnostics in ``report.json`` do not break the checks.  Values are
compared with independent closed forms for L0 and with references
stored in ``references.json`` (generated by ``make_references.py``).
"""

from __future__ import annotations

import json
import math
import os

from workloads import P0, Y0

HERE = os.path.dirname(os.path.abspath(__file__))
L0_EFFECTS = (1.0 / 3.0, 2.0 / 3.0)

# Reference agreement: L0 fields use closed-form moments (rounding only);
# Q0 partials are Richardson differences of quadratures.
REL_TOL = {"L0": 1e-9, "Q0": 1e-7}
EXACT_TOL = 1e-9        # oracle `exact` vs closed form / 4096-step RK4
FITTED_REL_TOL = 0.01   # fitted robust CV vs the L0 closed form


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


def _finite(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def load_strict(path):
    """Parse strict JSON whose numbers are all finite; raise ValueError otherwise."""
    with open(path) as fh:
        obj = json.load(fh, parse_constant=_reject_constant)
    if not _finite(obj):
        raise ValueError("non-finite number in %s" % path)
    return obj


def field(report, name):
    """Look up a dotted field name such as ``bounds.lower`` or ``moments.0``."""
    value = report
    for part in name.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return value


def l0_robust(p0, y, dp):
    """cv_moment_local(surface_from_population(L0, 4), 1, pc) in closed form.

    L0 demand is u - p + a y with u ~ U(0, 1) and a in {1/3, 2/3} equally
    likely, so M1 = 1/2 - p + y/2, dM1/dp = -1, dM2/dy = sum_a a E[q | a].
    """
    m1 = 0.5 - p0 + 0.5 * y
    dy_m2 = sum(a * (0.5 - p0 + a * y) for a in L0_EFFECTS)
    return dp * (m1 + 0.5 * dp * (-1.0 + 0.5 * dy_m2))


def l0_exact_cv(p0, y, dp):
    """Mean exact CV of L0: 0.5 * sum_a cv_constant_income_effect(q(u=1/2, a), a, pc).

    With q = c - t dp along the path and c = 1/2 - p0 + a y, the linear
    compensation ODE gives s(1) = dp (c (e^r - 1)/r - dp (e^r - 1 - r)/r^2),
    r = a dp.
    """
    total = 0.0
    for a in L0_EFFECTS:
        r = a * dp
        c = 0.5 - p0 + a * y
        total += 0.5 * dp * (c * math.expm1(r) / r - dp * (math.expm1(r) - r) / r ** 2)
    return total


class Checker:
    def __init__(self):
        refs = load_strict(os.path.join(HERE, "references.json"))
        self.refs = {}
        for pop, table in refs.items():
            index = {dp: i for i, dp in enumerate(table["dp"])}
            self.refs[pop] = (index, table)

    def failed_rows(self, op, out, returncode):
        """Rows of ``op`` that failed; a failed command fails every row it owed."""
        if returncode != 0:
            return op.rows
        try:
            return getattr(self, "_" + op.check)(out, **op.spec)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            return op.rows

    def _report(self, out):
        return load_strict(os.path.join(out, "report.json"))

    def _simulate(self, out, n):
        ok = self._report(out)["rows"] == n and os.path.getsize(os.path.join(out, "draws.csv"))
        return 0 if ok else 1

    def _estimate(self, out):
        orders = sorted(f["order"] for f in self._report(out)["fits"])
        return 0 if orders == [1, 2, 3] else 1

    def _welfare_fitted(self, out, p0, y, dps):
        reports = self._report(out)["reports"]
        bad = max(0, len(dps) - len(reports))
        for rep, dp in zip(reports, dps):
            ref = l0_robust(p0, y, (p0 + float(dp)) - p0)
            if abs(rep["robust"] - ref) > FITTED_REL_TOL * abs(ref):
                bad += 1
        return bad

    def _matches(self, pop, dp, row, fields):
        index, table = self.refs[pop]
        i = index[dp]
        tol = REL_TOL[pop]
        for name in fields:
            ref = table["fields"][name][i]
            if abs(field(row, name) - ref) > tol * abs(ref) + 1e-15:
                return False
        return True

    def _welfare_reference(self, out, pop, dps):
        reports = self._report(out)["reports"]
        fields = list(self.refs[pop][1]["fields"])
        bad = max(0, len(dps) - len(reports))
        for rep, dp in zip(reports, dps):
            if not self._matches(pop, dp, rep, fields):
                bad += 1
        return bad

    def _oracle(self, out, pop, dps):
        rows = self._report(out)["oracle_check"]
        bad = max(0, len(dps) - len(rows))
        for row, dp in zip(rows, dps):
            if pop == "L0":
                exact = l0_exact_cv(P0, Y0, (P0 + float(dp)) - P0)
            else:
                index, table = self.refs[pop]
                exact = table["exact"][index[dp]]
            ok = (abs(row["exact"] - exact) <= EXACT_TOL
                  and self._matches(pop, dp, row, ("first_order", "ra", "robust", "path"))
                  and row["err_ra"] == row["ra"] - row["exact"]
                  and row["err_robust"] == row["robust"] - row["exact"])
            bad += not ok
        return bad

    def _rationality(self, out, count):
        verdicts = self._report(out)["verdicts"]
        return count - sum(1 for v in verdicts[:count] if v["pass"] is True)

    def _bootstrap(self, out, reps):
        res = load_strict(os.path.join(out, "result.json"))
        if not res["lower"] <= res["point"] <= res["upper"]:
            return reps
        return min(reps, res["failed"])
