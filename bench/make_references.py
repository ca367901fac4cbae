"""Regenerate ``references.json``, the stored outputs the checks compare with.

    PYTHONPATH=src python3 bench/make_references.py

For every price change in the L0 and Q0 pools it stores the welfare
report fields exactly as ``welfare --population POP --p0 1 --y 2``
computes them, and for Q0 the exact mean CV from RK4 with 4096 steps
(four times the program's default).  Regenerating after a change to the
program defeats the checks; do it only when the pools change.
"""

from __future__ import annotations

import json
import os

from welfare_moments import (
    L0,
    OdeConfig,
    PriceChange,
    Q0,
    QuadratureRule,
    build_report,
    population_cv,
    surface_from_population,
)
from checks import field
from workloads import L0_POOL, P0, Q0_POOL, Y0

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = ("first_order", "ra", "robust", "path", "bounds.lower", "bounds.upper",
          "variance.robust", "variance.additive", "variance.first_order",
          "decomposition.A1", "decomposition.A2", "decomposition.A3",
          "decomposition.A4", "moments.0", "moments.1", "moments.2")


def table(pop, pool, exact=False):
    surface = surface_from_population(pop, 4)
    quad = QuadratureRule.gauss_legendre(32)
    out = {"dp": list(pool), "fields": {name: [] for name in FIELDS}}
    if exact:
        out["exact"] = []
    for dp in pool:
        pc = PriceChange.scalar(P0, P0 + float(dp), Y0)
        report = build_report(surface, pc, quad).to_dict()
        for name in FIELDS:
            out["fields"][name].append(field(report, name))
        if exact:
            out["exact"].append(population_cv(pop, pc, OdeConfig(steps=4096)).mean)
    return out


def main():
    refs = {"L0": table(L0, L0_POOL), "Q0": table(Q0, Q0_POOL, exact=True)}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, allow_nan=False, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
