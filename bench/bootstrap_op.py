"""Percentile bootstrap of the fitted robust CV: a library op with no CLI path.

    python3 bench/bootstrap_op.py --n 5000 --seed 7 --reps 100 \\
        --p0 0.98 --p1 1.01 --y 4.0 --out DIR

Draws an L0 cross-section, then bootstraps the statistic "first stage,
share-moment fits of orders 1-3, cv_moment_local at the budget".  Writes
``result.json`` (strict JSON) with the point estimate, the interval and
the number of replicates whose statistic raised.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import welfare_moments as wm
from welfare_moments import estimation, synthetic, welfare


def main(argv=None):
    parser = argparse.ArgumentParser()
    for name in ("--n", "--seed", "--reps"):
        parser.add_argument(name, type=int, required=True)
    for name in ("--p0", "--p1", "--y"):
        parser.add_argument(name, type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    pc = wm.PriceChange.scalar(args.p0, args.p1, args.y)
    failures = 0

    def statistic(sample):
        nonlocal failures
        try:
            fs = estimation.first_stage(sample)
            fits = [estimation.fit_moment_surface(sample, "q", order, wm.BasisSpec(), fs)
                    for order in (1, 2, 3)]
            surface = estimation.fitted_surface(fits).moment_surface
            return welfare.cv_moment_local(surface, 1, pc)
        except Exception:
            failures += 1
            raise

    ds = synthetic.population_cross_section(wm.L0, args.n, args.seed)
    cfg = wm.BootstrapConfig(args.reps, 0.90, args.seed)
    res = estimation.bootstrap(ds, statistic, cfg)
    result = {"point": res.point, "lower": res.lower, "upper": res.upper,
              "replicates": args.reps, "failed": failures}
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, allow_nan=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
