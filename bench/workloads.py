"""Seeded workload definitions: which ops run, with which generated inputs.

A workload is a list of ops, each one fresh process, run in order by one
closed-loop client.  The seed generates every dp list, grid and budget;
the program only ever sees the generated command lines.

Price changes for the analytic populations are drawn from fixed pools so
that each drawn value has a stored reference (``references.json``, written
by ``make_references.py``); the seed picks which pool values a run uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Analytic populations are evaluated at this budget; the pools cover the
# price-change ranges the workloads draw from.
P0, Y0 = 1.0, 2.0
L0_POOL = ["%.3f" % (k * 0.001) for k in range(-300, 301) if k]
Q0_POOL = ["%.4f" % (k * 0.0025) for k in range(-80, 81) if k]

# The simulated survey covers p in [0.88, 1.08] and y in about [3.7, 4.3].
# Fitted budgets and their whole price paths stay in the middle of that
# region, where the fitted robust CV is within 1% of the L0 value (at
# n = 100k the largest deviation seen over 40 seeds was 0.91%; paths that
# reach the edge of the price range deviate by up to 1.1%).
SURVEY_BUDGET_P = (0.96, 1.00)
SURVEY_BUDGET_Y = (3.9, 4.1)
SURVEY_DP = (0.005, 0.06)

# Budgets where every L0 type satisfies pointwise Slutsky negativity.
RATIONAL_P = (0.85, 1.2)
RATIONAL_Y = (1.6, 1.9)

SIZES = {
    "full": {"n": 100000, "boot_n": 5000, "boot_reps": 100, "survey_dps": 4,
             "cf_welfare": 200, "cf_oracle": 20, "grid": 10,
             "kinked_welfare": 40, "kinked_oracle": 10},
    "tiny": {"n": 100000, "boot_n": 2000, "boot_reps": 20, "survey_dps": 2,
             "cf_welfare": 12, "cf_oracle": 3, "grid": 3,
             "kinked_welfare": 3, "kinked_oracle": 2},
}

WORKLOADS = ("survey", "closed_form", "kinked")
COMMANDS = ("simulate", "estimate", "welfare", "oracle_check", "rationality", "bootstrap")


@dataclass(frozen=True)
class Op:
    """One process: ``kind`` is a COMMANDS entry; ``args`` may hold the
    placeholders ``{out}`` (this op's output directory) and ``{data}`` (the
    survey's simulated CSV).  ``check`` names the output check and ``spec``
    carries what it needs."""

    kind: str
    args: tuple
    rows: int
    check: str
    spec: dict

    def argv(self, out, data):
        return [a.format(out=out, data=data) for a in self.args]


def _join(values):
    return ",".join(values)


def _fmt(x):
    return "%.4f" % x


def _pick(rng, pool, count, limit=None):
    pool = [d for d in pool if limit is None or abs(float(d)) <= limit + 1e-12]
    idx = rng.choice(len(pool), size=count, replace=False)
    return sorted((pool[i] for i in idx), key=float)


def _cli(command, *args):
    return (command,) + args + ("--out", "{out}")


def survey(rng, seed, size):
    n = size["n"]
    p_text = _fmt(rng.uniform(*SURVEY_BUDGET_P))
    y_text = _fmt(rng.uniform(*SURVEY_BUDGET_Y))
    dps = [_fmt(sign * rng.uniform(*SURVEY_DP))
           for sign in rng.choice((-1.0, 1.0), size=size["survey_dps"])]
    budget = {"p0": float(p_text), "y": float(y_text)}
    boot = {"p0": float(p_text), "p1": float(p_text) + float(dps[0]), "y": float(y_text)}
    return [
        Op("simulate", _cli("simulate", "--population", "L0", "--n", str(n),
                            "--seed", str(seed)), 1, "simulate", {"n": n}),
        Op("estimate", _cli("estimate", "--data", "{data}", "--goods", "q"),
           1, "estimate", {}),
        Op("welfare", _cli("welfare", "--data", "{data}", "--goods", "q",
                           "--p0", p_text, "--y", y_text, "--dp=" + _join(dps)),
           len(dps), "welfare_fitted", dict(budget, dps=dps)),
        Op("bootstrap", ("--n", str(size["boot_n"]), "--seed", str(seed),
                         "--reps", str(size["boot_reps"]), "--p0", repr(boot["p0"]),
                         "--p1", repr(boot["p1"]), "--y", repr(boot["y"]),
                         "--out", "{out}"),
           size["boot_reps"], "bootstrap", {"reps": size["boot_reps"]}),
    ]


def _analytic_sweeps(pop, pool, n_welfare, n_oracle, rng):
    welfare_dps = _pick(rng, pool, n_welfare)
    oracle_dps = _pick(rng, pool, n_oracle, limit=0.2)
    budget = ("--p0", "1", "--y", "2")
    return [
        Op("welfare", _cli("welfare", "--population", pop, *budget,
                           "--dp=" + _join(welfare_dps)),
           len(welfare_dps), "welfare_reference", {"pop": pop, "dps": welfare_dps}),
        Op("oracle_check", _cli("oracle-check", "--population", pop, *budget,
                                "--dp=" + _join(oracle_dps)),
           len(oracle_dps), "oracle", {"pop": pop, "dps": oracle_dps}),
    ]


def closed_form(rng, seed, size):
    ops = _analytic_sweeps("L0", L0_POOL, size["cf_welfare"], size["cf_oracle"], rng)
    g = size["grid"]
    p_grid = _join(_fmt(v) for v in np.sort(rng.uniform(*RATIONAL_P, size=g)))
    y_grid = _join(_fmt(v) for v in np.sort(rng.uniform(*RATIONAL_Y, size=g)))
    for pop in ("L0", "CD2(0.3)"):
        ops.append(Op("rationality",
                      _cli("rationality", "--population", pop, "--degree", "3",
                           "--p-grid=" + p_grid, "--y-grid=" + y_grid),
                      g * g, "rationality", {"count": g * g}))
    return ops


def kinked(rng, seed, size):
    return _analytic_sweeps("Q0", Q0_POOL, size["kinked_welfare"],
                            size["kinked_oracle"], rng)


def build(workload, seed, size="full"):
    """Return the op list of ``workload`` for ``seed``."""
    makers = {"survey": survey, "closed_form": closed_form, "kinked": kinked}
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return makers[workload](rng, seed, SIZES[size])
