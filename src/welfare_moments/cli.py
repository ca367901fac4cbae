"""Batch front end: dataset ingestion, the five subcommands, deterministic output.

Subcommands: ``simulate`` (draw households from a synthetic population),
``estimate`` (first stage plus share-moment fits), ``welfare`` (full
report sweep over price changes), ``rationality`` (verdicts over a
budget grid), and ``oracle-check`` (approximation-versus-exact error
table).  All outputs are deterministic given the configuration and seed,
and runs are serial.  Nothing is written until every number in the
result is finite; errors are emitted as JSON on standard error with exit
code 1 for validation problems and 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .core import Budget, DomainError, OrderError, PriceChange
from .estimation import (
    BasisSpec,
    BootstrapInstabilityError,
    Dataset,
    DegenerateDataError,
    FitError,
    SingularDesignError,
    first_stage,
    fit_moment_surface,
    fitted_surface,
)
from .oracle import (
    CobbDouglasPopulation,
    L0,
    NumericError,
    Q0,
    demand_support,
    population_cv_sweep,
    surface_from_population,
)
from .rationality import (
    SupportBox,
    degree1_cone_test,
    lp_violation_search,
)
from .synthetic import cobb_douglas_cross_section, population_cross_section
from .welfare import (
    InternalConsistencyError,
    QuadratureRule,
    build_report,
    cv_first_order,
    cv_moment_local,
    cv_path,
    cv_ra,
)


class UsageError(ValueError):
    """A command line that the argument parser refuses."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print usage and exit 2
        raise UsageError(message)


class SchemaError(ValueError):
    def __init__(self, column):
        self.column = column
        super().__init__("missing required column %r" % column)


class RowDataError(ValueError):
    """Bad data rows: ``errors`` holds the first 100 (line, problem) pairs,
    ``count`` the number of bad rows in the file."""

    def __init__(self, errors, count):
        self.errors = errors
        self.count = count
        super().__init__("%d malformed data rows (first: line %d: %s)"
                         % (count, errors[0][0], errors[0][1]))


@dataclass
class RunConfig:
    population: str = None
    data: str = None
    goods: list = field(default_factory=lambda: ["q"])
    good: str = None
    price_degree: int = 3
    income_degree: int = 3
    include_control: bool = True
    p0: float = 1.0
    y: float = 2.0
    dp: list = field(default_factory=lambda: [0.05])
    b_lo: float = None
    b_hi: float = None
    z: float = None
    k: float = None
    quad_nodes: int = 32
    degree: int = 1
    p_grid: list = field(default_factory=lambda: [1.0])
    y_grid: list = field(default_factory=lambda: [2.0])
    n: int = 1000
    seed: int = None
    out: str = "."

    def canonical(self):
        payload = asdict(self)
        payload.pop("out", None)  # output routing does not affect results
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)

    def hash(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def parse_population(name):
    name = name.strip()
    if name == "L0":
        return L0
    if name == "Q0":
        return Q0
    for prefix, maker in (("CD2(", CobbDouglasPopulation.two_type),
                          ("CD(", CobbDouglasPopulation.single)):
        if name.startswith(prefix) and name.endswith(")"):
            return maker(float(name[len(prefix):-1]))
    raise ValueError("unknown population %r (use L0, Q0, CD(a), CD2(a))" % name)


def ingest_csv(path, goods):
    """Parse and validate the household CSV; returns (Dataset, warnings).

    Required columns: w_<good> and log_p_<good> per modeled good, plus
    log_y and log_z; extra columns are ignored with a warning, and of a
    duplicated column name the last one is read.  The data rows are parsed
    in one ``np.loadtxt`` call and checked as arrays.  Unparseable or
    out-of-range rows fail the whole file with a :class:`RowDataError`
    that lists the first 100 by physical line number.
    """
    goods = tuple(goods)
    required = ["w_%s" % g for g in goods] + ["log_p_%s" % g for g in goods]
    required += ["log_y", "log_z"]
    k = len(goods)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        for col in required:
            if col not in header:
                raise SchemaError(col)
        notes = ["ignoring column %r" % c for c in header if c not in required]
        position = {name: i for i, name in enumerate(header)}
        cols = [position[c] for c in required]
        table, parse_error = None, None
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, without numpy's warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2,
                                   comments=None, quotechar='"')
        except ValueError as exc:
            parse_error = exc
        if parse_error is not None or np.any(_row_problems(table, k)):
            fh.seek(0)
            errors = _row_errors(fh, cols, k)
            if not errors:
                # loadtxt refused a row that the scan reads; its message names the cell
                raise ValueError("%s: %s" % (path, parse_error))
            raise RowDataError(errors[:100], len(errors))
    if not len(table):
        raise DegenerateDataError("no data rows in %s" % path)
    ds = Dataset(goods=goods, shares=np.ascontiguousarray(table[:, :k]),
                 log_prices=np.ascontiguousarray(table[:, k:2 * k]),
                 log_y=np.ascontiguousarray(table[:, 2 * k]),
                 log_z=np.ascontiguousarray(table[:, 2 * k + 1]))
    return ds, notes


ROW_PROBLEMS = (None, "non-finite value", "share outside [0, 1]",
                "modeled shares exceed total budget")


def _row_problems(table, k):
    """Per row, the ROW_PROBLEMS index of its first failed check (0: none).

    Columns are the k shares, then the other required values.
    """
    shares = table[:, :k]
    with np.errstate(invalid="ignore", over="ignore"):  # rows with inf fail anyway
        total = functools.reduce(np.add, shares.T, 0.0)  # summed left to right
    return np.select([~np.all(np.isfinite(table), axis=1),
                      np.any((shares < 0.0) | (shares > 1.0), axis=1),
                      total > 1.0 + 1e-9], [1, 2, 3], 0)


def _number(cell):
    """float(cell), refusing what loadtxt refuses: digit-group underscores
    and non-ASCII digits."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(cell)
    return float(text)


def _row_errors(fh, cols, k):
    """(physical line, problem) of every bad data row, in file order.

    The diagnostic scan behind RowDataError: csv.reader over the whole
    file, run only when loadtxt or the row checks reject it.
    """
    reader = csv.reader(fh)
    next(reader, None)
    errors, lines, values = [], [], []
    for row in reader:
        if not row:
            continue  # blank line
        try:
            values.append([_number(row[i]) for i in cols])
        except (IndexError, ValueError):
            errors.append((reader.line_num, "unparseable numeric cell"))
        else:
            lines.append(reader.line_num)
    problems = _row_problems(np.array(values).reshape(-1, len(cols)), k)
    errors += [(line, ROW_PROBLEMS[p]) for line, p in zip(lines, problems) if p]
    return sorted(errors)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_dataset_csv(path, ds):
    header = (["w_%s" % g for g in ds.goods]
              + ["log_p_%s" % g for g in ds.goods] + ["log_y", "log_z"])
    table = np.column_stack([ds.shares, ds.log_prices, ds.log_y, ds.log_z])
    # rows end in csv.writer's "\r\n", as the header and the other CSV outputs do
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([line % tuple(row) for row in table.tolist()]))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)


def _first_non_finite(obj, path=""):
    """Path (``reports[0].first_order``) of the first NaN or infinite float, or None."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return path
    if isinstance(obj, dict):
        children = (("%s.%s" % (path, k) if path else k, v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        children = (("%s[%d]" % (path, i), v) for i, v in enumerate(obj))
    else:
        return None
    found = (_first_non_finite(v, sub) for sub, v in children)
    return next((f for f in found if f is not None), None)


def _surface_for_config(cfg, max_order):
    if cfg.population:
        pop = parse_population(cfg.population)
        return surface_from_population(pop, max_order), pop, None
    if not cfg.data:
        raise ValueError("either --population or --data is required")
    ds, _ = ingest_csv(cfg.data, cfg.goods)
    good = cfg.good or ds.goods[0]
    basis = BasisSpec(cfg.price_degree, cfg.income_degree, cfg.include_control)
    fs = first_stage(ds) if cfg.include_control else None
    fits = [fit_moment_surface(ds, good, n, basis, fs) for n in range(1, 4)]
    return fitted_surface(fits).moment_surface, None, ds


def _require_positive(value, flag):
    """Refuse a count flag below 1 before any surface is built."""
    if value < 1:
        raise ValueError("%s must be >= 1, got %r" % (flag, value))


def _bundle(cfg, **payload):
    bundle = {"version": __version__, "seed": cfg.seed, "config_hash": cfg.hash()}
    bundle.update(payload)
    return bundle


def _cmd_simulate(cfg):
    if cfg.seed is None:
        raise ValueError("--seed is required for simulate")
    _require_positive(cfg.n, "--n")
    pop = parse_population(cfg.population or "L0")
    if isinstance(pop, CobbDouglasPopulation):
        ds = cobb_douglas_cross_section(pop, cfg.n, cfg.seed, goods=cfg.goods
                                        if len(cfg.goods) == pop.k else None)
    else:
        ds = population_cross_section(pop, cfg.n, cfg.seed, good=cfg.goods[0])
    write = functools.partial(_write_dataset_csv, os.path.join(cfg.out, "draws.csv"), ds)
    return _bundle(cfg, rows=ds.n, columns=list(ds.goods)), [write]


def _cmd_estimate(cfg):
    if not cfg.data:
        raise ValueError("--data is required for estimate")
    ds, warnings = ingest_csv(cfg.data, cfg.goods)
    basis = BasisSpec(cfg.price_degree, cfg.income_degree, cfg.include_control)
    fs = first_stage(ds) if cfg.include_control else None
    fits = []
    for good in ds.goods:
        for order in (1, 2, 3):
            fits.append(fit_moment_surface(ds, good, order, basis, fs))
    fit_dicts = [f.to_dict() for f in fits]
    write = functools.partial(_write_json, os.path.join(cfg.out, "fits.json"), fit_dicts)
    first = {k: v for k, v in (fs.coefficients if fs else {}).items()}
    return _bundle(cfg, fits=fit_dicts, first_stage=first, warnings=warnings), [write]


def _cmd_welfare(cfg):
    _require_positive(cfg.quad_nodes, "--quad-nodes")
    if (cfg.z is None) != (cfg.k is None):
        raise ValueError("--z and --k must be given together, got only %s"
                         % ("--z" if cfg.k is None else "--k"))
    surface, _, _ = _surface_for_config(cfg, max_order=4 if cfg.population else 3)
    quad = QuadratureRule.gauss_legendre(cfg.quad_nodes)
    y = cfg.y
    thresholds = None if cfg.z is None else (cfg.z, cfg.k)

    def one(dp):
        pc = PriceChange.scalar(cfg.p0, cfg.p0 + dp, y)
        rep = build_report(surface, pc, quad, cfg.b_lo, cfg.b_hi, thresholds)
        return rep.to_dict()

    reports = [one(dp) for dp in cfg.dp]
    header = ["dp", "first_order", "ra", "robust", "path", "bound_lower",
              "bound_upper", "var_robust", "var_additive", "var_first_order",
              "A1", "A2", "A3", "A4"]
    rows = [[r["dp"], r["first_order"], r["ra"], r["robust"], r["path"],
             r["bounds"]["lower"], r["bounds"]["upper"], r["variance"]["robust"],
             r["variance"]["additive"], r["variance"]["first_order"],
             r["decomposition"]["A1"], r["decomposition"]["A2"],
             r["decomposition"]["A3"], r["decomposition"]["A4"]] for r in reports]
    write = functools.partial(_write_csv, os.path.join(cfg.out, "sweep.csv"), header, rows)
    return _bundle(cfg, reports=reports), [write]


def _cmd_oracle_check(cfg):
    _require_positive(cfg.quad_nodes, "--quad-nodes")
    pop = parse_population(cfg.population or "L0")
    surface = surface_from_population(pop, 4)
    quad = QuadratureRule.gauss_legendre(cfg.quad_nodes)
    # A k-good population gets k-price budgets: every price at p0, good 0 moving.
    others = (cfg.p0,) * (pop.k - 1)
    pcs = [PriceChange(Budget((cfg.p0,) + others, cfg.y),
                       Budget((cfg.p0 + dp,) + others, cfg.y)) for dp in cfg.dp]
    exacts = [res.mean for res in population_cv_sweep(pop, pcs)]

    def one(dp, pc, exact):
        ra = cv_ra(surface, pc)
        robust = cv_moment_local(surface, 1, pc)
        return {
            "dp": dp,
            "exact": exact,
            "first_order": cv_first_order(surface, pc),
            "ra": ra,
            "robust": robust,
            "path": cv_path(surface, pc, quad),
            "err_ra": ra - exact,
            "err_robust": robust - exact,
        }

    table = [one(*row) for row in zip(cfg.dp, pcs, exacts)]
    header = ["dp", "exact", "first_order", "ra", "robust", "path",
              "err_ra", "err_robust"]
    write = functools.partial(_write_csv, os.path.join(cfg.out, "sweep.csv"), header,
                              [[row[c] for c in header] for row in table])
    return _bundle(cfg, oracle_check=table), [write]


def _cmd_rationality(cfg):
    degree = cfg.degree
    _require_positive(degree, "--degree")
    pop = ds = None
    if cfg.population:
        pop = parse_population(cfg.population)
        surface = surface_from_population(pop, degree + 2)
    else:
        surface, _, ds = _surface_for_config(cfg, max_order=3)
        if degree + 2 > 3:
            raise ValueError("fitted surfaces carry orders up to 3; degree must be 1")

    def box_at(b):
        if pop is not None:
            lo, hi = demand_support(pop, b)
            return SupportBox(lo, hi)
        # empirical support: quantities observed within 5% of the budget
        lp0, ly0 = np.log(b.price(0)), np.log(b.income)
        near = ((np.abs(ds.log_prices[:, 0] - lp0) <= np.log(1.05))
                & (np.abs(ds.log_y - ly0) <= np.log(1.05)))
        if not np.any(near):
            raise ValueError("no observations within 5%% of budget (%g, %g)"
                             % (b.price(0), b.income))
        q = ds.shares[near, 0] * np.exp(ds.log_y[near] - ds.log_prices[near, 0])
        return SupportBox(float(np.min(q)), float(np.max(q)))

    verdicts = []
    for p in cfg.p_grid:
        for y in cfg.y_grid:
            b = Budget((p,), y)
            box = box_at(b)
            if degree <= 1:
                v = degree1_cone_test(surface, b, box)
            else:
                v = lp_violation_search(surface, b, degree, box)
            rec = {"budget": {"prices": [p], "income": y}, "degree": degree}
            rec.update(v.to_dict())
            verdicts.append(rec)
    write = functools.partial(_write_json, os.path.join(cfg.out, "verdicts.json"), verdicts)
    return _bundle(cfg, verdicts=verdicts), [write]


COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "welfare": _cmd_welfare,
    "rationality": _cmd_rationality,
    "oracle-check": _cmd_oracle_check,
}

VALIDATION_ERRORS = (SchemaError, RowDataError, SingularDesignError,
                     DegenerateDataError, ValueError, FileNotFoundError,
                     NotADirectoryError, KeyError)
NUMERIC_ERRORS = (DomainError, OrderError, NumericError, FitError,
                  InternalConsistencyError,
                  BootstrapInstabilityError, FloatingPointError, OverflowError)


def run(command, cfg):
    """Execute one subcommand; returns (bundle, exit_code).

    A command returns its bundle and the writers of its other files; nothing
    is written, and the output directory is not created, until the bundle
    is checked finite and serialised.
    """
    bundle, writers = COMMANDS[command](cfg)
    bad = _first_non_finite(bundle)
    if bad is not None:
        raise FloatingPointError("non-finite value in %s" % bad)
    text = json.dumps(bundle, sort_keys=True, indent=2, allow_nan=False)
    os.makedirs(cfg.out, exist_ok=True)
    for write in writers:
        write()
    with open(os.path.join(cfg.out, "report.json"), "w") as fh:
        fh.write(text)
    return bundle, 0


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser():
    parser = _Parser(prog="welfare-moments",
                     description="Welfare effects of price changes "
                                 "from cross-sectional demand moments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--population")
    parser.add_argument("--data")
    parser.add_argument("--goods", type=lambda s: s.split(","))
    parser.add_argument("--good")
    parser.add_argument("--basis-degree", type=int, dest="price_degree")
    parser.add_argument("--income-degree", type=int, dest="income_degree")
    parser.add_argument("--no-control", action="store_false", dest="include_control",
                        default=None)
    parser.add_argument("--p0", type=float)
    parser.add_argument("--y", type=float)
    parser.add_argument("--dp", type=_float_list)
    parser.add_argument("--b-lo", type=float, dest="b_lo")
    parser.add_argument("--b-hi", type=float, dest="b_hi")
    parser.add_argument("--z", type=float)
    parser.add_argument("--k", type=float)
    parser.add_argument("--quad-nodes", type=int, dest="quad_nodes")
    parser.add_argument("--degree", type=int)
    parser.add_argument("--p-grid", type=_float_list, dest="p_grid")
    parser.add_argument("--y-grid", type=_float_list, dest="y_grid")
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    return parser


def _file_value(action, key, value):
    """A config-file value, parsed by its flag's converter from the text it
    would have on the command line (a number as JSON, a list's items joined
    by commas); the result must equal the value, so "100" is no number."""
    items = value if isinstance(value, list) else [value]
    text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
    try:
        parsed = value if action.nargs == 0 else (action.type or str)(text)
    except ValueError:
        parsed = None
    if parsed == value and (action.nargs != 0 or isinstance(value, bool)):
        return parsed
    raise UsageError("config key %r: %s is not a valid %s value"
                     % (key, json.dumps(value), action.option_strings[0]))


def config_from_args(args):
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        actions = {a.dest: a for a in build_parser()._actions}
        for key, value in file_cfg.items():
            if key not in vars(cfg):
                raise ValueError("unknown config key %r" % key)
            if value is not None:  # null keeps the default, as an absent flag does
                setattr(cfg, key, _file_value(actions[key], key, value))
    for key in vars(cfg):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        _, code = run(args.command, cfg)
        return code
    except NUMERIC_ERRORS as exc:
        _emit_error(exc)
        return 2
    except VALIDATION_ERRORS as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, RowDataError):
        payload["rows"] = [{"line": line, "problem": msg} for line, msg in exc.errors]
    if isinstance(exc, SchemaError):
        payload["column"] = exc.column
    json.dump(payload, sys.stderr, allow_nan=False)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
