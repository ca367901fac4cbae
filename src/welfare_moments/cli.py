"""Batch front end: dataset ingestion, the five subcommands, deterministic output.

Subcommands: ``simulate`` (draw households from a synthetic population),
``estimate`` (first stage plus share-moment fits), ``welfare`` (full
report sweep over price changes), ``rationality`` (verdicts over a
budget grid), and ``oracle-check`` (approximation-versus-exact error
table).  All outputs are deterministic given the configuration and seed,
and runs are serial.  Nothing is written until every number in the
result is finite; errors are emitted as JSON on standard error with exit
code 1 for validation problems and 2 for numeric failures or exhausted
memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .core import (
    Budget,
    DomainError,
    FitError,
    InternalConsistencyError,
    NumericError,
    OrderError,
    PriceChange,
    income_effect_bounds,
)

# Each command imports the modules it runs inside its own function, so a
# process loads only what its subcommand needs (see the README).


class UsageError(ValueError):
    """A command line that the argument parser refuses."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would print usage and exit 2
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads "-inf" or "-1e-3" after a space as a flag: join each
        # such number to its flag, as "--b-lo=-inf"
        joined = []
        for token in sys.argv[1:] if args is None else args:
            read = _NUMBER_FLAGS.get(joined[-1]) if joined else None
            if read and token.startswith("-") and _parses(read, token):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


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


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parses(read, text):
    try:
        read(text)
    except ValueError:
        return False
    return True


def _setting(flag, default, commands, domain=None, source=None, required="", **argparse_kw):
    """A RunConfig field: its flag, its default, the commands that read it, the
    DOMAINS key its values must pass, the source ("data") a two-source command
    needs to read it, the commands that require it, and its argparse keywords."""
    default_kw = ({"default_factory": lambda: list(default)} if isinstance(default, list)
                  else {"default": default})
    return field(**default_kw, metadata={"flag": flag, "commands": commands.split(),
                                         "domain": domain, "source": source,
                                         "required": required.split(), "argparse": argparse_kw})


# per domain: the test of a value and the message, of flag and value, that refuses it
DOMAINS = {
    "count": (lambda v: v >= 1, "%s must be >= 1, got %r"),
    "seed": (lambda v: v >= 0, "%s must be >= 0, got %r"),
    "budget": (lambda v: v != [] and all(0.0 < x < math.inf for x in np.atleast_1d(v)),
               "%s %s: budgets need finite prices and incomes above zero"),
    "finite": (math.isfinite, "%s %s: must be a finite number"),
}


_ALL = "simulate estimate welfare oracle-check rationality"
_FIT = "estimate welfare rationality"  # a sample's fit: --data, --goods, fit flags
_PATH = "welfare oracle-check"  # the price changes


@dataclass
class RunConfig:
    """Every setting of a run.  Each field is a row of the CLI's one table
    of flags (see ``_setting``); a command refuses a setting it does not
    read, and :func:`run` refuses a bad value or combination of values."""

    population: str = _setting("--population", None, "simulate welfare oracle-check rationality")
    data: str = _setting("--data", None, _FIT, required="estimate")
    goods: list = _setting("--goods", ["q"], "simulate " + _FIT, source="data",
                           type=lambda s: s.split(","))
    good: str = _setting("--good", None, "welfare rationality", source="data")
    price_degree: int = _setting("--basis-degree", 3, _FIT, "count", "data", type=int)
    income_degree: int = _setting("--income-degree", 3, _FIT, "count", "data", type=int)
    include_control: bool = _setting("--no-control", True, _FIT, source="data",
                                     action="store_false")
    p0: float = _setting("--p0", 1.0, _PATH, "budget", type=float)
    y: float = _setting("--y", 2.0, _PATH, "budget", type=float)
    dp: list = _setting("--dp", [0.05], _PATH, "budget", type=_float_list)  # prices --p0 + dp
    b_lo: float = _setting("--b-lo", None, "welfare", "finite", type=float)
    b_hi: float = _setting("--b-hi", None, "welfare", "finite", type=float)
    z: float = _setting("--z", None, "welfare", "finite", type=float)
    k: float = _setting("--k", None, "welfare", "finite", type=float)
    degree: int = _setting("--degree", 1, "rationality", "count", type=int)
    p_grid: list = _setting("--p-grid", [1.0], "rationality", "budget", type=_float_list)
    y_grid: list = _setting("--y-grid", [2.0], "rationality", "budget", type=_float_list)
    n: int = _setting("--n", 1000, "simulate", "count", type=int)
    # every bundle records the seed
    seed: int = _setting("--seed", None, _ALL, "seed", required="simulate", type=int)
    out: str = _setting("--out", ".", _ALL)

    def canonical(self):
        payload = asdict(self)
        payload.pop("out", None)  # output routing does not affect results
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)

    def hash(self):
        try:  # the interpreter's own SHA-256, as hashlib loads OpenSSL
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:  # a build with OpenSSL's hashes only
                from hashlib import sha256
        return sha256(self.canonical().encode()).hexdigest()


SETTINGS = {f.name: f for f in fields(RunConfig)}
# each field's argparse argument, built once: per parse it cost about 5% of parsing
_ARGUMENTS = [(f.metadata["flag"], dict(f.metadata["argparse"], dest=f.name, default=None))
              for f in SETTINGS.values()]
# the flags whose value is a number, or a list of numbers, and how to read one
_NUMBER_FLAGS = {flag: _float_list if kw["type"] is _float_list else float
                 for flag, kw in _ARGUMENTS if kw.get("type") in (int, float, _float_list)}
_DEFAULTS = RunConfig()


def parse_population(name):
    from .oracle import L0, Q0, CobbDouglasPopulation

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


def _distinct(goods):
    """``goods`` as a tuple, refusing a good listed twice."""
    repeated = [g for i, g in enumerate(goods) if g in goods[:i]]
    if repeated:
        raise ValueError("good %r appears more than once in --goods %r"
                         % (repeated[0], list(goods)))
    return tuple(goods)


def _columns(goods):
    """The household CSV's columns, in file order."""
    return ["w_%s" % g for g in goods] + ["log_p_%s" % g for g in goods] + ["log_y", "log_z"]


def ingest_csv(path, goods):
    """Parse and validate the household CSV; returns (Dataset, warnings).

    Required columns: the :func:`_columns` of the modeled goods; extra
    columns are ignored with a warning, and of a duplicated column name the
    last one is read.  A leading UTF-8 byte-order mark is skipped.  The data
    rows are parsed into one ``np.loadtxt`` table, which the dataset views,
    not copies, and checked as arrays.  Unparseable or out-of-range rows
    fail the whole file with a :class:`RowDataError` that lists the first
    100 by physical line number.
    """
    from .estimation import Dataset, DegenerateDataError

    goods = _distinct(goods)
    required = _columns(goods)
    k = len(goods)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        _, header = next(_csv_rows(fh, path), (None, []))
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
            errors = _row_errors(fh, path, cols, k)
            if not errors:
                # loadtxt refused a row that the scan reads; its message names the cell
                raise ValueError("%s: %s" % (path, parse_error))
            raise RowDataError(errors[:100], len(errors))
    if not len(table):
        raise DegenerateDataError("no data rows in %s" % path)
    return Dataset(goods=goods, shares=table[:, :k], log_prices=table[:, k:2 * k],
                   log_y=table[:, 2 * k], log_z=table[:, 2 * k + 1]), notes


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


def _csv_rows(fh, path):
    """(physical line, cells) of each CSV row of ``fh``.  A row that csv
    cannot split, as one with a cell longer than ``csv.field_size_limit()``,
    is a ValueError that names the file and the line."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:  # not a ValueError
        raise ValueError("%s: line %d: %s" % (path, reader.line_num, exc)) from None


def _row_errors(fh, path, cols, k):
    """(physical line, problem) of every bad data row, in file order.

    The diagnostic scan behind RowDataError: csv.reader over the whole
    file, run only when loadtxt or the row checks reject it.
    """
    rows = _csv_rows(fh, path)
    next(rows, None)
    errors, lines, values = [], [], []
    for line, row in rows:
        if not row:
            continue  # blank line
        try:
            values.append([_number(row[i]) for i in cols])
        except (IndexError, ValueError):
            errors.append((line, "unparseable numeric cell"))
        else:
            lines.append(line)
    problems = _row_problems(np.array(values).reshape(-1, len(cols)), k)
    errors += [(line, ROW_PROBLEMS[p]) for line, p in zip(lines, problems) if p]
    return sorted(errors)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# rows that _write_dataset_csv formats and writes at a time
WRITE_BLOCK_ROWS = 8192


def _write_dataset_csv(path, ds):
    header = _columns(ds.goods)
    columns = [ds.shares, ds.log_prices, ds.log_y[:, None], ds.log_z[:, None]]
    # rows end in csv.writer's "\r\n", as the header and the other CSV outputs do;
    # one % formats a block of WRITE_BLOCK_ROWS rows, row after row, so the
    # working set is one block's values and text, not the table's
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, ds.n, WRITE_BLOCK_ROWS):
            block = np.hstack([c[start:start + WRITE_BLOCK_ROWS] for c in columns])
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


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


FIT_ORDERS = (1, 2, 3)  # the share-moment orders fitted for each good of a --data run


def _fit(cfg, ds, goods):
    """The first stage (None without the control) and the share fits of
    FIT_ORDERS of each of ``goods`` on ``ds``, good by good."""
    from .estimation import BasisSpec, first_stage, fit_moment_surface

    basis = BasisSpec(cfg.price_degree, cfg.income_degree, cfg.include_control)
    fs = first_stage(ds) if cfg.include_control else None
    return fs, [fit_moment_surface(ds, good, n, basis, fs) for good in goods for n in FIT_ORDERS]


def _surface_for_config(cfg, max_order):
    """(surface, source, k): a population (L0 if none is named), orders up to
    ``max_order``, its k goods; or --data, FIT_ORDERS, one good per --goods
    column.  The run's budgets hold k prices."""
    if not cfg.data:
        from .oracle import surface_from_population

        pop = parse_population(cfg.population or "L0")
        return surface_from_population(pop, max_order), pop, pop.k
    from .estimation import fitted_surface

    ds, _ = ingest_csv(cfg.data, cfg.goods)
    _, fits = _fit(cfg, ds, (cfg.good or cfg.goods[0],))
    return fitted_surface(fits).moment_surface, ds, len(ds.goods)


def _price_change(cfg, dp, k, good):
    """A change of ``good``'s price by dp at income --y, in budgets of k
    prices that all start at --p0."""
    start = (cfg.p0,) * k
    end = start[:good] + (cfg.p0 + dp,) + start[good + 1:]
    return PriceChange(Budget(start, cfg.y), Budget(end, cfg.y))


def _check_settings(command, cfg):
    """Refuse a run's settings before any work: each value outside its row's
    domain, then every rule between settings.  A setting the command does
    not read keeps its default, and the defaults pass every check."""
    for key, f in SETTINGS.items():
        meta, given = f.metadata, getattr(cfg, key)
        if given in (None, "") and command in meta["required"]:
            raise ValueError("%s is required for %s" % (meta["flag"], command))
        value = [cfg.p0 + dp for dp in given] if key == "dp" else given
        if meta["domain"] and given is not None and not DOMAINS[meta["domain"]][0](value):
            raise ValueError(DOMAINS[meta["domain"]][1] % (meta["flag"], given))
    reads = {key for key, f in SETTINGS.items() if command in f.metadata["commands"]}
    if cfg.population and cfg.data:
        raise ValueError("--population and --data are two sources; give one")
    if {"population", "data"} <= reads and not (cfg.population or cfg.data):
        raise ValueError("either --population or --data is required")
    if cfg.population and "data" in reads:  # the population's good 0; nothing is fitted
        moved = [f.metadata["flag"] for key, f in SETTINGS.items() if f.metadata["source"]
                 and getattr(cfg, key) != getattr(_DEFAULTS, key)]
        if moved:
            raise UsageError("a --population surface models its good 0 and reads no %s" % moved[0])
    if cfg.good is not None and cfg.good not in cfg.goods:
        raise ValueError("--good %r is not one of --goods %r" % (cfg.good, list(cfg.goods)))
    _distinct(cfg.goods)
    if "population" in reads and not cfg.data:
        k = parse_population(cfg.population or "L0").k  # an unknown population stops here
        if command == "simulate" and cfg.goods != _DEFAULTS.goods and len(cfg.goods) != k:
            raise ValueError("--goods %r names %d goods, but the population has %d"
                             % (cfg.goods, len(cfg.goods), k))
    if cfg.data and cfg.degree + 2 > FIT_ORDERS[-1]:  # a degree-d verdict reads orders to d + 2
        raise ValueError("fitted surfaces carry orders up to %d; degree must be %d"
                         % (FIT_ORDERS[-1], FIT_ORDERS[-1] - 2))
    if (cfg.z is None) != (cfg.k is None):
        raise ValueError("--z and --k must be given together, got only %s"
                         % ("--z" if cfg.k is None else "--k"))
    if command == "welfare":  # the one command that reads the bounds and thresholds
        b_lo, b_hi = income_effect_bounds(cfg.b_lo, cfg.b_hi, cfg.p0)
        if cfg.z is not None and not (b_lo <= cfg.z <= b_hi and b_lo <= cfg.k <= b_hi):
            raise ValueError("--z %s, --k %s: thresholds must lie inside the income-effect "
                             "bounds [%s, %s]" % (cfg.z, cfg.k, b_lo, b_hi))


def _bundle(cfg, **payload):
    return {"version": __version__, "seed": cfg.seed, "config_hash": cfg.hash(), **payload}


def _cmd_simulate(cfg):
    from .synthetic import population_cross_section

    named = cfg.goods != _DEFAULTS.goods  # else the population names its goods
    ds = population_cross_section(parse_population(cfg.population or "L0"), cfg.n, cfg.seed,
                                  goods=cfg.goods if named else None)
    write = functools.partial(_write_dataset_csv, os.path.join(cfg.out, "draws.csv"), ds)
    return _bundle(cfg, rows=ds.n, columns=list(ds.goods)), [write]


def _cmd_estimate(cfg):
    ds, warnings = ingest_csv(cfg.data, cfg.goods)
    fs, fits = _fit(cfg, ds, ds.goods)
    fit_dicts = [f.to_dict() for f in fits]
    write = functools.partial(_write_json, os.path.join(cfg.out, "fits.json"), fit_dicts)
    first = dict(fs.coefficients) if fs else {}
    return _bundle(cfg, fits=fit_dicts, first_stage=first, warnings=warnings), [write]


def _cmd_welfare(cfg):
    surface, _, k = _surface_for_config(cfg, 4)
    from .welfare import build_report  # after the fit: not resident at its peak

    thresholds = None if cfg.z is None else (cfg.z, cfg.k)
    reports = [build_report(surface, _price_change(cfg, dp, k, surface.good), b_lo=cfg.b_lo,
                            b_hi=cfg.b_hi, chebyshev_thresholds=thresholds).to_dict()
               for dp in cfg.dp]
    header = ["dp", "first_order", "ra", "robust", "path", "bound_lower", "bound_upper",
              "var_robust", "var_additive", "var_first_order", "A1", "A2", "A3", "A4"]
    rows = [[r[c] for c in header[:5]] + [r["bounds"][c] for c in ("lower", "upper")]
            + [r["variance"][c] for c in ("robust", "additive", "first_order")]
            + [r["decomposition"][c] for c in header[10:]] for r in reports]
    write = functools.partial(_write_csv, os.path.join(cfg.out, "sweep.csv"), header, rows)
    return _bundle(cfg, reports=reports), [write]


def _cmd_oracle_check(cfg):
    from .oracle import population_cv_sweep
    from .welfare import build_report

    surface, pop, k = _surface_for_config(cfg, 4)
    pcs = [_price_change(cfg, dp, k, surface.good) for dp in cfg.dp]
    table = []
    for dp, pc, res in zip(cfg.dp, pcs, population_cv_sweep(pop, pcs)):
        rep = build_report(surface, pc)
        table.append({"dp": dp, "exact": res.mean, "first_order": rep.first_order,
                      "ra": rep.ra, "robust": rep.robust, "path": rep.path,
                      "err_ra": rep.ra - res.mean, "err_robust": rep.robust - res.mean})
    header = ["dp", "exact", "first_order", "ra", "robust", "path",
              "err_ra", "err_robust"]
    write = functools.partial(_write_csv, os.path.join(cfg.out, "sweep.csv"), header,
                              [[row[c] for c in header] for row in table])
    return _bundle(cfg, oracle_check=table), [write]


def _cmd_rationality(cfg):
    from .rationality import SupportBox, lp_violation_search

    surface, source, k = _surface_for_config(cfg, cfg.degree + 2)
    j = surface.good

    def box_at(b):
        if not cfg.data:  # a population knows its support
            return SupportBox(*source.support(b))
        # empirical support: the good's quantities observed within 5% of the budget
        lp0, ly0 = np.log(b.price(j)), np.log(b.income)
        near = ((np.abs(source.log_prices[:, j] - lp0) <= np.log(1.05))
                & (np.abs(source.log_y - ly0) <= np.log(1.05)))
        if not np.any(near):
            raise ValueError("no observations within 5%% of budget (%g, %g)"
                             % (b.price(j), b.income))
        q = source.shares[near, j] * np.exp(source.log_y[near] - source.log_prices[near, j])
        return SupportBox(float(np.min(q)), float(np.max(q)))

    verdicts = []
    for p in cfg.p_grid:
        for y in cfg.y_grid:
            b = Budget((p,) * k, y)
            v = lp_violation_search(surface, b, cfg.degree, box_at(b))
            verdicts.append({"budget": {"prices": list(b.prices), "income": y},
                             "degree": cfg.degree, **v})
    write = functools.partial(_write_json, os.path.join(cfg.out, "verdicts.json"), verdicts)
    return _bundle(cfg, verdicts=verdicts), [write]


COMMANDS = {"simulate": _cmd_simulate, "estimate": _cmd_estimate, "welfare": _cmd_welfare,
            "rationality": _cmd_rationality, "oracle-check": _cmd_oracle_check}

VALIDATION_ERRORS = (ValueError, OSError, KeyError)
# a RuntimeWarning is raised where warnings are errors: numpy's overflow, say
NUMERIC_ERRORS = (DomainError, OrderError, NumericError, FitError, InternalConsistencyError,
                  FloatingPointError, OverflowError, MemoryError, RuntimeWarning)


def run(command, cfg):
    """Execute one subcommand; returns (bundle, exit_code).

    The settings are checked first.  A command returns its bundle and the
    writers of its other files; nothing is written, and the output directory
    is not created, until the bundle is checked finite and serialised.
    """
    _check_settings(command, cfg)
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


def build_parser():
    parser = _Parser(prog="welfare-moments", allow_abbrev=False,
                     description="Welfare effects of price changes "
                                 "from cross-sectional demand moments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file; flags override it")
    for flag, kw in _ARGUMENTS:
        parser.add_argument(flag, **kw)
    return parser


def _file_value(key, value):
    """A config-file value, parsed by its flag's converter from the text it
    would have on the command line (a number as JSON, a list's items joined
    by commas); the result must equal the value, so "100" is no number."""
    meta = SETTINGS[key].metadata
    switch = "action" in meta["argparse"]  # a flag that takes no value
    items = value if isinstance(value, list) else [value]
    text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
    try:
        parsed = value if switch else meta["argparse"].get("type", str)(text)
    except ValueError:
        parsed = None
    if parsed == value and (not switch or isinstance(value, bool)):
        return parsed
    raise UsageError("config key %r: %s is not a valid %s value"
                     % (key, json.dumps(value), meta["flag"]))


def config_from_args(args):
    """The defaults, then the --config file's keys, then the flags.  A key
    or flag that the command does not read is a UsageError, raised after
    every file value's own type check and before any data file is read."""
    given = {}
    if args.config:
        with open(args.config) as fh:
            try:
                entries = json.load(fh)
            except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
                raise UsageError("--config %s is not JSON: %s" % (args.config, exc)) from None
        if not isinstance(entries, dict):
            raise UsageError("--config %s holds no JSON object of settings" % args.config)
        for key, value in entries.items():
            if key not in SETTINGS:
                raise ValueError("unknown config key %r" % key)
            if value is not None:  # null keeps the default, as an absent flag does
                given[key] = _file_value(key, value)
    given.update((key, getattr(args, key)) for key in SETTINGS if getattr(args, key) is not None)
    for key in given:
        meta = SETTINGS[key].metadata
        if args.command not in meta["commands"]:
            name = meta["flag"] if getattr(args, key) is not None else "config key %r" % key
            raise UsageError("%s does not read %s" % (args.command, name))
    return RunConfig(**given)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        _, code = run(args.command, cfg)
        return code
    except NUMERIC_ERRORS + VALIDATION_ERRORS as exc:
        _emit_error(exc)
        return 2 if isinstance(exc, NUMERIC_ERRORS) else 1


def _emit_error(exc):
    # numpy's _ArrayMemoryError is a MemoryError too
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    payload = {"error": name, "message": str(exc)}
    if isinstance(exc, RowDataError):
        payload["rows"] = [{"line": line, "problem": msg} for line, msg in exc.errors]
    if isinstance(exc, SchemaError):
        payload["column"] = exc.column
    json.dump(payload, sys.stderr, allow_nan=False)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
