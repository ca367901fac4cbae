import csv
import hashlib
import importlib
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from welfare_moments import (
    Budget,
    Dataset,
    L0,
    MomentSurface,
    PriceChange,
    QuadratureRule,
    build_report,
    cli,
    core,
    surface_from_population,
)
from welfare_moments.cli import (
    RowDataError,
    RunConfig,
    SchemaError,
    _write_dataset_csv,
    ingest_csv,
    main,
    parse_population,
    run,
)
from welfare_moments.rationality import SupportBox, lp_violation_search, translate_polynomial
from welfare_moments.synthetic import population_cross_section

from conftest import cobb_douglas_cv_mean, constant_batch, loglog_slope, traced


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


HEADER = ["w_q", "log_p_q", "log_y", "log_z"]


def test_ingest_valid(tmp_path):
    path = tmp_path / "ok.csv"
    write_csv(path, HEADER, [[0.3, 0.0, 1.0, 1.1], [0.4, 0.1, 1.2, 1.3],
                             [0.5, -0.1, 0.9, 1.0]])
    ds, warnings = ingest_csv(path, ["q"])
    assert ds.n == 3
    assert warnings == []


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "missing.csv"
    write_csv(path, ["w_q", "log_p_q", "log_z"], [[0.3, 0.0, 1.0]])
    with pytest.raises(SchemaError) as err:
        ingest_csv(path, ["q"])
    assert err.value.column == "log_y"


def test_ingest_share_out_of_range(tmp_path):
    path = tmp_path / "range.csv"
    write_csv(path, HEADER, [[1.2, 0.0, 1.0, 1.0]])
    with pytest.raises(RowDataError) as err:
        ingest_csv(path, ["q"])
    assert err.value.errors[0][0] == 2


def test_ingest_extra_column_warning(tmp_path):
    path = tmp_path / "extra.csv"
    write_csv(path, HEADER + ["region"], [[0.3, 0.0, 1.0, 1.1, "north"]])
    ds, warnings = ingest_csv(path, ["q"])
    assert ds.n == 1
    assert any("region" in w for w in warnings)


def test_parse_population():
    assert parse_population("L0") is not None
    assert parse_population("CD2(0.3)").types[0][0] == (0.3, 0.7)
    with pytest.raises(ValueError):
        parse_population("EASI")


def test_run_welfare_zero_change(tmp_path):
    cfg = RunConfig(population="L0", dp=[0.0], out=str(tmp_path))
    bundle, code = run("welfare", cfg)
    assert code == 0
    report = bundle["reports"][0]
    assert report["robust"] == 0.0
    assert report["path"] == 0.0
    assert all(v == 0.0 for v in report["decomposition"].values())


def test_run_oracle_check_columns_and_slope(tmp_path):
    dps = [0.01, 0.02, 0.04, 0.08, 0.16]
    cfg = RunConfig(population="L0", p0=1.0, y=2.0, dp=dps, out=str(tmp_path))
    bundle, code = run("oracle-check", cfg)
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["dp", "exact", "first_order", "ra", "robust",
                             "path", "err_ra", "err_robust"]
    errs = [abs(float(r["err_robust"])) for r in rows]
    assert loglog_slope(dps, errs) >= 2.7


def test_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["welfare", "--population", "L0", "--dp", "0.05,0.1",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_cli_simulate_estimate_round_trip(tmp_path):
    sim = tmp_path / "sim"
    est = tmp_path / "est"
    wel = tmp_path / "wel"
    chk = tmp_path / "chk"
    assert main(["simulate", "--population", "L0", "--n", "20000",
                 "--seed", "3", "--out", str(sim)]) == 0
    assert main(["estimate", "--data", str(sim / "draws.csv"), "--goods", "q",
                 "--seed", "3", "--out", str(est)]) == 0
    fits = json.load(open(est / "fits.json"))
    assert {f["order"] for f in fits} == {1, 2, 3}
    assert main(["welfare", "--data", str(sim / "draws.csv"), "--goods", "q",
                 "--p0", "1", "--y", "4", "--dp", "0.05", "--out", str(wel)]) == 0
    assert main(["oracle-check", "--population", "L0", "--p0", "1", "--y", "4",
                 "--dp", "0.05", "--out", str(chk)]) == 0
    robust = json.load(open(wel / "report.json"))["reports"][0]["robust"]
    exact = float(next(csv.DictReader(open(chk / "sweep.csv")))["exact"])
    assert robust == pytest.approx(exact, rel=0.01)


def test_cli_rationality_verdicts(tmp_path):
    code = main(["rationality", "--population", "L0", "--degree", "2",
                 "--p-grid", "1.0", "--y-grid", "1.8", "--out", str(tmp_path)])
    assert code == 0
    verdicts = json.load(open(tmp_path / "verdicts.json"))
    assert verdicts[0]["pass"] is True
    assert set(verdicts[0]) == {"budget", "degree", "pass", "worst_margin",
                                "witness_coeffs"}


def test_population_budgets_carry_one_price_per_good(tmp_path):
    # every command prices both goods of CD2(0.3); the surface reads good 0
    # alone, so each number is the one at a one-price budget
    pop, dps = parse_population("CD2(0.3)"), [0.05, -0.1]
    verdicts, _ = run("rationality", RunConfig(population="CD2(0.3)", p_grid=[0.9, 1.1],
                                               out=str(tmp_path / "r")))
    assert [v["budget"]["prices"] for v in verdicts["verdicts"]] == [[0.9, 0.9], [1.1, 1.1]]
    for v, p in zip(verdicts["verdicts"], (0.9, 1.1)):
        b = Budget((p,), 2.0)
        want = lp_violation_search(surface_from_population(pop, 3), b, 1,
                                   SupportBox(*pop.support(b)))
        assert {key: v[key] for key in want} == want
    welfare, _ = run("welfare", RunConfig(population="CD2(0.3)", dp=dps, out=str(tmp_path / "w")))
    check, _ = run("oracle-check", RunConfig(population="CD2(0.3)", dp=dps,
                                             out=str(tmp_path / "o")))
    for dp, report, row in zip(dps, welfare["reports"], check["oracle_check"]):
        want = build_report(surface_from_population(pop, 4),
                            PriceChange.scalar(1.0, 1.0 + dp, 2.0)).to_dict()
        assert report == want
        assert {key: row[key] for key in ("first_order", "ra", "robust", "path")} == {
            key: want[key] for key in ("first_order", "ra", "robust", "path")}


def test_cli_degree_one_verdict_is_the_hankel_verdict(tmp_path):
    assert main(["rationality", "--population", "L0", "--p-grid", "1", "--y-grid", "2,4",
                 "--out", str(tmp_path)]) == 0
    passing, failing = json.load(open(tmp_path / "verdicts.json"))
    surface = surface_from_population(L0, 3)
    for verdict, y in ((passing, 2.0), (failing, 4.0)):
        b = Budget((1.0,), y)
        hankel = lp_violation_search(surface, b, 1, SupportBox(*L0.support(b)))
        assert verdict == {"budget": {"prices": [1.0], "income": y}, "degree": 1, **hankel}
    assert passing["pass"] is True and passing["witness_coeffs"] == []
    # a failing verdict carries its witness, whose translation is the margin
    assert failing["pass"] is False
    assert translate_polynomial(failing["witness_coeffs"], surface, Budget((1.0,), 4.0)) \
        == pytest.approx(failing["worst_margin"], abs=1e-12)


@pytest.mark.parametrize("flag,value", [
    ("--b-lo", "-inf"), ("--b-lo", "-1e-3"), ("--b-lo", "-0.5"), ("--p0", "-1e-3"),
    ("--dp", "-0.05,0.05"), ("--dp", "-1e-2"), ("--seed", "-1"), ("--z", "-nan"),
])
def test_negative_value_after_a_space_reads_as_with_equals(tmp_path, capsys, flag, value):
    # argparse alone reads "-inf" or "-1e-3" after a space as a flag
    runs = []
    for name, form in (("space", [flag, value]), ("equals", [flag + "=" + value])):
        out = tmp_path / name
        code = main(["welfare", "--population", "L0", *form, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        runs.append((code, capsys.readouterr().err, files))
    assert runs[0] == runs[1]


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.csv"
    write_csv(bad, ["w_q", "log_p_q", "log_z"], [[0.2, 0.0, 1.0]])
    assert main(["estimate", "--data", str(bad), "--goods", "q",
                 "--out", str(tmp_path)]) == 1
    assert main(["welfare", "--population", "nope", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [
    ["welfare", "--population", "L0", "--bogus", "3"],
    ["welfare", "--population", "L0", "--dp", "abc"],
    ["rationality", "--population", "L0", "--degree", "2", "--grid", "40"],
    ["nonsense"],
])
def test_usage_error_exits_1_with_json(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "UsageError"
    assert err["message"]
    assert captured.out == ""
    assert not out.exists()


def test_flag_value_that_is_no_number_stays_a_token(tmp_path, capsys):
    # "-abc" after --dp does not parse as a number, so it is not joined to
    # its flag, and argparse reads it as a flag
    assert main(["welfare", "--population", "L0", "--dp", "-abc", "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "UsageError", "message": "argument --dp: expected one argument"}


@pytest.mark.parametrize("argv, flag, value", [
    (["rationality", "--population", "L0", "--degree", "0"], "--degree", "0"),
    (["rationality", "--population", "L0", "--degree", "-2"], "--degree", "-2"),
    (["welfare", "--data", "missing.csv", "--basis-degree", "0"], "--basis-degree", "0"),
    (["rationality", "--data", "missing.csv", "--income-degree", "0"], "--income-degree", "0"),
    (["simulate", "--population", "L0", "--n", "-3", "--seed", "1"], "--n", "-3"),
    (["simulate", "--population", "L0", "--n", "0", "--seed", "1"], "--n", "0"),
])
def test_non_positive_count_flag_exits_1(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "%s must be >= 1, got %s" % (flag, value)}
    assert not out.exists()


@pytest.mark.parametrize("flag, given", [("--z", "0.3"), ("--k", "0.5")])
def test_lone_chebyshev_threshold_exits_1(tmp_path, capsys, monkeypatch, flag, given):
    def no_surface(*args):
        raise AssertionError("a surface was built")

    monkeypatch.setattr(cli, "_surface_for_config", no_surface)
    out = tmp_path / "run"
    assert main(["welfare", "--population", "L0", "--dp", "0.05", flag, given,
                 "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "--z and --k must be given together, got only %s" % flag}
    assert not out.exists()


BUDGETS = "budgets need finite prices and incomes above zero"


@pytest.mark.parametrize("argv, message", [
    (["welfare", "--population", "L0", "--p0", "-1"], "--p0 -1.0"),
    (["welfare", "--population", "L0", "--p0", "nan"], "--p0 nan"),
    (["welfare", "--population", "L0", "--y", "0"], "--y 0.0"),
    (["welfare", "--data", "missing.csv", "--p0", "-1"], "--p0 -1.0"),
    (["welfare", "--population", "L0", "--dp=0.05,-1.5"], "--dp [0.05, -1.5]"),
    (["welfare", "--population", "L0", "--dp="], "--dp []"),
    (["oracle-check", "--dp=-2"], "--dp [-2.0]"),
    (["oracle-check", "--p0", "2", "--dp=-2"], "--dp [-2.0]"),
    (["oracle-check", "--dp="], "--dp []"),
    (["rationality", "--population", "L0", "--p-grid", "-1"], "--p-grid [-1.0]"),
    (["rationality", "--population", "L0", "--y-grid", "inf"], "--y-grid [inf]"),
    (["rationality", "--data", "missing.csv", "--y-grid", "1,0"], "--y-grid [1.0, 0.0]"),
    (["rationality", "--population", "L0", "--p-grid="], "--p-grid []"),
    (["rationality", "--population", "L0", "--y-grid="], "--y-grid []"),
])
def test_bad_budget_value_exits_1_before_any_surface(tmp_path, capsys, monkeypatch, argv,
                                                      message):
    def no_surface(*args):
        raise AssertionError("a surface was built or a file read")

    for name in ("oracle.surface_from_population", "cli.ingest_csv",
                 "oracle.population_cv_sweep"):
        monkeypatch.setattr("welfare_moments." + name, no_surface)
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "%s: %s" % (message, BUDGETS)}
    assert not out.exists()


def test_bad_budget_value_in_config_file_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"population": "L0", "y": -2}))
    out = tmp_path / "run"
    assert main(["welfare", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "--y -2.0: %s" % BUDGETS}
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["welfare"], "either --population or --data is required"),
    (["estimate"], "--data is required for estimate"),
])
def test_run_without_its_data_source_exits_1(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


TWO_SOURCES = "--population and --data are two sources; give one"


@pytest.mark.parametrize("argv, error, message", [
    pytest.param(["welfare", "--goods", "q", "--good", "fuel"], "ValueError",
                 "--good 'fuel' is not one of --goods ['q']", id="good-outside-goods"),
    pytest.param(["welfare", "--goods", "q,q"], "ValueError",
                 "good 'q' appears more than once in --goods ['q', 'q']", id="repeated-good"),
    pytest.param(["estimate", "--goods", "food,q,food"], "ValueError",
                 "good 'food' appears more than once in --goods ['food', 'q', 'food']",
                 id="repeated-good-estimate"),
    pytest.param(["rationality", "--degree", "2"], "ValueError",
                 "fitted surfaces carry orders up to 3; degree must be 1", id="fitted-degree"),
    pytest.param(["welfare", "--population", "L0"], "ValueError", TWO_SOURCES,
                 id="welfare-two-sources"),
    pytest.param(["rationality", "--population", "L0"], "ValueError", TWO_SOURCES,
                 id="rationality-two-sources"),
    pytest.param(["oracle-check"], "UsageError", "oracle-check does not read --data",
                 id="oracle-check-data"),
    pytest.param(["simulate", "--population", "L0", "--n", "10", "--seed", "1"], "UsageError",
                 "simulate does not read --data", id="simulate-data"),
    pytest.param(["estimate", "--population", "Q0"], "UsageError",
                 "estimate does not read --population", id="estimate-population"),
])
def test_bad_data_run_is_refused_before_any_read(tmp_path, capsys, argv, error, message):
    # the file does not exist, so a run that read it would fail otherwise
    out = tmp_path / "run"
    assert main(argv + ["--data", str(tmp_path / "missing.csv"), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": error, "message": message}
    assert not out.exists()


# Every setting: its flag, a command-line value (None for a switch), its
# config key and the value both set; written out here, not read from RunConfig.
SETTING_VALUES = [
    ("--population", "L0", "population", "L0"), ("--data", "draws.csv", "data", "draws.csv"),
    ("--goods", "q", "goods", ["q"]), ("--good", "q", "good", "q"),
    ("--basis-degree", "3", "price_degree", 3), ("--income-degree", "3", "income_degree", 3),
    ("--no-control", None, "include_control", False), ("--p0", "1", "p0", 1.0),
    ("--y", "2", "y", 2.0), ("--dp", "0.05", "dp", [0.05]), ("--b-lo", "0", "b_lo", 0.0),
    ("--b-hi", "1", "b_hi", 1.0), ("--z", "0.3", "z", 0.3), ("--k", "0.5", "k", 0.5),
    ("--degree", "1", "degree", 1),
    ("--p-grid", "1", "p_grid", [1.0]), ("--y-grid", "2", "y_grid", [2.0]),
    ("--n", "10", "n", 10), ("--seed", "1", "seed", 1), ("--out", "elsewhere", "out", "elsewhere"),
]
FIT_FLAGS = {"--basis-degree", "--income-degree", "--no-control"}
# The flags each command reads besides --config, --out and --seed.
READS = {
    "simulate": {"--population", "--goods", "--n"},
    "estimate": {"--data", "--goods"} | FIT_FLAGS,
    "welfare": {"--population", "--data", "--goods", "--good", "--p0", "--y", "--dp", "--b-lo",
                "--b-hi", "--z", "--k"} | FIT_FLAGS,
    "oracle-check": {"--population", "--p0", "--y", "--dp"},
    "rationality": {"--population", "--data", "--goods", "--good", "--degree", "--p-grid",
                    "--y-grid"} | FIT_FLAGS,
}


def test_settings_table_names_every_flag():
    flags = {a.option_strings[0] for a in cli.build_parser()._actions if a.option_strings}
    assert flags == {flag for flag, *_ in SETTING_VALUES} | {"-h", "--config"}
    accepted = sum(len(READS[c] | {"--config", "--out", "--seed"}) for c in READS)
    assert (accepted, len(READS) * len(flags - {"-h"})) == (51, 105)


def test_every_command_refuses_every_flag_it_does_not_read(tmp_path, capsys):
    out = tmp_path / "run"
    for command, reads in READS.items():
        for flag, value, key, setting in SETTING_VALUES:
            argv = [command, flag] + ([] if value is None else [value])
            if flag in reads | {"--out", "--seed"}:
                cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
                assert getattr(cfg, key) == setting, argv
                continue
            assert main(argv + ["--out", str(out)]) == 1, argv
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "UsageError",
                           "message": "%s does not read %s" % (command, flag)}, argv
            assert not out.exists()


def test_config_file_key_the_command_does_not_read_exits_1(tmp_path, capsys):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run"
    for command, reads in READS.items():
        for flag, _, key, value in SETTING_VALUES:
            if flag in reads | {"--out", "--seed"}:
                continue
            cfg_path.write_text(json.dumps({key: value}))
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "UsageError",
                           "message": "%s does not read config key %r" % (command, key)}
            assert not out.exists()


@pytest.mark.parametrize("command", ["welfare", "rationality"])
@pytest.mark.parametrize("extra, flag", [
    (["--goods", "food,fuel", "--good", "fuel"], "--goods"),
    (["--good", "nonsense"], "--good"),
    (["--basis-degree", "2"], "--basis-degree"),
    (["--no-control"], "--no-control"),
])
def test_population_run_refuses_settings_of_a_fit(tmp_path, capsys, monkeypatch, command,
                                                  extra, flag):
    def no_surface(*args):
        raise AssertionError("a surface was built")

    monkeypatch.setattr("welfare_moments.oracle.surface_from_population", no_surface)
    out = tmp_path / "run"
    assert main([command, "--population", "CD(0.3)"] + extra + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "UsageError",
                   "message": "a --population surface models its good 0 and reads no %s" % flag}
    assert not out.exists()


def test_population_run_accepts_default_fit_settings(tmp_path):
    assert main(["welfare", "--population", "L0", "--goods", "q", "--basis-degree", "3",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["welfare", "--population", "L0", "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


FINITE = "must be a finite number"
INVERTED = "lower income-effect bound exceeds upper bound"


def _refused(argv, message, error="ValueError", config=None, work=False):
    return pytest.param(argv, config, error, message, work,
                        id=" ".join(argv + ([json.dumps(config)] if config else [])))


# "DATA" stands for a --data path; no file is there, and none may be read.
# "DIR" stands for an empty directory and "FILE" for a file; a message names
# either by its repr, as an OSError does.  A row with work=True is refused at
# the read or write that fails, so the run may work up to there.
REFUSED = [
    _refused(["welfare", "--data", "DATA", "--basis-degree", "0"],
             "--basis-degree must be >= 1, got 0"),
    _refused(["welfare", "--data", "DATA", "--income-degree", "0"],
             "--income-degree must be >= 1, got 0"),
    _refused(["welfare", "--data", "DATA", "--b-lo", "1", "--b-hi", "0"], INVERTED),
    _refused(["welfare", "--population", "L0", "--b-lo", "2"], INVERTED),  # --b-hi 1/p0
    _refused(["welfare", "--data", "DATA", "--z", "9", "--k", "9"],
             "--z 9.0, --k 9.0: thresholds must lie inside the income-effect bounds [0.0, 1.0]"),
    _refused(["welfare", "--population", "L0", "--p0", "4", "--z", "0.3", "--k", "0.3"],
             "--z 0.3, --k 0.3: thresholds must lie inside the income-effect bounds [0.0, 0.25]"),
    _refused(["welfare", "--population", "L0", "--z", "9", "--k", "9", "--dp=-0.05"],
             "--z 9.0, --k 9.0: thresholds must lie inside the income-effect bounds [0.0, 1.0]"),
    _refused(["welfare", "--population", "L0", "--b-lo", "nan"], "--b-lo nan: " + FINITE),
    _refused(["welfare", "--population", "L0", "--b-hi", "inf"], "--b-hi inf: " + FINITE),
    _refused(["welfare", "--population", "L0", "--z", "nan", "--k", "0.5"], "--z nan: " + FINITE),
    _refused(["welfare", "--population", "L0"], "--b-hi inf: " + FINITE,
             config={"b_hi": math.inf}),
    _refused(["simulate", "--seed", "-1"], "--seed must be >= 0, got -1"),
    _refused(["welfare", "--population", "L0", "--seed", "-1"], "--seed must be >= 0, got -1"),
    _refused(["simulate", "--n", "0", "--seed", "1"], "--n must be >= 1, got 0"),
    _refused(["simulate", "--n", "10"], "--seed is required for simulate"),
    _refused(["rationality", "--population", "L0", "--degree", "0"],
             "--degree must be >= 1, got 0"),
    _refused(["welfare", "--data", "DATA", "--p0", "-1"], "--p0 -1.0: " + BUDGETS),
    _refused(["oracle-check", "--p0", "2", "--dp=-2"], "--dp [-2.0]: " + BUDGETS),
    _refused(["rationality", "--data", "DATA", "--y-grid", "1,0"],
             "--y-grid [1.0, 0.0]: " + BUDGETS),
    _refused(["welfare", "--population", "L0", "--z", "0.3"],
             "--z and --k must be given together, got only --z"),
    _refused(["welfare"], "either --population or --data is required"),
    _refused(["estimate"], "--data is required for estimate"),
    _refused(["rationality", "--population", "L0", "--data", "DATA"], TWO_SOURCES),
    _refused(["welfare", "--data", "DATA", "--goods", "q", "--good", "fuel"],
             "--good 'fuel' is not one of --goods ['q']"),
    _refused(["estimate", "--data", "DATA", "--goods", "q,q"],
             "good 'q' appears more than once in --goods ['q', 'q']"),
    _refused(["simulate", "--population", "CD2(0.3)", "--goods", "a,a", "--seed", "1"],
             "good 'a' appears more than once in --goods ['a', 'a']"),
    _refused(["simulate", "--population", "L0", "--goods", "a,b", "--seed", "1"],
             "--goods ['a', 'b'] names 2 goods, but the population has 1"),
    _refused(["rationality", "--data", "DATA", "--degree", "2"],
             "fitted surfaces carry orders up to 3; degree must be 1"),
    _refused(["welfare", "--population", "L0", "--no-control"],
             "a --population surface models its good 0 and reads no --no-control",
             "UsageError"),
    _refused(["welfare", "--population", "nope"],
             "unknown population 'nope' (use L0, Q0, CD(a), CD2(a))"),
    _refused(["welfare", "--population", "CD2(nan)"],
             "share vectors must be finite, nonnegative and sum to 1"),
    _refused(["oracle-check", "--degree", "2"], "oracle-check does not read --degree",
             "UsageError"),
    _refused(["welfare", "--population", "L0", "--quad-nodes", "32"],
             "unrecognized arguments: --quad-nodes 32", "UsageError"),
    # each flag has one spelling: argparse's unique prefixes are refused
    _refused(["welfare", "--population", "L0", "--b-l", "-inf"],
             "unrecognized arguments: --b-l -inf", "UsageError"),
    _refused(["welfare", "--population", "L0", "--b-l=-inf"],
             "unrecognized arguments: --b-l=-inf", "UsageError"),
    _refused(["welfare", "--population", "L0", "--b-l", "0.1"],
             "unrecognized arguments: --b-l 0.1", "UsageError"),
    _refused(["welfare", "--population", "L0"], "unknown config key 'quad_nodes'",
             config={"quad_nodes": 32}),
    _refused(["welfare", "--population", "L0"], "config key 'b_lo': NaN is not a valid "
             "--b-lo value", "UsageError", config={"b_lo": math.nan}),
    # a file the run cannot open or make
    _refused(["welfare", "--config", "DIR"], "[Errno 21] Is a directory: 'DIR'",
             "IsADirectoryError"),
    _refused(["estimate", "--data", "DIR"], "[Errno 21] Is a directory: 'DIR'",
             "IsADirectoryError", work=True),
    _refused(["welfare", "--population", "L0", "--out", "FILE"], "[Errno 17] File exists: 'FILE'",
             "FileExistsError", work=True),
]


@pytest.mark.parametrize("argv, config, error, message, work", REFUSED)
def test_bad_settings_are_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, config,
                                                  error, message, work):
    def no_work(*args, **kwargs):
        raise AssertionError("a file was read, a surface built or households drawn")

    for name in ("cli.ingest_csv", "oracle.surface_from_population",
                 "estimation.fit_moment_surface", "oracle.population_cv_sweep",
                 "synthetic.population_cross_section"):
        if not work:
            monkeypatch.setattr("welfare_moments." + name, no_work)
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("kept")
    paths = {"DATA": tmp_path / "draws.csv", "DIR": tmp_path / "DIR", "FILE": tmp_path / "FILE"}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    for name, path in paths.items():
        message = message.replace(repr(name), repr(str(path)))
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
    # no output directory, and the test's own files as they were
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["DIR", "FILE"] + ["cfg.json"] * (config is not None))
    assert not any((tmp_path / "DIR").iterdir()) and (tmp_path / "FILE").read_text() == "kept"


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's MemoryError subclass of the same name."""


@pytest.mark.parametrize("exc", [MemoryError(), _ArrayMemoryError("Unable to allocate 71 PiB")])
def test_out_of_memory_exits_2_with_json(tmp_path, capsys, monkeypatch, exc):
    def no_memory(*args):
        raise exc

    monkeypatch.setattr("welfare_moments.oracle.surface_from_population", no_memory)
    out = tmp_path / "run"
    assert main(["welfare", "--population", "L0", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "MemoryError", "message": str(exc)}
    assert not out.exists()


@pytest.mark.parametrize("module, name", [("estimation", "FitError"), ("oracle", "NumericError"),
                                          ("welfare", "InternalConsistencyError")])
def test_numeric_failure_of_each_module_exits_2(tmp_path, capsys, monkeypatch, module, name):
    # the class each module offers by name is the one main maps to exit 2
    error = getattr(importlib.import_module("welfare_moments." + module), name)

    def failing(*args):
        raise error("did not converge")

    monkeypatch.setattr("welfare_moments.oracle.surface_from_population", failing)
    out = tmp_path / "run"
    assert main(["welfare", "--population", "L0", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": name, "message": "did not converge"}
    assert not out.exists()


@pytest.mark.parametrize("error", cli.NUMERIC_ERRORS + core.NUMERIC_ERRORS,
                         ids=lambda error: error.__name__)
def test_every_class_of_both_numeric_lists_exits_2(tmp_path, capsys, monkeypatch, error):
    # cli's list and core's are together the exit-2 set
    def failing(*args):
        raise error("failed")

    monkeypatch.setattr("welfare_moments.oracle.surface_from_population", failing)
    out = tmp_path / "run"
    assert main(["welfare", "--population", "L0", "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": error.__name__, "message": "failed"}
    assert not out.exists()


def test_welfare_reads_the_32_node_rule(tmp_path):
    assert main(["welfare", "--population", "Q0", "--dp=-0.1,0.2", "--out", str(tmp_path)]) == 0
    reports = json.load(open(tmp_path / "report.json"))["reports"]
    surface = surface_from_population(parse_population("Q0"), 4)
    rule = QuadratureRule.gauss_legendre(32)
    for dp, report in zip((-0.1, 0.2), reports):
        pc = PriceChange(Budget((1.0,), 2.0), Budget((1.0 + dp,), 2.0))
        assert report == json.loads(json.dumps(build_report(surface, pc, rule).to_dict()))


@pytest.mark.parametrize("population, goods, k", [("L0", "a,b", 1), ("Q0", "a,b", 1),
                                                  ("CD2(0.3)", "a", 2), ("CD(0.3)", "a,b,c", 2)])
def test_simulate_refuses_goods_the_population_does_not_have(tmp_path, capsys, population,
                                                             goods, k):
    out = tmp_path / "run"
    assert main(["simulate", "--population", population, "--goods", goods, "--n", "10",
                 "--seed", "1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "--goods %r names %d goods, but the population has %d"
                   % (goods.split(","), len(goods.split(",")), k)}
    assert not out.exists()


@pytest.mark.parametrize("argv, columns", [
    (["--population", "L0"], ["q"]), (["--population", "CD2(0.3)"], ["g0", "g1"]),
    (["--population", "CD2(0.3)", "--goods", "food,fuel"], ["food", "fuel"]),
    (["--population", "Q0", "--goods", "x"], ["x"]),
])
def test_simulate_goods_name_the_columns(tmp_path, argv, columns):
    assert main(["simulate"] + argv + ["--n", "10", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert json.load(open(tmp_path / "report.json"))["columns"] == columns


def test_simulate_refuses_a_repeated_good_before_drawing(tmp_path, capsys, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("households were drawn")

    monkeypatch.setattr("welfare_moments.synthetic.population_cross_section", no_draws)
    out = tmp_path / "run"
    assert main(["simulate", "--population", "CD2(0.3)", "--goods", "a,a", "--n", "10",
                 "--seed", "1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "good 'a' appears more than once in --goods ['a', 'a']"}
    assert not out.exists()


def test_simulate_q0_draws_lie_in_the_support(tmp_path):
    assert main(["simulate", "--population", "Q0", "--n", "2000", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    ds, _ = ingest_csv(tmp_path / "draws.csv", ["q"])
    p, y = np.exp(ds.log_prices[:, 0]), np.exp(ds.log_y)
    q = ds.shares[:, 0] * y / p
    for qi, pi, yi in zip(q, p, y):
        lo, hi = parse_population("Q0").support(Budget((pi,), yi))
        # q went through the share w = p q / y and back: a few ulps of slack
        assert lo * (1 - 1e-13) <= qi <= hi * (1 + 1e-13)


def test_row_data_error_lists_its_rows_on_stderr(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    write_csv(path, HEADER, [[0.2, 0.0, 1.0, 1.0], [1.5, 0.0, 1.0, 1.0], ["x", 0.0, 1.0, 1.0]])
    out = tmp_path / "run"
    assert main(["estimate", "--data", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "RowDataError",
                   "message": "2 malformed data rows (first: line 3: share outside [0, 1])",
                   "rows": [{"line": 3, "problem": "share outside [0, 1]"},
                            {"line": 4, "problem": "unparseable numeric cell"}]}
    assert not out.exists()


def test_config_file_grid_key_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"population": "L0", "degree": 2, "grid": 40}))
    assert main(["rationality", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "unknown config key 'grid'"}


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"population": "L0", "dp": [0.2], "y": 2.0}))
    out = tmp_path / "run"
    assert main(["welfare", "--config", str(cfg_path), "--dp", "0.1",
                 "--out", str(out)]) == 0
    report = json.load(open(out / "report.json"))["reports"][0]
    assert report["dp"] == pytest.approx(0.1)


@pytest.mark.parametrize("key, value, flag", [
    ("dp", "0.05", "--dp"), ("n", "100", "--n"), ("seed", 1.5, "--seed"),
])
def test_config_file_value_of_wrong_type_exits_1(tmp_path, capsys, key, value, flag):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"population": "L0", key: value}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "UsageError",
                   "message": "config key %r: %s is not a valid %s value"
                   % (key, json.dumps(value), flag)}
    assert not out.exists()


@pytest.mark.parametrize("content", ["[1, 2]", '"L0"', "3"], ids=["list", "string", "number"])
def test_config_file_that_is_no_object_exits_1(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content)
    out = tmp_path / "run"
    assert main(["welfare", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "UsageError",
                   "message": "--config %s holds no JSON object of settings" % cfg_path}
    assert not out.exists()


@pytest.mark.parametrize("content", [b"", b'{"dp": [0.1],}', b"\xff\xfe"],
                         ids=["empty", "trailing-comma", "not-utf8"])
def test_config_file_that_is_not_json_names_the_file(tmp_path, capsys, content):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(content)
    out = tmp_path / "run"
    assert main(["welfare", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "UsageError"
    assert err["message"].startswith("--config %s is not JSON: " % cfg_path)
    assert not out.exists()


def test_config_file_and_flags_give_one_hash(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"population": "L0", "y": 2, "dp": [0.05]}))
    assert main(["welfare", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["welfare", "--population", "L0", "--y", "2", "--dp", "0.05",
                 "--out", str(tmp_path / "b")]) == 0
    a, b = (json.load(open(tmp_path / d / "report.json")) for d in "ab")
    assert a["config_hash"] == b["config_hash"]
    assert a == b


def test_config_hash_stable_under_key_order():
    a = RunConfig(population="L0", dp=[0.1], y=2.0)
    b = RunConfig(y=2.0, dp=[0.1], population="L0")
    assert a.hash() == b.hash()
    c = RunConfig(population="L0", dp=[0.1], y=2.0, out="elsewhere")
    assert a.hash() == c.hash()


@pytest.mark.parametrize("cfg", [
    RunConfig(),
    RunConfig(population="L0", dp=[0.1, -0.03], y=2.0),
    RunConfig(data="draws.csv", goods=("food", "fuel"), good="fuel", include_control=False),
    RunConfig(population="CD2(0.3)", degree=3, p_grid=[0.9, 1.1], y_grid=[1e-10, 1e300]),
    RunConfig(population="Q0", n=7, seed=2**40, b_lo=-0.5, b_hi=0.5, z=0.1, k=0.2),
])
def test_config_hash_is_the_sha256_of_the_canonical_settings(cfg):
    # the package hashes without hashlib (see test_imports); hashlib is the reference
    assert cfg.hash() == hashlib.sha256(cfg.canonical().encode()).hexdigest()


def test_entry_point_script():
    proc = subprocess.run([sys.executable, "-m", "welfare_moments.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "welfare" in proc.stdout


def test_sweep_reports_match_single_runs(tmp_path):
    dps = ["0.02", "0.05", "0.1"]
    assert main(["welfare", "--population", "L0", "--dp", ",".join(dps),
                 "--out", str(tmp_path / "sweep")]) == 0
    sweep = json.loads((tmp_path / "sweep" / "report.json").read_text())["reports"]
    assert len(sweep) == len(dps)
    for dp, report in zip(dps, sweep):
        out = tmp_path / dp
        assert main(["welfare", "--population", "L0", "--dp", dp, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["reports"] == [report]


@pytest.mark.parametrize("population", ["L0", "Q0"])
def test_oracle_check_rows_match_single_runs(tmp_path, population):
    dps = ["0.02", "-0.05", "0.1"]
    assert main(["oracle-check", "--population", population, "--dp", ",".join(dps),
                 "--out", str(tmp_path / "sweep")]) == 0
    table = json.loads((tmp_path / "sweep" / "report.json").read_text())["oracle_check"]
    assert len(table) == len(dps)
    for dp, row in zip(dps, table):
        out = tmp_path / dp
        assert main(["oracle-check", "--population", population, "--dp", dp,
                     "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["oracle_check"] == [row]


@pytest.mark.parametrize("population", ["CD(0.3)", "CD2(0.3)"])
def test_oracle_check_cobb_douglas_exact(tmp_path, population):
    dps = [0.05, -0.1, 0.2]
    cfg = RunConfig(population=population, p0=1.0, y=2.0, dp=dps, out=str(tmp_path))
    bundle, code = run("oracle-check", cfg)
    assert code == 0
    pop = parse_population(population)
    for dp, row in zip(dps, bundle["oracle_check"]):
        pc = PriceChange(Budget((1.0, 1.0), 2.0), Budget((1.0 + dp, 1.0), 2.0))
        assert abs(row["exact"] - cobb_douglas_cv_mean(pop, pc)) <= 1e-9


def test_non_finite_result_exits_2_without_output(tmp_path, capsys, monkeypatch):
    infinite = MomentSurface(4, constant_batch([math.inf] * 4))
    monkeypatch.setattr("welfare_moments.oracle.surface_from_population",
                        lambda pop, max_order: infinite)
    out = tmp_path / "welfare"
    assert main(["welfare", "--population", "L0", "--p0", "1", "--y", "2",
                 "--dp", "0.05", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "FloatingPointError",
                   "message": "non-finite value in reports[0].first_order"}
    assert not out.exists()


def test_non_finite_translations_exit_2_without_output(tmp_path, capsys):
    # the settings pass their checks, but at income 1e308 the translations
    # overflow: the verdict refuses them instead of reading a margin
    out = tmp_path / "verdicts"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["rationality", "--population", "L0", "--degree", "1", "--p-grid=1",
                     "--y-grid=1e308", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FloatingPointError"
    assert "income=1e+308" in err["message"]
    assert not out.exists()


def test_non_finite_mapped_translations_exit_2_without_output(tmp_path, capsys):
    # the translations are finite, but the support box at income 1e-10 is so
    # narrow that mapping it to [-1, 1] overflows: refused, not a traceback
    out = tmp_path / "verdicts"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["rationality", "--population", "CD2(0.3)", "--p-grid=1e300",
                     "--y-grid=1e-10", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "FloatingPointError"
    assert "mapped to [-1, 1]" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["welfare", "--population", "L0", "--y", "1e308"],
    ["rationality", "--population", "L0", "--degree", "1", "--p-grid=1", "--y-grid=1e308"],
    ["rationality", "--population", "CD2(0.3)", "--p-grid=1e300", "--y-grid=1e-10"],
], ids=["welfare", "rationality", "rationality mapped"])
def test_numeric_refusals_exit_2_where_warnings_are_errors(tmp_path, capsys, argv):
    # the filter that pyproject.toml sets for the suite and the benchmark's
    # self-test sets for every run: numpy's overflow warning is the refusal
    out = tmp_path / "refused"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv + ["--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "RuntimeWarning"
    assert err["message"].startswith("overflow encountered in ")
    assert not out.exists()


@pytest.mark.parametrize("population", ["CD2(nan)", "CD(nan)"])
def test_non_finite_population_exits_1_without_output(tmp_path, capsys, population):
    out = tmp_path / "welfare"
    assert main(["welfare", "--population", population, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "share vectors must be finite" in err["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def l0_draws(tmp_path_factory):
    out = tmp_path_factory.mktemp("l0_draws")
    assert main(["simulate", "--population", "L0", "--n", "20000", "--seed", "7",
                 "--out", str(out)]) == 0
    return out / "draws.csv"


@pytest.mark.parametrize("income", ["40", "4000"])
def test_fitted_surface_outside_sample_exits_2(tmp_path, capsys, l0_draws, income):
    # there the fitted moments overflow exp; the cause to report is the budget
    out = tmp_path / "welfare"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["welfare", "--data", str(l0_draws), "--goods", "q", "--p0", "1",
                     "--y", income, "--dp", "0.05", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert "income %s lies outside the estimation sample" % income in err["message"]
    assert "decomposition" not in captured.err and "overflow" not in captured.err
    assert not out.exists()


def test_estimate_with_no_more_rows_than_basis_columns_exits_1(tmp_path, capsys, l0_draws):
    lines = l0_draws.read_text().splitlines(keepends=True)
    for rows, code in ((6, 1), (9, 0)):
        data = tmp_path / ("head%d.csv" % rows)
        data.write_text("".join(lines[:rows + 1]))
        out = tmp_path / ("run%d" % rows)
        assert main(["estimate", "--data", str(data), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DegenerateDataError"
    assert err["message"].startswith("6 rows cannot fit 8 basis columns")


def test_zero_change_outside_sample_exits_2(tmp_path, capsys, l0_draws):
    # a zero price change reads the surface at its start budget like any other
    out = tmp_path / "welfare"
    code = main(["welfare", "--data", str(l0_draws), "--p0", "3", "--y", "40",
                 "--dp", "0", "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert not out.exists()


def test_rationality_data_budget_without_nearby_observations_exits_1(tmp_path, capsys,
                                                                      l0_draws):
    # the empirical support box needs households within 5% of the budget
    out = tmp_path / "run"
    assert main(["rationality", "--data", str(l0_draws), "--p-grid", "1", "--y-grid", "40",
                 "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError", "message": "no observations within 5% of budget (1, 40)"}
    assert not out.exists()


def test_zero_change_writes_unsigned_zeros(tmp_path):
    # on L0 the general path gives A1 = A4 = -0.0, which must be written 0.0
    out = tmp_path / "run"
    assert main(["welfare", "--population", "L0", "--dp", "0", "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        assert list(csv.reader(fh))[1] == ["0.0"] * 14
    report = json.load(open(out / "report.json"))["reports"][0]
    numbers = [report[k] for k in ("dp", "first_order", "ra", "robust", "path")]
    for part in ("bounds", "variance", "decomposition"):
        numbers += [v for v in report[part].values() if not isinstance(v, str)]
    numbers += report["moments"]
    assert len(numbers) == 17 and all(math.copysign(1.0, v) == 1.0 for v in numbers)
    assert report["bounds"] == {"lower": 0.0, "upper": 0.0, "kind": "worst-case"}


@pytest.mark.parametrize("extra", [[], ["--z", "0.3", "--k", "0.3"]])
def test_inverted_income_effect_bounds_exit_1(tmp_path, capsys, extra):
    out = tmp_path / "run"
    assert main(["welfare", "--population", "L0", "--dp", "0.05", "--b-lo", "0.6",
                 "--b-hi", "0.1", "--out", str(out)] + extra) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "lower income-effect bound exceeds upper bound"}
    assert not out.exists()


@pytest.fixture(scope="module")
def cd2_draws(tmp_path_factory):
    out = tmp_path_factory.mktemp("cd2_draws")
    assert main(["simulate", "--population", "CD2(0.3)", "--goods", "food,fuel",
                 "--n", "5000", "--seed", "3", "--out", str(out)]) == 0
    return out / "draws.csv"


def test_multigood_data_runs_price_every_good(tmp_path, monkeypatch, cd2_draws):
    # a budget carries one price per good, all at --p0, and only --good moves
    source = ["--data", str(cd2_draws), "--goods", "food,fuel", "--good", "fuel"]
    assert main(["welfare"] + source + ["--p0", "1", "--y", "2", "--dp", "0.05",
                                        "--out", str(tmp_path / "wel")]) == 0
    robust = json.load(open(tmp_path / "wel" / "report.json"))["reports"][0]["robust"]
    pc = PriceChange(Budget((1.0, 1.0), 2.0), Budget((1.0, 1.05), 2.0))
    exact = cobb_douglas_cv_mean(parse_population("CD2(0.3)"), pc)
    assert robust == pytest.approx(exact, rel=0.01)

    boxes = []
    monkeypatch.setattr("welfare_moments.rationality.lp_violation_search",
                        lambda surface, b, degree, box:
                        boxes.append(box) or lp_violation_search(surface, b, degree, box))
    assert main(["rationality"] + source + ["--p-grid", "1", "--y-grid", "2",
                                            "--out", str(tmp_path / "rat")]) == 0
    verdicts = json.load(open(tmp_path / "rat" / "verdicts.json"))
    assert [v["budget"] for v in verdicts] == [{"prices": [1.0, 1.0], "income": 2.0}]
    # the empirical box holds fuel's quantities near the budget, not food's
    ds, _ = ingest_csv(cd2_draws, ["food", "fuel"])
    near = (np.abs(ds.log_prices[:, 1]) <= np.log(1.05)) & (np.abs(ds.log_y - np.log(2.0))
                                                            <= np.log(1.05))
    q = ds.shares[near, 1] * np.exp(ds.log_y[near] - ds.log_prices[near, 1])
    assert [(box.q_min, box.q_max) for box in boxes] == [(q.min(), q.max())]


def test_simulate_requires_seed(tmp_path):
    assert main(["simulate", "--population", "L0", "--n", "10",
                 "--out", str(tmp_path)]) == 1


def write_dataset_rows(path, ds):
    """Reference writer: one csv.writer row of "%.17g" strings per household."""
    header = (["w_%s" % g for g in ds.goods]
              + ["log_p_%s" % g for g in ds.goods] + ["log_y", "log_z"])
    rows = []
    for i in range(ds.n):
        rows.append(["%.17g" % v for v in ds.shares[i]]
                    + ["%.17g" % v for v in ds.log_prices[i]]
                    + ["%.17g" % ds.log_y[i], "%.17g" % ds.log_z[i]])
    write_csv(path, header, rows)


def write_dataset_per_row(path, ds):
    """Reference writer: one % per row of the table, the rows joined."""
    header = (["w_%s" % g for g in ds.goods]
              + ["log_p_%s" % g for g in ds.goods] + ["log_y", "log_z"])
    table = np.column_stack([ds.shares, ds.log_prices, ds.log_y, ds.log_z])
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([line % tuple(row) for row in table.tolist()]))


@pytest.mark.parametrize("population", ["L0", "CD2(0.3)"])
def test_dataset_csv_matches_row_writer(tmp_path, population):
    ds = population_cross_section(parse_population(population), 2000, 11)
    _write_dataset_csv(tmp_path / "new.csv", ds)
    write_dataset_rows(tmp_path / "old.csv", ds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("population", ["L0", "CD2(0.3)"])
def test_dataset_csv_matches_per_row_format(tmp_path, population):
    # _write_dataset_csv formats each block of rows with one %; the values
    # include -0.0, subnormals and the largest float
    ds = population_cross_section(parse_population(population), 2000, 13)
    log_y = ds.log_y.copy()
    log_y[:5] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-17]
    ds = Dataset(ds.goods, ds.shares, ds.log_prices, log_y, ds.log_z)
    _write_dataset_csv(tmp_path / "new.csv", ds)
    write_dataset_per_row(tmp_path / "old.csv", ds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


BLOCK = cli.WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 2 * BLOCK + 7])
def test_dataset_csv_blocks_match_the_reference_writers(tmp_path, n):
    # the special values sit on both sides of each block boundary the
    # sample reaches, and at its first and last rows
    rng = np.random.default_rng(n)
    shares = rng.uniform(0.0, 0.5, (n, 2))
    log_prices = rng.normal(0.0, 0.3, (n, 2))
    log_y = rng.normal(1.0, 0.5, n)
    log_z = rng.normal(2.0, 1.0, n)
    special = [-0.0, 5e-324, 2.5e-320, -2.2250738585072014e-308, 1.7976931348623157e308]
    for start in {0, n - 1, *(b + d for b in range(BLOCK, n, BLOCK) for d in (-1, 0))}:
        shares[start] = [-0.0, 5e-324]
        log_prices[start] = [2.5e-320, -1.7976931348623157e308]
        log_y[start] = special[start % len(special)]
        log_z[start] = special[(start + 1) % len(special)]
    ds = Dataset(("food", "fuel"), shares, log_prices, log_y, log_z)
    _write_dataset_csv(tmp_path / "new.csv", ds)
    written = (tmp_path / "new.csv").read_bytes()
    write_dataset_rows(tmp_path / "rows.csv", ds)
    write_dataset_per_row(tmp_path / "per_row.csv", ds)
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written == (tmp_path / "per_row.csv").read_bytes()
    assert written.count(b"\r\n") == n + 1


def test_dataset_csv_write_holds_one_block(tmp_path):
    # the table's values and text are formatted a block at a time: at
    # n = 100k, one whole-table % traced about 28 MB
    rng = np.random.default_rng(3)
    n = 100000
    ds = Dataset(("q",), rng.uniform(0.0, 1.0, (n, 1)), rng.normal(0.0, 0.3, (n, 1)),
                 rng.normal(1.0, 0.5, n), rng.normal(2.0, 1.0, n))
    kept, above = traced(lambda: _write_dataset_csv(tmp_path / "draws.csv", ds))
    assert kept + above < 8e6


def readme_cli_lines():
    """The command lines of the README's CLI block, without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("welfare-moments ")]


@pytest.fixture(scope="module")
def readme_dir(tmp_path_factory):
    """A directory holding the draws of the README's simulate example."""
    out = tmp_path_factory.mktemp("readme")
    simulate = next(argv for argv in readme_cli_lines() if argv[0] == "simulate")
    assert main([str(out) if arg == "dir" else arg for arg in simulate]) == 0
    return out


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_example_runs(readme_dir, argv):
    # "dir" is the output directory and "dir/draws.csv" the simulated draws
    argv = [arg.replace("dir", str(readme_dir), 1) if arg.split("/")[0] == "dir" else arg
            for arg in argv]
    assert main(argv) == 0


def test_readme_flag_table_is_the_settings_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^  \| `([a-z-]+)` \| (.*) \|$", section, re.MULTILINE)
    table = {command: set(re.findall(r"`(--[a-z0-9-]+)`", cell)) for command, cell in rows}
    assert table == {command: {f.metadata["flag"] for f in cli.SETTINGS.values()
                               if command in f.metadata["commands"]} - {"--out", "--seed"}
                     for command in cli.COMMANDS}


def test_readme_library_quickstart_runs_and_prints_its_values():
    # the first python block; "name = ...  # 0.046528 (...)" gives a value to its digits
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    commented = re.findall(r"^(\w+) = .*# ([0-9]+\.([0-9]+)) ", block, re.MULTILINE)
    assert [value for _, value, _ in commented] == ["0.046528", "0.046250", "0.046444",
                                                    "0.046476"]
    for name, value, digits in commented:
        assert "%.*f" % (len(digits), namespace[name]) == value, name
