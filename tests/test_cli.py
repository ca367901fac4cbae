import csv
import json
import math
import subprocess
import sys
import warnings

import pytest

from welfare_moments import Budget, MomentSurface, PriceChange, cli
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
from welfare_moments.synthetic import cobb_douglas_cross_section, population_cross_section

from conftest import cobb_douglas_cv_mean, constant_batch, loglog_slope


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


@pytest.mark.parametrize("argv, flag, value", [
    (["rationality", "--population", "L0", "--degree", "0"], "--degree", "0"),
    (["rationality", "--population", "L0", "--degree", "-2"], "--degree", "-2"),
    (["welfare", "--population", "L0", "--quad-nodes", "0"], "--quad-nodes", "0"),
    (["oracle-check", "--population", "L0", "--quad-nodes", "0"], "--quad-nodes", "0"),
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
    monkeypatch.setattr(cli, "surface_from_population", lambda pop, max_order: infinite)
    out = tmp_path / "welfare"
    assert main(["welfare", "--population", "L0", "--p0", "1", "--y", "2",
                 "--dp", "0.05", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "FloatingPointError",
                   "message": "non-finite value in reports[0].first_order"}
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


def test_zero_change_outside_sample_exits_2(tmp_path, capsys, l0_draws):
    # a zero price change reads the surface at its start budget like any other
    out = tmp_path / "welfare"
    code = main(["welfare", "--data", str(l0_draws), "--p0", "3", "--y", "40",
                 "--dp", "0", "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
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


@pytest.mark.parametrize("population", ["L0", "CD2(0.3)"])
def test_dataset_csv_matches_row_writer(tmp_path, population):
    pop = parse_population(population)
    if population == "L0":
        ds = population_cross_section(pop, 2000, 11, good="q")
    else:
        ds = cobb_douglas_cross_section(pop, 2000, 11, goods=("food", "fuel"))
    _write_dataset_csv(tmp_path / "new.csv", ds)
    write_dataset_rows(tmp_path / "old.csv", ds)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
