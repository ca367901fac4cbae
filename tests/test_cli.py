import csv
import json
import subprocess
import sys

import pytest

from welfare_moments import Budget, PriceChange
from welfare_moments.cli import (
    RowDataError,
    RunConfig,
    SchemaError,
    ingest_csv,
    main,
    parse_population,
    run,
)

from conftest import loglog_slope


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


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"population": "L0", "dp": [0.2], "y": 2.0}))
    out = tmp_path / "run"
    assert main(["welfare", "--config", str(cfg_path), "--dp", "0.1",
                 "--out", str(out)]) == 0
    report = json.load(open(out / "report.json"))["reports"][0]
    assert report["dp"] == pytest.approx(0.1)


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
        assert abs(row["exact"] - pop.exact_cv_mean(pc)) <= 1e-9


def test_non_finite_result_exits_2_without_output(tmp_path, capsys):
    data = tmp_path / "draws.csv"
    assert main(["simulate", "--population", "L0", "--n", "20000", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "welfare"
    assert main(["welfare", "--data", str(data), "--goods", "q", "--p0", "1",
                 "--y", "4000", "--dp", "0.05", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "FloatingPointError",
                   "message": "non-finite value in reports[0].first_order"}
    assert list(out.iterdir()) == []


def test_simulate_requires_seed(tmp_path):
    assert main(["simulate", "--population", "L0", "--n", "10",
                 "--out", str(tmp_path)]) == 1
