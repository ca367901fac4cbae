"""CSV ingest against the per-row DictReader ingest it replaced.

``ingest_rows`` is the old algorithm, kept as the independent oracle,
with two reporting fixes applied: line numbers are physical (blank lines
count) and every bad row is reported instead of stopping after 101.
"""

import csv
import json
import warnings

import numpy as np
import pytest

from welfare_moments.cli import RowDataError, SchemaError, ingest_csv, main
from welfare_moments.estimation import Dataset, DegenerateDataError


def ingest_rows(path, goods):
    """Reference ingest: returns (Dataset, warnings, []) or (None, None, errors)."""
    goods = tuple(goods)
    required = ["w_%s" % g for g in goods] + ["log_p_%s" % g for g in goods]
    required += ["log_y", "log_z"]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in required:
            if col not in header:
                raise SchemaError(col)
        notes = ["ignoring column %r" % c for c in header if c not in required]
        shares, log_p, log_y, log_z = [], [], [], []
        errors = []
        for row in reader:
            # DictReader.line_num is stale after skipped blank lines
            line_no = reader.reader.line_num
            try:
                w_row = [float(row["w_%s" % g]) for g in goods]
                p_row = [float(row["log_p_%s" % g]) for g in goods]
                ly = float(row["log_y"])
                lz = float(row["log_z"])
            except (TypeError, ValueError):
                errors.append((line_no, "unparseable numeric cell"))
            else:
                if not all(np.isfinite(v) for v in w_row + p_row + [ly, lz]):
                    errors.append((line_no, "non-finite value"))
                elif any(w < 0.0 or w > 1.0 for w in w_row):
                    errors.append((line_no, "share outside [0, 1]"))
                elif sum(w_row) > 1.0 + 1e-9:
                    errors.append((line_no, "modeled shares exceed total budget"))
                else:
                    shares.append(w_row)
                    log_p.append(p_row)
                    log_y.append(ly)
                    log_z.append(lz)
        if errors:
            return None, None, errors
    ds = Dataset(goods=goods, shares=np.array(shares, dtype=float),
                 log_prices=np.array(log_p, dtype=float),
                 log_y=np.array(log_y, dtype=float), log_z=np.array(log_z, dtype=float))
    return ds, notes, []


def _rows(n, seed, goods=1):
    """n good rows as "%.17g" text: shares, log prices, log y, log z."""
    rng = np.random.default_rng(seed)
    shares = rng.uniform(0.05, 0.9 / goods, (n, goods))
    rest = rng.normal(0.0, 1.0, (n, goods + 2))
    return [["%.17g" % v for v in row] for row in np.column_stack([shares, rest])]


def _text(lines):
    return "".join(line + "\r\n" for line in lines)


def _join(rows):
    return [",".join(row) for row in rows]


HEADER = "w_q,log_p_q,log_y,log_z"
GOOD = _join(_rows(30, 1))


def _many_bad():
    lines = [HEADER]
    for i, row in enumerate(_join(_rows(700, 2))):
        lines.append(row if i % 7 == 6 else "0.3,0.1,x,1")
    return _text(lines)


FIXTURES = {
    "clean": (["q"], _text([HEADER] + GOOD)),
    "clean_lf_no_final_newline": (["q"], "\n".join([HEADER] + GOOD)),
    "two_goods_extra_and_duplicate_columns": (
        ["food", "fuel"],
        _text(["region,w_food,w_fuel,log_p_food,log_p_fuel,log_y,log_z,log_y"]
              + ["north," + ",".join(row) + ",0.5" for row in _rows(20, 3, goods=2)])),
    "blank_lines": (["q"], _text([HEADER, "", GOOD[0], "", "", GOOD[1], GOOD[2], ""])),
    "blank_lines_between_bad_rows": (["q"], _text([HEADER, GOOD[0], "", "0.3,abc,1.2,1.1",
                                                   "", "", "0.3,nan,1.2,1.1", GOOD[1]])),
    "shares_on_the_bounds": (["q"], _text([HEADER, "1,0.1,1.2,1.1", "0,0.1,1.2,1.1",
                                           "-0,0.1,1.2,1.1", GOOD[0]])),
    "quoted_cells": (["q"], _text([HEADER] + ['"%s",%s,"%s",%s' % tuple(r.split(","))
                                               for r in GOOD[:5]])),
    "extra_trailing_field": (["q"], _text([HEADER, GOOD[0], GOOD[1] + ",7", GOOD[2]])),
    "short_row": (["q"], _text([HEADER, GOOD[0], "0.3,0.1,1.2", GOOD[1]])),
    "unparseable_cell": (["q"], _text([HEADER, GOOD[0], "0.3,abc,1.2,1.1", GOOD[1]])),
    "empty_cell": (["q"], _text([HEADER, "0.3,,1.2,1.1", GOOD[1]])),
    "non_finite_cells": (["q"], _text([HEADER, GOOD[0], "nan,0.1,1.2,1.1",
                                       "0.3,inf,1.2,1.1", "0.3,0.1,-Infinity,1.1", GOOD[1]])),
    "share_out_of_range": (["q"], _text([HEADER, "1.5,0.1,1.2,1.1", GOOD[0],
                                         "-0.1,0.1,1.2,1.1"])),
    "shares_sum_above_one": (["food", "fuel"], _text(
        ["w_food,w_fuel,log_p_food,log_p_fuel,log_y,log_z",
         "0.6,0.5,0,0,1,1", "0.5,0.5,0,0,1,1", "0.5,0.5000000001,0,0,1,1",
         "0.5,0.500000002,0,0,1,1"])),
    "more_than_100_bad_rows": (["q"], _many_bad()),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_ingest_matches_row_reference(tmp_path, name):
    goods, text = FIXTURES[name]
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    ref, ref_notes, ref_errors = ingest_rows(path, goods)
    if ref_errors:
        with pytest.raises(RowDataError) as err:
            ingest_csv(path, goods)
        assert err.value.errors == ref_errors[:100]
        assert err.value.count == len(ref_errors)
        return
    ds, notes = ingest_csv(path, goods)
    assert notes == ref_notes
    for field in ("shares", "log_prices", "log_y", "log_z"):
        got, want = getattr(ds, field), getattr(ref, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_ingest_keeps_one_table(tmp_path):
    # the dataset's four arrays are read-only views of loadtxt's one table
    goods, text = FIXTURES["two_goods_extra_and_duplicate_columns"]
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    ds, _ = ingest_csv(path, goods)
    arrays = [ds.shares, ds.log_prices, ds.log_y, ds.log_z]
    table = ds.shares.base
    assert all(np.shares_memory(a, table) for a in arrays)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_row_errors_name_physical_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(_text([HEADER, GOOD[0], "", GOOD[1], "1.5,0.1,1.2,1.1"]), newline="")
    with pytest.raises(RowDataError) as err:
        ingest_csv(path, ["q"])
    assert err.value.errors == [(5, "share outside [0, 1]")]


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark of Excel's "CSV UTF-8" export


def test_byte_order_mark_is_skipped(tmp_path):
    assert main(["simulate", "--population", "CD2(0.3)", "--goods", "food,fuel", "--n", "200",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    plain, marked = tmp_path / "draws.csv", tmp_path / "marked.csv"
    marked.write_bytes(BOM + plain.read_bytes())
    want, want_notes = ingest_csv(plain, ["food", "fuel"])
    got, notes = ingest_csv(marked, ["food", "fuel"])
    assert notes == want_notes == []
    for field in ("shares", "log_prices", "log_y", "log_z"):
        assert getattr(got, field).shape == getattr(want, field).shape
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_bad_rows_after_a_byte_order_mark_name_physical_lines(tmp_path):
    # the diagnostic rescan rereads the file from its start, mark included
    path = tmp_path / "data.csv"
    text = _text([HEADER, GOOD[0], "", GOOD[1], "1.5,0.1,1.2,1.1", "0.3,abc,1.2,1.1"])
    path.write_bytes(BOM + text.encode())
    with pytest.raises(RowDataError) as err:
        ingest_csv(path, ["q"])
    assert err.value.errors == [(5, "share outside [0, 1]"), (6, "unparseable numeric cell")]


def test_row_error_count_is_the_total(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(_text([HEADER] + ["0.3,0.1,x,1"] * 500), newline="")
    with pytest.raises(RowDataError) as err:
        ingest_csv(path, ["q"])
    assert len(err.value.errors) == 100
    assert err.value.errors[-1] == (101, "unparseable numeric cell")
    assert str(err.value).startswith("500 malformed data rows")


@pytest.mark.parametrize("cell", ["1_000", "١"])
def test_cells_loadtxt_refuses_are_row_errors(tmp_path, cell):
    # float() reads digit-group underscores and non-ASCII digits; loadtxt does not
    path = tmp_path / "data.csv"
    path.write_text(_text([HEADER, GOOD[0], "0.3,0.1,%s,1" % cell]), encoding="utf-8",
                    newline="")
    with pytest.raises(RowDataError) as err:
        ingest_csv(path, ["q"])
    assert err.value.errors == [(3, "unparseable numeric cell")]


def test_a_loadtxt_refusal_the_scan_cannot_place_exits_1(tmp_path, capsys, monkeypatch):
    # no row is known that loadtxt refuses and the diagnostic scan reads; if
    # one turns up, the run exits 1 with loadtxt's own message, not a traceback
    def refuse(*args, **kw):
        raise ValueError("could not convert string 'x' to float64 at row 0, column 3.")

    path = tmp_path / "data.csv"
    path.write_text(_text([HEADER] + GOOD), newline="")
    monkeypatch.setattr(np, "loadtxt", refuse)
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--goods", "q", "--out", str(out)]) == 1
    message = "%s: could not convert string 'x' to float64 at row 0, column 3." % path
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("text", [HEADER + "\r\n", HEADER, HEADER + "\r\n\r\n\r\n"])
def test_header_only_csv_is_degenerate(tmp_path, capsys, text):
    path = tmp_path / "data.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateDataError, match="no data rows in"):
            ingest_csv(path, ["q"])
        assert main(["estimate", "--data", str(path), "--goods", "q",
                     "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "DegenerateDataError", "message": "no data rows in %s" % path}


LONG = "1" * 200000  # a cell over csv.field_size_limit() (131072 characters)


@pytest.mark.parametrize("lines, line", [
    ([HEADER + ",x" + LONG, GOOD[0] + ",0"], 1),
    ([HEADER, GOOD[0], "0.3,0.1,%s,1" % LONG, GOOD[1]], 3),
])
def test_over_limit_cell_exits_1_naming_the_line(tmp_path, capsys, lines, line):
    path = tmp_path / "data.csv"
    path.write_text(_text(lines), newline="")
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--goods", "q", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "%s: line %d: field larger than field "
                   "limit (131072)" % (path, line)}
    assert not out.exists()
