"""The output ledger: what a fixed set of small runs writes, kept as a test.

``ledger/runs.json`` lists the runs: command lines that run in-process
through ``cli.main``, and benchmark ops (``"bench"``) that run through
their module's ``main``.  The ledger directory of each run's name holds
every file the run wrote when the ledger was recorded.  The test re-runs
them in order in one working directory and compares every field of every
file: JSON as JSON and CSV cell by cell, each number at the one relative
bound of ``runs.json`` (draws and fits may move in their last bits across
numpy versions and BLAS builds), everything else exactly.

After a change that moves outputs on purpose, rewrite the ledger with

    PYTHONPATH=src python tests/test_ledger.py

and review its diff.
"""

import csv
import importlib.util
import json
import os
import shutil
import tempfile
from pathlib import Path

from welfare_moments.cli import main

LEDGER = Path(__file__).resolve().parent / "ledger"
BENCH = LEDGER.parents[1] / "bench"
RUNS = json.loads((LEDGER / "runs.json").read_text())


def _run(run):
    """Run one ledger entry in the working directory, writing into the
    directory of its name; returns its exit code."""
    argv = run["argv"] + ["--out", run["name"]]
    if "bench" not in run:
        return main(argv)
    os.makedirs(run["name"], exist_ok=True)  # a benchmark op writes into an existing one
    path = BENCH / (run["bench"] + ".py")
    spec = importlib.util.spec_from_file_location("ledger_" + run["bench"], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _read(path):
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    return json.loads(path.read_text())


def _moved(got, want, rel, where):
    """(where, got, want) of each field of ``got`` that differs from ``want``."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for key in want for m in _moved(got[key], want[key], rel, where + "." + key)]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, pair in enumerate(zip(got, want))
                for m in _moved(*pair, rel, "%s[%d]" % (where, i))]
    if type(got) is float and type(want) is float:
        return [] if abs(got - want) <= rel * abs(want) else [(where, got, want)]
    return [] if type(got) is type(want) and got == want else [(where, got, want)]


def test_outputs_match_the_ledger(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    moved = []
    for run in RUNS["runs"]:
        assert _run(run) == 0, run["name"]
        out, kept = tmp_path / run["name"], LEDGER / run["name"]
        assert sorted(os.listdir(out)) == sorted(os.listdir(kept)), run["name"]
        for name in sorted(os.listdir(kept)):
            moved += _moved(_read(out / name), _read(kept / name), RUNS["rel"],
                            "%s/%s" % (run["name"], name))
    assert not moved, "\n".join("%s: %r, ledger %r" % m for m in moved)


def record():
    """Rewrite the directory of every run with what the run writes now."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for run in RUNS["runs"]:
                if _run(run) != 0:
                    raise SystemExit("ledger run %s failed" % run["name"])
                shutil.rmtree(LEDGER / run["name"], ignore_errors=True)
                shutil.copytree(run["name"], LEDGER / run["name"])
        finally:
            os.chdir(home)


if __name__ == "__main__":
    record()
