"""The output ledger: what a fixed set of small runs writes, kept as a test.

``ledger/runs.json`` lists the runs: command lines that run in-process
through ``cli.main``, and benchmark ops (``"bench"``) that run through
their module's ``main``.  The ledger directory of each run's name holds
every file the run wrote when the ledger was recorded.  The test re-runs
them in order in one working directory and compares every field of every
file: JSON as JSON and CSV cell by cell, each number at the one relative
bound of ``runs.json`` (draws and fits may move in their last bits across
numpy versions and BLAS builds), everything else exactly.

Before a change that moves outputs on purpose is recorded, list every
field that differs from the ledger, with its relative change, with

    PYTHONPATH=src python tests/test_ledger.py --diff

which writes nothing.  Rewrite the directories of the named runs (of every
run when none is named) with

    PYTHONPATH=src python tests/test_ledger.py [NAME ...]

and review the diff.  Every run runs, in order, so a named run reads the
outputs of the runs before it; only the named runs' directories change.
"""

import csv
import importlib.util
import json
import os
import shutil
import sys
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


def _compare(rel):
    """Run every entry in the working directory: the names of the runs whose
    file set differs from the ledger's, and (where, got, want) of each field
    of a file they share that differs by more than ``rel`` times its ledger
    value."""
    sets, moved = [], []
    for run in RUNS["runs"]:
        if _run(run) != 0:
            raise AssertionError("ledger run %s failed" % run["name"])
        out, kept = Path(run["name"]), LEDGER / run["name"]
        names = sorted(os.listdir(kept)) if kept.is_dir() else []
        if sorted(os.listdir(out)) != names:
            sets.append(run["name"])
        for name in names:
            if (out / name).is_file():
                moved += _moved(_read(out / name), _read(kept / name), rel,
                                "%s/%s" % (run["name"], name))
    return sets, moved


def test_outputs_match_the_ledger(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sets, moved = _compare(RUNS["rel"])
    assert not sets, "runs whose files differ from the ledger's: %s" % ", ".join(sets)
    assert not moved, "\n".join("%s: %r, ledger %r" % m for m in moved)


def _in_temporary_directory(work):
    """``work()`` in a fresh temporary working directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work_dir:
        os.chdir(work_dir)
        try:
            return work()
        finally:
            os.chdir(home)


def diff():
    """Print every field that differs from the ledger at all, with its
    relative change, and each run whose file set differs; write nothing."""
    sets, moved = _in_temporary_directory(lambda: _compare(0.0))
    for name in sets:
        print("%s: files differ from the ledger's" % name)
    for where, got, want in moved:
        change = ("%.3g" % ((got - want) / want) if type(got) is type(want) is float and want
                  else "n/a")
        print("%s: %r, ledger %r, relative change %s" % (where, got, want, change))
    print("%d runs with other files, %d fields differ" % (len(sets), len(moved)))


def record(names=()):
    """Run every entry and rewrite the directory of each named run (of every
    run when ``names`` is empty) with what it writes now."""
    unknown = set(names) - {run["name"] for run in RUNS["runs"]}
    if unknown:
        raise SystemExit("no ledger run named %s" % ", ".join(sorted(unknown)))

    def work():
        for run in RUNS["runs"]:
            if _run(run) != 0:
                raise SystemExit("ledger run %s failed" % run["name"])
            if not names or run["name"] in names:
                shutil.rmtree(LEDGER / run["name"], ignore_errors=True)
                shutil.copytree(run["name"], LEDGER / run["name"])

    _in_temporary_directory(work)


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        diff()
    else:
        record(sys.argv[1:])
