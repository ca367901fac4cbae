"""The reach check: every function of ``src/`` runs in a CLI command or is
named, with its reason, in ``reach.json``.

A census runs the ledger's command lines (``ledger/runs.json``, its
benchmark op aside), the further lines of ``LINES`` and the refusal lines of
``REFUSALS`` through the CLI in a fresh interpreter under ``sys.setprofile``.
The profile starts before the package is imported, so a function that runs
at import time counts as entered.  ``reach.json`` names each function that
the census does not enter ("module.qualname") with its reason: the
acceptance criterion whose test uses it ("criterion N"), the ROADMAP item
that decides it ("item N"), a reference that only the tests and the
benchmark's tracer call ("reference"), the benchmark's bootstrap op, a
library path with no CLI caller ("bench"), or a refusal that no census line
reaches ("refusal").  The check fails when a function is neither entered nor
named, and when a named function is entered, because its entry is then
stale.

    PYTHONPATH=src python tests/test_reach.py

prints the functions that the census never entered, one a line.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "welfare_moments"
REACH = json.loads((TESTS / "reach.json").read_text())
REASONS = ("reference", "bench", "refusal")

DRAWS = "simulate/draws.csv"  # the ledger's L0 draws
# command lines beyond the ledger's, run after it in the same directory
LINES = [
    ["rationality", "--data", DRAWS, "--goods", "q", "--degree", "1", "--p-grid=0.98",
     "--y-grid=4.0"],
    ["welfare", "--data", DRAWS, "--goods", "q", "--p0", "0.98", "--y", "4.0", "--dp=0.02",
     "--z", "0.2", "--k", "0.5"],
    ["welfare", "--population", "L0", "--dp=0.05", "--z", "0.2", "--k", "0.5"],
    ["welfare", "--population", "CD2(0.3)", "--dp=0.05"],
    ["oracle-check", "--population", "CD2(0.3)", "--dp=0.05"],
    ["oracle-check", "--population", "CD(0.4)", "--dp=0.05"],
    ["rationality", "--population", "Q0", "--degree", "2", "--p-grid=1", "--y-grid=2"],
    ["rationality", "--population", "L0", "--degree", "1", "--p-grid=1", "--y-grid=2"],
    ["simulate", "--population", "Q0", "--n", "200", "--seed", "1"],
    ["simulate", "--config", "config.json"],
]
# (exit code, command line) of each refused run
REFUSALS = [
    (1, ["welfare", "--population", "L0", "--b-lo", "-inf"]),
    (1, ["welfare", "--population", "L0", "--b-l", "-inf"]),
    (1, ["estimate", "--data", "bad.csv", "--goods", "q"]),
    (2, ["oracle-check", "--population", "L0", "--y", "0.1", "--dp=0.5"]),
    (2, ["welfare", "--data", DRAWS, "--goods", "q", "--p0", "5", "--y", "4.0"]),
]
# the files that the lines read, besides the ledger's draws
FILES = {"config.json": '{"population": "L0", "n": 100, "seed": 3}',
         "bad.csv": "w_q,log_p_q,log_y,log_z\r\n0.3,abc,1.2,1.1\r\n"}


def functions():
    """{(file, first line, name): "module.qualname"} of every ``def`` in
    ``src/``, nested ones and methods included."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    key = (const.co_filename, const.co_firstlineno, const.co_name)
                    found[key] = "%s.%s" % (module, qualname)
                    walk(const, module, qualname + ".<locals>.")
                else:
                    walk(const, module, qualname + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), os.path.realpath(path), "exec"), path.stem, "")
    return found


def census():
    """The names of the ``src/`` functions that the census lines enter, and
    the trace's wall time.  The first ledger line runs through ``cli.entry``,
    the program, and the others through ``cli.main``."""
    ledger = json.loads((TESTS / "ledger" / "runs.json").read_text())["runs"]
    runs = ([(0, run["argv"] + ["--out", run["name"]]) for run in ledger if "bench" not in run]
            + [(0, argv + ["--out", "line%d" % i]) for i, argv in enumerate(LINES)]
            + [(code, argv + ["--out", "refused%d" % i])
               for i, (code, argv) in enumerate(REFUSALS)])
    home, program, entered = os.getcwd(), sys.argv, set()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, text in FILES.items():
            Path(name).write_text(text)
        start = time.perf_counter()
        sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
        try:
            from welfare_moments import cli

            with contextlib.redirect_stderr(io.StringIO()) as err:
                sys.argv = ["welfare-moments"] + runs[0][1]
                codes = [cli.entry()] + [cli.main(argv) for _, argv in runs[1:]]
        finally:
            sys.setprofile(None)
            os.chdir(home)
            sys.argv = program
        wall = time.perf_counter() - start
    failed = [" ".join(argv) for (want, argv), got in zip(runs, codes) if got != want]
    if failed:
        raise SystemExit("census lines exited otherwise: %s\n%s" % (failed, err.getvalue()))
    names = functions()
    keys = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    return sorted(names[key] for key in keys & names.keys()), wall


def _census_in_a_fresh_interpreter():
    out = subprocess.run([sys.executable, __file__, "--json"], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    return json.loads(out.stdout)


def test_every_function_is_entered_or_named():
    entered, wall = _census_in_a_fresh_interpreter()
    every = set(functions().values())
    assert not set(REACH) - every, "reach.json names no such function: %s" % sorted(
        set(REACH) - every)
    unnamed = sorted(every - set(entered) - set(REACH))
    assert not unnamed, "neither entered by the census nor named in reach.json: %s" % unnamed
    stale = sorted(set(entered) & set(REACH))
    assert not stale, "entered by the census, yet named in reach.json: %s" % stale
    assert wall < 3.0


def test_each_reason_is_a_criterion_an_item_or_a_kind():
    for name, reason in REACH.items():
        kind, _, number = reason.partition(" ")
        assert reason in REASONS or (kind in ("criterion", "item") and number.isdigit()), name


if __name__ == "__main__":
    entered, wall = census()
    if sys.argv[1:] == ["--json"]:
        print(json.dumps([entered, wall]))
    else:
        for name in sorted(set(functions().values()) - set(entered)):
            print(name, REACH.get(name, "(not named)"))
        print("%d entered, trace %.2f s" % (len(entered), wall), file=sys.stderr)
