"""Benchmark of the welfare-moments CLI on seeded workloads.

    python3 bench/run.py --workload survey --seed 1 --seconds 38 --trace 0

Run from the repository root.  One closed-loop client runs each op of the
workload in order as a fresh process, the way users do: ``python -m
welfare_moments.cli ...`` for CLI commands and ``bench/bootstrap_op.py``
for the bootstrap, which has no CLI path yet.  Passes repeat until
``--seconds`` have been measured; every output is checked.

``--trace 0`` prints the end-to-end metrics (medians over passes).
Before each op the fixed reference process ``bench/calibrate.py`` runs;
``wall_norm_s`` is the median pass wall time divided by the run's mean
reference time (times a constant), which cancels the host's speed drift.
``--trace 1`` alternates untraced passes with passes whose ops run under
``bench/tracer.py`` and prints the per-layer metrics of the median traced
pass, in which the layer self times plus ``trace.unattributed_s`` add up
to ``trace.wall_s``.

The last stdout line is the result JSON; the lines before it record the
environment and every pass.  Child processes get the user's environment
minus the thread-count variables in ``REMOVED_VARS``, so the defaults users
get are what is measured; outputs go to a temporary directory under
``.bench_tmp/`` that is deleted at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import calibrate
import tracer
import workloads
from checks import Checker, load_strict

HERE = os.path.dirname(os.path.abspath(__file__))
REMOVED_VARS = ("WM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 120.0
REFERENCE = [sys.executable, os.path.join(HERE, "calibrate.py")]


class SetupError(RuntimeError):
    """The program cannot be found or imported from this checkout."""


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_VARS}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def launch(cmd, env, root, out=None):
    """Run one process to completion; return (exit code, seconds, max RSS in MB).

    The child is reaped by a blocking ``wait4``: a ``wait`` with a timeout
    polls with sleeps of up to 50 ms, which would quantize the times.
    Output goes to ``out``/stdout.txt and stderr.txt, or is discarded.
    """
    with contextlib.ExitStack() as stack:
        so = se = subprocess.DEVNULL
        if out is not None:
            so = stack.enter_context(open(os.path.join(out, "stdout.txt"), "wb"))
            se = stack.enter_context(open(os.path.join(out, "stderr.txt"), "wb"))
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=so, stderr=se,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def op_command(op, root, out, data, spans):
    args = op.argv(out, data)
    if spans is None:
        if op.kind == "bootstrap":
            return [sys.executable, os.path.join(HERE, "bootstrap_op.py")] + args
        return [sys.executable, "-m", "welfare_moments.cli"] + args
    kind = "bootstrap" if op.kind == "bootstrap" else "cli"
    return [sys.executable, os.path.join(HERE, "tracer.py"), spans, kind] + args


def run_pass(ops, root, env, tmp, checker, traced):
    """One pass over the workload's ops; returns the pass record."""
    pass_dir = tempfile.mkdtemp(dir=tmp)
    try:
        data = os.path.join(pass_dir, "op0", "draws.csv")
        results, summaries, reference_s = [], [], []
        for i, op in enumerate(ops):
            code, seconds, _ = launch(REFERENCE, env, root)
            if code != 0:
                raise SetupError("the reference process exited with %d" % code)
            reference_s.append(seconds)
            out = os.path.join(pass_dir, "op%d" % i)
            os.makedirs(out)
            spans = os.path.join(out, "spans.json") if traced else None
            results.append(launch(op_command(op, root, out, data, spans), env, root, out))
        failed = bootstrap_failed = 0
        for i, (op, (code, _, _)) in enumerate(zip(ops, results)):
            out = os.path.join(pass_dir, "op%d" % i)
            bad = checker.failed_rows(op, out, code)
            failed += bad
            if op.kind == "bootstrap":
                bootstrap_failed = bad
            if traced and os.path.exists(os.path.join(out, "spans.json")):
                summaries.append(load_strict(os.path.join(out, "spans.json")))
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    cmd_s = dict.fromkeys(workloads.COMMANDS, 0.0)
    for op, (_, seconds, _) in zip(ops, results):
        cmd_s[op.kind] += seconds
    record = {
        "traced": traced,
        "wall_s": sum(seconds for _, seconds, _ in results),
        "cmd_s": cmd_s,
        "peak_rss_mb": max(rss for _, _, rss in results),
        "attempted": sum(op.rows for op in ops),
        "failed": failed,
        "exit_codes": [code for code, _, _ in results],
        "reference_s": reference_s,
    }
    if traced:
        record["layers"] = tracer.layer_metrics(tracer.merge(summaries), bootstrap_failed)
    return record


def check_program(root, env):
    """Import the package once (this also fills the bytecode cache)."""
    init = os.path.join(root, "src", "welfare_moments", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError("no welfare_moments sources under %s" % os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", "import welfare_moments as w; print(w.__file__)"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    if proc.returncode != 0 or os.path.realpath(proc.stdout.strip()) != os.path.realpath(init):
        raise SetupError("cannot import welfare_moments from this checkout: %s"
                         % proc.stderr.strip()[-500:])


def setup_once(root, env, workload, seed, size):
    """A fresh interpreter importing the package, plus building the inputs."""
    start = time.perf_counter()
    code, _, _ = launch([sys.executable, "-c", "import welfare_moments"], env, root)
    workloads.build(workload, seed, size)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SetupError("importing welfare_moments exited with %d" % code)
    return elapsed


def environment(root):
    src = sorted(glob.glob(os.path.join(root, "src", "welfare_moments", "*.py")))
    digest = hashlib.sha256()
    for path in src:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "removed_env": {k: os.environ[k] for k in REMOVED_VARS if k in os.environ},
    }


def reference_times(passes):
    return [t for p in passes for t in p["reference_s"]]


def end_to_end(setup, passes):
    median = statistics.median
    return {
        "setup_s": median(setup),
        "wall_norm_s": calibrate.scaled(median([p["wall_s"] for p in passes]),
                                        reference_times(passes)),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "ok_frac": 1.0 - sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
    }


def per_layer(passes):
    median = statistics.median
    plain = [p for p in passes if not p["traced"]]
    traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
    rep = traced[(len(traced) - 1) // 2]
    metrics = dict(rep["layers"])
    for kind in workloads.COMMANDS:
        metrics["cmd.%s_s" % kind] = median([p["cmd_s"][kind] for p in plain])
    attributed = sum(metrics[b] for b in tracer.SELF_BUCKETS)
    metrics["host.wall_s"] = median([p["wall_s"] for p in plain])
    metrics["host.reference_s"] = statistics.mean(reference_times(passes))
    metrics["trace.wall_s"] = rep["wall_s"]
    metrics["trace.unattributed_s"] = rep["wall_s"] - attributed
    metrics["trace.overhead_frac"] = (median([p["wall_s"] for p in traced])
                                      / median([p["wall_s"] for p in plain]) - 1.0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    seed = args.seed % 2 ** 31
    root = os.getcwd()
    env = child_env(root)
    try:
        check_program(root, env)
    except (SetupError, subprocess.SubprocessError, OSError) as exc:
        print("benchmark setup failed: %s" % exc, file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(root, ".bench_tmp"))
    try:
        ops = workloads.build(args.workload, seed, args.size)
        checker = Checker()
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            # set-up samples are spread over the run, one before each pass
            if not args.trace:
                setup.append(setup_once(root, env, args.workload, seed, args.size))
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(ops, root, env, tmp, checker, traced))
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(passes) >= 2):
                break
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_once(root, env, args.workload, seed, args.size))
    except SetupError as exc:
        print("benchmark setup failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is using it

    metrics = per_layer(passes) if args.trace else end_to_end(setup, passes)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"env": environment(root)}))
    print(json.dumps({"passes": [
        {k: v for k, v in p.items() if k != "layers"} for p in passes]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
