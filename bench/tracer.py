"""Run one op under span tracing, and turn span dumps into per-layer metrics.

    python3 bench/tracer.py SPANS.json cli <welfare-moments arguments>
    python3 bench/tracer.py SPANS.json bootstrap <bootstrap_op.py arguments>

The program's sources are not edited: before the op starts, each traced
function is replaced by a wrapper in every ``welfare_moments`` namespace
that holds a reference to it (``cli`` imports many functions by name, and
``core`` calls ``numeric_partial`` by its global name), and the surface
classes' methods are replaced on the class.  Spans stay in memory; when
the op ends, the self time of each span (its duration minus the time its
child spans cover) is summed per layer bucket and written to SPANS.json
with call counts and work counters.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, self-time bucket).  "Class.method" wraps a method.
TARGETS = (
    ("welfare_moments.cli", "ingest_csv", "cli.ingest_s"),
    ("welfare_moments.cli", "run", "cli.run_self_s"),
    ("welfare_moments.synthetic", "population_cross_section", "synthetic.draw_s"),
    ("welfare_moments.estimation", "first_stage", "estimation.first_stage_s"),
    ("welfare_moments.estimation", "fit_moment_surface", "estimation.fit_s"),
    ("welfare_moments.estimation", "fitted_surface", "estimation.fit_s"),
    ("welfare_moments.estimation", "bootstrap", "estimation.bootstrap_self_s"),
    ("numpy.linalg", "lstsq", "estimation.lstsq_s"),
    ("welfare_moments.core", "MomentSurface.moment", "core.eval_s"),
    ("welfare_moments.core", "MomentSurface.d_price", "core.eval_s"),
    ("welfare_moments.core", "MomentSurface.d_income", "core.eval_s"),
    ("welfare_moments.core", "ShareMomentSurface.moment", "core.eval_s"),
    ("welfare_moments.core", "ShareMomentSurface.d_logp", "core.eval_s"),
    ("welfare_moments.core", "ShareMomentSurface.d_logy", "core.eval_s"),
    ("welfare_moments.core", "numeric_partial", "core.eval_s"),
    ("welfare_moments.welfare", "build_report", "welfare.self_s"),
    ("welfare_moments.welfare", "cv_moment_local", "welfare.self_s"),
    ("welfare_moments.welfare", "cv_first_order", "welfare.self_s"),
    ("welfare_moments.welfare", "cv_ra", "welfare.self_s"),
    ("welfare_moments.welfare", "cv_path", "welfare.self_s"),
    ("welfare_moments.welfare", "hn_bounds_path", "welfare.self_s"),
    ("welfare_moments.welfare", "chebyshev_bounds", "welfare.self_s"),
    ("welfare_moments.welfare", "cv_variance", "welfare.self_s"),
    ("welfare_moments.welfare", "cv_decompose", "welfare.self_s"),
    ("welfare_moments.welfare", "QuadratureRule.integrate", "welfare.self_s"),
    ("welfare_moments.oracle", "population_cv", "oracle.population_cv_s"),
    ("welfare_moments.rationality", "degree1_cone_test", "rationality.cone_s"),
    ("welfare_moments.rationality", "lp_violation_search", "rationality.lp_s"),
    ("welfare_moments.rationality", "simplex_max", "rationality.simplex_s"),
)

# The simulate command's own time in cli.run is writing draws.csv.
WRITE_SPAN = "cli.run:simulate"
SELF_BUCKETS = tuple(dict.fromkeys([b for _, _, b in TARGETS] + ["cli.write_s"]))


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # [label, start, end, parent index]
        self.stack = []
        self.counts = collections.Counter()
        self.bucket = {WRITE_SPAN: "cli.write_s"}

    def wrap(self, label, fn, after=None, label_of=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label_of(args) if label_of else label, clock(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_ingest(self, args, result):
        self.counts["ingest_rows"] += result[0].n
        self.counts["ingest_bytes"] += os.path.getsize(args[0])

    def _after_fit(self, args, result):
        self.counts["gn_iters"] += result.iters

    def _after_lstsq(self, args, result):
        self.counts["lstsq_bytes"] += sum(getattr(a, "nbytes", 0) for a in args[:2])

    def _counted_rk4(self, rk4):
        counts = self.counts

        def counted(drift, y0, steps):
            def counted_drift(t, y):
                counts["drift_evals"] += 1
                return drift(t, y)

            counts["type_nodes"] += len(y0)
            return rk4(counted_drift, y0, steps)

        return counted

    def install(self):
        """Replace every traced function in every namespace that refers to it."""
        hooks = {"ingest_csv": self._after_ingest,
                 "fit_moment_surface": self._after_fit,
                 "lstsq": self._after_lstsq}
        replacements = []
        for module_name, attr, bucket in TARGETS:
            module = importlib.import_module(module_name)
            label = "%s.%s" % (module_name.rsplit(".", 1)[-1], attr)
            self.bucket[label] = bucket
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(label, getattr(cls, meth)))
                continue
            label_of = None
            if label == "cli.run":
                label_of = lambda args: WRITE_SPAN if args[0] == "simulate" else "cli.run"
            orig = getattr(module, attr)
            replacements.append((orig, self.wrap(label, orig, hooks.get(attr), label_of)))
        oracle = importlib.import_module("welfare_moments.oracle")
        replacements.append((oracle._rk4_scalar_family,
                             self._counted_rk4(oracle._rk4_scalar_family)))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "welfare_moments" or n.startswith("welfare_moments.")]
        namespaces.append(importlib.import_module("numpy.linalg"))
        for orig, new in replacements:
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, new)

    def summary(self):
        """Self time per bucket, inclusive time and calls per label, counters."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SELF_BUCKETS, 0.0)
        total = collections.Counter()
        calls = collections.Counter()
        open_labels = []
        for i, (label, start, end, parent) in enumerate(self.spans):
            self_s[self.bucket[label]] += (end - start) - child[i]
            calls[label] += 1
            # inclusive time counts only the outermost span of each label
            while open_labels and open_labels[-1][1] <= start:
                open_labels.pop()
            if not any(lbl == label for lbl, _ in open_labels):
                total[label] += end - start
            open_labels.append((label, end))
        return {"self_s": self_s, "total_s": dict(total), "calls": dict(calls),
                "counts": dict(self.counts)}


def main(argv):
    spans_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if kind == "cli":
            from welfare_moments import cli
            code = cli.main(rest)
        else:
            import bootstrap_op
            code = bootstrap_op.main(rest)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


def merge(summaries):
    """Add up the summaries of the ops of one pass."""
    out = {"self_s": dict.fromkeys(SELF_BUCKETS, 0.0), "total_s": collections.Counter(),
           "calls": collections.Counter(), "counts": collections.Counter()}
    for s in summaries:
        for key, value in s["self_s"].items():
            out["self_s"][key] += value
        for part in ("total_s", "calls", "counts"):
            out[part].update(s[part])
    return out


CORE_MOMENTS = ("core.MomentSurface.moment", "core.ShareMomentSurface.moment")
CORE_PARTIALS = ("core.MomentSurface.d_price", "core.MomentSurface.d_income",
                 "core.ShareMomentSurface.d_logp", "core.ShareMomentSurface.d_logy")


def layer_metrics(merged, bootstrap_failed):
    """Per-layer metrics of one traced pass (self times are in SELF_BUCKETS)."""
    s, total, calls, counts = (merged["self_s"], merged["total_s"],
                               merged["calls"], merged["counts"])
    ingest_s = s["cli.ingest_s"]
    metrics = dict(s)
    metrics.update({
        "cli.ingest_rows": counts["ingest_rows"],
        "cli.ingest_mb_per_s": counts["ingest_bytes"] / 1e6 / ingest_s if ingest_s else 0.0,
        "estimation.fit_calls": calls["estimation.fit_moment_surface"],
        "estimation.gn_iters": counts["gn_iters"],
        "estimation.lstsq_calls": calls["linalg.lstsq"],
        "estimation.lstsq_mb": counts["lstsq_bytes"] / 1e6,
        "estimation.bootstrap_failed": bootstrap_failed,
        "core.moment_calls": sum(calls[k] for k in CORE_MOMENTS),
        "core.partial_calls": sum(calls[k] for k in CORE_PARTIALS),
        "core.fd_partials": calls["core.numeric_partial"],
        "welfare.build_report_s": total["welfare.build_report"],
        "welfare.build_report_calls": calls["welfare.build_report"],
        "welfare.integrate_calls": calls["welfare.QuadratureRule.integrate"],
        "oracle.population_cv_calls": calls["oracle.population_cv"],
        "oracle.drift_evals": counts["drift_evals"],
        "oracle.type_nodes": counts["type_nodes"],
        "rationality.verdicts": (calls["rationality.degree1_cone_test"]
                                 + calls["rationality.lp_violation_search"]),
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
