"""Per-layer spans recorded from outside the program.

Wrappers replace public functions at the module attribute each caller looks
up at call time (``blockdid.cli.confidence_set``, ``blockdid.vcov.estimate``,
``scipy.optimize.linprog``, ...).  No private ``blockdid`` name is touched and
nothing inside the package changes.  Spans live in memory, with parent ids,
until the traced iteration ends.
"""

import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Span store for one traced iteration (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, count=None):
        """``fn`` recorded as span ``name``; ``count(span, args, kwargs,
        result)`` may add counters once the call returns."""
        rec = self

        def wrapper(*args, **kwargs):
            span = Span(
                id=len(rec.spans),
                parent=rec._stack[-1] if rec._stack else -1,
                name=name,
                start=time.perf_counter(),
            )
            rec.spans.append(span)
            rec._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                count(span, args, kwargs, result)
            return result

        return wrapper

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, path):
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, own):
                fh.write(
                    json.dumps(
                        {
                            "id": s.id, "parent": s.parent, "name": s.name,
                            "start": s.start, "end": s.end, "self_s": self_s,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


# --- counters taken from arguments and results at the boundary -------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_load(span, args, kwargs, panel):
    span.counts["rows"] = len(panel.units) * panel.n_periods


def _count_estimate(span, args, kwargs, coeffs):
    span.counts["coeffs"] = len(coeffs.values)


def _count_bootstrap(span, args, kwargs, coeffs):
    span.counts["replicates"] = _arg(args, kwargs, 1, "spec").replications


def _count_build_w(span, args, kwargs, bias_map):
    span.counts["cells"] = len(bias_map.cells)


def _count_family(span, args, kwargs, family):
    span.counts["members"] = family.member_count
    span.counts["rows"] = sum(m.A.shape[0] for m in family.members)


def _count_plugin(span, args, kwargs, result):
    span.counts["members"] = _arg(args, kwargs, 1, "family").member_count


def _count_confidence(span, args, kwargs, cset):
    grid = cset.grid
    step = (grid.hi - grid.lo) / (grid.n - 1) if grid.n > 1 else 0.0
    accepted = 0
    for lo, hi in cset.intervals:
        accepted += int(round((hi - lo) / step)) + 1 if step else 1
    span.counts["grid_points"] = grid.n
    span.counts["accepted"] = accepted


def install(recorder):
    """Install every wrapper; returns a function that restores the originals."""
    import blockdid.biasmap
    import blockdid.cli
    import blockdid.inference
    import blockdid.vcov
    import scipy.optimize
    import scipy.stats

    plan = [
        (blockdid.cli, "run", "cli.run", None),
        (blockdid.cli, "load_panel", "panel.load", _count_load),
        (blockdid.cli, "build_layout", "panel.layout", None),
        (blockdid.cli, "build_cell_index", "panel.cells", None),
        (blockdid.cli, "estimate", "estimators.estimate", _count_estimate),
        (blockdid.cli, "aggregate", "estimators.aggregate", None),
        (blockdid.cli, "bootstrap_vcov", "vcov.bootstrap", _count_bootstrap),
        (blockdid.cli, "build_w_imputation", "biasmap.build", _count_build_w),
        (blockdid.cli, "build_w_csnyt", "biasmap.build", _count_build_w),
        (blockdid.cli, "invert", "biasmap.invert", None),
        (blockdid.cli, "rm_global", "restrictions.build", _count_family),
        (blockdid.cli, "rm_cohort", "restrictions.build", _count_family),
        (blockdid.cli, "sd", "restrictions.build", _count_family),
        (blockdid.cli, "map_to_delta_space", "restrictions.map", None),
        (blockdid.cli, "aggregated_system", "inference.aggregated_system", None),
        (blockdid.cli, "plugin_identified_set", "inference.plugin", _count_plugin),
        (blockdid.cli, "default_grid", "inference.grid", None),
        (blockdid.cli, "confidence_set", "inference.confidence", _count_confidence),
        (blockdid.cli, "corrected_point", "inference.corrected", None),
        (blockdid.cli, "write_coefficients_csv", "cli.write", None),
        (blockdid.cli, "write_vcov_csv", "cli.write", None),
        (blockdid.cli, "write_biasmap_csv", "cli.write", None),
        # set records go out through json.dump; nothing else in the traced
        # process calls it while an iteration runs
        (json, "dump", "cli.write", None),
        (blockdid.vcov, "estimate", "estimators.estimate", _count_estimate),
        (blockdid.biasmap, "invert", "biasmap.invert", None),
        (blockdid.inference, "plugin_identified_set", "inference.plugin", _count_plugin),
        (scipy.optimize, "linprog", "inference.linprog", None),
        (scipy.stats.truncnorm, "ppf", "inference.truncnorm_ppf", None),
    ]
    saved = []
    for owner, attr, name, count in plan:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        saved.append((owner, attr, had_own, original))
        setattr(owner, attr, recorder.wrap(original, name, count))

    def restore():
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:  # a bound method found on the class: drop the shadow
                delattr(owner, attr)

    return restore


# --- per-layer metrics -----------------------------------------------------

# (metric name, unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = (
    ("vcov.bootstrap_s", "s", "lower"),
    ("vcov.bootstrap_self_s", "s", "lower"),
    ("vcov.bootstrap_calls", "count", "lower"),
    ("vcov.replicates", "count", "lower"),
    ("estimators.estimate_s", "s", "lower"),
    ("estimators.estimate_calls", "count", "lower"),
    ("estimators.coeffs", "count", "lower"),
    ("biasmap.build_s", "s", "lower"),
    ("biasmap.invert_s", "s", "lower"),
    ("biasmap.invert_calls", "count", "lower"),
    ("biasmap.cells", "count", "lower"),
    ("panel.load_s", "s", "lower"),
    ("panel.load_calls", "count", "lower"),
    ("panel.rows", "count", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.run_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("restrictions.build_s", "s", "lower"),
    ("restrictions.map_s", "s", "lower"),
    ("restrictions.members", "count", "lower"),
    ("restrictions.rows", "count", "lower"),
    ("inference.confidence_s", "s", "lower"),
    ("inference.confidence_self_s", "s", "lower"),
    ("inference.truncnorm_ppf_calls", "count", "lower"),
    ("inference.truncnorm_ppf_s", "s", "lower"),
    ("inference.grid_points", "count", "lower"),
    ("inference.accept_share", "ratio", "higher"),
    ("inference.linprog_calls", "count", "lower"),
    ("inference.linprog_s", "s", "lower"),
    ("inference.plugin_s", "s", "lower"),
    ("inference.plugin_lps", "count", "lower"),
    ("inference.plugin_feasible_share", "ratio", "higher"),
    ("inference.grid_s", "s", "lower"),
    ("inference.corrected_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(recorder, bytes_written):
    """Per-layer totals for one traced iteration (without trace.overhead_s)."""
    spans = recorder.spans
    own = recorder.self_times()
    total = {}
    self_total = {}
    calls = {}
    counts = {}
    for s, self_s in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[(s.name, key)] = counts.get((s.name, key), 0) + value

    def under_plugin(span):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == "inference.plugin":
                return True
        return False

    plugin_lps = sum(
        1 for s in spans if s.name == "inference.linprog" and under_plugin(s)
    )
    plugin_members = counts.get(("inference.plugin", "members"), 0)
    grid_points = counts.get(("inference.confidence", "grid_points"), 0)
    coeffs = max(
        (s.counts["coeffs"] for s in spans if "coeffs" in s.counts), default=0
    )
    return {
        "vcov.bootstrap_s": total.get("vcov.bootstrap", 0.0),
        "vcov.bootstrap_self_s": self_total.get("vcov.bootstrap", 0.0),
        "vcov.bootstrap_calls": calls.get("vcov.bootstrap", 0),
        "vcov.replicates": counts.get(("vcov.bootstrap", "replicates"), 0),
        "estimators.estimate_s": total.get("estimators.estimate", 0.0),
        "estimators.estimate_calls": calls.get("estimators.estimate", 0),
        "estimators.coeffs": coeffs,
        "biasmap.build_s": total.get("biasmap.build", 0.0),
        "biasmap.invert_s": total.get("biasmap.invert", 0.0),
        "biasmap.invert_calls": calls.get("biasmap.invert", 0),
        "biasmap.cells": max(
            (s.counts["cells"] for s in spans if s.name == "biasmap.build"),
            default=0,
        ),
        "panel.load_s": total.get("panel.load", 0.0),
        "panel.load_calls": calls.get("panel.load", 0),
        "panel.rows": counts.get(("panel.load", "rows"), 0),
        "cli.write_s": total.get("cli.write", 0.0),
        "cli.bytes_written": bytes_written,
        "cli.run_s": total.get("cli.run", 0.0),
        "cli.self_s": self_total.get("cli.run", 0.0),
        "restrictions.build_s": total.get("restrictions.build", 0.0),
        "restrictions.map_s": total.get("restrictions.map", 0.0),
        "restrictions.members": counts.get(("restrictions.build", "members"), 0),
        "restrictions.rows": counts.get(("restrictions.build", "rows"), 0),
        "inference.confidence_s": total.get("inference.confidence", 0.0),
        "inference.confidence_self_s": self_total.get("inference.confidence", 0.0),
        "inference.truncnorm_ppf_calls": calls.get("inference.truncnorm_ppf", 0),
        "inference.truncnorm_ppf_s": total.get("inference.truncnorm_ppf", 0.0),
        "inference.grid_points": grid_points,
        "inference.accept_share": (
            counts.get(("inference.confidence", "accepted"), 0) / grid_points
            if grid_points
            else 0.0
        ),
        "inference.linprog_calls": calls.get("inference.linprog", 0),
        "inference.linprog_s": total.get("inference.linprog", 0.0),
        "inference.plugin_s": total.get("inference.plugin", 0.0),
        "inference.plugin_lps": plugin_lps,
        "inference.plugin_feasible_share": (
            (plugin_lps - plugin_members) / plugin_members if plugin_members else 0.0
        ),
        "inference.grid_s": total.get("inference.grid", 0.0),
        "inference.corrected_s": total.get("inference.corrected", 0.0),
    }


def spans_path(work_dir, iteration):
    return os.path.join(work_dir, f"spans-{iteration}.jsonl")
