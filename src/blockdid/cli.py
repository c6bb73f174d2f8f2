"""Command-line pipelines from a panel CSV to sets and plot data.

Subcommands: ``validate``, ``estimate``, ``vcov``, ``biasmap``, ``sets``,
``byperiod``, ``simulate``, ``compare``.  Set results are JSON, tabular and
plot data are CSV, and every output embeds the config hash and library
version.  Failures exit nonzero after printing a machine-readable error
record ``{"error": {"code": ..., "message": ...}}``.

``sets``, ``compare`` and ``byperiod`` share one set pipeline: ``_systems``
yields each framework's system from one bootstrap, ``_set_records`` turns
one into set records, and ``byperiod`` runs it once per post period.
"""

import argparse
import hashlib
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import __version__
from .biasmap import build_w_csnyt, build_w_imputation, invert, write_biasmap_csv
from .estimators import aggregate, estimate, write_coefficients_csv, write_vcov_csv
from .inference import (
    GridSpec,
    InvalidGrid,
    InvalidTarget,
    _check_draws,
    _corrected_weights,
    _first_stage_level,
    _linear_se,
    _padded_grid,
    aggregated_att_target,
    aggregated_system,
    by_period_target,
    confidence_set,
    corrected_point,
    default_grid,  # not called here; perfbench/spans.py wraps this name
    overall_att_target,
    plugin_identified_set,
)
from .panel import ESTIMATORS, build_cell_index, build_layout, load_panel
from .restrictions import (
    FAMILY_KINDS, UnknownFamily, map_to_delta_space, rm_cohort, rm_global, sd
)
from .simgen import gen_example1, gen_example2, gen_toy
from .vcov import BootstrapSpec, InvalidSeed, _check_seed, bootstrap_vcov

__all__ = [
    "RunConfig",
    "UnsupportedOption",
    "InvalidParam",
    "InvalidSizes",
    "InvalidNoiseVariance",
    "InvalidSeed",
    "run",
    "main",
]

FRAMEWORKS = ("cohort", "aggregated", "both")


class UnsupportedOption(ValueError):
    """A configuration this version cannot honour, rejected before any work."""

    code = "UNSUPPORTED_OPTION"


class InvalidParam(ValueError):
    code = "INVALID_PARAM"


class InvalidSizes(ValueError):
    code = "INVALID_SIZES"


class InvalidNoiseVariance(ValueError):
    code = "INVALID_NOISE_VARIANCE"


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    input: str = None
    out: str = None
    estimator: str = "imputation"
    family: str = "rm-cohort"
    params: tuple = (0.0,)
    alpha: float = 0.05
    bootstrap: int = 1000
    seed: int = 0
    grid: tuple = None  # (lo, hi, n)
    framework: str = "cohort"
    target: str = "att"
    workers: int = 1  # only 1 is supported
    example: str = None
    sizes: tuple = (4, 4, 4)
    noise_variance: float = None  # None: 2.0, or noise sd 1.0 for the toy
    inverse: bool = False
    kappa: float = None
    draws: int = 10_000

    def hash(self):
        payload = asdict(self)
        payload.pop("out", None)  # the destination does not shape the results
        payload["noise_variance"] = _noise_variance(self)  # as the run uses it
        if self.input:  # one file, however its path is spelled
            payload["input"] = os.path.realpath(self.input)
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _noise_variance(config):
    """The noise variance ``simulate`` uses: the given one, else the
    example's default (2.0, or 1.0 for the toy)."""
    if config.noise_variance is not None:
        return config.noise_variance
    return 1.0 if config.example == "toy" else 2.0


def _parse_sweep(text):
    """``lo:hi:step`` inclusive sweep, or a single value; the values and the
    step must be finite, the values nonnegative and ascending and their count
    finite.  No value exceeds ``hi``, and the last one of two or more is
    ``hi`` itself when ``step`` divides ``hi - lo`` up to rounding; a sweep of
    one value is ``lo`` (0.0 for -0)."""
    try:
        values = [float(x) for x in text.split(":")]
        lo, hi, step = values if ":" in text else (values[0], values[0], 1.0)
        ok = 0 <= lo <= hi < float("inf") and 0 < step < float("inf")
        ok = ok and (hi - lo) / step < float("inf")
    except ValueError:
        ok = False
    if not ok:
        raise InvalidParam(
            f"--param takes a value or lo:hi:step, finite, >= 0 and ascending; "
            f"got {text!r}"
        )
    values = [lo + i * step for i in range(int((hi - lo) / step + 1e-9) + 1)]
    if len(values) > 1 and values[-1] >= hi - 1e-9 * step:  # the last value is hi
        values[-1] = hi
    return tuple(values)


def _parse_grid(text):
    try:
        lo, hi, n = text.split(":")
        return (float(lo), float(hi), int(n))
    except ValueError:
        raise InvalidGrid(f"--grid takes lo:hi:n, got {text!r}") from None


def _parse_sizes(text):
    """``--sizes`` as exactly three positive integers."""
    try:
        sizes = tuple(int(x) for x in text.split(","))
    except ValueError:
        sizes = ()
    return _check_sizes(sizes, text)


def _check_sizes(sizes, text=None):
    """Toy sizes as given, refused unless they are three positive integers;
    the message quotes ``text`` when they were parsed from it."""
    try:
        ok = len(sizes) == 3 and min(map(operator.index, sizes)) >= 1
    except TypeError:
        ok = False
    if not ok:
        shown = text if text is not None else sizes
        raise InvalidSizes(
            f"--sizes takes three positive integers N5,N7,Nnever; got {shown!r}"
        )
    return sizes


def _check_choice(flag, value, choices, error=UnsupportedOption):
    if value not in choices:
        raise error(f"{flag} takes one of {', '.join(choices)}; got {value!r}")


def _target_period(text):
    """None for the ``att`` target, s for ``period:<s>``."""
    kind, _, s = text.partition(":")
    if text != "att" and not (kind == "period" and s.removeprefix("-").isdigit()):
        raise InvalidTarget(f"--target takes att or period:<s>, got {text!r}")
    return None if text == "att" else int(s)


def _meta_line(config):
    return f"# config_hash={config.hash()} version={__version__}\n"


def _build_parser():
    p = argparse.ArgumentParser(
        prog="blockdid",
        description="cohort-anchored robust inference for staggered panels",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", required=True, help="panel CSV path")
        sp.add_argument("--out", help="output path")
        sp.add_argument("--estimator", choices=ESTIMATORS, default="imputation")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("validate", help="check a panel file")
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("estimate", help="coefficients CSV")
    common(sp)

    sp = sub.add_parser("vcov", help="bootstrap covariance CSV")
    common(sp)
    sp.add_argument("--bootstrap", type=int, default=1000)

    sp = sub.add_parser("biasmap", help="export the bias map as CSV")
    sp.add_argument("action", nargs="?", default="export", choices=["export"])
    common(sp)
    sp.add_argument("--inverse", action="store_true")

    for name in ("sets", "byperiod", "compare"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--family", choices=FAMILY_KINDS, default="rm-cohort")
        sp.add_argument("--param", default="0", help="value or lo:hi:step sweep")
        sp.add_argument("--alpha", type=float, default=0.05)
        sp.add_argument("--bootstrap", type=int, default=1000)
        sp.add_argument("--grid", help="lo:hi:n")
        sp.add_argument("--kappa", type=float)
        sp.add_argument("--draws", type=int, default=10_000)
        default = "cohort" if name != "compare" else "both"
        sp.add_argument("--framework", choices=FRAMEWORKS, default=default)
        sp.add_argument("--target", default="att", help="att or period:<s>")

    sp = sub.add_parser("simulate", help="write a simulated panel + truth sidecar")
    sp.add_argument("--example", choices=["1", "2", "toy"], required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--sizes", default="4,4,4", help="toy sizes N5,N7,Nnever")
    sp.add_argument(
        "--noise-variance", type=float, help="default 2.0 (1.0 for the toy)"
    )
    return p


def _config_from_args(args):
    """RunConfig of the fields the arguments carry, text flags parsed."""
    given = vars(args)
    kw = {f.name: given[f.name] for f in fields(RunConfig) if f.name in given}
    if given.get("param") is not None:
        kw["params"] = _parse_sweep(given["param"])
    if given.get("grid") is not None:
        kw["grid"] = _parse_grid(given["grid"])
    if given.get("sizes") is not None:
        kw["sizes"] = _parse_sizes(given["sizes"])
    return RunConfig(**kw)


def _w_builder(estimator):
    return build_w_imputation if estimator == "imputation" else build_w_csnyt


def _target(config, layout, cells, agg=None):
    s = _target_period(config.target)
    if s is not None:
        return by_period_target(layout, cells, s)
    if agg is None:
        return overall_att_target(layout, cells)
    return aggregated_att_target(agg, cells)


def _config_grid(config):
    """The ``--grid`` of the config as a GridSpec, or None for the default."""
    return None if config.grid is None else GridSpec(*config.grid)


def _bootstrap(config, panel):
    return bootstrap_vcov(
        panel, BootstrapSpec(config.bootstrap, config.seed, config.estimator)
    )


def _set_records(config, framework, layout, coeffs, bias_map, target, point=None):
    """One framework's set records, one per sensitivity parameter.  ``point``
    is the corrected point, computed here when not given."""
    build = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}[config.family]
    families = {
        p: map_to_delta_space(build(layout, coeffs.cells, p), bias_map)
        for p in config.params
    }
    if point is None:
        point = corrected_point(coeffs, config.family, bias_map, target)
    plugs = {
        p: plugin_identified_set(coeffs, fam, target) for p, fam in families.items()
    }
    grid = _config_grid(config)
    if grid is None:  # the widest parameter's plug-in set, padded
        grid = _padded_grid(coeffs, plugs[max(config.params)], target)
    records = []
    for p in config.params:
        t0 = time.perf_counter()
        fam, plug = families[p], plugs[p]
        cset = confidence_set(
            coeffs, fam, target, alpha=config.alpha, grid=grid,
            kappa=config.kappa, draws=config.draws, seed=config.seed,
        )
        records.append(
            {
                "framework": framework,
                "target": config.target,
                "family": config.family,
                "parameter": p,
                "alpha": config.alpha,
                "grid": {"lo": grid.lo, "hi": grid.hi, "n": grid.n},
                "intervals": [list(iv) for iv in cset.intervals],
                "plugin_bounds": [plug.lo, plug.hi],
                "corrected_point": point,
                "member_count": fam.member_count,
                "runtime_ms": round(1000 * (time.perf_counter() - t0), 3),
            }
        )
    return records


def _systems(config, panel):
    """(framework, layout, coefficients, bias map, aggregated series or None)
    of every requested framework, cohort first, all from one bootstrap."""
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, config.estimator)
    _target(config, layout, cells)  # a period the panel lacks fails here
    coeffs = _bootstrap(config, panel)
    if config.framework in ("cohort", "both"):
        bias_map = invert(_w_builder(config.estimator)(layout, cells))
        yield "cohort", layout, coeffs, bias_map, None
    if config.framework in ("aggregated", "both"):
        agg = aggregate(coeffs, layout)
        agg_layout, _, agg_coeffs, agg_map = aggregated_system(agg)
        yield "aggregated", agg_layout, agg_coeffs, agg_map, agg


def _records(config, panel):
    """Set records of every requested framework."""
    records = []
    for framework, layout, coeffs, bias_map, agg in _systems(config, panel):
        target = _target(config, layout, coeffs.cells, agg)
        records += _set_records(config, framework, layout, coeffs, bias_map, target)
    return records


def _by_period(config, panel):
    """The ``sets`` record of each post relative period s, with target
    ``period:<s>``, and the standard error of its corrected point; the point
    and its error come from one set of corrected weights."""
    ((framework, layout, coeffs, bias_map, _),) = _systems(config, panel)
    cells = coeffs.cells
    periods = {}
    for s in sorted(set(cells.rel[cells.post].tolist())):
        target = by_period_target(layout, cells, s)
        c_vec = _corrected_weights(
            cells, coeffs.positions, config.family, bias_map, target
        )
        point = float(c_vec @ coeffs.values)  # corrected_point's product
        (record,) = _set_records(
            config, framework, layout, coeffs, bias_map, target, point
        )
        periods[str(s)] = {
            "intervals": record["intervals"],
            "corrected_point": point,
            "corrected_se": _linear_se(c_vec, coeffs.vcov),
        }
    return {
        "framework": framework,
        "family": config.family,
        "parameter": config.params[0],
        "alpha": config.alpha,
        "periods": periods,
    }


def _write_json(path, payload, config):
    payload = {
        "config_hash": config.hash(),
        "version": __version__,
        **payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: RunConfig) -> int:
    if config.workers != 1:
        raise UnsupportedOption(
            f"workers={config.workers} is not supported: the pipeline runs "
            "in one process"
        )
    if config.command == "byperiod" and config.framework == "both":
        raise UnsupportedOption(
            "byperiod runs one framework at a time: choose cohort or aggregated"
        )
    if config.command == "byperiod" and config.target != "att":
        raise UnsupportedOption(
            "byperiod writes every post relative period: --target takes att only"
        )
    if config.command == "byperiod" and len(config.params) != 1:
        raise InvalidParam("byperiod takes a single --param value, not a sweep")
    # options that can be refused are refused before the panel loads
    if config.command not in ("validate", "simulate"):
        _check_choice("--estimator", config.estimator, ESTIMATORS)
    if config.command in ("sets", "byperiod", "compare"):
        _check_choice("--family", config.family, FAMILY_KINDS, UnknownFamily)
        _check_choice("--framework", config.framework, FRAMEWORKS)
        _first_stage_level(config.alpha, config.kappa)
        _check_draws(config.draws)
        _config_grid(config)
        _target_period(config.target)
    if config.command in ("vcov", "sets", "byperiod", "compare"):
        BootstrapSpec(config.bootstrap, config.seed, config.estimator)
    if config.command == "simulate":
        if not 0.0 <= _noise_variance(config) < float("inf"):
            raise InvalidNoiseVariance(
                "--noise-variance takes a finite, nonnegative value; "
                f"got {config.noise_variance!r}"
            )
        _check_sizes(config.sizes)
        _check_seed(config.seed)
    if config.command == "validate":
        load_panel(config.input)
        print("ok")
        return 0

    if config.command == "simulate":
        variance = _noise_variance(config)
        if config.example == "1":
            sim = gen_example1(config.seed, variance)
        elif config.example == "2":
            sim = gen_example2(config.seed, variance)
        else:
            sim = gen_toy(config.seed, config.sizes, noise_sd=math.sqrt(variance))
        panel = sim.panel
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(config))
            fh.write("unit,time,outcome,cohort\n")
            for i, unit in enumerate(panel.units):
                t_g = panel.adoption[i]
                label = "never" if t_g is None else str(panel.time_label(t_g))
                for t in range(1, panel.n_periods + 1):
                    fh.write(
                        f"{unit},{panel.time_label(t)},"
                        f"{float(panel.outcome[i, t - 1])!r},{label}\n"
                    )
        sidecar = {
            "true_att": sim.effect,
            "violations": [
                {"cohort": t, "kind": v.kind, "amplitude": v.amplitude}
                for (t, _), v in zip(
                    sim.spec.cohorts,
                    sim.spec.violations or [None] * len(sim.spec.cohorts),
                )
                if v is not None
            ],
            "seed": config.seed,
        }
        _write_json(config.out + ".json", sidecar, config)
        return 0

    panel = load_panel(config.input)

    if config.command == "estimate":
        coeffs = estimate(panel, config.estimator)
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(config))
            write_coefficients_csv(coeffs, fh, time_labels=panel.time_labels)
        return 0

    if config.command == "vcov":
        coeffs = _bootstrap(config, panel)
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(config))
            write_vcov_csv(coeffs, fh)
        return 0

    if config.command == "biasmap":
        layout = build_layout(panel)
        cells = build_cell_index(layout, panel.n_periods, config.estimator)
        bias_map = invert(_w_builder(config.estimator)(layout, cells))
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(config))
            write_biasmap_csv(bias_map, fh, inverse=config.inverse)
        return 0

    if config.command == "sets":
        _write_json(config.out, {"results": _records(config, panel)}, config)
        return 0

    if config.command == "byperiod":
        _write_json(config.out, _by_period(config, panel), config)
        return 0

    if config.command == "compare":
        records = _records(config, panel)
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(config))
            fh.write("parameter,framework,bound,lo,hi\n")
            for r in records:
                fh.write(
                    f"{r['parameter']},{r['framework']},plugin,"
                    f"{float(r['plugin_bounds'][0])!r},{float(r['plugin_bounds'][1])!r}\n"
                )
                ivs = r["intervals"]
                lo = repr(float(ivs[0][0])) if ivs else ""
                hi = repr(float(ivs[-1][1])) if ivs else ""
                fh.write(
                    f"{r['parameter']},{r['framework']},confidence,{lo},{hi}\n"
                )
        return 0

    raise ValueError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except Exception as exc:  # surface stable error codes for scripting
        code = getattr(exc, "code", exc.__class__.__name__.upper())
        print(json.dumps({"error": {"code": code, "message": str(exc)}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
