"""Workload definitions: a seeded panel design plus a chain of CLI commands.

Each workload is a panel shape that makes one part of the pipeline expensive;
``BENCHMARK.json`` says which.  The seed given on the command line seeds both
the panel's data-generating process and the CLI's own ``--seed`` (bootstrap
and Monte Carlo draws); the program itself only ever sees the generated CSV
and a ``RunConfig``.

``size="smoke"`` shrinks every design to a few seconds of work for the
benchmark's own tests.  It keeps the code paths: the vertex path on
``c12-sweep`` (12 members instead of 320), the LP fallback on ``sd-cliff``.
"""

import os
from dataclasses import dataclass

DEFAULT_SEEDS = {"c12-sweep": 12, "wide-export": 7, "sd-cliff": 5}


@dataclass(frozen=True)
class Command:
    """One CLI call: ``RunConfig`` fields other than input/out/seed."""

    out: str
    fields: dict

    def config_kwargs(self, panel_path, out_dir, seed):
        return {
            "input": panel_path,
            "out": os.path.join(out_dir, self.out),
            "seed": seed,
            **self.fields,
        }


def _cmd(out, **fields):
    return Command(out=out, fields=fields)


@dataclass(frozen=True)
class Workload:
    T: int
    cohorts: tuple  # (adoption time, size)
    never_size: int
    noise_sd: float
    violations: tuple  # (kind, amplitude) per cohort, or ()
    effect: float
    commands: tuple


def _c12(size):
    if size == "full":
        cohorts, never, boot, draws = ((4, 100), (6, 223), (7, 584)), 1377, 200, 10_000
        violations = (("linear", 0.03), ("linear", 0.02), ("linear", -0.015))
    else:
        cohorts, never, boot, draws = ((3, 12), (5, 15)), 40, 20, 300
        violations = (("linear", 0.03), ("linear", 0.02))
    return Workload(
        T=7,
        cohorts=cohorts,
        never_size=never,
        # criterion 12 uses noise_sd=0.4; at that level the pre-trend
        # estimates are noise-dominated and the hybrid test's work varies
        # 3.5x between seeds (5.5k to 23k truncnorm calls), so wall_s would
        # spread more across seeds than any usable bound
        noise_sd=0.1,
        violations=violations,
        effect=-0.05,
        commands=(
            _cmd(
                "sets.json", command="sets", estimator="imputation",
                family="rm-cohort", params=(0.0, 0.5, 1.0), alpha=0.05,
                bootstrap=boot, framework="cohort", draws=draws,
            ),
        ),
    )


def _wide(size):
    if size == "full":
        T, n_cohort, never, boot = 40, 20, 400, 100
    else:
        T, n_cohort, never, boot = 10, 4, 12, 10
    cohorts = tuple((t, n_cohort) for t in range(2, T + 1, 2))
    return Workload(
        T=T,
        cohorts=cohorts,
        never_size=never,
        noise_sd=1.0,
        violations=(),
        effect=0.5,
        commands=(
            _cmd("coeffs.csv", command="estimate", estimator="imputation"),
            _cmd(
                "vcov.csv", command="vcov", estimator="imputation",
                bootstrap=boot, workers=1,
            ),
            _cmd(
                "winv.csv", command="biasmap", estimator="imputation", inverse=True
            ),
        ),
    )


def _sd_cliff(size):
    if size == "full":
        n_cohort, never, boot, draws = 60, 200, 200, 10_000
    else:
        n_cohort, never, boot, draws = 10, 30, 20, 300
    return Workload(
        T=12,
        cohorts=tuple((t, n_cohort) for t in (5, 7, 9, 11)),
        never_size=never,
        noise_sd=1.0,
        violations=(),
        effect=1.0,
        commands=(
            _cmd(
                "sets.json", command="sets", estimator="csnyt", family="sd",
                params=(0.05,), alpha=0.05, bootstrap=boot, framework="both",
                grid=(-4.0, 6.0, 201), draws=draws,
            ),
        ),
    )


_BUILDERS = {"c12-sweep": _c12, "wide-export": _wide, "sd-cliff": _sd_cliff}
NAMES = tuple(_BUILDERS)
SIZES = ("full", "smoke")


def get(name, size="full"):
    if name not in _BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise KeyError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    return _BUILDERS[name](size)


def write_panel(workload, seed, path):
    """Generate the workload's panel with ``blockdid.simgen`` and write the
    CSV the CLI reads."""
    from blockdid.simgen import DGPSpec, Violation, gen_custom

    spec = DGPSpec(
        T=workload.T,
        cohorts=workload.cohorts,
        never_size=workload.never_size,
        noise_sd=workload.noise_sd,
        violations=tuple(Violation(k, a) for k, a in workload.violations),
        effect=workload.effect,
        seed=seed,
    )
    panel = gen_custom(spec).panel
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("unit,time,outcome,cohort\n")
        for i, unit in enumerate(panel.units):
            t_g = panel.adoption[i]
            label = "never" if t_g is None else str(t_g)
            for t in range(1, panel.n_periods + 1):
                fh.write(f"{unit},{t},{float(panel.outcome[i, t - 1])!r},{label}\n")
