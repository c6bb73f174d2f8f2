"""Stratified cluster bootstrap for the stacked coefficient covariance.

Units are resampled with replacement within their own cohorts (never-treated
included), keeping every cohort's size fixed, and each drawn unit carries its
full time series.  Both estimators are linear in the stratum-period means, so
each replicate is a resampled means matrix pushed through the same
coefficient operator as :func:`estimate`; the covariance of the stacked
draws estimates the joint sampling covariance of the original coefficients.
Point values always come from the original sample.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import (
    CoefficientSet,
    _coefficient_operator,
    _strata_means,
    _stratum_units,
    estimate,
)
from .panel import PanelData, build_cell_index, build_layout

__all__ = ["InvalidBootstrap", "BootstrapSpec", "bootstrap_vcov"]


class InvalidBootstrap(ValueError):
    code = "INVALID_BOOTSTRAP"


@dataclass(frozen=True)
class BootstrapSpec:
    """Replication count, seed, and estimator tag for one bootstrap run."""

    replications: int = 1000
    seed: int = 0
    estimator: str = "imputation"

    def __post_init__(self):
        if self.replications < 2:
            raise InvalidBootstrap("need at least 2 bootstrap replications")


def _strata(panel: PanelData):
    return _stratum_units(build_layout(panel))


def _resample_rows(groups, rng):
    """Within-stratum draws, concatenated in canonical stratum order."""
    rows = np.empty(sum(len(g) for g in groups), dtype=int)
    at = 0
    for g in groups:
        rows[at : at + len(g)] = g[rng.integers(0, len(g), size=len(g))]
        at += len(g)
    return rows


def _bootstrap_draws(panel: PanelData, spec: BootstrapSpec) -> np.ndarray:
    """Stacked coefficient draws, one row per replicate.

    Replicate b resamples rows from its own substream keyed by (seed, b)
    and is the coefficient operator applied to the resampled stratum means.
    """
    groups = _strata(panel)
    sizes = [len(g) for g in groups]
    means = np.empty((spec.replications, len(groups), panel.n_periods))
    for b in range(spec.replications):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(b, 0))
        )
        rows = _resample_rows(groups, rng)
        means[b] = _strata_means(panel.outcome[rows], sizes)
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, spec.estimator)
    E = _coefficient_operator(layout, cells)
    return means.reshape(spec.replications, -1) @ E.T


def bootstrap_vcov(panel: PanelData, spec: BootstrapSpec) -> CoefficientSet:
    """Point estimates from the original sample plus a bootstrap covariance.

    Replicate b draws from a dedicated random substream keyed by (seed, b),
    so its draw depends only on the seed and its index.
    """
    layout = build_layout(panel)
    singletons = [
        f"g{t}" for t, n in zip(layout.times, layout.sizes) if n < 2
    ]
    if layout.never_size < 2:
        singletons.append("never")
    if singletons:
        warnings.warn(
            "singleton cohort strata contribute zero variance: "
            + ", ".join(singletons),
            stacklevel=2,
        )

    point = estimate(panel, spec.estimator)
    stacked = _bootstrap_draws(panel, spec)
    centered = stacked - stacked.mean(axis=0, keepdims=True)
    vcov = centered.T @ centered / (spec.replications - 1)
    vcov = (vcov + vcov.T) / 2.0
    return CoefficientSet(
        estimator=point.estimator,
        cells=point.cells,
        positions=point.positions,
        values=point.values,
        vcov=vcov,
    )
