"""Stratified cluster bootstrap for the stacked coefficient covariance.

Units are resampled with replacement within their own cohorts (never-treated
included), keeping every cohort's size fixed, and each drawn unit carries its
full time series.  Both estimators are linear in the stratum-period means, so
each replicate is a resampled means matrix pushed through the same
coefficient operator as :func:`estimate`; the covariance of the stacked
draws estimates the joint sampling covariance of the original coefficients.
Point values always come from the original sample.
"""

import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .estimators import (
    CoefficientSet,
    _linear_system,
    _strata_means,
    _stratum_units,
    _symmetrize,
    estimate,
)
from .panel import PanelData

__all__ = ["InvalidBootstrap", "InvalidSeed", "BootstrapSpec", "bootstrap_vcov"]

_BOOT_CHUNK_VALUES = 16_000  # a chunk's gather stays under malloc's mmap threshold


class InvalidBootstrap(ValueError):
    code = "INVALID_BOOTSTRAP"


class InvalidSeed(ValueError):
    code = "INVALID_SEED"


def _check_seed(seed):
    """Refuse, with a stable code and before any work, what ``SeedSequence``
    would refuse: a seed that is not a nonnegative integer.  A bool is
    refused too, though ``SeedSequence`` would take ``True`` as 1."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidSeed(
            "seed must be a nonnegative integer (--seed on the command line); "
            f"got {seed!r}"
        )


@dataclass(frozen=True)
class BootstrapSpec:
    """Replication count, seed, and estimator tag for one bootstrap run."""

    replications: int = 1000
    seed: int = 0
    estimator: str = "imputation"

    def __post_init__(self):
        if self.replications < 2:
            raise InvalidBootstrap("need at least 2 bootstrap replications")
        _check_seed(self.seed)


def _bootstrap_draws(panel: PanelData, spec: BootstrapSpec, system=None) -> np.ndarray:
    """Stacked coefficient draws, one row per replicate.

    Replicate b resamples rows from its own substream
    ``SeedSequence(entropy=seed, spawn_key=(b, 0))`` and is the coefficient
    operator applied to the resampled stratum means.  A run of consecutive
    equal-size strata takes one ``integers`` call, which yields the same draws
    and leaves the same generator state as one call per stratum.  The draws
    index the outcome rows sorted by stratum, gathered and summed in chunks
    of replicates (``_BOOT_CHUNK_VALUES`` values at most, or one replicate).
    ``system`` is the panel's ``_linear_system``, built here when not given.
    """
    layout, _, E = system or _linear_system(panel, spec.estimator)
    groups = _stratum_units(layout)
    sizes = np.array([len(g) for g in groups])
    edges = np.concatenate([[0], np.cumsum(sizes)])  # first row per stratum, end
    bounds = np.r_[0, np.flatnonzero(np.diff(sizes)) + 1, len(sizes)]
    runs = [(edges[a], edges[b], sizes[a]) for a, b in zip(bounds, bounds[1:])]
    offsets = np.repeat(edges[:-1], sizes)  # each row's stratum's first row
    outcome = panel.outcome[np.concatenate(groups)]
    chunk = max(1, _BOOT_CHUNK_VALUES // outcome.size)
    means = np.empty((spec.replications, len(groups), panel.n_periods))
    for lo in range(0, spec.replications, chunk):
        rows = np.empty((min(chunk, spec.replications - lo), len(outcome)), dtype=int)
        for b, drawn in enumerate(rows, lo):
            rng = Generator(PCG64(SeedSequence(entropy=spec.seed, spawn_key=(b, 0))))
            for start, stop, n in runs:
                drawn[start:stop] = rng.integers(0, n, size=stop - start)
        rows += offsets
        means[lo : lo + len(rows)] = _strata_means(
            outcome[rows].reshape(-1, panel.n_periods), np.tile(sizes, len(rows))
        ).reshape(len(rows), len(groups), -1)
    return means.reshape(spec.replications, -1) @ E.T


def bootstrap_vcov(panel: PanelData, spec: BootstrapSpec) -> CoefficientSet:
    """Point estimates from the original sample plus a bootstrap covariance.

    Replicate b draws from a dedicated random substream keyed by (seed, b),
    so its draw depends only on the seed and its index.  The point estimate
    and the draws share one layout, cell index and coefficient operator.
    The covariance is formed in one n x n array and symmetrized in place by
    :func:`~blockdid.estimators._symmetrize`, to the bits of the dense mean
    of the covariance and its transpose, without an n x n temporary.
    """
    system = _linear_system(panel, spec.estimator)
    layout = system[0]
    singletons = [f"g{t}" for t, n in zip(layout.times, layout.sizes) if n < 2]
    if layout.never_size < 2:
        singletons.append("never")
    if singletons:
        warnings.warn(
            "singleton cohort strata contribute zero variance: "
            + ", ".join(singletons),
            stacklevel=2,
        )

    point = estimate(panel, spec.estimator, system=system)
    stacked = _bootstrap_draws(panel, spec, system)
    del system  # the operator (5 MB at 800 cells) is not held through the covariance
    centered = stacked - stacked.mean(axis=0, keepdims=True)
    vcov = centered.T @ centered
    vcov /= spec.replications - 1
    _symmetrize(vcov)
    return CoefficientSet(
        estimator=point.estimator,
        cells=point.cells,
        positions=point.positions,
        values=point.values,
        vcov=vcov,
    )
