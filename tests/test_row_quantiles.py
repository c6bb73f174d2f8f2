"""Least-favourable quantiles from each row's upper tail against np.quantile.

``inference._row_quantiles(eta, q)`` must return ``np.quantile(eta, q,
axis=1)`` bit for bit: results are compared as ``view(np.uint64)``, not to a
tolerance.  The one allowed difference is the sign of a zero: when -0.0 and
+0.0 tie at the interpolated ranks, partitioning the kept tail instead of
the whole row may put the other zero there, and the two compare equal.
"""

import warnings

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.biasmap import build_w_imputation, invert
from blockdid.inference import (
    _block_moments,
    _critical_values,
    _first_stage_level,
    _reduced_rows,
    _row_quantiles,
    _target_basis,
    overall_att_target,
)
from blockdid.panel import build_layout
from blockdid.restrictions import map_to_delta_space, rm_cohort
from blockdid.vcov import BootstrapSpec, bootstrap_vcov

DRAW_COUNTS = (1, 2, 3, 5, 17, 300, 10_000)
HYBRID_Q = 1.0 - _first_stage_level(0.05, None)  # 1 - kappa at the defaults
LEVELS = (HYBRID_Q, 0.5, 1e-12, 1.0 - 1e-12, 0.0, 1.0) + tuple(
    np.random.default_rng(7).random(6).tolist()
)


def assert_bits(got, want, signed_zero_ties=False):
    same = got.view(np.uint64) == want.view(np.uint64)
    if signed_zero_ties:
        same |= (got == 0.0) & (want == 0.0)
    assert same.all(), (got[~same], want[~same])


def quantiles(eta, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # inf - inf in numpy's interpolation
        return _row_quantiles(eta, q), np.quantile(eta, q, axis=1)


def rows(rng, n):
    """Normals, ties, +-inf, all -inf, a NaN and a constant row."""
    eta = rng.standard_normal((8, n))
    eta[1] = np.round(eta[1] * 2.0) / 2.0 + 0.25  # ties, no zeros
    eta[2, rng.random(n) < 0.1] = np.inf
    eta[2, rng.random(n) < 0.1] = -np.inf
    eta[3, rng.random(n) < 0.2] = -np.inf
    eta[4] = -np.inf
    eta[5, rng.integers(n)] = np.nan
    eta[6] = 3.5
    eta[7] = np.sort(eta[7])  # the strided sample sees the sorted order
    return eta


def partitioned_shapes(monkeypatch):
    """The shapes of the arrays given to np.partition, appended as it runs."""
    shapes, partition = [], np.partition

    def spy(a, kth, **kwargs):
        shapes.append(a.shape)
        return partition(a, kth, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    return shapes


@pytest.mark.parametrize("n", DRAW_COUNTS)
@pytest.mark.parametrize("q", LEVELS)
def test_row_quantiles_match_np_quantile_bit_for_bit(n, q):
    got, want = quantiles(rows(np.random.default_rng(n), n), q)
    assert_bits(got, want)


@pytest.mark.parametrize("n", DRAW_COUNTS)
def test_nan_rows_give_nan(n):
    eta = np.random.default_rng(n).standard_normal((3, n))
    eta[0, -1] = eta[2, 0] = np.nan
    got, want = quantiles(eta, HYBRID_Q)
    assert np.isnan(got[[0, 2]]).all() and np.isfinite(got[1])
    assert_bits(got, want)


@pytest.mark.parametrize("n", DRAW_COUNTS)
@pytest.mark.parametrize("q", LEVELS)
def test_signed_zero_ties_differ_at_most_in_the_sign(n, q):
    rng = np.random.default_rng(n + 1)
    eta = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(4, n))
    got, want = quantiles(eta, q)
    assert_bits(got, want, signed_zero_ties=True)


def test_a_threshold_that_keeps_too_few_values_falls_back_to_the_whole_row(
    monkeypatch,
):
    """The strided sample holds the row's largest values, so its order
    statistic keeps fewer values than the tail needs."""
    n = 10_000
    eta = np.random.default_rng(3).standard_normal((2, n))
    eta[:, :: inference._QUANTILE_STRIDE] += 100.0
    sizes = partitioned_shapes(monkeypatch)
    got, want = quantiles(eta, HYBRID_Q)
    monkeypatch.undo()
    assert sizes.count((n,)) == 2  # both rows partitioned whole
    assert_bits(got, want)


def test_tail_selection_partitions_far_fewer_values_than_the_row(monkeypatch):
    n = 10_000
    eta = np.random.default_rng(4).standard_normal((4, n))
    sizes = partitioned_shapes(monkeypatch)
    got, want = quantiles(eta, HYBRID_Q)
    monkeypatch.undo()
    tails = [s[0] for s in sizes if len(s) == 1]
    assert len(tails) == 4 and max(tails) < n // 10
    assert_bits(got, want)


def test_critical_values_never_call_np_quantile(toy_panel, monkeypatch):
    layout = build_layout(toy_panel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton strata
        coeffs = bootstrap_vcov(toy_panel, BootstrapSpec(50, 1, "imputation"))
    bias_map = invert(build_w_imputation(layout, coeffs.cells))
    family = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.5), bias_map)
    basis = _target_basis(coeffs, overall_att_target(layout, coeffs.cells))
    rows = _reduced_rows(
        *family.member_rows(family.distinct[:16]), coeffs.cells, coeffs.positions
    )
    (block,) = _block_moments(coeffs, *rows, basis, {})

    def refuse(*args, **kwargs):
        raise AssertionError("the Monte Carlo stage called np.quantile")

    seen = []

    def spy(eta, q):
        out = _row_quantiles(eta, q)
        seen.append((eta.copy(), q, out))
        return out

    monkeypatch.setattr(np, "quantile", refuse)
    monkeypatch.setattr(np, "percentile", refuse)
    monkeypatch.setattr(inference, "_row_quantiles", spy)
    lf_cv = _critical_values(block, 1.0 - HYBRID_Q, 10_000, seed=9)
    monkeypatch.undo()
    assert len(seen) == 1 and len(lf_cv) == 16
    ((eta, q, out),) = seen
    assert_bits(out, np.quantile(eta, q, axis=1))
    assert_bits(lf_cv, out)
