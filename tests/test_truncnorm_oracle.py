"""The truncated normal quantile against ``scipy.stats``, its oracle.

The package computes the hybrid test's conditional quantile with
``scipy.special`` alone (``inference._truncnorm_ppf``, scipy's own log-space
algorithm), so that no ``blockdid`` process loads ``scipy.stats``.  Here the
quantile must equal ``scipy.stats.truncnorm.ppf`` and ``norm.ppf`` bit for
bit on the installed scipy, over random intervals that reach the far tails,
infinite, empty, reversed and nan bounds, and the probabilities 0 and 1.
"""

import numpy as np
import pytest
from scipy import stats as scistats

from blockdid.inference import _truncnorm_ppf, _truncnorm_quantile

N = 120_000


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def triples():
    rng = np.random.default_rng(20231)
    scale = rng.choice([0.5, 1.0, 3.0, 10.0, 40.0], N)
    lo = rng.uniform(-1.0, 1.0, N) * scale
    hi = lo + rng.exponential(1.0, N) * rng.choice([1e-3, 0.1, 1.0, 10.0], N)
    swap = rng.random(N) < 0.03  # reversed
    lo[swap], hi[swap] = hi[swap], lo[swap]
    empty = rng.random(N) < 0.02
    hi[empty] = lo[empty]
    lo[rng.random(N) < 0.05] = -np.inf
    hi[rng.random(N) < 0.05] = np.inf
    lo[rng.random(N) < 0.02] = rng.choice([0.0, -0.0])  # the case splits at 0
    hi[rng.random(N) < 0.02] = 0.0
    lo[rng.random(N) < 0.005] = np.nan
    hi[rng.random(N) < 0.005] = np.nan
    p = rng.random(N)
    kind = rng.random(N)
    p[kind < 0.02] = 0.0
    p[(kind >= 0.02) & (kind < 0.04)] = 1.0
    level = (kind >= 0.04) & (kind < 0.3)  # the levels the hybrid test uses
    p[level] = rng.choice([0.9, 0.95, 0.975, 1.0 - 0.045 / 0.995], level.sum())
    p[(kind >= 0.3) & (kind < 0.32)] = 1e-300
    return p, lo, hi


def test_triples_cover_the_hard_cases(triples):
    p, lo, hi = triples
    finite = np.isfinite(lo) & np.isfinite(hi)
    assert (np.abs(lo[finite]) > 30).any() and (lo[finite] > 30).any()
    assert (np.isinf(lo) ^ np.isinf(hi)).sum() > 1000
    assert (lo == hi).sum() > 1000 and (lo > hi).sum() > 1000
    assert (np.isnan(lo) | np.isnan(hi)).sum() > 500
    assert (p == 0).sum() > 1000 and (p == 1).sum() > 1000
    assert (lo == 0).sum() > 1000 and (hi == 0).sum() > 1000


def test_truncnorm_ppf_is_bitwise_scipy_stats(triples):
    p, lo, hi = triples
    with np.errstate(all="ignore"):
        want = scistats.truncnorm.ppf(p, lo, hi)
        got = _truncnorm_ppf(p, lo, hi)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    for q in (0.0, 1.0, 0.5, 0.975, 1e-300, np.nan, -0.5, 1.5):  # scalar q
        with np.errstate(all="ignore"):
            want = scistats.truncnorm.ppf(q, lo[:5000], hi[:5000])
            got = _truncnorm_ppf(q, lo[:5000], hi[:5000])
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_untruncated_quantile_is_bitwise_norm_ppf(triples):
    ps = np.concatenate([triples[0][:3000], [0.0, -0.0, 1.0, 5e-324, 1e-300]])
    got = [_truncnorm_quantile(q, -np.inf, np.inf) for q in ps]
    np.testing.assert_array_equal(_bits(got), _bits(scistats.norm.ppf(ps)))
