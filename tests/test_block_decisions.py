"""A block of members decided at once, against the per-point oracle.

``_block_decisions`` decides a whole block of members: stage one stacked,
stage two grouped by (member, optimal vertex) with one inverse per distinct
basis, and one truncated normal quantile call.  ``oracles.decisions`` is the
stage two as it ran one member and one grid point at a time.  Their products
round alike, so the decisions must agree exactly.  The sets must not depend
on the block size or on the order of the members, and the work per set is
counted against what the block design promises.
"""

import dataclasses

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.inference import (
    _block_decisions,
    _member_moments,
    _prepare_contexts,
    _target_basis,
)
from blockdid.restrictions import map_to_delta_space, rm_cohort
from blockdid.simgen import gen_custom

from conftest import random_spec
from oracles import decisions
from test_critical_values import KAPPA, design_systems
from test_inference import csnyt_boundary_system
from test_member_sharing import BUILDERS, _systems, _wide_grid, shared_set
from test_member_sharing import toy_system  # noqa: F401 (a fixture)


def crossing_points(systems, n=61):
    """Candidate values around where the systems' moments change sign."""
    cross = np.concatenate(
        [m.a0[m.a1 != 0] / m.a1[m.a1 != 0] for m in systems] + [np.zeros(1)]
    )
    lo, hi = np.quantile(cross, [0.1, 0.9])
    pad = 0.5 * (hi - lo) + 1.0
    return np.linspace(lo - pad, hi + pad, n)


@pytest.mark.parametrize("stack", [None, 1])
def test_block_decisions_match_the_per_point_oracle_on_random_designs(
    monkeypatch, stack
):
    # stack=1 splits the stage-one stack into single members and the
    # gathered bases into single points
    if stack is not None:
        monkeypatch.setattr(inference, "_STACK_VALUES", stack)
    calls, values = [], []
    quantile = inference._truncnorm_quantile

    def counted(p, lo, hi):
        calls.append(1)
        values.append(len(lo))
        return quantile(p, lo, hi)

    monkeypatch.setattr(inference, "_truncnorm_quantile", counted)
    rng = np.random.default_rng(2025)
    blocks, rejected, accepted = 0, 0, 0
    for d in range(36):
        kind = ("rm-global", "rm-cohort", "sd")[d % 3]
        systems, _ = design_systems(rng, kind, ("imputation", "csnyt")[d // 3 % 2])
        if not systems:
            continue
        contexts = _prepare_contexts(systems, KAPPA, 300, seed=d)
        points = crossing_points(systems)
        got = _block_decisions(contexts, points, 0.05)
        want = np.array([decisions(ctx, points, 0.05) for ctx in contexts])
        assert np.array_equal(got, want), (d, kind)
        blocks += 1
        rejected, accepted = rejected + got.sum(), accepted + (~got).sum()
    assert blocks > 25 and rejected > 0 and accepted > 0
    assert len(calls) <= blocks  # one quantile call per block at most
    assert sum(values) > 1000  # stage two was reached


def test_block_decisions_match_the_oracle_on_boundary_null_draws():
    # one context per draw of the estimate at the boundary null, decided as
    # one block of 300 members
    coeffs, member, target, sigma = csnyt_boundary_system()
    moments = _member_moments(coeffs, member, *_target_basis(coeffs, target))
    (ctx,) = _prepare_contexts([moments], kappa=0.005, draws=4000, seed=9)
    rng = np.random.default_rng(123)
    root = np.linalg.cholesky(sigma)
    A = member.A[:, coeffs.cells.value_positions]
    draws = [
        dataclasses.replace(
            ctx,
            moments=dataclasses.replace(
                moments, a0=moments.a0 + A @ (root @ rng.standard_normal(6))
            ),
        )
        for _ in range(300)
    ]
    points = np.linspace(-1.0, 1.0, 21)
    got = _block_decisions(draws, points, 0.05)
    want = np.array([decisions(c, points, 0.05) for c in draws])
    assert np.array_equal(got, want)
    assert 0 < got.sum() < got.size


# rm designs with more members than one block holds
DESIGN = {
    "rm-global": dict(max_n=30, max_t=8, max_g=3, min_pre=3),
    "rm-cohort": dict(max_n=30, max_t=6, max_g=3, min_pre=2),
}


@pytest.mark.parametrize("kind", ["rm-global", "rm-cohort"])
def test_sets_do_not_depend_on_block_size_or_member_order(monkeypatch, kind):
    rng = np.random.default_rng({"rm-global": 41, "rm-cohort": 42}[kind])
    checked, i = 0, 0
    while checked < 3 and i < 20:
        i += 1
        panel = gen_custom(random_spec(rng, **DESIGN[kind])).panel
        seed = int(rng.integers(0, 1000))
        estimator = ("imputation", "csnyt")[i % 2]
        for _, coeffs, layout, bm, target in _systems(panel, estimator, seed)[:1]:
            block = BUILDERS[kind](layout, coeffs.cells, float(rng.uniform(0.2, 1.2)))
            fam = map_to_delta_space(block, bm)
            if fam.member_count <= inference._MEMBER_BLOCK:
                continue
            grid = _wide_grid(coeffs, target)
            sets = []
            for size in (1, inference._MEMBER_BLOCK, fam.member_count):
                monkeypatch.setattr(inference, "_MEMBER_BLOCK", size)
                sets.append(shared_set(coeffs, fam, target, grid, seed))
            reverse = dataclasses.replace(fam, benchmarks=fam.benchmarks[::-1])
            sets.append(shared_set(coeffs, reverse, target, grid, seed))
            monkeypatch.undo()
            assert all(s.intervals == sets[0].intervals for s in sets), (kind, i)
            checked += 1
    assert checked == 3


def test_work_per_set_follows_the_blocks(toy_system, monkeypatch):
    # one inverse per distinct (member, optimal vertex) pair, one quantile
    # call and one stacked eigh per block, one nuisance system per distinct
    # A[:, post] (the toy family's members drop no row and share it)
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm)
    seen = dict.fromkeys(
        ["blocks", "pairs", "inverted", "eigh", "quantiles", "spans"], 0
    )

    def count(module, name, key, size=lambda *args: 1):
        original = getattr(module, name)

        def counted(*args):
            seen[key] += size(*args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    def pairs(contexts, points, alpha):
        """The distinct non-degenerate (member, optimal vertex) pairs of the
        points that stage one accepts, counted as the per-point loop met them."""
        found = 0
        for ctx in contexts:
            mom = ctx.moments
            vals = ctx.vertices @ (mom.a0[:, None] - np.outer(mom.a1, points))
            best = vals.argmax(axis=0)[vals.max(axis=0) <= ctx.lf_cv]
            k1 = ctx.moments.X.shape[1] + 1
            basic = ctx.vertices[np.unique(best)] > inference._VERTEX_TIE_TOL
            found += int((basic.sum(axis=1) == k1).sum())
        return found

    count(inference, "_block_decisions", "blocks")
    count(inference, "_block_decisions", "pairs", pairs)
    count(np.linalg, "inv", "inverted", len)
    count(np.linalg, "eigh", "eigh")
    count(inference, "_truncnorm_quantile", "quantiles")
    count(inference, "_column_space", "spans")
    shared_set(coeffs, fam, target, _wide_grid(coeffs, target, n=41), seed=3)
    assert seen["blocks"] == -(-fam.member_count // inference._MEMBER_BLOCK)
    assert seen["pairs"] > 0 and seen["inverted"] == seen["pairs"]
    assert 0 < seen["quantiles"] <= seen["blocks"]
    assert seen["eigh"] == seen["blocks"]
    assert seen["spans"] == 1
