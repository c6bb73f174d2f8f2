"""A block of members decided at once, against the per-point oracle.

``_block_decisions`` decides a whole block of members: stage one stacked,
stage two conditioned on the dual vertices, and one truncated normal
quantile call.  ``oracles.decisions`` is stage two by the primal basis of
the optimal vertex, one member and one grid point at a time.  The two
describe the same conditioning event, so the decisions must agree exactly,
at tied optima too, and the truncation bounds within rounding
(``oracles.basis_bounds``).  The sets must not depend on the block size or
on the order of the members, and the work per set is counted against what
the block design promises.
"""

import dataclasses

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.inference import (
    _Block,
    _block_decisions,
    _critical_values,
    _target_basis,
)
from blockdid.restrictions import map_to_delta_space, rm_cohort
from blockdid.simgen import gen_custom

from conftest import random_spec
from oracles import basis_bounds, decisions, member_block, take
from test_critical_values import KAPPA, design_chunks
from test_inference import csnyt_boundary_system
from test_member_sharing import BUILDERS, _systems, _wide_grid, shared_set
from test_member_sharing import toy_system  # noqa: F401 (a fixture)


def crossing_points(blocks, n=61):
    """Candidate values around where the blocks' moments change sign.  A
    loading on theta0 within rounding of zero, 1e-12 of the blocks' largest,
    is zero: dividing by its residue would put the grid out near 1e15."""
    a0 = np.concatenate([np.zeros(0)] + [b.a0.ravel() for b in blocks])
    a1 = np.concatenate([np.zeros(0)] + [b.a1.ravel() for b in blocks])
    moves = np.abs(a1) > 1e-12 * np.abs(a1).max(initial=0.0)
    cross = np.concatenate([a0[moves] / a1[moves], np.zeros(1)])
    lo, hi = np.quantile(cross, [0.1, 0.9])
    pad = 0.5 * (hi - lo) + 1.0
    return np.linspace(lo - pad, hi + pad, n)


@pytest.mark.parametrize("stack", [None, 1])
def test_block_decisions_match_the_per_point_oracle_on_random_designs(
    monkeypatch, stack
):
    # stack=1 splits the stage-one stack into single members and stage two
    # into single (member, point) pairs
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
    blocks, shared, rejected, accepted = 0, 0, 0, 0
    for d in range(36):
        kind = ("rm-global", "rm-cohort", "sd")[d % 3]
        chunks, _ = design_chunks(rng, kind, ("imputation", "csnyt")[d // 3 % 2])
        design = [block for chunk in chunks for block in chunk]
        points = crossing_points(design)
        for block in design:
            # the oracle takes the unscreened values, so this checks the screen too
            lf_cv = _critical_values(block, KAPPA, 300, seed=d)
            got = _block_decisions(block, points, 0.05, KAPPA, 300, d)
            want = [
                decisions(block, i, cv, points, 0.05, KAPPA) for i, cv in enumerate(lf_cv)
            ]
            assert np.array_equal(got, want), (d, kind)
            blocks += 1
            shared += len(got) > 1
            rejected, accepted = rejected + got.sum(), accepted + (~got).sum()
    assert blocks > 25 and shared > 0 and rejected > 0 and accepted > 0
    assert len(calls) <= blocks  # one quantile call per block at most
    assert sum(values) > 1000  # stage two was reached


def test_block_decisions_match_the_oracle_on_boundary_null_draws():
    # one member per draw of the estimate at the boundary null, decided as
    # one block of 300 members
    coeffs, member, target, sigma = csnyt_boundary_system()
    block = member_block(coeffs, member, _target_basis(coeffs, target))
    (lf_cv,) = _critical_values(block, 0.005, 4000, seed=9)
    rng = np.random.default_rng(123)
    root = np.linalg.cholesky(sigma)
    A = member.A[:, coeffs.cells.value_positions]
    shifts = np.array([A @ (root @ rng.standard_normal(6)) for _ in range(300)])
    draws = take(block, np.zeros(300, dtype=int))
    draws.a0 = draws.a0 + shifts
    points = np.linspace(-1.0, 1.0, 21)
    got = _block_decisions(draws, points, 0.05, 0.005, 4000, 9)
    want = [decisions(draws, i, lf_cv, points, 0.05, 0.005) for i in range(300)]
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
    # one block per chunk of members (the toy family's members drop no row
    # and share one A[:, post], so one nuisance system for the set), one
    # deterministic check, one stage two, one stacked eigh and at most one
    # quantile call per block, and no basis factored or inverted: stage two
    # conditions on the dual vertices
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm)
    seen = dict.fromkeys([
        "blocks", "deterministic", "stage two", "pairs", "factored", "inverted",
        "eigh", "quantiles", "spans",
    ], 0)
    open_points = []  # of each block decided, in turn

    def count(module, name, key, size=lambda *args: 1):
        original = getattr(module, name)

        def counted(*args):
            seen[key] += size(*args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    critical_values = inference._critical_values

    def with_pairs(block, *args):
        """The block's critical values; counts the distinct non-degenerate
        (member, optimal vertex) pairs of the open points that stage one
        accepts, as the per-point loop met them."""
        lf_cv = critical_values(block, *args)
        for i, vertices in enumerate(block.vertices):
            y = block.a0[i][:, None] - np.outer(block.a1[i], open_points[-1])
            vals = vertices @ y
            best = vals.argmax(axis=0)[vals.max(axis=0) <= lf_cv[i]]
            k1 = block.X.shape[1] + 1
            basic = vertices[np.unique(best)] > inference._VERTEX_TIE_TOL
            seen["pairs"] += int((basic.sum(axis=1) == k1).sum())
        return lf_cv

    def decided(block, points, *args):
        open_points.append(points)
        return 1

    count(inference, "_block_decisions", "blocks", decided)
    count(inference, "_deterministic_rejections", "deterministic")
    count(inference, "_stage_two", "stage two")
    monkeypatch.setattr(inference, "_critical_values", with_pairs)
    count(np.linalg, "slogdet", "factored", len)
    count(np.linalg, "inv", "inverted", len)
    count(np.linalg, "eigh", "eigh")
    count(inference, "_truncnorm_quantile", "quantiles")
    count(inference, "_column_space", "spans")
    shared_set(coeffs, fam, target, _wide_grid(coeffs, target, n=41), seed=3)
    assert seen["blocks"] == -(-fam.member_count // inference._MEMBER_BLOCK)
    assert seen["deterministic"] == seen["stage two"] == seen["blocks"]
    assert seen["pairs"] > 0  # stage two met non-degenerate optima
    assert seen["factored"] == seen["inverted"] == 0
    assert 0 < seen["quantiles"] <= seen["blocks"]
    assert seen["eigh"] == seen["blocks"]  # every block has vertices
    assert seen["spans"] == 1


def tied_vertex_block():
    """Two members whose moment rows 0 and 1 have equal [sd, X] rows, with
    their dual vertices e0, e1 and (0, 0, 1/2, 1/2), all of them: e0 and e1
    tie wherever one of them is optimal.  Member 0's optimum is e0 below
    theta0 = 0 and the third vertex above, member 1's the other way round."""
    X = np.array([[0.0], [0.0], [1.0], [-1.0]])
    vertices = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]
    )
    a1 = np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
    none = np.zeros((2, 0))
    return _Block(
        a0=np.zeros((2, 4)), a1=a1, sd=np.ones((2, 4)),
        sigma=np.broadcast_to(np.eye(4), (2, 4, 4)).copy(), X=X,
        vertices=np.stack([vertices, vertices]), det_a0=none, det_a1=none,
        det_tol=none,
    )


def test_a_tied_optimum_keeps_the_stage_one_acceptance(monkeypatch):
    block = tied_vertex_block()
    conditional = []
    quantile = inference._truncnorm_quantile

    def counted(p, lo, hi):
        conditional.append(len(lo))
        return quantile(p, lo, hi)

    monkeypatch.setattr(inference, "_truncnorm_quantile", counted)
    # both members' critical value is 3.0
    monkeypatch.setattr(inference, "_critical_values", lambda *args: np.full(2, 3.0))
    points = np.linspace(-3.9, 3.9, 27)  # no point at theta0 = 0, where all tie
    got = _block_decisions(block, points, 0.05, KAPPA, 300, 0)
    want = [decisions(block, i, 3.0, points, 0.05, KAPPA) for i in range(2)]
    assert np.array_equal(got, want)
    inside = np.abs(points) <= 3.0  # eta* = |theta0| passes stage one
    tied = np.array([points < 0, points > 0])  # e0 and e1 are optimal
    assert not got[tied & inside].any()
    assert got[:, ~inside].all()
    assert conditional and conditional[0] == 2 * int((inside & (points > 0)).sum())


def test_a_tie_with_an_upper_bounding_vertex_keeps_the_stage_one_acceptance(
    monkeypatch,
):
    # constant moments y = (1, 0, 1, 1): the third vertex, listed first and
    # so the argmax, ties with e0, and e0'c = 1.5 makes e0 bound the statistic
    # from above at eta* = 1 itself.  Conditioning on that bound would reject
    # at every point; the tie keeps stage one's acceptance instead.
    block = tied_vertex_block()
    sigma = np.eye(4)
    sigma[0, 2:] = sigma[2:, 0] = 0.6
    sigma[2, 3] = sigma[3, 2] = -0.2
    block = dataclasses.replace(
        block, a0=np.array([[1.0, 0.0, 1.0, 1.0]] * 2), a1=np.zeros((2, 4)),
        sigma=np.stack([sigma, sigma]), vertices=block.vertices[:, ::-1],
    )
    monkeypatch.setattr(inference, "_critical_values", lambda *args: np.full(2, 3.0))
    points = np.linspace(-1.0, 1.0, 5)
    # the same optimum without the tie: with e0'y just below eta*, e0's upper
    # bound sits just above eta* and the conditional test rejects
    apart = dataclasses.replace(block, a0=np.array([[1.0 - 1e-3, 0.0, 1.0, 1.0]] * 2))
    for fixture, rejected in ((block, False), (apart, True)):
        got = _block_decisions(fixture, points, 0.05, KAPPA, 300, 0)
        assert (got == rejected).all()
        want = [decisions(fixture, i, 3.0, points, 0.05, KAPPA) for i in range(2)]
        assert np.array_equal(got, want)


class Untouchable:
    """Stands in for an array that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name}")

    def __getitem__(self, key):
        raise AssertionError(f"read [{key!r}]")

    def __array__(self, *args, **kwargs):
        raise AssertionError("read as an array")


def test_a_block_whose_stage_one_accepts_no_pair_skips_stage_two(monkeypatch):
    # critical values below every eta*: stage one rejects every point, and
    # stage two returns before it reads what only it reads
    untouchable = dict(sigma=Untouchable(), sd=Untouchable(), X=Untouchable())
    block = dataclasses.replace(tied_vertex_block(), **untouchable)
    monkeypatch.setattr(inference, "_critical_values", lambda *args: np.full(2, -1.0))
    returned = []
    stage_two = inference._stage_two

    def counted(*args):
        returned.append(stage_two(*args))
        return returned[-1]

    monkeypatch.setattr(inference, "_stage_two", counted)
    points = np.linspace(-3.9, 3.9, 27)
    assert _block_decisions(block, points, 0.05, KAPPA, 300, 0).all()
    ((g, p, eta, sig, vlo, vup),) = returned
    assert all(len(v) == 0 for v in (g, p, eta, sig, vlo, vup))


def test_stage_two_bounds_match_the_basis_path_on_random_designs(monkeypatch):
    # stage two's sigma and [vlo, vup] at every conditional point against the
    # primal basis path's, member by member, with the critical values it was
    # given; vup is compared before the cap by the critical value, so that an
    # upper bound above that value shows too
    seen = {"lf": [], "out": []}
    critical_values, stage_two = inference._critical_values, inference._stage_two

    def keep_lf(*args):
        seen["lf"].append(critical_values(*args))
        return seen["lf"][-1]

    def keep_out(block, points, g, p, eta, best, lf, reject):
        uncapped = np.full_like(lf, np.inf)
        seen["out"].append(stage_two(block, points, g, p, eta, best, uncapped, reject))
        return stage_two(block, points, g, p, eta, best, lf, reject)

    monkeypatch.setattr(inference, "_critical_values", keep_lf)
    monkeypatch.setattr(inference, "_stage_two", keep_out)
    rng = np.random.default_rng(2025)
    compared, ends = 0, np.zeros(2, dtype=int)  # finite, infinite
    for d in range(36):
        kind = ("rm-global", "rm-cohort", "sd")[d % 3]
        chunks, _ = design_chunks(rng, kind, ("imputation", "csnyt")[d // 3 % 2])
        design = [block for chunk in chunks for block in chunk]
        points = crossing_points(design)
        for block in design:
            seen["lf"].clear(), seen["out"].clear()
            _block_decisions(block, points, 0.05, KAPPA, 300, d)
            if not seen["out"]:  # no vertices
                continue
            (lf_cv,), ((g, p, _, sig, vlo, vup),) = seen["lf"], seen["out"]
            for i, cv in enumerate(lf_cv):
                want = basis_bounds(block, i, cv, points)[2]
                mine = g == i
                assert np.array_equal(p[mine], want[:, 0]), (d, kind, i)
                got = np.column_stack([sig[mine], vlo[mine], vup[mine]])
                want, infinite = want[:, 1:], np.isinf(want[:, 1:])
                assert np.array_equal(got[infinite], want[infinite]), (d, kind, i)
                error = np.abs(got[~infinite] - want[~infinite])
                bound = 1e-9 * (1.0 + np.abs(want[~infinite]))
                assert np.all(error <= bound), (d, kind, i)
                compared += len(want)
                ends += [(~infinite[:, 1:]).sum(), infinite[:, 1:].sum()]
    assert compared > 1000 and ends.min() > 0
