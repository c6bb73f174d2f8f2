"""Family-level sharing in ``confidence_set`` against the unshared loop.

The oracle below is the loop ``confidence_set`` ran before it shared work
across a family: every member in family order, each a block of its own with
its own dual-vertex enumeration and its own Monte Carlo stage, decided one
point at a time, and no member skipped.  ``confidence_set`` enumerates dual
rays once per distinct nuisance system and tests only the family's distinct
members (one at parameter 0); both are exact, so the sets must agree
exactly.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.estimators import aggregate
from blockdid.inference import (
    GridSpec,
    InferenceError,
    _block_moments,
    _critical_values,
    _reduced_rows,
    _target_basis,
    aggregated_att_target,
    aggregated_system,
    confidence_set,
    overall_att_target,
)
from blockdid.panel import build_layout
from blockdid.restrictions import (
    NoPreDifferences,
    map_to_delta_space,
    rm_cohort,
    rm_global,
    sd,
    with_normalization,
)
from blockdid.simgen import gen_custom
from blockdid.vcov import BootstrapSpec, bootstrap_vcov

from conftest import random_spec
from oracles import decisions, member_block

BUILDERS = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}
W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}
ALPHA, DRAWS = 0.05, 300


# ---------------------------------------------------------------------------
# the unshared loop
# ---------------------------------------------------------------------------


def unshared_accepted(coeffs, family, target, grid, seed):
    """Accepted grid points: every member tested on its own, in order."""
    points = grid.points()
    accepted = np.zeros(len(points), dtype=bool)
    for member in family.members:
        todo = np.flatnonzero(~accepted)
        if len(todo) == 0:
            break
        block = member_block(coeffs, member, _target_basis(coeffs, target))
        (lf_cv,) = _critical_values(block, ALPHA / 10, DRAWS, seed)
        accepted[todo] = ~decisions(block, 0, lf_cv, points[todo], ALPHA, ALPHA / 10)
    return accepted


def runs(points, accepted):
    """Closed intervals spanned by the runs of accepted points."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], accepted, [0]])))
    return tuple((points[a], points[b - 1]) for a, b in edges.reshape(-1, 2))


def shared_set(coeffs, family, target, grid, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # boundary hits and empty sets
        return confidence_set(
            coeffs, family, target, alpha=ALPHA, grid=grid, draws=DRAWS, seed=seed
        )


def _wide_grid(coeffs, target, n=25):
    """Target estimate +/- 12 standard errors, so both ends reject."""
    l_vec = target.weights[coeffs.positions]
    est = float(l_vec @ coeffs.values)
    se = max(float(np.sqrt(l_vec @ coeffs.vcov @ l_vec)), 1e-3)
    return GridSpec(est - 12.0 * se, est + 12.0 * se, n)


def _systems(panel, estimator, seed):
    """(framework, coeffs, layout, bias map, target) for both frameworks."""
    layout = build_layout(panel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton strata in small designs
        coeffs = bootstrap_vcov(panel, BootstrapSpec(40, seed, estimator))
    bm = invert(W_BUILDERS[estimator](layout, coeffs.cells))
    agg = aggregate(coeffs, layout)
    alay, acells, acoe, amap = aggregated_system(agg)
    return [
        ("cohort", coeffs, layout, bm, overall_att_target(layout, coeffs.cells)),
        ("aggregated", acoe, alay, amap, aggregated_att_target(agg, acells)),
    ]


# random_spec bounds per family: rm-cohort's member count is a product over
# cohorts, so its designs stay at two cohorts and five periods
DESIGN = {
    "rm-global": dict(max_n=30, max_t=6, max_g=3, min_pre=1),
    "rm-cohort": dict(max_n=30, max_t=5, max_g=2, min_pre=2),
    "sd": dict(max_n=30, max_t=7, max_g=3, min_pre=2),
}
N_DESIGNS = 6


@pytest.mark.parametrize("kind", ["rm-global", "rm-cohort", "sd"])
def test_shared_sets_equal_the_unshared_loop_on_random_designs(kind):
    rng = np.random.default_rng({"rm-global": 71, "rm-cohort": 72, "sd": 73}[kind])
    checked, frameworks, zero, normalized, multi = 0, set(), 0, 0, 0
    for i in range(N_DESIGNS):
        estimator = ("imputation", "csnyt")[i % 2]
        panel = gen_custom(random_spec(rng, **DESIGN[kind])).panel
        seed = int(rng.integers(0, 1000))
        for framework, coeffs, layout, bm, target in _systems(panel, estimator, seed):
            # parameter 0 on even designs, where every rm member is equal
            param = 0.0 if i % 2 == 0 else float(rng.uniform(0.1, 1.5))
            try:
                block = BUILDERS[kind](layout, coeffs.cells, param)
            except NoPreDifferences:  # rm-global on one cohort adopting at t=2
                continue
            variants = [block]
            if estimator == "imputation":
                variants.append(with_normalization(block, layout))
            grid = _wide_grid(coeffs, target)
            for fam in variants:
                fam = map_to_delta_space(fam, bm)
                try:
                    want = unshared_accepted(coeffs, fam, target, grid, seed)
                except InferenceError as exc:  # e.g. every moment row degenerate
                    with pytest.raises(type(exc)):
                        shared_set(coeffs, fam, target, grid, seed)
                    continue
                got = shared_set(coeffs, fam, target, grid, seed)
                assert got.intervals == runs(grid.points(), want), (kind, i, framework)
                checked += 1
                frameworks.add(framework)
                zero += param == 0.0
                normalized += fam.normalized
                multi += fam.member_count > 1
    assert checked >= 2 * N_DESIGNS and frameworks == {"cohort", "aggregated"}
    assert zero > 0 and normalized > 0
    assert kind == "sd" or multi > 0


# ---------------------------------------------------------------------------
# what is done once, counted
# ---------------------------------------------------------------------------


@pytest.fixture
def toy_system(toy_panel):
    layout = build_layout(toy_panel)
    coeffs = bootstrap_vcov(toy_panel, BootstrapSpec(60, 4, "imputation"))
    bm = invert(build_w_imputation(layout, coeffs.cells))
    return coeffs, layout, bm, overall_att_target(layout, coeffs.cells)


@pytest.fixture
def counted(monkeypatch):
    """Record the X of every ray enumeration, and every block, its members
    as (block id, member) pairs and its size, as ``confidence_set`` forms
    them."""
    seen = {"rays": [], "members": [], "blocks": [], "sizes": []}
    cone_rays, block_moments = inference._cone_rays, inference._block_moments

    def count_rays(X):
        seen["rays"].append((X.shape, X.tobytes()))
        return cone_rays(X)

    def count_blocks(*args):
        blocks = block_moments(*args)
        for block in blocks:
            seen["blocks"].append(block)
            seen["members"].extend((id(block), i) for i in range(len(block.sd)))
            seen["sizes"].append(len(block.sd))
        return blocks

    monkeypatch.setattr(inference, "_cone_rays", count_rays)
    monkeypatch.setattr(inference, "_block_moments", count_blocks)
    return seen


def _distinct_members(family):
    distinct = []
    for m in family.members:
        if not any(
            np.array_equal(m.A, o.A) and np.array_equal(m.d, o.d) for o in distinct
        ):
            distinct.append(m)
    return len(distinct)


def _far_grid(coeffs, target):
    """A grid every member rejects, so that every member is visited."""
    lo = float(target.weights[coeffs.positions] @ coeffs.values) + 50.0
    return GridSpec(lo, lo + 5.0, 6)


@pytest.mark.parametrize("mbar", [0.0, 0.7])
def test_one_enumeration_per_distinct_x_and_one_context_per_distinct_member(
    toy_system, counted, mbar
):
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, mbar), bm)
    grid = _far_grid(coeffs, target)
    cset = shared_set(coeffs, fam, target, grid, seed=3)
    assert cset.is_empty

    tested = len(counted["members"])
    assert tested == _distinct_members(fam)
    if mbar == 0.0:
        assert tested == 1 < fam.member_count
    else:
        assert tested == fam.member_count  # no two members are equal
    # one block per chunk of members, every member with vertices
    assert counted["sizes"] == [
        len(fam.distinct[s:s + inference._MEMBER_BLOCK])
        for s in range(0, len(fam.distinct), inference._MEMBER_BLOCK)
    ]
    assert all(b.vertices.shape[1] for b in counted["blocks"])
    xs = {(b.X.shape, b.X.tobytes()) for b in counted["blocks"]}
    assert len(xs) == 1  # the members share one nuisance system
    assert counted["rays"] == list(xs)


def test_members_with_equal_rows_but_different_bounds_are_both_tested(
    toy_system, counted
):
    # rm-global members 0 and 1 share every difference row and benchmark
    # cell and differ only in the benchmark's sign, so in their bounds
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_global(layout, coeffs.cells, 0.7), bm)
    pair = replace(fam, benchmarks=fam.benchmarks[:2])
    signs = pair.benchmarks[:, :, 2]
    assert np.array_equal(pair.benchmarks[0, :, :2], pair.benchmarks[1, :, :2])
    assert (signs[0] == -signs[1]).all()
    grid = _far_grid(coeffs, target)
    want = runs(grid.points(), unshared_accepted(coeffs, pair, target, grid, 3))
    counted["members"].clear(), counted["blocks"].clear()

    assert shared_set(coeffs, pair, target, grid, seed=3).intervals == want
    assert len(counted["members"]) == 2
    tested = np.concatenate([b.a0 for b in counted["blocks"]])
    assert not np.array_equal(tested[0], tested[1])

    # at parameter 0 their bounds coincide: one polyhedron, one test
    zero = replace(pair, parameter=0.0)
    assert np.array_equal(zero.member(0).A, zero.member(1).A)
    want = runs(grid.points(), unshared_accepted(coeffs, zero, target, grid, 3))
    counted["members"].clear()
    assert shared_set(coeffs, zero, target, grid, seed=3).intervals == want
    assert len(counted["members"]) == 1


def test_nuisance_systems_of_one_shape_get_their_own_rays(toy_system, counted):
    coeffs, layout, bm, target = toy_system
    first = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm).member(0)
    scale = np.ones(len(first.d))
    scale[0] = 2.0  # moves the column space of the nuisance loadings
    scaled = replace(first, A=first.A * scale[:, None])
    basis = _target_basis(coeffs, target)
    members = (first, scaled, first)
    A, d = _reduced_rows(
        np.stack([m.A for m in members]), np.stack([m.d for m in members]),
        None, None, coeffs.cells, coeffs.positions,
    )
    memo = {}
    blocks = _block_moments(coeffs, A, d, basis, memo)
    assert [len(b.sd) for b in blocks] == [2, 1]  # first twice, then scaled
    assert blocks[0].X.shape == blocks[1].X.shape
    assert not np.array_equal(blocks[0].X, blocks[1].X)
    assert len(memo) == 2  # one enumeration per X, the repeat reuses it
    assert len(set(counted["rays"])) == len(counted["rays"]) == 2
    _block_moments(coeffs, A, d, basis, memo)
    assert len(counted["rays"]) == 2  # a later chunk reuses them too
    for block, member in zip(blocks, (first, scaled)):
        alone = member_block(coeffs, member, basis).vertices[0]
        for vertices in block.vertices:
            assert len(vertices) and vertices.tobytes() == alone.tobytes()


def test_no_block_is_formed_after_every_point_is_accepted(
    toy_system, counted, monkeypatch
):
    # every member rejects every point until the 20th, which accepts them
    # all: that member is in the second block, so the third and fourth
    # blocks of the 60 members are never formed
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm)
    block = inference._MEMBER_BLOCK
    assert fam.member_count > 3 * block
    formed, decided, accepting = [], [], {"member": 20}
    block_moments = inference._block_moments

    def count_members(coeffs, A, *args):
        formed.extend(A)
        return block_moments(coeffs, A, *args)

    def decisions(block, points, alpha, kappa, draws, seed):
        rows = []
        for i in range(len(block.sd)):  # the nth member decided rejects while n < 20
            decided.append((id(block), i))
            rows.append(np.full(len(points), len(decided) < accepting["member"]))
        return np.array(rows)

    monkeypatch.setattr(inference, "_block_moments", count_members)
    monkeypatch.setattr(inference, "_block_decisions", decisions)
    cset = shared_set(coeffs, fam, target, _far_grid(coeffs, target), seed=3)
    assert len(cset.intervals) == 1
    # a block is decided whole: the members decided are those formed
    assert decided == counted["members"]
    assert len(decided) == 2 * block
    assert counted["sizes"] == [block, block]
    assert len(formed) == 2 * block

    # accepted by the last member of a block: the next block is not formed
    formed.clear(), decided.clear(), counted["members"].clear()
    counted["sizes"].clear()
    accepting["member"] = block
    shared_set(coeffs, fam, target, _far_grid(coeffs, target), seed=3)
    assert len(decided) == block and counted["sizes"] == [block]
    assert len(formed) == block


def _accepting_from(member):
    """Block decisions that reject every point until the ``member``-th
    member decided, which accepts them all."""
    left = {"n": member}

    def decisions(block, points, alpha, kappa, draws, seed):
        rows = []
        for _ in block.sd:
            left["n"] -= 1
            rows.append(np.full(len(points), left["n"] > 0))
        return np.array(rows)

    return decisions


def _reduced(member, coeffs):
    """A member's rows as ``_block_moments`` receives them."""
    return member.A[:, coeffs.positions].tobytes()


def test_a_member_past_the_accepting_one_fails_only_when_reached(
    toy_system, monkeypatch
):
    # member 3 cannot be tested; in a block with the accepting member 1 it
    # must not fail the set, and when it is reached it fails as before
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm)
    bad = _reduced(fam.member(3), coeffs)
    block_moments = inference._block_moments

    def refuse_member_3(coeffs, A, *args):
        if any(rows.tobytes() == bad for rows in A):
            raise inference.SingularVcov("every moment row has zero variance")
        return block_moments(coeffs, A, *args)

    monkeypatch.setattr(inference, "_block_moments", refuse_member_3)
    grid = _far_grid(coeffs, target)
    monkeypatch.setattr(inference, "_block_decisions", _accepting_from(2))
    assert not shared_set(coeffs, fam, target, grid, seed=3).is_empty
    monkeypatch.setattr(inference, "_block_decisions", _accepting_from(10))
    with pytest.raises(inference.SingularVcov):
        shared_set(coeffs, fam, target, grid, seed=3)


def test_a_member_over_the_vertex_cap_is_refused_only_when_reached(
    toy_system, monkeypatch
):
    # member 3's moment rows are doubled, so its enumeration starts with more
    # rays than the cap allows, while every other member fits under it
    coeffs, layout, bm, target = toy_system
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm)
    grid = _far_grid(coeffs, target)
    basis = inference._target_basis(coeffs, target)
    m, k = member_block(coeffs, fam.member(0), basis).X.shape
    monkeypatch.setattr(inference, "_VERTEX_ENUM_CAP", 2 * m - k - 1)
    assert shared_set(coeffs, fam, target, grid, seed=3).is_empty  # all fit

    bad = _reduced(fam.member(3), coeffs)
    block_moments = inference._block_moments

    def double_member_3(coeffs, A, d, *args):
        # a chunk with member 3 is formed with every member's rows doubled,
        # so it fails whole; member 3 alone fails too
        if any(rows.tobytes() == bad for rows in A):
            A, d = np.concatenate([A, A], axis=1), np.concatenate([d, d], axis=1)
        return block_moments(coeffs, A, d, *args)

    monkeypatch.setattr(inference, "_block_moments", double_member_3)
    monkeypatch.setattr(inference, "_block_decisions", _accepting_from(2))
    assert not shared_set(coeffs, fam, target, grid, seed=3).is_empty
    monkeypatch.setattr(inference, "_block_decisions", _accepting_from(10))
    with pytest.raises(inference.VertexCapExceeded) as exc:
        shared_set(coeffs, fam, target, grid, seed=3)
    assert exc.value.code == "VERTEX_CAP_EXCEEDED"
