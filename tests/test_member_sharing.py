"""Family-level sharing in ``confidence_set`` against the unshared loop.

The oracle below is the loop ``confidence_set`` ran before it shared work
across a family: every member in family order, each with its own moment
system, its own dual-vertex enumeration and its own Monte Carlo stage, and
no member skipped.  ``confidence_set`` enumerates dual rays once per distinct
nuisance system and tests only the family's distinct members (one at
parameter 0); both are exact, so the sets must agree exactly.
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
    _build_moments,
    _decisions,
    _dual_vertices,
    _prepare_context,
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
        moments = _build_moments(coeffs, member, target)
        ctx = _prepare_context(moments, kappa=ALPHA / 10, draws=DRAWS, seed=seed)
        accepted[todo] = ~_decisions(ctx, points[todo], ALPHA)
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
    """Record the X of every ray enumeration and the moments of every
    context that ``confidence_set`` prepares."""
    seen = {"rays": [], "contexts": []}
    cone_rays, prepare = inference._cone_rays, inference._prepare_context

    def count_rays(X):
        seen["rays"].append((X.shape, X.tobytes()))
        return cone_rays(X)

    def count_contexts(moments, *args, **kwargs):
        ctx = prepare(moments, *args, **kwargs)
        seen["contexts"].append(ctx)
        return ctx

    monkeypatch.setattr(inference, "_cone_rays", count_rays)
    monkeypatch.setattr(inference, "_prepare_context", count_contexts)
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

    contexts = counted["contexts"]
    assert len(contexts) == _distinct_members(fam)
    if mbar == 0.0:
        assert len(contexts) == 1 < fam.member_count
    else:
        assert len(contexts) == fam.member_count  # no two members are equal
    assert all(ctx.vertices is not None for ctx in contexts)  # vertex path
    xs = {(c.moments.X.shape, c.moments.X.tobytes()) for c in contexts}
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
    counted["contexts"].clear()

    assert shared_set(coeffs, pair, target, grid, seed=3).intervals == want
    tested = [ctx.moments for ctx in counted["contexts"]]
    assert len(tested) == 2
    assert not np.array_equal(tested[0].a0, tested[1].a0)

    # at parameter 0 their bounds coincide: one polyhedron, one test
    counted["contexts"].clear()
    zero = replace(pair, parameter=0.0)
    assert np.array_equal(zero.member(0).A, zero.member(1).A)
    want = runs(grid.points(), unshared_accepted(coeffs, zero, target, grid, 3))
    assert shared_set(coeffs, zero, target, grid, seed=3).intervals == want
    assert len(counted["contexts"]) == 1


def test_nuisance_systems_of_one_shape_get_their_own_rays(toy_system, counted):
    coeffs, layout, bm, target = toy_system
    first = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.7), bm).member(0)
    scale = np.ones(len(first.d))
    scale[0] = 2.0  # moves the column space of the nuisance loadings
    scaled = replace(first, A=first.A * scale[:, None])
    systems = [_build_moments(coeffs, m, target) for m in (first, scaled, first)]
    assert systems[0].X.shape == systems[1].X.shape
    assert not np.array_equal(systems[0].X, systems[1].X)

    shared = {}
    got = [_dual_vertices(m.sd, m.X, shared) for m in systems]
    assert len(shared) == 2  # one enumeration per X, the repeat reuses it
    assert len(set(counted["rays"])) == len(counted["rays"]) == 2
    for m, vertices in zip(systems, got):
        alone = _dual_vertices(m.sd, m.X)
        assert vertices is not None and vertices.tobytes() == alone.tobytes()
