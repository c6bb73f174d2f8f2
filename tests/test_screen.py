"""The stage-one screen of ``_critical_values`` against the unscreened path.

Given c, each member's smallest stage-one statistic at the open points,
``_critical_values`` gives the members that cannot accept one of them at
stage one the critical value -inf, so that they reject every open point
there.  A member leaves the Monte Carlo product, or never enters it, only
once fewer than draws - hi of its draws can still reach c (hi the upper
order statistic of the quantile).  So its unscreened critical value must lie below c, the kept
members' critical values must not change, and neither may any set or
``hybrid_test`` decision.  The unscreened reference is the same call with
c = -inf, which no draw misses.
"""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.biasmap import build_w_imputation, invert
from blockdid.inference import (
    _block_decisions,
    _critical_values,
    _target_basis,
    confidence_set,
    hybrid_test,
    overall_att_target,
)
from blockdid.panel import build_layout
from blockdid.restrictions import map_to_delta_space, rm_cohort
from blockdid.simgen import DGPSpec, Violation, gen_custom
from blockdid.vcov import BootstrapSpec, bootstrap_vcov

from conftest import random_spec
from oracles import decisions, member_block
from test_block_decisions import DESIGN, crossing_points, tied_vertex_block
from test_critical_values import KAPPA, assert_close, design_chunks
from test_member_sharing import BUILDERS, _systems, _wide_grid, shared_set


def smallest_statistic(block, points):
    """c: each member's smallest eta* at the points its deterministic rows
    do not reject (+inf if they reject all), one member at a time."""
    out = []
    for i, vertices in enumerate(block.vertices):
        y = block.a0[i][:, None] - np.outer(block.a1[i], points)
        eta = (vertices @ y).max(axis=0)
        det = block.det_a0[i][:, None] - np.outer(block.det_a1[i], points)
        rejected = (det > block.det_tol[i][:, None]).any(axis=0)
        out.append(np.where(rejected, np.inf, eta).min())
    return np.array(out)


def screened_designs(draws, designs=16):
    """Blocks with vertices from random rm-global and rm-cohort designs, each
    with a seed and, in turn, three sets of open points: points around its
    moments' sign changes, their upper half (as when the lower ones were
    accepted), and their outer quarters."""
    rng = np.random.default_rng(draws)
    for d in range(designs):
        kind = ("rm-global", "rm-cohort")[d % 2]
        chunks, _ = design_chunks(rng, kind, ("imputation", "csnyt")[d // 2 % 2])
        for block in (b for chunk in chunks for b in chunk):
            if block.vertices.shape[1]:
                points = crossing_points([block], n=41)
                tails = np.r_[points[:10], points[-10:]]
                for open_points in (points, points[20:], tails):
                    yield block, open_points, d


def screen_violations(block, points, draws, seed):
    """Screened-out members whose unscreened critical value is not below
    their c, the screened-out and kept counts, and the critical values of
    the kept members, screened and unscreened."""
    c = smallest_statistic(block, points)
    screened = _critical_values(block, KAPPA, draws, seed, c)
    full = _critical_values(block, KAPPA, draws, seed)
    out = screened == -np.inf
    bad = int((full[out] >= c[out]).sum())
    return bad, int(out.sum()), int((~out).sum()), screened[~out], full[~out]


@pytest.mark.parametrize("draws", [301, 500])
def test_screened_out_members_reject_every_open_point_and_kept_ones_keep_their_values(
    draws,
):
    screened, kept = 0, 0
    for block, points, seed in screened_designs(draws):
        bad, out, left, got, want = screen_violations(block, points, draws, seed)
        assert bad == 0, seed
        for g, w in zip(got, want):
            assert_close(g, w)
        screened, kept = screened + out, kept + left
    assert screened > 20 and kept > 20


def test_a_member_stays_while_its_reachable_draws_ahead_can_still_reach_c(
    monkeypatch,
):
    # one draw a chunk; member 0's c leaves it only its nine largest-norm
    # draws, so the members are first counted after seven or eight.  Every
    # other member's c lies just below its critical value, which it must
    # keep, though few of its draws that reach c come that early
    monkeypatch.setattr(inference, "_MC_CHUNK_VALUES", 1)
    kept = 0
    for draws in (301, 500):
        for block, _, seed in screened_designs(draws, designs=6):
            n, nv, m = block.vertices.shape
            if n < 2:
                continue
            full = _critical_values(block, KAPPA, draws, seed)
            neg = inference._standard_normals(seed, draws, m)[1]
            P = block.vertices[0] @ inference._gaussian_root(block.sigma[0])
            c = np.nextafter(full, -np.inf)
            c[0] = -neg[8] * np.linalg.norm(P, axis=1).max()
            got = _critical_values(block, KAPPA, draws, seed, c)
            for g, w in zip(got[1:], full[1:]):
                assert_close(g, w)
            kept += n - 1
    assert kept > 20


def test_without_its_rounding_margin_and_with_half_the_norm_bound_the_screen_fails(
    monkeypatch,
):
    """Mutation check: the soundness check above sees an unsound screen."""
    normals = inference._standard_normals

    def half_the_bound(seed, draws, dim):
        z, neg = normals(seed, draws, dim)
        return z, neg / 2.0

    monkeypatch.setattr(inference, "_SCREEN_MARGIN", 0.0)
    monkeypatch.setattr(inference, "_standard_normals", half_the_bound)
    bad = sum(
        screen_violations(block, points, draws, seed)[0]
        for draws in (301, 500)
        for block, points, seed in screened_designs(draws)
    )
    assert bad > 0


class CountedNormals(np.ndarray):
    """Monte Carlo draws that record, in ``seen``, the (rows, draws) of
    every product they enter."""

    def __array_finalize__(self, obj):
        self.seen = getattr(obj, "seen", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.seen.append((inputs[0].shape[0], inputs[1].shape[-1]))
        inputs = tuple(np.asarray(x) for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def count_products(monkeypatch):
    """The (rows, draws) of every Monte Carlo product, as they are formed."""
    seen, normals = [], inference._standard_normals

    def counted(seed, draws, dim):
        z, neg = normals(seed, draws, dim)
        z = z.view(CountedNormals)
        z.seen = seen
        return z, neg

    monkeypatch.setattr(inference, "_standard_normals", counted)
    return seen


def screening(monkeypatch, out):
    """``_critical_values`` as it is, appending to ``out`` how many members
    of each block with vertices it screens out."""
    critical_values = inference._critical_values

    def counted(block, kappa, draws, seed, c=-np.inf):
        lf_cv = critical_values(block, kappa, draws, seed, c)
        if block.vertices.shape[1]:
            out.append(int((lf_cv == -np.inf).sum()))
        return lf_cv

    monkeypatch.setattr(inference, "_critical_values", counted)


def unscreened(monkeypatch):
    """``_critical_values`` at its default c = -inf, whatever stage one reads."""
    critical_values = inference._critical_values

    def without_c(block, kappa, draws, seed, c=-np.inf):
        return critical_values(block, kappa, draws, seed)

    monkeypatch.setattr(inference, "_critical_values", without_c)


@pytest.mark.parametrize("kind", ["rm-global", "rm-cohort"])
def test_sets_equal_those_without_the_screen_at_any_block_size(monkeypatch, kind):
    rng = np.random.default_rng({"rm-global": 51, "rm-cohort": 52}[kind])
    out = []
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
            for size in (1, inference._MEMBER_BLOCK, fam.member_count):
                monkeypatch.setattr(inference, "_MEMBER_BLOCK", size)
                with monkeypatch.context() as patched:
                    screening(patched, out)
                    got = shared_set(coeffs, fam, target, grid, seed)
                with monkeypatch.context() as patched:
                    unscreened(patched)
                    want = shared_set(coeffs, fam, target, grid, seed)
                assert got.intervals == want.intervals, (kind, i, size)
            monkeypatch.undo()
            checked += 1
    assert checked == 3
    assert sum(out) > 0


@pytest.mark.parametrize("kind", ["rm-global", "rm-cohort"])
def test_hybrid_test_decisions_equal_those_without_the_screen(monkeypatch, kind):
    rng = np.random.default_rng({"rm-global": 61, "rm-cohort": 62}[kind])
    out = []
    checked, i, decided = 0, 0, []
    while checked < 2 and i < 20:
        i += 1
        panel = gen_custom(random_spec(rng, **DESIGN[kind])).panel
        seed = int(rng.integers(0, 1000))
        estimator = ("imputation", "csnyt")[i % 2]
        for _, coeffs, layout, bm, target in _systems(panel, estimator, seed)[:1]:
            block = BUILDERS[kind](layout, coeffs.cells, float(rng.uniform(0.2, 1.2)))
            fam = map_to_delta_space(block, bm)
            basis = _target_basis(coeffs, target)
            for m in range(0, fam.member_count, max(1, fam.member_count // 3)):
                member = fam.member(m)
                points = crossing_points([member_block(coeffs, member, basis)], n=15)
                test = functools.partial(
                    hybrid_test, coeffs, member, target, draws=301, seed=seed
                )
                for theta0 in points:
                    with monkeypatch.context() as patched:
                        screening(patched, out)
                        got = test(theta0)
                    with monkeypatch.context() as patched:
                        unscreened(patched)
                        assert got == test(theta0), (kind, i, m, theta0)
                    decided.append(got)
            checked += 1
    assert checked == 2
    assert 0 < sum(decided) < len(decided)  # rejections and acceptances
    assert sum(out) > 0 and len(out) > sum(out)  # members screened and kept


def test_a_member_whose_deterministic_rows_reject_every_open_point_gets_no_draws(
    monkeypatch,
):
    # member 0's deterministic row reads 1 at every point, so c is +inf for
    # it; member 1 has no deterministic rejection and keeps its stage one
    block = dataclasses.replace(
        tied_vertex_block(), det_a0=np.array([[1.0], [0.0]]),
        det_a1=np.zeros((2, 1)), det_tol=np.full((2, 1), 1e-8),
    )
    full = _critical_values(block, KAPPA, 300, 0)
    seen = {"c": []}
    critical_values = inference._critical_values

    def record_c(block, kappa, draws, seed, c):
        seen["c"].append(c)
        return critical_values(block, kappa, draws, seed, c)

    monkeypatch.setattr(inference, "_critical_values", record_c)
    products = count_products(monkeypatch)
    points = np.linspace(-3.9, 3.9, 27)
    got = _block_decisions(block, points, 0.05, KAPPA, 300, 0)
    ((c0, c1),) = seen["c"]
    assert c0 == np.inf and c1 < np.inf
    # every product row is one of member 1's vertices
    nv = block.vertices.shape[1]
    assert products and all(rows == nv for rows, _ in products)
    assert got[0].all()
    assert np.array_equal(got[1], decisions(block, 1, full[1], points, 0.05, KAPPA))


def test_the_screen_cuts_the_monte_carlo_rows_on_a_c12_shaped_family(monkeypatch):
    # three cohorts adopting at 4, 6 and 7 of T = 7 under linear trends and
    # little noise, as in the criterion-12 design: 320 rm-cohort members
    panel = gen_custom(DGPSpec(
        T=7, cohorts=((4, 12), (6, 20), (7, 40)), never_size=60, noise_sd=0.1,
        violations=tuple(Violation("linear", a) for a in (0.03, 0.02, -0.015)),
        effect=-0.05, seed=12,
    )).panel
    layout = build_layout(panel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coeffs = bootstrap_vcov(panel, BootstrapSpec(100, 12, "imputation"))
    bias_map = invert(build_w_imputation(layout, coeffs.cells))
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.5), bias_map)
    assert fam.member_count == 320
    seen = {"members": 0, "vertex_values": 0, "kept": 0}
    critical_values = inference._critical_values
    row_quantiles = inference._row_quantiles

    def count_members(block, kappa, draws, *args):
        seen["members"] += len(block.sd)
        seen["vertex_values"] += len(block.sd) * block.vertices.shape[1] * draws
        return critical_values(block, kappa, draws, *args)

    def count_kept(eta, q):
        seen["kept"] += len(eta)
        return row_quantiles(eta, q)

    monkeypatch.setattr(inference, "_critical_values", count_members)
    monkeypatch.setattr(inference, "_row_quantiles", count_kept)
    products = count_products(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the grid boundary
        cset = confidence_set(
            coeffs, fam, overall_att_target(layout, coeffs.cells), draws=1000, seed=12
        )
    assert not cset.is_empty
    assert 0 < seen["kept"] < seen["members"]
    # the product's row-draw values, against members x vertices x draws
    assert 0 < sum(rows * draws for rows, draws in products) < seen["vertex_values"]
