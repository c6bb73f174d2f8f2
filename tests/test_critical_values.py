"""Least-favorable critical values of a block of members against the
per-member product.

The oracle is the Monte Carlo stage as it ran one member at a time: the
member's draws xi = Z root' (Z the seeded standard normals, root its own
Gaussian root), its profiled statistic per draw (the max over its vertices
of vertices @ xi', or the profiling LP per draw for a member without
vertices), and the 1 - kappa quantile.  ``_prepare_contexts`` computes the
statistic as stacked (vertices root) Z' products instead; only the rounding
may differ.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.estimators import aggregate
from blockdid.inference import (
    _block_decisions,
    _column_space,
    _gaussian_root,
    _member_moments,
    _prepare_contexts,
    _standard_normals,
    _target_basis,
    aggregated_att_target,
    aggregated_system,
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
from test_plugin_oracle import _eta_star_lp

BUILDERS = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}
W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}
DESIGN = {
    "rm-global": dict(max_n=30, max_t=6, max_g=3, min_pre=1),
    "rm-cohort": dict(max_n=30, max_t=5, max_g=2, min_pre=2),
    "sd": dict(max_n=30, max_t=7, max_g=3, min_pre=2),
}
KAPPA, DRAWS = 0.005, 500
BLOCK = 16


def oracle_lf_cv(moments, vertices, kappa, draws, seed):
    """The per-member product: max over the vertices of vertices @ xi', or
    the profiling LP per draw for a member without vertices."""
    root = _gaussian_root(moments.sigma)
    xi = _standard_normals(seed, draws, root.shape[1]) @ root.T
    if len(vertices):
        eta = (vertices @ xi.T).max(axis=0)
    else:
        eta = np.array([_eta_star_lp(y, moments.X, moments.sd) for y in xi])
    if np.all(eta == -np.inf):  # np.quantile would interpolate to nan
        return -np.inf
    return float(np.quantile(eta, 1.0 - kappa))


def assert_close(got, want):
    if np.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (got, want)


def with_empty_cone(moments):
    """The system with sd added to its nuisance loadings: sd'lam = 0 then
    forces lam = 0, so the cone {lam >= 0 : X'lam = 0} is {0}."""
    X = _column_space(np.column_stack([moments.X, moments.sd]))
    return dataclasses.replace(moments, X=X)


def design_systems(rng, kind, estimator):
    """Moment systems of up to ``BLOCK`` distinct members of every family
    variant on one random design, in both frameworks; with what they cover."""
    panel = gen_custom(random_spec(rng, **DESIGN[kind])).panel
    layout = build_layout(panel)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singleton strata in small designs
        spec = BootstrapSpec(30, int(rng.integers(1000)), estimator)
        coeffs = bootstrap_vcov(panel, spec)
    bm = invert(W_BUILDERS[estimator](layout, coeffs.cells))
    agg = aggregate(coeffs, layout)
    alay, acells, acoe, amap = aggregated_system(agg)
    frameworks = [
        ("cohort", coeffs, layout, bm, overall_att_target(layout, coeffs.cells)),
        ("aggregated", acoe, alay, amap, aggregated_att_target(agg, acells)),
    ]
    systems, covered = [], set()
    param = float(rng.choice([0.0, rng.uniform(0.1, 1.5)]))
    for framework, coe, lay, W, target in frameworks:
        try:
            block = BUILDERS[kind](lay, coe.cells, param)
        except NoPreDifferences:
            continue
        variants = [block]
        if estimator == "imputation":
            variants.append(with_normalization(block, lay))
        basis = _target_basis(coe, target)
        for fam in variants:
            fam = map_to_delta_space(fam, W)
            for i in fam.distinct[:BLOCK]:
                try:
                    systems.append(_member_moments(coe, fam.member(i), *basis))
                except inference.InferenceError:
                    continue
                covered |= {framework, fam.normalized}
    return systems, covered


def check_blocks(rng, designs, draws, empty_every=0):
    """Compare ``_prepare_contexts`` on blocks of every design's systems with
    the oracle; count what was covered.  With ``empty_every`` = n, every nth
    system gets an empty cone (``with_empty_cone``), and such a member must
    accept every point of a wide grid that its deterministic rows allow."""
    seen = {"checked": 0, "empty": 0, "mixed shapes": 0, "covered": set()}
    points = np.linspace(-100.0, 100.0, 41)
    d = 0
    while d < designs:
        kind = ("rm-global", "rm-cohort", "sd")[d % 3]
        estimator = ("imputation", "csnyt")[(d // 3) % 2]
        systems, covered = design_systems(rng, kind, estimator)
        if not systems:
            continue
        if empty_every:
            systems = [
                with_empty_cone(m) if j % empty_every == empty_every - 1 else m
                for j, m in enumerate(systems)
            ]
        d += 1
        seen["covered"] |= covered | {kind, estimator}
        seed = int(rng.integers(0, 1000))
        for s in range(0, len(systems), BLOCK):
            contexts = _prepare_contexts(systems[s:s + BLOCK], KAPPA, draws, seed)
            for ctx in contexts:
                want = oracle_lf_cv(ctx.moments, ctx.vertices, KAPPA, draws, seed)
                assert_close(ctx.lf_cv, want)
                seen["checked"] += 1
                if len(ctx.vertices) == 0:
                    assert ctx.lf_cv == -np.inf
                    mom = ctx.moments
                    det = mom.det_a0[:, None] - np.outer(mom.det_a1, points)
                    allowed = ~(det > mom.det_tol[:, None]).any(axis=0)
                    assert not _block_decisions([ctx], points, 0.05)[0, allowed].any()
                    seen["empty"] += 1
            shapes = {c.vertices.shape for c in contexts if len(c.vertices)}
            seen["mixed shapes"] += len(shapes) > 1
    return seen


def test_block_critical_values_match_the_per_member_product():
    seen = check_blocks(np.random.default_rng(2024), 102, DRAWS)
    assert seen["checked"] > 800 and seen["mixed shapes"] > 0
    assert seen["covered"] >= {
        "rm-global", "rm-cohort", "sd", "imputation", "csnyt",
        "cohort", "aggregated", True, False,
    }


def test_blocks_mixing_members_with_an_empty_cone_match_the_per_member_product():
    # one member in three has no dual vertex: its profiled statistic is -inf
    # at every draw (the LP oracle is unbounded), so its critical value is
    # -inf, with no nan quantile and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen = check_blocks(np.random.default_rng(99), 3, 40, empty_every=3)
    assert 0 < seen["empty"] < seen["checked"]


def test_a_members_critical_value_does_not_depend_on_its_block():
    rng = np.random.default_rng(7)
    compared = 0
    for estimator in ("imputation", "csnyt"):
        systems = []
        while len(systems) < BLOCK:  # rm-cohort members share one shape
            systems += design_systems(rng, "rm-cohort", estimator)[0]
        contexts = _prepare_contexts(systems[:BLOCK], KAPPA, DRAWS, seed=11)
        for moments, ctx in zip(systems, contexts):
            alone = _prepare_contexts([moments], KAPPA, DRAWS, seed=11)[0]
            assert_close(ctx.lf_cv, alone.lf_cv)
            compared += 1
    assert compared == 2 * BLOCK


@pytest.mark.parametrize("chunk", [1, 37, 1000])
def test_chunked_product_matches_the_oracle(monkeypatch, chunk):
    # chunks smaller than one draw's column, ragged and whole
    monkeypatch.setattr(inference, "_MC_CHUNK_VALUES", chunk)
    rng = np.random.default_rng(5)
    systems = []
    while len(systems) < 4:
        systems += design_systems(rng, "rm-global", "imputation")[0]
    for ctx in _prepare_contexts(systems, KAPPA, 301, seed=3):
        want = oracle_lf_cv(ctx.moments, ctx.vertices, KAPPA, 301, seed=3)
        assert_close(ctx.lf_cv, want)
