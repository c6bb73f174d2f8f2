"""Least-favorable critical values of a block of members against the
per-member product.

The oracle is the Monte Carlo stage as it ran one member at a time: the
member's draws xi = Z root' (Z the seeded standard normals, root its own
Gaussian root), its profiled statistic per draw (the max over its vertices
of vertices @ xi', or one LP per draw without vertices), and the 1 - kappa
quantile.  ``_prepare_contexts`` computes the vertex path as stacked
(vertices root) Z' products instead; only the rounding may differ.
"""

import warnings

import numpy as np
import pytest

import blockdid.inference as inference
from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.estimators import aggregate
from blockdid.inference import (
    _eta_star_lp,
    _gaussian_root,
    _member_moments,
    _prepare_context,
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
    """The per-member product: max over the vertices of vertices @ xi'."""
    root = _gaussian_root(moments.sigma)
    xi = _standard_normals(seed, draws, root.shape[1]) @ root.T
    if vertices is None:
        eta = [_eta_star_lp(y, moments.X, moments.sd)[0] for y in xi]
    else:
        eta = (vertices @ xi.T).max(axis=0)
    return float(np.quantile(eta, 1.0 - kappa))


def assert_close(got, want):
    # a member whose every draw profiles to -inf has a nan quantile
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (got, want)


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


def check_blocks(rng, designs, draws):
    """Compare ``_prepare_contexts`` on blocks of every design's systems with
    the oracle; count what was covered."""
    seen = {"checked": 0, "lp": 0, "mixed shapes": 0, "covered": set()}
    d = 0
    while d < designs:
        kind = ("rm-global", "rm-cohort", "sd")[d % 3]
        estimator = ("imputation", "csnyt")[(d // 3) % 2]
        systems, covered = design_systems(rng, kind, estimator)
        if not systems:
            continue
        d += 1
        seen["covered"] |= covered | {kind, estimator}
        seed = int(rng.integers(0, 1000))
        for s in range(0, len(systems), BLOCK):
            contexts = _prepare_contexts(systems[s:s + BLOCK], KAPPA, draws, seed)
            for ctx in contexts:
                want = oracle_lf_cv(ctx.moments, ctx.vertices, KAPPA, draws, seed)
                assert_close(ctx.lf_cv, want)
                seen["checked"] += 1
                seen["lp"] += ctx.vertices is None
            shapes = {c.vertices.shape for c in contexts if c.vertices is not None}
            seen["mixed shapes"] += len(shapes) > 1
    return seen


def test_block_critical_values_match_the_per_member_product():
    seen = check_blocks(np.random.default_rng(2024), 102, DRAWS)
    assert seen["checked"] > 800 and seen["mixed shapes"] > 0
    assert seen["covered"] >= {
        "rm-global", "rm-cohort", "sd", "imputation", "csnyt",
        "cohort", "aggregated", True, False,
    }


def test_blocks_mixing_lp_members_match_the_per_member_product(monkeypatch):
    # one member in three is forced onto the LP path, one LP per draw
    calls = {"n": 0}
    dual_vertices = inference._dual_vertices

    def some_on_lp(sd_, X, shared_rays=None):
        calls["n"] += 1
        return None if calls["n"] % 3 == 0 else dual_vertices(sd_, X, shared_rays)

    monkeypatch.setattr(inference, "_dual_vertices", some_on_lp)
    seen = check_blocks(np.random.default_rng(99), 3, 40)
    assert 0 < seen["lp"] < seen["checked"]


def test_a_members_critical_value_does_not_depend_on_its_block():
    rng = np.random.default_rng(7)
    compared = 0
    for estimator in ("imputation", "csnyt"):
        systems = []
        while len(systems) < BLOCK:  # rm-cohort members share one shape
            systems += design_systems(rng, "rm-cohort", estimator)[0]
        contexts = _prepare_contexts(systems[:BLOCK], KAPPA, DRAWS, seed=11)
        for moments, ctx in zip(systems, contexts):
            alone = _prepare_context(moments, KAPPA, DRAWS, seed=11)
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
