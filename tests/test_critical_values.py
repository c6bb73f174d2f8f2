"""Least-favorable critical values of a block of members against the
per-member product.

The oracle is the Monte Carlo stage as it ran one member at a time: the
member's draws xi = Z root' (Z the seeded standard normals in stream order,
root its own
Gaussian root), its profiled statistic per draw (the max over its vertices
of vertices @ xi', or the profiling LP per draw for a member without
vertices), and the 1 - kappa quantile.  ``_critical_values`` computes the
statistic of a whole block as stacked (vertices root) Z' products instead;
only the rounding may differ.
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
    _block_moments,
    _column_space,
    _cone_rays,
    _critical_values,
    _gaussian_root,
    _reduced_rows,
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
from oracles import _eta_star_lp, seeded_normals, take

BUILDERS = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}
W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}
DESIGN = {
    "rm-global": dict(max_n=30, max_t=6, max_g=3, min_pre=1),
    "rm-cohort": dict(max_n=30, max_t=5, max_g=2, min_pre=2),
    "sd": dict(max_n=30, max_t=7, max_g=3, min_pre=2),
}
KAPPA, DRAWS = 0.005, 500
BLOCK = 16


def oracle_lf_cv(block, i, kappa, draws, seed):
    """The per-member product of member i of a block: max over its vertices
    of vertices @ xi', or the profiling LP per draw for a member without
    vertices."""
    root = _gaussian_root(block.sigma[i])
    xi = seeded_normals(seed, draws, root.shape[1]) @ root.T
    if block.vertices.shape[1]:
        eta = (block.vertices[i] @ xi.T).max(axis=0)
    else:
        eta = np.array([_eta_star_lp(y, block.X, block.sd[i]) for y in xi])
    if np.all(eta == -np.inf):  # np.quantile would interpolate to nan
        return -np.inf
    return float(np.quantile(eta, 1.0 - kappa))


def assert_close(got, want):
    if np.isinf(want):
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (got, want)


def with_empty_cone(block):
    """The block with its first member's sd added to the nuisance loadings:
    sd'lam = 0 then forces lam = 0 (every sd is positive), so the cone
    {lam >= 0 : X'lam = 0} is {0} and no member has a vertex."""
    X = _column_space(np.column_stack([block.X, block.sd[0]]))
    rays = _cone_rays(X)
    assert rays.shape == (0, len(X))
    return dataclasses.replace(block, X=X, vertices=block.vertices[:, :0])


def chunk_blocks(coeffs, family, basis, chunk):
    """The blocks of the members ``chunk`` formed at once, as
    ``confidence_set`` forms them; member by member, leaving out those that
    cannot be tested, when the chunk cannot be formed whole."""
    memo = {}

    def form(members):
        rows = family.member_rows(members)
        A, d = _reduced_rows(*rows, coeffs.cells, coeffs.positions)
        return _block_moments(coeffs, A, d, basis, memo)

    try:
        return form(chunk)
    except inference.InferenceError:
        blocks = []
        for i in chunk:
            try:
                blocks += form([i])
            except inference.InferenceError:
                continue
        return blocks


def design_chunks(rng, kind, estimator):
    """The blocks of one chunk of up to ``BLOCK`` distinct members of every
    family variant on one random design, in both frameworks, a list per
    chunk; with what they cover."""
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
    chunks, covered = [], set()
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
            blocks = chunk_blocks(coe, fam, basis, fam.distinct[:BLOCK])
            if blocks:
                chunks.append(blocks)
                covered |= {framework, fam.normalized}
    return chunks, covered


def members(blocks):
    return sum(len(b.sd) for b in blocks)


def every_nth_cone_empty(chunk, n):
    """The chunk's blocks cut so that every nth member is a block of its own
    with an empty cone (``with_empty_cone``), between runs of n - 1 members
    that keep their vertices."""
    out = []
    for block in chunk:
        for s in range(0, len(block.sd), n):
            out.append(take(block, slice(s, s + n - 1)))
            if s + n - 1 < len(block.sd):
                out.append(with_empty_cone(take(block, [s + n - 1])))
    return out


def check_blocks(rng, designs, draws, empty_every=0):
    """Compare ``_critical_values`` on the blocks of every design's chunks
    with the oracle; count what was covered.  With ``empty_every`` = n, every
    nth member of a chunk is a block with an empty cone
    (``every_nth_cone_empty``), and such a member must accept every point of
    a wide grid that its deterministic rows allow."""
    seen = dict.fromkeys(["checked", "empty", "shared", "deterministic", "mixed"], 0)
    seen["covered"] = set()
    points = np.linspace(-100.0, 100.0, 41)
    d = 0
    while d < designs:
        kind = ("rm-global", "rm-cohort", "sd")[d % 3]
        estimator = ("imputation", "csnyt")[(d // 3) % 2]
        chunks, covered = design_chunks(rng, kind, estimator)
        if not chunks:
            continue
        if empty_every:
            chunks = [every_nth_cone_empty(chunk, empty_every) for chunk in chunks]
        d += 1
        seen["covered"] |= covered | {kind, estimator}
        seed = int(rng.integers(0, 1000))
        for chunk in chunks:
            for block in chunk:
                lf_cv = _critical_values(block, KAPPA, draws, seed)
                for i, cv in enumerate(lf_cv):
                    assert_close(cv, oracle_lf_cv(block, i, KAPPA, draws, seed))
                    seen["checked"] += 1
                if block.vertices.shape[1] == 0:
                    assert (lf_cv == -np.inf).all()
                    det = block.det_a0[:, :, None] - block.det_a1[:, :, None] * points
                    allowed = ~(det > block.det_tol[:, :, None]).any(axis=1)
                    reject = _block_decisions(block, points, 0.05, KAPPA, draws, seed)
                    assert not reject[allowed].any()
                    seen["empty"] += len(block.sd)
                seen["shared"] += len(block.sd) > 1
                seen["deterministic"] += block.det_a0.shape[1] > 0
            seen["mixed"] += len({b.vertices.shape[1] == 0 for b in chunk}) > 1
    return seen


def test_block_critical_values_match_the_per_member_product():
    seen = check_blocks(np.random.default_rng(2024), 102, DRAWS)
    assert seen["checked"] > 800
    assert seen["shared"] > 0 and seen["deterministic"] > 0
    assert seen["covered"] >= {
        "rm-global", "rm-cohort", "sd", "imputation", "csnyt",
        "cohort", "aggregated", True, False,
    }


def test_blocks_mixing_members_with_an_empty_cone_match_the_per_member_product():
    # one member in three of every chunk is a block without a dual vertex:
    # its profiled statistic is -inf at every draw (the LP oracle is
    # unbounded), so its critical value is -inf, with no nan quantile and no
    # warning, while the chunk's other blocks keep theirs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seen = check_blocks(np.random.default_rng(99), 3, 40, empty_every=3)
    assert 0 < seen["empty"] < seen["checked"]
    assert seen["mixed"] > 0


def test_a_members_critical_value_does_not_depend_on_its_block():
    rng = np.random.default_rng(7)
    compared, shared = 0, 0
    for estimator in ("imputation", "csnyt"):
        blocks = []
        while members(blocks) < BLOCK:
            chunks = design_chunks(rng, "rm-cohort", estimator)[0]
            blocks += [block for chunk in chunks for block in chunk]
        for block in blocks:
            lf_cv = _critical_values(block, KAPPA, DRAWS, seed=11)
            for i, cv in enumerate(lf_cv):
                alone = _critical_values(take(block, [i]), KAPPA, DRAWS, seed=11)
                assert_close(cv, alone[0])
                compared += 1
            shared += len(block.sd) > 1
    assert compared >= 2 * BLOCK and shared > 0


@pytest.mark.parametrize("chunk", [1, 37, 1000])
def test_chunked_product_matches_the_oracle(monkeypatch, chunk):
    # chunks smaller than one draw's column, ragged and whole; unscreened and
    # screened, where every other member's c lies above its critical value,
    # which may take it out of the product, and every other one's below it,
    # which must keep it
    monkeypatch.setattr(inference, "_MC_CHUNK_VALUES", chunk)
    rng = np.random.default_rng(5)
    blocks = []
    while members(blocks) < 4:
        chunks = design_chunks(rng, "rm-global", "imputation")[0]
        blocks += [block for chunk in chunks for block in chunk]
    out, kept = 0, 0
    for block in blocks:
        want = [oracle_lf_cv(block, i, KAPPA, 301, 3) for i in range(len(block.sd))]
        above = np.where(np.arange(len(want)) % 2, -1.0, 1.0)
        for screened in (False, True):
            c = np.array(want) + above if screened else np.full(len(want), -np.inf)
            lf_cv = _critical_values(block, KAPPA, 301, 3, c)
            for i, (cv, w) in enumerate(zip(lf_cv, want)):
                if screened and cv == -np.inf and w != -np.inf:
                    assert w < c[i]
                    out += 1
                else:
                    assert_close(cv, w)
                    kept += screened and w != -np.inf
    assert out > 0 and kept > 0
