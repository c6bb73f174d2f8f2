import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import optimize as sciopt
from scipy import stats as scistats

from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.estimators import CoefficientSet, aggregate, estimate
from blockdid.inference import (
    GridSpec,
    InvalidDraws,
    InvalidGrid,
    _build_moments,
    _dual_vertices,
    _eta_star_lp,
    _HybridContext,
    _prepare_context,
    _standard_normals,
    _test_point,
    _truncnorm_quantile,
    aggregated_att_target,
    aggregated_system,
    by_period_sets,
    by_period_target,
    confidence_set,
    corrected_point,
    custom_target,
    default_grid,
    hybrid_test,
    overall_att_target,
    plugin_identified_set,
)
from blockdid.panel import build_cell_index, build_layout, load_panel
from blockdid.restrictions import (
    Polyhedron,
    map_to_delta_space,
    rm_cohort,
    rm_global,
    sd,
    with_normalization,
)
from blockdid.simgen import DGPSpec, gen_custom, gen_toy
from blockdid.vcov import BootstrapSpec, bootstrap_vcov

from conftest import random_panel
from test_panel import grid_csv
from test_plugin_oracle import UnboundedProgram, lp_union, member_bounds


# ---------------------------------------------------------------------------
# two-cohort illustration: one clean cohort, one with an oscillating pre path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_cohort_system():
    units = [("g", "3"), ("b", "5"), ("n", "never")]
    layout = build_layout(load_panel(grid_csv(units, T=6)))
    cells = build_cell_index(layout, 6, "imputation")
    values = np.zeros(12)
    values[cells.position(5, -3)] = -0.25
    values[cells.position(5, -2)] = 0.25
    coeffs = CoefficientSet(
        "imputation", cells, np.arange(12), values, np.eye(12) * 0.1
    )
    bm = invert(build_w_imputation(layout, cells))
    return layout, cells, coeffs, bm


def theta_target(cells, w):
    weights = np.zeros(len(cells))
    weights[cells.position(3, 1)] = w
    weights[cells.position(5, 1)] = 1.0 - w
    return custom_target(cells, weights, f"theta({w})")


def test_bad_cohort_interval_and_good_cohort_point(two_cohort_system):
    layout, cells, coeffs, bm = two_cohort_system
    fam = map_to_delta_space(rm_cohort(layout, cells, 1.0), bm)
    bad = plugin_identified_set(coeffs, fam, theta_target(cells, 0.0))
    assert bad.lo == pytest.approx(-0.5, abs=1e-8)
    assert bad.hi == pytest.approx(0.5, abs=1e-8)
    good = plugin_identified_set(coeffs, fam, theta_target(cells, 1.0))
    assert good.lo == pytest.approx(0.0, abs=1e-8)
    assert good.hi == pytest.approx(0.0, abs=1e-8)


def test_global_constant_cohort_shrinks_in_weight(two_cohort_system):
    layout, cells, coeffs, bm = two_cohort_system
    fam_c = map_to_delta_space(rm_cohort(layout, cells, 1.0), bm)
    fam_g = map_to_delta_space(rm_global(layout, cells, 1.0), bm)
    widths = []
    for w in np.linspace(0, 1, 5):
        sc = plugin_identified_set(coeffs, fam_c, theta_target(cells, w))
        sg = plugin_identified_set(coeffs, fam_g, theta_target(cells, w))
        assert sg.lo == pytest.approx(-0.5, abs=1e-8)
        assert sg.hi == pytest.approx(0.5, abs=1e-8)
        assert sg.covers(sc, tol=1e-8)
        widths.append(sc.hi - sc.lo)
        assert sc.hi == pytest.approx(0.5 * (1 - w), abs=1e-8)
    assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))


# ---------------------------------------------------------------------------
# plug-in programs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def boot_toy(toy_sim):
    panel = toy_sim.panel
    layout = build_layout(panel)
    coeffs = bootstrap_vcov(panel, BootstrapSpec(120, 21, "imputation"))
    bm = invert(build_w_imputation(layout, coeffs.cells))
    return layout, coeffs, bm


def test_rm_zero_plugin_is_direct_point(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(rm_global(layout, cells, 0.0), bm)
    target = overall_att_target(layout, cells)
    plug = plugin_identified_set(coeffs, fam, target)
    # independent route: post path frozen at each cohort's last pre value
    block = np.zeros(len(cells))
    for p in range(len(cells)):
        c = cells.cell(p)
        block[p] = coeffs.value(c.cohort_time, 0 if c.post else c.rel)
    overall = bm.W @ block
    post = np.array([cells.cell(p).post for p in coeffs.positions])
    l_vec = target.weights[coeffs.positions]
    want = l_vec @ coeffs.values - l_vec[post] @ overall[coeffs.positions][post]
    assert plug.lo == pytest.approx(want, abs=1e-8)
    assert plug.hi == pytest.approx(want, abs=1e-8)
    assert corrected_point(coeffs, "rm-global", bm, target) == pytest.approx(
        want, abs=1e-12
    )


def test_plugin_lp_duality(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.25), bm)
    target = overall_att_target(layout, cells)
    member = fam.members[0]
    n = len(coeffs.positions)
    pre = np.array([cells.cell(p).pre for p in coeffs.positions])
    A_eq = np.eye(n)[pre]
    b_eq = coeffs.values[pre]
    l_vec = target.weights[coeffs.positions]
    res = sciopt.linprog(
        l_vec, A_ub=member.A, b_ub=member.d, A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * n, method="highs",
    )
    assert res.success
    dual = res.ineqlin.marginals @ member.d + res.eqlin.marginals @ b_eq
    assert abs(dual - res.fun) < 1e-8


def test_nesting_rm_cohort_inside_global(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    for mbar in (0.3, 0.8):
        sc = plugin_identified_set(
            coeffs, map_to_delta_space(rm_cohort(layout, cells, mbar), bm), target
        )
        sg = plugin_identified_set(
            coeffs, map_to_delta_space(rm_global(layout, cells, mbar), bm), target
        )
        assert sg.lo <= sc.lo + 1e-9
        assert sc.hi <= sg.hi + 1e-9


def test_plugin_sets_monotone_in_parameter(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    prev = None
    for m in (0.0, 0.4, 0.8):
        cur = plugin_identified_set(
            coeffs, map_to_delta_space(sd(layout, cells, m), bm), target
        )
        if prev is not None:
            assert cur.covers(prev, tol=1e-9)
        prev = cur


def test_normalization_leaves_plugin_unchanged(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    fam = rm_global(layout, cells, 0.5)
    plain = plugin_identified_set(coeffs, map_to_delta_space(fam, bm), target)
    normed = plugin_identified_set(
        coeffs,
        map_to_delta_space(with_normalization(fam, layout), bm),
        target,
    )
    assert plain.lo == pytest.approx(normed.lo, abs=1e-8)
    assert plain.hi == pytest.approx(normed.hi, abs=1e-8)


# ---------------------------------------------------------------------------
# hybrid test
# ---------------------------------------------------------------------------


def one_moment_system():
    from blockdid.panel import CellIndex

    # one cohort adopting at t=2 of T=2: cells (g2, s0) and (g2, s+1)
    cells = CellIndex(times=(2,), n_periods=2, estimator="imputation")
    member = Polyhedron(A=np.array([[0.0, 1.0]]), d=np.array([0.0]))
    target = custom_target(cells, np.array([0.0, 1.0]), "post")
    return cells, member, target


def hybrid_oracle_one_moment(stat, alpha, kappa):
    """Closed-form hybrid decision for a single nonpositivity moment."""
    z_k = scistats.norm.ppf(1 - kappa)
    alpha_mod = (alpha - kappa) / (1 - kappa)
    cval = max(0.0, scistats.norm.ppf((1 - alpha_mod) * scistats.norm.cdf(z_k)))
    return stat > z_k or stat > cval


def test_hybrid_matches_one_moment_oracle():
    cells, member, target = one_moment_system()
    for b in (-1.0, 0.2, 1.2, 1.55, 1.8, 2.5):
        for sigma in (0.5, 1.0):
            for alpha, kappa in ((0.05, 0.005), (0.10, 0.01)):
                coeffs = CoefficientSet(
                    "imputation", cells, np.arange(2), np.array([0.0, b]),
                    np.diag([0.04, sigma**2]),
                )
                got = hybrid_test(
                    coeffs, member, target, theta0=0.0, alpha=alpha, kappa=kappa,
                    seed=5,
                )
                assert got == hybrid_oracle_one_moment(b / sigma, alpha, kappa)


def test_far_null_rejected():
    cells, member, target = one_moment_system()
    coeffs = CoefficientSet(
        "imputation", cells, np.arange(2), np.zeros(2), np.eye(2) * 0.01
    )
    # twenty standard deviations away from anything feasible
    assert hybrid_test(coeffs, member, target, theta0=-2.0, alpha=0.05, seed=1)
    assert not hybrid_test(coeffs, member, target, theta0=0.0, alpha=0.05, seed=1)


def csnyt_boundary_system():
    """One-cohort system with every second-difference moment at its bound."""
    units = [("a", "4"), ("b", "never")]
    layout = build_layout(load_panel(grid_csv(units, T=7)))
    cells = build_cell_index(layout, 7, "csnyt")
    rng = np.random.default_rng(3)
    root = rng.normal(size=(6, 6)) * 0.3
    sigma = root @ root.T + 0.05 * np.eye(6)
    coeffs = CoefficientSet(
        "csnyt", cells, cells.value_positions, np.zeros(6), sigma
    )
    bm = invert(build_w_csnyt(layout, cells))
    fam = map_to_delta_space(sd(layout, cells, 0.0), bm)
    target = overall_att_target(layout, cells)
    return coeffs, fam.members[0], target, sigma


def test_hybrid_size_at_boundary_null():
    coeffs, member, target, sigma = csnyt_boundary_system()
    alpha = 0.05
    moments = _build_moments(coeffs, member, target)
    ctx = _prepare_context(moments, kappa=alpha / 10, draws=4000, seed=9)
    rng = np.random.default_rng(123)
    root = np.linalg.cholesky(sigma)
    rejections = 0
    reps = 300
    for _ in range(reps):
        beta = root @ rng.standard_normal(6)
        draw = dataclasses.replace(
            moments, a0=moments.a0 + member.A[:, coeffs.cells.value_positions] @ beta
        )
        ctx_b = _HybridContext(
            moments=draw, vertices=ctx.vertices, lf_cv=ctx.lf_cv, kappa=ctx.kappa
        )
        rejections += _test_point(ctx_b, 0.0, alpha)
    assert rejections / reps <= alpha + 0.05


def test_confidence_region_is_interval_for_single_member(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.2), bm)
    target = overall_att_target(layout, cells)
    cset = confidence_set(coeffs, fam, target, alpha=0.05, seed=3)
    assert len(cset.intervals) == 1


def test_confidence_sets_nested_in_parameter(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    fams = {
        m: map_to_delta_space(rm_global(layout, cells, m), bm)
        for m in (0.0, 0.5, 1.0)
    }
    grid = default_grid(coeffs, fams[1.0], target)
    prev = None
    for m in (0.0, 0.5, 1.0):
        cur = confidence_set(coeffs, fams[m], target, grid=grid, seed=5)
        plug = plugin_identified_set(coeffs, fams[m], target)
        step = (grid.hi - grid.lo) / (grid.n - 1)
        assert cur.covers(plug, tol=step)
        if prev is not None:
            assert cur.covers(prev, tol=1e-12)
        prev = cur


@pytest.mark.parametrize("path", ["vertex", "lp"])
def test_hybrid_fallback_no_smaller_than_least_favorable(path):
    # duplicated moment rows force vertex ties, so the conditional stage
    # always defers to the first-stage decision, whichever evaluator supplies
    # the optimal dual vertex
    units = [("a", "4"), ("b", "never")]
    layout = build_layout(load_panel(grid_csv(units, T=7)))
    cells = build_cell_index(layout, 7, "imputation")
    rng = np.random.default_rng(8)
    values = np.zeros(7)
    values[:3] = rng.normal(size=3) * 0.1
    values[:3] -= values[:3].mean()
    root = rng.normal(size=(7, 7)) * 0.2
    coeffs = CoefficientSet(
        "imputation", cells, np.arange(7), values, root @ root.T + 0.01 * np.eye(7)
    )
    bm = invert(build_w_imputation(layout, cells))
    base = map_to_delta_space(sd(layout, cells, 0.1), bm).members[0]
    doubled = Polyhedron(A=np.vstack([base.A, base.A]),
                         d=np.concatenate([base.d, base.d]))
    target = overall_att_target(layout, cells)
    alpha = 0.05
    moments = _build_moments(coeffs, doubled, target)
    hybrid_ctx = _prepare_context(moments, kappa=alpha / 10, draws=4000, seed=2)
    lf_ctx = _prepare_context(moments, kappa=alpha, draws=4000, seed=2)
    assert hybrid_ctx.lf_cv >= lf_ctx.lf_cv
    tested_ctx = (
        hybrid_ctx if path == "vertex"
        else dataclasses.replace(hybrid_ctx, vertices=None)
    )
    for theta0 in np.linspace(-2, 2, 41):
        hybrid_rejects = _test_point(tested_ctx, theta0, alpha)
        # pure least-favorable decision: first stage at level alpha only
        y = moments.a0 - moments.a1 * theta0
        lf_rejects = float((hybrid_ctx.vertices @ y).max()) > lf_ctx.lf_cv
        if hybrid_rejects:
            assert lf_rejects
    # and the doubled system really is degenerate at the optimum
    y = moments.a0
    vals = hybrid_ctx.vertices @ y
    top = np.sort(vals)[-2:]
    assert abs(top[0] - top[1]) < 1e-9


def _scalar_truncnorm_quantile(p, lo, hi):
    """One interval at a time, with scalar scipy calls."""
    if lo >= hi:
        return lo
    if np.isinf(lo) and np.isinf(hi):
        return float(scistats.norm.ppf(p))
    val = float(scistats.truncnorm.ppf(p, a=lo, b=hi))
    if not np.isfinite(val):
        return hi if np.isfinite(hi) else lo
    return val


def test_truncnorm_quantile_array_matches_scalar():
    bounds = [
        (1.0, 0.5), (0.3, 0.3), (np.inf, np.inf),  # empty
        (-np.inf, np.inf),  # both infinite
        (-np.inf, 0.5), (1.0, np.inf), (-np.inf, -3.0),  # one infinite
        (-1.0, 2.0), (0.2, 0.4), (-41.0, -40.0), (38.0, 39.0),
        (1e200, 1e201), (1e200, np.inf), (-1e201, -1e200),  # far tail
    ]
    lo, hi = np.array(bounds).T
    for p in (0.005, 0.5, 0.95):
        got = _truncnorm_quantile(p, lo, hi)
        want = np.array([_scalar_truncnorm_quantile(p, a, b) for a, b in bounds])
        np.testing.assert_array_equal(got, want)
        # scipy itself gives no finite answer in the far tail: the quantile
        # falls back to the finite bound
        with np.errstate(all="ignore"):
            raw = scistats.truncnorm.ppf(p, lo[-3:], hi[-3:])
        assert not np.isfinite(raw).any()
        assert list(got[-3:]) == [1e201, 1e200, -1e200]
    assert _truncnorm_quantile(0.5, np.empty(0), np.empty(0)).shape == (0,)


def test_lp_path_matches_vertex_path(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    members = [map_to_delta_space(sd(layout, cells, 0.15), bm).members[0]]
    members += list(
        map_to_delta_space(rm_global(layout, cells, 0.4), bm).members[:3]
    )
    for member in members:
        moments = _build_moments(coeffs, member, target)
        ctx = _prepare_context(moments, kappa=0.005, draws=3000, seed=4)
        assert ctx.vertices is not None
        forced = _HybridContext(
            moments=moments, vertices=None, lf_cv=ctx.lf_cv, kappa=ctx.kappa
        )
        for theta0 in np.linspace(-2.0, 6.0, 17):
            assert _test_point(ctx, theta0, 0.05) == _test_point(
                forced, theta0, 0.05
            ), (member.label, theta0)


# ---------------------------------------------------------------------------
# dual-polytope vertices
# ---------------------------------------------------------------------------


def brute_force_vertices(sd_vec, X):
    """Vertices of {lam >= 0 : sd'lam = 1, X'lam = 0} from every basis of
    W = [sd, X]: each nonsingular p-row subset S with W_S'^-1 e1 >= 0 is a
    vertex.  Feasible bases repeat a vertex when it is degenerate, so rows
    are deduplicated after rounding."""
    m = len(sd_vec)
    W = np.column_stack([sd_vec, X])
    p = W.shape[1]
    if m < p or np.linalg.matrix_rank(W) < p:
        return None
    assert math.comb(m, p) <= 300_000, "system too large for the oracle"
    combos = np.array(list(itertools.combinations(range(m), p)))
    mats = np.transpose(W[combos, :], (0, 2, 1))
    ok = np.abs(np.linalg.det(mats)) > 1e-12
    if not ok.any():
        return None
    sols = np.linalg.solve(mats[ok], np.eye(p, 1)[None])[..., 0]
    feas = (sols >= -1e-9).all(axis=1)
    if not feas.any():
        return None
    verts = np.zeros((int(feas.sum()), m))
    rows = np.arange(int(feas.sum()))[:, None]
    verts[rows, combos[ok][feas]] = np.clip(sols[feas], 0.0, None)
    return np.unique(np.round(verts, 12), axis=0)


def assert_same_vertices(got, want):
    """Same vertex sets up to rounding; ``got`` must list each vertex once
    (the oracle can keep near-copies that rounding did not merge)."""
    if want is None:
        assert got is None
        return
    assert got is not None
    tol = 1e-8 * (1.0 + np.abs(want).max())
    dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    assert (dist.min(axis=1) <= tol).all()
    assert (dist.min(axis=0) <= tol).all()
    self_dist = np.abs(got[:, None, :] - got[None, :, :]).max(axis=2)
    np.fill_diagonal(self_dist, np.inf)
    assert (self_dist > tol).all()


def test_dual_vertices_match_brute_force_on_random_systems():
    rng = np.random.default_rng(41)
    for trial in range(400):
        m = int(rng.integers(2, 13))
        k = int(rng.integers(0, min(m, 6)))
        X = rng.normal(size=(m, k))
        sd_vec = rng.uniform(0.5, 2.0, size=m)
        kind = trial % 5
        if kind == 1 and m >= 4:  # +/- row pairs, as from equality rows
            h = m // 2
            X[h:2 * h] = -X[:h]
            sd_vec[h:2 * h] = sd_vec[:h]
        elif kind == 2 and k >= 2:  # rank-deficient [sd, X]
            X[:, -1] = X[:, 0] - 2.0 * X[:, 1]
        elif kind == 3:  # small integers: many degenerate vertices
            X = np.round(X)
        elif kind == 4 and m >= 6:
            # the cone {N mu >= 0} for a 0/+-1 matrix N: its rays sit on
            # more facets than its dimension, where pairs pass the size
            # pre-filter without being adjacent
            N = rng.integers(-1, 2, size=(m, int(rng.integers(3, 7)))).astype(float)
            N[:, -1] = 1.0
            r = np.linalg.matrix_rank(N)
            X = np.linalg.svd(N)[0][:, r:]  # X'lam = 0 iff lam = N mu
        assert_same_vertices(_dual_vertices(sd_vec, X), brute_force_vertices(sd_vec, X))


def test_dual_vertices_of_a_cone_reduced_to_zero_is_none():
    # lam1 + lam2 = 0 with lam >= 0 leaves only lam = 0: the nuisance can push
    # every moment down without bound, and the LP path reports -inf
    X = np.array([[1.0], [1.0]])
    assert _dual_vertices(np.ones(2), X) is None
    assert brute_force_vertices(np.ones(2), X) is None
    assert _eta_star_lp(np.array([0.3, -0.2]), X, np.ones(2))[0] == -np.inf


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_dual_vertices_match_brute_force_on_design_members(estimator):
    rng = np.random.default_rng(17 if estimator == "csnyt" else 16)
    checked = 0
    for _ in range(5):
        sim = random_panel(rng, max_n=20, max_t=7, max_g=2, min_pre=2)
        layout = build_layout(sim.panel)
        coeffs = bootstrap_vcov(sim.panel, BootstrapSpec(40, 3, estimator))
        builder = build_w_csnyt if estimator == "csnyt" else build_w_imputation
        bm = invert(builder(layout, coeffs.cells))
        target = overall_att_target(layout, coeffs.cells)
        for fam in (
            rm_global(layout, coeffs.cells, 0.5),
            rm_cohort(layout, coeffs.cells, 1.0),
            sd(layout, coeffs.cells, 0.1),
        ):
            for member in map_to_delta_space(fam, bm).members:
                mom = _build_moments(coeffs, member, target)
                assert_same_vertices(
                    _dual_vertices(mom.sd, mom.X), brute_force_vertices(mom.sd, mom.X)
                )
                checked += 1
    assert checked > 20


@pytest.fixture(scope="module")
def sd_cliff_systems():
    """Cohort and aggregated moment systems of the sd family at T=12 with
    cohorts adopting at 5, 7, 9 and 11 (csnyt): C(40, 20) bases for the
    cohort member, so only the double description reaches its vertices."""
    sim = gen_custom(
        DGPSpec(
            T=12, cohorts=((5, 20), (7, 20), (9, 20), (11, 20)), never_size=60,
            noise_sd=1.0, violations=(), effect=1.0, seed=5,
        )
    )
    layout = build_layout(sim.panel)
    coeffs = bootstrap_vcov(sim.panel, BootstrapSpec(60, 5, "csnyt"))
    bm = invert(build_w_csnyt(layout, coeffs.cells))
    fam = map_to_delta_space(sd(layout, coeffs.cells, 0.05), bm)
    cohort = _build_moments(
        coeffs, fam.members[0], overall_att_target(layout, coeffs.cells)
    )
    agg = aggregate(coeffs, layout)
    agg_layout, agg_cells, agg_coeffs, agg_map = aggregated_system(agg)
    agg_fam = map_to_delta_space(sd(agg_layout, agg_cells, 0.05), agg_map)
    pooled = _build_moments(
        agg_coeffs, agg_fam.members[0], aggregated_att_target(agg, agg_cells)
    )
    return {"cohort": cohort, "aggregated": pooled}


@pytest.mark.parametrize("framework", ["cohort", "aggregated"])
def test_sd_cliff_vertices_match_profiling_lp(sd_cliff_systems, framework):
    mom = sd_cliff_systems[framework]
    verts = _dual_vertices(mom.sd, mom.X)
    assert verts is not None
    if framework == "cohort":
        assert len(mom.sd) == 40 and mom.X.shape[1] == 19
    rng = np.random.default_rng(6)
    root = np.linalg.cholesky(mom.sigma + 1e-12 * np.eye(len(mom.sd)))
    for _ in range(60):
        noise = root @ rng.standard_normal(len(mom.sd))
        y = mom.a0 - mom.a1 * rng.uniform(-4, 6) + noise
        eta_lp, _ = _eta_star_lp(y, mom.X, mom.sd)
        assert float((verts @ y).max()) == pytest.approx(eta_lp, abs=1e-9)


def test_monte_carlo_normals_are_drawn_once_and_read_only():
    z = _standard_normals(11, 50, 3)
    assert _standard_normals(11, 50, 3) is z
    assert not z.flags.writeable
    rng = np.random.default_rng(np.random.SeedSequence(entropy=11, spawn_key=(1,)))
    np.testing.assert_array_equal(z, rng.standard_normal((50, 3)))


def test_nuisance_basis_invariance(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.15), bm)
    target = overall_att_target(layout, cells)
    q = int(np.array([cells.cell(p).post for p in coeffs.positions]).sum())
    l_post = target.weights[coeffs.positions][
        np.array([cells.cell(p).post for p in coeffs.positions])
    ]
    Q, _ = np.linalg.qr(
        np.column_stack([l_post / np.linalg.norm(l_post), np.eye(q)])
    )
    rng = np.random.default_rng(14)
    raw = rng.normal(size=(q - 1, q - 1))
    rot, _ = np.linalg.qr(raw)
    alt_basis = Q[:, 1:] @ rot
    for theta0 in np.linspace(-1, 5, 9):
        a = hybrid_test(
            coeffs, fam.members[0], target, theta0, alpha=0.05, seed=3
        )
        b = hybrid_test(
            coeffs, fam.members[0], target, theta0, alpha=0.05, seed=3,
            nuisance_override=alt_basis,
        )
        assert a == b


# ---------------------------------------------------------------------------
# corrected points and by-period machinery
# ---------------------------------------------------------------------------


def test_sd_corrected_point_formula(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    for s in (1, 3):
        target = by_period_target(layout, cells, s)
        got = corrected_point(coeffs, "sd", bm, target)
        block = np.zeros(len(cells))
        for p in range(len(cells)):
            c = cells.cell(p)
            if c.pre:
                block[p] = coeffs.value(c.cohort_time, c.rel)
            else:
                base = coeffs.value(c.cohort_time, 0)
                slope = base - coeffs.value(c.cohort_time, -1)
                block[p] = base + c.rel * slope
        overall = bm.W @ block
        post = np.array([cells.cell(p).post for p in coeffs.positions])
        l_vec = target.weights[coeffs.positions]
        want = l_vec @ coeffs.values - l_vec[post] @ overall[coeffs.positions][post]
        assert got == pytest.approx(want, abs=1e-10)


def test_csnyt_sd_correction_depends_only_on_second_to_last_pre(toy_sim):
    panel = toy_sim.panel
    layout = build_layout(panel)
    coeffs = estimate(panel, "csnyt")
    vc = np.eye(len(coeffs.values)) * 0.01
    coeffs = CoefficientSet(
        "csnyt", coeffs.cells, coeffs.positions, coeffs.values, vc
    )
    cells = coeffs.cells
    bm = invert(build_w_csnyt(layout, cells))
    target = by_period_target(layout, cells, 1)
    base_point = corrected_point(coeffs, "sd", bm, target)
    bumped = coeffs.values.copy()
    for t_g in layout.times:
        pos = cells.position(t_g, -3)
        idx = int(np.searchsorted(coeffs.positions, pos))
        bumped[idx] += 1.0
    other = CoefficientSet("csnyt", cells, coeffs.positions, bumped, vc)
    assert corrected_point(other, "sd", bm, target) == pytest.approx(
        base_point, abs=1e-12
    )
    # but the slope period does matter
    bumped2 = coeffs.values.copy()
    pos = cells.position(5, -1)
    bumped2[int(np.searchsorted(coeffs.positions, pos))] += 1.0
    other2 = CoefficientSet("csnyt", cells, coeffs.positions, bumped2, vc)
    assert corrected_point(other2, "sd", bm, target) != pytest.approx(
        base_point, abs=1e-6
    )


def test_by_period_sets_and_single_cohort_weights(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.0), bm)
    results = by_period_sets(
        coeffs, fam, bm, layout, alpha=0.05, seed=6,
        grid=GridSpec(-8.0, 12.0, 161),
    )
    assert sorted(results) == [1, 2, 3, 4]
    for s, r in results.items():
        assert r.confidence.provenance == "confidence"
        assert np.isfinite(r.corrected)
        assert r.corrected_se > 0
    # periods 3 and 4 exist only for the early cohort: indicator weights
    t = by_period_target(layout, cells, 4)
    support = np.flatnonzero(t.weights)
    assert len(support) == 1
    assert cells.cell(support[0]).cohort_time == 5
    assert t.weights[support[0]] == 1.0


def test_aggregated_single_cohort_coincides_with_cohort_framework():
    units = [("a", "4"), ("b", "4"), ("c", "never"), ("d", "never")]
    text = grid_csv(units, T=7)
    rng = np.random.default_rng(2)
    lines = text.strip().split("\n")
    noisy = [lines[0]]
    for ln in lines[1:]:
        u, t, y, g = ln.split(",")
        noisy.append(f"{u},{t},{float(y) + rng.normal() * 0.5},{g}")
    panel = load_panel("\n".join(noisy) + "\n")
    layout = build_layout(panel)
    coeffs = bootstrap_vcov(panel, BootstrapSpec(60, 4, "imputation"))
    cells = coeffs.cells
    bm = invert(build_w_imputation(layout, cells))
    fam = map_to_delta_space(sd(layout, cells, 0.1), bm)
    target = overall_att_target(layout, cells)
    grid = GridSpec(-6.0, 6.0, 101)
    direct = confidence_set(coeffs, fam, target, grid=grid, seed=8)

    agg = aggregate(coeffs, layout)
    alay, acells, acoe, amap = aggregated_system(agg)
    afam = map_to_delta_space(sd(alay, acells, 0.1), amap)
    atarget = aggregated_att_target(agg, acells)
    from blockdid.inference import aggregated_confidence_set

    via_agg = aggregated_confidence_set(agg, afam, atarget, grid=grid, seed=8)
    assert direct.intervals == via_agg.intervals
    plug_a = plugin_identified_set(acoe, afam, atarget)
    plug_d = plugin_identified_set(coeffs, fam, target)
    assert plug_a.lo == pytest.approx(plug_d.lo, abs=1e-9)
    assert plug_a.hi == pytest.approx(plug_d.hi, abs=1e-9)


def test_empty_confidence_set_is_legal(boot_toy):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.0), bm)
    target = overall_att_target(layout, cells)
    far = GridSpec(500.0, 510.0, 21)
    with pytest.warns(UserWarning, match="empty"):
        cset = confidence_set(coeffs, fam, target, grid=far, seed=1)
    assert cset.is_empty
    assert cset.intervals == ()


@pytest.mark.parametrize("kappa", [0.05, 0.9, 0.0, -0.01])
def test_confidence_set_rejects_first_stage_level_outside_range(boot_toy, kappa):
    # kappa >= alpha leaves a second stage that can never reject, which would
    # quietly turn the set into a least-favorable set at level kappa
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.1), bm)
    target = overall_att_target(layout, cells)
    with pytest.raises(ValueError, match="kappa"):
        confidence_set(coeffs, fam, target, alpha=0.05, kappa=kappa, seed=1)
    with pytest.raises(ValueError, match="kappa"):
        hybrid_test(coeffs, fam.members[0], target, 0.0, alpha=0.05, kappa=kappa)


@pytest.mark.parametrize("lo, hi, n", [(1.0, 0.0, 5), (0.0, 0.0, 5), (0.0, 1.0, 1)])
def test_grid_spec_refuses_empty_ranges_and_single_points(lo, hi, n):
    with pytest.raises(InvalidGrid) as info:
        GridSpec(lo, hi, n)
    assert info.value.code == "INVALID_GRID"


@pytest.mark.parametrize("draws", [0, -5])
def test_confidence_set_refuses_fewer_than_one_draw(boot_toy, draws):
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    fam = map_to_delta_space(sd(layout, cells, 0.1), bm)
    target = overall_att_target(layout, cells)
    with pytest.raises(InvalidDraws):
        confidence_set(coeffs, fam, target, draws=draws)
    with pytest.raises(InvalidDraws):
        hybrid_test(coeffs, fam.members[0], target, 0.0, draws=draws)


def test_normalization_rows_screened_in_hybrid(boot_toy):
    # the appended zero-sum equalities have (numerically) zero bootstrap
    # variance; the moment screen must drop them without changing decisions
    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    plain = map_to_delta_space(rm_global(layout, cells, 0.4), bm)
    normed = map_to_delta_space(
        with_normalization(rm_global(layout, cells, 0.4), layout), bm
    )
    grid = GridSpec(-2.0, 6.0, 41)
    a = confidence_set(coeffs, plain, target, grid=grid, draws=2000, seed=7)
    b = confidence_set(coeffs, normed, target, grid=grid, draws=2000, seed=7)
    assert a.intervals == b.intervals


def test_infeasible_and_unbounded_and_singular_paths(boot_toy):
    from blockdid.inference import AllMembersInfeasible, SingularVcov

    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    n = len(cells)

    # hand-built members reach the LP-union oracle only: a family holds its
    # rows as shared differences plus a benchmark table, never as members
    pre_pos = cells.position(5, -3)
    row = np.zeros(n)
    row[pre_pos] = 1.0
    # equality row contradicting the pinned pre coefficients
    contradiction = Polyhedron(
        A=np.zeros((1, n)), d=np.zeros(1),
        A_eq=row.reshape(1, -1), d_eq=np.array([coeffs.value(5, -3) + 1.0]),
    )
    assert member_bounds(coeffs, contradiction, target) is None
    with pytest.raises(AllMembersInfeasible):
        lp_union(coeffs, (contradiction,), target)

    # a member that places no restriction on any post cell
    loose = Polyhedron(A=row.reshape(1, -1), d=np.array([1e6]))
    with pytest.raises(UnboundedProgram):
        lp_union(coeffs, (loose,), target)

    # an all-zero covariance leaves no stochastic moment rows
    flat = CoefficientSet(
        coeffs.estimator, cells, coeffs.positions, coeffs.values,
        np.zeros((len(coeffs.values), len(coeffs.values))),
    )
    member = map_to_delta_space(sd(layout, cells, 0.1), bm).member(0)
    with pytest.raises(SingularVcov):
        hybrid_test(flat, member, target, 0.0, seed=0)


def test_family_refuses_unknown_tag(boot_toy):
    from blockdid.restrictions import RestrictionFamily, UnknownFamily

    layout, coeffs, _ = boot_toy
    fam = sd(layout, coeffs.cells, 0.1)
    with pytest.raises(UnknownFamily) as err:
        RestrictionFamily(
            family="rm-custom", parameter=0.1, cells=coeffs.cells,
            diffs=fam.diffs, benchmarks=fam.benchmarks,
        )
    assert err.value.code == "UNKNOWN_FAMILY"


def test_plugin_refuses_overall_family_without_bias_map(boot_toy):
    from blockdid.inference import InferenceError

    layout, coeffs, bm = boot_toy
    target = overall_att_target(layout, coeffs.cells)
    fam = map_to_delta_space(rm_global(layout, coeffs.cells, 0.5), bm)
    # the map is what puts a family in overall space: without it the family
    # is back in block space and is refused as such
    unmapped = dataclasses.replace(fam, bias_map=None)
    assert fam.space == "overall" and unmapped.space == "block"
    with pytest.raises(InferenceError, match="overall-bias space"):
        plugin_identified_set(coeffs, unmapped, target)
    # the LP union of the mapped members is the closed-form set
    got = plugin_identified_set(coeffs, fam, target)
    want = lp_union(coeffs, fam.members, target)
    assert [got.lo, got.hi] == pytest.approx([want.lo, want.hi], rel=1e-12)


def test_retagged_family_plugin_set_is_the_lp_union_of_its_members(boot_toy):
    from blockdid.restrictions import CohortWithoutPreDifference

    def check(coeffs, fam, target):
        got = plugin_identified_set(coeffs, fam, target)
        want = lp_union(coeffs, fam.members, target)
        assert len(want.intervals) == 1
        assert [got.lo, got.hi] == pytest.approx([want.lo, want.hi], rel=1e-12)
        return got

    # cohort g2 has no pre-period difference: rm-global builds, rm-cohort
    # does not, and an rm-global table retagged rm-cohort bounds every
    # cohort by the shared benchmarks in its own column
    units = [("a", "2"), ("b", "4"), ("n", "never")]
    layout = build_layout(load_panel(grid_csv(units, T=5)))
    cells = build_cell_index(layout, 5, "csnyt")
    with pytest.raises(CohortWithoutPreDifference):
        rm_cohort(layout, cells, 0.5)
    values = np.random.default_rng(3).normal(size=len(cells.value_positions))
    coeffs = CoefficientSet("csnyt", cells, cells.value_positions, values)
    fam = map_to_delta_space(
        rm_global(layout, cells, 0.5), invert(build_w_csnyt(layout, cells))
    )
    target = overall_att_target(layout, cells)
    plain = check(coeffs, fam, target)
    retagged = check(coeffs, dataclasses.replace(fam, family="rm-cohort"), target)
    assert retagged.intervals == plain.intervals
    assert plain.hi > plain.lo

    # and an rm-cohort table retagged rm-global keeps its per-cohort bounds
    layout, coeffs, bm = boot_toy
    target = overall_att_target(layout, coeffs.cells)
    fam = map_to_delta_space(rm_cohort(layout, coeffs.cells, 0.5), bm)
    check(coeffs, dataclasses.replace(fam, family="rm-global"), target)


def test_plugin_refuses_normalization_violated_at_pinned_values(boot_toy):
    from blockdid.inference import AllMembersInfeasible

    layout, coeffs, bm = boot_toy
    cells = coeffs.cells
    target = overall_att_target(layout, cells)
    fam = map_to_delta_space(
        with_normalization(rm_global(layout, cells, 0.5), layout), bm
    )
    # the plug-in set applies the zero-sum rule coefficient sets obey: a
    # shift of every pre coefficient by 1e-12 keeps each cohort's sum within
    # it (and within the LP's 1e-9 feasibility tolerance), by 1e-7 it does
    # not (the ``aggregated`` flag skips the coefficient set's own check)
    for shift, feasible in ((1e-12, True), (1e-7, False)):
        values = coeffs.values + shift * cells.pre[coeffs.positions]
        moved = CoefficientSet(
            "imputation", cells, coeffs.positions, values, coeffs.vcov,
            aggregated=True,
        )
        if feasible:
            CoefficientSet("imputation", cells, coeffs.positions, values)
            got = plugin_identified_set(moved, fam, target)
            want = lp_union(moved, fam.members, target)
            assert [got.lo, got.hi] == pytest.approx([want.lo, want.hi], rel=1e-12)
        else:
            with pytest.raises(ValueError, match="sum to"):
                CoefficientSet("imputation", cells, coeffs.positions, values)
            with pytest.raises(AllMembersInfeasible):
                lp_union(moved, fam.members, target)
            with pytest.raises(AllMembersInfeasible):
                plugin_identified_set(moved, fam, target)


def test_structural_column_guard():
    units = [("a", "5"), ("b", "7"), ("c", "never")]
    layout = build_layout(load_panel(grid_csv(units, T=8)))
    cells = build_cell_index(layout, 8, "csnyt")
    bad = Polyhedron(A=np.eye(16), d=np.zeros(16))  # touches structural cols
    values = np.zeros(14)
    coeffs = CoefficientSet(
        "csnyt", cells, cells.value_positions, values, np.eye(14)
    )
    target = overall_att_target(layout, cells)
    from blockdid.inference import InferenceError

    with pytest.raises(InferenceError):
        hybrid_test(coeffs, bad, target, 0.0, seed=0)


@pytest.mark.parametrize("c", [1e4, 1e7])
def test_outcome_scale_scales_coefficients_vcov_and_plugin_bounds(c):
    # imputation covariances are singular by construction, so the PSD,
    # symmetry and zero-sum checks must hold their tolerances relative to
    # the data's scale: at 3e4 an absolute PSD floor refuses the vcov, at
    # 1e7 an absolute zero-sum floor refuses the normalized family
    panel = gen_toy(seed=3, sizes=(5, 5, 6), noise_sd=0.5).panel
    spec = BootstrapSpec(50, 1, "imputation")
    base = bootstrap_vcov(panel, spec)
    scaled = bootstrap_vcov(
        dataclasses.replace(panel, outcome=panel.outcome * c), spec
    )

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(scaled.values, c * base.values) <= 1e-12
    assert rel(scaled.vcov, c * c * base.vcov) <= 1e-12
    layout = build_layout(panel)
    bm = invert(build_w_imputation(layout, base.cells))
    target = overall_att_target(layout, base.cells)
    # rm's Mbar is relative; sd's M is in outcome units and scales with them
    for build, m in ((rm_global, 1.0), (rm_cohort, 1.0), (sd, c)):
        for norm in (False, True):
            fams = []
            for param in (0.5, 0.5 * m):
                block = build(layout, base.cells, param)
                block = with_normalization(block, layout) if norm else block
                fams.append(map_to_delta_space(block, bm))
            want = plugin_identified_set(base, fams[0], target)
            got = plugin_identified_set(scaled, fams[1], target)
            bounds = np.array([got.lo, got.hi])
            assert rel(bounds, c * np.array([want.lo, want.hi])) <= 1e-12
