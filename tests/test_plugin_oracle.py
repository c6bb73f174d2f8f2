"""The linear programs the package no longer solves, kept as oracles.

``member_bounds`` is the program the closed-form plug-in set replaced: for
every member, pin the pre-treatment coordinates at their estimates, minimise
and maximise the target over the member's constraints with HiGHS, and union
the member intervals.  It reads every member's rows, while
``plugin_identified_set`` reads only the family's tag, parameter, benchmark
table, recorded bias map and normalization, so agreement checks the
box/radius argument on every design below.

``_eta_star_lp`` is the profiling program the dual vertices replaced: the
studentized max moment minimised over the nuisance.  Other test modules
check the vertex maximum against it.
"""

import numpy as np
import pytest
from scipy import optimize as sciopt

from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.estimators import aggregate, estimate
from blockdid.inference import (
    AllMembersInfeasible,
    InferenceError,
    IntervalSet,
    _reduced_rows,
    aggregated_att_target,
    aggregated_system,
    corrected_point,
    custom_target,
    overall_att_target,
    plugin_identified_set,
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

from conftest import random_spec

BUILDERS = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}
W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}


# ---------------------------------------------------------------------------
# the LP oracles
# ---------------------------------------------------------------------------

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


def _eta_star_lp(y, X, sd):
    """min eta s.t. y - X gamma <= eta * sd; -inf when the nuisance pushes
    every moment down without bound."""
    k = X.shape[1]
    res = sciopt.linprog(
        np.eye(1 + k)[0],
        A_ub=np.column_stack([-sd, -X]),
        b_ub=-y,
        bounds=[(None, None)] * (1 + k),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 3:
        return -np.inf
    if not res.success:
        raise InferenceError(f"profiling program failed: {res.message}")
    return float(res.x[0])


class UnboundedProgram(InferenceError):
    """A member leaves the target unbounded."""


def member_bounds(coeffs, member, target):
    """[min, max] of l'(beta_post - delta_post) over one member, or None."""
    cells = coeffs.cells
    positions = coeffs.positions
    rows = (member.A[None], member.d[None], None, None)
    (A,), (d,) = _reduced_rows(*rows, cells, positions)
    A_eq, d_eq = member.A_eq, member.d_eq
    if A_eq is not None:
        A_eq = A_eq[:, positions]
    n = len(positions)
    pre = cells.pre[positions]
    l_vec = target.weights[positions]

    eq_rows = [np.eye(n)[pre]]
    eq_rhs = [coeffs.values[pre]]
    if A_eq is not None:
        eq_rows.append(A_eq)
        eq_rhs.append(d_eq)
    A_eq_full = np.vstack(eq_rows)
    b_eq_full = np.concatenate(eq_rhs)

    l_beta = float(l_vec @ coeffs.values)
    bounds = []
    for sign in (1.0, -1.0):
        res = sciopt.linprog(
            sign * l_vec,
            A_ub=A,
            b_ub=d,
            A_eq=A_eq_full,
            b_eq=b_eq_full,
            bounds=[(None, None)] * n,
            method="highs",
            options=_LP_OPTIONS,
        )
        if res.status == 2:
            return None
        if res.status == 3:
            raise UnboundedProgram("the member does not constrain the target")
        if not res.success:
            raise InferenceError(f"linear program failed: {res.message}")
        bounds.append(sign * res.fun)
    min_ldelta, max_ldelta = bounds
    return (l_beta - max_ldelta, l_beta - min_ldelta)


def lp_union(coeffs, members, target):
    """Union of the member intervals, merged into disjoint intervals."""
    pairs = [
        b for b in (member_bounds(coeffs, m, target) for m in members)
        if b is not None
    ]
    if not pairs:
        raise AllMembersInfeasible("no member is consistent with the estimates")
    merged = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalSet(intervals=tuple(map(tuple, merged)), provenance="plugin")


# ---------------------------------------------------------------------------
# equivalence on random designs
# ---------------------------------------------------------------------------

# the largest relative gap allowed between closed form and LP union
REL_TOL = 1e-12
# random_spec bounds per family; the rm-cohort union grows multiplicatively
# in the cohorts, so only every fourth of its designs may have three
DESIGN = {
    "rm-global": dict(max_n=24, max_t=5, max_g=3, min_pre=1),
    "rm-cohort": dict(max_n=24, max_t=5, max_g=2, min_pre=2),
    "sd": dict(max_n=24, max_t=8, max_g=3, min_pre=2),
}
N_DESIGNS = 100


def _design(kind, i):
    if kind == "rm-cohort" and i % 4 == 3:
        return dict(DESIGN[kind], max_g=3)
    return DESIGN[kind]


def _systems(panel, estimator):
    """(label, coeffs, layout, bias map, target) for the cohort framework
    and the aggregated framework of one estimate."""
    layout = build_layout(panel)
    coeffs = estimate(panel, estimator)
    bm = invert(W_BUILDERS[estimator](layout, coeffs.cells))
    agg = aggregate(coeffs, layout)
    alay, acells, acoe, amap = aggregated_system(agg)
    return [
        ("cohort", coeffs, layout, bm, overall_att_target(layout, coeffs.cells)),
        ("aggregated", acoe, alay, amap, aggregated_att_target(agg, acells)),
    ]


def _random_target(rng, cells):
    """Signed random weights on the post cells, normalised to sum one."""
    w = np.where(cells.post, rng.normal(size=len(cells)), 0.0)
    return custom_target(cells, w / w.sum(), "random")


def _gap(got, want):
    """Largest endpoint gap relative to the larger reference endpoint (a
    set at exactly zero must match exactly)."""
    scale = max(abs(want.lo), abs(want.hi), 1e-300)
    return max(abs(got.lo - want.lo), abs(got.hi - want.hi)) / scale


@pytest.mark.parametrize("kind", ["rm-global", "rm-cohort", "sd"])
def test_closed_form_matches_lp_union_on_random_designs(kind):
    rng = np.random.default_rng({"rm-global": 61, "rm-cohort": 62, "sd": 63}[kind])
    worst, checked, normalized, refused = 0.0, 0, 0, 0
    for i in range(N_DESIGNS):
        estimator = ("imputation", "csnyt")[i % 2]
        panel = gen_custom(random_spec(rng, **_design(kind, i))).panel
        for framework, coeffs, layout, bm, target in _systems(panel, estimator):
            cells = coeffs.cells
            if rng.random() < 0.5:
                target = _random_target(rng, cells)
            try:
                block = BUILDERS[kind](layout, cells, float(rng.uniform(0.0, 1.5)))
            except NoPreDifferences:  # rm-global on one cohort adopting at t=2
                continue
            variants = [block]
            if i % 4 == 0:  # every other imputation design, both frameworks
                variants.append(with_normalization(block, layout))
            for fam in variants:
                fam = map_to_delta_space(fam, bm)
                try:
                    want = lp_union(coeffs, fam.members, target)
                except AllMembersInfeasible:
                    # aggregation does not keep the zero-sum identity
                    assert fam.normalized and framework == "aggregated"
                    with pytest.raises(AllMembersInfeasible):
                        plugin_identified_set(coeffs, fam, target)
                    refused += 1
                    continue
                got = plugin_identified_set(coeffs, fam, target)
                assert len(want.intervals) == 1  # the rm union is one interval
                gap = _gap(got, want)
                assert gap <= REL_TOL, (kind, i, framework, got, want)
                worst = max(worst, gap)
                checked += 1
                normalized += fam.normalized
            # at sensitivity zero the set is exactly the corrected point
            zero = map_to_delta_space(BUILDERS[kind](layout, cells, 0.0), bm)
            point = corrected_point(coeffs, kind, bm, target)
            assert plugin_identified_set(coeffs, zero, target).intervals == (
                (point, point),
            )
    assert checked >= 2 * N_DESIGNS and normalized >= N_DESIGNS // 5
    assert refused > 0  # the normalization check was exercised
    print(f"{kind}: {checked} sets, worst relative gap {worst:.1e}")
