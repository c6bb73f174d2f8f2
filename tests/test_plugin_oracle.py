"""The closed-form plug-in set against the linear programs it replaced.

``oracles.member_bounds`` pins the pre-treatment coordinates at their
estimates, minimises and maximises the target over one member's constraints
with HiGHS, and ``oracles.lp_union`` unions the member intervals.  They read
every member's rows, while ``plugin_identified_set`` reads only the family's
tag, parameter, benchmark table, recorded bias map and normalization, so
agreement checks the box/radius argument on every design below.
"""

import numpy as np
import pytest

from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.estimators import aggregate, estimate
from blockdid.inference import (
    AllMembersInfeasible,
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
from oracles import lp_union

BUILDERS = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}
W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}


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
