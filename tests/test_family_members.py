"""Members formed on demand against the dense per-member builders.

The oracle below is how families were held before they stored each row
once: every rm member written out in full from its benchmark choice, the sd
member likewise, the zero-sum equalities appended member by member, and
every member multiplied through W^-1 when the family was mapped.
``RestrictionFamily.member(i)`` must reproduce each of those members
bitwise, and a four-cohort rm-cohort family must build and map in memory
that no longer grows with members x rows x cells.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.panel import build_cell_index, build_layout
from blockdid.restrictions import (
    Polyhedron,
    RestrictionError,
    _difference_rows,
    _member_rows,
    _post_cells,
    _pre_diff_slots,
    map_to_delta_space,
    rm_cohort,
    rm_global,
    sd,
    with_normalization,
)
from blockdid.simgen import DGPSpec, gen_custom

from conftest import random_spec

W_BUILDERS = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}


# ---------------------------------------------------------------------------
# the dense builders
# ---------------------------------------------------------------------------


def dense_rm_members(layout, cells, mbar, choices):
    """One full member per benchmark choice, a (k, s*, sign) per cohort."""
    post = _post_cells(cells)
    base = _difference_rows(cells, cells.cohort[post], cells.cal[post], (1.0, -1.0))
    times = np.array(layout.times)
    members = []
    for choice in choices:
        k, s_star, sign = (np.array(v) for v in zip(*choice))
        coeff = mbar * sign
        bench = _difference_rows(cells, k, times[k] + s_star - 1, (coeff, -coeff))
        bench = bench[cells.cohort[post]]
        A = _member_rows(base - bench, -base - bench, cells)
        label = [
            (layout.times[g], layout.times[k], s, "+" if sgn > 0 else "-")
            for g, (k, s, sgn) in enumerate(choice)
        ]
        members.append(Polyhedron(A=A, d=np.zeros(len(A)), label={"benchmarks": label}))
    return members


def dense_members(kind, layout, cells, param):
    slots = _pre_diff_slots(layout)
    if kind == "sd":
        post = _post_cells(cells)
        rows = _difference_rows(
            cells, cells.cohort[post], cells.cal[post], (1.0, -2.0, 1.0)
        )
        A = _member_rows(rows, -rows, cells)
        return [Polyhedron(A=A, d=np.full(len(A), param), label={"benchmarks": []})]
    if kind == "rm-global":
        choices = (
            ((k, s, sign),) * layout.n_cohorts
            for k, ss in enumerate(slots)
            for s in ss
            for sign in (1.0, -1.0)
        )
    else:
        choices = itertools.product(
            *([(g, s, sign) for s in ss for sign in (1.0, -1.0)]
              for g, ss in enumerate(slots))
        )
    return dense_rm_members(layout, cells, param, choices)


def dense_normalized(members, layout, cells):
    A_eq = (
        (cells.cohort == np.arange(layout.n_cohorts)[:, None]) & cells.pre
    ).astype(float)
    return [replace(m, A_eq=A_eq, d_eq=np.zeros(len(A_eq))) for m in members]


def dense_mapped(members, bias_map):
    W_inv = bias_map.W_inverse
    return [
        replace(m, A=m.A @ W_inv, A_eq=None if m.A_eq is None else m.A_eq @ W_inv)
        for m in members
    ]


def assert_same_member(got, want):
    for a, b in ((got.A, want.A), (got.d, want.d), (got.A_eq, want.A_eq),
                 (got.d_eq, want.d_eq)):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    assert got.label == want.label


# ---------------------------------------------------------------------------
# bitwise agreement
# ---------------------------------------------------------------------------

BUILDERS = {"rm-global": rm_global, "rm-cohort": rm_cohort, "sd": sd}


@pytest.mark.parametrize("kind", list(BUILDERS))
def test_members_match_the_dense_builders_bitwise(kind):
    rng = np.random.default_rng({"rm-global": 81, "rm-cohort": 82, "sd": 83}[kind])
    seen = set()
    compared = 0
    for i in range(16):
        spec = random_spec(rng, noise=False, max_t=7, max_g=3, min_pre=2)
        layout = build_layout(gen_custom(spec).panel)
        param = 0.0 if i % 2 == 0 else float(rng.uniform(0.05, 1.5))
        for estimator, build_w in W_BUILDERS.items():
            cells = build_cell_index(layout, spec.T, estimator)
            try:
                fam = BUILDERS[kind](layout, cells, param)
            except RestrictionError:
                continue
            bias_map = invert(build_w(layout, cells))
            want = dense_members(kind, layout, cells, param)
            variants = [(fam, want)]
            if estimator == "imputation":
                variants.append(
                    (with_normalization(fam, layout),
                     dense_normalized(want, layout, cells))
                )
            for family, members in variants:
                mapped = map_to_delta_space(family, bias_map)
                for f, ms in ((family, members), (mapped, dense_mapped(members, bias_map))):
                    assert f.member_count == len(ms)
                    for j, m in enumerate(ms):
                        assert_same_member(f.member(j), m)
                    seen.add((estimator, f.space, f.normalized, param == 0.0))
                    compared += len(ms)
    assert len(seen) == 12, seen  # both estimators, spaces, normalizations, params
    assert compared >= 64


# ---------------------------------------------------------------------------
# family memory at four cohorts
# ---------------------------------------------------------------------------


def test_four_cohort_family_builds_and_maps_in_bounded_memory():
    # cohorts adopting at 5, 7, 9 and 11 of T = 12: 6 * 10 * 14 * 18 = 15,120
    # rm-cohort members, each 40 x 48 once written out
    spec = DGPSpec(
        T=12, cohorts=tuple((t, 3) for t in (5, 7, 9, 11)), never_size=4, seed=5
    )
    layout = build_layout(gen_custom(spec).panel)
    cells = build_cell_index(layout, spec.T, "csnyt")
    bias_map = invert(build_w_csnyt(layout, cells))
    tracemalloc.start()
    try:
        fam = map_to_delta_space(rm_cohort(layout, cells, 0.5), bias_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.member_count == 15_120
    assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"
    # spot-check members across the table against the dense builder
    slots = _pre_diff_slots(layout)
    choice_sets = [
        [(g, s, sign) for s in ss for sign in (1.0, -1.0)] for g, ss in enumerate(slots)
    ]
    choices = list(itertools.product(*choice_sets))
    for i in (0, 1, 12_345, fam.member_count - 1):
        want = dense_mapped(dense_rm_members(layout, cells, 0.5, [choices[i]]), bias_map)
        assert_same_member(fam.member(i), want[0])
