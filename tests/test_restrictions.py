import io

import numpy as np
import pytest

import blockdid.restrictions as restrictions
from blockdid.biasmap import build_w_csnyt, build_w_imputation, invert
from blockdid.panel import build_cell_index, build_layout, load_panel
from blockdid.restrictions import (
    CohortWithoutPreDifference,
    CohortWithoutTwoPrePeriods,
    MemberCountExceedsCap,
    NoPreDifferences,
    RestrictionError,
    map_to_delta_space,
    rm_cohort,
    rm_global,
    sd,
    with_normalization,
)

from test_panel import grid_csv


@pytest.fixture(scope="module")
def toy():
    units = [("a", "5"), ("b", "7"), ("c", "never"), ("d", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "imputation")
    return layout, cells


def member_contains(member, x, tol=1e-9):
    ok = np.all(member.A @ x <= member.d + tol)
    if member.A_eq is not None:
        ok = ok and np.max(np.abs(member.A_eq @ x - member.d_eq)) <= tol
    return bool(ok)


def family_contains(family, x, tol=1e-9):
    return any(member_contains(m, x, tol) for m in family.members)


def post_diffs(layout, cells, x):
    out = []
    for g, t_g in enumerate(layout.times):
        for s in range(1, layout.n_periods - t_g + 2):
            out.append(x[cells.position(t_g, s)] - x[cells.position(t_g, s - 1)])
    return np.array(out)


def pre_diffs_by_cohort(layout, cells, x):
    out = {}
    for g, t_g in enumerate(layout.times):
        ds = [
            x[cells.position(t_g, s)] - x[cells.position(t_g, s - 1)]
            for s in range(3 - t_g, 1)
        ]
        out[g] = np.array(ds)
    return out


def test_member_counts_toy(toy):
    layout, cells = toy
    assert rm_global(layout, cells, 1.0).member_count == 16
    assert rm_cohort(layout, cells, 1.0).member_count == 60
    assert sd(layout, cells, 1.0).member_count == 1


def test_rm_zero_forces_constant_path(toy):
    layout, cells = toy
    fam = rm_global(layout, cells, 0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=len(cells))
    # constant post path from the last pre value is in every member
    for g, t_g in enumerate(layout.times):
        for s in range(1, layout.n_periods - t_g + 2):
            x[cells.position(t_g, s)] = x[cells.position(t_g, 0)]
    assert all(member_contains(m, x) for m in fam.members)
    # any post change violates every member
    x[cells.position(5, 2)] += 0.1
    assert not family_contains(fam, x)


def test_member_count_scaling():
    units = [("a", "4"), ("b", "6"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "imputation")
    # pre diffs: t_g - 2 -> 2 and 4
    assert rm_global(layout, cells, 1.0).member_count == 2 * (2 + 4)
    assert rm_cohort(layout, cells, 1.0).member_count == (2 * 2) * (2 * 4)


def test_rm_cohort_needs_pre_difference():
    units = [("a", "2"), ("b", "5"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=6))))
    cells = build_cell_index(layout, 6, "imputation")
    with pytest.raises(CohortWithoutPreDifference):
        rm_cohort(layout, cells, 1.0)
    # the early cohort contributes no benchmark but the global family works
    fam = rm_global(layout, cells, 1.0)
    assert fam.member_count == 2 * 3


def test_rm_global_no_pre_differences_anywhere():
    units = [("a", "2"), ("n", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=4))))
    cells = build_cell_index(layout, 4, "imputation")
    with pytest.raises(NoPreDifferences):
        rm_global(layout, cells, 1.0)


def test_rm_cohort_member_cap(toy, monkeypatch):
    layout, cells = toy
    monkeypatch.setattr(restrictions, "MEMBER_CAP", 10)
    with pytest.raises(MemberCountExceedsCap):
        rm_cohort(layout, cells, 1.0)


def test_sd_row_count_and_pre_requirement(toy):
    layout, cells = toy
    fam = sd(layout, cells, 0.5)
    n_post = sum(layout.n_periods - t_g + 1 for t_g in layout.times)
    assert fam.members[0].A.shape[0] == 2 * n_post
    units = [("a", "2"), ("n", "never")]
    lay2 = build_layout(load_panel(io.StringIO(grid_csv(units, T=4))))
    cells2 = build_cell_index(lay2, 4, "imputation")
    with pytest.raises(CohortWithoutTwoPrePeriods):
        sd(lay2, cells2, 0.5)


def test_sd_linear_path_always_feasible(toy):
    layout, cells = toy
    rng = np.random.default_rng(1)
    x = np.zeros(len(cells))
    for g, t_g in enumerate(layout.times):
        a, b = rng.normal(size=2)
        for p in range(len(cells)):
            c = cells.cell(p)
            if c.cohort_time == t_g:
                x[p] = a + b * c.rel
    assert member_contains(sd(layout, cells, 0.0).members[0], x)
    # bending the path at one post period breaks M=0 but not M large
    x[cells.position(5, 2)] += 0.3
    assert not member_contains(sd(layout, cells, 0.0).members[0], x)
    assert member_contains(sd(layout, cells, 1.0).members[0], x)


def test_normalization_rows(toy):
    layout, cells = toy
    fam = with_normalization(rm_global(layout, cells, 0.5), layout)
    for m in fam.members:
        assert m.A_eq.shape == (2, len(cells))
        for row in m.A_eq:
            support = np.flatnonzero(row)
            assert all(cells.cell(p).pre for p in support)
    csnyt_cells = build_cell_index(layout, 8, "csnyt")
    with pytest.raises(RestrictionError):
        with_normalization(rm_global(layout, csnyt_cells, 0.5), layout)


def test_map_identity_when_single_cohort():
    text = grid_csv([("a", "4"), ("n", "never")], T=6)
    layout = build_layout(load_panel(io.StringIO(text)))
    cells = build_cell_index(layout, 6, "imputation")
    bm = invert(build_w_imputation(layout, cells))
    fam = rm_global(layout, cells, 0.7)
    mapped = map_to_delta_space(fam, bm)
    assert mapped.space == "overall"
    assert mapped.member_count == fam.member_count
    for a, b in zip(fam.members, mapped.members):
        assert np.array_equal(a.A, b.A)
        assert a.label == b.label


def test_map_preserves_union_structure(toy):
    layout, cells = toy
    bm = invert(build_w_imputation(layout, cells))
    fam = rm_cohort(layout, cells, 0.5)
    mapped = map_to_delta_space(fam, bm)
    assert mapped.member_count == 60
    with pytest.raises(RestrictionError):
        map_to_delta_space(mapped, bm)


def test_map_against_dense_inverse_toy_csnyt():
    units = [("a", "5"), ("b", "7"), ("c", "never"), ("d", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "csnyt")
    bm = invert(build_w_csnyt(layout, cells))
    fam = sd(layout, cells, 0.3)
    mapped = map_to_delta_space(fam, bm)
    oracle = fam.members[0].A @ np.linalg.inv(bm.W)
    assert np.max(np.abs(mapped.members[0].A - oracle)) < 1e-12
    # rows referencing the early cohort's s=3 diff pick up -+w7 couplings
    # on the later cohort's columns 8 and 14 of the sixteen-cell stack
    row_idx = [
        i
        for i in range(fam.members[0].A.shape[0])
        if fam.members[0].A[i, cells.position(5, 3)] > 0
    ]
    w7 = layout.weight(1)
    for i in row_idx:
        row = mapped.members[0].A[i]
        base = fam.members[0].A[i]
        # inverse rows: Delta_(5,3) = d_(5,3) + w7 d_(7,-2) - w7 d_(7,1) and
        # Delta_(5,4) = d_(5,4) + w7 d_(7,-2) - w7 d_(7,2)
        picked_up = w7 * (base[cells.position(5, 3)] + base[cells.position(5, 4)])
        assert row[cells.position(7, -2)] - base[cells.position(7, -2)] == (
            pytest.approx(picked_up)
        )
        assert row[cells.position(7, 1)] - base[cells.position(7, 1)] == (
            pytest.approx(-w7 * base[cells.position(5, 3)])
        )


def test_rm_feasibility_closure(toy):
    layout, cells = toy
    rng = np.random.default_rng(5)
    mbar = 0.8
    fam = rm_global(layout, cells, mbar)
    hits = 0
    for _ in range(40):
        x = rng.normal(size=len(cells))
        pres = pre_diffs_by_cohort(layout, cells, x)
        cap = mbar * max(np.abs(np.concatenate(list(pres.values()))))
        if np.all(np.abs(post_diffs(layout, cells, x)) <= cap):
            assert family_contains(fam, x)
            hits += 1
        else:
            assert not family_contains(fam, x)
    # shrink post diffs to force some interior points
    for _ in range(10):
        x = rng.normal(size=len(cells))
        for g, t_g in enumerate(layout.times):
            for s in range(1, layout.n_periods - t_g + 2):
                x[cells.position(t_g, s)] = x[cells.position(t_g, s - 1)] + (
                    rng.normal() * 0.01
                )
        assert family_contains(fam, x)
        hits += 1
    assert hits >= 10


def test_rm_cohort_subset_of_global(toy):
    layout, cells = toy
    rng = np.random.default_rng(6)
    cohort_fam = rm_cohort(layout, cells, 0.6)
    global_fam = rm_global(layout, cells, 0.6)
    for _ in range(60):
        x = rng.normal(size=len(cells)) * 0.5
        if family_contains(cohort_fam, x):
            assert family_contains(global_fam, x)


def test_feasible_sets_monotone_in_parameter(toy):
    layout, cells = toy
    rng = np.random.default_rng(7)
    for build in (rm_global, rm_cohort, sd):
        small = build(layout, cells, 0.3)
        large = build(layout, cells, 0.9)
        for _ in range(40):
            x = rng.normal(size=len(cells)) * 0.3
            if family_contains(small, x):
                assert family_contains(large, x)


def test_zero_parameter_members_nonempty(toy):
    layout, cells = toy
    rng = np.random.default_rng(8)
    x = rng.normal(size=len(cells))
    for g, t_g in enumerate(layout.times):
        base = x[cells.position(t_g, 0)]
        slope = base - x[cells.position(t_g, -1)]
        for s in range(1, layout.n_periods - t_g + 2):
            x[cells.position(t_g, s)] = base
    assert family_contains(rm_global(layout, cells, 0.0), x)
    assert family_contains(rm_cohort(layout, cells, 0.0), x)
    for g, t_g in enumerate(layout.times):
        base = x[cells.position(t_g, 0)]
        slope = base - x[cells.position(t_g, -1)]
        for s in range(1, layout.n_periods - t_g + 2):
            x[cells.position(t_g, s)] = base + s * slope
    assert family_contains(sd(layout, cells, 0.0), x)


def test_family_summary_shape(toy):
    from blockdid.restrictions import family_summary

    layout, cells = toy
    info = family_summary(rm_cohort(layout, cells, 0.5))
    assert info["family"] == "rm-cohort"
    assert info["parameter"] == 0.5
    assert info["member_count"] == 60
    first = info["members"][0]
    assert set(first) == {"rows", "equalities", "label"}
    assert len(first["label"]["benchmarks"]) == layout.n_cohorts


def test_structural_columns_zeroed_for_csnyt():
    units = [("a", "5"), ("b", "7"), ("c", "never")]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "csnyt")
    for fam in (rm_global(layout, cells, 1.0), sd(layout, cells, 1.0)):
        for m in fam.members:
            for p in range(len(cells)):
                if cells.structural_zero(p):
                    assert np.max(np.abs(m.A[:, p])) == 0.0
