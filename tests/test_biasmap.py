import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from blockdid.biasmap import (
    BiasMap,
    build_w_csnyt,
    build_w_imputation,
    invert,
    write_biasmap_csv,
)
from blockdid.estimators import CoefficientSet, estimate
from blockdid.panel import build_cell_index, build_layout, load_panel
from blockdid.simgen import DGPSpec, Violation, gen_custom

from conftest import random_spec
from oracles import adjustment_cohorts, dense_inverse, initial_control_units
from test_panel import grid_csv


@pytest.fixture(scope="module")
def staircase_layout():
    # one unit at t=4, three at t=6, one at t=8, four never-treated
    units = [("e", "4")] + [(f"m{i}", "6") for i in range(3)]
    units += [("l", "8")] + [(f"n{i}", "never") for i in range(4)]
    return build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))


def test_imputation_rows_carry_adjustment_weights(staircase_layout):
    layout = staircase_layout
    cells = build_cell_index(layout, 8, "imputation")
    bm = build_w_imputation(layout, cells)
    # early cohort at s=3 (t=6): own cell plus 0.375 on the mid cohort's s=1
    row = bm.W[cells.position(4, 3)]
    want = np.zeros(24)
    want[cells.position(4, 3)] = 1.0
    want[cells.position(6, 1)] = 0.375
    assert np.array_equal(row, want)
    # early cohort at s=5 (t=8): 0.375 on (6, s=3) and 0.2 on (8, s=1)
    row = bm.W[cells.position(4, 5)]
    want = np.zeros(24)
    want[cells.position(4, 5)] = 1.0
    want[cells.position(6, 3)] = 0.375
    want[cells.position(8, 1)] = 0.2
    assert np.array_equal(row, want)


def test_single_cohort_map_is_identity():
    text = grid_csv([("a", "3"), ("n", "never")], T=5)
    layout = build_layout(load_panel(io.StringIO(text)))
    cells = build_cell_index(layout, 5, "imputation")
    assert np.array_equal(build_w_imputation(layout, cells).W, np.eye(5))
    cells2 = build_cell_index(layout, 5, "csnyt")
    assert np.array_equal(build_w_csnyt(layout, cells2).W, np.eye(5))


def toy_16_expected(w7):
    W = np.eye(16)
    W[12, 7] = -w7
    W[12, 13] = w7
    W[14, 7] = -w7
    W[14, 15] = w7
    return W


@pytest.mark.parametrize("sizes", [(1, 1, 1), (4, 4, 4), (2, 5, 3)])
def test_csnyt_toy_sixteen_cell_golden(sizes):
    n5, n7, ninf = sizes
    units = [(f"a{i}", "5") for i in range(n5)]
    units += [(f"b{i}", "7") for i in range(n7)]
    units += [(f"c{i}", "never") for i in range(ninf)]
    layout = build_layout(load_panel(io.StringIO(grid_csv(units, T=8))))
    cells = build_cell_index(layout, 8, "csnyt")
    bm = invert(build_w_csnyt(layout, cells))
    w7 = n7 / (n7 + ninf)
    assert layout.weight(1) == pytest.approx(w7)
    assert np.array_equal(bm.W, toy_16_expected(w7))
    assert bm.det() == 1.0
    assert np.max(np.abs(bm.W @ bm.W_inverse - np.eye(16))) < 1e-12


def test_inverse_structure(staircase_layout):
    layout = staircase_layout
    for estimator, builder in (
        ("imputation", build_w_imputation),
        ("csnyt", build_w_csnyt),
    ):
        cells = build_cell_index(layout, 8, estimator)
        bm = invert(builder(layout, cells))
        assert np.max(np.abs(bm.W @ bm.W_inverse - np.eye(len(cells)))) < 1e-12
        cals = cells.cal
        above = np.triu(np.ones((24, 24), dtype=bool), 1) & (
            cals[:, None] != cals[None, :]
        )
        # no entries above the diagonal blocks in either W or its inverse
        assert np.max(np.abs(bm.W[above & (cals[:, None] < cals[None, :])])) == 0
        assert (
            np.max(np.abs(bm.W_inverse[above & (cals[:, None] < cals[None, :])])) == 0
        )
        if estimator == "imputation":
            off_block = cals[:, None] != cals[None, :]
            assert np.max(np.abs(bm.W[off_block])) == 0
            assert np.max(np.abs(bm.W_inverse[off_block])) == 0


def _wide_layout(never):
    # T=40, twenty cohorts adopting at t=2,4,...,40: 800 cells
    units = [(f"g{t}_{i}", str(t)) for t in range(2, 41, 2) for i in range(t % 5 + 1)]
    units += [(f"n{i}", "never") for i in range(never)]
    return build_layout(load_panel(io.StringIO(grid_csv(units, T=40))))


@pytest.mark.parametrize(
    "estimator, builder",
    [("imputation", build_w_imputation), ("csnyt", build_w_csnyt)],
)
def test_inverse_wide_layout(estimator, builder):
    layout = _wide_layout(7)  # twenty cohorts of unequal sizes
    cells = build_cell_index(layout, 40, estimator)
    bm = invert(builder(layout, cells))
    resid = np.abs(bm.W @ bm.W_inverse - np.eye(len(cells))).sum(axis=1).max()
    assert resid < 1e-12


def test_invert_rejects_entries_in_later_calendar_blocks(staircase_layout):
    cells = build_cell_index(staircase_layout, 8, "imputation")
    for row, col, value in (
        ((4, 1), (4, 2), 0.5),  # t=4 row, t=5 column
        ((8, 1), (4, 5), 0.5),  # below the diagonal inside the t=8 block
        ((4, 2), (6, 1), np.nan),  # a nan in a later block is an entry too
    ):
        W = np.eye(len(cells))
        W[cells.position(*row), cells.position(*col)] = value
        with pytest.raises(ValueError, match="block-triangular"):
            invert(BiasMap(estimator="imputation", cells=cells, W=W))


def test_invert_matches_the_dense_triangular_solve():
    # the block solve sums in another order than LAPACK's, so entries may
    # differ in the last bits: each within 8 eps of the dense solve's entry,
    # relative, with the same zeros and the same sign bits (-0.0 included),
    # which the CSV writer prints
    layouts = [_wide_layout(7), _wide_layout(400)]
    rng = np.random.default_rng(26)
    for _ in range(40):
        panel = gen_custom(random_spec(rng, max_n=80, max_t=16, max_g=10)).panel
        layouts.append(build_layout(panel))
    for layout in layouts:
        for estimator, builder in (
            ("imputation", build_w_imputation),
            ("csnyt", build_w_csnyt),
        ):
            cells = build_cell_index(layout, layout.n_periods, estimator)
            bm = builder(layout, cells)
            want, got = dense_inverse(bm), invert(bm).W_inverse
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(got == 0, want == 0)
            tol = 8 * np.finfo(float).eps * np.abs(want)
            assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_invert_holds_only_the_inverse_and_small_work_arrays(estimator):
    # beyond W, the 800-cell inversion holds W^-1 and O(G n) floats; the
    # dense solve held three n x n arrays at once
    layout = _wide_layout(400)
    cells = build_cell_index(layout, 40, estimator)
    bm = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}[estimator](
        layout, cells
    )
    n, G = len(cells), layout.n_cohorts
    tracemalloc.start()
    try:
        invert(bm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n * n + 8 * G * n)


@pytest.mark.parametrize("estimator", ["imputation", "csnyt"])
def test_a_mismatched_estimator_tag_is_refused(staircase_layout, estimator):
    # a map or coefficients tagged for one estimator over the other's cell
    # index (the csnyt index has structural zeros at s = 0) are refused,
    # rather than built for the tag and read over the wrong cells
    other = {"imputation": "csnyt", "csnyt": "imputation"}[estimator]
    cells = build_cell_index(staircase_layout, 8, other)
    builder = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}[estimator]
    with pytest.raises(ValueError, match="cell index"):
        builder(staircase_layout, cells)
    with pytest.raises(ValueError, match="cell index"):
        BiasMap(estimator, cells, np.eye(len(cells)))
    positions = cells.value_positions[cells.post[cells.value_positions]]
    with pytest.raises(ValueError, match="cell index"):
        CoefficientSet(estimator, cells, positions, np.zeros(len(positions)))
    CoefficientSet(other, cells, positions, np.zeros(len(positions)))
    builder = {"imputation": build_w_csnyt, "csnyt": build_w_imputation}[estimator]
    assert builder(staircase_layout, cells).estimator == other


def test_invert_shares_the_frozen_map(staircase_layout):
    cells = build_cell_index(staircase_layout, 8, "csnyt")
    bm = build_w_csnyt(staircase_layout, cells)
    inv = invert(bm)
    assert np.shares_memory(inv.W, bm.W)
    assert not inv.W.flags.writeable and not inv.W_inverse.flags.writeable
    assert bm.W_inverse is None  # the input map is left as it was
    with pytest.raises(ValueError):
        inv.W[0, 0] = 2.0


def per_element_csv(cells, M):
    labels = cells.labels()
    return "cell," + ",".join(labels) + "\n" + "".join(
        lab + "," + ",".join(repr(float(x)) for x in row) + "\n"
        for lab, row in zip(labels, M)
    )


@pytest.mark.parametrize("inverse", [False, True])
def test_biasmap_csv_bytes_match_per_element_repr(staircase_layout, inverse):
    cells = build_cell_index(staircase_layout, 8, "imputation")
    bm = invert(build_w_imputation(staircase_layout, cells))
    out = io.StringIO()
    write_biasmap_csv(bm, out, inverse=inverse)
    M = bm.W_inverse if inverse else bm.W
    assert out.getvalue() == per_element_csv(cells, M)


def test_biasmap_csv_writes_signed_zeros_and_non_finite_entries(staircase_layout):
    # only +0.0 is written without formatting; -0.0, nan and inf keep their repr
    cells = build_cell_index(staircase_layout, 8, "imputation")
    M = np.zeros((len(cells), len(cells)))
    M[0, :6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.25]
    M[-1, -1] = -0.0
    bm = dataclasses.replace(build_w_imputation(staircase_layout, cells), W_inverse=M)
    out = io.StringIO()
    write_biasmap_csv(bm, out, inverse=True)
    assert out.getvalue() == per_element_csv(cells, M)
    first = out.getvalue().splitlines()[1].split(",")
    assert first[1:8] == ["-0.0", "nan", "inf", "-inf", "5e-324", "0.25", "0.0"]
    assert out.getvalue().splitlines()[-1].endswith(",-0.0")


def test_biasmap_csv_bytes_match_per_element_repr_on_random_sparse_maps(
    staircase_layout,
):
    # rows are written from their nonzeros: empty rows, a dense row, entries
    # in the first and the last column and every kind of non-+0.0 entry
    cells = build_cell_index(staircase_layout, 8, "imputation")
    n = len(cells)
    bm = build_w_imputation(staircase_layout, cells)
    rng = np.random.default_rng(28)
    odd = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300])
    for density in (0.0, 0.02, 0.1, 0.5):
        M = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
        spots = rng.integers(0, n, size=(8, 2))
        M[spots[:, 0], spots[:, 1]] = rng.choice(odd, size=8)
        M[rng.integers(n), :] = rng.normal(size=n)  # one dense row
        M[rng.integers(n, size=3), 0] = [-0.0, 1.5, np.nan]
        M[rng.integers(n, size=3), -1] = [-np.inf, -0.0, 2.5]
        M[rng.integers(n, size=2), :] = 0.0  # empty rows
        out = io.StringIO()
        write_biasmap_csv(dataclasses.replace(bm, W_inverse=M), out, inverse=True)
        assert out.getvalue().split("\n") == per_element_csv(cells, M).split("\n")


@pytest.mark.parametrize(
    "estimator, builder",
    [("imputation", build_w_imputation), ("csnyt", build_w_csnyt)],
)
def test_biasmap_csv_bytes_match_per_element_repr_at_800_cells(estimator, builder):
    layout = _wide_layout(400)
    cells = build_cell_index(layout, 40, estimator)
    bm = invert(builder(layout, cells))
    for inverse, M in ((False, bm.W), (True, bm.W_inverse)):
        out = io.StringIO()
        write_biasmap_csv(bm, out, inverse=inverse)
        assert out.getvalue() == per_element_csv(cells, M)


def test_identity_map_inverts_to_identity():
    text = grid_csv([("a", "3"), ("n", "never")], T=4)
    layout = build_layout(load_panel(io.StringIO(text)))
    cells = build_cell_index(layout, 4, "imputation")
    bm = invert(build_w_imputation(layout, cells))
    assert np.array_equal(bm.W_inverse, np.eye(4))


def test_entries_and_post_row_sums(staircase_layout):
    layout = staircase_layout
    cells = build_cell_index(layout, 8, "imputation")
    bm = build_w_imputation(layout, cells)
    weights = {layout.weight(k) for k in range(layout.n_cohorts)}
    allowed = {0.0, 1.0} | weights | {-w for w in weights}
    assert set(np.unique(bm.W)) <= allowed
    for p in range(len(cells)):
        c = cells.cell(p)
        if c.post:
            ks = adjustment_cohorts(layout, c.cohort, c.cal)
            want = 1.0 + sum(layout.weight(k) for k in ks)
            assert bm.W[p].sum() == pytest.approx(want, abs=1e-12)


def test_path_weight_collapse(staircase_layout):
    # direct path plus the path through the mid cohort collapses to w_late
    layout = staircase_layout
    n6, n8, ninf = 3, 1, 4
    direct = n8 / (n6 + n8 + ninf)
    via_mid = (n6 / (n6 + n8 + ninf)) * (n8 / (n8 + ninf))
    assert direct + via_mid == pytest.approx(n8 / (n8 + ninf))
    assert layout.weight(2) == pytest.approx(n8 / (n8 + ninf))


def _true_block_biases(sim, layout, cells, estimator):
    y0 = sim.baseline
    out = np.zeros(len(cells))
    for p in range(len(cells)):
        c = cells.cell(p)
        own = layout.cohort_units[c.cohort]
        ctrl = initial_control_units(layout, c.cohort)
        if estimator == "imputation":
            pre_cols = list(range(layout.times[c.cohort] - 1))
            lhs = y0[own, c.cal - 1].mean() - y0[np.ix_(own, pre_cols)].mean()
            rhs = y0[ctrl, c.cal - 1].mean() - y0[np.ix_(ctrl, pre_cols)].mean()
        else:
            t_ref = layout.times[c.cohort] - 1
            lhs = y0[own, c.cal - 1].mean() - y0[own, t_ref - 1].mean()
            rhs = y0[ctrl, c.cal - 1].mean() - y0[ctrl, t_ref - 1].mean()
        out[p] = lhs - rhs
    return out


def _noiseless_identity_gap(sim, estimator):
    """max |delta - W Delta| with truth taken from the retained baseline."""
    panel = sim.panel
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, estimator)
    builder = build_w_imputation if estimator == "imputation" else build_w_csnyt
    bm = builder(layout, cells)
    block = _true_block_biases(sim, layout, cells, estimator)
    overall = block.copy()
    observed = estimate(panel, estimator)
    for p in range(len(cells)):
        c = cells.cell(p)
        if c.post:
            overall[p] = observed.value(c.cohort_time, c.rel) - sim.effect
        if cells.structural_zero(p):
            overall[p] = block[p] = 0.0
    return np.max(np.abs(overall - bm.W @ block))


def test_noiseless_decomposition_identity():
    rng = np.random.default_rng(13)
    kinds = ["none", "oscillating", "linear"]
    for trial in range(6):
        G = int(rng.integers(1, 4))
        T = int(rng.integers(6, 10))
        times = sorted(rng.choice(np.arange(2, T + 1), size=G, replace=False))
        spec = DGPSpec(
            T=T,
            cohorts=tuple((int(t), int(rng.integers(1, 5))) for t in times),
            never_size=int(rng.integers(1, 5)),
            noise_sd=0.0,
            violations=tuple(
                Violation(kinds[int(rng.integers(0, 3))], float(rng.uniform(-1, 1)))
                for _ in range(G)
            ),
            effect=float(rng.uniform(-2, 2)),
            seed=trial,
        )
        sim = gen_custom(spec)
        assert _noiseless_identity_gap(sim, "imputation") < 1e-10
        assert _noiseless_identity_gap(sim, "csnyt") < 1e-10
