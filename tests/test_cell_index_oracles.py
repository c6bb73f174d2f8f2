"""Array cell index, bias maps and restriction families against loop oracles.

The oracles below are the per-cell loop implementations the array code
replaced: cells enumerated one at a time with a position dictionary, ``W``
filled row by row over adjustment cohorts, and restriction rows built one
difference at a time with structural columns zeroed per row.  They share
nothing with the library beyond ``CohortLayout``.  Every comparison is
bitwise (``tobytes``), so a -0.0 where the oracle has 0.0 fails too.
"""

import itertools

import numpy as np
import pytest

from blockdid.biasmap import build_w_csnyt, build_w_imputation
from blockdid.panel import build_cell_index, build_layout
from blockdid.restrictions import (
    RestrictionError,
    rm_cohort,
    rm_global,
    sd,
    with_normalization,
)
from blockdid.simgen import gen_custom

from conftest import random_spec
from oracles import adjustment_cohorts

ESTIMATORS = ("imputation", "csnyt")


# ---------------------------------------------------------------------------
# loop oracles
# ---------------------------------------------------------------------------


class LoopCells:
    """Cells (cohort, cohort_time, rel) by calendar time, then cohort."""

    def __init__(self, layout, T, estimator):
        self.cells = [
            (g, t_g, t - t_g + 1)
            for t in range(1, T + 1)
            for g, t_g in enumerate(layout.times)
        ]
        self.pos = {(t_g, s): p for p, (_, t_g, s) in enumerate(self.cells)}
        self.structural = [
            estimator == "csnyt" and s == 0 for _, _, s in self.cells
        ]

    def __len__(self):
        return len(self.cells)


def loop_w(layout, lc, estimator):
    W = np.eye(len(lc))
    for p, (g, t_g, s) in enumerate(lc.cells):
        if s < 1:
            continue
        t = t_g + s - 1
        for k in adjustment_cohorts(layout, g, t):
            t_k = layout.times[k]
            w = layout.weight(k)
            W[p, lc.pos[(t_k, t - t_k + 1)]] = w
            if estimator == "csnyt":
                W[p, lc.pos[(t_k, t_g - 1 - t_k + 1)]] = -w
    return W


def _zero_structural(row, lc):
    for p, structural in enumerate(lc.structural):
        if structural:
            row[p] = 0.0
    return row


def _diff_row(lc, t_g, s, coeff=1.0):
    row = np.zeros(len(lc))
    row[lc.pos[(t_g, s)]] += coeff
    row[lc.pos[(t_g, s - 1)]] -= coeff
    return row


def _post_rels(layout, g):
    return range(1, layout.n_periods - layout.times[g] + 2)


def loop_rm_member(layout, lc, mbar, benchmarks):
    rows = []
    for g, t_g in enumerate(layout.times):
        k, s_star, sign = benchmarks[g]
        bench = _diff_row(lc, layout.times[k], s_star, coeff=mbar * sign)
        for s in _post_rels(layout, g):
            base = _diff_row(lc, t_g, s)
            rows.append(_zero_structural(base - bench, lc))
            rows.append(_zero_structural(-base - bench, lc))
    return np.array(rows), np.zeros(len(rows))


def loop_rm_global(layout, lc, mbar):
    G = layout.n_cohorts
    return [
        loop_rm_member(layout, lc, mbar, {g: (k, s_star, sign) for g in range(G)})
        for k, t_k in enumerate(layout.times)
        for s_star in range(3 - t_k, 1)
        for sign in (1.0, -1.0)
    ]


def loop_rm_cohort(layout, lc, mbar):
    choice_sets = [
        [(g, s_star, sign) for s_star in range(3 - t_g, 1) for sign in (1.0, -1.0)]
        for g, t_g in enumerate(layout.times)
    ]
    return [
        loop_rm_member(layout, lc, mbar, dict(enumerate(combo)))
        for combo in itertools.product(*choice_sets)
    ]


def loop_sd(layout, lc, m):
    rows = []
    for g, t_g in enumerate(layout.times):
        for s in _post_rels(layout, g):
            row = np.zeros(len(lc))
            row[lc.pos[(t_g, s)]] += 1.0
            row[lc.pos[(t_g, s - 1)]] -= 2.0
            row[lc.pos[(t_g, s - 2)]] += 1.0
            rows.append(_zero_structural(row, lc))
            rows.append(_zero_structural(-row.copy(), lc))
    return [(np.array(rows), np.full(len(rows), m))]


def loop_normalization(layout, lc):
    rows = []
    for t_g in layout.times:
        row = np.zeros(len(lc))
        for s in range(2 - t_g, 1):
            row[lc.pos[(t_g, s)]] = 1.0
        rows.append(row)
    return np.array(rows)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def designs(seed, n, **kw):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        spec = random_spec(rng, noise=False, **kw)
        yield spec, build_layout(gen_custom(spec).panel)


def test_cell_arrays_match_loop_oracle():
    for spec, layout in designs(101, 150):
        for estimator in ESTIMATORS:
            cells = build_cell_index(layout, spec.T, estimator)
            lc = LoopCells(layout, spec.T, estimator)
            assert len(cells) == len(lc)
            cohort, cohort_time, rel = (np.array(v) for v in zip(*lc.cells))
            for got, want in (
                (cells.cohort, cohort),
                (cells.cohort_time, cohort_time),
                (cells.rel, rel),
                (cells.cal, cohort_time + rel - 1),
                (cells.structural, np.array(lc.structural)),
                (cells.pre, rel <= 0),
                (cells.post, rel >= 1),
            ):
                assert_bitwise(got, want)
                assert not got.flags.writeable
            assert_bitwise(
                cells.value_positions, np.flatnonzero(~np.array(lc.structural))
            )
            assert cells.labels() == tuple(f"g{t}:s{s:+d}" for _, t, s in lc.cells)
            for p, (g, t_g, s) in enumerate(lc.cells):
                assert cells.position(t_g, s) == p
                c = cells.cell(p)
                assert (c.cohort, c.cohort_time, c.rel) == (g, t_g, s)
                assert cells.structural_zero(p) == lc.structural[p]


def test_position_rejects_cells_outside_the_index():
    for spec, layout in designs(102, 20):
        cells = build_cell_index(layout, spec.T, "imputation")
        t_g = layout.times[0]
        for bad in ((t_g, 1 - t_g), (t_g, spec.T - t_g + 2), (1, 1)):
            with pytest.raises(KeyError):
                cells.position(*bad)


def test_w_builders_match_loop_oracle():
    builders = {"imputation": build_w_imputation, "csnyt": build_w_csnyt}
    for spec, layout in designs(103, 150):
        for estimator, build in builders.items():
            cells = build_cell_index(layout, spec.T, estimator)
            lc = LoopCells(layout, spec.T, estimator)
            assert_bitwise(build(layout, cells).W, loop_w(layout, lc, estimator))


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared by type below
        return None, type(exc)


def test_families_match_loop_oracle_with_row_order():
    builders = (
        (rm_global, loop_rm_global),
        (rm_cohort, loop_rm_cohort),
        (sd, loop_sd),
    )
    compared = dict.fromkeys(("rm-global", "rm-cohort", "sd"), 0)
    for i, (spec, layout) in enumerate(designs(104, 120, max_t=8, max_g=3)):
        param = 0.0 if i % 3 == 0 else float(np.round(0.1 + 0.7 * (i % 5), 2))
        for estimator in ESTIMATORS:
            cells = build_cell_index(layout, spec.T, estimator)
            lc = LoopCells(layout, spec.T, estimator)
            for build, oracle in builders:
                fam, err = _outcome(lambda: build(layout, cells, param))
                want, want_err = _outcome(lambda: oracle(layout, lc, param))
                if err is not None:
                    # the library refuses designs where the oracle builds no
                    # member or asks for a cell before period 1
                    assert issubclass(err, RestrictionError)
                    assert want_err is KeyError or want == []
                    continue
                assert want_err is None
                assert fam.member_count == len(want)
                for member, (A, d) in zip(fam.members, want):
                    assert_bitwise(member.A, A)
                    assert_bitwise(member.d, d)
                    compared[fam.family] += 1
                if estimator == "imputation":
                    normed = with_normalization(fam, layout)
                    assert_bitwise(
                        normed.members[0].A_eq, loop_normalization(layout, lc)
                    )
    assert min(compared.values()) >= 100, compared
