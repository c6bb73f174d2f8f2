"""The invertible map between overall biases and block biases.

When early cohorts borrow later cohorts as controls, a later cohort's
parallel-trends violation leaks into the early cohort's estimates.  The
leakage is exactly linear: stacking all cells, overall bias = W x block
bias with W unit-diagonal and invertible.  This demo builds W, checks its
structure, and verifies the identity on a deterministic panel where the
truth is known.
"""

import numpy as np

from blockdid import (
    DGPSpec,
    Violation,
    build_cell_index,
    build_layout,
    build_w_csnyt,
    build_w_imputation,
    estimate,
    gen_custom,
    invert,
)

sim = gen_custom(
    DGPSpec(
        T=8,
        cohorts=((4, 2), (6, 3)),
        never_size=3,
        noise_sd=0.0,  # deterministic: estimator output equals its expectation
        violations=(Violation("linear", 0.3), Violation("oscillating", 0.8)),
        effect=1.5,
        seed=1,
    )
)
panel = sim.panel
layout = build_layout(panel)

for estimator, builder in (("imputation", build_w_imputation), ("csnyt", build_w_csnyt)):
    cells = build_cell_index(layout, panel.n_periods, estimator)
    bm = invert(builder(layout, cells))

    # true block biases straight from the retained untreated baseline
    y0 = sim.baseline
    block = np.zeros(len(cells))
    for p in range(len(cells)):
        c = cells.cell(p)
        own = layout.cohort_units[c.cohort]
        # the initial control group: later cohorts and the never-treated
        ctrl = np.concatenate([*layout.cohort_units[c.cohort + 1:], layout.never_units])
        if estimator == "imputation":
            pre_cols = list(range(layout.times[c.cohort] - 1))
            block[p] = (
                y0[own, c.cal - 1].mean() - y0[np.ix_(own, pre_cols)].mean()
            ) - (y0[ctrl, c.cal - 1].mean() - y0[np.ix_(ctrl, pre_cols)].mean())
        else:
            t_ref = layout.times[c.cohort] - 1
            block[p] = (y0[own, c.cal - 1].mean() - y0[own, t_ref - 1].mean()) - (
                y0[ctrl, c.cal - 1].mean() - y0[ctrl, t_ref - 1].mean()
            )

    # true overall biases: estimate minus the true effect on post cells
    coeffs = estimate(panel, estimator)
    overall = block.copy()
    for p in range(len(cells)):
        c = cells.cell(p)
        if cells.structural_zero(p):
            overall[p] = block[p] = 0.0
        elif c.post:
            overall[p] = coeffs.value(c.cohort_time, c.rel) - sim.effect

    gap = np.max(np.abs(overall - bm.W @ block))
    print(f"{estimator}: ||overall - W block||_max = {gap:.2e}")
    print(f"  det(W) = {bm.det()},  ||W W^-1 - I||_max = "
          f"{np.max(np.abs(bm.W @ bm.W_inverse - np.eye(len(cells)))):.2e}")

    # the early cohort's late cells mix in the late cohort's biases with the
    # cohort-share weight
    row = bm.W[cells.position(4, 5)]
    entries = {cells.labels()[j]: round(float(v), 3)
               for j, v in enumerate(row) if v != 0}
    print(f"  row for (g4, s=+5): {entries}")
