"""Panels, cohort layouts, and the canonical cell ordering.

A staggered-adoption panel is a balanced unit-by-period grid where each unit
either adopts treatment at some period and stays treated, or never adopts.
This walk-through builds a small panel by hand, loads it through the CSV
reader, and inspects the cohort structure everything else is built on.
"""

import io

import numpy as np

from blockdid import build_cell_index, build_layout, load_panel

# A nine-unit panel over eight periods: one unit adopting at t=4, three at
# t=6, one at t=8, and four that never adopt.
rows = ["unit,time,outcome,cohort"]
rng = np.random.default_rng(0)
groups = [("early", 1, "4"), ("mid", 3, "6"), ("late", 1, "8"), ("ctrl", 4, "never")]
for name, count, label in groups:
    for i in range(count):
        for t in range(1, 9):
            rows.append(f"{name}{i},{t},{rng.normal():.4f},{label}")
panel = load_panel(io.StringIO("\n".join(rows) + "\n"))
print(f"{panel.n_units} units x {panel.n_periods} periods")

# The layout groups units into cohorts and knows each cohort's initial
# control group: everyone still untreated when the cohort adopts.
layout = build_layout(panel)
for g, (t_g, n_g) in enumerate(zip(layout.times, layout.sizes)):
    print(
        f"cohort g{t_g}: {n_g} unit(s), "
        f"{sum(layout.sizes[g + 1:]) + layout.never_size} initial controls, "
        f"adjustment weight {layout.weight(g):.3f}"
    )
# The mid cohort's weight is 3 / (3 + 1 + 4) = 0.375 and the late cohort's
# is 1 / (1 + 4) = 0.2: each cohort's share of itself plus everyone treated
# after it.  These weights drive the bias decomposition in demo 03.

# Every treated cohort contributes one cell per calendar period.  Cells are
# ordered by calendar time, then adoption time, which makes the bias map
# block structured.
cells = build_cell_index(layout, panel.n_periods, "imputation")
print(f"\n{len(cells)} cells (3 cohorts x 8 periods):")
print(" ".join(cells.labels()[:8]), "...")

# For the not-yet-treated estimator the reference cells (relative period 0)
# are structural zeros: they carry no coefficient.
cells_nyt = build_cell_index(layout, panel.n_periods, "csnyt")
flagged = [cells_nyt.labels()[p] for p in range(len(cells_nyt))
           if cells_nyt.structural_zero(p)]
print("structural zeros under csnyt:", " ".join(flagged))
