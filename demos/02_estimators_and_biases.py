"""Cohort-period estimates and pre-treatment block biases.

Both supported estimators produce one coefficient per cohort-period cell:
estimated treatment effects after adoption, block biases before.  The block
bias compares a cohort with its initial control group under a fixed
convention, so the pre-treatment series is a meaningful benchmark for what
could go wrong after treatment.
"""

import numpy as np

from blockdid import Violation, aggregate, build_layout, estimate, gen_toy

# Two cohorts adopting at t=5 and t=7, the late one with a linear deviation
# from common trends, and a +2 effect once treated.
sim = gen_toy(
    seed=7, sizes=(6, 6, 8), noise_sd=0.5,
    violations=(Violation(), Violation("linear", 0.4)), effect=2.0,
)
panel = sim.panel
layout = build_layout(panel)

# The imputation estimator fits unit and period effects on untreated cells
# and imputes counterfactuals.  It equals round-by-round sequential
# imputation, and hold-out re-estimates of the pre coefficients are a known
# rescaling of its block biases; acceptance criteria 1 and 7 pin both
# identities.
coeffs = estimate(panel, "imputation")
print("imputation effects:", np.round(coeffs.values[coeffs.post_mask], 3))
for t_g in layout.times:
    vals = [coeffs.value(t_g, s) for s in range(2 - t_g, 1)]
    print(f"g{t_g} pre block biases: {np.round(vals, 3)} (sum {sum(vals):+.1e})")
# Each cohort's pre biases sum to zero by construction; the late cohort's
# slope reflects the deviation built into the data.

# The not-yet-treated estimator anchors at the last untreated period and
# ends up with the same stacked layout, minus the reference cells.
nyt = estimate(panel, "csnyt")
print("csnyt effect at (g5, s=1):", round(nyt.value(5, 1), 3))

# Aggregating by relative period gives the familiar event-study series, and
# records which cohorts support each period: the composition shifts.
agg = aggregate(coeffs, layout)
for r, s in enumerate(agg.rel_periods):
    who = sorted(
        {
            coeffs.cells.cell(p).cohort_time
            for j, p in enumerate(coeffs.positions)
            if agg.weights[r, j] > 0
        }
    )
    print(f"s={s:+d}: value {agg.values[r]:+.3f} from cohorts {who}")
