"""Polyhedral restriction families on the block-bias path.

Robust inference needs an assumption linking post-treatment bias to the
observable pre-treatment record.  Two families are provided: relative
magnitudes (post changes bounded by a multiple of the largest pre change,
with a global or per-cohort benchmark) and second differences (bounded
slope changes).  Sign and benchmark enumeration make each member a plain
polyhedron, and the family is their union.
"""

import numpy as np

from blockdid import (
    build_cell_index,
    build_layout,
    build_w_imputation,
    family_summary,
    gen_toy,
    invert,
    map_to_delta_space,
    rm_cohort,
    rm_global,
    sd,
)

panel = gen_toy(seed=3, sizes=(5, 5, 6), noise_sd=0.5).panel
layout = build_layout(panel)
cells = build_cell_index(layout, panel.n_periods, "imputation")

# Member counts: the global benchmark enumerates every consecutive pre
# change once (times two signs); the cohort-specific version takes the
# product over cohorts, which is what makes it expensive with many cohorts.
for fam in (rm_global(layout, cells, 1.0), rm_cohort(layout, cells, 1.0),
            sd(layout, cells, 0.5)):
    info = family_summary(fam)
    print(f"{info['family']}: {info['member_count']} member(s), "
          f"{info['members'][0]['rows']} rows each")

fam = rm_cohort(layout, cells, 1.0)
print("\nfirst member benchmarks (cohort, source, period, sign):")
print(" ", family_summary(fam)["members"][0]["label"]["benchmarks"])

# A family holds the difference rows its members share once, plus one
# (benchmark cohort, pre period, sign) per cohort and member; a member's rows
# are formed only when asked for.
print(f"shared rows {fam.diffs.shape}, benchmark table {fam.benchmarks.shape}")

# Families are built on block biases and mapped to the overall-bias space
# through the inverse of the bias map; the union structure is preserved.
bm = invert(build_w_imputation(layout, cells))
mapped = map_to_delta_space(fam, bm)
print(f"\nmapped family: space={mapped.space}, members={mapped.member_count}")

# At sensitivity zero every member forces the post path to stay flat at the
# last pre value, so the whole union collapses to one restriction.
flat = rm_global(layout, cells, 0.0)
member = flat.member(0)
x = np.zeros(len(cells))
x[cells.position(5, 1)] = 0.2  # a post jump violates every member
violated = bool(np.any(member.A @ x > member.d + 1e-12))
print(f"post jump violates the zero-sensitivity member: {violated}")
