"""Polyhedral restriction families on block biases.

A restriction family is a finite union of polyhedra {Delta : A Delta <= d}
over the full cell-index coordinate system.  Three families are provided:

* relative magnitudes with a global benchmark (``rm-global``): post-treatment
  consecutive changes of every cohort's block bias are bounded by Mbar times
  one candidate pre-treatment change, enumerated over all cohorts, periods,
  and signs;
* relative magnitudes with cohort-specific benchmarks (``rm-cohort``): each
  cohort is bounded by a candidate change from its own pre-treatment history,
  enumerated over the Cartesian product of per-cohort choices;
* second differences (``sd``): a single polyhedron bounding the change in
  slope of every cohort's block-bias path by M.

Sign enumeration keeps every member linear; members whose benchmark has the
wrong sign are retained (they are simply infeasible once data are plugged
in), so the family never depends on the sample.  Families are built in
block-bias space and mapped to overall-bias space with the inverse bias map;
the mapped family records that map and whether the zero-sum normalization
was appended, which is all the plug-in set reads besides the tag and the
parameter.
"""

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .biasmap import BiasMap
from .panel import CellIndex, CohortLayout

__all__ = [
    "FAMILY_KINDS",
    "RestrictionError",
    "UnknownFamily",
    "NoPreDifferences",
    "CohortWithoutPreDifference",
    "CohortWithoutTwoPrePeriods",
    "MemberCountExceedsCap",
    "Polyhedron",
    "RestrictionFamily",
    "rm_global",
    "rm_cohort",
    "sd",
    "with_normalization",
    "map_to_delta_space",
    "family_summary",
]

MEMBER_CAP = 100_000
FAMILY_KINDS = ("rm-global", "rm-cohort", "sd")


class RestrictionError(ValueError):
    code = "RESTRICTION_ERROR"


class UnknownFamily(RestrictionError):
    code = "UNKNOWN_FAMILY"


class NoPreDifferences(RestrictionError):
    code = "NO_PRE_DIFFERENCES"


class CohortWithoutPreDifference(RestrictionError):
    code = "COHORT_WITHOUT_PRE_DIFFERENCE"


class CohortWithoutTwoPrePeriods(RestrictionError):
    code = "COHORT_WITHOUT_TWO_PRE_PERIODS"


class MemberCountExceedsCap(RestrictionError):
    code = "MEMBER_COUNT_EXCEEDS_CAP"


@dataclass(frozen=True)
class Polyhedron:
    """One member {x : A x <= d, A_eq x = d_eq} over the full cell index."""

    A: np.ndarray
    d: np.ndarray
    A_eq: np.ndarray = None
    d_eq: np.ndarray = None
    label: dict = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        d = np.asarray(self.d, dtype=float).ravel()
        if A.shape[0] != d.shape[0]:
            raise ValueError("A and d row counts differ")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "d", d)
        if self.A_eq is not None:
            A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            d_eq = np.asarray(self.d_eq, dtype=float).ravel()
            if A_eq.shape[1] != A.shape[1] or A_eq.shape[0] != d_eq.shape[0]:
                raise ValueError("equality block shape mismatch")
            object.__setattr__(self, "A_eq", A_eq)
            object.__setattr__(self, "d_eq", d_eq)

    @property
    def n_columns(self):
        return self.A.shape[1]


@dataclass(frozen=True)
class RestrictionFamily:
    """Finite union of polyhedra with benchmark metadata.

    ``family`` is one of ``FAMILY_KINDS``.  ``space`` is ``block`` for
    restrictions on block biases and ``overall`` once mapped through the
    inverse bias map, which ``map_to_delta_space`` records as ``bias_map``.
    ``normalized`` marks the per-cohort zero-sum equalities appended by
    ``with_normalization``.  Feasible set = union of members.
    """

    family: str
    parameter: float
    members: tuple
    space: str
    cells: CellIndex
    bias_map: BiasMap = field(default=None, repr=False, compare=False)
    normalized: bool = False

    def __post_init__(self):
        if self.family not in FAMILY_KINDS:
            raise UnknownFamily(
                f"unknown family {self.family!r}; expected one of "
                f"{', '.join(FAMILY_KINDS)}"
            )
        if not self.members:
            raise RestrictionError("family must have at least one member")
        n = len(self.cells)
        if any(m.n_columns != n for m in self.members):
            raise RestrictionError("member column count does not match cell index")
        if self.parameter < 0:
            raise RestrictionError("sensitivity parameter must be nonnegative")

    @property
    def member_count(self):
        return len(self.members)


def _pre_diff_slots(layout: CohortLayout):
    """Per cohort, the rel periods s* with a consecutive pre difference
    (both (g, s*) and (g, s*-1) are pre cells)."""
    return [list(range(3 - t_g, 1)) for t_g in layout.times]


def _post_cells(cells: CellIndex):
    """Post cells by cohort, then relative period: the row order of every
    member, two rows (the bound and its mirror) per cell."""
    post = np.flatnonzero(cells.post)
    return post[np.argsort(cells.cohort[post], kind="stable")]


def _difference_rows(cells: CellIndex, cohort, cal, coeffs):
    """One row per (cohort, cal) pair picking sum_j coeffs[j] * Delta at
    (cohort, cal - j); a coefficient may be a scalar or one value per row."""
    rows = np.zeros((len(cal), len(cells)))
    at = np.arange(len(cal))
    for j, c in enumerate(coeffs):
        rows[at, cells.locate(cohort, cal - j)] += c
    return rows


def _member_rows(first, second, cells: CellIndex):
    """Rows ``first`` and ``second`` interleaved, structural-zero columns
    zeroed by assignment (multiplying by a mask would leave -0.0)."""
    A = np.empty((2 * len(first), len(cells)))
    A[0::2] = first
    A[1::2] = second
    A[:, cells.structural] = 0.0
    return A


def _rm_members(layout, cells, mbar, choices):
    """One member per benchmark choice, a (k, s*, sign) per cohort: each
    cohort's post differences are bounded by its signed benchmark difference
    times ``mbar``.  The post differences are built once for all members."""
    post = _post_cells(cells)
    base = _difference_rows(cells, cells.cohort[post], cells.cal[post], (1.0, -1.0))
    times = np.array(layout.times)
    members = []
    for choice in choices:
        k, s_star, sign = (np.array(v) for v in zip(*choice))
        coeff = mbar * sign
        bench = _difference_rows(cells, k, times[k] + s_star - 1, (coeff, -coeff))
        bench = bench[cells.cohort[post]]  # each row takes its cohort's benchmark
        A = _member_rows(base - bench, -base - bench, cells)
        label = [
            (layout.times[g], layout.times[k], s, "+" if sgn > 0 else "-")
            for g, (k, s, sgn) in enumerate(choice)
        ]
        members.append(Polyhedron(A=A, d=np.zeros(len(A)), label={"benchmarks": label}))
    return tuple(members)


def rm_global(layout: CohortLayout, cells: CellIndex, mbar: float) -> RestrictionFamily:
    """Relative-magnitudes family with one benchmark shared by all cohorts.

    One member per (benchmark cohort, benchmark pre period, sign); cohorts
    with no pre-treatment difference contribute no benchmark candidates but
    are still constrained inside every member.
    """
    slots = _pre_diff_slots(layout)
    candidates = [
        (k, s_star)
        for k, ss in enumerate(slots)
        for s_star in ss
    ]
    if not candidates:
        raise NoPreDifferences(
            "no cohort has two consecutive pre-treatment periods"
        )
    members = _rm_members(
        layout, cells, mbar,
        (
            ((k, s_star, sign),) * layout.n_cohorts
            for k, s_star in candidates
            for sign in (1.0, -1.0)
        ),
    )
    return RestrictionFamily(
        family="rm-global",
        parameter=mbar,
        members=members,
        space="block",
        cells=cells,
    )


def rm_cohort(
    layout: CohortLayout, cells: CellIndex, mbar: float, cap: int = MEMBER_CAP
) -> RestrictionFamily:
    """Relative-magnitudes family with per-cohort benchmarks.

    Members enumerate the Cartesian product of each cohort's (pre period,
    sign) choices, so the count grows multiplicatively with the number of
    cohorts; ``cap`` guards against runaway enumeration.
    """
    slots = _pre_diff_slots(layout)
    for g, ss in enumerate(slots):
        if not ss:
            raise CohortWithoutPreDifference(
                f"cohort g{layout.times[g]} has no consecutive pre-treatment "
                "difference to benchmark against"
            )
    total = 1
    for ss in slots:
        total *= 2 * len(ss)
        if total > cap:
            raise MemberCountExceedsCap(
                f"cohort-specific enumeration exceeds {cap} members"
            )
    choice_sets = [
        [(g, s_star, sign) for s_star in ss for sign in (1.0, -1.0)]
        for g, ss in enumerate(slots)
    ]
    members = _rm_members(layout, cells, mbar, itertools.product(*choice_sets))
    return RestrictionFamily(
        family="rm-cohort",
        parameter=mbar,
        members=members,
        space="block",
        cells=cells,
    )


def sd(layout: CohortLayout, cells: CellIndex, m: float) -> RestrictionFamily:
    """Second-differences family: one polyhedron bounding slope changes by M."""
    for g, t_g in enumerate(layout.times):
        if t_g - 1 < 2:
            raise CohortWithoutTwoPrePeriods(
                f"cohort g{t_g} has fewer than two pre-treatment periods"
            )
    post = _post_cells(cells)
    rows = _difference_rows(cells, cells.cohort[post], cells.cal[post], (1.0, -2.0, 1.0))
    A = _member_rows(rows, -rows, cells)
    member = Polyhedron(A=A, d=np.full(len(A), m), label={"benchmarks": []})
    return RestrictionFamily(
        family="sd", parameter=m, members=(member,), space="block", cells=cells
    )


def with_normalization(
    family: RestrictionFamily, layout: CohortLayout
) -> RestrictionFamily:
    """Append the per-cohort zero-sum of pre-treatment block biases.

    This equality is a mechanical property of the imputation estimator's pre
    coefficients; adding it never changes the identified set but documents
    the constraint explicitly.
    """
    if family.cells.estimator != "imputation":
        raise RestrictionError(
            "zero-sum normalization applies to the imputation estimator only"
        )
    cells = family.cells
    # one row per cohort over all of its pre cells
    A_eq = (
        (cells.cohort == np.arange(layout.n_cohorts)[:, None]) & cells.pre
    ).astype(float)
    d_eq = np.zeros(len(A_eq))
    members = []
    for m in family.members:
        if m.A_eq is None:
            members.append(replace(m, A_eq=A_eq, d_eq=d_eq))
        else:
            members.append(
                replace(
                    m,
                    A_eq=np.vstack([m.A_eq, A_eq]),
                    d_eq=np.concatenate([m.d_eq, d_eq]),
                )
            )
    return replace(family, members=tuple(members), normalized=True)


def map_to_delta_space(
    family: RestrictionFamily, bias_map: BiasMap
) -> RestrictionFamily:
    """Re-express every member on overall biases: A Delta <= d becomes
    (A W^-1) delta <= d.  Member count and labels are preserved, and the
    returned family records ``bias_map``."""
    if family.space != "block":
        raise RestrictionError("family is already in overall-bias space")
    if bias_map.W_inverse is None:
        raise RestrictionError("bias map inverse not populated")
    if len(bias_map.cells) != len(family.cells) or (
        bias_map.cells.estimator != family.cells.estimator
    ):
        raise RestrictionError("cell index mismatch between family and bias map")
    W_inv = bias_map.W_inverse
    members = []
    for m in family.members:
        members.append(
            replace(
                m,
                A=m.A @ W_inv,
                A_eq=None if m.A_eq is None else m.A_eq @ W_inv,
            )
        )
    return replace(
        family, members=tuple(members), space="overall", bias_map=bias_map
    )


def family_summary(family: RestrictionFamily) -> dict:
    """JSON-ready description: tag, parameter, member count, member labels."""
    return {
        "family": family.family,
        "parameter": family.parameter,
        "space": family.space,
        "member_count": family.member_count,
        "members": [
            {
                "rows": int(m.A.shape[0]),
                "equalities": 0 if m.A_eq is None else int(m.A_eq.shape[0]),
                "label": {
                    "benchmarks": [
                        list(b) for b in (m.label or {}).get("benchmarks", [])
                    ]
                },
            }
            for m in family.members
        ],
    }
