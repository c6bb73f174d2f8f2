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
in), so the family never depends on the sample.

Every member bounds the same post-difference rows, so a family holds those
rows once plus a table of each member's benchmark (cohort, pre period,
sign) per cohort, and forms a member's rows only when it is asked for.
Families are built in block-bias space; mapping to overall-bias space
records the inverse bias map, which each member is multiplied through as it
is formed.  The plug-in set reads the tag, the parameter, the benchmark
table, the map and whether the zero-sum normalization was appended.
"""

import itertools
import math
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
    "path_rows",
]

MEMBER_CAP = 100_000
# the difference each kind bounds: coefficients on a cohort's block bias at
# lags 0, 1, ..., so a cohort needs one pre period per lag
_DIFFERENCES = {
    "rm-global": (1.0, -1.0), "rm-cohort": (1.0, -1.0), "sd": (1.0, -2.0, 1.0)
}
FAMILY_KINDS = tuple(_DIFFERENCES)


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


@dataclass(frozen=True)
class RestrictionFamily:
    """Finite union of polyhedra, each row stored once.

    ``family`` is one of ``FAMILY_KINDS``.  Every member bounds the rows
    ``diffs`` (``path_rows``) in block space.  ``benchmarks`` is a (members,
    G, 3) table of (k, s*, sign) per cohort: rm member i bounds cohort g's
    differences by ``parameter`` times sign * (Delta(k, s*) - Delta(k, s* -
    1)).  The sd family is one member with no entries, bounding every
    difference by ``parameter``.  ``equalities`` holds the per-cohort
    zero-sum rows appended by ``with_normalization``.  ``bias_map``, recorded
    by ``map_to_delta_space``, puts the family in overall-bias space.
    Members are formed only when asked for (``member``, or a stack of them
    by ``member_rows``).  Feasible set = union of members.
    """

    family: str
    parameter: float
    cells: CellIndex
    diffs: np.ndarray
    benchmarks: np.ndarray
    equalities: np.ndarray = None
    bias_map: BiasMap = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _differences(self.family)
        if not len(self.benchmarks):
            raise RestrictionError("family must have at least one member")
        if self.diffs.shape[1] != len(self.cells):
            raise RestrictionError("row column count does not match cell index")
        if self.parameter < 0:
            raise RestrictionError("sensitivity parameter must be nonnegative")

    @property
    def space(self):
        return "block" if self.bias_map is None else "overall"

    @property
    def normalized(self):
        return self.equalities is not None

    @property
    def member_count(self):
        return len(self.benchmarks)

    @property
    def distinct(self):
        """Indices of the members that differ from one another: at parameter
        0 every benchmark offset vanishes and the family is one polyhedron."""
        return range(1 if self.parameter == 0 else self.member_count)

    @property
    def members(self):
        """Every member formed in full; inference forms them a block at a
        time (``member_rows``)."""
        return tuple(self.member(i) for i in range(self.member_count))

    def member(self, i) -> Polyhedron:
        """Member ``i`` as a polyhedron (``member_rows`` of one member)."""
        (A,), (d,), A_eq, d_eq = self.member_rows([i])
        return Polyhedron(
            A=A, d=d, A_eq=A_eq, d_eq=d_eq, label={"benchmarks": self.label(i)}
        )

    def member_rows(self, members):
        """Stacked rows of the members indexed by ``members``: the bound and
        mirror rows of every difference, less the cohort's benchmark rows
        (rm) or within ``parameter`` (sd), as an (n, rows, cells) array with
        (n, rows) bounds, and the equality rows and bounds or None; all
        mapped through W^-1 in overall space, one product per member."""
        cells, bench, bound = self.cells, 0.0, self.parameter
        members = np.asarray(members, dtype=int)
        if self.family != "sd":
            k, s_star, sign = self.benchmarks[members].transpose(2, 0, 1)  # (n, G)
            coeff, bound = (self.parameter * sign).ravel(), 0.0
            cal = np.asarray(cells.times)[k] + s_star - 1
            bench = _difference_rows(cells, k.ravel(), cal.ravel(), (coeff, -coeff))
            # rows take their cohort's benchmark
            bench = bench.reshape(k.shape + (-1,))[:, cells.cohort[_post_cells(cells)]]
        first = np.broadcast_to(self.diffs - bench, (len(members),) + self.diffs.shape)
        A = _member_rows(first, -self.diffs - bench, cells)
        A_eq = self.equalities
        if self.bias_map is not None:
            A = A @ self.bias_map.W_inverse
            A_eq = None if A_eq is None else A_eq @ self.bias_map.W_inverse
        d_eq = None if A_eq is None else np.zeros(len(A_eq))
        return A, np.full(A.shape[:2], bound), A_eq, d_eq

    def label(self, i):
        """Member ``i``'s benchmarks as (cohort time, benchmark cohort time,
        s*, sign) per cohort; empty for sd."""
        times = self.cells.times
        return [
            (times[g], times[k], s, "+" if sign > 0 else "-")
            for g, (k, s, sign) in enumerate(self.benchmarks[i].tolist())
        ]


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
    """Stacked rows ``first`` and ``second`` interleaved, structural-zero
    columns zeroed by assignment (multiplying by a mask would leave -0.0)."""
    A = np.empty(first.shape[:-2] + (2 * first.shape[-2], len(cells)))
    A[..., 0::2, :] = first
    A[..., 1::2, :] = second
    A[..., cells.structural] = 0.0
    return A


def _differences(kind):
    """The difference coefficients of family ``kind``."""
    if kind not in _DIFFERENCES:
        raise UnknownFamily(
            f"unknown family {kind!r}; expected one of {', '.join(FAMILY_KINDS)}"
        )
    return _DIFFERENCES[kind]


def path_rows(cells: CellIndex, kind):
    """Rows R of the differences of each cohort's block-bias path that a
    ``kind`` family bounds, one per post cell in ``_post_cells`` order: on
    the post cells R is unit lower-triangular."""
    coeffs = _differences(kind)
    t_g = min(cells.times)
    if t_g < len(coeffs):
        raise CohortWithoutTwoPrePeriods(
            f"cohort g{t_g} has fewer than two pre-treatment periods"
        )
    post = _post_cells(cells)
    return _difference_rows(cells, cells.cohort[post], cells.cal[post], coeffs)


def _family(kind, cells, parameter, benchmarks):
    """A ``kind`` family over its post difference rows (``path_rows``), one
    member per row of ``benchmarks`` (a (k, s*, sign) per cohort)."""
    return RestrictionFamily(
        family=kind,
        parameter=parameter,
        cells=cells,
        diffs=path_rows(cells, kind),
        benchmarks=np.array(list(benchmarks), dtype=int),
    )


def rm_global(layout: CohortLayout, cells: CellIndex, mbar: float) -> RestrictionFamily:
    """Relative-magnitudes family with one benchmark shared by all cohorts.

    One member per (benchmark cohort, benchmark pre period, sign); cohorts
    with no pre-treatment difference contribute no benchmark candidates but
    are still constrained inside every member.
    """
    choices = [
        ((k, s_star, sign),) * layout.n_cohorts
        for k, ss in enumerate(_pre_diff_slots(layout))
        for s_star in ss
        for sign in (1, -1)
    ]
    if not choices:
        raise NoPreDifferences(
            "no cohort has two consecutive pre-treatment periods"
        )
    return _family("rm-global", cells, mbar, choices)


def rm_cohort(layout: CohortLayout, cells: CellIndex, mbar: float) -> RestrictionFamily:
    """Relative-magnitudes family with per-cohort benchmarks.

    Members enumerate the Cartesian product of each cohort's (pre period,
    sign) choices, so the count grows multiplicatively with the number of
    cohorts; ``MEMBER_CAP`` guards against runaway enumeration.
    """
    slots = _pre_diff_slots(layout)
    for g, ss in enumerate(slots):
        if not ss:
            raise CohortWithoutPreDifference(
                f"cohort g{layout.times[g]} has no consecutive pre-treatment "
                "difference to benchmark against"
            )
    if math.prod(2 * len(ss) for ss in slots) > MEMBER_CAP:
        raise MemberCountExceedsCap(
            f"cohort-specific enumeration exceeds {MEMBER_CAP} members"
        )
    choice_sets = [
        [(g, s_star, sign) for s_star in ss for sign in (1, -1)]
        for g, ss in enumerate(slots)
    ]
    choices = itertools.product(*choice_sets)
    return _family("rm-cohort", cells, mbar, choices)


def sd(layout: CohortLayout, cells: CellIndex, m: float) -> RestrictionFamily:
    """Second-differences family: one polyhedron bounding slope changes by M;
    every cohort needs two pre-treatment periods."""
    return _family("sd", cells, m, np.zeros((1, 0, 3), dtype=int))  # no benchmarks


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
    return replace(family, equalities=A_eq)


def map_to_delta_space(
    family: RestrictionFamily, bias_map: BiasMap
) -> RestrictionFamily:
    """Re-express the family on overall biases: A Delta <= d becomes
    (A W^-1) delta <= d.  Only ``bias_map`` is recorded; each member is
    mapped when it is formed.  Member count and labels are preserved."""
    if family.space != "block":
        raise RestrictionError("family is already in overall-bias space")
    if bias_map.W_inverse is None:
        raise RestrictionError("bias map inverse not populated")
    if len(bias_map.cells) != len(family.cells) or (
        bias_map.cells.estimator != family.cells.estimator
    ):
        raise RestrictionError("cell index mismatch between family and bias map")
    return replace(family, bias_map=bias_map)


def family_summary(family: RestrictionFamily) -> dict:
    """JSON-ready description: tag, parameter, member count, member labels."""
    eq = family.equalities
    return {
        "family": family.family,
        "parameter": family.parameter,
        "space": family.space,
        "member_count": family.member_count,
        "members": [
            {
                "rows": 2 * len(family.diffs),
                "equalities": 0 if eq is None else len(eq),
                "label": {"benchmarks": [list(b) for b in family.label(i)]},
            }
            for i in range(family.member_count)
        ],
    }
