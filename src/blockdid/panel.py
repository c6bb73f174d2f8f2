"""Balanced staggered-adoption panels: ingestion, validation, and cell indexing.

A panel is a complete unit-by-period outcome grid in which every unit either
adopts treatment at some period ``t_g`` (2 <= t_g <= T) and stays treated, or
never adopts.  Units sharing an adoption period form a cohort.  All downstream
estimation works off three objects built here:

* :class:`PanelData` -- the validated grid,
* :class:`CohortLayout` -- cohort sizes, unit memberships, adjustment weights,
* :class:`CellIndex` -- the canonical ordering of cohort-period cells, as
  read-only per-position arrays (cohort, relative and calendar period, pre,
  post and structural-zero masks) that later layers read instead of walking
  cells; cell (t_g, s) of cohort g sits at position (t_g + s - 2) * G + g.
"""

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

NEVER = "never"
ESTIMATORS = ("imputation", "csnyt")

__all__ = [
    "NEVER",
    "ESTIMATORS",
    "PanelError",
    "DuplicateCell",
    "UnbalancedPanel",
    "NonFiniteOutcome",
    "NonIntegerTime",
    "BadAdoptionTime",
    "InconsistentCohortLabel",
    "NoNeverTreated",
    "MissingField",
    "PanelData",
    "CohortLayout",
    "Cell",
    "CellIndex",
    "load_panel",
    "build_layout",
    "build_cell_index",
]


class PanelError(ValueError):
    """Base class for panel validation failures."""

    code = "PANEL_ERROR"


class DuplicateCell(PanelError):
    code = "DUPLICATE_CELL"


class UnbalancedPanel(PanelError):
    code = "UNBALANCED_PANEL"


class NonFiniteOutcome(PanelError):
    code = "NON_FINITE_OUTCOME"


class NonIntegerTime(PanelError):
    code = "NON_INTEGER_TIME"


class BadAdoptionTime(PanelError):
    code = "BAD_ADOPTION_TIME"


class InconsistentCohortLabel(PanelError):
    code = "INCONSISTENT_COHORT_LABEL"


class NoNeverTreated(PanelError):
    code = "NO_NEVER_TREATED"


class MissingField(PanelError):
    code = "MISSING_FIELD"


@dataclass(frozen=True)
class PanelData:
    """Balanced unit-by-period outcome grid with adoption labels.

    Parameters
    ----------
    units : tuple of str
        Unit identifiers in canonical order (first appearance in the source).
    n_periods : int
        Number of periods T; internal periods run 1..T.
    outcome : ndarray, shape (N, T)
        Outcome grid; ``outcome[i, t-1]`` is unit i's outcome at period t.
    adoption : tuple of (int | None)
        Per-unit adoption period (internal scale) or None for never-treated.
    time_labels : tuple of int
        Original period labels, so exported tables can show source times.
    """

    units: tuple
    n_periods: int
    outcome: np.ndarray
    adoption: tuple
    time_labels: tuple = ()

    def __post_init__(self):
        out = np.asarray(self.outcome, dtype=float)
        if out.shape != (len(self.units), self.n_periods):
            raise UnbalancedPanel(
                f"outcome grid is {out.shape}, expected "
                f"({len(self.units)}, {self.n_periods})"
            )
        if not np.all(np.isfinite(out)):
            raise NonFiniteOutcome("outcome grid contains non-finite values")
        out = out.copy()
        out.setflags(write=False)
        object.__setattr__(self, "outcome", out)
        if not self.time_labels:
            object.__setattr__(
                self, "time_labels", tuple(range(1, self.n_periods + 1))
            )
        self._validate_adoption()

    def _validate_adoption(self):
        T = self.n_periods
        n_never = 0
        for unit, t_g in zip(self.units, self.adoption):
            if t_g is None:
                n_never += 1
                continue
            if not isinstance(t_g, (int, np.integer)):
                raise BadAdoptionTime(f"unit {unit!r}: adoption {t_g!r} not an integer")
            if not (2 <= t_g <= T):
                raise BadAdoptionTime(
                    f"unit {unit!r}: adoption period {t_g} outside 2..{T}"
                )
        if n_never == 0:
            raise NoNeverTreated("panel has no never-treated unit")
        # strict staggering after dedup is automatic: distinct sorted times

    @property
    def n_units(self):
        return len(self.units)

    def cohort_times(self):
        """Distinct adoption periods, strictly increasing."""
        return tuple(sorted({t for t in self.adoption if t is not None}))

    def time_label(self, t):
        return self.time_labels[t - 1]


# CSV rows parsed together, which bounds the parse's transient memory
_LOAD_BLOCK = 1024


def load_panel(source) -> PanelData:
    """Read a panel from CSV with columns ``unit,time,outcome,cohort``.

    ``cohort`` holds the adoption period (same scale as ``time``) or the
    literal ``never``.  Row order is irrelevant; times may be any consecutive
    integer range and are shifted internally to 1..T.

    ``source`` is a path or a readable text stream; a ``str`` is always a
    path, so CSV text goes in as ``io.StringIO(text)``.

    Rows are parsed ``_LOAD_BLOCK`` at a time, a column at a time, and coded
    as they are read: units, times and cohort labels by order of first
    appearance.  The balance checks count rows per unit-period cell.
    """
    if hasattr(source, "read"):
        stream = source
    else:
        # utf-8-sig also reads the byte-order mark of spreadsheet exports
        stream = open(source, "r", encoding="utf-8-sig", newline="")

    units, times, labels = {}, {}, {}  # value -> code, by first appearance
    blocks = []  # per block: unit, time and label codes, and outcomes
    try:
        reader = csv.reader(line for line in stream if not line.startswith("#"))
        header = next(reader, None)
        required = {"unit", "time", "outcome", "cohort"}
        if header is None or not required.issubset(header):
            raise PanelError(
                f"CSV header must contain {sorted(required)}, got {header}"
            )
        at = {name: i for i, name in enumerate(header)}  # a repeated name's last
        fields = [at[name] for name in ("unit", "time", "outcome", "cohort")]
        line = 2  # data rows are numbered without the blank ones
        while chunk := list(itertools.islice(reader, _LOAD_BLOCK)):
            block = [row for row in chunk if row]
            unit, t, y, g = _parse_block(block, header, fields, line)
            blocks.append((
                _codes(unit, units), _codes(t, times), _codes(g, labels),
                np.array(y, dtype=float),
            ))
            line += len(block)
    finally:
        if stream is not source:
            stream.close()

    if not units:
        raise PanelError("empty panel file")
    u, t, g, y = (np.concatenate(column) for column in zip(*blocks))
    units, labels = list(units), list(labels)
    first = np.unique(u, return_index=True)[1]  # each unit's first row
    bad = np.flatnonzero(g != g[first][u])
    if len(bad):
        r = bad[0]
        raise InconsistentCohortLabel(
            f"unit {units[u[r]]!r} labeled both {labels[g[first[u[r]]]]!r} "
            f"and {labels[g[r]]!r}"
        )

    ordered = sorted(times)
    lo, hi = ordered[0], ordered[-1]
    if ordered != list(range(lo, hi + 1)):
        raise UnbalancedPanel(f"periods {ordered} are not a consecutive range")
    T = hi - lo + 1
    offset = lo - 1  # internal period = label - offset
    col = np.array([time - lo for time in times])[t]

    N = len(units)
    cell = u * T + col
    counts = np.bincount(cell, minlength=N * T)
    if counts.max() > 1:
        order = np.argsort(cell, kind="stable")
        r = order[1:][cell[order[1:]] == cell[order[:-1]]].min()  # first repeat
        raise DuplicateCell(
            f"duplicate observation for ({units[u[r]]!r}, {int(col[r]) + lo})"
        )
    if not counts.all():
        i, j = divmod(int(np.flatnonzero(counts == 0)[0]), T)
        raise UnbalancedPanel(f"missing cell ({units[i]!r}, {j + 1 + offset})")
    outcome = np.empty((N, T))
    outcome[u, col] = y

    adoption = map(labels.__getitem__, g[first].tolist())
    shifted = tuple(None if v is None else v - offset for v in adoption)
    return PanelData(
        units=tuple(units),
        n_periods=T,
        outcome=outcome,
        adoption=shifted,
        time_labels=tuple(range(lo, hi + 1)),
    )


def _codes(values, index):
    """Codes of ``values`` in ``index`` (value -> code), which new values
    join in order of first appearance."""
    for v in dict.fromkeys(values):
        index.setdefault(v, len(index))
    return np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _parse_block(block, header, fields, line):
    """Units, times, outcomes and cohort labels (None for never) of a block
    of CSV rows, a column at a time.  A block with a bad field is parsed
    again row by row (``_parse_row``), which raises at the first bad field
    with its line number."""
    try:
        if block and min(map(len, block)) <= max(fields):
            raise IndexError("a row lacks a required field")
        columns = list(zip(*block)) or [()] * len(header)
        unit, t, y, label = (columns[f] for f in fields)
        label = list(map(str.strip, label))
        values = {s: None if s == NEVER else int(s) for s in set(label)}
        return (
            list(map(str.strip, unit)), list(map(int, t)), list(map(float, y)),
            list(map(values.__getitem__, label)),
        )
    except (ValueError, IndexError):
        pass
    rows = [  # a short row's missing fields are None, as csv.DictReader has them
        _parse_row(dict(zip(header, row + [None] * (len(header) - len(row)))), n)
        for n, row in enumerate(block, start=line)
    ]
    return tuple(list(column) for column in zip(*rows))


def _parse_row(row, lineno):
    """One CSV row, as a dict of its fields, parsed field by field; a field
    missing from a short row raises ``MissingField`` when its turn comes."""

    def field(name):
        if row[name] is None:
            raise MissingField(f"line {lineno}: no {name!r} field")
        return row[name].strip()

    unit = field("unit")
    text = field("time")
    try:
        t = int(text)
    except ValueError:
        raise NonIntegerTime(
            f"line {lineno}: time {row['time']!r} is not an integer"
        ) from None
    text = field("outcome")
    try:
        y = float(text)
    except ValueError:
        raise PanelError(
            f"line {lineno}: outcome {row['outcome']!r} is not a number"
        ) from None
    label = field("cohort")
    if label == NEVER:
        return unit, t, y, None
    try:
        return unit, t, y, int(label)
    except ValueError:
        raise BadAdoptionTime(
            f"line {lineno}: cohort {label!r} is neither an integer nor {NEVER!r}"
        ) from None


@dataclass(frozen=True)
class CohortLayout:
    """Cohort structure of a panel: sizes, unit memberships, adjustment weights.

    Cohorts are ordered by adoption time.  ``cohort_units[g]`` holds the unit
    indices of the g-th treated cohort; ``never_units`` those of the
    never-treated group.  The adjustment weight of cohort k is

        w_k = N_k / (sum_{j >= k} N_j + N_inf),

    its share within itself plus its own initial control group.
    """

    times: tuple
    sizes: tuple
    never_size: int
    cohort_units: tuple
    never_units: np.ndarray
    n_periods: int

    @property
    def n_cohorts(self):
        return len(self.times)

    def weight(self, k):
        """Adjustment weight w_k of cohort k."""
        return self.sizes[k] / (sum(self.sizes[k:]) + self.never_size)


def build_layout(panel: PanelData) -> CohortLayout:
    """Group units into cohorts, the never-treated apart."""
    times = panel.cohort_times()
    adoption = np.array(
        [-1 if t is None else t for t in panel.adoption], dtype=int
    )
    cohort_units = tuple(
        np.flatnonzero(adoption == t) for t in times
    )
    never_units = np.flatnonzero(adoption == -1)
    layout = CohortLayout(
        times=times,
        sizes=tuple(len(u) for u in cohort_units),
        never_size=len(never_units),
        cohort_units=cohort_units,
        never_units=never_units,
        n_periods=panel.n_periods,
    )
    return layout


@dataclass(frozen=True)
class Cell:
    """One cohort-period cell: cohort index, adoption time, relative period."""

    cohort: int
    cohort_time: int
    rel: int

    @property
    def cal(self):
        return self.cohort_time + self.rel - 1

    @property
    def pre(self):
        return self.rel <= 0

    @property
    def post(self):
        return self.rel >= 1


@dataclass(frozen=True)
class CellIndex:
    """Canonical ordering of all cohort-period cells of a balanced panel.

    Every treated cohort contributes one cell per calendar period, so G
    cohorts (adoption times ``times``, increasing) and T periods yield G*T
    cells, sorted by calendar time with ties broken by adoption time:
    position p holds cohort g = p % G at calendar period t = p // G + 1, and
    cell (t_g, s) sits at (t_g + s - 2) * G + g.  The per-position arrays,
    computed once and read-only, are ``cohort`` (g), ``cohort_time`` (t_g),
    ``rel`` (s = t - t_g + 1), ``cal`` (t), and the masks ``pre`` (s <= 0),
    ``post`` (s >= 1) and ``structural``.  For the not-yet-treated estimator
    the reference cells (s == 0) are structural zeros and excluded from the
    statistical coordinate system (``value_positions``).
    """

    times: tuple
    n_periods: int
    estimator: str = "imputation"
    cohort: np.ndarray = field(init=False, repr=False, compare=False)
    cohort_time: np.ndarray = field(init=False, repr=False, compare=False)
    rel: np.ndarray = field(init=False, repr=False, compare=False)
    cal: np.ndarray = field(init=False, repr=False, compare=False)
    structural: np.ndarray = field(init=False, repr=False, compare=False)
    pre: np.ndarray = field(init=False, repr=False, compare=False)
    post: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator tag {self.estimator!r}")
        times = tuple(int(t) for t in self.times)
        G, T = len(times), int(self.n_periods)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "n_periods", T)
        cohort = np.tile(np.arange(G), T)
        cal = np.repeat(np.arange(1, T + 1), G)
        cohort_time = np.array(times, dtype=int)[cohort]
        rel = cal - cohort_time + 1
        structural = (rel == 0) & (self.estimator == "csnyt")
        arrays = dict(cohort=cohort, cohort_time=cohort_time, rel=rel, cal=cal,
                      structural=structural, pre=rel <= 0, post=rel >= 1)
        for name, values in arrays.items():
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def __len__(self):
        return len(self.cohort)

    def locate(self, cohort, cal):
        """Positions of the cells of cohort index ``cohort`` at calendar
        period ``cal``, elementwise over arrays; inputs are not checked."""
        return (np.asarray(cal) - 1) * len(self.times) + cohort

    def position(self, cohort_time, rel):
        """0-based position of cell (cohort adoption time, relative period)."""
        cal = cohort_time + rel - 1
        if cohort_time not in self.times or not 1 <= cal <= self.n_periods:
            raise KeyError((cohort_time, rel))
        return int(self.locate(self.times.index(cohort_time), cal))

    def cell(self, position):
        return Cell(
            cohort=int(self.cohort[position]),
            cohort_time=int(self.cohort_time[position]),
            rel=int(self.rel[position]),
        )

    def structural_zero(self, position):
        return bool(self.structural[position])

    @property
    def value_positions(self):
        """Positions of cells that carry a coefficient (non-structural)."""
        return np.flatnonzero(~self.structural)

    def labels(self):
        return tuple(
            f"g{t_g}:s{s:+d}"
            for t_g, s in zip(self.cohort_time.tolist(), self.rel.tolist())
        )


def build_cell_index(
    layout: CohortLayout, T: int, estimator: str = "imputation"
) -> CellIndex:
    """The cells (g, s) of all calendar periods, canonically ordered."""
    return CellIndex(layout.times, T, estimator)
