"""Cohort-period treatment-effect estimates and pre-treatment block biases.

Two estimators are supported:

* ``imputation`` -- unit/time effects fitted on untreated observations impute
  counterfactuals for treated cells; pre-treatment block biases compare each
  cohort to its initial control group relative to the cohort's own
  pre-treatment average.
* ``csnyt`` -- trend comparisons against the contemporaneous not-yet-treated
  group, with the cohort's last untreated period as reference; pre-treatment
  block biases use the fixed initial control group.

Both produce one coefficient per cohort-period cell, stacked in the canonical
cell order, so downstream code treats them interchangeably.  Both are linear
in the (G+1) x T matrix of stratum-period outcome means (cohorts, then the
never-treated), with weights that depend only on cohort sizes;
:func:`estimate` applies that linear operator.  The unit-level two-way fit,
the sequential imputation and the hold-out re-estimates, which the tests
check it against, live in ``tests/oracles.py``.
"""

from dataclasses import dataclass

import numpy as np

from .panel import CellIndex, CohortLayout, PanelData, build_cell_index, build_layout

__all__ = [
    "CoefficientSet",
    "AggregatedSeries",
    "estimate",
    "aggregate",
    "write_coefficients_csv",
    "write_vcov_csv",
]


def _check_pre_zero_sum(cells: CellIndex, positions, values, error=ValueError):
    """Raise ``error`` unless every cohort whose pre-treatment values are all
    present sums to zero within 1e-10 (1 + max |values|): the one zero-sum
    rule, for coefficient sets and for normalized plug-in sets."""
    scale = 1.0 + np.max(np.abs(values), initial=0.0)
    cohort_time, pre_mask = cells.cohort_time[positions], cells.pre[positions]
    for t_g in np.unique(cohort_time).tolist():
        # a left-to-right sum: np.sum's pairwise order could flip a
        # borderline check
        pre = values[(cohort_time == t_g) & pre_mask].tolist()
        if pre and len(pre) == t_g - 1 and abs(sum(pre)) > 1e-10 * scale:
            raise error(
                f"pre-treatment block biases of cohort g{t_g} sum to "
                f"{sum(pre):.3e}, expected 0"
            )


# columns per step of the blocked Cholesky check, and rows per strip of the
# covariance's symmetry scans: each step holds O(_CHOL_BLOCK n) floats
_CHOL_BLOCK = 128


def _asymmetry(v):
    """max |v - v.T| of a square ``v``, by strips of rows: strip r0:r1 meets
    the columns from r0 on, which covers each mirrored pair once or twice,
    and no temporary exceeds _CHOL_BLOCK rows."""
    worst = 0.0
    for r0 in range(0, len(v), _CHOL_BLOCK):
        r1 = r0 + _CHOL_BLOCK
        gap = v[r0:r1, r0:] - v[r0:, r0:r1].T
        worst = max(worst, float(np.max(np.abs(gap, out=gap))))
    return worst


def _symmetrize(v):
    """Set the square ``v`` to (v + v.T) / 2.0 in place, with the same bits.

    The strips are those of :func:`_asymmetry`: each mirrored pair, rows
    r0:r1 from column r0 on and columns r0:r1 from row r0 on, is averaged
    once and written to both; later strips read only rows and columns past
    r1.  So no temporary exceeds _CHOL_BLOCK rows."""
    for r0 in range(0, len(v), _CHOL_BLOCK):
        r1 = r0 + _CHOL_BLOCK
        mean = v[r0:r1, r0:] + v[r0:, r0:r1].T
        mean /= 2.0
        v[r0:r1, r0:] = mean
        v[r0:, r0:r1] = mean.T


def _semidefinite(v, scale):
    """Whether no eigenvalue of the symmetric ``v`` lies below -1e-8 * scale,
    by a Cholesky factorization of v + 1e-8 * scale * I, which fails when one
    does.  With scale <= 0 only the zero matrix passes.

    One shifted copy of ``v`` is factored in place, _CHOL_BLOCK columns at a
    time, and only its lower triangle is read, as LAPACK reads it: numpy's
    Cholesky factors the diagonal block (and fails exactly when the check
    refuses), a solve turns the panel below it into the factor's panel, and
    the trailing lower triangle is updated in column panels.  So beyond
    ``v`` the check holds the copy and O(_CHOL_BLOCK n) work arrays."""
    if scale <= 0:
        return not np.any(v)
    n = len(v)
    a = v.copy()
    a.flat[:: n + 1] += 1e-8 * scale
    for k0 in range(0, n, _CHOL_BLOCK):
        k1 = k0 + _CHOL_BLOCK
        try:
            factor = np.linalg.cholesky(a[k0:k1, k0:k1])
        except np.linalg.LinAlgError:
            return False
        panel = a[k1:, k0:k1]  # becomes L21, with L21 factor.T = A21
        panel[...] = np.linalg.solve(factor, panel.T).T
        for j0 in range(k1, n, _CHOL_BLOCK):
            lead = panel[j0 - k1 : j0 - k1 + _CHOL_BLOCK]
            a[j0:, j0 : j0 + _CHOL_BLOCK] -= panel[j0 - k1 :] @ lead.T
    return True


@dataclass(frozen=True)
class CoefficientSet:
    """Stacked cohort-period coefficients aligned to a cell index.

    ``positions`` are cell positions (canonical order, ascending); ``values``
    the coefficients at those cells: block biases on pre cells, estimated
    effects on post cells.  ``vcov``, when present, is aligned to ``values``
    and refused unless its entries are finite, it is symmetric within
    1e-10 times its largest variance and it passes :func:`_semidefinite`.
    Beyond ``vcov`` these checks hold one n x n working copy, the
    Cholesky check's, and O(_CHOL_BLOCK n) strips and panels.
    """

    estimator: str
    cells: CellIndex
    positions: np.ndarray
    values: np.ndarray
    vcov: np.ndarray = None
    # aggregated series recast as a pseudo-cohort are exempt from the
    # per-cohort zero-sum identity, which aggregation does not preserve
    aggregated: bool = False

    def __post_init__(self):
        if self.estimator != self.cells.estimator:
            raise ValueError(
                f"{self.estimator} coefficients over a "
                f"{self.cells.estimator} cell index"
            )
        positions = np.asarray(self.positions, dtype=int)
        values = np.asarray(self.values, dtype=float)
        if positions.shape != values.shape:
            raise ValueError("positions and values must align")
        if np.any(np.diff(positions) <= 0):
            raise ValueError("positions must be strictly increasing")
        if self.cells.structural[positions].any():
            raise ValueError("structural-zero cells carry no coefficient")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)
        if self.vcov is not None:
            v = np.asarray(self.vcov, dtype=float)
            if v.shape != (len(values), len(values)):
                raise ValueError("vcov shape does not match values")
            # NaN slips through both checks below; min and max find any
            # non-finite entry with no temporary
            if not np.isfinite([np.min(v, initial=0.0), np.max(v, initial=0.0)]).all():
                raise ValueError("vcov has non-finite entries")
            # rounding scales with the largest variance
            scale = np.max(np.diag(v), initial=0.0)
            if _asymmetry(v) > 1e-10 * scale:
                raise ValueError("vcov is not symmetric")
            if not _semidefinite(v, scale):
                raise ValueError("vcov is not positive semidefinite")
            object.__setattr__(self, "vcov", v)
        if self.estimator == "imputation" and not self.aggregated:
            _check_pre_zero_sum(self.cells, positions, values)

    def value(self, cohort_time, rel):
        hit = np.flatnonzero(
            (self.cells.cohort_time[self.positions] == cohort_time)
            & (self.cells.rel[self.positions] == rel)
        )
        if len(hit) == 0:
            raise KeyError(f"cell (g{cohort_time}, s{rel:+d}) not in this set")
        return self.values[hit[0]]

    @property
    def pre_mask(self):
        return self.cells.pre[self.positions]

    @property
    def post_mask(self):
        return ~self.pre_mask

    def labels(self):
        all_labels = self.cells.labels()
        return tuple(all_labels[p] for p in self.positions)


def _stratum_units(layout: CohortLayout):
    """Unit indices per stratum in operator column order: cohorts in layout
    order, the never-treated last."""
    return list(layout.cohort_units) + [layout.never_units]


def _strata_means(stacked, sizes):
    """Column means of consecutive row blocks of the given sizes."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(stacked, starts, axis=0) / np.asarray(sizes)[:, None]


def _period_effects_operator(adopt, sizes, T):
    """Period effects xi = X @ vec(M), normalized to xi_1 = 0.

    The size-weighted two-way fit of the stratum means M on the untreated
    stratum-period cells, with the stratum effects absorbed by a Schur
    complement: the unit-level fit of ``tests/oracles.py`` with strata in
    place of units.
    """
    m = (np.arange(1, T + 1)[None, :] < adopt[:, None]).astype(float)
    w = sizes / m.sum(axis=1)
    S = np.diag(sizes @ m) - (m * w[:, None]).T @ m
    # rhs_t = sum_k N_k m_kt M_kt - sum_k w_k m_kt sum_s m_ks M_ks
    R = np.einsum("k,kt,ts->tks", sizes, m, np.eye(T)) - np.einsum(
        "k,kt,ks->tks", w, m, m
    )
    X = np.zeros((T, len(sizes) * T))
    X[1:] = np.linalg.solve(S[1:, 1:], R[1:].reshape(T - 1, -1))
    return X


def _coefficient_operator(layout: CohortLayout, cells: CellIndex) -> np.ndarray:
    """Matrix E with ``coefficients = E @ vec(M)``.

    ``M`` is the (G+1) x T matrix of stratum-period means, cohorts in layout
    order and the never-treated last, flattened row by row.  Rows follow
    ``cells.value_positions``.  Each row is
    a stratum contrast times a period contrast: the cohort against its
    control group (initial control group, or the not-yet-treated group on
    csnyt post cells), and the cell's period against the reference period
    (csnyt) or the cohort's pre-treatment mean (imputation).  Imputation post
    cells replace the control group by the period effects of the two-way fit
    on untreated stratum-period cells.
    """
    G, T = layout.n_cohorts, cells.n_periods
    sizes = np.array(layout.sizes + (layout.never_size,), dtype=float)
    adopt = np.append(layout.times, T + 1)  # the never-treated stay untreated
    rows = cells.value_positions
    g, t, t_g = cells.cohort[rows], cells.cal[rows], cells.cohort_time[rows]
    post = cells.post[rows]
    n = len(rows)
    periods = np.arange(1, T + 1)

    own = np.zeros((n, G + 1))
    own[np.arange(n), g] = 1.0
    period = (periods[None, :] == t[:, None]).astype(float)
    csnyt = cells.estimator == "csnyt"
    if csnyt:
        period -= periods[None, :] == (t_g - 1)[:, None]
        cutoff = np.where(post, t, t_g)
    else:
        window = periods[None, :] < t_g[:, None]
        period -= window / (t_g - 1)[:, None]
        cutoff = t_g
    control = (adopt[None, :] > cutoff[:, None]) * sizes
    control /= control.sum(axis=1, keepdims=True)
    if not csnyt:
        control[post] = 0.0
    E = ((own - control)[:, :, None] * period[:, None, :]).reshape(n, -1)
    if not csnyt:
        X = _period_effects_operator(adopt, sizes, T)
        weight = period * post[:, None]
        # two calendar periods' rows at a time, and never one row alone:
        # numpy takes a one-row product by gemv, whose sums may round
        # differently from the whole product's
        edges = [*range(0, n - 1, 2 * G), n]
        for r0, r1 in zip(edges, edges[1:]):
            E[r0:r1] -= weight[r0:r1] @ X
    return E


def _linear_system(panel: PanelData, estimator: str):
    """The panel's cohort layout, cell index and coefficient operator."""
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, estimator)
    return layout, cells, _coefficient_operator(layout, cells)


def estimate(panel: PanelData, estimator: str, *, system=None) -> CoefficientSet:
    """Full stacked coefficient vector (pre block biases and post effects).

    ``system`` is the panel's ``_linear_system``, for a caller that has
    built it already."""
    layout, cells, E = system or _linear_system(panel, estimator)
    strata = _stratum_units(layout)
    means = _strata_means(
        panel.outcome[np.concatenate(strata)], [len(u) for u in strata]
    )
    return CoefficientSet(
        estimator=estimator,
        cells=cells,
        positions=cells.value_positions,
        values=E @ means.ravel(),
    )


@dataclass(frozen=True)
class AggregatedSeries:
    """Size-weighted aggregation of cohort-period coefficients by relative period."""

    estimator: str
    rel_periods: np.ndarray
    values: np.ndarray
    weights: np.ndarray  # rows: relative periods, cols: source coefficients
    support_sizes: np.ndarray  # total treated units behind each relative period
    vcov: np.ndarray = None


def aggregate(coeffs: CoefficientSet, layout: CohortLayout) -> AggregatedSeries:
    """Collapse cohort-period coefficients to one series over relative periods.

    Each relative period's value is the cohort-size-weighted average over the
    cohorts observed at that period; the weighting matrix is retained so a
    coefficient-level covariance propagates as G Sigma G'.
    """
    cells = coeffs.cells
    rel = cells.rel[coeffs.positions]
    rels = np.unique(rel)
    sizes = np.array(layout.sizes, dtype=float)[cells.cohort[coeffs.positions]]
    G = np.where(rel[None, :] == rels[:, None], sizes[None, :], 0.0)
    support = G.sum(axis=1)
    G /= support[:, None]
    values = G @ coeffs.values
    vcov = G @ coeffs.vcov @ G.T if coeffs.vcov is not None else None
    return AggregatedSeries(
        estimator=coeffs.estimator,
        rel_periods=rels,
        values=values,
        weights=G,
        support_sizes=support,
        vcov=vcov,
    )


def write_coefficients_csv(coeffs: CoefficientSet, stream, time_labels=None):
    """Emit ``estimator,cohort,rel_period,calendar_time,kind,value`` rows;
    ``cohort`` and ``calendar_time`` are on the scale of ``time_labels``."""
    stream.write("estimator,cohort,rel_period,calendar_time,kind,value\n")
    cells, pos = coeffs.cells, coeffs.positions
    labels = time_labels or range(1, cells.n_periods + 1)
    rows = zip(cells.cohort_time[pos].tolist(), cells.rel[pos].tolist(),
               cells.cal[pos].tolist(), cells.pre[pos].tolist(), coeffs.values.tolist())
    for t_g, s, t, pre, v in rows:
        kind = "pre" if pre else "post"
        cohort, cal = labels[t_g - 1], labels[t - 1]
        stream.write(f"{coeffs.estimator},{cohort},{s},{cal},{kind},{v!r}\n")


# rows per block and columns per tile of the covariance writer
_VCOV_BLOCK = 16
_VCOV_TILE = 64


def write_vcov_csv(coeffs: CoefficientSet, stream):
    """Emit the dense covariance matrix with a header row of cell labels.

    Every entry is written as ``repr`` of its float, so the bytes equal the
    per-element loop's.  A mirrored pair is formatted once: each block of
    rows formats its upper part, from the diagonal rightwards, tile by tile,
    and each tile column's text joins the list of pending chunks of the later
    row it mirrors, to be joined once with the rest of that row when it is
    written.  A row uses that text when its left entries are bitwise equal to
    their mirror images (``-0.0`` and ``0.0`` differ) and formats its own
    entries otherwise.  Besides one tile and one block of row text, only the
    pending chunks are held: at most about n²/4 entries of text.
    """
    if coeffs.vcov is None:
        raise ValueError("coefficient set has no covariance matrix")
    labels = coeffs.labels()
    stream.write(",".join(labels) + "\n")
    v = coeffs.vcov
    n = len(v)
    bits = v.view(np.uint64)
    pending = [[] for _ in range(n)]  # text of V[:r0, j] by tile column, for row j
    for r0 in range(0, n, _VCOV_BLOCK):
        r1 = min(r0 + _VCOV_BLOCK, n)
        mirrored = (bits[r0:r1, :r0] == bits[:r0, r0:r1].T).all(axis=1).tolist()
        rights = [[] for _ in range(r0, r1)]
        for c0 in range(r0, n, _VCOV_TILE):
            c1 = min(c0 + _VCOV_TILE, n)
            width = c1 - c0
            text = list(map(repr, v[r0:r1, c0:c1].ravel().tolist()))
            for k, right in enumerate(rights):
                right.append(",".join(text[k * width:(k + 1) * width]))
            for c in range(max(r1 - c0, 0), width):
                pending[c0 + c].append(",".join(text[c::width]))
        for k, right in enumerate(rights):
            i = r0 + k
            left = pending[i] if mirrored[k] else map(repr, v[i, :r0].tolist())
            pending[i] = None
            stream.write(",".join([*left, *right]) + "\n")
