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
:func:`estimate` applies that linear operator.  The unit-level two-way fit
and the sequential imputation are kept as independent cross-checks.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg as scilinalg

from .panel import CellIndex, CohortLayout, PanelData, build_cell_index, build_layout

__all__ = [
    "EstimationError",
    "RankDeficientFit",
    "SinglePrePeriod",
    "FixedEffectsFit",
    "CoefficientSet",
    "AggregatedSeries",
    "fit_twfe_untreated",
    "imputation_estimates",
    "sequential_imputation",
    "block_bias_pre_imputation",
    "csnyt_estimates",
    "estimate",
    "cohort_loo",
    "aggregate",
    "write_coefficients_csv",
    "write_vcov_csv",
]


class EstimationError(RuntimeError):
    code = "ESTIMATION_ERROR"


class RankDeficientFit(EstimationError):
    code = "RANK_DEFICIENT_FIT"


class SinglePrePeriod(EstimationError):
    code = "SINGLE_PRE_PERIOD"


@dataclass(frozen=True)
class FixedEffectsFit:
    """Least-squares unit and time effects over an untreated-cell sample.

    ``xi`` is normalized so the first period's effect is zero.  ``residuals``
    holds Y - alpha_i - xi_t on included cells and NaN elsewhere.
    """

    alpha: np.ndarray
    xi: np.ndarray
    residuals: np.ndarray
    mask: np.ndarray

    def imputed(self):
        """Fitted grid alpha_i + xi_t for every (unit, period)."""
        return self.alpha[:, None] + self.xi[None, :]


def _fit_two_way(outcome, mask, tol=1e-12, max_sweeps=10_000):
    """Least-squares alpha_i + xi_t on cells where ``mask`` is True.

    Alternating within-demeaning, followed by a small dense solve on the
    period effects whenever the sweep cap is hit or the first-order
    conditions are not met to tolerance.  The period effects are normalized
    to xi[0] = 0 at the end.
    """
    N, T = outcome.shape
    unit_counts = mask.sum(axis=1)
    period_counts = mask.sum(axis=0)
    if (unit_counts == 0).any() or (period_counts == 0).any():
        raise RankDeficientFit("a unit or period has no untreated observations")

    y = np.where(mask, outcome, 0.0)
    unit_sums = y.sum(axis=1)
    period_sums = y.sum(axis=0)
    scale = 1.0 + np.max(np.abs(outcome[mask]))

    alpha = np.zeros(N)
    xi = np.zeros(T)
    maskf = mask.astype(float)
    for _ in range(max_sweeps):
        alpha_new = (unit_sums - maskf @ xi) / unit_counts
        xi_new = (period_sums - alpha_new @ maskf) / period_counts
        change = max(np.max(np.abs(alpha_new - alpha)), np.max(np.abs(xi_new - xi)))
        alpha, xi = alpha_new, xi_new
        if change < tol * scale:
            break

    alpha = (unit_sums - maskf @ xi) / unit_counts
    if not _foc_satisfied(alpha, xi, unit_sums, period_sums, maskf,
                          unit_counts, period_counts, scale):
        alpha, xi = _dense_period_solve(
            unit_sums, period_sums, maskf, unit_counts, period_counts
        )
        if not _foc_satisfied(alpha, xi, unit_sums, period_sums, maskf,
                              unit_counts, period_counts, scale, loose=True):
            raise RankDeficientFit("two-way fit did not reach the least-squares optimum")

    # normalize: xi[0] = 0
    alpha = alpha + xi[0]
    xi = xi - xi[0]
    return alpha, xi


def _foc_satisfied(alpha, xi, unit_sums, period_sums, maskf,
                   unit_counts, period_counts, scale, loose=False):
    tol = (1e-9 if loose else 1e-11) * scale
    unit_gap = unit_sums - unit_counts * alpha - maskf @ xi
    period_gap = period_sums - alpha @ maskf - period_counts * xi
    return max(np.max(np.abs(unit_gap)), np.max(np.abs(period_gap))) < tol


def _dense_period_solve(unit_sums, period_sums, maskf, unit_counts, period_counts):
    """Exact T x T solve for the period effects with unit effects absorbed."""
    # Schur complement of the block-diagonal unit-effect block
    weighted = maskf / unit_counts[:, None]
    S = np.diag(period_counts) - maskf.T @ weighted
    rhs = period_sums - (unit_sums / unit_counts) @ maskf
    # one period effect is free; pin the first and solve the rest
    try:
        xi_rest = np.linalg.solve(S[1:, 1:], rhs[1:])
    except np.linalg.LinAlgError as exc:
        raise RankDeficientFit("period-effect system is singular") from exc
    xi = np.concatenate([[0.0], xi_rest])
    alpha = (unit_sums - maskf @ xi) / unit_counts
    return alpha, xi


def fit_twfe_untreated(panel: PanelData) -> FixedEffectsFit:
    """Fit unit and time effects on the untreated cells of the panel."""
    mask = ~panel.treated_mask()
    alpha, xi = _fit_two_way(panel.outcome, mask)
    resid = np.where(mask, panel.outcome - alpha[:, None] - xi[None, :], np.nan)
    return FixedEffectsFit(alpha=alpha, xi=xi, residuals=resid, mask=mask)


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


def _semidefinite(v, scale):
    """Whether no eigenvalue of the symmetric ``v`` lies below -1e-8 * scale,
    by a Cholesky factorization of v + 1e-8 * scale * I, which fails when one
    does.  With scale <= 0 only the zero matrix passes."""
    if scale <= 0:
        return not np.any(v)
    shifted = v.copy()
    shifted.flat[:: len(v) + 1] += 1e-8 * scale
    try:
        # shifted.T is Fortran-ordered, so it is factored in place, and its
        # upper triangle is v's lower one, the triangle eigvalsh reads
        scilinalg.cholesky(shifted.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class CoefficientSet:
    """Stacked cohort-period coefficients aligned to a cell index.

    ``positions`` are cell positions (canonical order, ascending); ``values``
    the coefficients at those cells: block biases on pre cells, estimated
    effects on post cells.  ``vcov``, when present, is aligned to ``values``.
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
            # rounding scales with the largest variance
            scale = np.max(np.diag(v), initial=0.0)
            if np.max(np.abs(v - v.T), initial=0.0) > 1e-10 * scale:
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
    stratum-period cells: the same Schur-complement solve as
    ``_dense_period_solve``, with strata in place of units.
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
        E -= (period * post[:, None]) @ _period_effects_operator(adopt, sizes, T)
    return E


def estimate(panel: PanelData, estimator: str) -> CoefficientSet:
    """Full stacked coefficient vector (pre block biases and post effects)."""
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, estimator)
    E = _coefficient_operator(layout, cells)
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


def _select(coeffs: CoefficientSet, keep) -> CoefficientSet:
    return CoefficientSet(
        estimator=coeffs.estimator,
        cells=coeffs.cells,
        positions=coeffs.positions[keep],
        values=coeffs.values[keep],
    )


def imputation_estimates(panel: PanelData) -> CoefficientSet:
    """Post-treatment effects: observed minus imputed, averaged per cell."""
    full = estimate(panel, "imputation")
    return _select(full, full.post_mask)


def block_bias_pre_imputation(panel: PanelData) -> CoefficientSet:
    """Pre-treatment block biases for the imputation estimator.

    Each cohort is compared with its initial control group, both measured
    relative to their averages over the cohort's pre-treatment window.  The
    per-cohort biases sum to zero by construction.
    """
    full = estimate(panel, "imputation")
    return _select(full, full.pre_mask)


def csnyt_estimates(panel: PanelData) -> CoefficientSet:
    """Not-yet-treated estimator: pre block biases and post effects.

    Post cells compare the cohort's change from its reference period t_g - 1
    with the contemporaneous not-yet-treated group's change; pre cells use
    the fixed initial control group.  The reference cell (s = 0) is a
    structural zero and carries no coefficient.
    """
    return estimate(panel, "csnyt")


def sequential_imputation(panel: PanelData) -> CoefficientSet:
    """Round-by-round imputation over a working copy of the outcome grid.

    Untreated outcomes seed the grid; each round s = 1, 2, ... imputes every
    cohort's cells at relative period s from a block comparison of the cohort
    with its initial control group over all prior periods, then writes the
    imputed values back so later rounds can use them.  Kept free of any
    shared code with the direct fixed-effects path on purpose: it serves as
    an independent cross-check of the imputation estimator.
    """
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, "imputation")
    T = panel.n_periods
    treated = panel.treated_mask()
    Z = np.where(treated, np.nan, panel.outcome)

    max_s = max(T - t_g + 1 for t_g in layout.times)
    for s in range(1, max_s + 1):
        for g, t_g in enumerate(layout.times):
            t = t_g + s - 1
            if t > T:
                continue
            own = layout.cohort_units[g]
            ctrl = layout.initial_control_units(g)
            prior = slice(0, t - 1)
            own_pre = Z[own, prior].mean(axis=1)          # per-unit prior mean
            ctrl_now = Z[ctrl, t - 1].mean()
            ctrl_pre = Z[ctrl, prior].mean()
            Z[own, t - 1] = own_pre + (ctrl_now - ctrl_pre)

    positions, values = [], []
    for p in range(len(cells)):
        c = cells.cell(p)
        if not c.post:
            continue
        units = layout.cohort_units[c.cohort]
        gap = panel.outcome[units, c.cal - 1] - Z[units, c.cal - 1]
        positions.append(p)
        values.append(float(gap.mean()))
    return CoefficientSet(
        estimator="imputation",
        cells=cells,
        positions=np.array(positions),
        values=np.array(values),
    )


def cohort_loo(panel: PanelData, cohort_time: int) -> np.ndarray:
    """Hold-out re-estimates of one cohort's pre-treatment coefficients.

    For each pre-treatment period of the target cohort, the two-way model is
    refit on the cohort-plus-initial-controls subsample with that period's
    cohort observations held out, and the held-out cells are imputed.  The
    result is a rescaled version of the direct block biases; callers can
    multiply by (T_g - 1) / T_g to recover them.
    """
    layout = build_layout(panel)
    g = layout.times.index(cohort_time)
    T_g = cohort_time - 1
    if T_g < 2:
        raise SinglePrePeriod(
            f"cohort g{cohort_time} has a single pre-treatment period; "
            "hold-out estimation is undefined"
        )
    own = layout.cohort_units[g]
    ctrl = layout.initial_control_units(g)
    keep = np.concatenate([own, ctrl])
    sub_outcome = panel.outcome[keep]
    sub_untreated = ~panel.treated_mask()[keep]
    own_rows = np.arange(len(own))

    out = np.empty(T_g)
    for j, t_star in enumerate(range(1, cohort_time)):
        mask = sub_untreated.copy()
        mask[own_rows, t_star - 1] = False
        alpha, xi = _fit_two_way(sub_outcome, mask)
        fitted = alpha[own_rows] + xi[t_star - 1]
        out[j] = float((sub_outcome[own_rows, t_star - 1] - fitted).mean())
    return out


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
    """Emit ``estimator,cohort,rel_period,calendar_time,kind,value`` rows."""
    stream.write("estimator,cohort,rel_period,calendar_time,kind,value\n")
    cells, pos = coeffs.cells, coeffs.positions
    rows = zip(cells.cohort_time[pos].tolist(), cells.rel[pos].tolist(),
               cells.cal[pos].tolist(), cells.pre[pos].tolist(), coeffs.values.tolist())
    for t_g, s, t, pre, v in rows:
        cal = time_labels[t - 1] if time_labels else t
        kind = "pre" if pre else "post"
        stream.write(f"{coeffs.estimator},{t_g},{s},{cal},{kind},{v!r}\n")


def write_vcov_csv(coeffs: CoefficientSet, stream):
    """Emit the dense covariance matrix with a header row of cell labels."""
    if coeffs.vcov is None:
        raise ValueError("coefficient set has no covariance matrix")
    labels = coeffs.labels()
    stream.write(",".join(labels) + "\n")
    for row in coeffs.vcov:
        stream.write(",".join(map(repr, row.tolist())) + "\n")
