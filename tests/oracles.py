"""Independent paths that tests compare the package against.

``decisions`` is the hybrid test's stage two by the primal basis, one
member and one grid point at a time, with one quantile call per member.
``basis_bounds`` gives its truncation: for every point that stage one
accepts, the basis of the optimal dual vertex is inverted, the non-basic
moments' primal slack checked for a tie, and [vlo, vup] taken from the
slacks as linear functions of the statistic.  ``inference._stage_two``
conditions on the dual vertices instead: the optimal vertex stays the
argmax while no other vertex overtakes it, and it forms those products for
a block of members at once.  ``member_block`` is the block of one member,
``take`` the block of some of a block's members.  ``seeded_normals`` are
the Monte Carlo stage's standard normals in the order of their stream, from
one call; ``inference._standard_normals`` draws them in descending order of
norm.

``vcov_csv`` is the covariance CSV as the per-element loop wrote it;
``estimators.write_vcov_csv`` formats each mirrored pair once.

``bootstrap_draws`` is the stratified bootstrap as it ran one replicate and
one stratum at a time: ``resample_rows`` makes one ``integers`` call per
stratum and indexes the stratum's units with it.  ``vcov._bootstrap_draws``
draws each run of equal-size strata in one call and gathers a chunk of
replicates at once.

``fit_two_way`` is the unit-level two-way fit, one least-squares solve on
the unit and period dummies; ``fit_twfe_untreated`` fits it on a panel's
untreated cells.  ``sequential_imputation`` imputes the outcome grid round
by round, and ``cohort_loo`` refits the two-way model with one pre-treatment
period of a cohort held out.  ``estimators.estimate`` applies one linear map
of the stratum-period means instead; the acceptance suite checks it against
all three.  ``treated_mask`` and the layout helpers ``initial_control_units``,
``not_yet_treated_units`` and ``adjustment_cohorts`` serve these paths and
the tests' loop and group-mean oracles.

``corrected_weights_dense`` is the corrected-point weight vector as it was
formed from a dense sensitivity-zero block path D (one column per
coefficient, written out per family kind) and the product W @ D, and
``plugin_box_tails`` the plug-in centre and radius with the target's
loadings on the bounded differences taken as reversed cumulative sums over
each cohort's post cells (twice for sd).  ``inference._pinned_path`` gets
both from one triangular solve on the family's difference rows.

``member_bounds`` is the linear program the closed-form plug-in set
replaced: one member's target bounds with the pre-treatment coordinates
pinned at their estimates, solved with HiGHS; ``lp_union`` merges them over
a family.  ``_eta_star_lp`` is the profiling program the dual vertices
replaced, the studentized max moment minimised over the nuisance, and
``brute_force_vertices`` lists those vertices from every basis of
``[sd, X]``.

``dense_inverse`` is W^-1 by one dense LAPACK unit-triangular solve, after
reversing the cells of every calendar block so that W is lower-triangular.
``biasmap.invert`` inverts the diagonal blocks together and forms the rest
by block forward substitution instead.

``load_panel_csv`` is the panel loader as it read every file: through the
csv reader, ``block`` rows at a time, a column at a time, with a block that
has a bad field parsed again row by row.  ``panel.load_panel`` parses a
plain block with one ``np.loadtxt`` call instead.  Both test that the
periods are consecutive by their count, and give ``MalformedCsv`` for a text
the csv reader refuses.
"""

import csv
import dataclasses
import itertools
import math

import numpy as np
from scipy import optimize as sciopt
from scipy.linalg import solve_triangular

from blockdid.estimators import (
    CoefficientSet,
    _coefficient_operator,
    _strata_means,
    _stratum_units,
)
from blockdid.inference import (
    _VERTEX_TIE_TOL,
    AllMembersInfeasible,
    InferenceError,
    IntervalSet,
    _block_moments,
    _reduced_rows,
    _truncnorm_quantile,
)
from blockdid.panel import (
    NEVER,
    BadAdoptionTime,
    DuplicateCell,
    InconsistentCohortLabel,
    MalformedCsv,
    MissingField,
    NonIntegerTime,
    PanelData,
    PanelError,
    UnbalancedPanel,
    build_cell_index,
    build_layout,
)
from blockdid.restrictions import FAMILY_KINDS, CohortWithoutTwoPrePeriods


def member_block(coeffs, member, basis):
    """The block of one member, with target basis ``basis``
    (``inference._target_basis``)."""
    rows = (member.A[None], member.d[None], member.A_eq, member.d_eq)
    A, d = _reduced_rows(*rows, coeffs.cells, coeffs.positions)
    (block,) = _block_moments(coeffs, A, d, basis, {})
    return block


def seeded_normals(seed, draws, dim):
    """The (draws, dim) standard normals of the Monte Carlo stream of
    ``seed``, in stream order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return rng.standard_normal((draws, dim))


def take(block, members):
    """The block of ``block``'s members at ``members``."""
    stacked = {
        f.name: getattr(block, f.name)[members]
        for f in dataclasses.fields(block)
        if f.name != "X" and getattr(block, f.name) is not None
    }
    return dataclasses.replace(block, **stacked)


def decisions(block, i, lf_cv, points, alpha, kappa):
    """Hybrid rejection decision of member i of a block, with critical value
    ``lf_cv``, at every value in ``points``: ``basis_bounds``, then one
    truncated normal quantile call."""
    reject, eta, conditional = basis_bounds(block, i, lf_cv, points)
    if len(conditional):
        at, sig, vlo, vup = conditional.T
        at = at.astype(int)
        vup = np.minimum(vup, lf_cv)  # condition on first-stage acceptance
        alpha_mod = (alpha - kappa) / (1.0 - kappa)
        q = _truncnorm_quantile(1.0 - alpha_mod, vlo / sig, vup / sig)
        reject[at] = eta[at] > np.maximum(0.0, sig * q)
    return reject


def basis_bounds(block, i, lf_cv, points):
    """Member i's rejections at ``points`` before the conditional quantile,
    its eta* there (-inf where the deterministic rows reject), and the
    (point, sigma, vlo, vup) rows of the points left to the quantile, by the
    primal basis of the optimal vertex.  [vlo, vup] is the range of the
    statistic over which that basis stays optimal, before ``decisions`` caps
    vup by the critical value."""
    a0, a1, sd, sigma = block.a0[i], block.a1[i], block.sd[i], block.sigma[i]
    vertices = block.vertices[i]
    points = np.asarray(points, dtype=float)
    reject = (
        block.det_a0[i][:, None] - np.outer(block.det_a1[i], points)
        > block.det_tol[i][:, None]
    ).any(axis=0)
    eta = np.full(len(points), -np.inf)
    if len(vertices) == 0:  # eta* is -inf at every point
        return reject, eta, np.empty((0, 4))
    live = np.flatnonzero(~reject)
    Y = a0[:, None] - np.outer(a1, points[live])
    vals = vertices @ Y
    eta[live], lam = vals.max(axis=0), vertices[vals.argmax(axis=0)]
    reject[live] = eta[live] > lf_cv

    W = np.column_stack([sd, block.X])
    conditional = []  # (point, sigma, vlo, vup)
    for j in np.flatnonzero(eta[live] <= lf_cv):
        basic = lam[j] > _VERTEX_TIE_TOL
        if int(basic.sum()) != W.shape[1]:
            continue  # degenerate vertex
        y, eta_j, scale = Y[:, j], eta[live[j]], 1.0 + abs(eta[live[j]])
        try:
            proj = W[~basic] @ np.linalg.inv(W[basic])
        except np.linalg.LinAlgError:
            continue
        if np.any(proj @ y[basic] - y[~basic] <= _VERTEX_TIE_TOL * scale):
            continue  # tied optimum
        sig2 = float(lam[j] @ sigma @ lam[j])
        if sig2 <= 1e-24:
            reject[live[j]] = eta_j > 0
            continue
        c = sigma @ lam[j] / sig2
        z = y - c * eta_j
        const = proj @ z[basic] - z[~basic]
        slope = proj @ c[basic] - c[~basic]
        lo_set = slope > _VERTEX_TIE_TOL  # slack requires const + slope*S >= 0
        hi_set = slope < -_VERTEX_TIE_TOL
        vlo = np.max(-const[lo_set] / slope[lo_set], initial=-np.inf)
        vup = np.min(-const[hi_set] / slope[hi_set], initial=np.inf)
        # every non-basic slack is positive, so vlo < eta_j < vup
        conditional.append((live[j], math.sqrt(sig2), vlo, vup))
    return reject, eta, np.array(conditional).reshape(-1, 4)


def vcov_csv(coeffs):
    """Header of cell labels, then every covariance entry as ``repr``."""
    return ",".join(coeffs.labels()) + "\n" + "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in coeffs.vcov
    )


def resample_rows(groups, rng):
    """Within-stratum draws, concatenated in canonical stratum order."""
    rows = np.empty(sum(len(g) for g in groups), dtype=int)
    at = 0
    for g in groups:
        rows[at : at + len(g)] = g[rng.integers(0, len(g), size=len(g))]
        at += len(g)
    return rows


def bootstrap_draws(panel, spec):
    """Stacked coefficient draws of ``spec``, one replicate at a time."""
    layout = build_layout(panel)
    groups = _stratum_units(layout)
    sizes = [len(g) for g in groups]
    means = np.empty((spec.replications, len(groups), panel.n_periods))
    for b in range(spec.replications):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(b, 0))
        )
        means[b] = _strata_means(panel.outcome[resample_rows(groups, rng)], sizes)
    cells = build_cell_index(layout, panel.n_periods, spec.estimator)
    E = _coefficient_operator(layout, cells)
    return means.reshape(spec.replications, -1) @ E.T


def treated_mask(panel):
    """Boolean (N, T) mask of treated observations."""
    adoption = [panel.n_periods + 1 if t is None else t for t in panel.adoption]
    return np.arange(1, panel.n_periods + 1) >= np.array(adoption)[:, None]


def initial_control_units(layout, g):
    """Units untreated when cohort g adopts: later cohorts plus never."""
    return np.concatenate([*layout.cohort_units[g + 1 :], layout.never_units])


def not_yet_treated_units(layout, t):
    """Units untreated at calendar period t."""
    later = [u for t_k, u in zip(layout.times, layout.cohort_units) if t_k > t]
    return np.concatenate([*later, layout.never_units])


def adjustment_cohorts(layout, g, t):
    """Indices k with t_g < t_k <= t."""
    return [k for k, t_k in enumerate(layout.times) if layout.times[g] < t_k <= t]


def fit_two_way(outcome, mask):
    """Least-squares alpha_i + xi_t on the cells where ``mask`` holds.

    One solve on the unit and period dummies; leaving out the first period's
    dummy normalizes xi[0] = 0.
    """
    N, T = outcome.shape
    unit, period = np.nonzero(mask)
    design = np.zeros((len(unit), N + T))
    design[np.arange(len(unit)), unit] = 1.0
    design[np.arange(len(unit)), N + period] = 1.0
    coef = np.linalg.lstsq(np.delete(design, N, axis=1), outcome[mask], rcond=None)[0]
    return coef[:N], np.concatenate([[0.0], coef[N:]])


def fit_twfe_untreated(panel):
    """Unit and period effects ``(alpha, xi)`` fitted on the untreated cells."""
    return fit_two_way(panel.outcome, ~treated_mask(panel))


def sequential_imputation(panel):
    """Post-treatment effects by round-by-round imputation.

    Untreated outcomes seed a working grid.  Round s imputes every cohort's
    cells at relative period s from a block comparison of the cohort with its
    initial control group over all prior periods, and writes the imputed
    values back so that later rounds use them.
    """
    layout = build_layout(panel)
    cells = build_cell_index(layout, panel.n_periods, "imputation")
    T = panel.n_periods
    Z = np.where(treated_mask(panel), np.nan, panel.outcome)
    for s in range(1, T - min(layout.times) + 2):
        for g, t_g in enumerate(layout.times):
            t = t_g + s - 1
            if t > T:
                continue
            own, ctrl = layout.cohort_units[g], initial_control_units(layout, g)
            prior = slice(0, t - 1)
            Z[own, t - 1] = Z[own, prior].mean(axis=1) + (
                Z[ctrl, t - 1].mean() - Z[ctrl, prior].mean()
            )
    positions = np.flatnonzero(cells.post)
    values = []
    for p in positions:
        c = cells.cell(p)
        units = layout.cohort_units[c.cohort]
        values.append((panel.outcome[units, c.cal - 1] - Z[units, c.cal - 1]).mean())
    return CoefficientSet("imputation", cells, positions, np.array(values))


def cohort_loo(panel, cohort_time):
    """Hold-out re-estimates of one cohort's pre-treatment coefficients.

    For each pre-treatment period, the two-way model is refit on the cohort
    and its initial controls with the cohort's cells at that period held
    out, and the held-out cells are imputed.  With T_g >= 2 pre-treatment
    periods the result is T_g / (T_g - 1) times the direct block biases.
    """
    layout = build_layout(panel)
    g = layout.times.index(cohort_time)
    own = layout.cohort_units[g]
    keep = np.concatenate([own, initial_control_units(layout, g)])
    outcome, untreated = panel.outcome[keep], ~treated_mask(panel)[keep]
    rows = np.arange(len(own))
    out = np.empty(cohort_time - 1)
    for j in range(cohort_time - 1):
        mask = untreated.copy()
        mask[rows, j] = False
        alpha, xi = fit_two_way(outcome, mask)
        out[j] = (outcome[rows, j] - alpha[rows] - xi[j]).mean()
    return out


_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


def _eta_star_lp(y, X, sd):
    """min eta s.t. y - X gamma <= eta * sd; -inf when the nuisance pushes
    every moment down without bound."""
    k = X.shape[1]
    res = sciopt.linprog(
        np.eye(1 + k)[0],
        A_ub=np.column_stack([-sd, -X]),
        b_ub=-y,
        bounds=[(None, None)] * (1 + k),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 3:
        return -np.inf
    if not res.success:
        raise InferenceError(f"profiling program failed: {res.message}")
    return float(res.x[0])


def corrected_weights_dense(cells, positions, family_kind, bias_map, target):
    """Weights c with corrected point c' betahat: the target less the overall
    bias W @ D of the block path D at sensitivity zero, constant at the last
    pre value (rm) or the line through the last two (sd)."""
    if family_kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {family_kind!r}")
    column = np.full(len(cells), -1)  # coefficient index per cell, -1 if none
    column[positions] = np.arange(len(positions))
    D = np.zeros((len(cells), len(positions)))  # block path at sensitivity zero
    pre = np.flatnonzero(cells.pre & ~cells.structural)
    D[pre, column[pre]] = 1.0
    rows = np.flatnonzero(cells.post)
    g, t_g, rel = cells.cohort[rows], cells.cohort_time[rows], cells.rel[rows]
    base = column[cells.locate(g, t_g - 1)]  # the reference cell, s = 0
    has_base = base >= 0
    if family_kind == "sd":
        if np.any(t_g < 3):
            raise CohortWithoutTwoPrePeriods(
                "the sd correction needs two pre-treatment periods per cohort"
            )
        D[rows[has_base], base[has_base]] = 1.0 + rel[has_base]
        D[rows, column[cells.locate(g, t_g - 2)]] -= rel  # s = -1
    else:
        D[rows[has_base], base[has_base]] = 1.0
    M = (bias_map.W @ D)[positions, :]
    post = cells.post[positions]
    l_vec = target.weights[positions]
    return l_vec - M[post].T @ l_vec[post]


def dense_inverse(bias_map):
    """W^-1 by one unit lower-triangular solve against the identity: the
    cells of each calendar block are reversed, which makes W's unit
    upper-triangular diagonal blocks lower-triangular and leaves the blocks
    below them below."""
    cal = bias_map.cells.cal
    # reverses each run of equal calendar times; its own inverse
    perm = (
        np.searchsorted(cal, cal, "left")
        + np.searchsorted(cal, cal, "right")
        - 1
        - np.arange(len(cal))
    )
    ix = np.ix_(perm, perm)
    lower = bias_map.W[ix]
    if np.any(np.triu(lower, 1)):
        raise ValueError("W is not block-triangular over calendar times")
    return solve_triangular(
        lower, np.eye(len(cal)), lower=True, unit_diagonal=True
    )[ix]


def plugin_box_tails(coeffs, family, target):
    """Centre weights and radius of the plug-in set: a unit change in cohort
    g's difference at post cell j moves the target by the tail sum from j on
    of u = W[post]'l[post] over g's post cells (sd: the tail sum of those
    tail sums), and the radius sums their absolute values times each
    cohort's largest pinned benchmark difference (sd: 1) and the parameter."""
    cells, positions, values = coeffs.cells, coeffs.positions, coeffs.values
    bias_map = family.bias_map
    centre = corrected_weights_dense(cells, positions, family.family, bias_map, target)
    G, T = len(cells.times), cells.n_periods
    post = cells.post.reshape(T, G)  # rows: calendar periods, columns: cohorts
    loading = bias_map.W[cells.post].T @ target.weights[cells.post]
    u = np.where(cells.post, loading, 0.0)  # pre block biases are pinned
    tail = np.cumsum(u.reshape(T, G)[::-1], axis=0)[::-1]
    if family.family == "sd":
        tail = np.cumsum((tail * post)[::-1], axis=0)[::-1]
        bench = np.ones(G)
    else:
        block = np.zeros(len(cells))  # pinned pre block biases, 0 if structural
        block[positions] = values
        k, s_star, _ = family.benchmarks.T  # each (G, members)
        cal = np.asarray(cells.times)[k] + s_star - 1
        diffs = block[cells.locate(k, cal)] - block[cells.locate(k, cal - 1)]
        bench = np.abs(diffs).max(axis=1)
    return centre, family.parameter * float(bench @ (np.abs(tail) * post).sum(axis=0))


class UnboundedProgram(InferenceError):
    """A member leaves the target unbounded."""


def member_bounds(coeffs, member, target):
    """[min, max] of l'(beta_post - delta_post) over one member, or None."""
    cells = coeffs.cells
    positions = coeffs.positions
    rows = (member.A[None], member.d[None], None, None)
    (A,), (d,) = _reduced_rows(*rows, cells, positions)
    A_eq, d_eq = member.A_eq, member.d_eq
    if A_eq is not None:
        A_eq = A_eq[:, positions]
    n = len(positions)
    pre = cells.pre[positions]
    l_vec = target.weights[positions]

    eq_rows = [np.eye(n)[pre]]
    eq_rhs = [coeffs.values[pre]]
    if A_eq is not None:
        eq_rows.append(A_eq)
        eq_rhs.append(d_eq)
    A_eq_full = np.vstack(eq_rows)
    b_eq_full = np.concatenate(eq_rhs)

    l_beta = float(l_vec @ coeffs.values)
    bounds = []
    for sign in (1.0, -1.0):
        res = sciopt.linprog(
            sign * l_vec,
            A_ub=A,
            b_ub=d,
            A_eq=A_eq_full,
            b_eq=b_eq_full,
            bounds=[(None, None)] * n,
            method="highs",
            options=_LP_OPTIONS,
        )
        if res.status == 2:
            return None
        if res.status == 3:
            raise UnboundedProgram("the member does not constrain the target")
        if not res.success:
            raise InferenceError(f"linear program failed: {res.message}")
        bounds.append(sign * res.fun)
    min_ldelta, max_ldelta = bounds
    return (l_beta - max_ldelta, l_beta - min_ldelta)


def lp_union(coeffs, members, target):
    """Union of the member intervals, merged into disjoint intervals."""
    pairs = [
        b for b in (member_bounds(coeffs, m, target) for m in members)
        if b is not None
    ]
    if not pairs:
        raise AllMembersInfeasible("no member is consistent with the estimates")
    merged = []
    for a, b in sorted(pairs):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalSet(intervals=tuple(map(tuple, merged)), provenance="plugin")


def brute_force_vertices(sd_vec, X):
    """Vertices of {lam >= 0 : sd'lam = 1, X'lam = 0} from every basis of
    W = [sd, X]: each nonsingular p-row subset S with W_S'^-1 e1 >= 0 is a
    vertex.  Feasible bases repeat a vertex when it is degenerate, so rows
    are deduplicated after rounding."""
    m = len(sd_vec)
    W = np.column_stack([sd_vec, X])
    p = W.shape[1]
    if m < p or np.linalg.matrix_rank(W) < p:
        return None
    assert math.comb(m, p) <= 300_000, "system too large for the oracle"
    combos = np.array(list(itertools.combinations(range(m), p)))
    mats = np.transpose(W[combos, :], (0, 2, 1))
    ok = np.abs(np.linalg.det(mats)) > 1e-12
    if not ok.any():
        return None
    sols = np.linalg.solve(mats[ok], np.eye(p, 1)[None])[..., 0]
    feas = (sols >= -1e-9).all(axis=1)
    if not feas.any():
        return None
    verts = np.zeros((int(feas.sum()), m))
    rows = np.arange(int(feas.sum()))[:, None]
    verts[rows, combos[ok][feas]] = np.clip(sols[feas], 0.0, None)
    return np.unique(np.round(verts, 12), axis=0)


def load_panel_csv(source, block=1024):
    """The panel of a CSV path or text stream, read by the csv reader."""
    if hasattr(source, "read"):
        stream = source
    else:
        stream = open(source, "r", encoding="utf-8-sig", newline="")

    units, times, labels = {}, {}, {}  # value -> code, by first appearance
    blocks = []
    try:
        reader = csv.reader(line for line in stream if not line.startswith("#"))
        header = next(reader, None)
        required = {"unit", "time", "outcome", "cohort"}
        if header is None or not required.issubset(header):
            raise PanelError(
                f"CSV header must contain {sorted(required)}, got {header}"
            )
        at = {name: i for i, name in enumerate(header)}
        fields = [at[name] for name in ("unit", "time", "outcome", "cohort")]
        line = 2
        while chunk := list(itertools.islice(reader, block)):
            rows = [row for row in chunk if row]
            unit, t, y, g = _csv_block(rows, header, fields, line)
            blocks.append((
                _csv_codes(unit, units), _csv_codes(t, times),
                _csv_codes(g, labels), np.array(y, dtype=float),
            ))
            line += len(rows)
    except csv.Error as exc:
        raise MalformedCsv(f"CSV cannot be read: {exc}") from exc
    finally:
        if stream is not source:
            stream.close()

    if not units:
        raise PanelError("empty panel file")
    u, t, g, y = (np.concatenate(column) for column in zip(*blocks))
    units, labels = list(units), list(labels)
    first = np.unique(u, return_index=True)[1]
    bad = np.flatnonzero(g != g[first][u])
    if len(bad):
        r = bad[0]
        raise InconsistentCohortLabel(
            f"unit {units[u[r]]!r} labeled both {labels[g[first[u[r]]]]!r} "
            f"and {labels[g[r]]!r}"
        )

    ordered = sorted(times)
    lo, hi = ordered[0], ordered[-1]
    if hi - lo + 1 != len(ordered):
        raise UnbalancedPanel(f"periods {ordered} are not a consecutive range")
    T = hi - lo + 1
    offset = lo - 1
    col = np.array([time - lo for time in times])[t]

    N = len(units)
    cell = u * T + col
    counts = np.bincount(cell, minlength=N * T)
    if counts.max() > 1:
        order = np.argsort(cell, kind="stable")
        r = order[1:][cell[order[1:]] == cell[order[:-1]]].min()
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


def _csv_codes(values, index):
    for v in dict.fromkeys(values):
        index.setdefault(v, len(index))
    return np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _csv_block(block, header, fields, line):
    """A block's columns, or the first bad field's error by ``_csv_row``."""
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
    rows = [
        _csv_row(dict(zip(header, row + [None] * (len(header) - len(row)))), n)
        for n, row in enumerate(block, start=line)
    ]
    return tuple(list(column) for column in zip(*rows))


def _csv_row(row, lineno):
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
