"""Plug-in identified sets and uniformly valid confidence sets.

Targets are linear functionals of the post-treatment effects.  The plug-in
identified set pins the pre-treatment coefficients at their estimates.  As
W's pre rows are the identity, every member of a built family is then a box
on the post block-bias differences, over which the target spans the
corrected point plus or minus a radius (``_plugin_box``); in an rm union one
member contains all the others, so no linear program is solved.

Confidence sets invert a two-stage hybrid moment-inequality test over a grid
of candidate values.  Writing the post effects as theta0 * lbar + X gamma
(lbar a fixed vector with l'lbar = 1, X a basis of the null space of l'), the
member constraints become moment inequalities linear in the nuisance gamma.
Stage one compares the studentized max moment, profiled over gamma by linear
programming, against a seeded Monte Carlo least-favorable critical value at
level kappa; stage two is a conditional test at level (alpha-kappa)/(1-kappa)
that conditions on the basis of the optimal dual vertex (and on first-stage
acceptance) via a truncated normal.  Degenerate or tied optima fall back to
the stage-one decision, which never over-rejects.  The profiling program is
solved as a maximum over the vertices of its dual polytope, which makes the
Monte Carlo stage and the grid sweep cheap.  The vertices come from a
double-description enumeration of the extreme rays of {lam >= 0 : X'lam = 0};
only where its working ray count would exceed the cap, or the moment system
is rank-deficient, does one LP per point take their place, and nothing else
changes.  The rays depend on X alone, so a confidence set enumerates them
once per distinct nuisance system and scales them per member.  A family's
members are formed one at a time as they are tested; at parameter 0 the
family is one polyhedron and is tested once.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as scilinalg
from scipy import optimize as sciopt
from scipy import stats as scistats

from .biasmap import BiasMap
from .estimators import AggregatedSeries, CoefficientSet, _check_pre_zero_sum
from .panel import CellIndex, CohortLayout, build_cell_index
from .restrictions import (
    CohortWithoutTwoPrePeriods,
    FAMILY_KINDS,
    Polyhedron,
    RestrictionFamily,
    map_to_delta_space,
)

__all__ = [
    "InferenceError",
    "AllMembersInfeasible",
    "SingularVcov",
    "InvalidLevel",
    "InvalidGrid",
    "InvalidDraws",
    "InvalidTarget",
    "TargetFunctional",
    "overall_att_target",
    "by_period_target",
    "custom_target",
    "GridSpec",
    "IntervalSet",
    "plugin_identified_set",
    "hybrid_test",
    "confidence_set",
    "default_grid",
    "corrected_point",
    "by_period_sets",
    "ByPeriodResult",
    "aggregated_system",
    "aggregated_att_target",
    "aggregated_confidence_set",
]

_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
_VERTEX_TIE_TOL = 1e-9
# working rays of the vertex enumeration; the Monte Carlo product holds
# cap x draws values, so it also bounds that product's memory
_VERTEX_ENUM_CAP = 2_000
_DEFAULT_DRAWS = 10_000


class InferenceError(RuntimeError):
    code = "INFERENCE_ERROR"


class AllMembersInfeasible(InferenceError):
    code = "ALL_MEMBERS_INFEASIBLE"


class SingularVcov(InferenceError):
    code = "SINGULAR_VCOV"


class InvalidLevel(ValueError):
    code = "INVALID_LEVEL"


class InvalidGrid(ValueError):
    code = "INVALID_GRID"


class InvalidDraws(ValueError):
    code = "INVALID_DRAWS"


class InvalidTarget(ValueError):
    code = "INVALID_TARGET"


# ---------------------------------------------------------------------------
# targets and interval sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetFunctional:
    """Linear weights over post-treatment cells defining theta = l' tau_post."""

    weights: np.ndarray  # over the full cell index
    description: str
    cells: CellIndex

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.cells),):
            raise ValueError("weights must span the full cell index")
        off_post = np.flatnonzero((w != 0) & ~self.cells.post)
        if len(off_post):
            raise ValueError(
                f"target weight on non-post cell at position {off_post[0]}"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def overall_att_target(layout: CohortLayout, cells: CellIndex) -> TargetFunctional:
    """Cohort-size weights over every post cell, normalized to sum to one."""
    w = np.where(cells.post, np.array(layout.sizes, dtype=float)[cells.cohort], 0.0)
    return TargetFunctional(weights=w / w.sum(), description="att", cells=cells)


def by_period_target(layout: CohortLayout, cells: CellIndex, s: int) -> TargetFunctional:
    """Cohort-size weights over the cohorts observed at relative period s."""
    sizes = np.array(layout.sizes, dtype=float)[cells.cohort]
    w = np.where(cells.post & (cells.rel == s), sizes, 0.0)
    if w.sum() == 0:
        raise InvalidTarget(f"no cohort has post-treatment relative period {s}")
    return TargetFunctional(
        weights=w / w.sum(), description=f"period:{s}", cells=cells
    )


def custom_target(cells: CellIndex, weights, description="custom") -> TargetFunctional:
    return TargetFunctional(
        weights=np.asarray(weights, dtype=float), description=description, cells=cells
    )


@dataclass(frozen=True)
class GridSpec:
    """``n`` evenly spaced candidate values from ``lo`` to ``hi``."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        finite = math.isfinite(self.lo) and math.isfinite(self.hi)
        if not (finite and self.lo < self.hi) or self.n < 2:
            raise InvalidGrid(
                f"grid needs finite lo < hi and n >= 2, got "
                f"{self.lo}:{self.hi}:{self.n}"
            )

    def points(self):
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint closed intervals, sorted by left endpoint."""

    intervals: tuple
    provenance: str  # "plugin" | "confidence"
    alpha: float = None
    grid: GridSpec = None

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if b < a:
                raise ValueError(f"empty interval [{a}, {b}]")
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 <= b1:
                raise ValueError("intervals must be disjoint and sorted")
        object.__setattr__(self, "intervals", ivs)

    @property
    def is_empty(self):
        return not self.intervals

    @property
    def lo(self):
        return self.intervals[0][0] if self.intervals else math.nan

    @property
    def hi(self):
        return self.intervals[-1][1] if self.intervals else math.nan

    def contains(self, x, tol=0.0):
        return any(a - tol <= x <= b + tol for a, b in self.intervals)

    def covers(self, other, tol=1e-12):
        """True when every interval of ``other`` lies inside this set."""
        return all(
            any(a - tol <= oa and ob <= b + tol for a, b in self.intervals)
            for oa, ob in other.intervals
        )


# ---------------------------------------------------------------------------
# plug-in identified set
# ---------------------------------------------------------------------------


def _reduced_member(member: Polyhedron, cells: CellIndex, positions):
    """Member rows restricted to the coefficient coordinate system."""
    structural = cells.structural
    for blk in (member.A, member.A_eq):
        if blk is not None and np.abs(blk[:, structural]).max(initial=0.0) > 1e-12:
            raise InferenceError("structural-zero columns must carry zero coefficients")
    A_eq = None if member.A_eq is None else member.A_eq[:, positions]
    return member.A[:, positions], member.d, A_eq, member.d_eq


def _check_alignment(coeffs: CoefficientSet, family: RestrictionFamily):
    if family.space != "overall":
        raise InferenceError("family must be mapped to overall-bias space first")
    if len(family.cells) != len(coeffs.cells) or (
        family.cells.estimator != coeffs.cells.estimator
    ):
        raise InferenceError("cell index mismatch between family and coefficients")
    _require_full_coverage(coeffs.cells, coeffs.positions)


def _require_full_coverage(cells: CellIndex, positions):
    if not np.array_equal(positions, cells.value_positions):
        raise InferenceError("coefficient set must cover every non-structural cell")


def _plugin_box(coeffs: CoefficientSet, family: RestrictionFamily, target):
    """Centre weights c and radius r of the plug-in set c'betahat +/- r.

    Cohort g's post block biases are its pinned reference value plus the
    running sums of its post first differences (sd: plus the pinned slope
    path and running sums of running sums of its second differences).  A
    unit change in g's difference at post cell j thus moves the target by
    U_gj, the tail sum from j on of u = W[post]'l[post] over g's post cells
    (sd: the tail sum of those tail sums).  With each difference in
    [-b_g, b_g], r = sum_g b_g sum_j |U_gj|.  b_g is ``parameter`` for sd;
    for rm it is ``parameter`` times the largest absolute pinned benchmark
    difference in cohort g's column of the benchmark table: the member of
    the union that contains all the others.
    """
    cells, positions, values = coeffs.cells, coeffs.positions, coeffs.values
    bias_map = family.bias_map
    centre = _corrected_weights(cells, positions, family.family, bias_map, target)
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


def plugin_identified_set(
    coeffs: CoefficientSet, family: RestrictionFamily, target: TargetFunctional
) -> IntervalSet:
    """Union over members of the interval of target values consistent with
    the estimated coefficients and the member's constraints, in closed form
    (``_plugin_box``).  It reads the family's tag, parameter, benchmark table,
    bias map and normalization, never a member's rows.  Under
    ``with_normalization`` the pinned pre coefficients must meet each
    cohort's zero-sum equality, by the rule coefficient sets obey."""
    _check_alignment(coeffs, family)
    if family.normalized:
        _check_pre_zero_sum(
            coeffs.cells, coeffs.positions, coeffs.values, AllMembersInfeasible
        )
    centre, radius = _plugin_box(coeffs, family, target)
    point = float(centre @ coeffs.values)
    return IntervalSet(
        intervals=((point - radius, point + radius),), provenance="plugin"
    )


# ---------------------------------------------------------------------------
# hybrid moment-inequality test
# ---------------------------------------------------------------------------


@dataclass
class _MomentSystem:
    """Moments A_v (betahat - L theta0 - X gamma) - d <= 0, studentized.

    ``a0`` is the moment value at theta0 = 0, ``a1`` the loading on theta0,
    ``X`` the loading on the nuisance, ``sigma`` the Gaussian covariance of
    the moment vector.  Rows whose variance sits below the covariance
    matrix's rounding floor are deterministic: those not involving the
    nuisance move to ``det_*`` and are checked exactly, the rest drop
    (conservatively).
    """

    a0: np.ndarray
    a1: np.ndarray
    X: np.ndarray
    sigma: np.ndarray
    sd: np.ndarray
    det_a0: np.ndarray
    det_a1: np.ndarray
    det_tol: np.ndarray


def _column_space(X):
    """Orthonormal basis of the column space; the profiled test only depends
    on the span of the nuisance loadings, so redundant columns are dropped."""
    if X.shape[1] == 0:
        return X
    U, S, _ = np.linalg.svd(X, full_matrices=False)
    if S.size == 0 or S[0] == 0.0:
        return X[:, :0]
    r = int((S > max(X.shape) * np.finfo(float).eps * S[0]).sum())
    return U[:, :r]


def _nuisance_basis(l_post):
    """Target direction lbar (l'lbar = 1) and an orthonormal basis of the
    null space of l' on the post coordinates."""
    q = len(l_post)
    lbar = l_post / float(l_post @ l_post)
    if q == 1:
        return lbar, np.zeros((1, 0))
    Q, _ = np.linalg.qr(np.column_stack([l_post / np.linalg.norm(l_post), np.eye(q)]))
    return lbar, Q[:, 1:q]


def _target_basis(coeffs, target):
    """What every member's moments share: the post mask over the
    coefficients and the target's nuisance basis (lbar, X_post)."""
    if coeffs.vcov is None:
        raise InferenceError("confidence sets need a coefficient covariance")
    _require_full_coverage(coeffs.cells, coeffs.positions)
    post = coeffs.cells.post[coeffs.positions]
    l_post = target.weights[coeffs.positions][post]
    if not np.any(l_post):
        raise InferenceError("target has no weight on any post cell")
    lbar, X_post = _nuisance_basis(l_post)
    return post, lbar, X_post


def _build_moments(coeffs, member, target, nuisance_override=None):
    post, lbar, X_post = _target_basis(coeffs, target)
    if nuisance_override is not None:
        X_post = nuisance_override
    return _member_moments(coeffs, member, post, lbar, X_post)


def _member_moments(coeffs, member, post, lbar, X_post):
    """One member's moment system on a target basis from ``_target_basis``."""
    A, d, A_eq, d_eq = _reduced_member(member, coeffs.cells, coeffs.positions)
    if A_eq is not None:
        A = np.vstack([A, A_eq, -A_eq])
        d = np.concatenate([d, d_eq, -d_eq])

    a0 = A @ coeffs.values - d
    a1 = A[:, post] @ lbar
    X = _column_space(A[:, post] @ X_post)
    sigma = A @ coeffs.vcov @ A.T
    sd = np.sqrt(np.clip(np.diag(sigma), 0.0, None))

    # a row's estimated variance is meaningless below the rounding floor of
    # row' Sigma row, which scales with the row norm and the largest
    # coefficient variance
    diag_scale = math.sqrt(float(np.max(np.diag(coeffs.vcov), initial=0.0)))
    row_norm = np.linalg.norm(A, axis=1)
    floor = 1e-6 * row_norm * max(diag_scale, 1e-12)
    tiny = sd <= floor
    det_mask = tiny & (np.abs(X).max(axis=1, initial=0.0) <= 1e-12)
    drop_mask = tiny & ~det_mask  # degenerate rows that involve the nuisance
    keep = ~(det_mask | drop_mask)
    if not keep.any():
        raise SingularVcov("every moment row has zero variance")
    beta_scale = 1.0 + float(np.max(np.abs(coeffs.values), initial=0.0))
    return _MomentSystem(
        a0=a0[keep],
        a1=a1[keep],
        X=X[keep],
        sigma=sigma[np.ix_(keep, keep)],
        sd=sd[keep],
        det_a0=a0[det_mask],
        det_a1=a1[det_mask],
        det_tol=1e-8 * (1.0 + row_norm[det_mask] * beta_scale),
    )


def _dual_vertices(sd, X, shared_rays=None):
    """Vertices of {lam >= 0 : sd'lam = 1, X'lam = 0}, or None if unavailable.

    The profiled max-moment statistic equals the maximum of lam'y over this
    polytope, so enumerating its vertices turns every later evaluation into a
    matrix product.  The vertices are the extreme rays of the pointed cone
    {lam >= 0 : X'lam = 0} (``_cone_rays``) scaled to sd'lam = 1.  The rays
    depend on X alone: ``shared_rays``, a dict keyed by X's shape and bytes,
    lets every moment system with the same X reuse one enumeration.  None
    when [sd, X] lacks full column rank, when the cone is {0}, or when the
    working ray count exceeds ``_VERTEX_ENUM_CAP``.
    """
    m, k = X.shape
    if (
        m <= k or m - k > _VERTEX_ENUM_CAP
        or np.linalg.matrix_rank(np.column_stack([sd, X])) <= k
    ):
        return None
    if shared_rays is None:
        rays = _cone_rays(X)
    else:
        key = (X.shape, X.tobytes())
        if key not in shared_rays:
            shared_rays[key] = _cone_rays(X)
        rays = shared_rays[key]
    return None if rays is None else rays / (rays @ sd)[:, None]


def _cone_rays(X):
    """Extreme rays of {lam >= 0 : X'lam = 0} for X of full column rank k,
    one per row at unit max-norm, or None when the cone is {0} or the
    working ray count exceeds ``_VERTEX_ENUM_CAP``.

    The double description method (Fukuda & Prodon 1996): the cone of
    r = m - k independent sign constraints on the null space of X' is
    simplicial, and the remaining constraints are added one at a time,
    keeping the rays that satisfy each one and joining every adjacent pair
    it separates.  Two rays are adjacent when no third ray's zero set
    contains their common zero set, which holds at degenerate vertices too.
    """
    m, k = X.shape
    r = m - k
    N = np.linalg.svd(X, full_matrices=True)[0][:, k:]  # null space of X'
    basis = scilinalg.qr(N.T, mode="r", pivoting=True)[1][:r]
    rays = np.linalg.solve(N[basis].T, N.T)  # row j is N N_S^-1 e_j
    rays[:, basis] = np.eye(r)
    rays /= np.abs(rays).max(axis=1, keepdims=True)
    done = np.zeros(m, dtype=bool)
    done[basis] = True
    for i in np.flatnonzero(~done):
        v = rays[:, i]  # a view: rounding zeros below writes into rays
        v[np.abs(v) <= 1e-10] = 0.0
        pos, neg = np.flatnonzero(v > 0), np.flatnonzero(v < 0)
        zero = (rays[:, done] == 0.0).astype(float)  # zero sets so far
        cp, cn = np.nonzero(zero[pos] @ zero[neg].T >= r - 2)
        # adjacent: no third ray vanishes on the pair's common zero set
        alone = np.zeros(len(cp), dtype=bool)
        step = 1 + (1 << 22) // len(rays)  # bounds the containment block
        for s in range(0, len(cp), step):
            common = zero[pos[cp[s:s + step]]] * zero[neg[cn[s:s + step]]]
            alone[s:s + step] = ((common @ (1.0 - zero).T) == 0).sum(axis=1) == 2
        pp, nn = pos[cp[alone]], neg[cn[alone]]
        if len(rays) - len(neg) + len(pp) > _VERTEX_ENUM_CAP:
            return None
        new = v[pp, None] * rays[nn] - v[nn, None] * rays[pp]
        new[:, i] = 0.0
        new /= np.abs(new).max(axis=1, keepdims=True)
        rays = np.vstack([np.delete(rays, neg, axis=0), new])
        if len(rays) == 0:
            return None
        done[i] = True
    return rays


def _eta_star_lp(y, X, sd):
    """min eta s.t. y - X gamma <= eta * sd, plus the dual solution."""
    m, k = X.shape
    c = np.zeros(1 + k)
    c[0] = 1.0
    A_ub = np.column_stack([-sd, -X])
    res = sciopt.linprog(
        c,
        A_ub=A_ub,
        b_ub=-y,
        bounds=[(None, None)] * (1 + k),
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 3:
        # nuisance can push every moment arbitrarily negative: never reject
        return -np.inf, np.zeros(m)
    if not res.success:
        raise InferenceError(f"profiling program failed: {res.message}")
    lam = -res.ineqlin.marginals
    return float(res.x[0]), np.clip(lam, 0.0, None)


def _profile(moments, vertices, Y, duals=False):
    """eta* for every column of ``Y`` and, with ``duals``, an optimal dual
    vertex per column: from the enumerated vertices, or one LP per column
    when ``vertices`` is None.  The only place the evaluator is chosen."""
    if vertices is not None:
        vals = vertices @ Y
        best = vertices[vals.argmax(axis=0)] if duals else None
        return vals.max(axis=0), best
    sols = (_eta_star_lp(y, moments.X, moments.sd) for y in Y.T)
    if not duals:  # keep no dual per Monte Carlo draw
        return np.array([eta for eta, _ in sols]), None
    sols = list(sols)
    return np.array([eta for eta, _ in sols]), np.array([lam for _, lam in sols])


@dataclass
class _HybridContext:
    """Per-(member, target) state shared across the whole grid."""

    moments: _MomentSystem
    vertices: np.ndarray  # None -> LP path
    lf_cv: float
    kappa: float


def _gaussian_root(sigma):
    vals, vecs = np.linalg.eigh((sigma + sigma.T) / 2.0)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


@functools.lru_cache(maxsize=4)
def _standard_normals(seed, draws, dim):
    """The Monte Carlo stage's (draws, dim) standard normals, read-only and
    drawn once for all the members of a set that have ``dim`` moments."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    z = rng.standard_normal((draws, dim))
    z.setflags(write=False)
    return z


def _prepare_context(moments, kappa, draws, seed, shared_rays=None):
    verts = _dual_vertices(moments.sd, moments.X, shared_rays)
    root = _gaussian_root(moments.sigma)
    xi = _standard_normals(seed, draws, root.shape[1]) @ root.T
    lf_cv = float(np.quantile(_profile(moments, verts, xi.T)[0], 1.0 - kappa))
    return _HybridContext(moments=moments, vertices=verts, lf_cv=lf_cv, kappa=kappa)


def _truncnorm_quantile(p, lo, hi):
    """Quantiles of standard normals truncated to [lo[i], hi[i]].

    An empty interval gives ``lo``; a far-tail interval where scipy returns a
    non-finite value gives its finite bound.
    """
    lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi)))
    free = np.isinf(lo) & np.isinf(hi) & (lo < hi)
    cut = ~(lo >= hi) & ~free
    out = np.where(free, scistats.norm.ppf(p), lo)
    if cut.any():
        out[cut] = scistats.truncnorm.ppf(p, a=lo[cut], b=hi[cut])
    bad = cut & ~np.isfinite(out)
    out[bad] = np.where(np.isfinite(hi[bad]), hi[bad], lo[bad])
    return out


def _decisions(ctx, points, alpha):
    """Hybrid rejection decision at every candidate value in ``points``.

    Stage one rejects when eta* exceeds the least-favorable critical value.
    Stage two conditions on the basis of the optimal dual vertex lam: the
    basis stays optimal while every non-basic moment keeps its primal slack,
    y_j <= [sd_j, X_j] W_B^-1 y_B, which is linear in the statistic along
    y(S) = z + c S and so cuts out [vlo, vup].  A degenerate optimum (support
    not of size 1+k, or a non-basic moment with zero slack, i.e. a tied
    optimum) keeps the stage-one acceptance, which never over-rejects.
    """
    mom = ctx.moments
    points = np.asarray(points, dtype=float)
    reject = (
        mom.det_a0[:, None] - np.outer(mom.det_a1, points) > mom.det_tol[:, None]
    ).any(axis=0)
    live = np.flatnonzero(~reject)
    Y = mom.a0[:, None] - np.outer(mom.a1, points[live])
    eta, lam = _profile(mom, ctx.vertices, Y, duals=True)
    reject[live] = eta > ctx.lf_cv

    W = np.column_stack([mom.sd, mom.X])
    conditional = []  # (point, sigma, vlo, vup)
    for j in np.flatnonzero(eta <= ctx.lf_cv):
        basic = lam[j] > _VERTEX_TIE_TOL
        if int(basic.sum()) != W.shape[1]:
            continue  # degenerate vertex
        y, eta_j, scale = Y[:, j], eta[j], 1.0 + abs(eta[j])
        try:
            proj = W[~basic] @ np.linalg.inv(W[basic])
        except np.linalg.LinAlgError:
            continue
        if np.any(proj @ y[basic] - y[~basic] <= _VERTEX_TIE_TOL * scale):
            continue  # tied optimum
        sig2 = float(lam[j] @ mom.sigma @ lam[j])
        if sig2 <= 1e-24:
            reject[live[j]] = eta_j > 0
            continue
        c = mom.sigma @ lam[j] / sig2
        z = y - c * eta_j
        const = proj @ z[basic] - z[~basic]
        slope = proj @ c[basic] - c[~basic]
        lo_set = slope > _VERTEX_TIE_TOL  # slack requires const + slope*S >= 0
        hi_set = slope < -_VERTEX_TIE_TOL
        vlo = np.max(-const[lo_set] / slope[lo_set], initial=-np.inf)
        vup = np.min(-const[hi_set] / slope[hi_set], initial=np.inf)
        vup = min(vup, ctx.lf_cv)  # condition on first-stage acceptance
        # every non-basic slack is positive, so vlo < eta_j <= vup
        conditional.append((j, math.sqrt(sig2), vlo, vup))
    if conditional:
        at, sig, vlo, vup = np.array(conditional).T
        at = at.astype(int)
        alpha_mod = (alpha - ctx.kappa) / (1.0 - ctx.kappa)
        q = _truncnorm_quantile(1.0 - alpha_mod, vlo / sig, vup / sig)
        reject[live[at]] = eta[at] > np.maximum(0.0, sig * q)
    return reject


def _first_stage_level(alpha, kappa):
    """The first-stage level ``kappa``, alpha / 10 by default.  Levels
    outside 0 < kappa < alpha < 1 are refused: with kappa >= alpha the second
    stage could never reject."""
    if kappa is None:
        kappa = alpha / 10.0
    if not 0.0 < kappa < alpha < 1.0:
        raise InvalidLevel("need 0 < kappa < alpha < 1")
    return kappa


def _check_draws(draws):
    """Refuse a least-favorable stage of fewer than one Monte Carlo draw."""
    if draws < 1:
        raise InvalidDraws(f"need at least 1 Monte Carlo draw, got {draws}")


def _test_point(ctx, theta0, alpha):
    """Hybrid rejection decision for one candidate value."""
    return bool(_decisions(ctx, [theta0], alpha)[0])


def hybrid_test(
    coeffs: CoefficientSet,
    member: Polyhedron,
    target: TargetFunctional,
    theta0: float,
    alpha: float = 0.05,
    kappa: float = None,
    draws: int = _DEFAULT_DRAWS,
    seed: int = 0,
    nuisance_override=None,
) -> bool:
    """Reject H0: theta = theta0 under one member's restrictions.

    Returns True when the hybrid test rejects.  ``kappa`` defaults to
    alpha / 10; ``draws`` sizes the least-favorable Monte Carlo stage.
    """
    kappa = _first_stage_level(alpha, kappa)
    _check_draws(draws)
    moments = _build_moments(coeffs, member, target, nuisance_override)
    ctx = _prepare_context(moments, kappa, draws, seed)
    return _test_point(ctx, theta0, alpha)


# ---------------------------------------------------------------------------
# confidence sets by grid inversion
# ---------------------------------------------------------------------------


def default_grid(
    coeffs: CoefficientSet,
    family: RestrictionFamily,
    target: TargetFunctional,
    pad_ses: float = 10.0,
    n: int = 201,
) -> GridSpec:
    """Plug-in bounds padded by ``pad_ses`` standard errors of the estimate."""
    return _padded_grid(
        coeffs, plugin_identified_set(coeffs, family, target), target, pad_ses, n
    )


def _padded_grid(coeffs, plug, target, pad_ses=10.0, n=201) -> GridSpec:
    """``default_grid`` around an already solved plug-in set ``plug``."""
    l_vec = target.weights[coeffs.positions]
    se = math.sqrt(max(float(l_vec @ coeffs.vcov @ l_vec), 0.0))
    pad = pad_ses * se if se > 0 else max(1.0, abs(plug.hi - plug.lo))
    return GridSpec(lo=plug.lo - pad, hi=plug.hi + pad, n=n)


def confidence_set(
    coeffs: CoefficientSet,
    family: RestrictionFamily,
    target: TargetFunctional,
    alpha: float = 0.05,
    grid: GridSpec = None,
    kappa: float = None,
    draws: int = _DEFAULT_DRAWS,
    seed: int = 0,
) -> IntervalSet:
    """Invert the hybrid test over a grid, unioning acceptance over members.

    A candidate value enters the confidence set as soon as one member's test
    accepts it; members are visited in family order so results do not depend
    on scheduling.  An empty set is a legal outcome.

    Work shared by the family is done once per call: the target's nuisance
    basis, and one dual-ray enumeration per distinct nuisance system X (the
    rm members differ only in their benchmark columns, so they mostly share
    one).  Members are formed one at a time, and only the family's distinct
    ones: at parameter 0 the family is one polyhedron, tested once.
    """
    _check_alignment(coeffs, family)
    kappa = _first_stage_level(alpha, kappa)
    _check_draws(draws)
    if grid is None:
        grid = default_grid(coeffs, family, target)
    points = grid.points()
    accepted = np.zeros(len(points), dtype=bool)
    basis = _target_basis(coeffs, target)
    shared_rays = {}
    for i in family.distinct:
        todo = np.flatnonzero(~accepted)
        if len(todo) == 0:
            break
        moments = _member_moments(coeffs, family.member(i), *basis)
        ctx = _prepare_context(moments, kappa, draws, seed, shared_rays)
        accepted[todo] = ~_decisions(ctx, points[todo], alpha)
    if accepted[0] or accepted[-1]:
        warnings.warn(
            "confidence set touches the grid boundary; widen the grid", stacklevel=2
        )
    if not accepted.any():
        warnings.warn("confidence set is empty on the supplied grid", stacklevel=2)
    # runs of accepted points: starts at even, one-past-ends at odd edges
    edges = np.flatnonzero(np.diff(np.concatenate([[0], accepted, [0]])))
    intervals = [(points[a], points[b - 1]) for a, b in edges.reshape(-1, 2)]
    return IntervalSet(
        intervals=tuple(intervals), provenance="confidence", alpha=alpha, grid=grid
    )


# ---------------------------------------------------------------------------
# corrected points and by-period sets
# ---------------------------------------------------------------------------


def _corrected_weights(
    cells: CellIndex, positions, family_kind: str, bias_map: BiasMap, target
):
    """Weight vector c with corrected point = c' betahat.

    At sensitivity zero the post-treatment block-bias path is a linear
    function of the pre-treatment coefficients: constant at the last pre
    value for relative-magnitude families, the straight line through the
    last two pre values for second differences.  The implied overall bias is
    that path mapped through W, and the corrected point subtracts it from
    the target, so the whole correction is one fixed linear map.  It is also
    the centre of every plug-in set (``_plugin_box``).
    """
    if family_kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {family_kind!r}")
    _require_full_coverage(cells, positions)
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


def corrected_point(
    coeffs: CoefficientSet,
    family_kind: str,
    bias_map: BiasMap,
    target: TargetFunctional,
) -> float:
    """Debiased point estimate at sensitivity zero (the plug-in point)."""
    c_vec = _corrected_weights(
        coeffs.cells, coeffs.positions, family_kind, bias_map, target
    )
    return float(c_vec @ coeffs.values)


@dataclass(frozen=True)
class ByPeriodResult:
    rel_period: int
    confidence: IntervalSet
    corrected: float
    corrected_se: float


def by_period_sets(
    coeffs: CoefficientSet,
    family: RestrictionFamily,
    bias_map: BiasMap,
    layout: CohortLayout,
    alpha: float = 0.05,
    grid: GridSpec = None,
    kappa: float = None,
    draws: int = _DEFAULT_DRAWS,
    seed: int = 0,
) -> dict:
    """Confidence set and zero-sensitivity corrected point per post period."""
    cells = coeffs.cells
    rels = np.unique(cells.rel[coeffs.positions[cells.post[coeffs.positions]]])
    out = {}
    for s in rels.tolist():
        target = by_period_target(layout, cells, s)
        cset = confidence_set(
            coeffs, family, target, alpha=alpha, grid=grid, kappa=kappa,
            draws=draws, seed=seed,
        )
        c_vec = _corrected_weights(
            cells, coeffs.positions, family.family, bias_map, target
        )
        out[s] = ByPeriodResult(
            rel_period=s, confidence=cset, corrected=float(c_vec @ coeffs.values),
            corrected_se=_linear_se(c_vec, coeffs.vcov),
        )
    return out


def _linear_se(c_vec, vcov):
    """Standard error of c' betahat; nan without a covariance."""
    if vcov is None:
        return math.nan
    return math.sqrt(max(float(c_vec @ vcov @ c_vec), 0.0))


# ---------------------------------------------------------------------------
# aggregated framework
# ---------------------------------------------------------------------------


def aggregated_system(agg: AggregatedSeries):
    """Recast an aggregated series as a one-cohort system with identity map.

    The aggregated bias path plays the role of a single pseudo-cohort whose
    adoption time makes the relative periods line up; restrictions built on
    the returned layout and cells then apply directly to the aggregated
    coefficients, with no cross-cohort adjustment.
    """
    from .biasmap import build_w_csnyt, build_w_imputation, invert

    smin = int(agg.rel_periods.min())
    smax = int(agg.rel_periods.max())
    t_pseudo = 2 - smin
    T_pseudo = t_pseudo + smax - 1
    layout = CohortLayout(
        times=(t_pseudo,),
        sizes=(1,),
        never_size=1,
        cohort_units=(np.array([0]),),
        never_units=np.array([1]),
        n_periods=T_pseudo,
    )
    cells = build_cell_index(layout, T_pseudo, agg.estimator)
    expected = [
        s
        for s in range(smin, smax + 1)
        if not (agg.estimator == "csnyt" and s == 0)
    ]
    if list(agg.rel_periods) != expected:
        raise InferenceError(
            "aggregated series does not cover a contiguous relative-period range"
        )
    coeffs = CoefficientSet(
        estimator=agg.estimator,
        cells=cells,
        positions=cells.value_positions,
        values=agg.values,
        vcov=agg.vcov,
        aggregated=True,
    )
    builder = build_w_imputation if agg.estimator == "imputation" else build_w_csnyt
    bias_map = invert(builder(layout, cells))
    return layout, cells, coeffs, bias_map


def aggregated_att_target(agg: AggregatedSeries, cells: CellIndex) -> TargetFunctional:
    """Weights over aggregated post periods proportional to the treated
    units identified at each period, matching the cohort-level functional."""
    post = agg.rel_periods >= 1
    w = np.zeros(len(cells))
    # the pseudo-cohort is cohort 0; relative period s falls in t_0 + s - 1
    w[cells.locate(0, cells.times[0] + agg.rel_periods[post] - 1)] = (
        agg.support_sizes[post]
    )
    return TargetFunctional(weights=w / w.sum(), description="att", cells=cells)


def aggregated_confidence_set(
    agg: AggregatedSeries,
    family: RestrictionFamily,
    target: TargetFunctional,
    alpha: float = 0.05,
    grid: GridSpec = None,
    kappa: float = None,
    draws: int = _DEFAULT_DRAWS,
    seed: int = 0,
) -> IntervalSet:
    """Confidence set for a target on the aggregated bias path."""
    _, _, coeffs, bias_map = aggregated_system(agg)
    if family.space == "block":
        family = map_to_delta_space(family, bias_map)
    return confidence_set(
        coeffs, family, target, alpha=alpha, grid=grid, kappa=kappa,
        draws=draws, seed=seed,
    )
