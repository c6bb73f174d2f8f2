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
Stage one compares the studentized max moment, profiled over gamma, against
a seeded Monte Carlo least-favorable critical value at level kappa; stage
two is a conditional test at level (alpha-kappa)/(1-kappa) that conditions on
the basis of the optimal dual vertex (and on first-stage acceptance) via a
truncated normal.  Degenerate or tied optima fall back to the stage-one
decision, which never over-rejects.  The profiled statistic is the maximum
of vertices @ y over the vertices of its dual polytope, the one evaluator:
they come from a double-description enumeration of the extreme rays of
{lam >= 0 : X'lam = 0}, with X of full column rank.  When that cone is {0}
there is no vertex: the nuisance pushes every moment down without bound, the
statistic is -inf and every point is accepted.  A member whose enumeration
would exceed the working ray cap is refused (``VertexCapExceeded``).  The
rays depend on X alone, so a confidence set enumerates them once per
distinct nuisance system and scales them per member.  A family's members
are formed in blocks as they are tested; at parameter 0 the family is one
polyhedron and is tested once.  The Monte Carlo draws of a member are its
own Gaussian root applied to shared seeded normals Z, so its statistic per
draw is the max of (vertices root) Z'; the members of a block stack those
products and take their critical values from one chunked product and one
quantile call.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as scilinalg
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
    "VertexCapExceeded",
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

_VERTEX_TIE_TOL = 1e-9
# working rays of the vertex enumeration; a member that needs more is
# refused with VertexCapExceeded (about 2,000 post cells on built families)
_VERTEX_ENUM_CAP = 2_000
_DEFAULT_DRAWS = 10_000
# distinct members whose Monte Carlo stages are prepared together
_MEMBER_BLOCK = 16
# values of one chunk of the stacked Monte Carlo product, which bounds its
# transient memory (256 KiB)
_MC_CHUNK_VALUES = 1 << 15


class InferenceError(RuntimeError):
    code = "INFERENCE_ERROR"


class AllMembersInfeasible(InferenceError):
    code = "ALL_MEMBERS_INFEASIBLE"


class SingularVcov(InferenceError):
    code = "SINGULAR_VCOV"


class VertexCapExceeded(InferenceError):
    code = "VERTEX_CAP_EXCEEDED"


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


def _build_moments(coeffs, member, target):
    return _member_moments(coeffs, member, *_target_basis(coeffs, target))


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
    # dropping rows can lose X's column rank, which the vertex enumeration
    # needs; a deterministic row's loadings are zero, so moving it cannot
    X = _column_space(X[keep]) if drop_mask.any() else X[keep]
    beta_scale = 1.0 + float(np.max(np.abs(coeffs.values), initial=0.0))
    return _MomentSystem(
        a0=a0[keep],
        a1=a1[keep],
        X=X,
        sigma=sigma[np.ix_(keep, keep)],
        sd=sd[keep],
        det_a0=a0[det_mask],
        det_a1=a1[det_mask],
        det_tol=1e-8 * (1.0 + row_norm[det_mask] * beta_scale),
    )


def _dual_vertices(sd, X, shared_rays=None):
    """Vertices of {lam >= 0 : sd'lam = 1, X'lam = 0}, one per row.

    The profiled max-moment statistic equals the maximum of lam'y over this
    polytope, so enumerating its vertices turns every evaluation into a
    matrix product.  The vertices are the extreme rays of the pointed cone
    {lam >= 0 : X'lam = 0} (``_cone_rays``) scaled to sd'lam = 1; with sd > 0
    every ray has sd'lam > 0.  No rows when the cone is {0}, as it is
    whenever sd lies in the span of X: the statistic is then -inf.  The rays
    depend on X alone: ``shared_rays``, a dict keyed by X's shape and bytes,
    lets every moment system with the same X reuse one enumeration.
    """
    if shared_rays is None:
        rays = _cone_rays(X)
    else:
        key = (X.shape, X.tobytes())
        if key not in shared_rays:
            shared_rays[key] = _cone_rays(X)
        rays = shared_rays[key]
    return rays / (rays @ sd)[:, None]


def _cone_rays(X):
    """Extreme rays of {lam >= 0 : X'lam = 0} for X of full column rank k,
    one per row at unit max-norm; no rows when the cone is {0}.  Raises
    ``VertexCapExceeded`` when the working ray count would exceed
    ``_VERTEX_ENUM_CAP``.

    The double description method (Fukuda & Prodon 1996): the cone of
    r = m - k independent sign constraints on the null space of X' is
    simplicial, and the remaining constraints are added one at a time,
    keeping the rays that satisfy each one and joining every adjacent pair
    it separates.  Two rays are adjacent when no third ray's zero set
    contains their common zero set, which holds at degenerate vertices too.
    """
    m, k = X.shape
    r = m - k
    if r == 0:  # X is square and invertible
        return np.empty((0, m))
    _check_ray_count(r, X)
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
        _check_ray_count(len(rays) - len(neg) + len(pp), X)
        new = v[pp, None] * rays[nn] - v[nn, None] * rays[pp]
        new[:, i] = 0.0
        new /= np.abs(new).max(axis=1, keepdims=True)
        rays = np.vstack([np.delete(rays, neg, axis=0), new])
        if len(rays) == 0:
            break
        done[i] = True
    return rays


def _check_ray_count(count, X):
    if count > _VERTEX_ENUM_CAP:
        raise VertexCapExceeded(
            f"the dual vertex enumeration of a {X.shape[0]}-moment system "
            f"needs more than {_VERTEX_ENUM_CAP} working rays"
        )


@dataclass
class _HybridContext:
    """Per-(member, target) state shared across the whole grid."""

    moments: _MomentSystem
    vertices: np.ndarray  # (vertices, moments); no rows when the cone is {0}
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


def _prepare_contexts(moments_list, kappa, draws, seed, shared_rays=None):
    """Contexts of several moment systems, with their least-favorable
    critical values: the 1 - kappa quantile over the seeded draws Z of the
    max moment eta*(root Z'), each system on its own Gaussian root.

    eta* is the max over the vertices of vertices @ root @ Z', computed as
    P @ Z' with P = vertices @ root.  The systems with the same moment and
    vertex counts share Z, so their P are stacked vertex-major (row j*n + i
    is system i's vertex j) and multiplied by Z' in chunks of at most
    ``_MC_CHUNK_VALUES`` values; each chunk's (vertices, n, draws) maximum
    over its first axis gives every system's eta* at once, and one quantile
    call gives every critical value.  A system without vertices has eta* =
    -inf at every draw, and so a critical value of -inf.
    """
    contexts = []
    stacks = {}  # (vertex count, moment count) -> [(context index, P)]
    for i, moments in enumerate(moments_list):
        verts = _dual_vertices(moments.sd, moments.X, shared_rays)
        if len(verts):
            root = _gaussian_root(moments.sigma)
            stacks.setdefault(verts.shape, []).append((i, verts @ root))
        contexts.append(
            _HybridContext(moments=moments, vertices=verts, lf_cv=-math.inf, kappa=kappa)
        )
    for (_, dim), stack in stacks.items():
        at, products = zip(*stack)
        eta = _stacked_maxima(
            np.stack(products, axis=1).reshape(-1, dim),
            len(at),
            _standard_normals(seed, draws, dim),
        )
        cvs = np.quantile(eta, 1.0 - kappa, axis=1, overwrite_input=True)
        for i, cv in zip(at, cvs.tolist()):
            contexts[i].lf_cv = cv
    return contexts


def _stacked_maxima(stacked, n, z):
    """(n, draws) maxima over each system's rows of ``stacked @ z.T``, where
    row j*n + i of ``stacked`` is system i's j-th row."""
    out = np.empty((n, len(z)))
    step = max(1, _MC_CHUNK_VALUES // len(stacked))
    for s in range(0, len(z), step):
        # one statement, so that no two chunks are held at once
        out[:, s:s + step] = (
            (stacked @ z[s:s + step].T).reshape(len(stacked) // n, n, -1).max(axis=0)
        )
    return out


def _prepare_context(moments, kappa, draws, seed, shared_rays=None):
    """One moment system's context (``_prepare_contexts`` of one)."""
    return _prepare_contexts([moments], kappa, draws, seed, shared_rays)[0]


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
    if len(ctx.vertices) == 0:  # eta* is -inf at every point
        return reject
    live = np.flatnonzero(~reject)
    Y = mom.a0[:, None] - np.outer(mom.a1, points[live])
    vals = ctx.vertices @ Y
    eta, lam = vals.max(axis=0), ctx.vertices[vals.argmax(axis=0)]
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
) -> bool:
    """Reject H0: theta = theta0 under one member's restrictions.

    Returns True when the hybrid test rejects.  ``kappa`` defaults to
    alpha / 10; ``draws`` sizes the least-favorable Monte Carlo stage.
    """
    kappa = _first_stage_level(alpha, kappa)
    _check_draws(draws)
    moments = _build_moments(coeffs, member, target)
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
    one).  Only the family's distinct members are tested: at parameter 0
    the family is one polyhedron, tested once.  They are formed and their
    Monte Carlo stages prepared ``_MEMBER_BLOCK`` at a time
    (``_member_contexts``), and no block is formed once every point is
    accepted.
    """
    _check_alignment(coeffs, family)
    kappa = _first_stage_level(alpha, kappa)
    _check_draws(draws)
    if grid is None:
        grid = default_grid(coeffs, family, target)
    points = grid.points()
    accepted = np.zeros(len(points), dtype=bool)
    todo = np.arange(len(points))
    for ctx in _member_contexts(coeffs, family, target, kappa, draws, seed):
        accepted[todo] = ~_decisions(ctx, points[todo], alpha)
        todo = np.flatnonzero(~accepted)
        if len(todo) == 0:
            break
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


def _member_contexts(coeffs, family, target, kappa, draws, seed):
    """Contexts of the family's distinct members in family order, prepared
    ``_MEMBER_BLOCK`` at a time as the caller consumes them.

    A block that cannot be prepared whole (a member with no usable moment
    row, say) is prepared member by member instead, so that a member's
    error surfaces only when that member is reached, as when every member
    was prepared alone.
    """
    basis = _target_basis(coeffs, target)
    shared_rays = {}

    def moments(i):
        return _member_moments(coeffs, family.member(i), *basis)

    members = family.distinct
    for start in range(0, len(members), _MEMBER_BLOCK):
        block = members[start:start + _MEMBER_BLOCK]
        try:
            contexts = _prepare_contexts(
                [moments(i) for i in block], kappa, draws, seed, shared_rays
            )
        except (InferenceError, np.linalg.LinAlgError):
            contexts = (
                _prepare_context(moments(i), kappa, draws, seed, shared_rays)
                for i in block
            )
        yield from contexts


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
