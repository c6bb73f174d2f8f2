"""Plug-in identified sets and uniformly valid confidence sets.

Targets are linear functionals of the post-treatment effects.  The plug-in
identified set pins the pre-treatment coefficients at their estimates.  As
W's pre rows are the identity, every member is then a box on the family's
post difference rows, so one triangular solve on those rows gives the
corrected point and a radius (``_plugin_box``); no LP is solved.

Confidence sets invert a two-stage hybrid moment-inequality test over a grid
of candidate values.  Writing the post effects as theta0 * lbar + X gamma
(l'lbar = 1, X a basis of the null space of l'), the member constraints are
moment inequalities linear in the nuisance gamma.  Stage one compares the
studentized max moment, profiled over gamma, with a seeded Monte Carlo
least-favorable critical value at level kappa; stage two is a truncated
normal test at level (alpha-kappa)/(1-kappa) that conditions on first-stage
acceptance and on the optimal dual vertex staying the argmax.  The profiled
statistic is the max of vertices @ y over the vertices of its dual polytope:
the extreme rays of {lam >= 0 : X'lam = 0}, by double description and shared
by the members with one X (none when that cone is {0}: the statistic is then
-inf; past a ray cap the member is refused).  A family's members are formed
``_MEMBER_BLOCK`` at a time and fall into blocks (``_Block``), one per shared
nuisance system: on a built family, one block per chunk.  The block is the
unit of work and stays stacked from its moments to its decisions: one
stage-one pass, one stacked ``eigh``, one Monte Carlo pass over norm-ordered
draws that screens the members and computes the critical values of those it
keeps, and one stage-two pass with one truncated normal quantile call.  Each
critical value is read from the upper tail of its draws (``_row_quantiles``):
only the values not below a threshold set on a strided sample are partitioned.

``scipy.linalg`` and ``scipy.special`` are imported inside the functions that
call them, so that importing the package, and every command that runs no set
inference, loads no scipy module.
"""

import functools
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .biasmap import BiasMap
from .estimators import AggregatedSeries, CoefficientSet, _check_pre_zero_sum
from .panel import CellIndex, CohortLayout, build_cell_index
from .restrictions import Polyhedron, RestrictionFamily, _post_cells, path_rows
from .vcov import _check_seed

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
    "aggregated_system",
    "aggregated_att_target",
]

_VERTEX_TIE_TOL = 1e-9
# working rays of the vertex enumeration; a member that needs more is
# refused with VertexCapExceeded (about 2,000 post cells on built families)
_VERTEX_ENUM_CAP = 2_000
_DEFAULT_DRAWS = 10_000
# distinct members formed together, a chunk that falls into one block per
# shared nuisance system
_MEMBER_BLOCK = 16
# values of one chunk of the stacked Monte Carlo product, which bounds its
# transient memory (256 KiB)
_MC_CHUNK_VALUES = 1 << 15
# every _QUANTILE_STRIDE-th draw is the sample that sets a row's tail threshold
_QUANTILE_STRIDE = 16
# the rounding margin of the c a member is screened against, relative to 1 + |c|
_SCREEN_MARGIN = 1e-9
# values of one stacked stage-one statistic, or of one chunk of stage two's
# vertex products (8 MiB)
_STACK_VALUES = 1 << 20
# the default grid: the plug-in set padded by this many standard errors of
# the target estimate, at this many points
_GRID_PAD_SES = 10.0
_GRID_POINTS = 201


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


def _reduced_rows(A, d, A_eq, d_eq, cells: CellIndex, positions):
    """Stacked member rows A (n, rows, cells) and bounds d (n, rows) in the
    coefficient coordinate system, each equality row as two inequalities."""
    for blk in (A, A_eq):
        if blk is not None and np.abs(blk[..., cells.structural]).max(initial=0.0) > 1e-12:
            raise InferenceError("structural-zero columns must carry zero coefficients")
    A = A[..., positions]
    if A_eq is not None:
        eq = np.broadcast_to(A_eq[:, positions], (len(A), len(A_eq), A.shape[-1]))
        d_eq = np.broadcast_to(d_eq, (len(A), len(d_eq)))
        A = np.concatenate([A, eq, -eq], axis=1)
        d = np.concatenate([d, d_eq, -d_eq], axis=1)
    return A, d


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

    A unit change in cohort g's bounded difference at post cell j moves the
    target by U_gj (``_pinned_path``), so with each difference in [-b_g,
    b_g], r = sum_g b_g sum_j |U_gj|.  b_g is ``parameter`` for sd; for rm
    it is ``parameter`` times the largest absolute pinned benchmark
    difference in cohort g's column of the benchmark table: the member of
    the union that contains all the others.
    """
    cells, positions, values = coeffs.cells, coeffs.positions, coeffs.values
    centre, U = _pinned_path(cells, positions, family.family, family.bias_map, target)
    if family.family == "sd":
        bench = np.ones(len(cells.times))
    else:
        block = np.zeros(len(cells))  # pinned pre block biases, 0 if structural
        block[positions] = values
        k, s_star, _ = family.benchmarks.T  # each (G, members)
        cal = np.asarray(cells.times)[k] + s_star - 1
        diffs = block[cells.locate(k, cal)] - block[cells.locate(k, cal - 1)]
        bench = np.abs(diffs).max(axis=1)
    cohort = cells.cohort[_post_cells(cells)]
    spread = np.bincount(cohort, np.abs(U), minlength=len(cells.times))
    return centre, family.parameter * float(bench @ spread)


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
class _Block:
    """Moments A_v (betahat - L theta0 - X gamma) - d <= 0, studentized, of
    n members that share one nuisance system, stacked.

    Member i's ``a0[i]`` is its moment value at theta0 = 0, ``a1[i]`` the
    loading on theta0, ``sigma[i]`` the Gaussian covariance of the moment
    vector and ``sd[i]`` its root diagonal; ``X`` is the loading on the
    nuisance.  Rows whose variance sits below the covariance matrix's
    rounding floor are deterministic, the same rows for every member: those
    not involving the nuisance move to ``det_*`` and are checked exactly, the
    rest drop (conservatively).  ``vertices[i]`` are member i's dual vertices.
    """

    a0: np.ndarray  # (n, m)
    a1: np.ndarray  # (n, m)
    sd: np.ndarray  # (n, m)
    sigma: np.ndarray  # (n, m, m)
    X: np.ndarray  # (m, k)
    vertices: np.ndarray  # (n, vertices, m); no vertices when the cone is {0}
    det_a0: np.ndarray  # (n, j)
    det_a1: np.ndarray  # (n, j)
    det_tol: np.ndarray  # (n, j)


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


def _block_moments(coeffs, A, d, basis, memo):
    """Blocks of stacked member rows A (n, m, coefficients) and bounds d
    (n, m), from ``_reduced_rows``, one per distinct pair of A[:, post] and
    zero-variance-row mask, in order of first appearance.  a0, a1, sigma =
    A V A' and sd come from stacked operations.  ``memo``, keyed by that
    pair, holds what the pair fixes (``_nuisance_system``) for every block of
    a set.  Member i's dual vertices, those of {lam >= 0 : sd_i'lam = 1,
    X'lam = 0}, are the shared rays scaled to sd_i'lam = 1, one member at a
    time so that each rounds as it would alone."""
    post, lbar, X_post = basis
    A_post = A[:, :, post]
    a0, a1 = A @ coeffs.values - d, A_post @ lbar
    sigma = A @ coeffs.vcov @ A.transpose(0, 2, 1)
    sd = np.sqrt(np.clip(np.diagonal(sigma, axis1=1, axis2=2), 0.0, None))
    # a row's estimated variance is meaningless below the rounding floor of
    # row' Sigma row, which scales with the row norm and the largest
    # coefficient variance
    diag_scale = math.sqrt(float(np.max(np.diag(coeffs.vcov), initial=0.0)))
    row_norm = np.linalg.norm(A, axis=2)
    tiny = sd <= 1e-6 * row_norm * max(diag_scale, 1e-12)
    beta_scale = 1.0 + float(np.max(np.abs(coeffs.values), initial=0.0))
    members = {}  # key -> member indices
    for i, (rows, t) in enumerate(zip(A_post, tiny)):
        key = (rows.shape, rows.tobytes(), t.tobytes())
        if key not in memo:
            memo[key] = _nuisance_system(rows @ X_post, t)
        members.setdefault(key, []).append(i)
    blocks = []
    for key, at in members.items():
        det, keep, X, rays = memo[key]
        sd_k = sd[np.ix_(at, keep)]
        blocks.append(_Block(
            a0[np.ix_(at, keep)], a1[np.ix_(at, keep)], sd_k,
            sigma[np.ix_(at, keep, keep)], X,
            np.stack([rays / (rays @ s)[:, None] for s in sd_k]),
            a0[np.ix_(at, det)], a1[np.ix_(at, det)],
            1e-8 * (1.0 + row_norm[np.ix_(at, det)] * beta_scale),
        ))
    return blocks


def _nuisance_system(loadings, tiny):
    """Deterministic rows, kept rows, nuisance basis X and dual cone rays of
    the members with nuisance loadings A[:, post] X_post and zero-variance
    rows ``tiny``.  Zero-variance rows not involving the nuisance are
    deterministic; the rest drop, which can lose the column rank that the
    vertex enumeration needs, so X is then the span of the kept rows'."""
    X = _column_space(loadings)
    det, keep = tiny & (np.abs(X).max(axis=1, initial=0.0) <= 1e-12), ~tiny
    if not keep.any():
        raise SingularVcov("every moment row has zero variance")
    X = _column_space(X[keep]) if (tiny & ~det).any() else X[keep]
    return det, keep, X, _cone_rays(X)


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
    from scipy import linalg as scilinalg

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


def _gaussian_root(sigma):
    """Roots R with R R' = sigma of one covariance matrix or a stack of
    them, from one (stacked) eigendecomposition."""
    vals, vecs = np.linalg.eigh((sigma + np.swapaxes(sigma, -1, -2)) / 2.0)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


@functools.lru_cache(maxsize=4)
def _standard_normals(seed, draws, dim):
    """The Monte Carlo stage's (draws, dim) seeded standard normals, drawn
    once for all the members of a set that have ``dim`` moments, stably
    sorted by descending norm, and those norms negated; both read-only.  A
    critical value is an order statistic of its draws, which their order
    does not change."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(1,))
    z = np.random.default_rng(seq).standard_normal((draws, dim))
    neg = -np.sqrt(np.einsum("ij,ij->i", z, z))  # no squared copy of z
    order = np.argsort(neg, kind="stable")
    rng, step = np.random.default_rng(seq), max(1, _MC_CHUNK_VALUES // dim)
    for at in np.split(np.argsort(order), range(step, draws, step)):  # the stream again
        z[at] = rng.standard_normal((len(at), dim))
    neg = neg[order]
    for a in (z, neg):
        a.setflags(write=False)
    return z, neg


def _critical_values(block, kappa, draws, seed, c=-np.inf):
    """Least-favorable critical values of a block's members, the 1 - kappa
    quantiles over seeded normals Z of the max over vertices of P Z',
    P = vertices @ root (roots from one stacked ``eigh``), or -inf where they
    lie below the member's least stage-one statistic ``c``.

    A critical value is at most its draws' order statistic hi
    (``_quantile_ranks``), so it lies below c, less a rounding margin, if
    fewer than need = draws - hi draws reach c.  As P_j z <= max_j |P_j| |z|,
    only the draws down to a norm of c / max_j |P_j|, the first ones of
    ``_standard_normals``, can.  A member with fewer of them than need gets
    no product.  The others' P, stacked vertex-major (row j*n + i is member
    i's vertex j), multiply the draws in that order, ``_MC_CHUNK_VALUES``
    values a chunk.  From need draws on, each time they have doubled and a
    member could leave, one leaves once its draws that reached c and its
    reachable draws ahead fall short of need.  The quantiles of the members
    left are read from the upper tails of their maxima (``_row_quantiles``),
    as ``np.quantile`` gives them."""
    n, nv, m = block.vertices.shape
    out = np.full(n, -np.inf)
    if nv == 0:
        return out
    products = block.vertices @ _gaussian_root(block.sigma)
    z, neg = _standard_normals(seed, draws, m)
    need = draws - _quantile_ranks(draws, 1.0 - kappa)[2]
    # c - margin (1 + |c|), far above the rounding of P z (|P_j| <= 1) and of
    # the quantile; an infinite c stays
    c = np.broadcast_to(c * (1.0 - _SCREEN_MARGIN * np.sign(c)) - _SCREEN_MARGIN, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = c / np.linalg.norm(products, axis=2).max(axis=1)
    reach = np.searchsorted(neg, -bound, side="right")  # |z| >= bound; nan: all
    live = np.flatnonzero(reach >= need)
    maxima, misses, done = np.empty((len(live), draws)), np.zeros(len(live), int), 0
    rows = products[live].transpose(1, 0, 2).reshape(-1, m)
    while len(live) and done < draws:
        # count once the draws have doubled and a member could leave: its
        # reachable draws ahead fall short of need
        stop = min(max(need, 2 * done, reach[live].min() - need + 1), draws)
        k, s, step = len(live), done, max(1, _MC_CHUNK_VALUES // len(rows))
        while s < stop:
            # one statement, so that no two chunks are held at once
            maxima[:k, s:s + step] = (rows @ z[s:s + step].T).reshape(nv, k, -1).max(0)
            s = min(s + step, draws)
        misses += (maxima[:k, done:s] < c[live, None]).sum(axis=1)  # NaN reaches c
        done = s
        stay = np.flatnonzero(np.maximum(reach[live], done) - misses >= need)
        if len(stay) < k:  # rows move up, so only live rows are touched
            maxima[:len(stay), :done] = maxima[stay, :done]
            live, misses = live[stay], misses[stay]
            rows = products[live].transpose(1, 0, 2).reshape(-1, m)
    if len(live):
        out[live] = _row_quantiles(maxima[:len(live)], 1.0 - kappa)
    return out


def _row_quantiles(eta, q):
    """``np.quantile(eta, q, axis=1)`` (the linear method) bit for bit, from
    each row's upper tail.  Numpy's ranks lo and lo + 1 of (n - 1) q, with
    its clamps, lie among the row's n - lo largest values.  A fixed order
    statistic of every ``_QUANTILE_STRIDE``-th draw is a threshold; only the
    values not below it are partitioned, or the whole row when they are
    fewer than n - lo.  A row with a NaN gives NaN, as in numpy."""
    n = eta.shape[1]
    gamma, lo, hi = _quantile_ranks(n, q)
    sample = eta[:, ::_QUANTILE_STRIDE]
    # on average stride * (m - k) >= 2 (n - lo) + 128 values are not below
    # the k-th value of the m sampled draws
    k = sample.shape[1] - 2 * -(-(n - lo) // _QUANTILE_STRIDE) - 8
    t = np.partition(sample, k, axis=1)[:, k] if k > 0 else np.full(len(eta), -np.inf)
    a, b, last = np.empty((3, len(eta)))
    for i, row in enumerate(eta):
        top = row[~(row < t[i])]  # NaN is kept, so the row's last value shows it
        if len(top) < n - lo:
            top = row
        at = len(top) - n
        part = np.partition(top, (lo + at, hi + at, -1))
        a[i], b[i], last[i] = part[lo + at], part[hi + at], part[-1]
    diff = b - a  # numpy's _lerp
    out = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    np.copyto(out, last, where=np.isnan(last))
    return out


def _quantile_ranks(n, q):
    """Weight gamma and ranks lo <= hi of numpy's linear quantile q of n values."""
    v = (n - 1) * q  # numpy's virtual index, for 0 <= q <= 1
    lo = math.floor(v)
    lo, hi = (-1, -1) if v >= n - 1 else (lo, lo + 1)  # numpy's clamp past the end
    return v - lo, lo % n, hi % n


def _truncnorm_quantile(p, lo, hi):
    """Quantiles of standard normals truncated to [lo[i], hi[i]].

    From ``scipy.special`` alone, by scipy 1.17's own algorithms for
    ``norm.ppf`` and ``truncnorm.ppf`` (``_truncnorm_ppf``), bit for bit.  An
    empty interval gives ``lo``, a far-tail one with no finite quantile its
    finite bound.
    """
    from scipy import special as scispecial

    lo, hi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi)))
    free = np.isinf(lo) & np.isinf(hi) & (lo < hi)
    cut = ~(lo >= hi) & ~free
    out = np.where(free, scispecial.ndtri(p) * 1.0 + 0.0, lo)
    if cut.any():
        out[cut] = _truncnorm_ppf(p, lo[cut], hi[cut])
    bad = cut & ~np.isfinite(out)
    out[bad] = np.where(np.isfinite(hi[bad]), hi[bad], lo[bad])
    return out


def _truncnorm_ppf(q, a, b):
    """scipy's ``truncnorm.ppf(q, a, b)`` by scipy 1.17's log-space
    algorithm, operation for operation: nan unless a < b, a at q == 0, b at
    q == 1, else ``ndtri_exp`` of the log cdf, from a's side when a < 0."""
    from scipy import special as scispecial

    q, a, b = np.broadcast_arrays(np.asarray(q, dtype=float), a, b)
    out = np.full(q.shape, np.nan)
    ok = a < b
    for edge, bound in ((q == 0, a), (q == 1, b)):
        out[ok & edge] = bound[ok & edge] * 1.0 + 0.0
    ok &= (0 < q) & (q < 1)
    q, a, b = q[ok], a[ok], b[ok]
    x, left = np.empty_like(q), a < 0
    sides = ((left, 1.0, np.log(q), scispecial.log_ndtr(a)),
             (~left, -1.0, np.log1p(-q), scispecial.log_ndtr(-b)))
    for at, sign, log_q, log_tail in sides:
        if at.any():
            log_mass = log_q[at] + _log_gauss_mass(a[at], b[at])
            log_cdf = scispecial.logsumexp([log_tail[at], log_mass], axis=0)
            x[at] = sign * scispecial.ndtri_exp(log_cdf)
    out[ok] = x * 1.0 + 0.0
    return out


def _log_gauss_mass(a, b):
    """Log standard normal mass of [a, b] as scipy's ``truncnorm`` has it:
    ``log_ndtr`` differences (-e^x = e^(x + pi i)) in the tails, else log1p."""
    from scipy import special as scispecial

    out = np.full_like(a, np.nan, dtype=np.complex128)
    left, right = b <= 0, a > 0
    for at, upper, lower in ((left, b, a), (right, -a, -b)):
        if at.any():
            log_cdf = scispecial.log_ndtr(upper[at]), scispecial.log_ndtr(lower[at])
            out[at] = scispecial.logsumexp([log_cdf[0], log_cdf[1] + np.pi * 1j], axis=0)
    mid = ~(left | right)
    if mid.any():
        out[mid] = scispecial.log1p(-scispecial.ndtr(a[mid]) - scispecial.ndtr(-b[mid]))
    return np.real(out)


def _block_decisions(block, points, alpha, kappa, draws, seed):
    """(members, points) hybrid rejection decisions of a block, from one
    stage-one pass; one truncated normal quantile call serves them.

    Stage one forms eta* = max_v v'y at every point, stacked in chunks of
    ``_STACK_VALUES`` values, and keeps its optimal vertex.  Each member's
    least eta* at the points its deterministic rows leave is the c that
    screens its least-favorable critical value (``_critical_values``), and
    stage one rejects when eta* exceeds that value.  Stage two (``_stage_two``)
    conditions on the optimal dual vertex lam staying the argmax: every
    other vertex v keeps v'y <= lam'y, which is linear in the statistic
    along y(S) = z + c S and so cuts out [vlo, vup].  A degenerate optimum
    (support not of size 1+k) or a tied one (another vertex within rounding
    of eta*) keeps the stage-one acceptance, which never over-rejects.
    """
    points = np.asarray(points, dtype=float)
    reject = _deterministic_rejections(block, points)
    n, nv = block.vertices.shape[:2]
    if nv == 0:  # eta* is -inf at every point
        return reject
    eta, best = np.empty(reject.shape), np.empty(reject.shape, dtype=int)
    step = max(1, _STACK_VALUES // (nv * max(len(points), 1)))
    for s in range(0, n, step):
        at = slice(s, s + step)
        y = block.a0[at, :, None] - block.a1[at, :, None] * points
        vals = block.vertices[at] @ y
        eta[at], best[at] = vals.max(axis=1), vals.argmax(axis=1)
    del y, vals  # the last chunk is not held through the Monte Carlo
    c = np.where(reject, np.inf, eta).min(axis=1, initial=np.inf)
    lf = _critical_values(block, kappa, draws, seed, c)[:, None]
    g, p = np.nonzero(~reject & (eta <= lf))
    reject |= eta > lf
    i, p, eta, sig, vlo, vup = _stage_two(block, points, g, p, eta, best, lf, reject)
    if len(i):
        alpha_mod = (alpha - kappa) / (1.0 - kappa)
        q = _truncnorm_quantile(1.0 - alpha_mod, vlo / sig, vup / sig)
        reject[i, p] = eta > np.maximum(0.0, sig * q)
    return reject


def _deterministic_rejections(block, points):
    """(members, points) rejections by the deterministic rows."""
    det = block.det_a0[:, :, None] - block.det_a1[:, :, None] * points
    return (det > block.det_tol[:, :, None]).any(axis=1)


def _stage_two(block, points, g, p, eta, best, lf, reject):
    """Stage two, up to its quantile, of the (member ``g``, point ``p``)
    pairs that stage one accepts, given the block's (members, points) eta*,
    optimal vertices ``best`` and critical values ``lf``; rejections are
    added to ``reject``.  With lam the optimal vertex, sigma^2 = lam'Sigma lam
    and c = Sigma lam / sigma^2, y(S) = z + c S has lam'y(S) = S, and lam
    stays optimal while v'z <= S (1 - v'c) for every vertex v: a lower bound
    on S where 1 - v'c > 0, an upper one where it is < 0.  v'c comes from one
    product per member with its distinct optima, and v'y = v'a0 - theta0 v'a1
    from V a0 and V a1; the pairs go ``_STACK_VALUES`` values at a time.
    Returns the (member, point, eta, sigma, vlo, vup) of the points left to
    the quantile."""
    if len(g) == 0:
        return (g, p, *np.empty((4, 0)))
    V, lam, e = block.vertices, best[g, p], eta[g, p]
    optimal = np.zeros(V.shape[:2], dtype=bool)
    optimal[g, lam] = True
    # lam'Sigma V' of each member's distinct optima lam, a row per (member,
    # optimum) in order; ``row`` is each pair's
    vsl = np.concatenate(
        [V[j, on] @ block.sigma[j] @ V[j].T for j, on in enumerate(optimal) if on.any()]
    )
    rank = np.zeros(optimal.shape, dtype=int)
    rank[optimal] = np.arange(np.count_nonzero(optimal))  # row-major, as vsl
    row = rank[g, lam]
    sig2, (vlo, vup) = vsl[row, lam], np.empty((2, len(g)))
    # the acceptance stands at a degenerate (support not 1+k) or tied optimum
    stands = ((V > _VERTEX_TIE_TOL).sum(axis=2) != block.X.shape[1] + 1)[g, lam]
    flat = sig2 <= 1e-24
    va0, va1 = (np.matmul(V, a[:, :, None])[:, :, 0] for a in (block.a0, block.a1))
    step = max(1, _STACK_VALUES // V.shape[1])
    for s in range(0, len(g), step):
        q = slice(s, s + step)
        vy = va0[g[q]] - va1[g[q]] * points[p[q], None]
        other = np.arange(V.shape[1]) != lam[q, None]
        floor = e[q] - _VERTEX_TIE_TOL * (1.0 + np.abs(e[q]))  # eta* less rounding
        stands[q] |= (other & (vy >= floor[:, None])).any(axis=1)
        vc = vsl[row[q]] / np.where(flat[q], 1.0, sig2[q])[:, None]
        gap = 1.0 - vc  # v'z <= S gap, where v'z = v'y - v'c eta
        lo_set, hi_set = gap > _VERTEX_TIE_TOL, gap < -_VERTEX_TIE_TOL
        ratio = (vy - vc * e[q, None]) / np.where(lo_set | hi_set, gap, 1.0)
        vlo[q] = np.where(lo_set, ratio, -np.inf).max(axis=1)
        vup[q] = np.where(hi_set, ratio, np.inf).min(axis=1)
    sure = ~stands & flat
    reject[g[sure], p[sure]] = e[sure] > 0
    g, p, e, sig2, vlo, vup = (v[~stands & ~flat] for v in (g, p, e, sig2, vlo, vup))
    # capping vup at the critical value conditions on first-stage acceptance
    return g, p, e, np.sqrt(sig2), vlo, np.minimum(vup, lf[g, 0])


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
    """Refuse, before any work, a draw count that is not an integer >= 1."""
    if isinstance(draws, bool) or not isinstance(draws, numbers.Integral) or draws < 1:
        raise InvalidDraws(f"draws must be an integer of at least 1; got {draws!r}")


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
    alpha / 10; ``draws`` sizes the least-favorable Monte Carlo stage.  A
    non-finite ``theta0`` is refused with ``InvalidGrid``.
    """
    if not math.isfinite(theta0):
        raise InvalidGrid(f"theta0 must be finite, got {theta0}")
    kappa = _first_stage_level(alpha, kappa)
    _check_draws(draws)
    _check_seed(seed)
    rows = (member.A[None], member.d[None], member.A_eq, member.d_eq)
    A, d = _reduced_rows(*rows, coeffs.cells, coeffs.positions)
    (block,) = _block_moments(coeffs, A, d, _target_basis(coeffs, target), {})
    return bool(_block_decisions(block, [theta0], alpha, kappa, draws, seed)[0, 0])


# ---------------------------------------------------------------------------
# confidence sets by grid inversion
# ---------------------------------------------------------------------------


def default_grid(
    coeffs: CoefficientSet, family: RestrictionFamily, target: TargetFunctional
) -> GridSpec:
    """Plug-in bounds padded by ``_GRID_PAD_SES`` standard errors of the
    estimate, at ``_GRID_POINTS`` points."""
    return _padded_grid(coeffs, plugin_identified_set(coeffs, family, target), target)


def _padded_grid(coeffs, plug, target) -> GridSpec:
    """``default_grid`` around an already solved plug-in set ``plug``."""
    l_vec = target.weights[coeffs.positions]
    se = math.sqrt(max(float(l_vec @ coeffs.vcov @ l_vec), 0.0))
    pad = _GRID_PAD_SES * se if se > 0 else max(1.0, abs(plug.hi - plug.lo))
    return GridSpec(lo=plug.lo - pad, hi=plug.hi + pad, n=_GRID_POINTS)


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

    A value enters the set as soon as one member accepts it, so the set does
    not depend on the order of visits; an empty set is a legal outcome.  The
    family's distinct members (one at parameter 0) are formed
    ``_MEMBER_BLOCK`` at a time, and no block is formed once every point is
    accepted.  Each block is decided on the points still open, where a member
    whose critical value is sure to lie below its stage-one statistic at all
    of them (``_critical_values``) rejects them at stage one with few or no draws.
    """
    _check_alignment(coeffs, family)
    kappa = _first_stage_level(alpha, kappa)
    _check_draws(draws)
    _check_seed(seed)
    if grid is None:
        grid = default_grid(coeffs, family, target)
    points = grid.points()
    accepted = np.zeros(len(points), dtype=bool)
    todo = np.arange(len(points))
    for block in _member_blocks(coeffs, family, target):
        reject = _block_decisions(block, points[todo], alpha, kappa, draws, seed)
        accepted[todo] = ~reject.all(axis=0)
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


def _member_blocks(coeffs, family, target):
    """Blocks of the family's distinct members, formed ``_MEMBER_BLOCK``
    members at a time in family order, as consumed.  A chunk that cannot be
    prepared whole is prepared member by member, so that a member's error
    surfaces only when that member is reached."""
    basis = _target_basis(coeffs, target)
    memo = {}

    def prepare(chunk):
        rows = _reduced_rows(*family.member_rows(chunk), coeffs.cells, coeffs.positions)
        return _block_moments(coeffs, *rows, basis, memo)

    members = family.distinct
    for start in range(0, len(members), _MEMBER_BLOCK):
        chunk = members[start:start + _MEMBER_BLOCK]
        try:
            blocks = prepare(chunk)
        except (InferenceError, np.linalg.LinAlgError):
            blocks = (block for i in chunk for block in prepare([i]))
        yield from blocks


# ---------------------------------------------------------------------------
# corrected points
# ---------------------------------------------------------------------------


def _pinned_path(cells: CellIndex, positions, family_kind, bias_map, target):
    """Centre weights c (corrected point = c' betahat) and the target's
    loadings U on the bounded differences delta = R Delta, pre pinned.

    R (``path_rows``) restricted to the post cells is unit lower-triangular,
    so with u = W[post]'l[post] one solve U = R_post^-T u_post gives
    theta = l'betahat - (u - R'U)'Delta_pre - U'delta: c is l less u - R'U
    on the pre cells.
    """
    from scipy import linalg as scilinalg

    R = path_rows(cells, family_kind)
    _require_full_coverage(cells, positions)
    post = _post_cells(cells)
    u = bias_map.W[cells.post].T @ target.weights[cells.post]
    U = scilinalg.solve_triangular(
        R[:, post], u[post], trans="T", lower=True, unit_diagonal=True
    )
    centre = target.weights - np.where(cells.pre, u - R.T @ U, 0.0)
    return centre[positions], U


def _corrected_weights(
    cells: CellIndex, positions, family_kind: str, bias_map: BiasMap, target
):
    """Weight vector c with corrected point = c' betahat: the target less the
    overall bias of the block path with no bounded difference (constant
    after the last pre value for rm, the line through the last two for sd).
    It is one fixed map (``_pinned_path``) and centres every plug-in set."""
    return _pinned_path(cells, positions, family_kind, bias_map, target)[0]


def corrected_point(
    coeffs: CoefficientSet, family_kind: str, bias_map: BiasMap, target: TargetFunctional
) -> float:
    """Debiased point estimate at sensitivity zero (the plug-in point)."""
    cells, positions = coeffs.cells, coeffs.positions
    c_vec = _corrected_weights(cells, positions, family_kind, bias_map, target)
    return float(c_vec @ coeffs.values)


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

