"""Independent paths that tests compare the package against.

``decisions`` is the hybrid test's stage two as it ran one member and one
grid point at a time: for every point that stage one accepts, the basis of
its optimal dual vertex is inverted, its slack checked and its truncated
normal bounds taken on their own, with one quantile call per member.
``inference._block_decisions`` groups the same work by (member, vertex)
across a block of members.

``vcov_csv`` is the covariance CSV as the per-element loop wrote it;
``estimators.write_vcov_csv`` formats each mirrored pair once.

``bootstrap_draws`` is the stratified bootstrap as it ran one replicate and
one stratum at a time: ``resample_rows`` makes one ``integers`` call per
stratum and indexes the stratum's units with it.  ``vcov._bootstrap_draws``
draws each run of equal-size strata in one call and gathers a chunk of
replicates at once.
"""

import math

import numpy as np

from blockdid.estimators import _coefficient_operator, _strata_means, _stratum_units
from blockdid.inference import _VERTEX_TIE_TOL, _truncnorm_quantile
from blockdid.panel import build_cell_index, build_layout


def decisions(ctx, points, alpha):
    """Hybrid rejection decision of one context at every value in ``points``."""
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
