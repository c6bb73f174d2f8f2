"""Independent paths that tests compare the package against.

``decisions`` is the hybrid test's stage two as it ran one member and one
grid point at a time: for every point that stage one accepts, the basis of
its optimal dual vertex is inverted, its slack checked and its truncated
normal bounds taken on their own, with one quantile call per member.
``inference._block_decisions`` groups the same work by (member, vertex)
across a block of members.

``vcov_csv`` is the covariance CSV as the per-element loop wrote it;
``estimators.write_vcov_csv`` formats each mirrored pair once.
"""

import math

import numpy as np

from blockdid.inference import _VERTEX_TIE_TOL, _truncnorm_quantile


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
