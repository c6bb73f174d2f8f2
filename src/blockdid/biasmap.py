"""The invertible linear map between overall biases and block biases.

For every post-treatment cell the estimator's overall bias is its own block
bias plus size-weighted contributions from cohorts that adopted between the
cell's cohort and the cell's calendar time.  Stacking cells in canonical
order turns this into delta = W * Delta with W unit-diagonal and invertible:
block diagonal across calendar times for the imputation estimator, block
lower-triangular for the not-yet-treated estimator.  Pre-treatment rows are
identity rows (pre-treatment overall bias is defined to equal the block
bias).
"""

import copy
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .panel import CellIndex, CohortLayout

__all__ = ["BiasMap", "build_w_imputation", "build_w_csnyt", "invert", "write_biasmap_csv"]


@dataclass(frozen=True)
class BiasMap:
    """Square map W over the full cell index, with optional inverse."""

    estimator: str
    cells: CellIndex
    W: np.ndarray
    W_inverse: np.ndarray = None

    def __post_init__(self):
        if self.estimator != self.cells.estimator:
            raise ValueError(
                f"a {self.estimator} bias map over a {self.cells.estimator} cell index"
            )
        W = np.asarray(self.W, dtype=float)
        n = len(self.cells)
        if W.shape != (n, n):
            raise ValueError(f"W is {W.shape}, expected ({n}, {n})")
        if not np.all(np.diag(W) == 1.0):
            raise ValueError("W must be unit-diagonal")
        W = W.copy()
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    def det(self):
        """Determinant via the triangular-block structure (always 1)."""
        return float(np.prod(np.diag(self.W)))


def _build_w(layout: CohortLayout, cells: CellIndex, estimator: str) -> BiasMap:
    """The row of post cell (g, t) adds w_k at cell (k, t) for every
    adjustment cohort k, t_g < t_k <= t; the not-yet-treated map also
    subtracts w_k at (k, t_g - 1), cohort k's value at g's reference period."""
    times = np.array(layout.times)
    weights = np.array([layout.weight(k) for k in range(layout.n_cohorts)])
    post = np.flatnonzero(cells.post)
    t_g, t = cells.cohort_time[post], cells.cal[post]
    row, k = np.nonzero((t_g[:, None] < times) & (times <= t[:, None]))
    W = np.eye(len(cells))
    W[post[row], cells.locate(k, t[row])] = weights[k]
    if estimator == "csnyt":
        W[post[row], cells.locate(k, t_g[row] - 1)] = -weights[k]
    return BiasMap(estimator=estimator, cells=cells, W=W)


def build_w_imputation(layout: CohortLayout, cells: CellIndex) -> BiasMap:
    """Rows for post cells add w_k on each adjustment cohort's same-time cell."""
    return _build_w(layout, cells, "imputation")


def build_w_csnyt(layout: CohortLayout, cells: CellIndex) -> BiasMap:
    """As the imputation map, plus a -w_k baseline correction per adjustment
    cohort at the row cohort's reference period."""
    return _build_w(layout, cells, "csnyt")


def invert(bias_map: BiasMap) -> BiasMap:
    """Populate the inverse with one unit-triangular solve.

    Cells sharing a calendar time form the diagonal blocks; each block is
    unit upper-triangular, and any off-diagonal blocks sit strictly below the
    diagonal.  Reversing the cell order within every block therefore makes W
    unit lower-triangular.
    """
    cells = bias_map.cells
    cal = cells.cal
    # reverses each run of equal calendar times; its own inverse
    perm = (
        np.searchsorted(cal, cal, "left")
        + np.searchsorted(cal, cal, "right")
        - 1
        - np.arange(len(cal))
    )
    ix = np.ix_(perm, perm)
    # gathered from W.T and transposed back: Fortran order, which LAPACK
    # takes without a copy
    lower = bias_map.W.T[ix].T
    if np.any(np.triu(lower, 1)):
        raise ValueError("W is not block-triangular over calendar times")
    inverse = solve_triangular(
        lower, np.eye(len(cal), order="F"), lower=True, unit_diagonal=True,
        overwrite_b=True,
    )
    del lower  # at most two n x n temporaries alive besides W
    W_inv = inverse[ix]
    del inverse
    W_inv.setflags(write=False)
    out = copy.copy(bias_map)  # shares the already-frozen W
    object.__setattr__(out, "W_inverse", W_inv)
    return out


def write_biasmap_csv(bias_map: BiasMap, stream, inverse=False):
    """Emit W (or its inverse) as labeled dense CSV."""
    M = bias_map.W_inverse if inverse else bias_map.W
    if M is None:
        raise ValueError("inverse not populated; call invert() first")
    labels = bias_map.cells.labels()
    stream.write("cell," + ",".join(labels) + "\n")
    # W and W^-1 are mostly zeros: only entries that are not +0.0 bit for
    # bit (so -0.0, nan and inf too) are formatted, the rest written as "0.0"
    written = (M != 0) | np.signbit(M)
    for lab, row, nonzero in zip(labels, M, written):
        cells = ["0.0"] * len(row)
        at = np.flatnonzero(nonzero)
        for j, value in zip(at.tolist(), row[at].tolist()):
            cells[j] = repr(value)
        stream.write(lab + "," + ",".join(cells) + "\n")
