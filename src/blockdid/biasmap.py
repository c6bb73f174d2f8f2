"""The invertible linear map between overall biases and block biases.

For every post-treatment cell the estimator's overall bias is its own block
bias plus size-weighted contributions from cohorts that adopted between the
cell's cohort and the cell's calendar time.  Stacking cells in canonical
order turns this into delta = W * Delta with W unit-diagonal and invertible:
block diagonal across calendar times for the imputation estimator, block
lower-triangular for the not-yet-treated estimator, each diagonal block unit
upper-triangular.  Pre-treatment rows are identity rows (pre-treatment
overall bias is defined to equal the block bias).  :func:`invert` uses that
structure: it inverts the diagonal blocks together and forms the rest of
W^-1 by block forward substitution, in numpy alone.
"""

import copy
from dataclasses import dataclass

import numpy as np

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


def _unit_upper_inverse_stack(U):
    """Inverses of a stack of unit upper-triangular matrices, by one back
    substitution over their rows: row i is e_i less U[i, i+1:] times the
    rows below it, formed as 0.0 - s so that an all-zero s leaves +0.0, as
    a triangular solve does."""
    X = np.zeros_like(U)
    for i in reversed(range(U.shape[-1])):
        X[:, i, i] = 1.0
        X[:, i, i + 1 :] = 0.0 - (U[:, i, None, i + 1 :] @ X[:, i + 1 :, i + 1 :])[:, 0]
    return X


def invert(bias_map: BiasMap) -> BiasMap:
    """Populate the inverse by block forward substitution over calendar times.

    The cells of calendar time t form a G x G diagonal block W_tt, unit
    upper-triangular; any other entries sit in blocks W_ts with s < t, and an
    entry anywhere else is refused.  The T diagonal blocks are inverted
    together by one stacked back substitution.  With nothing below them (the
    imputation map) those inverses are W^-1's diagonal blocks.  Otherwise
    (the not-yet-treated map) block row t of X = W^-1 is
    W_tt^-1 (I_t - sum_{s<t} W_ts X_s), summed over the blocks W_ts that
    carry entries.  Beyond W and W^-1 only O(G n) work arrays are held.
    """
    cells = bias_map.cells
    W, cal = bias_map.W, cells.cal
    G, T = len(cells.times), cells.n_periods
    # the same entries as np.nonzero(W) (nan counts, -0.0 does not), found
    # faster in a bool array
    rows, cols = np.nonzero(W != 0)
    row_t, col_t = cal[rows] - 1, cal[cols] - 1  # 0-based calendar blocks
    if np.any((col_t > row_t) | ((col_t == row_t) & (cols < rows))):
        raise ValueError("W is not block-triangular over calendar times")
    blocks = np.arange(T)
    diagonal = _unit_upper_inverse_stack(W.reshape(T, G, T, G)[blocks, :, blocks, :])
    W_inv = np.zeros((G * T, G * T))
    W_inv.reshape(T, G, T, G)[blocks, :, blocks, :] = diagonal
    below = col_t < row_t
    # the blocks (t, s) below the diagonal that carry entries, t-major
    pairs = np.unique(row_t[below] * T + col_t[below])
    for t in np.unique(pairs // T).tolist():
        # row block t of X is zero from column t G on, and the rows of
        # earlier blocks are final; subtracting from +0.0 keeps zeros +0.0
        block = slice(t * G, (t + 1) * G)
        rhs = np.zeros((G, t * G))
        for s in (pairs[pairs // T == t] % T).tolist():
            end = (s + 1) * G
            rhs[:, :end] -= W[block, s * G : end] @ W_inv[s * G : end, :end]
        W_inv[block, : t * G] = diagonal[t] @ rhs
    W_inv.setflags(write=False)
    out = copy.copy(bias_map)  # shares the already-frozen W
    object.__setattr__(out, "W_inverse", W_inv)
    return out


def write_biasmap_csv(bias_map: BiasMap, stream, inverse=False):
    """Emit W (or its inverse) as labeled dense CSV.

    W and W^-1 are mostly zeros: only entries that are not +0.0 bit for bit
    (so -0.0, nan and inf too) are formatted, found by one ``np.nonzero``
    over the matrix; each run of zeros between them is a slice of one
    prebuilt row of ``",0.0"`` fields."""
    M = bias_map.W_inverse if inverse else bias_map.W
    if M is None:
        raise ValueError("inverse not populated; call invert() first")
    labels = bias_map.cells.labels()
    stream.write("cell," + ",".join(labels) + "\n")
    n = len(M)
    rows, cols = np.nonzero((M != 0) | np.signbit(M))
    text = list(map(repr, M[rows, cols].tolist()))
    cols, bounds = cols.tolist(), np.searchsorted(rows, np.arange(n + 1)).tolist()
    zeros = ",0.0" * n
    for lab, start, end in zip(labels, bounds, bounds[1:]):
        line, j = [lab], 0  # j: the first column not yet written
        for c, value in zip(cols[start:end], text[start:end]):
            line += (zeros[: 4 * (c - j)], ",", value)
            j = c + 1
        line.append(zeros[: 4 * (n - j)])
        stream.write("".join(line) + "\n")
