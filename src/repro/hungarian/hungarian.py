"""Hungarian algorithm (Kuhn–Munkres) for minimum-cost bipartite matching.

The tracker's object-association step (paper §4.1) solves an N-to-M
assignment over a negative-IoU cost matrix.  SciPy ships a solver, but the
paper's substrate is reimplemented here from scratch; the SciPy version is
used in tests as a reference oracle.

The implementation is the O(n^2 m) shortest-augmenting-path formulation with
dual potentials (the classic Jonker–Volgenant / "e-maxx" variant), operating
on rectangular matrices by transposing so rows are the smaller side.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def hungarian(cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the rectangular linear sum assignment problem (minimization).

    Parameters
    ----------
    cost : (N, M) array
        Finite cost matrix.  When ``N != M`` the smaller side is fully
        matched and the larger side partially.

    Returns
    -------
    row_indices, col_indices : int arrays
        Matched pairs ``(row_indices[k], col_indices[k])``, sorted by row.
        Length is ``min(N, M)``.

    Raises
    ------
    ValueError
        If the matrix contains NaN or +/-inf, or is not 2-D.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2-D, got {cost.ndim}-D")
    n, m = cost.shape
    if n == 0 or m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")

    transposed = n > m
    if transposed:
        cost = cost.T
        n, m = m, n

    # A row whose cheapest reduced-cost column is free takes it in the
    # search's first step, which changes only u[i] (and the never-read
    # v[0]).  Potentials stay zero until a row finds its column taken, so
    # the rows before it settle on their plain row minima at once.
    cols = np.argmin(cost, axis=1)
    first = np.zeros(n, dtype=bool)
    first[np.unique(cols, return_index=True)[1]] = True
    if first.all():
        return _finish(np.arange(n, dtype=np.int64), cols.astype(np.int64), transposed)
    k = int(np.argmin(first))

    # Pad to 1-indexed internal arrays; column 0 is the virtual start column.
    a = np.zeros((n + 1, m + 1))
    a[1:, 1:] = cost

    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j]: row matched to column j (0 = free)
    way = np.zeros(m + 1, dtype=np.int64)

    p[cols[:k] + 1] = np.arange(1, k + 1)
    u[1 : k + 1] += cost[np.arange(k), cols[:k]]
    v1, way1 = v[1:], way[1:]
    for i in range(k + 1, n + 1):
        # The search's first step from row i, while every column is free.
        cur = a[i, 1:] - u[i] - v1
        j0 = int(cur.argmin()) + 1
        delta = cur[j0 - 1]
        u[i] += delta
        if p[j0] == 0:
            p[j0] = i
            continue
        # That column is taken: carry the first step's state into the search.
        p[0] = i
        minv = np.concatenate(([np.inf], cur - delta))
        minv1 = minv[1:]
        used = np.zeros(m + 1, dtype=bool)
        used[0] = True
        way1[:] = 0
        while True:
            used[j0] = True
            i0 = p[j0]
            # Relax edges from row i0 to all unused columns (vectorized).
            unused = ~used
            free = unused[1:]
            cur = a[i0, 1:] - u[i0] - v1
            better = free & (cur < minv1)
            np.copyto(minv1, cur, where=better)
            way1[better] = j0
            candidates = np.where(free, minv1, np.inf)
            j1 = int(candidates.argmin()) + 1
            delta = candidates[j1 - 1]
            if not math.isfinite(delta):  # pragma: no cover - finite input guard
                raise RuntimeError("augmenting path search failed on finite input")
            # Update dual potentials.
            u[p[used]] += delta
            np.subtract(v, delta, out=v, where=used)
            np.subtract(minv, delta, out=minv, where=unused)
            j0 = j1
            if p[j0] == 0:
                break
        # Augment along the alternating path back to the virtual column.
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    rows = p[1:] - 1
    cols = np.arange(m)
    valid = rows >= 0
    return _finish(rows[valid].astype(np.int64), cols[valid].astype(np.int64), transposed)


def _finish(
    row_indices: np.ndarray, col_indices: np.ndarray, transposed: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Undo the transpose and sort matched pairs by row index."""
    if transposed:
        row_indices, col_indices = col_indices, row_indices
    order = np.argsort(row_indices, kind="stable")
    return row_indices[order], col_indices[order]


def linear_sum_assignment(cost: np.ndarray, maximize: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Drop-in equivalent of :func:`scipy.optimize.linear_sum_assignment`.

    Thin wrapper over :func:`hungarian` adding the ``maximize`` flag.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if maximize:
        cost = -cost
    return hungarian(cost)
