"""Unit + reference tests for the from-scratch Hungarian solver."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_lsa

from repro.hungarian import hungarian, linear_sum_assignment


class TestBasics:
    def test_identity_matrix(self):
        cost = np.eye(3)
        rows, cols = hungarian(1.0 - cost)  # maximize the diagonal
        assert rows.tolist() == [0, 1, 2]
        assert cols.tolist() == [0, 1, 2]

    def test_simple_2x2(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        rows, cols = hungarian(cost)
        assert cost[rows, cols].sum() == pytest.approx(2.0)

    def test_rectangular_wide(self):
        cost = np.array([[10.0, 1.0, 10.0]])
        rows, cols = hungarian(cost)
        assert rows.tolist() == [0]
        assert cols.tolist() == [1]

    def test_rectangular_tall(self):
        cost = np.array([[10.0], [1.0], [5.0]])
        rows, cols = hungarian(cost)
        assert rows.tolist() == [1]
        assert cols.tolist() == [0]

    def test_empty(self):
        rows, cols = hungarian(np.zeros((0, 5)))
        assert rows.shape == (0,) and cols.shape == (0,)

    def test_non_2d_raises(self):
        with pytest.raises(ValueError, match="2-D"):
            hungarian(np.zeros(4))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_rows_sorted_and_unique(self):
        rng = np.random.default_rng(0)
        cost = rng.normal(size=(6, 9))
        rows, cols = hungarian(cost)
        assert rows.tolist() == sorted(rows.tolist())
        assert len(set(rows.tolist())) == len(rows)
        assert len(set(cols.tolist())) == len(cols)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_square_random(self, seed):
        rng = np.random.default_rng(seed)
        cost = rng.normal(size=(7, 7))
        r1, c1 = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        assert cost[r1, c1].sum() == pytest.approx(cost[r2, c2].sum())

    @pytest.mark.parametrize("shape", [(3, 8), (8, 3), (1, 5), (5, 1), (2, 2)])
    def test_rectangular_random(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        cost = rng.normal(size=shape) * 10
        r1, c1 = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        assert len(r1) == min(shape)
        assert cost[r1, c1].sum() == pytest.approx(cost[r2, c2].sum())

    def test_maximize_flag(self):
        rng = np.random.default_rng(42)
        cost = rng.random((5, 5))
        r1, c1 = linear_sum_assignment(cost, maximize=True)
        r2, c2 = scipy_lsa(cost, maximize=True)
        assert cost[r1, c1].sum() == pytest.approx(cost[r2, c2].sum())

    def test_integer_costs(self):
        cost = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]], dtype=float)
        r1, c1 = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        assert cost[r1, c1].sum() == pytest.approx(cost[r2, c2].sum())

    def test_ties_still_optimal(self):
        cost = np.ones((4, 4))
        rows, cols = hungarian(cost)
        assert cost[rows, cols].sum() == pytest.approx(4.0)


def plain_hungarian(cost):
    """The plain e-maxx shortest-augmenting-path loop: every row runs the
    full search from the virtual column.  Oracle for the solver's exact
    pairs, ties included."""
    cost = np.asarray(cost, dtype=np.float64)
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    n, m = cost.shape
    a = np.zeros((n + 1, m + 1))
    a[1:, 1:] = cost
    u, v = np.zeros(n + 1), np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cur = a[i0, 1:] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:] = np.where(better, cur, minv[1:])
            way[1:] = np.where(better, j0, way[1:])
            candidates = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(candidates)) + 1
            delta = candidates[j1 - 1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    rows = p[1:] - 1
    cols = np.arange(m)
    rows, cols = rows[rows >= 0], cols[rows >= 0]
    if transposed:
        rows, cols = cols, rows
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order]


class TestAgainstPlainSolver:
    """Exact pairs, not just the optimal cost: on tied matrices the
    tie-breaking decides which track keeps which detection."""

    @staticmethod
    def _resumes(cost):
        """Whether some row after the first finds its cheapest column
        already taken, so the solver carries a search past its first step."""
        small = cost if cost.shape[0] <= cost.shape[1] else cost.T
        cols = np.argmin(small, axis=1)
        first = np.zeros(len(cols), dtype=bool)
        first[np.unique(cols, return_index=True)[1]] = True
        return not first.all() and bool(first[0])

    @pytest.mark.parametrize("levels", [2, 4, 50])
    def test_small_integer_costs_with_ties(self, levels):
        rng = np.random.default_rng(levels)
        resumed = 0
        for _ in range(1000):
            n, m = (int(x) for x in rng.integers(1, 9, size=2))
            cost = rng.integers(0, levels, size=(n, m)).astype(np.float64)
            r1, c1 = hungarian(cost)
            r2, c2 = plain_hungarian(cost)
            np.testing.assert_array_equal(r1, r2)
            np.testing.assert_array_equal(c1, c2)
            resumed += self._resumes(cost)
        assert resumed > 200

    def test_duplicate_argmin_after_settled_rows(self):
        """Rows ``0..k-1`` own distinct cheapest columns and row ``k``
        repeats one of them, so the settle-then-resume path always runs."""
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(n, 10))
            k = int(rng.integers(1, n))
            cost = rng.integers(2, 5, size=(n, m)).astype(np.float64)
            taken = rng.permutation(m)[:k]
            cost[np.arange(k), taken] = 0.0
            cost[k, taken[int(rng.integers(0, k))]] = 0.0
            assert self._resumes(cost)
            for matrix in (cost, cost.T.copy()):
                r1, c1 = hungarian(matrix)
                r2, c2 = plain_hungarian(matrix)
                np.testing.assert_array_equal(r1, r2)
                np.testing.assert_array_equal(c1, c2)

    def test_negative_iou_costs(self):
        """The tracker's cost shape: negated IoUs, mostly exact zeros."""
        rng = np.random.default_rng(11)
        for _ in range(500):
            n, m = (int(x) for x in rng.integers(1, 12, size=2))
            cost = -np.where(rng.random((n, m)) < 0.7, 0.0, rng.random((n, m)))
            r1, c1 = hungarian(cost)
            r2, c2 = plain_hungarian(cost)
            np.testing.assert_array_equal(r1, r2)
            np.testing.assert_array_equal(c1, c2)


class TestFastPaths:
    """Rows settled on their row minima without a search, and searches
    resumed from their first step, must be invisible: same output as the
    plain augmenting-path solver."""

    def test_single_row_first_minimum(self):
        rows, cols = hungarian(np.array([[3.0, 1.0, 1.0, 2.0]]))
        assert rows.tolist() == [0]
        assert cols.tolist() == [1]  # first of the tied minima

    def test_single_column_first_minimum(self):
        rows, cols = hungarian(np.array([[3.0], [1.0], [1.0]]))
        assert rows.tolist() == [1]
        assert cols.tolist() == [0]

    @pytest.mark.parametrize("seed", range(8))
    def test_diagonal_dominant_matches_scipy(self, seed):
        """Strictly unique row minima at distinct columns -> the optimum is
        unique, so ours and SciPy's must agree element-for-element."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        cost = rng.uniform(1.0, 2.0, size=(n, n))
        perm = rng.permutation(n)
        cost[np.arange(n), perm] = rng.uniform(0.0, 0.5, size=n)
        r1, c1 = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)

    def test_near_dominant_falls_through_to_full_solver(self):
        """Duplicate argmin columns must NOT take the shortcut; the result
        still has to be optimal."""
        cost = np.array(
            [
                [0.1, 5.0, 5.0],
                [0.2, 5.0, 6.0],  # both rows want column 0
                [5.0, 0.3, 5.0],
            ]
        )
        rows, cols = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[r2, c2].sum())
        assert sorted(cols.tolist()) == [0, 1, 2]

    def test_tied_row_minimum_falls_through(self):
        """A row whose minimum appears twice is not strictly unique."""
        cost = np.array([[1.0, 1.0, 5.0], [5.0, 2.0, 5.0], [5.0, 5.0, 3.0]])
        rows, cols = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        assert cost[rows, cols].sum() == pytest.approx(cost[r2, c2].sum())

    @pytest.mark.parametrize("shape", [(3, 9), (9, 3)])
    def test_rectangular_dominant_matches_scipy(self, shape):
        rng = np.random.default_rng(99)
        n, m = shape
        k = min(n, m)
        cost = rng.uniform(1.0, 2.0, size=shape)
        if n <= m:
            cost[np.arange(k), rng.permutation(m)[:k]] = 0.01 * (1 + np.arange(k))
        else:
            cost[rng.permutation(n)[:k], np.arange(k)] = 0.01 * (1 + np.arange(k))
        r1, c1 = hungarian(cost)
        r2, c2 = scipy_lsa(cost)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
