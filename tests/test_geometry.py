import numpy as np
import pytest

from avcqc.geometry import compositions, kernel_grid, pattern_search, simplex_grid


def recursive_compositions(k, total):
    """Reference: the recursive enumerator, first part varying slowest."""
    if k == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in recursive_compositions(k - 1, total - first)
    ]


class TestCompositions:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_recursive_reference(self, k):
        for total in range(12):
            assert compositions(k, total).tolist() == [
                list(c) for c in recursive_compositions(k, total)
            ]

    def test_grids_are_built_on_compositions(self):
        rows = simplex_grid(3, 4)
        assert np.array_equal(rows * 4, compositions(3, 4))
        grid = kernel_grid(2, 3, 4)
        assert grid.shape == (len(rows) ** 2, 2, 3)
        assert np.allclose(grid.sum(axis=-1), 1.0)


class TestPatternSearch:
    TARGETS = (
        [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]],
        [[0.123, 0.456, 0.421], [0.7, 0.05, 0.25]],
        [[0.0, 0.3, 0.7], [1 / 3, 1 / 3, 1 / 3]],   # maximiser on the boundary
    )

    @staticmethod
    def _concave(target):
        return lambda x: -((x - target) ** 2).sum(axis=(1, 2))

    @pytest.mark.parametrize("target", TARGETS)
    def test_reaches_maximiser_within_floor(self, target):
        target = np.array(target)
        floor = 1e-4
        val, x = pattern_search(self._concave(target), np.full((2, 3), 1 / 3), 0.25, floor)
        assert np.abs(x - target).max() <= floor
        assert np.allclose(x.sum(axis=1), 1.0) and x.min() >= 0.0
        assert val == pytest.approx(float(self._concave(target)(x[None])[0]), abs=0.0)

    def test_returns_start_when_no_move_gains(self):
        target = np.array(self.TARGETS[0])
        x0 = target.copy()
        val, x = pattern_search(self._concave(target), x0, 0.25, 1e-6)
        assert np.array_equal(x, x0)
        assert val == 0.0

    def test_single_entry_rows_admit_no_move(self):
        x0 = np.ones((2, 1))
        val, x = pattern_search(lambda x: x.sum(axis=(1, 2)), x0, 0.25, 1e-6)
        assert np.array_equal(x, x0)
        assert val == 2.0
