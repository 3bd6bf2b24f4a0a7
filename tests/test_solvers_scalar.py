"""Tests for scalar solver utilities: bisection, grid, line search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solvers.bisection import bisect_decreasing, bisect_root
from repro.solvers.grid import best_feasible_index, grid_min
from repro.solvers.line_search import backtracking_armijo


class TestBisectRoot:
    def test_finds_sqrt2(self):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_exact_endpoint(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change_rejected(self):
        with pytest.raises(SolverError, match="sign change"):
            bisect_root(lambda x: x * x + 1, -1, 1)

    def test_inverted_interval_rejected(self):
        with pytest.raises(SolverError):
            bisect_root(lambda x: x, 1.0, 0.0)

    @settings(max_examples=30)
    @given(root=st.floats(-100, 100))
    def test_property_linear_roots(self, root):
        found = bisect_root(lambda x: x - root, -1e3, 1e3)
        assert found == pytest.approx(root, abs=1e-6)


class TestBisectDecreasing:
    def test_solves_decreasing(self):
        # f(x) = 100/x, target 4 -> x = 25.
        x = bisect_decreasing(lambda x: 100.0 / x, 4.0, 1e-6, 1.0)
        assert x == pytest.approx(25.0, rel=1e-6)

    def test_expands_bracket(self):
        x = bisect_decreasing(lambda x: 1e6 / x, 1.0, 1e-9, 1.0)
        assert x == pytest.approx(1e6, rel=1e-6)


class TestGrid:
    def test_best_feasible(self):
        obj = np.asarray([3.0, 1.0, 2.0])
        feas = np.asarray([True, False, True])
        assert best_feasible_index(obj, feas) == 2

    def test_all_infeasible(self):
        assert best_feasible_index(np.asarray([1.0]), np.asarray([False])) is None

    def test_tie_breaks_to_first(self):
        obj = np.asarray([2.0, 1.0, 1.0])
        feas = np.ones(3, dtype=bool)
        assert best_feasible_index(obj, feas) == 1

    def test_grid_min(self):
        out = grid_min(
            lambda x: (x - 5) ** 2,
            np.arange(10, dtype=float),
            feasible=lambda x: x >= 3,
        )
        assert out == (5.0, 0.0)

    def test_grid_min_none(self):
        assert (
            grid_min(lambda x: x, np.asarray([1.0]), feasible=lambda x: x > 5)
            is None
        )

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            best_feasible_index(np.zeros(2), np.zeros(3, dtype=bool))


class TestArmijo:
    def test_accepts_descent(self):
        f = lambda x: float(x @ x)
        x = np.asarray([1.0, 1.0])
        g = 2 * x
        alpha = backtracking_armijo(f, x, -g, f(x), float(g @ -g))
        assert f(x - alpha * g) < f(x)

    def test_rejects_ascent_direction(self):
        f = lambda x: float(x @ x)
        x = np.asarray([1.0])
        with pytest.raises(SolverError, match="descent"):
            backtracking_armijo(f, x, np.asarray([1.0]), f(x), 2.0)

    def test_backtracks_through_infinite_region(self):
        # Barrier-like: +inf for x <= 0.5; start at 1, direction -1.
        f = lambda x: float(1.0 / (x[0] - 0.5)) if x[0] > 0.5 else float("inf")
        x = np.asarray([1.0])
        fx = f(x)
        slope = -4.0  # d/dx of 1/(x-.5) at 1 is -4
        alpha = backtracking_armijo(f, x, np.asarray([-1.0]), fx, slope)
        assert x[0] - alpha > 0.5
