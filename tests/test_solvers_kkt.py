"""Tests for the waterfilling solver and box+budget projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.solvers.kkt import (
    project_box_budget,
    waterfill_box_budget,
    waterfill_chain,
)
from repro.solvers.result import SolverStatus


class TestWaterfill:
    def test_budget_slack_goes_to_caps(self):
        r = waterfill_box_budget(
            t=np.asarray([1.0, 1.0]),
            b=np.asarray([1.0, 1.0]),
            lo=np.asarray([1.0, 1.0]),
            hi=np.asarray([5.0, 5.0]),
            budget=100.0,
        )
        assert r.ok
        assert r.x.tolist() == [5.0, 5.0]
        assert r.extra["lam"] == 0.0

    def test_symmetric_binding_budget(self):
        r = waterfill_box_budget(
            t=np.asarray([1.0, 1.0]),
            b=np.asarray([1.0, 1.0]),
            lo=np.asarray([0.1, 0.1]),
            hi=np.asarray([np.inf, np.inf]),
            budget=10.0,
        )
        assert r.ok
        assert r.x == pytest.approx(np.asarray([5.0, 5.0]))
        assert np.dot(r.x, [1, 1]) == pytest.approx(10.0)

    def test_asymmetric_waterfill_sqrt_rule(self):
        # Interior optimum: x_i proportional to sqrt(t_i/b_i).
        t = np.asarray([4.0, 1.0])
        b = np.asarray([1.0, 1.0])
        r = waterfill_box_budget(
            t, b, np.full(2, 1e-6), np.full(2, np.inf), budget=30.0
        )
        assert r.ok
        assert r.x[0] / r.x[1] == pytest.approx(2.0, rel=1e-6)

    def test_infeasible_budget(self):
        r = waterfill_box_budget(
            t=np.ones(2),
            b=np.ones(2),
            lo=np.asarray([5.0, 6.0]),
            hi=np.full(2, np.inf),
            budget=10.0,
        )
        assert r.status is SolverStatus.INFEASIBLE

    def test_zero_cost_variable_pinned_low(self):
        r = waterfill_box_budget(
            t=np.asarray([1.0, 0.0]),
            b=np.asarray([1.0, 1.0]),
            lo=np.asarray([0.5, 0.5]),
            hi=np.asarray([np.inf, 10.0]),
            budget=8.0,
        )
        assert r.ok
        assert r.x[1] == pytest.approx(0.5)  # frees budget for the costly var
        assert r.x[0] == pytest.approx(7.5)

    def test_validates_shapes_and_signs(self):
        with pytest.raises(SolverError):
            waterfill_box_budget(np.ones(2), np.ones(3), np.ones(2), np.ones(2), 1.0)
        with pytest.raises(SolverError):
            waterfill_box_budget(
                np.ones(2), np.zeros(2), np.ones(2), np.full(2, 2.0), 10.0
            )
        with pytest.raises(SolverError):
            waterfill_box_budget(
                np.ones(2), np.ones(2), np.zeros(2), np.full(2, 2.0), 10.0
            )

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.lists(st.floats(0.1, 100), min_size=2, max_size=6),
        b=st.lists(st.floats(0.1, 10), min_size=2, max_size=6),
        budget_factor=st.floats(1.05, 10.0),
    )
    def test_property_matches_slsqp(self, t, b, budget_factor):
        """Waterfilling agrees with scipy SLSQP on random instances."""
        n = min(len(t), len(b))
        t = np.asarray(t[:n])
        b = np.asarray(b[:n])
        lo = np.full(n, 0.5)
        hi = np.full(n, 1e6)
        budget = float(np.dot(b, lo)) * budget_factor
        r = waterfill_box_budget(t, b, lo, hi, budget)
        assert r.ok

        from scipy.optimize import minimize

        res = minimize(
            lambda x: float(np.sum(t / x)),
            r.x * 1.01,
            jac=lambda x: -t / x**2,
            bounds=[(lo[i], hi[i]) for i in range(n)],
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda x: budget - float(np.dot(b, x)),
                }
            ],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-12},
        )
        if res.success:
            assert r.objective <= float(res.fun) * (1 + 1e-6)


def _minimal_periods(t, g):
    x = np.empty(len(t))
    x[-1] = t[-1]
    for i in range(len(t) - 1, 0, -1):
        x[i - 1] = max(t[i - 1], g[i - 1] * x[i])
    return x


class TestWaterfillChain:
    def test_single_node_budget_binds(self):
        r = waterfill_chain([2.0], [1.0], [2.0], head_cap=100.0, budget=50.0)
        assert r.ok
        assert r.x.tolist() == [25.0]
        assert r.extra["lam"] > 0

    def test_budget_slack_puts_the_chain_at_the_cap(self):
        t, g, b = [1.0, 2.0, 1.0], [2.0, 0.5, 1.0], [1.0, 1.0, 1.0]
        r = waterfill_chain(t, g, b, head_cap=10.0, budget=1e6)
        assert r.ok
        assert r.extra["lam"] == 0.0
        # y = G x is at the cap everywhere: x_0 = H, x_1 = H/g_0, ...
        np.testing.assert_allclose(r.x, [10.0, 5.0, 10.0])
        assert r.extra["chain_binds"]

    def test_slack_chain_matches_box_budget_relaxation(self):
        t, b = np.asarray([4.0, 1.0, 2.0]), np.asarray([1.0, 2.0, 1.0])
        g = np.asarray([0.1, 0.1, 1.0])  # strong filtering: chain rows slack
        chain = waterfill_chain(t, g, b, head_cap=1e9, budget=100.0)
        hi = np.asarray([1e9, np.inf, np.inf])
        box = waterfill_box_budget(t, b, t, hi, 100.0)
        assert not chain.extra["chain_binds"]
        np.testing.assert_allclose(chain.x, box.x, rtol=1e-10)

    def test_binding_chain_pools_and_spends_the_budget(self):
        t, g, b = [1.0, 8.0], [1.0, 1.0], [1.0, 1.0]
        r = waterfill_chain(t, g, b, head_cap=1e9, budget=20.0)
        # Unchained optimum would put x_1 > x_0; the row g x_1 <= x_0 pools
        # both at one common period.
        assert r.extra["chain_binds"]
        assert r.x[0] == pytest.approx(r.x[1], rel=1e-12)
        assert float(np.dot(b, r.x)) == pytest.approx(20.0, rel=1e-12)

    def test_zero_gain_splits_the_chain(self):
        t, g, b = [1.0, 1.0], [0.0, 1.0], [1.0, 1.0]
        r = waterfill_chain(t, g, b, head_cap=2.0, budget=10.0)
        # Node 0 is capped; node 1 is unconstrained by it and takes the rest.
        np.testing.assert_allclose(r.x, [2.0, 8.0], rtol=1e-12)

    def test_pinched_deadline_returns_minimal_periods(self):
        t, g, b = [3.0, 2.0, 5.0], [2.0, 1.5, 1.0], [1.0, 2.0, 3.0]
        x_min = _minimal_periods(t, g)
        r = waterfill_chain(t, g, b, head_cap=1e3, budget=float(np.dot(b, x_min)))
        assert r.ok
        assert r.x.tolist() == x_min.tolist()

    def test_deadline_barely_above_minimum_terminates(self):
        t, g, b = [3.0, 2.0, 5.0], [2.0, 1.5, 1.0], [1.0, 2.0, 3.0]
        budget = float(np.dot(b, _minimal_periods(t, g))) * (1 + 1e-14)
        r = waterfill_chain(t, g, b, head_cap=1e3, budget=budget)
        assert r.ok
        assert r.iterations < 20
        assert float(np.dot(b, r.x)) <= budget * (1 + 1e-12)

    def test_pooled_block_keeps_nodes_below_its_bound_node_up(self):
        # After the zero gain, nodes 2..5 pool at node 2's lower bound;
        # nodes 3..5 sit above their own bounds and must stay there.
        t = [30.496, 35.539, 44.016, 12.960, 49.111, 14.794]
        g = [0.135, 0.0, 2.0, 3.0, 3.0, 0.234]
        b = [9.498, 9.569, 9.837, 9.404, 7.790, 0.716]
        r = waterfill_chain(t, g, b, head_cap=30.496, budget=5310.6)
        assert r.extra["lam"] > 0
        assert float(np.dot(b, r.x)) == pytest.approx(5310.6, rel=1e-12)
        assert r.x[5] == pytest.approx(r.x[2] / (2.0 * 3.0 * 3.0), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        nodes=st.lists(
            st.tuples(
                st.floats(0.5, 50.0),
                st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
                st.floats(0.5, 10.0),
            ),
            min_size=1,
            max_size=8,
        ),
        cap_factor=st.floats(1.0, 50.0),
        budget_factor=st.floats(1.0, 30.0),
    )
    def test_property_feasible_and_budget_complementary(
        self, nodes, cap_factor, budget_factor
    ):
        t, g, b = (np.asarray(col) for col in zip(*nodes))
        x_min = _minimal_periods(t, g)
        head_cap = x_min[0] * cap_factor
        budget = float(np.dot(b, x_min)) * budget_factor
        r = waterfill_chain(t, g, b, head_cap=head_cap, budget=budget)
        assert r.ok
        x = r.x
        assert (x >= t).all()
        assert x[0] <= head_cap * (1 + 1e-12)
        assert (g[:-1] * x[1:] <= x[:-1]).all()
        usage = float(np.dot(b, x))
        assert usage <= budget * (1 + 1e-12)
        if r.extra["lam"] > 0:  # a priced budget is spent
            assert usage == pytest.approx(budget, rel=1e-12)

    def test_infeasible_reported(self):
        r = waterfill_chain([3.0, 2.0], [2.0, 1.0], [1.0, 1.0], head_cap=1e3, budget=1.0)
        assert r.status is SolverStatus.INFEASIBLE
        r = waterfill_chain([3.0, 2.0], [2.0, 1.0], [1.0, 1.0], head_cap=1.0, budget=1e3)
        assert r.status is SolverStatus.INFEASIBLE

    def test_validates_inputs(self):
        with pytest.raises(SolverError):
            waterfill_chain([1.0, 1.0], [1.0], [1.0], head_cap=1.0, budget=1.0)
        with pytest.raises(SolverError):
            waterfill_chain([0.0], [1.0], [1.0], head_cap=1.0, budget=1.0)
        with pytest.raises(SolverError):
            waterfill_chain([1.0, 1.0], [-1.0], [1.0, 1.0], head_cap=1.0, budget=1.0)
        with pytest.raises(SolverError):
            waterfill_chain([1.0], [1.0], [1.0], head_cap=1.0, budget=0.0)


class TestProjection:
    def test_identity_inside(self):
        y = np.asarray([1.0, 1.0])
        out = project_box_budget(
            y, np.ones(2), np.zeros(2) + 0.1, np.full(2, 5.0), 10.0
        )
        assert out == pytest.approx(y)

    def test_clamps_to_box(self):
        out = project_box_budget(
            np.asarray([10.0, -10.0]),
            np.ones(2),
            np.asarray([0.0, 0.0]),
            np.asarray([2.0, 2.0]),
            100.0,
        )
        assert out.tolist() == [2.0, 0.0]

    def test_budget_projection_on_simplex(self):
        out = project_box_budget(
            np.asarray([2.0, 2.0]),
            np.ones(2),
            np.zeros(2),
            np.full(2, 10.0),
            2.0,
        )
        assert out == pytest.approx(np.asarray([1.0, 1.0]))

    def test_empty_set_rejected(self):
        with pytest.raises(SolverError, match="empty"):
            project_box_budget(
                np.ones(2), np.ones(2), np.full(2, 5.0), np.full(2, 9.0), 1.0
            )

    @settings(max_examples=40, deadline=None)
    @given(
        y=st.lists(st.floats(-50, 50), min_size=2, max_size=5),
        budget=st.floats(1.0, 40.0),
    )
    def test_property_projection_is_feasible_and_optimal(self, y, budget):
        n = len(y)
        y = np.asarray(y)
        b = np.ones(n)
        lo = np.zeros(n)
        hi = np.full(n, 20.0)
        out = project_box_budget(y, b, lo, hi, budget)
        assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()
        assert float(b @ out) <= budget * (1 + 1e-9)
        # Projection optimality: no feasible point is closer (spot-check
        # against random feasible candidates).
        rng = np.random.default_rng(0)
        for _ in range(20):
            cand = rng.uniform(lo, np.minimum(hi, budget))
            if float(b @ cand) <= budget:
                assert np.linalg.norm(y - out) <= np.linalg.norm(y - cand) + 1e-6
