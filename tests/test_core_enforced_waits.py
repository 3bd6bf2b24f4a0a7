"""Tests for the enforced-waits optimization (Figure 1) — the paper's core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enforced_waits import (
    EnforcedWaitsProblem,
    optimistic_b,
    solve_enforced_waits,
)
from repro.core.feasibility import min_deadline_enforced, minimal_periods
from repro.core.model import RealTimeProblem
from repro.dataflow.spec import PipelineSpec
from repro.errors import SolverError, SpecError
from repro.solvers.fallback import certify_linear


class TestOptimisticB:
    def test_blast_values(self, blast):
        # Paper: b_i = ceil(g_i), clamped at 1.
        assert optimistic_b(blast).tolist() == [1.0, 2.0, 1.0, 1.0]


class TestFeasibilityHandling:
    def test_infeasible_returns_diagnosis(self, blast, calibrated_b):
        sol = solve_enforced_waits(
            RealTimeProblem(blast, 1.0, 3.5e5), calibrated_b
        )
        assert not sol.feasible
        assert np.isnan(sol.active_fraction)
        assert sol.diagnosis is not None

    def test_b_validation(self, blast):
        prob = RealTimeProblem(blast, 50.0, 2e5)
        with pytest.raises(SpecError):
            EnforcedWaitsProblem(prob, np.ones(2))


class TestSolutionProperties:
    @pytest.mark.parametrize(
        "tau0,deadline",
        [(5.0, 3.0e5), (10.0, 3.5e5), (20.0, 1.0e5), (50.0, 2.0e5), (100.0, 3.0e4), (100.0, 3.5e5)],
    )
    def test_solution_is_feasible_point(self, blast, calibrated_b, tau0, deadline):
        prob = RealTimeProblem(blast, tau0, deadline)
        sol = solve_enforced_waits(prob, calibrated_b)
        assert sol.feasible
        x = sol.periods
        t = blast.service_times
        g = blast.mean_gains
        assert (x >= t * (1 - 1e-9)).all()
        assert x[0] <= 128 * tau0 * (1 + 1e-9)
        for i in range(1, 4):
            assert g[i - 1] * x[i] <= x[i - 1] * (1 + 1e-8)
        assert float(np.dot(calibrated_b, x)) <= deadline * (1 + 1e-8)
        assert 0.0 < sol.active_fraction <= 1.0
        assert sol.waits == pytest.approx(x - t)
        assert sol.node_utilizations == pytest.approx(t / x)

    def test_paper_point_regression(self, blast, calibrated_b):
        """Regression anchor at (tau0=10, D=3.5e5): chain-binding regime."""
        sol = solve_enforced_waits(
            RealTimeProblem(blast, 10.0, 3.5e5), calibrated_b
        )
        assert sol.active_fraction == pytest.approx(0.1969, abs=2e-3)
        assert sol.periods[0] == pytest.approx(1280.0, rel=1e-6)  # head cap
        assert "chain_0->1" in sol.binding

    def test_deadline_binding_regression(self, blast, calibrated_b):
        sol = solve_enforced_waits(
            RealTimeProblem(blast, 50.0, 2.0e5), calibrated_b
        )
        assert sol.active_fraction == pytest.approx(0.08696, abs=1e-3)
        assert "deadline" in sol.binding
        assert sol.method == "waterfill"  # chain slack -> fast path

    def test_af_decreases_with_deadline(self, blast, calibrated_b):
        afs = []
        for d in (5e4, 1e5, 2e5, 3.5e5):
            sol = solve_enforced_waits(
                RealTimeProblem(blast, 50.0, d), calibrated_b
            )
            afs.append(sol.active_fraction)
        assert all(a >= b - 1e-12 for a, b in zip(afs, afs[1:]))

    def test_af_nonincreasing_with_tau0(self, blast, calibrated_b):
        afs = []
        for tau0 in (5.0, 10.0, 30.0, 100.0):
            sol = solve_enforced_waits(
                RealTimeProblem(blast, tau0, 3.5e5), calibrated_b
            )
            afs.append(sol.active_fraction)
        assert all(a >= b - 1e-12 for a, b in zip(afs, afs[1:]))


class TestSolverAgreement:
    @pytest.mark.parametrize(
        "tau0,deadline",
        [(5.0, 3.0e5), (10.0, 3.5e5), (50.0, 2.0e5), (100.0, 3.0e4)],
    )
    def test_auto_matches_slsqp(self, blast, calibrated_b, tau0, deadline):
        prob = RealTimeProblem(blast, tau0, deadline)
        auto = EnforcedWaitsProblem(prob, calibrated_b).solve("auto")
        slsqp = EnforcedWaitsProblem(prob, calibrated_b).solve("slsqp")
        # SLSQP's own tolerance limits the agreement achievable.
        assert auto.active_fraction == pytest.approx(
            slsqp.active_fraction, rel=1e-3
        )
        # Our solver should never be worse than the cross-check.
        assert auto.active_fraction <= slsqp.active_fraction * (1 + 1e-6)

    def test_interior_matches_auto_when_chain_binds(self, blast, calibrated_b):
        prob = RealTimeProblem(blast, 10.0, 3.5e5)
        auto = EnforcedWaitsProblem(prob, calibrated_b).solve("auto")
        interior = EnforcedWaitsProblem(prob, calibrated_b).solve("interior")
        assert auto.active_fraction == pytest.approx(
            interior.active_fraction, rel=1e-6
        )

    def test_unknown_method_rejected(self, blast, calibrated_b):
        prob = RealTimeProblem(blast, 50.0, 2e5)
        with pytest.raises(SpecError):
            EnforcedWaitsProblem(prob, calibrated_b).solve("magic")


class TestEdgeCases:
    def test_single_node_pipeline(self):
        from repro.dataflow.gains import DeterministicGain
        from repro.dataflow.spec import NodeSpec

        p = PipelineSpec((NodeSpec("only", 10.0, DeterministicGain(1)),), 4)
        sol = solve_enforced_waits(
            RealTimeProblem(p, 10.0, 100.0), np.asarray([1.0])
        )
        assert sol.feasible
        # Budget allows x=40 (v*tau0) vs deadline 100 -> cap binds at 40.
        assert sol.periods[0] == pytest.approx(40.0, rel=1e-6)

    def test_degenerate_deadline_equals_minimum(self, blast, calibrated_b):
        from repro.core.feasibility import min_deadline_enforced, minimal_periods

        d_min = min_deadline_enforced(blast, calibrated_b)
        sol = solve_enforced_waits(
            RealTimeProblem(blast, 50.0, d_min), calibrated_b
        )
        assert sol.feasible
        # The only feasible point is the minimal one (chain floors force
        # x >= x_min componentwise and the budget is exactly at x_min's).
        x_min = minimal_periods(blast)
        expected_af = float(np.mean(blast.service_times / x_min))
        assert sol.active_fraction == pytest.approx(expected_af, rel=1e-4)
        assert sol.periods == pytest.approx(x_min, rel=1e-4)

    def test_head_cap_pinned(self, blast, calibrated_b):
        # tau0 exactly at the enforced-waits feasibility edge.
        from repro.core.feasibility import min_tau0_enforced

        tau0 = min_tau0_enforced(blast)
        sol = solve_enforced_waits(
            RealTimeProblem(blast, tau0, 3.5e5), calibrated_b
        )
        assert sol.feasible
        assert sol.periods[0] == pytest.approx(128 * tau0, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        tau0=st.floats(3.0, 100.0),
        deadline=st.floats(3e4, 3.5e5),
    )
    def test_property_solution_always_feasible_point(self, tau0, deadline):
        from repro.apps.blast.pipeline import blast_pipeline

        blast = blast_pipeline()
        b = np.asarray([1.0, 3.0, 9.0, 6.0])
        sol = solve_enforced_waits(RealTimeProblem(blast, tau0, deadline), b)
        if not sol.feasible:
            return
        x = sol.periods
        assert (x >= blast.service_times * (1 - 1e-9)).all()
        assert x[0] <= 128 * tau0 * (1 + 1e-8)
        g = blast.mean_gains
        for i in range(1, 4):
            assert g[i - 1] * x[i] <= x[i - 1] * (1 + 1e-7)
        assert float(np.dot(b, x)) <= deadline * (1 + 1e-7)


def _rung_results(problem, chain_binds):
    """Certified results of each fallback rung, forced in turn.

    The chain tries interior point, then projected gradient, then the
    grid scan; disabling the rungs above one makes it answer.  Projected
    gradient solves the chain-free relaxation, so it can only certify
    when no chain row binds; elsewhere it is skipped (its three failing
    attempts are slow).  A rung that certifies nothing raises and
    contributes no result.
    """
    from contextlib import ExitStack
    from unittest import mock

    sabotage = mock.Mock(side_effect=SolverError("rung disabled"))
    forced = [(), ("barrier_solve", "projected_gradient_min")]
    if not chain_binds:
        forced.append(("barrier_solve",))
    out = []
    for disabled in forced:
        with ExitStack() as stack:
            for name in disabled:
                stack.enter_context(
                    mock.patch(f"repro.core.enforced_waits.{name}", sabotage)
                )
            try:
                out.append(problem.solve("fallback"))
            except SolverError:
                pass
    return out


class TestChainSolverOracle:
    """The exact chain solver against every other solver in the repo."""

    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.lists(
            st.tuples(
                st.floats(0.5, 50.0),
                st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(1.0, 4.0)),
                st.floats(0.5, 10.0),
            ),
            min_size=1,
            max_size=8,
        ),
        v=st.sampled_from([1, 4, 32, 128]),
        tau0_factor=st.floats(1.0, 50.0),
        deadline_factor=st.floats(1.0, 30.0),
    )
    def test_exact_solve_certifies_and_is_never_beaten(
        self, nodes, v, tau0_factor, deadline_factor
    ):
        t, g, b = (np.asarray(col) for col in zip(*nodes))
        pipeline = PipelineSpec.from_arrays(t, g, v)
        tau0 = minimal_periods(pipeline)[0] / v * tau0_factor
        deadline = min_deadline_enforced(pipeline, b) * deadline_factor
        problem = EnforcedWaitsProblem(RealTimeProblem(pipeline, tau0, deadline), b)

        exact = problem.solve("auto")
        assert exact.feasible
        A, c, labels = problem.constraint_system()
        assert certify_linear(A, c, exact.periods, labels=labels, tol=1e-9).satisfied

        interior = problem.solve("interior")
        assert exact.active_fraction <= interior.active_fraction * (1 + 1e-12)
        try:
            slsqp = problem.solve("slsqp")
        except SolverError:
            slsqp = None  # SLSQP gives up on some degenerate geometries
        if slsqp is not None:
            assert exact.active_fraction <= slsqp.active_fraction * (1 + 1e-9)
        chain_binds = exact.method == "waterfill-chain"
        for rung in _rung_results(problem, chain_binds):
            assert rung.active_fraction >= exact.active_fraction * (1 - 1e-9)
