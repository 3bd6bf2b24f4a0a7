"""Warm-start solver layer: hit/warm/cold resolution and equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.blast.pipeline import blast_pipeline, calibrated_b
from repro.core.enforced_waits import EnforcedWaitsProblem
from repro.core.model import RealTimeProblem
from repro.errors import SolverError
from repro.planning.cache import PlanCache
from repro.planning.warmstart import (
    default_cache,
    reset_default_cache,
    solve_plan,
    warm_start_solve,
)

POINT = (20.0, 1.5e5)


@pytest.fixture
def problem() -> RealTimeProblem:
    return RealTimeProblem(blast_pipeline(), *POINT)


@pytest.fixture
def cache() -> PlanCache:
    return PlanCache(capacity=64)


class TestResolutionOrder:
    def test_cold_then_exact_hit_is_bit_identical(self, problem, cache):
        cold = solve_plan(problem, calibrated_b(), cache=cache)
        assert cold.source == "cold"
        hit = solve_plan(problem, calibrated_b(), cache=cache)
        assert hit.source == "hit"
        assert hit.key == cold.key
        assert hit.solution is cold.solution  # literally the same object
        assert np.array_equal(hit.solution.periods, cold.solution.periods)
        assert cache.stats.hits == 1

    def test_repeated_sweep_matches_uncached_solves(self):
        # A tau0 x deadline grid swept five times through one cache
        # resolves to the same plans as solving every request cold.
        b = calibrated_b()
        points = [
            (float(tau0), float(deadline))
            for tau0 in np.geomspace(16.0, 60.0, 4)
            for deadline in np.geomspace(8.0e4, 3.0e5, 3)
        ]
        cache = PlanCache()
        for _ in range(5):
            for tau0, deadline in points:
                problem = RealTimeProblem(blast_pipeline(), tau0, deadline)
                uncached = EnforcedWaitsProblem(problem, b).solve()
                cached = solve_plan(problem, b, cache=cache).solution
                assert cached.feasible == uncached.feasible
                if uncached.feasible:
                    np.testing.assert_allclose(
                        cached.periods, uncached.periods, rtol=1e-6, atol=1e-9
                    )
        assert cache.stats.hits + cache.stats.misses == 5 * len(points)

    def test_disk_hit_is_bit_identical(self, problem, tmp_path):
        path = tmp_path / "plans.json"
        first = PlanCache(path=path)
        cold = solve_plan(problem, calibrated_b(), cache=first)
        first.flush()

        second = PlanCache(path=path)
        hit = solve_plan(problem, calibrated_b(), cache=second)
        assert hit.source == "hit"
        assert np.array_equal(hit.solution.periods, cold.solution.periods)
        assert hit.solution.active_fraction == cold.solution.active_fraction

    def test_warm_start_on_perturbed_operating_point(self, problem, cache):
        b = calibrated_b()
        solve_plan(problem, b, cache=cache)
        warm = solve_plan(problem.with_tau0(21.0), b, cache=cache)
        assert warm.source == "warm"
        assert warm.certificate is not None
        assert warm.certificate.satisfied
        assert cache.stats.warm_hits == 1

        # Warm result must match an independent cold solve within the
        # documented tolerance (docs/planning.md): certificate tol 1e-9,
        # equivalence tol 1e-6 on periods and active fraction.
        cold = EnforcedWaitsProblem(problem.with_tau0(21.0), b).solve()
        np.testing.assert_allclose(
            warm.solution.periods, cold.periods, rtol=1e-6, atol=1e-9
        )
        assert warm.solution.active_fraction == pytest.approx(
            cold.active_fraction, rel=1e-6
        )

    def test_warm_solution_respects_constraints(self, problem, cache):
        b = calibrated_b()
        solve_plan(problem, b, cache=cache)
        warm = solve_plan(problem.with_deadline(2.0e5), b, cache=cache)
        assert warm.source == "warm"
        ewp = EnforcedWaitsProblem(problem.with_deadline(2.0e5), b)
        A, c, _labels = ewp.constraint_system()
        assert (A @ warm.solution.periods <= c + 1e-9).all()
        assert (warm.solution.periods >= ewp.t - 1e-12).all()

    def test_rejected_warm_start_falls_back_cold(
        self, problem, cache, monkeypatch
    ):
        b = calibrated_b()
        solve_plan(problem, b, cache=cache)

        def boom(*args, **kwargs):
            raise SolverError("injected chain solver failure")

        monkeypatch.setattr(
            "repro.planning.warmstart.waterfill_chain", boom
        )
        out = solve_plan(problem.with_tau0(22.0), b, cache=cache)
        assert out.source == "cold"
        assert out.solution.feasible
        assert cache.stats.warm_rejects == 1
        assert cache.stats.warm_hits == 0

    def test_infeasible_point_cached_without_warm_attempt(
        self, problem, cache
    ):
        b = calibrated_b()
        solve_plan(problem, b, cache=cache)
        # Deadline far below what the chain can meet: infeasible.
        bad = problem.with_deadline(1.0)
        out = solve_plan(bad, b, cache=cache)
        assert out.source == "cold"
        assert not out.solution.feasible
        assert cache.stats.warm_hits == 0
        again = solve_plan(bad, b, cache=cache)
        assert again.source == "hit"
        assert not again.solution.feasible

    def test_warm_start_disabled(self, problem, cache):
        b = calibrated_b()
        solve_plan(problem, b, cache=cache)
        out = solve_plan(
            problem.with_tau0(23.0), b, cache=cache, warm_start=False
        )
        assert out.source == "cold"
        assert cache.stats.warm_hits == 0


class TestWarmStartSolve:
    def test_bad_seed_rejected(self, problem):
        ewp = EnforcedWaitsProblem(problem, calibrated_b())
        assert warm_start_solve(ewp, np.full(ewp.n, np.nan)) is None
        assert warm_start_solve(ewp, np.ones(ewp.n - 1)) is None

    def test_accepted_solve_carries_certificate(self, problem):
        ewp = EnforcedWaitsProblem(problem, calibrated_b())
        cold = ewp.solve()
        perturbed = EnforcedWaitsProblem(
            problem.with_tau0(20.5), calibrated_b()
        )
        got = warm_start_solve(perturbed, cold.periods)
        assert got is not None
        solution, cert = got
        assert solution.feasible
        assert solution.method == "warmstart(waterfill-chain)"
        assert cert.satisfied
        assert solution.solver_result.extra["certificate"] is cert


class TestDefaultCache:
    def test_singleton_and_reset(self):
        reset_default_cache()
        a = default_cache()
        assert default_cache() is a
        reset_default_cache()
        assert default_cache() is not a
        reset_default_cache()
