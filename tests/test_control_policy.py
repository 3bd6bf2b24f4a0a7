"""Tests for control policies, training, and head-to-head evaluation."""

import numpy as np
import pytest

from repro.control import (
    ControlEnvConfig,
    DriftSchedule,
    LearnedPolicy,
    OraclePolicy,
    PipelineControlEnv,
    Regime,
    ReplanPolicy,
    head_to_head,
    run_episode,
    train_cross_entropy,
)
from repro.core.enforced_waits import EnforcedWaitsProblem
from repro.errors import SpecError
from repro.planning.cache import PlanCache
from repro.runtime.drift import DriftConfig


def _drifting_config(n_items=1500):
    n = 3
    nominal = Regime.nominal(n)
    slow = Regime("slow", np.array([1.4, 1.0, 1.0]), np.ones(n))
    gainy = Regime("gainy", np.ones(n), np.array([1.0, 1.3, 1.0]))
    schedule = DriftSchedule.seeded(
        7, (nominal, slow, gainy), horizon=400.0, mean_dwell=80.0
    )
    return ControlEnvConfig(
        service_times=(0.08, 0.1, 0.06),
        mean_gains=(0.9, 2.0, 0.7),
        vector_width=8,
        tau0=0.05,
        deadline=5.0,
        n_items=n_items,
        segment_time=5.0,
        schedule=schedule,
        arrival="fixed",
        rate_scale=1.0,
    )


def _stationary_config(n_items=800):
    cfg = _drifting_config(n_items)
    return ControlEnvConfig(
        **{
            **{f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
            "schedule": DriftSchedule.stationary(3),
        }
    )


class TestOraclePolicy:
    def test_zero_misses_under_drift(self):
        cfg = _drifting_config()
        env = PipelineControlEnv(cfg)
        result = run_episode(env, OraclePolicy(cfg), seed=0)
        assert result.total_misses == 0

    def test_switches_waits_at_breakpoints(self):
        cfg = _drifting_config()
        policy = OraclePolicy(cfg)
        waits = [tuple(np.round(w, 6)) for w in policy._waits]
        assert len(set(waits)) > 1

    def test_episodes_are_bit_reproducible(self):
        cfg = _drifting_config()
        env = PipelineControlEnv(cfg)
        oracle = OraclePolicy(cfg)
        a = run_episode(env, oracle, seed=0)
        b = run_episode(env, oracle, seed=0)
        assert a.segments == b.segments
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.misses, b.misses)
        assert a.makespan == b.makespan


class TestReplanPolicy:
    def test_replans_under_drift_and_recovers(self):
        cfg = _drifting_config(n_items=3000)
        policy = ReplanPolicy(
            cfg,
            cache=PlanCache(capacity=8),
            drift=DriftConfig(
                service_rtol=0.2, gain_rtol=0.15, sustain_checks=2
            ),
            pessimism=1.1,
        )
        env = PipelineControlEnv(cfg)
        result = run_episode(env, policy, seed=0)
        assert policy.replans >= 1
        assert sum(policy.solve_sources.values()) >= policy.replans
        # Stationary (nominal) segments never miss; transient misses are
        # the detector's structural sustain+EWMA latency, and bounded.
        assert result.misses_in_regime(0) == 0
        assert result.total_misses < 0.1 * result.total_arrivals

    def test_rejects_bad_pessimism(self):
        with pytest.raises(SpecError):
            ReplanPolicy(_stationary_config(), pessimism=0.9)


class TestLearnedPolicy:
    def test_zero_params_near_nominal_plan(self):
        cfg = _stationary_config()
        policy = LearnedPolicy(cfg)
        obs = np.zeros(policy.n_features)
        waits = policy.propose(obs)
        # sigmoid(3.0) ~ 0.95: proposal starts near the planned waits.
        assert np.all(waits <= policy._base_waits + 1e-12)
        assert np.all(waits >= 0.8 * policy._base_waits)

    def test_projection_always_feasible(self):
        cfg = _stationary_config()
        policy = LearnedPolicy(cfg)
        ewp = EnforcedWaitsProblem(cfg.problem())
        A, c, _ = ewp.constraint_system()
        rng = np.random.default_rng(0)
        for _ in range(50):
            policy.set_params(rng.normal(scale=3.0, size=policy.n_params))
            obs = rng.normal(scale=1.0, size=policy.n_features)
            waits = policy.propose(obs)
            x = ewp.t + waits
            assert (A @ x <= c + 1e-6).all()

    def test_stationary_zero_misses_any_params(self):
        # The CI floor as a property: random parameters, planned point,
        # zero misses -- feasibility projection does the work.
        cfg = _stationary_config()
        env = PipelineControlEnv(cfg)
        rng = np.random.default_rng(1)
        for k in range(3):
            policy = LearnedPolicy(cfg)
            policy.set_params(
                rng.normal(scale=2.0, size=policy.n_params)
            )
            result = run_episode(env, policy, seed=k)
            assert result.total_misses == 0, f"params draw {k} missed"

    def test_param_shape_checked(self):
        policy = LearnedPolicy(_stationary_config())
        with pytest.raises(SpecError):
            policy.set_params(np.zeros(policy.n_params + 1))


class TestTraining:
    def test_cross_entropy_improves_and_is_deterministic(self):
        cfg = _drifting_config(n_items=800)
        p1, log1 = train_cross_entropy(
            cfg, seed=0, iterations=2, population=6, episode_seeds=(0,)
        )
        p2, log2 = train_cross_entropy(
            cfg, seed=0, iterations=2, population=6, episode_seeds=(0,)
        )
        assert log1.best_return == log2.best_return
        assert np.array_equal(p1.params, p2.params)
        assert log1.iterations == 2
        assert log1.episodes == 2 * 6
        # Elite mean at the last iteration beats the first population mean.
        assert log1.elite_return[-1] >= log1.mean_return[0]

    def test_rejects_degenerate_search(self):
        with pytest.raises(SpecError):
            train_cross_entropy(
                _stationary_config(), iterations=0, population=6
            )


class TestHeadToHead:
    def test_gate_properties_small(self):
        # The bandit, pretrained on held-out seeds, beats the cold
        # re-solve path's regret with zero stationary misses.
        from repro.control import BanditPolicy, PlanLibrary

        cfg = _drifting_config(n_items=3000)
        lib = PlanLibrary(cfg)
        bandit = BanditPolicy(lib, alpha=0.4)
        env = PipelineControlEnv(cfg)
        for seed in (100, 101, 102, 103, 104, 105):
            run_episode(env, bandit, seed=seed)
        bandit.linucb.alpha = 0.05
        replan = ReplanPolicy(
            cfg,
            cache=PlanCache(capacity=8),
            drift=DriftConfig(
                service_rtol=0.2, gain_rtol=0.15, sustain_checks=2
            ),
            pessimism=1.1,
        )
        out = head_to_head(
            cfg, {"bandit": bandit, "replan": replan}, seeds=(0,)
        )
        assert out["oracle"].cumulative_regret == 0.0
        assert (
            out["bandit"].cumulative_regret
            < out["replan"].cumulative_regret
        )
        assert out["bandit"].stationary_misses == 0

    def test_learned_policy_has_zero_stationary_misses(self):
        cfg = _drifting_config()
        learned, _ = train_cross_entropy(
            cfg,
            seed=0,
            iterations=3,
            population=8,
            elite_frac=0.3,
            episode_seeds=(100,),
        )
        out = head_to_head(cfg, {"learned": learned}, seeds=(0,))
        assert out["learned"].stationary_misses == 0

    def test_requires_seeds(self):
        with pytest.raises(SpecError):
            head_to_head(_stationary_config(), {}, seeds=())

    def test_as_dict_round_trip(self):
        cfg = _stationary_config()
        out = head_to_head(cfg, {}, seeds=(0,))
        d = out["oracle"].as_dict()
        assert d["policy"] == "oracle"
        assert d["total_misses"] == 0
        assert isinstance(d["miss_rate"], float)
