"""Learned online scheduling over the enforced-waits runtime.

The model-based planner (:mod:`repro.planning`) computes the optimal
enforced waits for one *known* operating point; the live runtime
(:mod:`repro.runtime`) detects drift and re-solves.  This package closes
the loop with *learning*:

- :mod:`repro.control.env` — a gym-style environment
  (``reset(seed)``/``step(action)``) wrapping the existing DES, entirely
  in simulated time;
- :mod:`repro.control.bandit` — a LinUCB contextual bandit selecting
  among *cached plans* (through the shared
  :class:`~repro.planning.cache.PlanCache`), beating cold re-solves
  during drift transients;
- :mod:`repro.control.policy` — a trained wait-multiplier policy
  (cross-entropy search, pure numpy) plus the frozen ``oracle`` and
  ``replan`` baselines;
- :mod:`repro.control.evaluate` — head-to-head regret / deadline-miss /
  active-fraction comparison, gated by ``tests/test_control_policy.py``.

See ``docs/control.md`` for the environment contract and the
head-to-head gates.
"""

from repro.control.bandit import BanditPolicy, LinUCB, PlanArm, PlanLibrary
from repro.control.env import (
    ControlAction,
    ControlEnvConfig,
    DriftSchedule,
    PipelineControlEnv,
    Regime,
)
from repro.control.evaluate import (
    EpisodeResult,
    PolicyComparison,
    head_to_head,
    run_episode,
)
from repro.control.live import (
    LIVE_POLICIES,
    StaticPolicy,
    control_config_from_plan,
    make_live_policy,
)
from repro.control.policy import (
    LearnedPolicy,
    OraclePolicy,
    ReplanPolicy,
    TrainingLog,
    train_cross_entropy,
)

__all__ = [
    "BanditPolicy",
    "ControlAction",
    "ControlEnvConfig",
    "DriftSchedule",
    "EpisodeResult",
    "LIVE_POLICIES",
    "LearnedPolicy",
    "LinUCB",
    "OraclePolicy",
    "PipelineControlEnv",
    "PlanArm",
    "PlanLibrary",
    "PolicyComparison",
    "Regime",
    "ReplanPolicy",
    "StaticPolicy",
    "TrainingLog",
    "control_config_from_plan",
    "head_to_head",
    "make_live_policy",
    "run_episode",
    "train_cross_entropy",
]
