"""Hardened network serving layer shared by planning and runtime.

The asyncio TCP edges of this repo — ``repro-plan serve`` (planning
requests) and ``repro-run serve`` (live ingest) — share one serving
stack so they harden together:

- :class:`~repro.serving.config.ServingConfig` — line-size, idle,
  request-deadline, connection, and drain limits;
- :class:`~repro.serving.server.JsonLinesServer` — the hardened
  JSON-lines TCP server: structured ``{"error": ...}`` replies for
  every failure mode, a built-in ``{"op": "health"}`` probe, and a
  graceful stop-accept/drain/flush shutdown;
- :mod:`~repro.serving.admission` — in-flight ingest budgets derived
  from the plan's feasibility certificate (Little's law at the
  certified operating point), the first rung of the degradation ladder
  ahead of queue shedding and the deadline watchdog;
- :class:`~repro.serving.client.ResilientClient` — retry with
  exponential backoff + jitter and a circuit breaker, speaking the
  ``"retriable"`` half of the error contract;
- :mod:`~repro.serving.chaos` — deliberately misbehaving clients
  (slow-loris, oversized frames, mid-request disconnects, floods) used
  by the chaos test suite (``tests/test_serving_chaos.py``).
"""

from repro.serving.admission import (
    AdmissionBudget,
    AdmissionController,
    budget_from_event,
    budget_from_plan,
    inflight_budget,
)
from repro.serving.client import CircuitBreaker, ResilientClient, RetryPolicy
from repro.serving.config import (
    ServingConfig,
    add_serving_arguments,
    serving_config_from_args,
)
from repro.serving.server import JsonLinesServer, ServerStats

__all__ = [
    "AdmissionBudget",
    "AdmissionController",
    "CircuitBreaker",
    "JsonLinesServer",
    "ResilientClient",
    "RetryPolicy",
    "ServerStats",
    "ServingConfig",
    "add_serving_arguments",
    "budget_from_event",
    "budget_from_plan",
    "inflight_budget",
    "serving_config_from_args",
]
