"""Run ``repro-run serve`` unchanged, recording when each output exits.

Usage (from the checkout root)::

    python3 perfbench/serve_server.py serve --app blast --port 0

The arguments go straight to ``repro.runtime.cli.main``.  Two lines are
added to its output: once the plan is solved, ``PERFBENCH-PLAN`` with the
plan's tau0 and deadline (the client paces its load from them), and after
the server has shut down, ``PERFBENCH-EXITS`` with the id and monotonic
exit time of every output batch the executor's ledger recorded.  The
client process shares the monotonic clock, so it can time each item from
the moment it was due to be sent.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

PLAN_TAG = "PERFBENCH-PLAN"
EXITS_TAG = "PERFBENCH-EXITS"


def main(argv: list[str]) -> int:
    from repro.runtime import cli, kernels
    from repro.runtime.executor import PipelineExecutor

    exits: list[tuple[list[int], float]] = []
    plan_runtime = kernels.plan_runtime
    from_plan = PipelineExecutor.from_plan.__func__

    def planned(*args, **kwargs):
        plan = plan_runtime(*args, **kwargs)
        print(
            f"{PLAN_TAG} "
            + json.dumps({"tau0": plan.problem.tau0, "deadline": plan.problem.deadline}),
            flush=True,
        )
        return plan

    def recorded(cls, plan, **kwargs):
        executor = from_plan(cls, plan, **kwargs)
        record = executor.ledger.record_exits

        def record_exits(origins, now, ids=None):
            exits.append((ids.tolist(), time.perf_counter()))
            return record(origins, now, ids=ids)

        executor.ledger.record_exits = record_exits
        return executor

    kernels.plan_runtime = planned
    PipelineExecutor.from_plan = classmethod(recorded)
    code = cli.main(argv)
    print(f"{EXITS_TAG} " + json.dumps(exits), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
