"""Shared pieces of the benchmark: statistics, gates, the run header."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class GateError(Exception):
    """A correctness gate failed: the run must not report numbers."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def percentile(values, q: float) -> float:
    """The ``q``-quantile, refused when fewer than ten samples lie beyond it."""
    values = np.asarray(values, dtype=float)
    beyond = values.size * (1.0 - q)
    if beyond < 10:
        raise GateError(
            f"p{q * 100:g} needs at least ten samples beyond it; "
            f"only {values.size} samples"
        )
    return float(np.quantile(values, q))


def blocked_p99(values) -> float:
    """p99 of each consecutive block of at least 1000 samples; their median.

    ``values`` are in time order.  One host stall (another process owning
    the core for a few hundred milliseconds) delays about one percent of
    a run's samples and so moves a single p99 by itself; it moves the
    p99 of one block, which the median over blocks then discounts.
    """
    values = np.asarray(values, dtype=float)
    blocks = max(1, values.size // 1000)
    return median([percentile(b, 0.99) for b in np.array_split(values, blocks)])


def output_latency_ms(exits, due: np.ndarray, t0: float) -> np.ndarray:
    """Latency of every output: its exit minus its item's due time.

    ``exits`` holds ``(item ids, exit time)`` per exiting batch, one id
    per output (an item with several outputs appears several times), on
    the monotonic clock; ``due[id]`` is the item's due time relative to
    ``t0``.  This is the latency the program's own ledger scores against
    the deadline, except that it starts when the item was due to be sent.
    """
    if not exits:
        return np.empty(0)
    ids = np.concatenate([np.asarray(i, dtype=np.int64) for i, _ in exits])
    at = np.concatenate([np.full(len(i), t - t0) for i, t in exits])
    return (at - due[ids]) * 1e3


#: An item is "late" at the generator when submitted this long after due.
LATE_S = 0.001


def generator_metrics(lag) -> dict:
    """How late an open-loop generator ran: p99 lag and the late share."""
    lag = np.asarray(lag, dtype=float)
    return {
        "gen.lag_p99_ms": percentile(lag, 0.99) * 1e3,
        "gen.late_share": float(np.mean(lag > LATE_S)),
    }


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def timed_median(fn, repeats: int):
    """Run ``fn`` ``repeats`` times; (median seconds, last result)."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return median(times), result


def _git(*args: str) -> str | None:
    # Stop git at the checkout root so a parent directory's repository
    # is never mistaken for this one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_header(*, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Provenance of one run: what ran, where, and on which code."""
    from repro.simd.backend import get_backend

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "backend": get_backend().name,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
    }


def load_spec() -> dict:
    """``BENCHMARK.json`` at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
