"""Discrete-event simulation (DES) kernel.

A small, dependency-free event-driven simulation engine:

- :class:`~repro.des.engine.Engine` — the virtual clock and event loop.
- :class:`~repro.des.events.Event` — a scheduled callback with priority
  (also its own cancel handle).
- :class:`~repro.des.rng.RngRegistry` — named, reproducible random streams.
- :mod:`~repro.des.monitors` — time-series and counter statistics.
- :mod:`~repro.des.trace` — optional structured execution traces.

The engine is deliberately minimal: the pipeline simulators in
:mod:`repro.sim` build the paper's execution model (Section 2) on top of it.
"""

from repro.des.engine import Engine
from repro.des.events import Event
from repro.des.rng import RngRegistry
from repro.des.monitors import Accumulator, Counter, TimeWeighted
from repro.des.trace import TraceRecorder, TraceRecord

__all__ = [
    "Engine",
    "Event",
    "RngRegistry",
    "Accumulator",
    "Counter",
    "TimeWeighted",
    "TraceRecorder",
    "TraceRecord",
]
