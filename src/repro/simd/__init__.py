"""SIMD device model.

Models the paper's implementation target (Section 2.2): a single-threaded
processor with ``v``-wide SIMD vector operations, where each pipeline node
is allotted a fixed ``1/N`` fraction of processor time and fires on vectors
of up to ``v`` items in fixed service time ``t_i``.

- :class:`~repro.simd.occupancy.OccupancyTracker` — lane-occupancy and
  active-time statistics.
- :mod:`~repro.simd.sharing` — timing models: the paper's idealized
  fine-grained 1/N sharing, and a work-conserving generalized-processor-
  sharing (GPS) model used as an ablation of that idealization.
"""

from repro.simd.backend import (
    Backend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.simd.occupancy import OccupancyTracker
from repro.simd.sharing import (
    GpsProcessor,
    IdealizedSharing,
    TimingModel,
    WorkConservingSharing,
)

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "OccupancyTracker",
    "TimingModel",
    "IdealizedSharing",
    "WorkConservingSharing",
    "GpsProcessor",
]
