"""Regression tests: items sharing an origin timestamp stay distinct.

The arrival contract (:meth:`repro.arrivals.base.ArrivalProcess.generate`)
is nondecreasing *with ties allowed* — trace replays of real instruments
produce equal timestamps routinely.  The pre-change
:class:`~tests.sim_reference.ReferenceLatencyLedger` keyed per-item
bookkeeping on the origin timestamp and therefore collapsed distinct
tied-arrival items into one, undercounting ``missed_items`` and
``items_with_output``.  The production
:class:`~repro.sim.metrics.LatencyLedger` keys on integer item ids.

The ledger-level tests below run the *same* recording sequence through
both ledgers: the reference ledger demonstrably undercounts (the test
that "fails on the old ledger") while the id-keyed ledger counts every
item (passes on the new one).
"""

from __future__ import annotations

import numpy as np

from repro.arrivals.trace import TraceArrivals
from repro.dataflow.gains import DeterministicGain
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.metrics import LatencyLedger
from tests.sim_reference import (
    ReferenceEnforcedSimulator,
    ReferenceLatencyLedger,
)


class TestLedgerTiedOrigins:
    def test_reference_ledger_conflates_tied_items(self):
        """The old origin-keyed ledger undercounts: this documents the bug."""
        ledger = ReferenceLatencyLedger(deadline=1.0)
        # Three distinct items, all arriving at t=5.0, all exiting late.
        ledger.record_exits(np.asarray([5.0, 5.0, 5.0]), exit_time=10.0)
        assert ledger.late_outputs == 3
        # BUG (frozen behavior): three late items counted as one.
        assert ledger.missed_items == 1
        assert ledger.items_with_output == 1

    def test_id_keyed_ledger_counts_tied_items(self):
        """The same sequence through the new ledger counts every item."""
        ledger = LatencyLedger(deadline=1.0)
        ledger.record_exits(
            np.asarray([5.0, 5.0, 5.0]),
            exit_time=10.0,
            ids=np.asarray([3, 4, 5]),
        )
        assert ledger.late_outputs == 3
        assert ledger.missed_items == 3
        assert ledger.items_with_output == 3

    def test_repeat_outputs_of_one_item_still_count_once(self):
        """Multiple outputs of the same item (fan-out) stay one item."""
        ledger = LatencyLedger(deadline=1.0)
        ledger.record_exits(
            np.asarray([5.0, 5.0]), exit_time=10.0, ids=np.asarray([7, 7])
        )
        ledger.record_exit(5.0, 10.0, item_id=7)
        assert ledger.late_outputs == 3
        assert ledger.missed_items == 1
        assert ledger.items_with_output == 1

    def test_scalar_path_matches_vector_path(self):
        a = LatencyLedger(deadline=2.0)
        b = LatencyLedger(deadline=2.0)
        origins = np.asarray([0.0, 0.0, 1.0, 1.5])
        ids = np.asarray([0, 1, 2, 3])
        a.record_exits(origins, 3.0, ids=ids)
        for o, i in zip(origins, ids):
            b.record_exit(float(o), 3.0, item_id=int(i))
        assert a.missed_items == b.missed_items
        assert a.items_with_output == b.items_with_output
        assert a.latency.mean == b.latency.mean
        assert a.latency.std == b.latency.std

    def test_no_ids_falls_back_to_origin_keys(self):
        ledger = LatencyLedger(deadline=1.0)
        ledger.record_exits(np.asarray([5.0, 5.0]), exit_time=10.0)
        # Documented fallback: without ids, tied origins still conflate.
        assert ledger.missed_items == 1


class TestEndToEndTiedArrivals:
    """A burst of simultaneous arrivals through the full simulator."""

    def _pipeline(self) -> PipelineSpec:
        return PipelineSpec(
            (NodeSpec("p", 5.0, DeterministicGain(1)),), vector_width=4
        )

    def _run(self, cls):
        # Four items all at t=0; a single 4-wide pass-through node with
        # service time 5 and wait 20 fires every 25: all four exit at
        # t=5, violating the deadline of 1 — four distinct missed items.
        sim = cls(
            self._pipeline(),
            waits=np.asarray([20.0]),
            arrivals=TraceArrivals([0.0, 0.0, 0.0, 0.0]),
            deadline=1.0,
            n_items=4,
        )
        return sim.run()

    def test_production_counts_each_tied_item(self):
        m = self._run(EnforcedWaitsSimulator)
        assert m.outputs == 4
        assert m.missed_items == 4
        assert m.miss_rate == 1.0

    def test_reference_undercounts_tied_items(self):
        """Frozen-bug witness: remove with the reference implementations."""
        m = self._run(ReferenceEnforcedSimulator)
        assert m.outputs == 4
        assert m.missed_items == 1  # the conflation bug
