"""Multi-tenant TCP ingest: admit, feed, and evict tenants over JSON lines.

The network face of :class:`~repro.tenancy.executor.MultiPipelineExecutor`
behind ``repro-run serve --tenants``.  One hardened
:class:`~repro.serving.server.JsonLinesServer` carries every tenant's
traffic; each request line names its tenant::

    {"op": "admit", "tenant": "a", "qos": "gold",
     "tau0": 0.1, "deadline": 2.0}        -> certificate admission decision
    {"op": "submit", "tenant": "a", "items": [[...], ...]}
                                          -> {"ok": true, "accepted": k}
    {"op": "evict", "tenant": "a"}        -> final per-tenant summary
    {"op": "tenants"}                     -> per-tenant live state
    {"op": "stats"} / {"op": "health"} / {"op": "shutdown"}

``admit`` runs the full certificate path: the server's *plan factory*
builds a fresh per-tenant plan (fresh kernels — kernels hold RNG state
and are owned by one executor's threads) at the requested operating
point, and :class:`~repro.tenancy.admission.TenantAdmissionController`
accepts only if the tenant's plan is feasible and, for guaranteed
classes, the combined admitted load still fits the device.  An admitted
tenant gets its own Little's-law in-flight budget; ``submit`` enforces
it per tenant, so one tenant's overload cannot consume another's
headroom.  ``evict`` releases *all* tenant state — executor threads,
arbiter ledger, admission record — which the chaos churn scenario
exercises.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SpecError
from repro.serving.config import ServingConfig
from repro.serving.server import JsonLinesServer
from repro.tenancy.executor import MultiPipelineExecutor, TenantSpec

__all__ = ["MultiTenantIngestServer"]


class MultiTenantIngestServer:
    """Hardened JSON-lines ingest for a multi-tenant executor.

    Parameters
    ----------
    multi:
        The (started) :class:`MultiPipelineExecutor` to serve.
    plan_factory:
        ``(name, tau0, deadline) -> RuntimePlan`` building a fresh plan
        (with fresh kernels) for one tenant; ``tau0``/``deadline`` are
        None when the admit request leaves them to the factory default.
    """

    def __init__(
        self,
        multi: MultiPipelineExecutor,
        plan_factory,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        finish_on_shutdown: bool = True,
        config: ServingConfig | None = None,
    ) -> None:
        self.multi = multi
        self.plan_factory = plan_factory
        self.finish_on_shutdown = finish_on_shutdown
        self.accepted = 0
        self.overload_rejections = 0
        self._server = JsonLinesServer(
            self._handle,
            host=host,
            port=port,
            config=config,
            name="tenancy",
            health_extra=self._health_extra,
            on_drain=self._on_drain,
        )

    # -- delegated server surface -------------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def stats(self):
        return self._server.stats

    # -- request handling ----------------------------------------------------

    def _health_extra(self) -> dict:
        return {
            "active_tenants": len(self.multi.tenant_names),
            "accepted_items": self.accepted,
            "overload_rejections": self.overload_rejections,
            "admission": self.multi.admission.stats(),
        }

    def _admit(self, obj: dict) -> dict:
        tenant = obj.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise SpecError("admit needs a 'tenant' name")
        if tenant in self.multi.tenant_names:
            return {
                "ok": False,
                "retriable": False,
                "error": f"ServingError: tenant {tenant!r} already admitted",
            }
        qos = obj.get("qos", "best-effort")
        tau0 = obj.get("tau0")
        deadline = obj.get("deadline")
        if tau0 is not None and not (
            isinstance(tau0, (int, float)) and tau0 > 0
        ):
            raise SpecError(f"tau0 must be a positive number, got {tau0!r}")
        if deadline is not None and not (
            isinstance(deadline, (int, float)) and deadline > 0
        ):
            raise SpecError(
                f"deadline must be a positive number, got {deadline!r}"
            )
        plan = self.plan_factory(tenant, tau0, deadline)
        if not plan.feasible:
            # An unschedulable operating point rejects at the
            # certificate, mirroring the admission controller's reason.
            return {
                "ok": False,
                "retriable": False,
                "tenant": tenant,
                "error": (
                    "ServingError: operating point infeasible: "
                    f"{plan.outcome.solution.diagnosis}"
                ),
            }
        decision = self.multi.add_tenant(
            TenantSpec(name=tenant, plan=plan, qos=qos)
        )
        out = decision.as_dict()
        if not decision.admitted:
            out["error"] = f"ServingError: admission rejected: {out['reason']}"
        return out

    def _evict(self, obj: dict) -> dict:
        tenant = obj.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise SpecError("evict needs a 'tenant' name")
        report = self.multi.evict_tenant(tenant)
        if report is None:
            return {
                "ok": False,
                "retriable": False,
                "error": f"ServingError: unknown tenant {tenant!r}",
            }
        snap = report.telemetry
        return {
            "ok": True,
            "tenant": tenant,
            "items_ingested": snap.items_ingested,
            "outputs": snap.outputs,
            "missed_items": snap.missed_items,
        }

    def _submit(self, obj: dict) -> dict:
        tenant = obj.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise SpecError("submit needs a 'tenant' name")
        record = self.multi.admission.record(tenant)
        if record is None or tenant not in self.multi.tenant_names:
            return {
                "ok": False,
                "retriable": False,
                "error": f"ServingError: unknown tenant {tenant!r}",
            }
        items = obj.get("items")
        if not isinstance(items, list) or not items:
            raise SpecError("submit needs a non-empty 'items' array")
        payload = np.asarray(items)
        if payload.dtype == object:
            raise SpecError(
                "submit items must be scalars or fixed-width rows "
                "(ragged or mixed-type arrays are not ingestible)"
            )
        self.multi.executor(tenant).kernels[0].check_payload(payload)
        k = len(payload)
        in_flight = self.multi.in_flight(tenant)
        if in_flight + k > record.budget:
            self.overload_rejections += 1
            return {
                "ok": False,
                "retriable": True,
                "error": (
                    f"ServingError: tenant {tenant!r} admission rejected "
                    f"{k} items: {in_flight} in flight + {k} exceeds the "
                    f"certified budget {record.budget}; retry after backoff"
                ),
                "tenant": tenant,
                "in_flight": int(in_flight),
                "budget": int(record.budget),
            }
        self.multi.submit(tenant, payload)
        self.accepted += k
        return {"ok": True, "tenant": tenant, "accepted": int(k)}

    def _tenants_payload(self) -> dict:
        tenants = []
        for name in self.multi.tenant_names:
            record = self.multi.admission.record(name)
            tenants.append(
                {
                    "tenant": name,
                    "qos": record.qos.name if record is not None else None,
                    "budget": record.budget if record is not None else None,
                    "active_fraction": (
                        record.active_fraction if record is not None else None
                    ),
                    "in_flight": self.multi.in_flight(name),
                }
            )
        return {"op": "tenants", "tenants": tenants}

    def _stats_payload(self) -> dict:
        per_tenant = {}
        for name in self.multi.tenant_names:
            snap = self.multi.executor(name).snapshot()
            per_tenant[name] = {
                "items_ingested": snap.items_ingested,
                "outputs": snap.outputs,
                "in_flight": snap.in_flight,
                "missed_items": snap.missed_items,
                "miss_rate": snap.miss_rate,
            }
        payload = {
            "op": "stats",
            "tenants": per_tenant,
            "admission": self.multi.admission.stats(),
            "serving": self._server.stats.as_dict(),
        }
        if self.multi.arbiter is not None:
            device = self.multi.arbiter.telemetry()
            payload["device"] = {
                t.name: {"busy_seconds": t.busy_seconds, "grants": t.grants}
                for t in device.tenants
            }
        return payload

    async def _handle(self, obj: dict) -> dict:
        op = obj.get("op")
        if op == "submit":
            return self._submit(obj)
        if op == "admit":
            return self._admit(obj)
        if op == "evict":
            return self._evict(obj)
        if op == "tenants":
            return self._tenants_payload()
        if op == "stats":
            return self._stats_payload()
        if op == "shutdown":
            return {"op": "shutdown", "ok": True}
        raise SpecError(f"unknown op {op!r}")

    def _on_drain(self) -> None:
        if self.finish_on_shutdown:
            self.multi.finish_ingest()

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def start(self) -> "MultiTenantIngestServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()

    def join(self, timeout: float | None = None) -> bool:
        return self._server.join(timeout=timeout)
