"""Network chaos clients for hardening tests.

Each helper here is a deliberately *badly behaved* client aimed at a
JSON-lines server: a slow-loris writer that trickles a request forever,
an oversized frame, raw garbage, a mid-request disconnect, and a
many-client flood.  The chaos test suite
(``tests/test_serving_chaos.py``) and the tenancy frontend tests drive
servers through these and then assert the server is still healthy —
zero crashes, bounded queues, clean drains — via the
``{"op": "health"}`` probe.

Everything is plain blocking-socket code on purpose: the attackers must
not share an event loop (or any failure mode) with the asyncio servers
they abuse.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "request_once",
    "send_raw_lines",
    "slow_loris",
    "oversized_frame",
    "disconnect_mid_request",
    "FloodResult",
    "flood",
    "ChurnResult",
    "tenant_churn",
]


def request_once(
    host: str, port: int, obj: dict, *, timeout: float = 10.0
) -> dict:
    """One well-formed request on a fresh connection (health probes)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        fh = sock.makefile("rwb")
        fh.write((json.dumps(obj) + "\n").encode())
        fh.flush()
        line = fh.readline()
        if not line:
            raise ConnectionError("server closed without replying")
        return json.loads(line)


def send_raw_lines(
    host: str,
    port: int,
    lines: list[bytes],
    *,
    timeout: float = 10.0,
) -> list[dict | None]:
    """Send raw byte lines on one connection; collect per-line replies.

    A ``None`` entry means the server closed before replying to that
    line (expected after a fatal frame).
    """
    replies: list[dict | None] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        fh = sock.makefile("rwb")
        for raw in lines:
            if not raw.endswith(b"\n"):
                raw += b"\n"
            try:
                fh.write(raw)
                fh.flush()
                reply = fh.readline()
            except OSError:
                replies.append(None)
                break
            replies.append(json.loads(reply) if reply else None)
            if reply == b"":
                break
    return replies


def slow_loris(
    host: str,
    port: int,
    *,
    payload: bytes = b'{"op": "stats"}',
    byte_interval: float = 0.05,
    max_bytes: int | None = None,
    timeout: float = 30.0,
) -> dict | None:
    """Trickle a request one byte at a time, never sending the newline.

    Returns the server's structured reply if it kicked us with one (the
    idle-timeout response), or ``None`` if the connection just closed.
    The helper stops early once the server hangs up.
    """
    body = payload if max_bytes is None else payload[:max_bytes]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        fh = sock.makefile("rwb")
        try:
            for i in range(len(body)):
                fh.write(body[i : i + 1])
                fh.flush()
                time.sleep(byte_interval)
        except OSError:
            pass  # server gave up on us mid-trickle
        try:
            line = fh.readline()
        except OSError:
            return None
        return json.loads(line) if line else None


def oversized_frame(
    host: str,
    port: int,
    *,
    nbytes: int,
    timeout: float = 10.0,
) -> dict | None:
    """Send one giant line; returns the server's structured error reply."""
    blob = b'{"op": "submit", "items": [' + b"1," * (nbytes // 2) + b"1]}\n"
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        fh = sock.makefile("rwb")
        try:
            fh.write(blob)
            fh.flush()
        except OSError:
            return None  # server cut the connection mid-send
        try:
            line = fh.readline()
        except OSError:
            return None
        return json.loads(line) if line else None


def disconnect_mid_request(
    host: str,
    port: int,
    *,
    partial: bytes = b'{"op": "submit", "items": [1, 2,',
    timeout: float = 10.0,
) -> None:
    """Write half a request and hang up without the newline."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(partial)
    # context-manager close = abrupt disconnect from the server's view


@dataclass
class FloodResult:
    """Aggregate outcome of a many-client flood."""

    sent: int = 0
    ok: int = 0
    overload: int = 0
    errors: int = 0
    transport_failures: int = 0
    latencies: list[float] = field(default_factory=list)
    exceptions: list[str] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return self.ok + self.overload + self.errors

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return float("nan")
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]


def flood(
    host: str,
    port: int,
    *,
    clients: int,
    requests_per_client: int,
    build_request,
    timeout: float = 30.0,
) -> FloodResult:
    """Hammer the server with ``clients`` concurrent connections.

    ``build_request(client_index, request_index) -> dict`` produces each
    request.  Every client holds one persistent connection and issues
    its requests back to back; per-request wall-clock latencies are
    pooled.  Unexpected client-side exceptions are *recorded*, not
    raised — the caller asserts on the aggregate.
    """
    result = FloodResult()
    lock = threading.Lock()

    def one_client(ci: int) -> None:
        try:
            with socket.create_connection(
                (host, port), timeout=timeout
            ) as sock:
                sock.settimeout(timeout)
                fh = sock.makefile("rwb")
                for ri in range(requests_per_client):
                    obj = build_request(ci, ri)
                    t0 = time.perf_counter()
                    fh.write((json.dumps(obj) + "\n").encode())
                    fh.flush()
                    line = fh.readline()
                    dt = time.perf_counter() - t0
                    with lock:
                        result.sent += 1
                        if not line:
                            result.transport_failures += 1
                            return
                        reply = json.loads(line)
                        result.latencies.append(dt)
                        if reply.get("retriable") and (
                            reply.get("ok") is False or "error" in reply
                        ):
                            result.overload += 1
                        elif "error" in reply:
                            result.errors += 1
                        else:
                            result.ok += 1
        except Exception as exc:
            with lock:
                result.transport_failures += 1
                result.exceptions.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=one_client, args=(ci,), daemon=True)
        for ci in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 30.0)
    return result


@dataclass
class ChurnResult:
    """Aggregate outcome of a :func:`tenant_churn` run."""

    cycles: int = 0
    admitted: int = 0
    admit_rejected: int = 0
    submit_ok: int = 0
    submit_rejected: int = 0
    evicted: int = 0
    evict_failures: int = 0
    errors: int = 0
    transport_failures: int = 0
    exceptions: list[str] = field(default_factory=list)


def tenant_churn(
    host: str,
    port: int,
    *,
    clients: int,
    cycles: int,
    build_admit,
    build_submit=None,
    submits_per_cycle: int = 1,
    timeout: float = 30.0,
) -> ChurnResult:
    """Rapid connect/admit/submit/evict cycles against a tenancy server.

    Each of ``clients`` concurrent threads runs ``cycles`` full tenant
    lifecycles on *fresh connections* (connection churn is part of the
    chaos): admit a uniquely named tenant via ``build_admit(client,
    cycle) -> dict`` (an ``{"op": "admit", ...}`` request), optionally
    submit ``submits_per_cycle`` batches via ``build_submit(client,
    cycle, tenant) -> dict``, then evict the tenant.  Admission
    rejections (capacity) and submit rejections (budget) are expected
    outcomes, counted rather than raised; what must *never* happen —
    and what the chaos test asserts via the aggregate — is a transport
    failure, an unstructured error, or a failed evict of a tenant that
    was admitted (state leak).
    """
    result = ChurnResult()
    lock = threading.Lock()

    def one_request(obj: dict) -> dict:
        return request_once(host, port, obj, timeout=timeout)

    def one_client(ci: int) -> None:
        for cy in range(cycles):
            admitted = False
            tenant = None
            try:
                admit = build_admit(ci, cy)
                tenant = admit.get("tenant")
                reply = one_request(admit)
                with lock:
                    result.cycles += 1
                if reply.get("ok"):
                    admitted = True
                    with lock:
                        result.admitted += 1
                elif reply.get("retriable") or "reason" in reply:
                    with lock:
                        result.admit_rejected += 1
                else:
                    with lock:
                        result.errors += 1
                    continue
                if not admitted:
                    continue
                for _ in range(submits_per_cycle):
                    if build_submit is None:
                        break
                    sreply = one_request(build_submit(ci, cy, tenant))
                    with lock:
                        if sreply.get("ok"):
                            result.submit_ok += 1
                        elif sreply.get("retriable"):
                            result.submit_rejected += 1
                        else:
                            result.errors += 1
            except Exception as exc:
                with lock:
                    result.transport_failures += 1
                    result.exceptions.append(f"{type(exc).__name__}: {exc}")
            finally:
                if admitted and tenant is not None:
                    try:
                        ereply = one_request(
                            {"op": "evict", "tenant": tenant}
                        )
                        with lock:
                            if ereply.get("ok"):
                                result.evicted += 1
                            else:
                                result.evict_failures += 1
                    except Exception as exc:
                        with lock:
                            result.transport_failures += 1
                            result.exceptions.append(
                                f"{type(exc).__name__}: {exc}"
                            )

    threads = [
        threading.Thread(target=one_client, args=(ci,), daemon=True)
        for ci in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout * cycles + 30.0)
    return result
