"""``serve-blast``: the mini-BLAST kernels behind ``repro-run serve``.

The server runs in its own process (``perfbench/serve_server.py``, which
calls the unchanged ``repro-run serve --app blast`` entry point with
admission on and the default 5 ms service floor).  This process is the
one client: open loop, Poisson at half the plan's head rate, submits
pipelined on one connection and stats/shutdown on a second.  Kernel work
and the serving layer (JSON lines, asyncio, certificate admission)
dominate; runtime per-firing overhead is about 1% of a 5 ms period, so a
cut to it should move nothing here.
"""

from __future__ import annotations

import argparse
import json
import queue
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench.common import (
    ROOT,
    blocked_p99,
    gate,
    generator_metrics,
    median,
    output_latency_ms,
)

APP = "blast"
VECTOR_WIDTH = 8
WORKLOAD_SEED = 0  # the server's kernels; the bench seed only drives inputs
#: Offered rate as a multiple of the plan's tau0 (2.0 = half the planned
#: head rate).  At 1.15x the chain runs close to its planned rate, so a
#: stall of the server process (another process taking the CPU) leaves a
#: backlog it cannot work off: p50 went from 65 ms to 550 ms between
#: back-to-back runs on a 2-core host.  At 2.0x it recovers.
RATE_SCALE = 2.0
SETUP_REPEATS = 5
SERVER = ROOT / "perfbench" / "serve_server.py"
SERVE_ARGS = ["serve", "--app", APP, "--host", "127.0.0.1", "--port", "0",
              "--seed", str(WORKLOAD_SEED)]
START_TIMEOUT = 60.0
DRAIN_TIMEOUT = 60.0


class ServerProcess:
    """A ``repro-run serve`` child process and its output lines."""

    def __init__(self) -> None:
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), *SERVE_ARGS],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.plan = None
        self.port = None
        deadline = time.monotonic() + START_TIMEOUT
        while self.port is None:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise RuntimeError("server did not start in time") from None
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            if line.startswith("PERFBENCH-PLAN "):
                self.plan = json.loads(line.split(" ", 1)[1])
            elif line.startswith("repro-run serving "):
                self.port = int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        self.setup_s = time.perf_counter() - self.t_start

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def finish(self) -> list[str]:
        """Wait for exit after a shutdown op; the remaining output lines."""
        try:
            self.proc.wait(timeout=DRAIN_TIMEOUT)
        finally:
            self.kill()
        self._reader.join(timeout=10.0)
        out = []
        while True:
            line = self.lines.get()
            if line is None:
                return out
            out.append(line)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Connection:
    """One JSON-lines connection; replies are read on a thread."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=DRAIN_TIMEOUT)
        self.rfile = self.sock.makefile("rb")
        self.replies: list[tuple[float, dict]] = []
        self._done = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        try:
            for line in self.rfile:
                self.replies.append((time.perf_counter(), json.loads(line)))
        except OSError:
            pass
        finally:
            self._done.set()

    def send(self, obj: dict) -> None:
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def request(self, obj: dict) -> dict:
        """Send and wait for this request's reply (no other in flight)."""
        n = len(self.replies)
        self.send(obj)
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while len(self.replies) <= n:
            if time.monotonic() > deadline or self._done.is_set():
                raise RuntimeError(f"no reply to {obj}")
            time.sleep(0.001)
        return self.replies[n][1]

    def wait_replies(self, n: int) -> None:
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while len(self.replies) < n:
            if time.monotonic() > deadline or self._done.is_set():
                raise RuntimeError(f"only {len(self.replies)} of {n} replies")
            time.sleep(0.005)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10.0)


def drive(port: int, tau0: float, seconds: float, rng, sample):
    """Open-loop Poisson load on one connection, then drain via a second.

    Returns the requests (due time, rows), their replies, the server's
    final stats, and the load's start time on the monotonic clock.
    """
    rate = 1.0 / (RATE_SCALE * tau0)
    n = int(rate * seconds * 1.3) + 64
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    due = due[due < seconds]
    load = Connection(port)
    control = Connection(port)
    requests = []  # (first item's due time, rows)
    lag = np.empty(due.size)
    try:
        t0 = time.perf_counter()
        i = 0
        while i < due.size:
            now = time.perf_counter() - t0
            j = int(np.searchsorted(due, now, side="right"))
            if j <= i:
                time.sleep(max(0.0, due[i] - now))
                continue
            rows = sample(j - i, rng)
            load.send({"op": "submit", "items": rows.tolist()})
            lag[i:j] = time.perf_counter() - t0 - due[i:j]
            requests.append((due[i:j], rows))
            i = j
        load.wait_replies(len(requests))
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while True:
            stats = control.request({"op": "stats"})
            if stats["in_flight"] == 0 or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        control.request({"op": "shutdown"})
    finally:
        load.close()
        control.close()
    return requests, load.replies, stats, t0, lag


def reference_outputs(rows: np.ndarray) -> int:
    """Outputs of ``rows`` pushed through fresh blast kernels offline."""
    from repro.runtime.kernels import build_workload

    kernels = build_workload(APP, seed=WORKLOAD_SEED).kernels
    total = 0
    for start in range(0, len(rows), 256):
        batch = rows[start:start + 256]
        for kernel in kernels:
            if len(batch) == 0:
                break
            _, batch = kernel.fire(batch)
        total += len(batch)
    return total


def measure(requests, replies, stats, t0, exits, seconds: float) -> dict:
    """Correctness gates and metrics of one served load."""
    accepted_due, accepted_rows = [], []
    refused = 0
    submit_ms = []
    for (due, rows), (at, reply) in zip(requests, replies):
        submit_ms.append((at - t0 - due[0]) * 1e3)
        if reply.get("ok"):
            gate(reply["accepted"] == len(rows), "partial accept")
            accepted_due.append(due)
            accepted_rows.append(rows)
        else:
            refused += len(rows)
    due = np.concatenate(accepted_due)
    rows = np.concatenate(accepted_rows)
    gate(stats["in_flight"] == 0, f"{stats['in_flight']} items still in flight")
    gate(stats["items_ingested"] == len(rows), "server ingested a different item count than it accepted")
    expected = reference_outputs(rows)
    gate(
        stats["outputs"] == expected,
        f"server produced {stats['outputs']} outputs, offline kernels {expected}",
    )
    latency_ms = output_latency_ms(exits, due, t0)
    attempted = sum(len(r) for _, r in requests)
    missed = stats["missed_items"]
    return {
        "latency_ms": latency_ms,
        "submit_ms": np.asarray(submit_ms),
        "attempted": attempted,
        "refused": refused,
        "missed": missed,
        "goodput": (attempted - refused - missed) / seconds,
        "active_fraction": stats["measured_active_fraction"],
        "errors": stats["serving"]["errors"],
    }


def sampler():
    from repro.runtime.kernels import build_workload

    return build_workload(APP, seed=WORKLOAD_SEED).sample_payload


def run(seed: int, seconds: float) -> dict:
    """Untraced run: start the server a few times, then serve the load."""
    servers = []
    try:
        for k in range(SETUP_REPEATS):
            servers.append(ServerProcess())
            if k + 1 < SETUP_REPEATS:
                conn = Connection(servers[-1].port)
                conn.request({"op": "shutdown"})
                conn.close()
                servers[-1].finish()
        server = servers[-1]
        sample = sampler()
        rng = np.random.default_rng([seed, 4])
        requests, replies, stats, t0, lag = drive(
            server.port, server.plan["tau0"], seconds, rng, sample
        )
        tail = server.finish()
    finally:
        for s in servers:
            s.kill()
    exits = next(
        json.loads(line.split(" ", 1)[1])
        for line in tail
        if line.startswith("PERFBENCH-EXITS ")
    )
    m = measure(requests, replies, stats, t0, exits, seconds)
    return {
        "setup_s": median([s.setup_s for s in servers]),
        "latency_p50_ms": median(m["latency_ms"]),
        "latency_p99_ms": blocked_p99(m["latency_ms"]),
        "throughput_items_s": m["goodput"],
        "active_fraction": m["active_fraction"],
        "_detail": {
            "submit_p50_ms": median(m["submit_ms"]),
            "submit_p99_ms": blocked_p99(m["submit_ms"]),
            "miss_rate": (m["missed"] + m["refused"]) / m["attempted"],
            "refused_items": m["refused"],
            "requests": len(requests),
            "deadline_ms": server.plan["deadline"] * 1e3,
            "tau0_ms": server.plan["tau0"] * 1e3,
            **generator_metrics(lag),
        },
        "_attempted": m["attempted"],
        "_failed": m["refused"] + m["errors"],
    }


def in_process_server():
    """``IngestServer`` and ``PipelineExecutor`` built as ``repro-run serve`` does."""
    from repro.runtime.executor import PipelineExecutor
    from repro.runtime.ingest import IngestServer
    from repro.runtime.kernels import build_workload, plan_runtime
    from repro.serving import AdmissionController, budget_from_event, budget_from_plan
    from repro.serving.config import add_serving_arguments, serving_config_from_args

    parser = argparse.ArgumentParser()
    add_serving_arguments(parser)
    config = serving_config_from_args(parser.parse_args([]))
    plan = plan_runtime(build_workload(APP, seed=WORKLOAD_SEED), vector_width=VECTOR_WIDTH, seed=WORKLOAD_SEED)
    admission = AdmissionController(budget_from_plan(plan, slack_vectors=2.0))

    def on_replan(event):
        admission.set_budget(budget_from_event(plan, event, slack_vectors=2.0))

    executor = PipelineExecutor.from_plan(plan, on_replan=on_replan)
    executor.start()
    server = IngestServer(executor, host="127.0.0.1", port=0, config=config, admission=admission)
    server.start()
    return plan, executor, server


def serve_in_process(seed: int, seconds: float):
    """Serve one load against an in-process server; (report, stats, lag, server)."""
    plan, executor, server = in_process_server()
    try:
        rng = np.random.default_rng([seed, 4])
        requests, replies, stats, t0, lag = drive(
            server.port, plan.problem.tau0, seconds, rng, sampler()
        )
        server.join(timeout=DRAIN_TIMEOUT)
    finally:
        server.stop()
        executor.finish_ingest()
        report = executor.join(timeout=DRAIN_TIMEOUT)
    return report, stats, lag, server


def traced(seed: int, seconds: float) -> dict:
    """The served load in-process, untraced and then traced.

    ``IngestServer`` and ``PipelineExecutor`` are built exactly as
    ``repro-run serve`` builds them, so the serving handler and the node
    threads are visible to the tracer.
    """
    from perfbench import layers
    from perfbench.live import single_thread_items_s
    from perfbench.trace import Tracer, installed

    load_s = max(3.0, 0.3 * seconds)
    cpu = time.process_time()
    plain, _, lag, _ = serve_in_process(seed, load_s)
    cpu_plain = time.process_time() - cpu
    tracer = Tracer()
    cpu = time.process_time()
    with installed(tracer):
        report, stats, _, server = serve_in_process(seed, load_s)
    cpu_traced = time.process_time() - cpu
    out = layers.from_tracer(tracer)
    out.update(layers.from_report(plain, VECTOR_WIDTH))
    out.update(layers.closure(tracer, report))
    admission = stats.get("admission", {})
    offered = admission.get("admitted_items", 0) + admission.get("rejected_items", 0)
    out["serving.admission.reject_ratio"] = (
        admission.get("rejected_items", 0) / offered if offered else 0.0
    )
    out["serving.errors"] = server.stats.errors
    out["serving.timeouts"] = server.stats.deadline_timeouts + server.stats.idle_timeouts
    out["runtime.single_thread_items_s"] = single_thread_items_s(4000, seed, APP)
    out.update(generator_metrics(lag))
    out["trace.overhead_share"] = cpu_traced / cpu_plain - 1.0
    return {"layers": out, "tracer": tracer}
