"""The ``service-wal`` workload: the ``adwise serve`` daemon under load.

The daemon runs as its own process with ``--wal-dir`` and its default
fsync and compaction settings.  This (generator) process opens two
connections, each owning one tenant — one ``hdrf``, one ``dbh`` — and
drives each as a closed loop, the way ``ServiceClient.ingest_async`` /
``drain`` is meant to be used: ``DEPTH`` batches of ``BATCH`` edges stay
in flight; after each ack the next batch goes out, then one edge of the
acked batch and one of its endpoints are queried.  A round opens fresh
tenants, streams the whole edge list through each and finalizes both.

Both loops run in this process's one thread, taking turns ack by ack,
so the load is two processes (generator and daemon) on two connections.
Two generator threads contending for the interpreter lock made a
round's time swing by a third between runs while the daemon's own
per-batch time stayed within a few percent.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import checks
from common import (CHILD_TIMEOUT_S, HERE, PROGRAM_ERRORS, child_env,
                    median, more_rounds)

BATCH = 128
DEPTH = 4
PARTITIONS = 32
TENANTS = ("hdrf", "dbh")  # one tenant of each algorithm per round
START_TIMEOUT_S = 60.0
#: Rounds per untraced run: 2 x 2 x 250 batches put >= 10 acks above p99.
MIN_ROUNDS = 2


@contextmanager
def one_cpu():
    """Pin this process, and every daemon it starts meanwhile, to one CPU.

    The closed loop hands each request back and forth between generator
    and daemon.  With a CPU each, every hand-off wakes an idle vCPU, and
    on a shared host that wake-up latency set a round's time: rounds
    ranged over 2x while the daemon's own per-batch time moved far
    less.  On one CPU a hand-off is a context switch, and a round costs
    the two processes' CPU time.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _client_class():
    from repro.service.client import ServiceClient

    class TimedClient(ServiceClient):
        """Stamps each response with its arrival time, so a batch's ack
        time does not include queries the loop issued meanwhile."""

        def __init__(self, *args, **kwargs) -> None:
            self.received_at: Dict[int, float] = {}
            super().__init__(*args, **kwargs)

        def _read_one(self) -> dict:
            response = super()._read_one()
            self.received_at[response.get("id")] = time.perf_counter()
            return response

    return TimedClient


class Daemon:
    """One daemon process; ``t0`` is taken just before the spawn."""

    def __init__(self, work: str, name: str, traced: bool = False,
                 serve_args=()) -> None:
        self.dir = os.path.join(work, name)
        os.makedirs(self.dir)
        self.calls_path = os.path.join(self.dir, "calls.json")
        self.spans_path = os.path.join(self.dir, "spans.jsonl")
        serve = ["serve", "--port", "0",
                 "--wal-dir", os.path.join(self.dir, "wal"), *serve_args]
        if traced:
            args = [os.path.join(HERE, "serve.py"), self.calls_path, *serve]
            env = child_env(work, obs_trace_file=self.spans_path)
        else:
            args = ["-m", "repro.cli", *serve]
            env = child_env(work)
        self.stderr = open(os.path.join(self.dir, "stderr.log"), "wb")
        self.peak_rss_mb: Optional[float] = None
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen([sys.executable, *args], env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self.stderr)
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        line = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith(b"listening on "):
                    address = line.split()[2].decode()
                    return int(address.rsplit(":", 1)[1])
                if not line:
                    break
            elif self.proc.poll() is not None:
                break
        self.kill()
        raise RuntimeError(f"daemon did not start listening: {line!r}")

    def shutdown(self, client) -> None:
        try:
            client.shutdown()
        finally:
            client.close()
            try:
                self._reap(CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise
            finally:
                self.proc.stdout.close()
                self.stderr.close()

    def _reap(self, timeout: float) -> None:
        """Wait for the daemon to exit and keep its own peak RSS."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                return
            if time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(self.proc.args, timeout)
            time.sleep(0.01)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


class Loop:
    """One tenant's closed loop on its own connection."""

    def __init__(self, client, tenant: str, edges: List[Tuple[int, int]],
                 recorder=None, parent: Optional[int] = None) -> None:
        self.client = client
        self.tenant = tenant
        self.edges = edges
        self.recorder = recorder
        self.parent = parent
        self.acks: List[Tuple[int, int, int]] = []
        self.ack_ms: List[float] = []
        self.query_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.error: Optional[BaseException] = None
        self.check_error: Optional[checks.CheckFailed] = None
        self.first_send = self.last_ack = self.finalized_at = 0.0
        self.stats: dict = {}
        self.final: dict = {}

    def steps(self):
        """The closed loop as a generator: one step per acked batch."""
        client, tenant = self.client, self.tenant
        batches = [self.edges[i:i + BATCH]
                   for i in range(0, len(self.edges), BATCH)]
        inflight = []
        clock = time.perf_counter
        self.first_send = clock()
        next_batch = 0
        while next_batch < len(batches) and len(inflight) < DEPTH:
            inflight.append((client.ingest_async(tenant,
                                                 batches[next_batch]),
                             clock(), next_batch))
            self.attempted += 1
            next_batch += 1
        while inflight:
            request_id, sent_at, index = inflight.pop(0)
            acked = client.drain([request_id])
            received = client.received_at.pop(request_id)
            self.ack_ms.append((received - sent_at) * 1000.0)
            self.acks.extend(acked)
            self.last_ack = received
            if self.recorder is not None:
                self.recorder.add_span("service.batch", sent_at, received,
                                       parent=self.parent,
                                       tenant=tenant, batch=index)
            if next_batch < len(batches):
                inflight.append((client.ingest_async(tenant,
                                                     batches[next_batch]),
                                 clock(), next_batch))
                self.attempted += 1
                next_batch += 1
            u, v, p = acked[index % len(acked)]
            start = clock()
            answered = client.query_edge(tenant, u, v)
            middle = clock()
            replicas = client.query_vertex(tenant, u)
            self.query_ms.append((middle - start) * 1000.0)
            self.query_ms.append((clock() - middle) * 1000.0)
            self.attempted += 2
            checks.check_query((u, v), p, answered, replicas)
            yield
        self.stats = client.stats(tenant)
        self.attempted += 1
        self.final = client.finalize(tenant)
        self.attempted += 1
        self.finalized_at = clock()


def drive(loops: List[Loop]) -> None:
    """Run the loops' steps in turn until every loop has ended.  A wrong
    answer ends its loop with a check error; a failed request ends it
    with an error, which the round counts as failed."""
    active = [(loop, loop.steps()) for loop in loops]
    while active:
        for entry in list(active):
            loop, steps = entry
            try:
                next(steps)
                continue
            except StopIteration:
                pass
            except checks.CheckFailed as exc:
                loop.check_error = exc
            except Exception as exc:
                loop.error = exc
                loop.failed += 1
            active.remove(entry)


def round_operations(edges_per_tenant: int) -> int:
    """Requests of one whole round: per tenant an open, one ingest and
    two queries per batch, a ``stats`` and a ``finalize``."""
    batches = math.ceil(edges_per_tenant / BATCH)
    return len(TENANTS) * (1 + 3 * batches + 2)


def lost(operations: int, error: BaseException) -> dict:
    """Requests that could not run at all (no daemon, no connection, a
    hung loop, a failed shutdown): each one counts as failed."""
    return {"attempted": operations, "failed": operations,
            "errors": [repr(error)], "ack_ms": [], "query_ms": []}


def open_tenants(TimedClient, port: int, round_index: int) -> List:
    """Connect and open one tenant per connection; returns the clients
    and tenant names."""
    opened = []
    for algorithm in TENANTS:
        client = TimedClient(port=port, timeout=CHILD_TIMEOUT_S)
        name = f"{algorithm}-{round_index}"
        client.open(name, algorithm=algorithm, partitions=PARTITIONS)
        opened.append((client, name))
    return opened


def run_round(opened, edges, recorder=None) -> dict:
    """Both tenants' loops, taking turns, then the round's checks."""
    parent = None
    if recorder is not None:
        parent = recorder.add_span("service.round", 0.0, 0.0)
    loops = [Loop(client, name, edges, recorder, parent)
             for client, name in opened]
    drive(loops)
    for client, _ in opened:
        client.close()
    for loop in loops:
        if loop.check_error is not None:
            raise loop.check_error
    start = min(loop.first_send for loop in loops)
    end = max(loop.finalized_at for loop in loops)
    if recorder is not None:
        recorder.spans[parent].update(start=start, end=end)
    out = {"attempted": sum(loop.attempted for loop in loops) + len(loops),
           "failed": sum(loop.failed for loop in loops),
           "errors": [repr(loop.error) for loop in loops if loop.error],
           "total_s": end - start,
           "ingest_s": max(loop.last_ack for loop in loops) - start,
           "edges": sum(len(loop.acks) for loop in loops),
           "ack_ms": [x for loop in loops for x in loop.ack_ms],
           "query_ms": [x for loop in loops for x in loop.query_ms],
           "tenants": {}}
    for algorithm, loop in zip(TENANTS, loops):
        if loop.error is not None:
            continue
        placed = checks.check_acks(edges, loop.acks,
                                   loop.final["assignments"], PARTITIONS)
        rows = checks.np.array([(u, v, p) for (u, v), p in placed.items()],
                               dtype=checks.np.int64)
        replication = checks.check_replication(
            loop.final["replication_degree"], rows)
        if algorithm == "hdrf":
            checks.check_balance(rows, PARTITIONS)
        metrics = loop.stats.get("metrics", {})
        out["tenants"][algorithm] = {
            "replication_degree": replication,
            "batches": metrics.get("batches", 0),
            "batch_p50_ms": metrics.get("p50_ingest_ms"),
            "ack_p50_ms": median(loop.ack_ms),
            "queue_high_water": metrics.get("queue_high_water"),
        }
    return out


def _wal_counters(metrics_text: str) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for line in metrics_text.splitlines():
        if line.startswith("repro_wal_"):
            name, _, value = line.rpartition(" ")
            base = name.split("{", 1)[0]
            totals[base] = totals.get(base, 0.0) + float(value)
    return totals


def _apply_seconds(spans_path: str) -> Optional[float]:
    if not os.path.exists(spans_path):
        return None
    total_us = 0
    found = False
    with open(spans_path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("name") == "service.apply_batch":
                total_us += record["dur_us"]
                found = True
    return total_us / 1e6 if found else None


def setup_sample(work: str, name: str) -> float:
    """Spawn a daemon, open both tenants, shut it down: set-up time."""
    TimedClient = _client_class()
    daemon = Daemon(work, name)
    try:
        opened = open_tenants(TimedClient, daemon.port, 0)
        setup = time.monotonic() - daemon.t0
    except BaseException:
        daemon.kill()
        raise
    for client, _ in opened[1:]:
        client.close()
    daemon.shutdown(opened[0][0])
    shutil.rmtree(daemon.dir, ignore_errors=True)
    return setup


def run_session(work: str, name: str, edges, seconds: float,
                traced: bool = False, recorder=None,
                max_rounds: Optional[int] = None, serve_args=()) -> dict:
    """One daemon: at least ``MIN_ROUNDS`` rounds (so the ack p99 has ten
    samples beyond it), then more while the next one still fits in
    ``seconds``, and at most ``max_rounds``.  Returns per-round results
    plus set-up.  A round the program fails is counted as lost and ends
    the session."""
    TimedClient = _client_class()
    out = {"setup_s": None, "rounds": [], "peak_rss_mb": None}
    try:
        daemon = Daemon(work, name, traced=traced, serve_args=serve_args)
    except PROGRAM_ERRORS as exc:
        out["rounds"].append(lost(round_operations(len(edges)), exc))
        return out
    rounds = out["rounds"]
    try:
        begin = time.monotonic()
        while True:
            started = time.monotonic()
            try:
                opened = open_tenants(TimedClient, daemon.port, len(rounds))
                if not rounds:
                    out["setup_s"] = time.monotonic() - daemon.t0
                rounds.append(run_round(opened, edges, recorder))
            except PROGRAM_ERRORS as exc:
                rounds.append(lost(round_operations(len(edges)), exc))
                daemon.kill()
                return out
            if rounds[-1]["failed"]:
                daemon.kill()
                return out
            if max_rounds is not None and len(rounds) >= max_rounds:
                break
            if len(rounds) >= MIN_ROUNDS and not more_rounds(
                    begin, time.monotonic() - started, seconds):
                break
        control = TimedClient(port=daemon.port, timeout=CHILD_TIMEOUT_S)
        metrics_text = control.metrics_text() if traced else ""
        daemon.shutdown(control)
    except PROGRAM_ERRORS as exc:  # the shutdown request failed
        daemon.kill()
        rounds.append(lost(1, exc))
        return out
    except BaseException:
        daemon.kill()
        raise
    out["peak_rss_mb"] = daemon.peak_rss_mb
    if traced:
        out["wal"] = _wal_counters(metrics_text)
        out["apply_s"] = _apply_seconds(daemon.spans_path)
        if os.path.exists(daemon.calls_path):
            with open(daemon.calls_path, "r", encoding="utf-8") as handle:
                out["calls"] = json.load(handle)
    return out
