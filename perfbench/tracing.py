"""In-memory tracing for the benchmark's traced runs.

Two kinds of records, both kept in memory and written out once at the
end of a run:

* **spans** — stage- and batch-level intervals (name, start, end,
  parent), opened by the benchmark around its calls into the program;
* **call tallies** — per-edge functions of the program are wrapped so
  every call adds to a count and a total time.  One span per edge would
  cost more than the work it measures.

Wrapping replaces a public function or method by a timing shim for the
life of the process.  A function that does not exist (removed or
renamed by a later change) is skipped: it has no tally, and ``run.py``
prints its metric as 0, like that of a layer the workload never calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``metric -> [(module, "Class.attr" or "function"), ...]`` of the
#: program functions timed per call in a traced run.
CALL_TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "partitioning.select": [
        ("repro.partitioning.hashing", "HashPartitioner.select_partition"),
        ("repro.partitioning.hdrf", "HDRFPartitioner.select_partition"),
        ("repro.partitioning.dbh", "DBHPartitioner.select_partition"),
    ],
    "partitioning.state.observe": [
        ("repro.partitioning.state", "PartitionState.observe_degrees"),
        ("repro.partitioning.fast_state", "FastPartitionState.observe_degrees"),
    ],
    "partitioning.state.assign": [
        ("repro.partitioning.state", "PartitionState.assign"),
        ("repro.partitioning.fast_state", "FastPartitionState.assign"),
    ],
    "partitioning.io.write": [
        ("repro.partitioning.partition_io", "write_assignments"),
    ],
    "graph.io.read_graph": [
        ("repro.graph.io", "read_graph"),
    ],
    "graph.shard.build": [
        ("repro.graph.shard", "ShardedGraph.from_assignments"),
    ],
    "core.window.refill": [
        ("repro.core.window", "EdgeWindow.add_block"),
        ("repro.core.array_window", "ArrayEdgeWindow.add_block"),
    ],
    "core.window.pop": [
        ("repro.core.window", "EdgeWindow.pop_best"),
        ("repro.core.array_window", "ArrayEdgeWindow.pop_best"),
    ],
    "core.window.rescore": [
        ("repro.core.window", "EdgeWindow.on_replicas_changed"),
        ("repro.core.array_window", "ArrayEdgeWindow.on_replicas_changed"),
    ],
    "core.scoring.lambda": [
        ("repro.core.scoring", "AdwiseScoring.after_assignment"),
    ],
    "core.adaptive.record": [
        ("repro.core.adaptive", "AdaptiveWindowController.record"),
    ],
    "cluster.compute": [
        ("repro.cluster.transport", "ShardRunner.step"),
    ],
    "cluster.sync": [
        ("repro.cluster.transport", "ShardGroup.collect_gathers"),
        ("repro.cluster.transport", "ShardGroup.apply_gathers"),
        ("repro.cluster.transport", "ShardGroup.collect_scatters"),
        ("repro.cluster.transport", "ShardGroup.apply_scatters"),
    ],
}


class Recorder:
    """Spans plus per-call tallies of one traced process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.calls: Dict[str, List[int]] = {}  # metric -> [count, ns]
        self._open: List[int] = []  # indices of live spans (nesting)
        self._depth: Dict[str, int] = {}

    # -- spans ------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[int] = None, **attrs) -> int:
        """Record an interval measured elsewhere (e.g. send-to-ack)."""
        record = {"name": name, "start": start, "end": end,
                  "parent": parent}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        return len(self.spans) - 1

    # -- per-call tallies ------------------------------------------
    def _timed(self, metric: str, fn: Callable,
               probe: Optional[Callable] = None) -> Callable:
        tally = self.calls.setdefault(metric, [0, 0])
        depth = self._depth
        depth.setdefault(metric, 0)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if depth[metric]:  # an overriding method calling its base
                return fn(*args, **kwargs)
            if probe is not None:
                probe(*args, **kwargs)
            depth[metric] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += clock() - start
                tally[0] += 1
                depth[metric] = 0
        return shim

    def wrap(self, metric: str, module_name: str, path: str,
             probe: Optional[Callable] = None) -> bool:
        """Time every call of ``module.path``; False if it is absent."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return False
        if owner_name:
            # Only what the class itself defines: wrapping an inherited
            # attribute would time the base class's callers twice.
            raw = vars(owner).get(attr)
        else:
            raw = getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self._timed(metric, raw.__func__, probe)))
        else:
            setattr(owner, attr, self._timed(metric, raw, probe))
        return True

    def wrap_all(self, metrics: Sequence[str],
                 probes: Optional[Dict[str, Callable]] = None) -> None:
        probes = probes or {}
        for metric in metrics:
            for module_name, path in CALL_TARGETS[metric]:
                self.wrap(metric, module_name, path, probes.get(metric))

    # -- results ----------------------------------------------------
    def call_metrics(self) -> Dict[str, Tuple[int, float]]:
        """``metric -> (calls, seconds)`` for functions actually called."""
        return {metric: (count, ns / 1e9)
                for metric, (count, ns) in self.calls.items() if count}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {"spans": self.spans,
                   "calls": {m: {"count": c, "seconds": s}
                             for m, (c, s) in self.call_metrics().items()}}
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
