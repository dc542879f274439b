"""One run of a partition-then-process pipeline, in its own process.

Started by ``run.py`` for the ``adwise-brain`` and ``hash-pagerank``
workloads.  Everything the program does happens here, through its
public entry points, so the process's peak RSS is the program's:

1. build a default-constructed partitioner and resolve the kernel
   backend (set-up);
2. parse the edge file through ``FileEdgeStream`` while partitioning it;
3. ``write_assignments``;
4. ``read_graph``, ``ShardedGraph.from_assignments`` and 100 PageRank
   iterations on ``ClusterEngine``'s default serial backend.

Usage: ``pipeline.py CONFIG RESULT --t0 T [--setup-only] [--trace]``,
where ``T`` is the parent's ``time.monotonic()`` just before it started
this process.  The result (timings, program-reported quality, outputs'
paths) is written as JSON to ``RESULT``; with ``--trace`` the per-call
tallies and spans go to the trace path named in the config.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager

def build_partitioner(config: dict):
    partitions = range(config["partitions"])
    if config["algorithm"] == "adwise":
        from repro.core.adwise import AdwisePartitioner

        return AdwisePartitioner(
            partitions,
            latency_preference_ms=config["latency_preference_ms"],
            use_clustering=config["use_clustering"])
    if config["algorithm"] == "hash":
        from repro.partitioning.hashing import HashPartitioner

        return HashPartitioner(partitions)
    raise ValueError(f"unknown algorithm {config['algorithm']!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.config, "r", encoding="utf-8") as handle:
        config = json.load(handle)

    import numpy as np

    from repro.cluster import ClusterEngine
    from repro.core import _kernels
    from repro.engine.algorithms import PageRank
    from repro.graph import io as graph_io
    from repro.graph.shard import ShardedGraph
    from repro.graph.stream import FileEdgeStream
    from repro.partitioning import partition_io

    partitioner = build_partitioner(config)
    out = {"kernel_backend": _kernels.resolve_backend_name(),
           "python": platform.python_version(),
           "numpy": np.__version__, "completed": [], "failed_stage": None}

    recorder = None
    window_sum = [0]
    if args.trace:
        from tracing import CALL_TARGETS, Recorder

        def count_window(controller, *_args, **_kwargs):
            window_sum[0] += controller.window_size

        recorder = Recorder()
        recorder.wrap_all(CALL_TARGETS,
                          probes={"core.adaptive.record": count_window})

    first_call = time.monotonic()
    out["setup_s"] = first_call - args.t0
    if args.setup_only:
        _write(args.result, out)
        return 0

    timer = time.perf_counter
    span = recorder.span if recorder else _nullspan
    stage = "partition"
    try:
        start = timer()
        with span("partition"):
            stream = FileEdgeStream(config["edges"])
            result = partitioner.partition_stream(stream)
        out["partition_s"] = timer() - start
        out["edges"] = len(result.assignments)
        out["replication_degree"] = result.replication_degree
        out["imbalance"] = result.imbalance
        out["score_computations"] = result.score_computations
        out["promotions"] = result.extras.get("promotions")
        controller = getattr(partitioner, "controller", None)
        if controller is not None:
            out["max_window"] = controller.max_window_reached
            events = getattr(controller, "events", [])
            out["grows"] = sum(e.decision.value == "grow" for e in events)
            out["shrinks"] = sum(e.decision.value == "shrink"
                                 for e in events)
        out["completed"].append(stage)

        stage = "write"
        mark = timer()
        with span("write"):
            partition_io.write_assignments(config["assignments"],
                                           result.assignments)
        out["write_s"] = timer() - mark
        out["completed"].append(stage)

        stage = "read_graph"
        process_start = mark = timer()
        with span("process"):
            with span("read_graph"):
                graph = graph_io.read_graph(config["edges"])
            out["read_graph_s"] = timer() - mark
            out["completed"].append(stage)

            stage = "shard"
            mark = timer()
            with span("shard"):
                sharded = ShardedGraph.from_assignments(
                    result.assignments,
                    partitions=range(config["partitions"]),
                    vertices=graph.vertices())
            out["shard_s"] = timer() - mark
            out["completed"].append(stage)

            stage = "pagerank"
            mark = timer()
            with span("pagerank"):
                report = ClusterEngine(sharded).run(
                    PageRank(iterations=config["iterations"]),
                    max_supersteps=config["iterations"] + 2)
            end = timer()
        out["pagerank_s"] = end - mark
        out["process_s"] = end - process_start
        out["total_s"] = end - start
        out["completed"].append(stage)
        out["supersteps"] = report.supersteps
        out["remote_sync_messages"] = report.remote_sync_messages
        out["sync_payload_bytes"] = report.sync_payload_bytes
        vertices = np.fromiter(report.states.keys(), dtype=np.int64)
        ranks = np.fromiter(report.states.values(), dtype=np.float64)
        np.save(config["ranks"], np.stack([vertices.astype(np.float64),
                                           ranks]))
    except Exception:  # report the stage; the parent counts it failed
        out["failed_stage"] = stage
        out["error"] = traceback.format_exc(limit=8)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)

    if recorder is not None:
        if out["failed_stage"] is None:
            # One pass over FileEdgeStream alone: the parse layer's cost
            # without the partitioner interleaved.
            mark = timer()
            with recorder.span("parse_pass"):
                count = sum(1 for _ in FileEdgeStream(config["edges"]))
            out["parse_pass_s"] = timer() - mark
            out["parse_pass_edges"] = count
        calls = recorder.call_metrics()
        out["calls"] = {m: {"count": c, "seconds": s}
                        for m, (c, s) in calls.items()}
        if window_sum[0] and "core.adaptive.record" in calls:
            out["mean_window"] = (window_sum[0]
                                  / calls["core.adaptive.record"][0])
        recorder.dump(config["trace"], extra={"result": out})
    _write(args.result, out)
    return 0


@contextmanager
def _nullspan(*_args, **_kwargs):
    yield None


def _write(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
