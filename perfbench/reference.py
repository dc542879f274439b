"""One-off reference figures that sit beside the benchmark's metrics.

Usage: ``python3 perfbench/reference.py [--seed N]``

Prints three figures (README.md records one set of them):

1. PageRank (100 iterations) on the ``hash-pagerank`` input on
   ``ClusterEngine``'s ``process`` backend (2 workers) next to the
   default ``serial`` one, with both ranks checked equal;
2. the share of ``service-wal``'s ack p99 due to WAL compaction:
   the same load on a daemon whose compaction never fires within a
   round (``--wal-compact-every 100000``) against the default;
3. the tracing overhead: ``run.py --trace 1`` on each workload runs one
   untraced and one traced round; overhead is the difference of their
   ``total_s``, as a share of the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import checks
from common import OUT_ROOT, ROOT, SRC, WORK_ROOT, child_env, tail_percentile


def pagerank_backends(seed: int) -> dict:
    from repro.cluster import ClusterEngine
    from repro.engine.algorithms import PageRank
    from repro.graph.graph import Edge
    from repro.graph.shard import ShardedGraph
    from repro.graph.stream import InMemoryEdgeStream
    from repro.partitioning.hashing import HashPartitioner
    from run import ITERATIONS, PARTITIONS, make_edges

    stream = InMemoryEdgeStream([Edge(u, v)
                                 for u, v in make_edges("orkut", seed)])
    result = HashPartitioner(range(PARTITIONS)).partition_stream(stream)
    sharded = ShardedGraph.from_assignments(result.assignments,
                                            partitions=range(PARTITIONS))
    out = {"edges": len(result.assignments)}
    states = {}
    for backend, kwargs in (("serial", {}),
                            ("process", {"num_workers": 2})):
        engine = ClusterEngine(sharded, backend=backend, **kwargs)
        start = time.perf_counter()
        report = engine.run(PageRank(iterations=ITERATIONS),
                            max_supersteps=ITERATIONS + 2)
        out[f"{backend}_s"] = time.perf_counter() - start
        states[backend] = report.states
    ids = sorted(states["serial"])
    serial = checks.np.array([states["serial"][v] for v in ids])
    process = checks.np.array([states["process"][v] for v in ids])
    out["max_rel_difference"] = float(
        checks.np.max(checks.np.abs(serial - process) / serial))
    return out


def compaction_share(seed: int, work: str) -> dict:
    import service
    from run import make_edges

    edges = make_edges("service", seed)
    out = {}
    for label, extra in (("default", ()),
                         ("no_compaction",
                          ("--wal-compact-every", "100000"))):
        with service.one_cpu():
            session = service.run_session(work, label, edges, 0.0,
                                          max_rounds=service.MIN_ROUNDS,
                                          serve_args=extra)
        acks = [x for r in session["rounds"] for x in r["ack_ms"]]
        out[f"{label}_ack_p99_ms"] = tail_percentile(acks, 0.99)
        out[f"{label}_ack_p50_ms"] = tail_percentile(acks, 0.50)
    out["compaction_share_of_p99"] = 1.0 - (out["no_compaction_ack_p99_ms"]
                                            / out["default_ack_p99_ms"])
    return out


def tracing_overhead(seed: int) -> dict:
    out = {}
    for workload in ("adwise-brain", "hash-pagerank", "service-wal"):
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench",
                                                     "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", "1"],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        path = os.path.join(OUT_ROOT,
                            f"{workload}-seed{seed}-trace1.json")
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        untraced = record["rounds"][0]["total_s"]
        overhead = record["metrics"]["trace.overhead_s"]
        out[workload] = {"untraced_total_s": untraced,
                         "overhead_s": overhead,
                         "overhead_share": overhead / untraced}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_ROOT, f"reference-{os.getpid()}")
    os.makedirs(work)
    import tempfile

    tempfile.tempdir = child_env(work)["TMPDIR"]
    try:
        figures = {"seed": args.seed,
                   "pagerank_backends": pagerank_backends(args.seed),
                   "wal_compaction": compaction_share(args.seed, work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    figures["tracing_overhead"] = tracing_overhead(args.seed)
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
