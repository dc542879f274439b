"""End-to-end benchmark of the ADWISE reproduction.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for the inputs and the metrics' meaning):

* ``adwise-brain``  — adaptive ADWISE, then write, shard and PageRank;
* ``hash-pagerank`` — hash partitioning of a larger graph, same processing;
* ``service-wal``   — the ``serve`` daemon with a WAL under a closed loop.

Inputs are generated from ``--seed`` (same seed, same inputs).  The
program runs in separate processes started from this checkout's
``src``; this process generates inputs, drives the program, checks its
outputs independently (``checks.py``) and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` one untraced
round followed by one traced round and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import time

import checks
from common import (HERE, OUT_ROOT, PROGRAM_ERRORS, SRC, WORK_ROOT,
                    child_env, declared_metrics, median, more_rounds,
                    program_available, run_child, tail_percentile)

PARTITIONS = 32
ITERATIONS = 100
#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: Generator seed of the fixed brain-like graph (``--seed`` relabels it).
BRAIN_GRAPH_SEED = 1

PIPELINES = {
    "adwise-brain": {
        "algorithm": "adwise",
        "latency_preference_ms": 9000.0,
        "use_clustering": True,
        "graph": "brain",
    },
    "hash-pagerank": {
        "algorithm": "hash",
        "graph": "orkut",
    },
}
WORKLOADS = (*PIPELINES, "service-wal")

#: Stages of one pipeline round: partition, write, read_graph, shard,
#: PageRank.
STAGES = 5


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_edges(graph: str, seed: int):
    """The workload's edge list, in the generator's adjacency order."""
    from repro.graph.generators import (barabasi_albert_graph,
                                        community_powerlaw_graph)

    if graph == "brain":
        # One fixed graph (as the paper uses one Brain dataset); the seed
        # relabels its vertices.  See README.md, "Seeds".
        g = community_powerlaw_graph(num_communities=120, community_size=50,
                                     intra_p=0.6, overlay_m=3,
                                     seed=BRAIN_GRAPH_SEED)
        label = list(range(g.num_vertices))
        random.Random(seed).shuffle(label)
        return [(label[e.u], label[e.v]) for e in g.edges()]
    elif graph == "orkut":
        g = barabasi_albert_graph(n=30000, m=10, seed=seed)
    elif graph == "service":
        g = barabasi_albert_graph(n=4000, m=8, seed=seed)
    else:
        raise ValueError(graph)
    return [(e.u, e.v) for e in g.edges()]


def write_edge_file(path: str, edges) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{u} {v}\n" for u, v in edges)


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------
def spawn_pipeline(config_path: str, result_path: str, env,
                   setup_only: bool = False, trace: bool = False) -> dict:
    flags = ["--setup-only"] if setup_only else []
    if os.path.exists(result_path):
        os.remove(result_path)
    if trace:
        flags.append("--trace")
    run_child([os.path.join(HERE, "pipeline.py"), config_path, result_path,
               *flags, "--t0", repr(time.monotonic())], env)
    with open(result_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_pipeline(config: dict, out: dict, reference) -> dict:
    """Independent checks of one completed pipeline round."""
    edges, expected_rep, ref_vertices, ref_ranks = reference
    assigned = checks.read_assignment_file(config["assignments"])
    checks.check_assignment(edges, assigned, PARTITIONS)
    replication = checks.check_replication(out["replication_degree"],
                                           assigned)
    if config["algorithm"] == "adwise":
        checks.check_balance(assigned, PARTITIONS)
        checks.check_below_random(replication, expected_rep)
    else:
        checks.check_near_random(replication, expected_rep)
    stacked = checks.np.load(config["ranks"])
    error = checks.check_ranks(stacked[0].astype(checks.np.int64),
                               stacked[1], ref_vertices, ref_ranks)
    if out.get("supersteps") != ITERATIONS + 1:
        raise checks.CheckFailed(f"{out.get('supersteps')} supersteps, "
                                 f"expected {ITERATIONS + 1}")
    return {"random_replication": expected_rep, "rank_max_rel_error": error,
            "imbalance_recount": checks.imbalance(assigned, PARTITIONS)}


def run_pipeline(name: str, args, work: str) -> dict:
    spec = PIPELINES[name]
    edges_path = os.path.join(work, "edges.txt")
    write_edge_file(edges_path, make_edges(spec["graph"], args.seed))
    os.makedirs(OUT_ROOT, exist_ok=True)
    config = {"edges": edges_path, "partitions": PARTITIONS,
              "iterations": ITERATIONS,
              "assignments": os.path.join(work, "assignments.txt"),
              "ranks": os.path.join(work, "ranks.npy"),
              "trace": os.path.join(OUT_ROOT,
                                    f"trace-{name}-seed{args.seed}.json"),
              **{k: v for k, v in spec.items() if k != "graph"}}
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle)
    result_path = os.path.join(work, "result.json")
    env = child_env(work)

    edges = checks.read_edge_file(edges_path)
    reference = (edges, checks.random_replication(edges, PARTITIONS),
                 *checks.pagerank_reference(edges, ITERATIONS))

    # Each set-up-only process start is one operation; a process that
    # crashes or hangs fails it.
    setups, setup_errors = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            try:
                setups.append(spawn_pipeline(config_path, result_path, env,
                                             setup_only=True)["setup_s"])
            except PROGRAM_ERRORS as exc:
                setup_errors.append(repr(exc))
    # Untraced runs repeat whole rounds while the next one still fits in
    # the time (at least one); a traced run is one untraced round, then
    # one traced round.
    plan = [False, True] if args.trace else None
    rounds = []
    begin = time.monotonic()
    while True:
        traced = plan.pop(0) if plan else False
        started = time.monotonic()
        try:
            out = spawn_pipeline(config_path, result_path, env,
                                 trace=traced)
            setups.append(out["setup_s"])
        except PROGRAM_ERRORS as exc:  # the process died: all stages lost
            out = {"completed": [], "failed_stage": "process",
                   "error": repr(exc)}
        out["traced"] = traced
        if out["failed_stage"] is None:
            out["checks"] = check_pipeline(config, out, reference)
        rounds.append(out)
        if plan == [] or (plan is None and not more_rounds(
                begin, time.monotonic() - started, args.seconds)):
            break

    setup_spawns = 0 if args.trace else SETUP_SAMPLES - 1
    attempted = len(rounds) * STAGES + setup_spawns
    failed = (len(rounds) * STAGES
              - sum(len(r["completed"]) for r in rounds) + len(setup_errors))
    good = [r for r in rounds if r["failed_stage"] is None]
    ran = [r for r in rounds if "kernel_backend" in r] or [{}]
    record = {"rounds": rounds, "setup_samples": setups,
              "setup_errors": setup_errors,
              "kernel_backend": ran[0].get("kernel_backend"),
              "python": ran[0].get("python"), "numpy": ran[0].get("numpy"),
              "edges": len(edges), "attempted": attempted, "failed": failed}
    metrics = {}
    if args.trace:
        if len(good) == 2:
            metrics = pipeline_layers(good[1], good[0])
    else:
        if setups:
            metrics["setup_s"] = median(setups)
        if good:
            metrics["total_s"] = median([r["total_s"] for r in good])
            metrics["partition_eps"] = median(
                [r["edges"] / r["partition_s"] for r in good])
            metrics["replication_degree"] = median(
                [r["replication_degree"] for r in good])
            metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in good])
    record["metrics"] = metrics
    return record


def pipeline_layers(traced: dict, untraced: dict) -> dict:
    calls = traced.get("calls", {})
    layers = {}

    def seconds(metric: str, name: str) -> None:
        if metric in calls:
            layers[name] = calls[metric]["seconds"]

    layers["graph.io.parse_s"] = traced["parse_pass_s"]
    seconds("graph.io.read_graph", "graph.io.read_graph_s")
    seconds("partitioning.select", "partitioning.select_s")
    seconds("partitioning.state.observe", "partitioning.state.observe_s")
    seconds("partitioning.state.assign", "partitioning.state.assign_s")
    if "partitioning.state.assign" in calls:
        count = calls["partitioning.state.assign"]["count"]
        if count != traced["edges"]:
            raise checks.CheckFailed(f"{count} state assign calls for "
                                     f"{traced['edges']} edges")
        layers["partitioning.state.assign_calls"] = count
    seconds("partitioning.io.write", "partitioning.io.write_s")
    for metric in ("refill", "pop", "rescore"):
        seconds(f"core.window.{metric}", f"core.window.{metric}_s")
    seconds("core.scoring.lambda", "core.scoring.lambda_s")
    seconds("core.adaptive.record", "core.adaptive.record_s")
    if traced.get("score_computations"):
        layers["core.scoring.score_computations"] = \
            traced["score_computations"]
    if traced.get("promotions") is not None:
        layers["core.window.promotions"] = traced["promotions"]
    if "mean_window" in traced:
        layers["core.adaptive.mean_window"] = traced["mean_window"]
    if traced.get("max_window") is not None:
        layers["core.adaptive.max_window"] = traced["max_window"]
    seconds("graph.shard.build", "graph.shard.build_s")
    seconds("cluster.compute", "cluster.compute_s")
    seconds("cluster.sync", "cluster.sync_s")
    layers["cluster.supersteps"] = traced["supersteps"]
    layers["cluster.remote_sync_messages"] = traced["remote_sync_messages"]
    layers["cluster.sync_payload_bytes"] = traced["sync_payload_bytes"]
    layers["cluster.process_s"] = untraced["process_s"]
    layers["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
    return layers


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def run_service_workload(args, work: str) -> dict:
    import service
    from tracing import Recorder

    edges = make_edges("service", args.seed)
    env = child_env(work)
    # Resolved in a process with the daemon's environment, so that a
    # kernel compile (into the run's TMPDIR) happens neither here nor in
    # the daemon whose memory is measured.
    try:
        backend = run_child(["-c", "from repro.core import _kernels; "
                                   "print(_kernels.resolve_backend_name())"],
                            env).strip()
    except PROGRAM_ERRORS:  # the daemon will fail too; its rounds say so
        backend = None
    record = {"kernel_backend": backend,
              "python": platform.python_version(),
              "numpy": checks.np.__version__,
              "edges_per_tenant": len(edges)}
    if args.trace:
        plain = service.run_session(work, "untraced", edges, 0.0,
                                    max_rounds=service.MIN_ROUNDS)
        recorder = Recorder()
        traced = service.run_session(work, "traced", edges, 0.0,
                                     traced=True, recorder=recorder,
                                     max_rounds=1)
        os.makedirs(OUT_ROOT, exist_ok=True)
        recorder.dump(os.path.join(
            OUT_ROOT, f"trace-service-wal-seed{args.seed}.json"))
        sessions = [plain, traced]
    else:
        # Each set-up sample (spawn, two opens, shutdown) is one operation.
        setups, setup_errors = [], []
        for i in range(SETUP_SAMPLES - 1):
            try:
                setups.append(service.setup_sample(work, f"setup{i}"))
            except PROGRAM_ERRORS as exc:
                setup_errors.append(repr(exc))
        plain = service.run_session(work, "main", edges, args.seconds)
        if plain["setup_s"] is not None:
            setups.append(plain["setup_s"])
        sessions = [plain]
        record.update(setup_samples=setups, setup_errors=setup_errors,
                      peak_rss_mb=plain["peak_rss_mb"])
    rounds = [r for s in sessions for r in s["rounds"]]
    setup_spawns = 0 if args.trace else SETUP_SAMPLES - 1
    record["attempted"] = sum(r["attempted"] for r in rounds) + setup_spawns
    record["failed"] = (sum(r["failed"] for r in rounds)
                        + len(record.get("setup_errors", ())))
    record["sessions"] = [
        {k: v for k, v in s.items() if k != "rounds"} for s in sessions]
    record["rounds"] = [{k: v for k, v in r.items()
                         if k not in ("ack_ms", "query_ms")} for r in rounds]
    if args.trace:
        if not record["failed"]:
            record["metrics"] = service_layers(plain, traced, len(edges))
        else:
            record["metrics"] = {}
        return record

    good = [r for r in rounds if not r["failed"]]
    metrics = {"peak_rss_mb": record["peak_rss_mb"]}
    if setups:
        metrics["setup_s"] = median(setups)
    if good:
        metrics.update(
            total_s=median([r["total_s"] for r in good]),
            partition_eps=median([r["edges"] / r["ingest_s"]
                                  for r in good]),
            replication_degree=median([mean_replication(r)
                                       for r in good]))
    record["metrics"] = {k: v for k, v in metrics.items() if v is not None}
    return record


def mean_replication(round_: dict) -> float:
    """The mean of the tenants' final replication degrees."""
    tenants = round_["tenants"].values()
    return sum(t["replication_degree"] for t in tenants) / len(tenants)


def service_layers(plain: dict, traced: dict, edges_per_tenant: int) -> dict:
    (round_,) = traced["rounds"]
    layers = {}
    calls = traced.get("calls", {})
    for metric in ("partitioning.select", "partitioning.state.observe",
                   "partitioning.state.assign"):
        if metric in calls:
            layers[metric + "_s"] = calls[metric]["seconds"]
    if "partitioning.state.assign" in calls:
        count = calls["partitioning.state.assign"]["count"]
        if count != 2 * edges_per_tenant:
            raise checks.CheckFailed(f"{count} state assign calls for "
                                     f"{2 * edges_per_tenant} edges")
        layers["partitioning.state.assign_calls"] = count
    tenants = round_["tenants"].values()
    batches = sum(t["batches"] for t in tenants)
    batch_p50 = sum(t["batch_p50_ms"] * t["batches"]
                    for t in tenants) / batches
    layers["service.batch_p50_ms"] = batch_p50
    # Per tenant, then batch-weighted: the median of both tenants' acks
    # together falls between their two modes.
    layers["service.protocol_ms"] = sum(
        (t["ack_p50_ms"] - t["batch_p50_ms"]) * t["batches"]
        for t in tenants) / batches
    if traced.get("apply_s") is not None:
        layers["service.apply_s"] = traced["apply_s"]
    layers["service.queue_high_water"] = max(t["queue_high_water"]
                                             for t in tenants)
    wal = traced.get("wal", {})
    for name in ("appends", "fsyncs", "bytes", "compactions"):
        key = f"repro_wal_{name}_total"
        if key in wal:
            layers[f"service.wal.{name}"] = wal[key]
    # Client-side latencies of the untraced rounds: no pipeline has
    # requests, so they are per-layer figures (README.md).
    acks = [x for r in plain["rounds"] for x in r["ack_ms"]]
    layers["service.ack_p50_ms"] = tail_percentile(acks, 0.50)
    layers["service.ack_p99_ms"] = tail_percentile(acks, 0.99)
    layers["service.query_p50_ms"] = tail_percentile(
        [x for r in plain["rounds"] for x in r["query_ms"]], 0.50)
    layers["trace.overhead_s"] = (round_["total_s"] - median(
        [r["total_s"] for r in plain["rounds"]]))
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_available():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-"
                                   f"{os.getpid()}")
    os.makedirs(work)
    correct = True
    failure = None
    try:
        try:
            if args.workload == "service-wal":
                import service

                with service.one_cpu():
                    record = run_service_workload(args, work)
            else:
                record = run_pipeline(args.workload, args, work)
        except checks.CheckFailed as exc:
            correct, failure = False, str(exc)
            record = {"attempted": 1, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, correct=correct,
                  check_failure=failure)
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    info = {k: record.get(k) for k in ("workload", "seed", "kernel_backend",
                                        "python", "numpy", "attempted",
                                        "failed", "check_failure")}
    print("# run " + json.dumps(info))
    # Every metric of the manifest's list for this mode is printed; a
    # layer the workload does not reach (or a round that failed) reads 0.
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": record["metrics"].get(name) or 0.0,
                      "unit": unit}
               for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
