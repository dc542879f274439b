"""Output checks computed apart from the program.

Nothing here imports ``repro``: every expected value is recomputed from
the input edge file and the program's written outputs with plain Python
and numpy, so a fault in the program cannot also hide in its check.
Each check raises :class:`CheckFailed` with a reason.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

DAMPING = 0.85


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


# ----------------------------------------------------------------------
# Parsing (own parsers: the program's readers are under test)
# ----------------------------------------------------------------------
def read_edge_file(path: str) -> np.ndarray:
    """``(m, 2)`` int64 array of canonical ``(min, max)`` input edges."""
    pairs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if not fields or fields[0][0] in "#%":
                continue
            u, v = int(fields[0]), int(fields[1])
            if u != v:
                pairs.append((u, v) if u < v else (v, u))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def read_assignment_file(path: str) -> np.ndarray:
    """``(m, 3)`` int64 array of ``(min, max, partition)`` lines."""
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if not fields or fields[0][0] in "#%":
                continue
            if len(fields) != 3:
                _fail(f"malformed assignment line {line!r}")
            u, v, p = int(fields[0]), int(fields[1]), int(fields[2])
            rows.append((u, v, p) if u < v else (v, u, p))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def check_assignment(edges: np.ndarray, assigned: np.ndarray,
                     k: int) -> None:
    """Every input edge is assigned exactly once, to a partition in
    ``[0, k)``, and nothing else is assigned."""
    if len(assigned) != len(edges):
        _fail(f"{len(assigned)} assignments for {len(edges)} input edges")
    parts = assigned[:, 2]
    if len(parts) and (parts.min() < 0 or parts.max() >= k):
        _fail(f"partition outside [0, {k}): "
              f"min {parts.min()}, max {parts.max()}")
    got = np.unique(assigned[:, :2], axis=0)
    if len(got) != len(assigned):
        _fail(f"{len(assigned) - len(got)} edges assigned more than once")
    want = np.unique(edges, axis=0)
    if len(want) != len(got) or not np.array_equal(want, got):
        _fail("assigned edge set differs from the input edge set")


def replication_recount(assigned: np.ndarray) -> float:
    """Mean number of distinct partitions per vertex."""
    if not len(assigned):
        return 0.0
    vertices = np.concatenate([assigned[:, 0], assigned[:, 1]])
    parts = np.concatenate([assigned[:, 2], assigned[:, 2]])
    pairs = np.unique(np.stack([vertices, parts], axis=1), axis=0)
    return len(pairs) / len(np.unique(vertices))


def imbalance(assigned: np.ndarray, k: int) -> float:
    """``(max - min) / max`` of the per-partition edge counts."""
    sizes = np.bincount(assigned[:, 2], minlength=k)
    return float(sizes.max() - sizes.min()) / float(sizes.max())


def degrees(edges: np.ndarray) -> np.ndarray:
    """Degrees of the vertices touched by ``edges`` (order irrelevant)."""
    _, counts = np.unique(edges.reshape(-1), return_counts=True)
    return counts


def random_replication(edges: np.ndarray, k: int) -> float:
    """Expected replication when every edge lands on a uniformly random
    partition: ``mean_v k (1 - (1 - 1/k) ** d_v)``."""
    d = degrees(edges).astype(np.float64)
    return float(np.mean(k * (1.0 - (1.0 - 1.0 / k) ** d)))


def check_replication(reported: float, assigned: np.ndarray) -> float:
    recount = replication_recount(assigned)
    if abs(reported - recount) > 1e-9 * max(1.0, recount):
        _fail(f"reported replication {reported!r} != recount {recount!r}")
    return recount


def check_balance(assigned: np.ndarray, k: int, limit: float = 0.05) -> None:
    value = imbalance(assigned, k)
    if not value < limit:
        _fail(f"imbalance {value:.4f} not below {limit}")


def check_below_random(replication: float, expected: float,
                       share: float = 0.6) -> None:
    """A partitioner that uses locality must beat random placement."""
    if not replication < share * expected:
        _fail(f"replication {replication:.3f} not below {share} x random "
              f"expectation {expected:.3f}")


def check_near_random(replication: float, expected: float,
                      tolerance: float = 0.01) -> None:
    """Hash placement is random placement: within ``tolerance``."""
    if abs(replication - expected) > tolerance * expected:
        _fail(f"hash replication {replication:.4f} more than "
              f"{tolerance:.0%} from random expectation {expected:.4f}")


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def pagerank_reference(edges: np.ndarray, iterations: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Power iteration on the undirected, deduplicated graph.

    Every vertex starts at rank 1.0; each iteration sets
    ``r_v = 0.15 + 0.85 * sum_{u ~ v} r_u / d_u``.  Returns the sorted
    vertex ids and their ranks.
    """
    unique = np.unique(edges, axis=0)
    ids, inverse = np.unique(unique.reshape(-1), return_inverse=True)
    pairs = inverse.reshape(-1, 2)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    n = len(ids)
    deg = np.bincount(src, minlength=n).astype(np.float64)
    rank = np.ones(n, dtype=np.float64)
    for _ in range(iterations):
        share = np.zeros(n, dtype=np.float64)
        np.divide(rank, deg, out=share, where=deg > 0)
        rank = (1.0 - DAMPING) + DAMPING * np.bincount(
            dst, weights=share[src], minlength=n)
    return ids, rank


def check_ranks(vertices: np.ndarray, ranks: np.ndarray,
                ref_vertices: np.ndarray, ref_ranks: np.ndarray,
                rtol: float = 1e-9) -> float:
    """The program's ranks equal the reference; returns max rel. error."""
    order = np.argsort(vertices, kind="stable")
    vertices, ranks = vertices[order], ranks[order]
    if not np.array_equal(vertices, ref_vertices):
        _fail(f"ranked vertex set differs ({len(vertices)} vs "
              f"{len(ref_vertices)} vertices)")
    error = float(np.max(np.abs(ranks - ref_ranks) / np.abs(ref_ranks)))
    if not error <= rtol:
        _fail(f"PageRank max relative error {error:.3e} above {rtol:.0e}")
    return error


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def check_acks(sent: Sequence[Tuple[int, int]],
               acks: Iterable[Tuple[int, int, int]],
               final: Iterable[Sequence[int]], k: int) -> Dict[Tuple[int, int], int]:
    """Every sent edge is acknowledged exactly once across the batch
    acks and the finalize drain; returns ``edge -> partition``."""
    placed: Dict[Tuple[int, int], int] = {}
    for u, v, p in acks:
        key = (u, v) if u < v else (v, u)
        if key in placed:
            _fail(f"edge {key} acknowledged twice")
        placed[key] = p
    final_map: Dict[Tuple[int, int], int] = {}
    for u, v, p in final:
        key = (u, v) if u < v else (v, u)
        if key in final_map:
            _fail(f"edge {key} twice in the finalize result")
        final_map[key] = p
    for key, p in final_map.items():
        if key not in placed:
            placed[key] = p  # drained at finalize
        elif placed[key] != p:
            _fail(f"edge {key} acked on {placed[key]}, finalized on {p}")
    if len(final_map) != len(placed):
        _fail(f"finalize reports {len(final_map)} edges, "
              f"acks cover {len(placed)}")
    want = {(u, v) if u < v else (v, u) for u, v in sent}
    if len(want) != len(sent):
        _fail("sent stream holds duplicate edges")
    if set(placed) != want:
        missing = len(want - set(placed))
        extra = len(set(placed) - want)
        _fail(f"acks miss {missing} sent edges and add {extra} unsent ones")
    bad = [p for p in placed.values() if not 0 <= p < k]
    if bad:
        _fail(f"{len(bad)} edges placed outside [0, {k})")
    return placed


def check_query(edge: Tuple[int, int], acked: int, answered,
                replicas: List[int]) -> None:
    """``query_edge`` returns the acked partition and ``query_vertex``
    of an endpoint lists it."""
    if answered != acked:
        _fail(f"query_edge{edge} answered {answered}, acked {acked}")
    if acked not in replicas:
        _fail(f"query_vertex({edge[0]}) = {replicas} lacks partition {acked}")
