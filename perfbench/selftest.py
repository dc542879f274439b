"""Fast self-tests of the benchmark's output checkers.

Each checker is run on a small hand-worked graph, and each check is
shown to reject a corrupted output.  Run with::

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

No ``repro`` import: the checkers must stand apart from the program.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

import checks
from common import tail_percentile

# Triangle 0-1-2 with a tail 2-3, on k = 2 partitions:
#   vertex 0 on {0}, 1 on {0, 1}, 2 on {0, 1}, 3 on {1}.
EDGES = np.array([[0, 1], [1, 2], [0, 2], [2, 3]], dtype=np.int64)
ASSIGNED = np.array([[0, 1, 0], [1, 2, 1], [0, 2, 0], [2, 3, 1]],
                    dtype=np.int64)
K = 2


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def test_parsers_canonicalise_and_skip_comments():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# comment\n1 0\n\n2 1\n3 3\n")
        assert checks.read_edge_file(path).tolist() == [[0, 1], [1, 2]]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("% comment\n2 1 0\n0 3 1\n")
        assert checks.read_assignment_file(path).tolist() == [[1, 2, 0],
                                                              [0, 3, 1]]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("4 5\n")
        assert rejects(checks.read_assignment_file, path)


def test_recount_random_expectation_and_imbalance():
    # (1 + 2 + 2 + 1) / 4 replicas per vertex.
    assert checks.replication_recount(ASSIGNED) == 1.5
    # Degrees 2, 2, 3, 1: k (1 - (1 - 1/k)^d) = 1.5, 1.5, 1.75, 1.0.
    assert checks.random_replication(EDGES, K) == 5.75 / 4
    assert checks.imbalance(ASSIGNED, K) == 0.0
    lopsided = ASSIGNED.copy()
    lopsided[1, 2] = 0  # sizes 3 and 1
    assert checks.imbalance(lopsided, K) == 2 / 3
    assert rejects(checks.check_balance, lopsided, K)
    checks.check_balance(ASSIGNED, K)


def test_assignment_check_accepts_and_rejects():
    checks.check_assignment(EDGES, ASSIGNED, K)
    dropped = ASSIGNED[:-1]
    assert rejects(checks.check_assignment, EDGES, dropped, K)
    duplicated = ASSIGNED.copy()
    duplicated[3] = duplicated[0]  # (0, 1) twice, (2, 3) missing
    assert rejects(checks.check_assignment, EDGES, duplicated, K)
    extra = np.vstack([ASSIGNED, ASSIGNED[:1]])
    assert rejects(checks.check_assignment, EDGES, extra, K)
    outside = ASSIGNED.copy()
    outside[0, 2] = K
    assert rejects(checks.check_assignment, EDGES, outside, K)


def test_replication_checks():
    assert checks.check_replication(1.5, ASSIGNED) == 1.5
    assert rejects(checks.check_replication, 1.5001, ASSIGNED)
    checks.check_below_random(1.0, 2.0)
    assert rejects(checks.check_below_random, 1.5, 2.0)
    checks.check_near_random(1.4375, 1.4375)
    assert rejects(checks.check_near_random, 1.46, 1.4375)


def test_pagerank_reference_by_hand():
    # Path 0-1-2 (with a duplicate of 0-1): degrees 1, 2, 1.
    # Iteration 1: 0.15 + 0.85 * (1/2) = 0.575 at the ends,
    #              0.15 + 0.85 * (1 + 1) = 1.85 in the middle.
    # Iteration 2: 0.15 + 0.85 * 1.85 / 2 = 0.93625 at the ends,
    #              0.15 + 0.85 * 2 * 0.575 = 1.1275 in the middle.
    path = np.array([[0, 1], [1, 2], [0, 1]], dtype=np.int64)
    ids, ranks = checks.pagerank_reference(path, 1)
    assert ids.tolist() == [0, 1, 2]
    assert np.allclose(ranks, [0.575, 1.85, 0.575], rtol=0, atol=1e-15)
    ids, ranks = checks.pagerank_reference(path, 2)
    assert np.allclose(ranks, [0.93625, 1.1275, 0.93625], rtol=0,
                       atol=1e-15)


def test_rank_check_rejects_perturbation_and_missing_vertex():
    ids, ranks = checks.pagerank_reference(EDGES, 5)
    shuffled = np.array([3, 1, 0, 2])
    assert checks.check_ranks(ids[shuffled], ranks[shuffled], ids,
                              ranks) == 0.0
    perturbed = ranks.copy()
    perturbed[2] *= 1 + 1e-6
    assert rejects(checks.check_ranks, ids, perturbed, ids, ranks)
    assert rejects(checks.check_ranks, ids[:-1], ranks[:-1], ids, ranks)


def test_ack_checks():
    sent = [(0, 1), (2, 1), (0, 2), (2, 3)]
    acks = [(0, 1, 0), (1, 2, 1)]
    final = [[0, 1, 0], [0, 2, 0], [1, 2, 1], [2, 3, 1]]
    placed = checks.check_acks(sent, acks, final, K)
    assert placed == {(0, 1): 0, (1, 2): 1, (0, 2): 0, (2, 3): 1}
    rows = np.array([(u, v, p) for (u, v), p in placed.items()])
    assert checks.replication_recount(rows) == 1.5
    # A dropped edge, a duplicate ack, a finalize that disagrees with an
    # ack, and a partition outside [0, k).
    assert rejects(checks.check_acks, sent, acks, final[:-1], K)
    assert rejects(checks.check_acks, sent, acks + [(1, 0, 0)], final, K)
    assert rejects(checks.check_acks, sent, [(0, 1, 1)], final, K)
    bad = [[0, 1, 0], [0, 2, 0], [1, 2, 1], [2, 3, K]]
    assert rejects(checks.check_acks, sent, [], bad, K)


def test_query_check():
    checks.check_query((0, 1), 0, 0, [0, 1])
    assert rejects(checks.check_query, (0, 1), 0, 1, [0, 1])
    assert rejects(checks.check_query, (0, 1), 0, None, [0, 1])
    assert rejects(checks.check_query, (0, 1), 0, 0, [1])


def test_tail_percentile_needs_ten_beyond():
    samples = [float(i) for i in range(1, 21)]
    assert tail_percentile(samples, 0.5) == 10.0
    assert tail_percentile(samples, 0.99) is None
    assert tail_percentile(list(range(1, 1011)), 0.99) == 1000
    assert tail_percentile([], 0.5) is None


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
