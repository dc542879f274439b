"""Paths, child-process environment and statistics shared by the runs."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Per-run scratch (inputs, outputs, WAL, kernel cache); removed at exit.
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
#: Kept records of each run and the traced runs' span files.
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

#: Every child must finish within this many seconds.
CHILD_TIMEOUT_S = 170.0
#: What a failing program raises here (a crashed or hung child, a lost
#: connection, a client error): the operation counts as failed.
PROGRAM_ERRORS = (RuntimeError, OSError, ValueError,
                  subprocess.SubprocessError)


def program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env(work: str, obs_trace_file: Optional[str] = None
              ) -> Dict[str, str]:
    """Environment of every process that runs the program.

    The program comes from this checkout's ``src``; the kernel cache
    goes to the run's scratch directory (``TMPDIR``); observability is
    off unless this is the traced daemon.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for name in ("REPRO_OBS", "REPRO_TRACE_FILE"):
        env.pop(name, None)
    if obs_trace_file is not None:
        env["REPRO_OBS"] = "1"
        env["REPRO_TRACE_FILE"] = obs_trace_file
    return env


def run_child(args: Sequence[str], env: Dict[str, str]) -> str:
    """Run a program process to completion and return its stdout
    (raises on a non-zero exit)."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def declared_metrics(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``kind`` (``end_to_end`` or
    ``per_layer``) metrics, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def more_rounds(begin: float, last_round_s: float, seconds: float) -> bool:
    """Whether another whole round, as long as the last one, still ends
    within ``seconds`` of ``begin`` (a ``time.monotonic()`` reading)."""
    return time.monotonic() - begin + last_round_s <= seconds


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(samples: List[float], fraction: float
                    ) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` unless at least ten samples
    lie beyond it (a tail read from fewer samples is noise)."""
    n = len(samples)
    if n == 0:
        return None
    ordered = sorted(samples)
    rank = min(n, max(1, math.ceil(round(fraction * n, 9))))
    if n - rank < 10:
        return None
    return float(ordered[rank - 1])
