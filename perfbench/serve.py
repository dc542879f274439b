"""The daemon for a traced ``service-wal`` run.

Usage: ``serve.py CALLS_OUT serve [serve options]``.  Wraps the
single-edge partitioning functions (see ``tracing.CALL_TARGETS``) with
per-call tallies, runs the ``adwise`` CLI's ``serve`` command unchanged
and, once the daemon has shut down, writes the tallies to ``CALLS_OUT``.
"""

from __future__ import annotations

import json
import sys

from tracing import Recorder

DAEMON_CALLS = ("partitioning.select", "partitioning.state.observe",
                "partitioning.state.assign")


def main(argv) -> int:
    calls_out, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.wrap_all(DAEMON_CALLS)
    from repro.cli import main as cli_main

    code = cli_main(serve_args)
    with open(calls_out, "w", encoding="utf-8") as handle:
        json.dump({m: {"count": c, "seconds": s}
                   for m, (c, s) in recorder.call_metrics().items()},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
