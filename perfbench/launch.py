"""Run one ``repro`` CLI command, optionally with the layer wrappers installed.

    python3 perfbench/launch.py [--trace SPANS.npz] -- <repro CLI arguments>

The dashboard workload starts ``repro build`` and ``repro serve``
through this launcher in traced and untraced runs alike, so both runs
have the same process layout.  With ``--trace`` the wrappers and the
timing kernel backend are installed before the CLI runs and the spans
are written to ``SPANS.npz`` when it returns.  ``serve`` returns on
SIGTERM, which is turned into the KeyboardInterrupt the CLI handles
(SIGINT may be ignored when the benchmark runs in the background).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    signal.signal(signal.SIGTERM, _interrupt)
    spans = None
    if argv[:1] == ["--trace"]:
        spans, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: launch.py [--trace SPANS.npz] -- <repro arguments>", file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    if spans is None:
        return repro_main(argv[1:])
    from perfbench.measure import Instrumentation, Tracer

    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        return repro_main(argv[1:])
    finally:
        instrumentation.remove()
        tracer.save(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
