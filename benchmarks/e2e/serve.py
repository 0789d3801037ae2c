"""Start ``repro serve`` for the benchmark, optionally recording layer spans.

    python benchmarks/e2e/serve.py [--trace-out FILE] STATE_DIR [serve flags]

Without ``--trace-out`` this is ``repro serve STATE_DIR [serve flags]``.
With it, the layer wrappers are installed first, and when the server exits
(SIGINT shuts it down gracefully) the spans go to FILE and the counters to
FILE.counts.json.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", help="write spans here at exit")
    args, serve_args = parser.parse_known_args(argv)
    tracer = None
    if args.trace_out:
        from instrument import install
        from spans import Tracer

        tracer = Tracer()
        install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.dump(args.trace_out)
            with open(args.trace_out + ".counts.json", "w", encoding="utf-8") as handle:
                json.dump(tracer.counts, handle)


if __name__ == "__main__":
    sys.exit(main())
