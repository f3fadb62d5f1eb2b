"""Run the privmech command line under the tracer and write its spans.

Usage: python3 bench/trace_child.py SPANS_PATH MEMORY [privmech arguments...]

MEMORY is 1 for a memory pass (tracemalloc peaks), 0 for a timing pass.

Used by the traced run of the cli workload in place of `python -m
privmech`; stdout and the exit code are the CLI's own. privmech must be
importable (run.py puts src/ on PYTHONPATH).
"""
import sys

import privmech.cli

from tracing import Tracer


def main() -> int:
    spans_path, memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer(memory)
    tracer.install()
    try:
        return privmech.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
