"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS.json serve [options]``.
Wraps the traced layers (see ``layers.install``), then runs
``repro.cli.main`` with the remaining arguments.  When the server stops
(SIGINT), the recorded spans and counter events are written to
``SPANS.json`` for the session to merge into its own timeline.
"""

from __future__ import annotations

import sys

from layers import install
from spans import Tracer


def main(argv: list[str]) -> int:
    dump, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import repro.cli

    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.dump(dump)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
