"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS.json [serve options]``

The wrappers go in before the server imports anything else, then
``repro.cli.main(["serve", ...])`` runs as usual.  When the server
drains (SIGTERM) and returns, every recorded span is written to
``SPANS.json``.
"""

from __future__ import annotations

import sys

from tracing import SERVER_TARGETS, Tracer


def main(argv: "list[str]") -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(SERVER_TARGETS)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
