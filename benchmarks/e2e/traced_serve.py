"""Run ``repro-autosf serve`` with the benchmark's layer wrappers installed.

    python3 benchmarks/e2e/traced_serve.py --spans-out FILE serve --artifact DIR ...

Everything after ``--spans-out FILE`` is handed to ``repro.cli.main``.  The
server stops gracefully on SIGTERM; its spans are then written to ``FILE``
as JSONL.
"""

from __future__ import annotations

import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR.parents[1] / "src"))

from spans import Tracer, install  # noqa: E402


def main(argv: list) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out":
        raise SystemExit(__doc__)
    spans_out, cli_argv = Path(argv[1]), argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        tracer.write_jsonl(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
