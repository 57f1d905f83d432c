"""Start ``repro edge`` with span recorders installed (the traced run).

Usage: ``python perfbench/launch_traced.py <spans.json> edge [edge args...]``

Wraps the serving path's layer boundaries (see ``spans.WRAPPED``), runs
``repro.cli.main`` with the remaining arguments, and writes the recorded
spans to ``<spans.json>`` once the server has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.install()
    from repro.cli import main as repro_main

    code = repro_main(argv)
    recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
