"""Run the ``derangements`` command line under the benchmark's tracer.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID CLI_ARG...

Times the package import, installs the layer wrappers, calls
``derangements.cli.main(CLI_ARG...)``, restores the wrappers and writes the
spans to SPANS_JSON.  Standard output is the command's own, byte for byte,
and the exit status is the command's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, op_id, *cli_args = argv
    tracer = Tracer()
    tracer.op_id = op_id
    start = time.perf_counter()
    import derangements.cli as cli

    tracer.add_span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
