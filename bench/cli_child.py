"""Traced CLI command in a fresh process.

    python3 bench/cli_child.py TRACE_FILE LABEL -- surpluslab arguments...

Times `import surpluslab.cli` as the span cli.import, runs cli.main under
the tracer as the span cli.main.LABEL, writes the spans and counters to
TRACE_FILE as JSON, and exits with cli.main's code.  The command's own
output goes to standard output as usual.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main() -> int:
    trace_file, label, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import surpluslab.cli as cli
    t1 = time.perf_counter()
    from tracing import Tracer
    tracer = Tracer()
    tracer.rec.spans.append(["cli.import", t0, t1, -1])
    tracer.install()
    try:
        code = tracer.span(f"cli.main.{label}", cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        Path(trace_file).write_text(json.dumps(tracer.rec.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
