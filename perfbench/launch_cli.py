"""One traced singclass CLI call.

    python -S perfbench/launch_cli.py SUMMARY_PATH SPANS_PATH ARGV...

Imports ``singclass.cli``, installs the layer wrappers, calls
``singclass.cli.main(ARGV)`` as one root span, writes the tracer's summary
(plus the clock readings at start-up and after the import) to SUMMARY_PATH
and the spans to SPANS_PATH, and exits with the CLI's exit code.
"""

import sys
import time

STARTED = time.perf_counter()
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import singclass.cli  # noqa: E402

IMPORTED = time.perf_counter()

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(summary_path, spans_path, argv):
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_op(lambda: singclass.cli.main(argv))
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(started=STARTED, imported=IMPORTED)
    Path(summary_path).write_text(json.dumps(summary))
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
