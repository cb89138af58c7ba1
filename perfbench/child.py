"""One pass of an in-process workload, in a fresh interpreter.

    python -S perfbench/child.py WORKLOAD SEED TRACE SPANS_PATH

Imports singclass from the checkout, builds the workload's inputs, runs the
op list once timing each op with ``time.perf_counter`` (with a compute
reference sample before each op and after the last), then checks every
result.  Prints one JSON line: the clock reading when the first op was ready,
each op's time and verdict, the reference samples, the process's peak RSS
before the checks ran and, when TRACE is 1, the tracer's summary (the spans
go to SPANS_PATH).
"""

import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

import ops  # noqa: E402
import summary  # noqa: E402


def run_pass(op_list, tracer=None):
    """Time every op, then check every result.  An op that raises, or whose
    check raises or returns False, is a failed op."""
    times, refs, results, errors = [], [], [], []
    run = tracer.run_op if tracer is not None else (lambda fn: fn())
    for op in op_list:
        refs.append(summary.compute_reference())
        t0 = time.perf_counter()
        try:
            result, error = run(op.run), None
        except Exception as exc:  # a failing op is counted, not fatal
            result, error = None, exc
        times.append(time.perf_counter() - t0)
        results.append((result, error))
    refs.append(summary.compute_reference())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.summary()
    ok = []
    for op, (result, error) in zip(op_list, results):
        if error is None:
            try:
                passed = bool(op.check(result))
            except Exception as exc:  # a check that raises fails its op
                passed, error = False, exc
            if not passed and error is None:
                error = "wrong result"
        ok.append(error is None)
        if error is not None and len(errors) < 5:
            errors.append(f"{op.name}: {error!r}")
    return {"times": times, "refs": refs, "ok": ok, "errors": errors,
            "rss_kb": rss_kb, "trace": trace}


def main(argv):
    workload, seed, traced, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    op_list = ops.build(workload, seed)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    out = run_pass(op_list, tracer)
    if tracer is not None:
        tracer.dump(spans_path)
    out.update(ready=ready, names=[op.name for op in op_list])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
