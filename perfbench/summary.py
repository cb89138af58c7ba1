"""Arithmetic that turns per-pass samples into reported metrics, and the
compute reference the samples are scaled by.

Kept free of I/O and of singclass so the self-tests can check it on fixed
inputs.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from time import perf_counter

# name -> (unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "trees.self_ms": ("ms", "lower"),
    "trees.tree_calls": ("count", "lower"),
    "trees.vanishes_calls": ("count", "lower"),
    "trees.substitute_calls": ("count", "lower"),
    "trees.encoding_hit_ratio": ("ratio", "higher"),
    "classes.self_ms": ("ms", "lower"),
    "classes.basis_change_calls": ("count", "lower"),
    "classes.terms_out": ("count", "lower"),
    "classes.memo_hit_ratio": ("ratio", "higher"),
    "exact.self_ms": ("ms", "lower"),
    "exact.solve_linear_calls": ("count", "lower"),
    "exact.solve_linear_ms": ("ms", "lower"),
    "exact.solve_linear_cells": ("count", "lower"),
    "exact.xipoly_mul_calls": ("count", "lower"),
    "combinatorics.self_ms": ("ms", "lower"),
    "combinatorics.central_character_calls": ("count", "lower"),
    "combinatorics.mn_character_calls": ("count", "lower"),
    "combinatorics.partitions_of_hit_ratio": ("ratio", "higher"),
    "cycles.self_ms": ("ms", "lower"),
    "cycles.multiply_central_calls": ("count", "lower"),
    "cycles.multiply_central_ms": ("ms", "lower"),
    "cycles.terms_out": ("count", "lower"),
    "local_models.self_ms": ("ms", "lower"),
    "local_models.hurwitz_calls": ("count", "lower"),
    "local_models.hurwitz_ms": ("ms", "lower"),
    "grammar.self_ms": ("ms", "lower"),
    "grammar.parse_calls": ("count", "lower"),
    "grammar.parse_chars_per_s": ("chars/s", "higher"),
    "grammar.render_chars_per_s": ("chars/s", "higher"),
    "cli.interp_start_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}


# Seconds each reference takes when the machine runs at full speed (2 vCPU
# Xeon, Python 3.11).  Times are reported at this reference speed.
COMPUTE_REFERENCE_S = 0.0007
STARTUP_REFERENCE_S = 0.0525
# The start-up reference: a fresh `python -S -c STARTUP_REFERENCE_CODE`,
# which starts an interpreter and imports the stdlib modules singclass uses.
STARTUP_REFERENCE_CODE = (
    "import argparse, dataclasses, fractions, functools, importlib.resources, itertools, json, re"
)


def _compute_kernel():
    # The kinds of work singclass does: Fraction arithmetic, tuple hashing,
    # dict updates, sorting by a string key.
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(200):
        key = (i % 17, (i * 7) % 11, (i % 5,))
        acc[key] = acc.get(key, Fraction(0)) + x * i
    sorted(acc, key=str)


def compute_reference() -> float:
    """Seconds for the fastest of three runs of the compute kernel.

    The collector is off meanwhile, so the sample does not depend on how
    many objects the program under test holds."""
    best = math.inf
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = perf_counter()
            _compute_kernel()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled_fastest(times: list[list[float]], refs: list[list[float]], nominal: float,
                   segment: list[int] | None = None) -> tuple[list[float], float]:
    """Each op's fastest time at reference speed, and the run's speed factor.

    ``times[i][j]`` is op j in pass i.  ``refs[i][k]`` is a reference time
    taken in pass i; op j lies between samples ``segment[j]`` and
    ``segment[j] + 1`` (by default, sample j is taken just before op j and
    the last sample after the last op).  An op's reference time is the
    fastest, over the passes, of the slower of the two samples around it:
    the same statistic as the op's own fastest time, and one that a brief
    fast moment caught by a single sample does not lower.  Each op's fastest
    time is scaled by ``nominal`` over its reference time.  The speed factor
    is ``nominal`` over the median op reference time.  A run that had
    full-speed stretches is left nearly as measured; one that was slow
    throughout is brought back to full speed."""
    around = fastest_per_op([[max(r[k], r[k + 1]) for k in range(len(r) - 1)] for r in refs])
    fastest = fastest_per_op(times)
    segment = segment if segment is not None else list(range(len(fastest)))
    scaled = [t * nominal / around[k] for t, k in zip(fastest, segment, strict=True)]
    return scaled, nominal / percentile([around[k] for k in segment], 0.5)


def fastest_per_op(passes: list[list[float]]) -> list[float]:
    """Each op's fastest time over the passes; ``passes[i][j]`` is op j in pass i."""
    if not passes:
        raise ValueError("need at least one pass")
    return [min(samples) for samples in zip(*passes, strict=True)]


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 <= q <= 1).

    A weighted mean of all order statistics, the i-th weighted by the mass
    that Beta((n+1)q, (n+1)(1-q)) puts on ((i-1)/n, i/n].  Unlike a single
    order statistic it does not jump when the quantile falls in a gap
    between two clusters of op times, as p90 of cycle-products does.  The
    Beta mass is integrated with the midpoint rule, 100 cells per order
    statistic."""
    if not values:
        raise ValueError("need at least one value")
    xs = sorted(values)
    n = len(xs)
    if n == 1 or q <= 0 or q >= 1:
        return xs[0] if q <= 0 or n == 1 else xs[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cells = 100
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / (cells * n) for k in range(cells * n))]
    top = max(logs)
    mass = [math.exp(v - top) for v in logs]
    weights = [math.fsum(mass[i * cells:(i + 1) * cells]) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def end_to_end(fastest: list[float], setups: list[float], peak_rss_kb: list[int]) -> dict[str, float]:
    """The end-to-end metrics of a run, from each op's fastest time, the
    fastest set-up time at each point of the pass where one is measured (one
    point for the in-process workloads, several for cli-calls) and each
    process's peak RSS."""
    return {
        "setup_s": percentile(setups, 0.5),
        "ops_per_s": len(fastest) / sum(fastest),
        "op_p50_ms": 1000 * percentile(fastest, 0.5),
        "op_p90_ms": 1000 * percentile(fastest, 0.9),
        "peak_rss_mb": max(peak_rss_kb) / 1024,
    }


def merge_summaries(summaries: list[dict]) -> dict:
    """Add up tracer summaries, e.g. of the separate processes of one cli pass."""
    out: dict = {"self_s": {}, "counts": {}, "sums": {}, "inclusive_s": {}, "caches": {}, "spans": 0}
    for s in summaries:
        for key in ("self_s", "counts", "sums", "inclusive_s"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for name, (hits, misses) in s["caches"].items():
            h, m = out["caches"].get(name, (0, 0))
            out["caches"][name] = [h + hits, m + misses]
        out["spans"] += s["spans"]
    return out


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(traced: list[dict], factor: float, probes: list[tuple[float, float]],
              probe_factor: float, traced_ops_per_s: float, untraced_ops_per_s: float) -> dict[str, float]:
    """The per-layer metrics from the summaries of the traced passes
    (``Tracer.summary``) and their speed factor, the cli probes
    ``(interp_start_s, import_s)`` and theirs, and the ops/s of the traced
    and untraced passes of the same run.  Times take the fastest traced
    pass; counts are the same in every traced pass."""
    first = traced[0]
    counts, sums = first["counts"], first["sums"]

    def count(*names: str) -> int:
        return sum(counts.get(n, 0) for n in names)

    def best_ms(get) -> float:
        return 1000 * factor * min(get(s) for s in traced)

    def best_rate(amount: str, timer: str) -> float:
        rates = [s["sums"].get(amount, 0) / s["inclusive_s"][timer]
                 for s in traced if s["inclusive_s"].get(timer)]
        return max(rates, default=0.0) / factor

    out = {}
    for layer in ("trees", "classes", "exact", "combinatorics", "cycles", "local_models", "grammar"):
        out[f"{layer}.self_ms"] = best_ms(lambda s, layer=layer: s["self_s"][layer])
    out.update({
        "trees.tree_calls": count("trees.tree"),
        "trees.vanishes_calls": count("trees.vanishes"),
        "trees.substitute_calls": count("trees.substitute"),
        "trees.encoding_hit_ratio": hit_ratio(*first["caches"]["trees.encoding_hit_ratio"]),
        "classes.basis_change_calls": count("classes.basic_to_sing", "classes.sing_to_basic"),
        "classes.terms_out": sums.get("classes.terms_out", 0),
        "classes.memo_hit_ratio": hit_ratio(*first["caches"]["classes.memo_hit_ratio"]),
        "exact.solve_linear_calls": count("exact.solve_linear"),
        "exact.solve_linear_ms": best_ms(lambda s: s["inclusive_s"].get("exact.solve_linear", 0.0)),
        "exact.solve_linear_cells": sums.get("exact.solve_linear_cells", 0),
        "exact.xipoly_mul_calls": count("exact.XiPolynomial.__mul__"),
        "combinatorics.central_character_calls": count("combinatorics.central_character"),
        "combinatorics.mn_character_calls": count("combinatorics.mn_character"),
        "combinatorics.partitions_of_hit_ratio": hit_ratio(*first["caches"]["combinatorics.partitions_of_hit_ratio"]),
        "cycles.multiply_central_calls": count("cycles.multiply_central"),
        "cycles.multiply_central_ms": best_ms(lambda s: s["inclusive_s"].get("cycles.multiply_central", 0.0)),
        "cycles.terms_out": sums.get("cycles.terms_out", 0),
        "local_models.hurwitz_calls": count("local_models.hurwitz_coordinates"),
        "local_models.hurwitz_ms": best_ms(
            lambda s: s["inclusive_s"].get("local_models.hurwitz_coordinates", 0.0)),
        "grammar.parse_calls": count("grammar.parse_class", "grammar.parse_cycles"),
        "grammar.parse_chars_per_s": best_rate("grammar.parse_chars", "grammar.parse"),
        "grammar.render_chars_per_s": best_rate("grammar.render_chars", "grammar.render"),
        "cli.interp_start_ms": 1000 * probe_factor * min(start for start, _ in probes),
        "cli.import_ms": 1000 * probe_factor * min(imp for _, imp in probes),
        "trace.overhead_ratio": traced_ops_per_s / untraced_ops_per_s,
    })
    return out
