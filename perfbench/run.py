"""Benchmark of singclass: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
A run is a fixed number of passes made one after another, each in a fresh
interpreter (see DESIGN.md for why).  With ``--trace 0`` the last line of
stdout is the end-to-end result; with ``--trace 1`` untraced and traced
passes alternate and the last line carries the per-layer metrics.  The full
run record, and the spans of the last traced pass, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import summary  # noqa: E402

# Seconds one untraced pass took at the commit that defined the benchmark
# (2 vCPUs, Python 3.11, machine at full speed).  A run plans
# max(MIN_PASSES, seconds // nominal) passes.  Once it has MIN_PASSES (and,
# when traced, one traced pass), it starts no pass that would end, judged by
# the last pass, after SOFT_CAP x --seconds; every child is killed at
# HARD_DEADLINE_S.  So a run ends in time even when the machine is slow.
NOMINAL_PASS_S = {"class-tables": 2.3, "cycle-products": 5.1, "text-models": 0.9, "cli-calls": 12.5}
MIN_PASSES = 2
SOFT_CAP = 1.1
HARD_DEADLINE_S = 170.0
# cli-calls takes a start-up probe before every PROBE_EVERY-th call; every
# traced run takes PROBES_PER_PASS probes after each pass.
PROBE_EVERY = 17
PROBES_PER_PASS = 3
# cli-calls takes a start-up reference before every CLI_REFERENCE_STRIDE-th call.
CLI_REFERENCE_STRIDE = 6


@dataclass
class Child:
    code: int
    stdout: bytes
    spawned: float
    exited: float
    rss_kb: int


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool, log):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.log = log
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32), PYTHONPATH=str(SRC))
        self.probes: list[tuple[float, float, float]] = []  # (spawned, started, imported)
        self.spans_path = OUT / f"spans-{workload}-seed{seed}.bin"

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion, one at a time; time it from spawn to exit."""
        r, w = os.pipe()
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, w, 1),
            (os.POSIX_SPAWN_DUP2, self.log.fileno(), 2),
        ]
        try:
            spawned = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, "-S", *argv], self.env,
                                 file_actions=actions)
        finally:
            os.close(w)
        chunks = []
        killed = False
        try:
            with os.fdopen(r, "rb") as pipe:
                while True:
                    left = self.start + HARD_DEADLINE_S - time.perf_counter()
                    if left <= 0 or not select.select([pipe], [], [], left)[0]:
                        os.kill(pid, signal.SIGKILL)
                        killed = True
                        break
                    chunk = os.read(pipe.fileno(), 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _, status, usage = os.wait4(pid, 0)
        exited = time.perf_counter()
        code = -1 if killed else os.waitstatus_to_exitcode(status)
        return Child(code, b"".join(chunks), spawned, exited, usage.ru_maxrss)

    def plan(self) -> list[bool]:
        """Which passes are traced, in order."""
        n = max(MIN_PASSES, int(self.seconds / NOMINAL_PASS_S[self.workload]))
        return [False, True] * max(1, n // 3) if self.traced else [False] * n

    def more_passes(self, done: list[bool], last_pass_s: float) -> bool:
        if len(done) < MIN_PASSES or False not in done or (self.traced and True not in done):
            return True
        return time.perf_counter() - self.start + last_pass_s <= SOFT_CAP * self.seconds

    def probe(self) -> float:
        """Start-up probe: seconds from spawn until singclass.cli is imported."""
        child = self.spawn([str(HERE / "probe.py")])
        if child.code != 0:
            raise RuntimeError(f"start-up probe exited with {child.code}; see {self.log.name}")
        started, imported = map(float, child.stdout.split())
        self.probes.append((child.spawned, started, imported))
        return imported - child.spawned

    def startup_reference(self) -> float:
        """Seconds a fresh interpreter takes to run summary.STARTUP_REFERENCE_CODE."""
        child = self.spawn(["-c", summary.STARTUP_REFERENCE_CODE])
        if child.code != 0:
            raise RuntimeError(f"start-up reference exited with {child.code}; see {self.log.name}")
        return child.exited - child.spawned

    def after_pass(self):
        if self.traced:
            for _ in range(PROBES_PER_PASS):
                self.probe()

    # -- in-process workloads --------------------------------------------
    def in_process_pass(self, traced: bool) -> dict | None:
        child = self.spawn([str(HERE / "child.py"), self.workload, str(self.seed),
                            "1" if traced else "0", str(self.spans_path)])
        lines = child.stdout.decode().strip().splitlines()
        if child.code != 0 or not lines:
            return None
        data = json.loads(lines[-1])
        data["setups"] = [data["ready"] - child.spawned]
        data["setup_segment"] = [0]
        data["wall_s"] = child.exited - child.spawned
        return data

    # -- cli-calls ---------------------------------------------------------
    def cli_pass(self, traced: bool) -> dict:
        began = time.perf_counter()
        times, refs, ok, rss, setups, errors, traces = [], [], [], [], [], [], []
        summary_path = OUT / f"cli-call-{self.seed}.json"
        calls = ops.cli_calls()
        for i, call in enumerate(calls):
            if i % CLI_REFERENCE_STRIDE == 0:
                refs.append(self.startup_reference())
            if i % PROBE_EVERY == 0:
                setups.append(self.probe())
            if traced:
                argv = [str(HERE / "launch_cli.py"), str(summary_path), str(self.spans_path), *call["argv"]]
            else:
                argv = ["-m", "singclass.cli", *call["argv"]]
            child = self.spawn(argv)
            times.append(child.exited - child.spawned)
            rss.append(child.rss_kb)
            good = child.code == 0 and child.stdout == call["stdout"].encode()
            ok.append(good)
            if not good and len(errors) < 5:
                errors.append(f"{' '.join(call['argv'])}: exit {child.code}, stdout differs"
                              if child.code == 0 else f"{' '.join(call['argv'])}: exit {child.code}")
            if traced and child.code == 0:
                traces.append(json.loads(summary_path.read_text()))
        refs.append(self.startup_reference())
        segment = [j // CLI_REFERENCE_STRIDE for j in range(len(calls))]
        return {"times": times, "refs": refs, "segment": segment, "setup_refs": refs,
                "setup_segment": segment[::PROBE_EVERY], "ok": ok, "errors": errors,
                "rss_kb": max(rss), "setups": setups, "wall_s": time.perf_counter() - began,
                "names": [" ".join(c["argv"]) for c in calls],
                "trace": summary.merge_summaries(traces) if traced else None}

    def run(self) -> tuple[list[dict], list[bool]]:
        passes, kinds, startup = [], [], []
        last_pass_s = 0.0
        for traced in self.plan():
            if not self.more_passes(kinds, last_pass_s):
                break
            began = time.perf_counter()
            if self.workload == "cli-calls":
                data = self.cli_pass(traced)
            else:
                startup.append(self.startup_reference())
                data = self.in_process_pass(traced)
            passes.append(data)
            kinds.append(traced)
            self.after_pass()
            last_pass_s = time.perf_counter() - began
        if self.workload != "cli-calls":
            startup.append(self.startup_reference())
            for i, data in enumerate(passes):
                if data is not None:
                    data["setup_refs"] = startup[i:i + 2]
        return passes, kinds


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def aggregate(runner: Runner, passes: list[dict | None], kinds: list[bool]) -> tuple[dict, dict]:
    """The result line and the run record."""
    done = [(p, t) for p, t in zip(passes, kinds) if p is not None]
    if not any(not t for _, t in done) or (runner.traced and not any(t for _, t in done)):
        raise RuntimeError("no pass of the needed kind completed")
    n_ops = len(done[0][0]["times"])
    attempted = n_ops * len(passes)
    failed = n_ops * (len(passes) - len(done)) + sum(ok.count(False) for ok in (p["ok"] for p, _ in done))
    untraced = [p for p, t in done if not t]
    traced = [p for p, t in done if t]
    nominal = summary.STARTUP_REFERENCE_S if runner.workload == "cli-calls" else summary.COMPUTE_REFERENCE_S
    segment = done[0][0].get("segment")

    def scaled(kind: list[dict]):
        return summary.scaled_fastest([p["times"] for p in kind], [p["refs"] for p in kind], nominal, segment)

    fastest, factor = scaled(untraced)
    setups, startup_factor = summary.scaled_fastest(
        [p["setups"] for p in untraced], [p["setup_refs"] for p in untraced],
        summary.STARTUP_REFERENCE_S, untraced[0]["setup_segment"])
    e2e = summary.end_to_end(fastest, setups, [p["rss_kb"] for p in untraced])
    metrics, layer = e2e, None
    if runner.traced:
        traced_fastest, traced_factor = scaled(traced)
        probes = [(started - spawned, imported - started) for spawned, started, imported in runner.probes]
        layer = summary.per_layer([p["trace"] for p in traced], traced_factor, probes, startup_factor,
                                  len(traced_fastest) / sum(traced_fastest), e2e["ops_per_s"])
        metrics = layer
    units = summary.PER_LAYER if runner.traced else summary.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    record = {
        "workload": runner.workload,
        "seed": runner.seed,
        "pythonhashseed": runner.env["PYTHONHASHSEED"],
        "trace": int(runner.traced),
        "seconds": runner.seconds,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": [{"traced": t, "completed": p is not None,
                    "wall_s": p and p["wall_s"], "ops_s": p and sum(p["times"]), "rss_kb": p and p["rss_kb"],
                    "reference_ms": p and [round(1000 * v, 4) for v in p["refs"]],
                    "startup_reference_ms": p and [round(1000 * v, 4) for v in p["setup_refs"]]}
                   for p, t in zip(passes, kinds)],
        "ops": n_ops,
        "samples_per_op": len(untraced),
        "traced_samples_per_op": len(traced),
        "fail_ratio": failed / attempted,
        "errors": [e for p, _ in done for e in p["errors"]][:10],
        "end_to_end": e2e,
        "speed_factor": factor,
        "startup_speed_factor": startup_factor,
        "end_to_end_unscaled": summary.end_to_end(
            summary.fastest_per_op([p["times"] for p in untraced]),
            [s for p in untraced for s in p["setups"]], [p["rss_kb"] for p in untraced]),
        "per_layer": layer,
        "counts_repeat": all(p["trace"]["counts"] == traced[0]["trace"]["counts"] for p in traced)
        if traced else None,
        "trace_counts": traced[0]["trace"]["counts"] if traced else None,
        "fastest_ms": {name: 1000 * t for name, t in zip(done[0][0]["names"], fastest)},
        "samples": [{"traced": t, "times": p["times"], "refs": p["refs"], "setups": p["setups"],
                     "setup_refs": p["setup_refs"]}
                    for p, t in done],
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "singclass" / "__init__.py").is_file():
        print(f"perfbench: no singclass package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    with open(OUT / f"{args.workload}-stderr.log", "ab") as log:
        runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), log)
        try:
            runner.probe()  # compiles the bytecode before anything is timed
            runner.probes.clear()
            passes, kinds = runner.run()
            result, record = aggregate(runner, passes, kinds)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    record["loadavg_before"] = load_before
    record["loadavg_after"] = os.getloadavg()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    brief = {k: record[k] for k in ("workload", "seed", "commit", "python", "nproc", "loadavg_before",
                                    "loadavg_after", "ops", "samples_per_op", "fail_ratio")}
    print(f"record {path.relative_to(ROOT)}: {json.dumps(brief)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
