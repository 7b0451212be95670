"""Benchmark of hhverify: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-corpus, hunt-poly, quadrature-oscillatory (see
workloads.py and README.md).  The run imports hhverify from ``src/`` of the
checkout this file sits in, builds one round of operations from the seed,
runs one untimed warm-up operation, then repeats whole rounds, one caller
and one operation at a time, while another round still fits in S seconds
(always at least one).  Every result is checked against references computed
apart from the program (checks.py).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones:

  setup_s      median over fresh interpreters importing hhverify and building
               the inputs (setup_probe.py), at least SETUP_PROBES of them,
               spread before, between and after the rounds
  run_s        median over rounds of the summed operation latencies
  op_p50_ms    median latency of one operation over every timed operation
  peak_rss_mb  peak resident memory of this process

With ``--trace 1`` the rounds run through tracing.py's wrappers and the
metrics are its per-layer ones, per round (counts from one round, times as
the median over rounds); the spans go to bench/out/<workload>-s<seed>/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class SetupProbes:
    """Times set-up in fresh interpreters (setup_probe.py), a few at a time.

    The machine's speed drifts over seconds, so the probes are spread over
    the run: some before the first round, one after each round, and the rest
    after the last, at least SETUP_PROBES in all."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
        self.workdir = workdir
        self.times = []

    def take(self, count: int) -> None:
        for _ in range(count):
            out = self.workdir / f"probe-{len(self.times)}"
            proc = subprocess.run(
                [*self.argv, "--out", str(out)], capture_output=True, text=True, timeout=120, check=True
            )
            self.times.append(float(proc.stdout.strip().splitlines()[-1]))


class Runner:
    """Runs operations, times them and collects the problems their checks find."""

    def __init__(self):
        self.problems = []
        self.failed = 0

    def run(self, op) -> float | None:
        """Latency of one operation in seconds, or None when it raised."""
        try:
            start = perf_counter()
            out = op.call()
            latency = perf_counter() - start
        except Exception:
            self.failed += 1
            print(f"{op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        try:
            problems = op.check(out)
        except (OSError, KeyError, ValueError) as exc:  # reports missing or malformed
            problems = [f"unreadable output: {exc!r}"]
        self.problems.extend(f"{op.label}: {problem}" for problem in problems)
        return latency


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hhverify" / "__init__.py").is_file():
        print(f"error: no hhverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    workdir = HERE / "out" / f"{args.workload}-s{args.seed}"

    probes = None if args.trace else SetupProbes(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    ops = workloads.build(args.workload, args.seed, workdir / "run", tracer)
    restore = tracing.install(tracer) if tracer else None
    runner = Runner()
    try:
        runner.run(ops[0])  # warm-up: checked, but neither timed nor counted
        runner.failed = 0
        if tracer:
            tracer.take_round(0.0, 0)
        if probes:
            probes.take(SETUP_PROBES // 2)
        rounds, layer_rounds = [], []
        begin = perf_counter()
        while True:
            latencies = [runner.run(op) for op in ops]
            rounds.append(latencies)
            if tracer:
                round_s = sum(t for t in latencies if t is not None)
                layer_rounds.append(tracer.take_round(round_s, sum(op.rows() for op in ops)))
            else:
                probes.take(1)
            elapsed = perf_counter() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        if restore:
            restore()

    attempted = len(rounds) * len(ops)
    if tracer:
        tracer.write(workdir / "trace.jsonl")
        metrics = {}
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            values = [r[name] for r in layer_rounds]
            if name.endswith("_s"):
                value = statistics.median(values)
            else:
                value = values[-1]
                if any(v != value for v in values):
                    runner.problems.append(f"{name} differs between rounds: {values}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        done = [t for r in rounds for t in r if t is not None]
        round_s = [sum(t for t in r if t is not None) for r in rounds]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probes.take(SETUP_PROBES - len(probes.times))
        values = {
            "setup_s": statistics.median(probes.times),
            "run_s": statistics.median(round_s),
            "op_p50_ms": 1000.0 * statistics.median(done) if done else 0.0,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
