"""Benchmark entry point: one workload per run, or ``--workload all``.

    python3 perfbench/run.py --workload serve-c2lsh-hot --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program under test is imported from
that checkout's ``src/``.  A run

1. builds the workload's engine in this fresh interpreter;
2. draws its inputs from ``--seed`` and computes the reference answers;
3. warms up, then measures for about ``--seconds`` (``--trace 1``: an
   untraced and a traced pass of half that each, the traced one
   recording a span around every layer entry point).  The measured pass
   pauses twice to time a set-up in a fresh child interpreter, so it
   samples a longer stretch of the host's drifting speed; ``setup_s`` is
   the median of ``SETUP_SAMPLES`` set-ups;
4. checks every answer against its reference;
5. prints each metric by name and unit, then, as the last line, one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

It exits 1 when an answer is wrong (other failed operations - shed,
degraded, timed out, raised - are counted in ``failed``) and 2 when the
checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "out"
PROBE_TIMEOUT_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time one set-up and print its phases as JSON",
    )
    return parser.parse_args(argv)


def probe_setup(workload: str) -> dict:
    """Time one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_one(args, t0: float) -> int:
    import settings as S
    import workloads as W
    import ledger

    built = W.build(args.workload, t0)
    splits = [built.split]

    def pause() -> None:
        # The measured pass is paused here; time one more set-up.
        if len(splits) < S.SETUP_SAMPLES:
            splits.append(probe_setup(args.workload))

    start = time.perf_counter()
    runner = W.RUNNERS[args.workload](built, args.seed)
    if args.trace:
        half = args.seconds / 2
        plain = runner.run(runner.prepare(half), pause=pause)
        if built.mutable is not None:
            # Writes change the state; the traced pass starts from a
            # fresh build so both passes do identical work.
            runner = W.RUNNERS[args.workload](W.build(args.workload), args.seed)
        inputs = runner.prepare(half)
        tracer = ledger.Tracer()
        traced = runner.run(inputs, tracer)
        passes = [plain, traced]
    else:
        passes = [runner.run(runner.prepare(args.seconds), pause=pause)]
    while len(splits) < S.SETUP_SAMPLES:
        pause()
    split = {name: statistics.median(s[name] for s in splits) for name in built.split}
    if args.trace:
        overhead = 1.0 - ledger.median(traced.rates) / ledger.median(plain.rates)
        metrics = W.per_layer(traced, tracer, split, overhead)
        W.dump_trace(TRACE_DIR / f"trace-{args.workload}-{args.seed}.json", tracer)
    else:
        metrics = W.end_to_end(passes[0], split["total"])
    shown = passes[-1]
    wall = time.perf_counter() - start

    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(p.tally.failed for p in passes)
    correct = all(p.tally.wrong == 0 for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  setup ({S.SETUP_SAMPLES} fresh interpreters, median): "
          + "  ".join(f"{k}={v:.3f}s" for k, v in split.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {fmt(value):>12} {unit}")
    latency = ledger.summarize_ms(shown.latency_s)
    print(f"  {'latency samples':<36} {latency['n']:>12} count")
    if "tail" in latency:
        print(f"  {'latency_' + latency['tail'] + '_ms':<36} {fmt(latency['tail_ms']):>12} ms")
    for name, (value, unit, note) in shown.extra.items():
        print(f"  {name:<36} {fmt(value):>12} {unit}  ({note})")
    failures = sum((p.tally.failures for p in passes), start=collections.Counter())
    print(f"  {'failed_frac':<36} {fmt(failed / attempted if attempted else 0.0):>12} ratio  "
          f"({failed} of {attempted}: {dict(failures) or 'none'})")
    print(f"  {'run wall':<36} {fmt(wall):>12} s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own interpreter; combine the results."""
    import settings as S

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in S.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            code = done.returncode or 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no repro package under src/ next to the benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import settings as S

    if args.workload != "all" and args.workload not in S.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: all, "
              + ", ".join(S.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    t0 = time.perf_counter()
    if args.setup_probe:
        import workloads

        print(json.dumps(workloads.build(args.workload, t0).split))
        return 0
    return run_one(args, t0)


if __name__ == "__main__":
    sys.exit(main())
