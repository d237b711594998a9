#!/usr/bin/env python3
"""chancap benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload continuous --seed 1 --seconds 15 --trace 0

Run from the root of a repository checkout; the library is imported from
its `src/` directory only.  One caller runs the workload's ops back to back
(a closed loop with one client), in whole rounds, until it has run every
round of the pool once and the ops have taken `--seconds` of time; every op
is gated on correctness.  `attempted` and `failed` count distinct ops of the
pool, so they do not depend on how many rounds the run completes.  With
`--trace 0` the last line of output is a JSON object with the end-to-end
metrics; with `--trace 1` the loop runs for half the time (at least one
pass), the same ops are then replayed under the tracer, and the JSON
carries the per-layer metrics instead.
README.md explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Generated config files and CLI outputs; removed when the run ends.
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("continuous", "discrete", "montecarlo", "cli")
# Cold starts per run for setup_s; the median is reported.
SETUP_STARTS = 3
# Untimed op time before measuring, so lazy imports and first calls are paid.
WARMUP_S = 1.0
# op_tail_ms is this percentile of the op latencies.  Every round has the
# same mix of op kinds, so a fixed percentile reads the same rank of that
# mix however many rounds a run completes, and a faster program never gives
# a higher tail.  At the seed commit's speed at least 10 ops lie beyond it
# on every workload.
TAIL_PERCENTILE = 90

# Fresh interpreter: import chancap and build the workload's inputs.
_SETUP_PROBE = """
import sys, time
from pathlib import Path
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import chancap
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - start)
"""


@dataclass
class Record:
    op: object       # workloads.Op
    seconds: float
    status: str      # "" when the op passed its gate


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    times = []
    for i in range(SETUP_STARTS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed),
             str(work / f"setup{i}")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def judge(op, result, digests: dict, key) -> str:
    """Gate one op's result; '' when it passes."""
    import workloads

    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    try:
        op.check(result)
    except workloads.GateMiss as miss:
        return f"gate: {miss}"
    except Exception as exc:  # a malformed output can break the gate itself
        return f"gate error {type(exc).__name__}: {exc}"
    found = workloads.digest(result)
    if digests.setdefault(key, found) != found:
        return "repeat differs"
    return ""


def timed(fn):
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an op that raises is counted, not fatal
        result = exc
    return result, time.perf_counter() - start


def closed_loop(pool, seconds: float, digests: dict, call=timed, rounds: int | None = None):
    """Run whole rounds, cycling through the pool, until every round has run
    once and the ops have taken `seconds` of time (or exactly `rounds`)."""
    records: list[Record] = []
    spent, done = 0.0, 0
    while (done < len(pool) or spent < seconds) if rounds is None else (done < rounds):
        slot = done % len(pool)
        for index, op in enumerate(pool[slot]):
            result, dt = call(op.run)
            records.append(Record(op, dt, judge(op, result, digests, (slot, index))))
            spent += dt
        done += 1
    return records, done


def warm_up(ops) -> None:
    spent = 0.0
    for op in ops:
        spent += timed(op.run)[1]
        if spent >= WARMUP_S:
            return


def end_to_end(records, setup_times) -> dict[str, tuple[float, str]]:
    lat_ms = [r.seconds * 1e3 for r in records]
    passed = sum(1 for r in records if not r.status)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (statistics.quantiles(lat_ms, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
                       "ms"),
        "ops_per_s": (passed / (sum(lat_ms) / 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def op_counts(records) -> tuple[int, int]:
    """(attempted, failed) over the distinct ops of the pool.

    Every op runs at least once and its output is the same on every repeat
    (a repeat that differs fails), so both counts are fixed by the inputs
    and the code, not by how many rounds the run completes.
    """
    attempted = {id(r.op) for r in records}
    failed = {id(r.op) for r in records if r.status}
    return len(attempted), len(failed)


def failed_frac(records) -> float:
    attempted, failed = op_counts(records)
    return failed / attempted


def per_layer(tracer, records) -> dict[str, tuple[float, str]]:
    """The traced replay's layer metrics plus the untraced run's failure share
    and Monte Carlo rate (zero on some workloads, so not end-to-end).

    The replay runs the same ops as the untraced pass, so the trials its
    tracer counted are the trials the untraced pass completed.
    """
    import tracing

    busy = sum(r.seconds for r in records)
    out = tracing.layer_metrics(tracer)
    out["trace.overhead_frac"] = (tracer.op_s / busy - 1.0, "ratio")
    out["failed_frac"] = (failed_frac(records), "ratio")
    out["mc_trials_per_s"] = (tracing.trials(tracer) / busy, "1/s")
    return out


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def failure_summary(records) -> list[str]:
    """Failed distinct ops per op kind, by reason."""
    per_op: dict[int, Record] = {}
    for r in records:
        if id(r.op) not in per_op or (r.status and not per_op[id(r.op)].status):
            per_op[id(r.op)] = r
    by_kind: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for r in per_op.values():
        kind = r.op.kind
        totals[kind] = totals.get(kind, 0) + 1
        if r.status:
            reason = re.sub(r"-?\d[\d.e+-]*", "#", r.status)[:72]
            by_kind.setdefault(kind, {})
            by_kind[kind][reason] = by_kind[kind].get(reason, 0) + 1
    lines = []
    for kind, reasons in sorted(by_kind.items()):
        n = sum(reasons.values())
        detail = "; ".join(f"{why} x{k}" for why, k in sorted(reasons.items()))
        lines.append(f"  {kind}: {n}/{totals[kind]} failed ({detail})")
    return lines


def run(args) -> int:
    if not (SRC / "chancap" / "__init__.py").is_file():
        print(f"perfbench: no chancap sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import chancap

    if not Path(chancap.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported chancap from {chancap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = measure_setup(args.workload, args.seed, work)
        wl = workloads.build(args.workload, args.seed, work / "run")
        warm_up(wl.rounds[0])
        digests: dict = {}
        # A traced run splits its time between the untraced pass and the
        # traced replay, so both kinds of run take about --seconds.
        budget = args.seconds / 2 if args.trace else args.seconds
        records, rounds = closed_loop(wl.rounds, budget, digests)
        if args.trace:
            with tracing.Tracer() as tracer:
                traced, _ = closed_loop(wl.rounds, 0.0, digests, call=tracer.run, rounds=rounds)
            records_all = records + traced
        else:
            records_all = records
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted, failed = op_counts(records)
    anchors_ok = all(not r.status for r in records_all if r.op.anchor)
    repeats_ok = all(r.status != "repeat differs" for r in records_all)
    e2e = end_to_end(records, setup_times)

    print(f"perfbench workload={args.workload} seed={args.seed} rounds={rounds} "
          f"op runs={len(records)} distinct ops={attempted} failed={failed} "
          f"closed loop, 1 client")
    print("end to end (untraced):")
    print_metrics({**e2e, "failed_frac": (failed_frac(records), "ratio")})
    beyond = sum(1 for r in records if r.seconds * 1e3 > e2e["op_tail_ms"][0])
    print(f"  op_tail_ms is p{TAIL_PERCENTILE}: {beyond} of {len(records)} ops lie beyond it")
    print(f"  setup_s cold starts: {', '.join(f'{t:.4f}' for t in setup_times)}")
    summary = failure_summary(records)
    print("failures by op kind:" if summary else "failures by op kind: none")
    for line in summary:
        print(line)
    print(f"anchors {'pass' if anchors_ok else 'FAIL'}; repeated ops "
          f"{'agree' if repeats_ok else 'DIFFER'}")

    if args.trace:
        layers = per_layer(tracer, records)
        print("per layer (traced replay of the same ops):")
        print_metrics(layers)
        self_ms = sum(v for k, (v, _) in layers.items() if k.endswith(".self_ms"))
        untraced_ms = sum(r.seconds for r in records) * 1e3
        print(f"  self times + unattributed = {self_ms + layers['trace.unattributed_ms'][0]:.1f} ms "
              f"traced, against {untraced_ms:.1f} ms untraced")
        metrics = layers
    else:
        metrics = e2e

    result = {
        "correct": anchors_ok and repeats_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
