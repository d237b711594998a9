#!/usr/bin/env python3
"""Repeat mode: run one workload k times and summarize every end-to-end metric.

    python3 perfbench/repeat.py --workload discrete --runs 10 --sets 2

Each run is a separate `run.py` process with its own seed (`--first-seed`,
then consecutive).  For every metric the summary gives the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median.  With `--sets 2` a second
set of k runs on fresh seeds follows, and the summary adds how far the
second median moved against the first in the metric's worse direction.
Bounds come from BENCHMARK.json when it is present; a spread is marked
"steady" below a third of its bound.  The summary also says whether every
run reported the same `attempted` and `failed` counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_bounds() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)

    bounds = load_bounds()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    sets: list[dict[str, list[float]]] = []
    counts: set[tuple[int, int]] = set()  # (attempted, failed) of every run
    seed = args.first_seed
    for _ in range(args.sets):
        values: dict[str, list[float]] = {}
        for _ in range(args.runs):
            res = one_run(args.workload, seed, seconds)
            print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            values.setdefault("failed/attempted", []).append(res["failed"] / res["attempted"])
            counts.add((res["attempted"], res["failed"]))
            seed += 1
        sets.append(values)

    print(f"\n{args.workload}: {args.runs} runs per set, {seconds:g} s each")
    agree = "the same on every run" if len(counts) == 1 else "DIFFER between runs"
    print(f"(attempted, failed): {', '.join(map(str, sorted(counts)))}, {agree}")
    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
          + ("  second-set shift" if args.sets == 2 else ""))
    for name in sets[0]:
        med, q1, q3, spread = summarize(sets[0][name])
        spec = bounds.get(name, {})
        bound = spec.get("bound")
        line = f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
        line += f"{bound:>6g}" if bound is not None else f"{'-':>6}"
        if bound is not None:
            line += "  steady" if spread < bound / 3 else "  NOT STEADY"
        if args.sets == 2:
            med2 = summarize(sets[1][name])[0]
            shift = (med2 - med) / med if med else float("nan")
            worse = shift if spec.get("better") == "lower" else -shift
            line += f"  {worse:+.4f}"
            if bound is not None:
                line += " ok" if worse <= bound else " WORSE THAN BOUND"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
