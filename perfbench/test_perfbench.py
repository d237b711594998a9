"""Tests of the benchmark itself: inputs, gates, tracer and output contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import chancap  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = workloads.build(name, 7, tmp_path / "a").input_bytes()
    again = workloads.build(name, 7, tmp_path / "b").input_bytes()
    other = workloads.build(name, 8, tmp_path / "c").input_bytes()
    assert first == again
    assert first != other


def test_workload_names_match_round_makers():
    assert tuple(workloads.ROUND_MAKERS) == run.WORKLOADS


def test_rounds_share_one_composition(tmp_path):
    for name in run.WORKLOADS:
        rounds = workloads.build(name, 3, tmp_path / name).rounds
        kinds = [[op.kind for op in ops] for ops in rounds]
        assert all(k == kinds[0] for k in kinds), name


def _loop_records(round_s: list[float], seconds: float) -> list:
    """Records of a closed loop over identical rounds with these op times."""
    op = workloads.Op("x", {}, None, None)
    records, spent = [], 0.0
    while spent < seconds:
        records += [run.Record(op, t, "") for t in round_s]
        spent += sum(round_s)
    return records


def test_tail_does_not_rise_when_the_program_gets_faster():
    # A cli-like round: one slow call, two mid-size ones, many small ones.
    round_s = [1.5, 0.4, 0.35] + [0.02] * 12
    speedups = (1.0, 1.3, 1.8, 2.5, 4.0)
    tails = []
    for speedup in speedups:
        records = _loop_records([t / speedup for t in round_s], 30.0)
        tails.append(run.end_to_end(records, [1.0])["op_tail_ms"][0])
    # The tail stays on the 0.4 s call, however many rounds finish.
    assert tails == pytest.approx([400.0 / s for s in speedups])


def test_ops_per_s_counts_only_ops_that_passed():
    good, bad = workloads.Op("x", {}, None, None), workloads.Op("y", {}, None, None)
    records = [run.Record(good, 0.5, ""), run.Record(bad, 0.5, "raised AssertionError")]
    e2e = run.end_to_end(records, [1.0])
    assert e2e["ops_per_s"][0] == 1.0
    assert run.failed_frac(records) == 0.5


def test_loop_runs_every_round_and_counts_distinct_ops():
    def op(name, fails):
        def check(res):
            if fails:
                raise workloads.GateMiss("wrong")
        return workloads.Op(name, {}, lambda: 1.0, check)

    pool = [[op("a", False), op("b", True)], [op("c", False)], [op("d", True)]]
    for seconds, rounds in ((0.0, 3), (0.0, None)):
        records, done = run.closed_loop(pool, seconds, {}, rounds=rounds)
        assert done == 3 and len(records) == 4
        assert run.op_counts(records) == (4, 2)
    # Repeats of the same ops add op runs, not attempted or failed ops.
    records, done = run.closed_loop(pool, 0.0, {}, rounds=7)
    assert len(records) == 10
    assert run.op_counts(records) == (4, 2)


@pytest.mark.parametrize("name", [n for n, (_, _, fixed) in workloads.ROUND_MAKERS.items() if fixed])
def test_fixed_corpus_gives_every_seed_the_same_channels(name, tmp_path):
    def channels(seed):
        ops = [op for ops in workloads.build(name, seed, tmp_path / str(seed)).rounds for op in ops]
        # The CLI's Monte Carlo calls carry the seed's job seeds; the channels do not.
        strip = [{**op.params, "config": {k: v for k, v in op.params.get("config", {}).items()
                                          if k != "seed"}} for op in ops]
        return sorted(json.dumps([op.kind, p], sort_keys=True) for op, p in zip(ops, strip))

    assert channels(1) == channels(2)


def _edit_column(text: str, column: int, edit) -> str:
    """The CSV text with edit(row, value) applied to one column of the data rows."""
    lines = text.splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    for i, row in enumerate(rows):
        row[column] = edit(i, row[column])
    return "\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n"


def test_cli_defaults_pin_the_uniform_references(tmp_path):
    ops = {op.kind: op for op in workloads.build("cli", 1, tmp_path).rounds[0]
           if op.anchor and not op.params["config"]}
    capacity, broadcast = ops["cli.capacity"], ops["cli.broadcast"]
    result = capacity.run()
    capacity.check(result)
    wrong_ce = _edit_column(result["text"], 3, lambda i, v: repr(float(v) + 1e-4))
    with pytest.raises(workloads.GateMiss, match="C\\^e"):
        capacity.check({**result, "text": wrong_ce})

    result = broadcast.run()
    broadcast.check(result)
    # The rate profile reaches 0 at p_u = 1/6; move that one cell later.
    rates = [float(ln.split(",")[2]) for ln in result["text"].splitlines()[2:]]
    first_zero = rates.index(0.0)
    late_p_u = _edit_column(result["text"], 2, lambda i, v: "1e-4" if i == first_zero else v)
    with pytest.raises(workloads.GateMiss, match="p_u"):
        broadcast.check({**result, "text": late_p_u})


def test_gate_accepts_uniform_reference_and_rejects_wrong_ce(tmp_path):
    op = next(op for op in workloads.build("continuous", 1, tmp_path).rounds[0] if op.anchor)
    result = op.run()
    op.check(result)
    for wrong in (result["ce"] - 1e-3, result["bounds"].upper + 1e-3):
        with pytest.raises(workloads.GateMiss):
            op.check({**result, "ce": wrong})


def test_gate_rejects_ce_below_outage_bound_on_discrete(tmp_path):
    op = next(op for op in workloads.build("discrete", 1, tmp_path).rounds[0]
              if op.kind == "discrete.ladder8")
    result = op.run()
    op.check(result)
    with pytest.raises(workloads.GateMiss, match="below the outage bound"):
        op.check({**result, "ce": result["bounds"].lower - 1e-7})


def test_an_op_that_raises_is_a_failure():
    def boom():
        raise AssertionError("solver failed")

    op = workloads.Op("test.raises", {}, boom, lambda res: None)
    result, seconds = run.timed(op.run)
    assert seconds >= 0.0
    assert run.judge(op, result, {}, 0).startswith("raised AssertionError")


def test_repeat_with_different_output_is_a_failure():
    op = workloads.Op("test.repeat", {}, lambda: None, lambda res: None)
    digests: dict = {}
    assert run.judge(op, np.array([1.0]), digests, 0) == ""
    assert run.judge(op, np.array([1.0]), digests, 0) == ""
    assert run.judge(op, np.array([2.0]), digests, 0) == "repeat differs"


def _bindings():
    """Every chancap binding a tracer may patch, by identity."""
    out = {}
    for mod in tracing._chancap_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = value
            elif isinstance(value, dict):
                for k, v in value.items():
                    if callable(v):
                        out[(mod.__name__, key, k)] = v
    for t in tracing.TARGETS:
        owner_name, _, attr = t.attr.rpartition(".")
        if owner_name:
            cls = getattr(sys.modules[t.module], owner_name)
            out[(cls.__name__, attr)] = vars(cls)[attr]
    return out


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    cli_ops = workloads.build("cli", 1, tmp_path).rounds[0]
    mapdemo = next(op for op in cli_ops if op.kind == "cli.mapdemo")
    with tracing.Tracer() as tracer:
        assert chancap.cli._COMMANDS["mapdemo"] is not before[("chancap.cli", "_COMMANDS", "mapdemo")]
        assert chancap.capacity_vs_outage is not before[("chancap", "capacity_vs_outage")]
        assert chancap.simulate.capacity_vs_outage is chancap.capacity.capacity_vs_outage
        result, _ = tracer.run(mapdemo.run)
        mapdemo.check(result)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    stats = tracer.stats
    assert stats["cli.main"]["calls"] == 1
    assert stats["cli.mapdemo"]["calls"] == 1
    assert stats["codemap.bc_to_expected"]["calls"] == 1
    assert stats["cli.main"]["failed"] == 0


def test_tracer_restores_bindings_when_an_op_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            result, _ = tracer.run(lambda: chancap.optimize_discrete([0.5, 0.6], [0.1, 0.2]))
            assert isinstance(result, ValueError)
            raise RuntimeError("leave the block early")
    assert tracer.stats["layering.optimize_discrete"]["failed"] == 1
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_shape():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0.0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    setup = [1.0]
    op = workloads.Op("x", {}, None, None)
    e2e = run.end_to_end([run.Record(op, 0.5, "")] * 12, setup)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers = run.per_layer(tracing.Tracer(), [run.Record(op, 0.5, "")])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_runner_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
