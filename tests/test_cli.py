import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import chancap
from chancap import BroadcastCodeSpec, ContinuousBscComposite, binary_entropy, bsc_capacity, cli, layering
from chancap.cli import main


def _rows(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# chancap ")
    header = lines[1].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return header, data


def test_capacity_uniform_stdout(capsys):
    assert main(["capacity", "--grid", "5"]) == 0
    out = capsys.readouterr().out
    header, data = _rows(out)
    assert header == ["q", "c_q", "outage_capacity", "expected_capacity", "upper_bound"]
    assert data.shape == (5, 5)
    q = data[:, 0]
    assert np.allclose(data[:, 1], 1.0 - binary_entropy((1.0 - q) / 2.0), atol=1e-9)
    assert np.allclose(data[:, 2], (1.0 - q) * data[:, 1], atol=1e-12)
    assert np.allclose(data[:, 3], 0.11734466196332269, rtol=0.0, atol=1e-9)
    assert np.allclose(data[:, 4], 0.27865264154626224, atol=1e-6)


def test_capacity_single_state(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("family=bsc\nstates=0.2\npmf=1\n")
    assert main(["capacity", "--config", str(cfg), "--grid", "4"]) == 0
    _, data = _rows(capsys.readouterr().out)
    c = bsc_capacity(0.2)
    assert np.allclose(data[:, 1], c, atol=1e-12)
    assert np.allclose(data[:, 3], c, atol=1e-9)
    assert np.allclose(data[:, 4], c, atol=1e-12)


def test_capacity_bec_table(tmp_path, capsys):
    # Degraded erasure states: the expected rate is linear in H(X|U), so
    # the best layering is one outage code, max_k W_k (1 - alpha_k) = 0.7,
    # below the mean state capacity 1 - E[alpha] = 0.8.
    cfg = tmp_path / "bec.cfg"
    cfg.write_text("family=bec\nerasures=0.1,0.3\npmf=0.5,0.5\n")
    assert main(["capacity", "--config", str(cfg), "--grid", "5"]) == 0
    _, data = _rows(capsys.readouterr().out)
    assert np.allclose(data[:, 3], 0.7, atol=1e-12)
    assert np.allclose(data[:, 4], 0.8, atol=1e-12)
    assert np.all(data[:, 2] <= data[:, 3] + 1e-12)


def test_capacity_ge_steps_at_atom(tmp_path, capsys):
    cfg = tmp_path / "ge.cfg"
    cfg.write_text("family=ge\np_good=0.05\np_bad=0.3\nq_min=0\nq_max=0.98\n")
    assert main(["capacity", "--config", str(cfg), "--grid", "50"]) == 0
    _, data = _rows(capsys.readouterr().out)
    q, c_q = data[:, 0], data[:, 1]
    assert np.allclose(c_q[q < 0.5 - 1e-9], bsc_capacity(0.3), atol=1e-12)
    assert np.allclose(c_q[q >= 0.5 - 1e-9], bsc_capacity(0.05), atol=1e-12)


def test_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=uniform\nq_max=0.9\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["capacity", "--config", str(cfg), "--grid", "7", "--out", str(out1)]) == 0
    assert main(["capacity", "--config", str(cfg), "--grid", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_out_flag_writes_file_not_stdout(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["capacity", "--grid", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("# chancap capacity ::")


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=uniform\nseed=3\n")
    assert main(["spectrum", "--config", str(cfg), "--seed", "7",
                 "--trials", "50", "--grid", "5"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert "seed=7" in first and "seed=3" not in first


def test_spectrum_columns(tmp_path, capsys):
    cfg = tmp_path / "sp.cfg"
    cfg.write_text("family=bsc\nstates=0.05,0.3\npmf=0.5,0.5\nn=50,100\n")
    assert main(["spectrum", "--config", str(cfg), "--trials", "400", "--grid", "21"]) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == ["alpha", "f_hat_n50", "f_hat_n100", "f_limit"]
    assert data.shape == (21, 4)
    for col in (1, 2, 3):
        assert np.all(np.diff(data[:, col]) >= 0.0)
        assert data[0, col] >= 0.0 and data[-1, col] <= 1.0
    # limit cdf steps through the two state capacities
    alpha = data[:, 0]
    limit = data[:, 3]
    assert np.allclose(limit[alpha < bsc_capacity(0.3) - 1e-9], 0.0)
    assert np.allclose(limit[alpha > bsc_capacity(0.05) + 1e-9], 1.0)
    mid = (alpha > bsc_capacity(0.3) + 1e-9) & (alpha < bsc_capacity(0.05) - 1e-9)
    assert np.allclose(limit[mid], 0.5)


def test_broadcast_profile(capsys):
    assert main(["broadcast"]) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == ["p", "r", "rate"]
    assert data.shape == (257, 3)
    assert np.all(np.diff(data[:, 1]) >= -1e-12)
    assert np.all(np.diff(data[:, 2]) <= 1e-9)
    assert data[0, 2] == pytest.approx(0.3814410858097629, abs=1e-3)
    assert data[-1, 2] == 0.0


def test_broadcast_gamma(tmp_path, capsys):
    cfg = tmp_path / "bc.cfg"
    cfg.write_text("family=uniform\nmode=gamma\ngammas=1,2\n")
    assert main(["broadcast", "--config", str(cfg)]) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == ["gamma", "rate_optimal_cutoff", "rate_full_range", "expected_capacity"]
    assert data.shape == (2, 4)
    assert np.allclose(data[:, 3], 0.11734466196332269, rtol=0.0, atol=1e-9)
    assert np.all(data[:, 1] <= data[:, 3] + 1e-9)
    assert np.all(data[:, 2] <= data[:, 1])


# sha256 of `chancap broadcast` on the uniform law: the default layer
# profile (the staircase of the right-edge code, at most 1 - h(p) at
# every printed p) and mode=gamma at its default gammas (each rate below
# C^e).  Cutoffs from Brent's method at xtol 1e-15 give the same bytes.
BROADCAST_SHA256 = {
    "": "a54d91b00a5fb280f74b4c2b6f68fa3ba1a454bb8f627084bf191795f14049c5",
    "family=uniform\nmode=gamma\n": "8121c137e9e45d98928122b8e0a95e9740329bd80e62c539ba2a9032d286ebb6",
}


@pytest.mark.parametrize("config", list(BROADCAST_SHA256))
def test_broadcast_csv_bytes_frozen(tmp_path, capsys, config):
    cfg = tmp_path / "bc.cfg"
    cfg.write_text(config)
    assert main(["broadcast", "--config", str(cfg)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BROADCAST_SHA256[config]


def test_broadcast_gamma_solves_cutoffs_twice(tmp_path, capsys, monkeypatch):
    # Once inside the expected capacity and once for the optimal-cutoff
    # band, however many gammas the sweep has.
    calls = []
    original = layering.find_cutoffs

    def counted(density):
        calls.append(density)
        return original(density)

    monkeypatch.setattr(layering, "find_cutoffs", counted)
    monkeypatch.setattr(cli, "find_cutoffs", counted)
    cfg = tmp_path / "bc.cfg"
    cfg.write_text("family=uniform\nmode=gamma\n")
    assert main(["broadcast", "--config", str(cfg)]) == 0
    _, data = _rows(capsys.readouterr().out)
    assert data.shape == (10, 4)
    assert len(calls) == 2


def test_broadcast_rejects_discrete(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family=bsc\nstates=0.1\npmf=1\n")
    assert main(["broadcast", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_bec_uncoded(tmp_path, capsys):
    cfg = tmp_path / "bec.cfg"
    cfg.write_text("family=bec\nerasures=0.1,0.3\npmf=0.5,0.5\nns=500\n")
    assert main(["simulate", "--config", str(cfg), "--trials", "300"]) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == ["n", "trials", "expected_rate", "seed"]
    assert data.shape == (1, 4)
    assert data[0, 0] == 500 and data[0, 1] == 300
    assert data[0, 2] == pytest.approx(0.8, abs=0.05)


def test_simulate_outage_sweep(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("family=ge\np_good=0.05\np_bad=0.3\nns=8,16\n")
    assert main(["simulate", "--config", str(cfg), "--trials", "500", "--seed", "1"]) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == ["n", "trials", "rate", "outage_rate",
                      "error_rate_given_no_outage", "expected_rate", "seed"]
    assert data.shape == (2, 7)
    assert np.array_equal(data[:, 0], [8, 16])
    assert np.all((data[:, 3] >= 0.0) & (data[:, 3] <= 1.0))
    assert np.allclose(data[:, 5], data[:, 2] * (1.0 - data[:, 3]), atol=1e-12)


@pytest.mark.parametrize("channel", ["family=bec\nerasures=0.1,0.3\n", "family=bsc\nstates=0.05,0.3\n"])
@pytest.mark.parametrize("ns", ["", ","])
def test_simulate_empty_blocklengths_exits_2(tmp_path, capsys, channel, ns):
    # An empty ns on a BEC law used to print only the header and exit 0.
    cfg, out = tmp_path / "sim.cfg", tmp_path / "out.csv"
    cfg.write_text(f"{channel}pmf=0.5,0.5\nns={ns}\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: simulate: need at least one blocklength\n"
    assert not out.exists()


def test_mapdemo_default(capsys):
    assert main(["mapdemo"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# chancap mapdemo ::")
    assert "subset {1,2}: rate 0.3, indices 1-6" in out
    assert "state 2: R_s = 0.5, I_s = 1-10" in out
    assert "expected rate = 0.4" in out
    assert "partition check: ok" in out
    assert "round-trip check: ok" in out


def test_mapdemo_round_trip_failure_exits_2(capsys, monkeypatch):
    # An inverse mapping that loses rate fails the round-trip check.
    monkeypatch.setattr(cli, "expected_to_bc", lambda code: BroadcastCodeSpec(2, {(0, 1): 0.35, (1,): 0.2}, 20))
    assert main(["mapdemo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: mapdemo: round-trip")


@pytest.mark.parametrize("line, err", [
    # NaN used to pass the pmf check and print "expected rate = nan".
    ("pmf=nan,1", "bc_to_expected: pmf must be a probability vector"),
    # An infinite n R_p used to end in an OverflowError traceback.
    ("r_1=1e308", "bc_to_expected: the floor(n R_p) must total at most 65536 bits"),
], ids=["nan_pmf", "infinite_rate"])
def test_mapdemo_bad_pmf_or_rate_exits_2(tmp_path, capsys, line, err):
    cfg, out = tmp_path / "md.cfg", tmp_path / "out.txt"
    cfg.write_text(line + "\n")
    assert main(["mapdemo", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["spectrum", "simulate"])
def test_ergodic_gilbert_elliott_draw_exits_2(tmp_path, capsys, sub):
    cfg, out = tmp_path / "ge.cfg", tmp_path / "out.csv"
    cfg.write_text("family=ge\np_good=0.05\np_bad=0.3\ng=0.2\nb=0.1\n")
    assert main([sub, "--config", str(cfg), "--out", str(out), "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: ergodic Gilbert-Elliott has no frozen state to draw\n"
    assert not out.exists()


def test_mapdemo_zero_rate_code_past_float_range(tmp_path, capsys):
    # Used to exit 2: n R_p overflowed a float and read as over budget.
    cfg = tmp_path / "md.cfg"
    cfg.write_text("n=1" + "0" * 400 + "\nr_1=0\n")
    assert main(["mapdemo", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "total rate R_t = 0 (0 bits)" in out and "subset {1}: rate 0, indices (empty)" in out


def test_mapdemo_custom(tmp_path, capsys):
    cfg = tmp_path / "md.cfg"
    cfg.write_text("num_states=3\nn=8\npmf=0.2,0.3,0.5\nr_123=0.25\nr_3=0.125\n")
    assert main(["mapdemo", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "subset {1,2,3}: rate 0.25, indices 1-2" in out
    assert "subset {3}: rate 0.125, indices 3" in out
    assert "state 3: R_s = 0.375" in out
    assert "expected rate = 0.3125" in out


def test_plot_script(tmp_path):
    out = tmp_path / "cap.csv"
    script = tmp_path / "cap.gp"
    assert main(["capacity", "--grid", "3", "--out", str(out),
                 "--plot-script", str(script)]) == 0
    text = script.read_text()
    assert "set datafile separator ','" in text
    assert str(out) in text
    # one curve per non-x column
    assert all(f"using 1:{i}" in text for i in (2, 3, 4, 5))


def test_plot_script_requires_out(tmp_path, capsys):
    # Checked before any output: the table used to reach stdout first.
    script = tmp_path / "cap.gp"
    assert main(["capacity", "--grid", "3", "--plot-script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --plot-script needs --out")
    assert not script.exists()


def test_plot_script_rejected_for_mapdemo(tmp_path, capsys):
    # Checked before any output: the --out file used to be left behind.
    out = tmp_path / "map.txt"
    script = tmp_path / "map.gp"
    assert main(["mapdemo", "--out", str(out), "--plot-script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: mapdemo output is plain text")
    assert not out.exists() and not script.exists()


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("family=uniform\nwhatever=1\n")
    assert main(["capacity", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["capacity", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    rng = tmp_path / "range.cfg"
    rng.write_text("q_min=0.9\nq_max=0.5\n")
    assert main(["capacity", "--config", str(rng)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_without_family_exits_2(tmp_path, capsys):
    # Without family= the run builds the uniform law, which reads neither
    # states= nor pmf=; it used to print the uniform law's table.
    cfg = tmp_path / "bsc.cfg"
    cfg.write_text("states=0.05,0.3\npmf=0.5,0.5\n")
    out = tmp_path / "out.csv"
    assert main(["capacity", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: capacity does not read pmf, states\n"
    assert not out.exists()
    # A run flag the subcommand does not read is not offered at all.
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--seed", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --seed 3" in captured.err


@pytest.mark.parametrize("sub, flags", [
    ("capacity", {"--grid"}),
    ("spectrum", {"--seed", "--trials", "--grid"}),
    ("broadcast", set()),
    ("simulate", {"--seed", "--trials"}),
    ("mapdemo", set()),
])
def test_help_lists_only_flags_the_run_reads(capsys, sub, flags):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--(?:seed|trials|grid)\b", capsys.readouterr().out))
    assert listed == flags


# The keys each run reads, by subcommand and family, broadcast mode, and
# simulate's decoder sweep or uncoded BEC run: the command line's twin of
# test_public_knob_inventory.  Every other key exits 2.
CHANNEL_READS = {
    "uniform": {"family"},
    "bsc": {"family", "states", "pmf"},
    "bec": {"family", "erasures", "pmf"},
    "ge": {"family", "p_good", "p_bad", "g", "b", "pi_good"},
    "density": {"family", "density_file"},
    None: set(),
}
RUN_READS = {
    "capacity": {"q_min", "q_max", "grid"},
    "spectrum": {"n", "grid", "trials", "seed"},
    "spectrum alpha_grid": {"n", "alpha_grid", "trials", "seed"},
    "broadcast profile": {"mode", "profile_grid"},
    "broadcast gamma": {"mode", "gammas"},
    "simulate": {"ns", "rate", "q", "epsilon", "trials", "seed"},
    "simulate bec": {"ns", "trials", "seed"},
    "mapdemo": {"num_states", "n", "pmf", "r_12"},
}
FAMILIES = {
    "capacity": list(CHANNEL_READS)[:-1],
    "spectrum": list(CHANNEL_READS)[:-1],
    "spectrum alpha_grid": ["uniform"],
    "broadcast profile": ["uniform", "density"],
    "broadcast gamma": ["uniform", "density"],
    "simulate": ["uniform", "bsc", "ge", "density"],
    "simulate bec": ["bec"],
    "mapdemo": [None],
}
CLI_READS = {(run, family): RUN_READS[run] | CHANNEL_READS[family] | {"out"}
             for run, families in FAMILIES.items() for family in families}
KEY_VALUES = {
    "family": "uniform", "density_grid": "257", "states": "0.05,0.3", "pmf": "0.5,0.5",
    "erasures": "0.1,0.3", "p_good": "0.05", "p_bad": "0.3", "g": "0", "b": "0",
    "pi_good": "0.5", "density_file": "flat.csv", "q_min": "0", "q_max": "0.9", "grid": "5",
    "n": "20", "alpha_grid": "0.1,0.5", "trials": "50", "seed": "1", "mode": "profile",
    "profile_grid": "9", "gammas": "1", "ns": "8", "rate": "0.15", "q": "0.5",
    "epsilon": "0.01", "num_states": "2", "r_12": "0.3",
}


@pytest.mark.parametrize("run, family", list(CLI_READS))
def test_cli_key_inventory(tmp_path, capsys, run, family):
    (tmp_path / "flat.csv").write_text("".join(f"{p},2\n" for p in np.linspace(0.0, 0.5, 101).tolist()))
    sub = run.split()[0]
    # A broadcast run names its mode; no other run reads mode at all.
    values = {**KEY_VALUES, "family": family or "uniform", "mode": run.split()[-1]}
    reads = CLI_READS[run, family]

    def call(keys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.txt"
        cfg.unlink(missing_ok=True)
        cfg.write_text("".join(f"{k}={values[k]}\n" for k in sorted(keys - {"out"})))
        out.unlink(missing_ok=True)
        status = main([sub, "--config", str(cfg), "--out", str(out)])
        return status, out.exists(), capsys.readouterr().err

    assert call(reads) == (0, True, "")
    for key in sorted(KEY_VALUES.keys() - reads):
        if run == "spectrum" and key == "alpha_grid":
            continue  # alpha_grid replaces grid: its own run above
        assert call(reads | {key}) == (2, False, f"error: {sub} does not read {key}\n")


# The wedge law f = (2/w)(1 - p/w) on 1025 knots of [0, w], w = 1e-6.
WEDGE_CSV = "".join(f"{p!r},{2e6 * (1.0 - p / 1e-6)!r}\n" for p in np.linspace(0.0, 1e-6, 1025).tolist())

# A coarse law whose cutoff band misses the best layering: the code on
# it is worth 0.00789 against a best outage rate of 0.04927.
BELOW_OUTAGE_CSV = ("0.004877840262364153,0.0\n0.012026888962920423,0.9226779188118307\n"
                    "0.02544500446663822,0.0\n0.47107362827748145,4.445457553411173\n")


# Edge values of each key, drawn besides its KEY_VALUES entry: empty
# lists, a lone comma, zero masses, one-point grids, n = 1, trials = 1,
# q = 0, rate 0, and density laws with zero knots, a steep wedge or no
# certified C^e.
EDGE_VALUES = {
    "states": ["", ",", "0,0.5", "0.5"],
    "pmf": ["", ",", "0,1", "1,0", "1", "nan,1"], "erasures": ["", ",", "0,1", "1,1"], "p_good": ["0"],
    "p_bad": ["0.5"], "g": ["1"], "b": ["1"], "pi_good": ["0", "1"], "density_file": ["ramp.csv", "wedge.csv", "below_outage.csv"],
    "q_min": ["0.5"], "q_max": ["0.5", "0.99"], "grid": ["0", "1", "2"], "n": ["", ",", "1"],
    "alpha_grid": ["", ",", "0", "1"], "trials": ["1"], "seed": ["0"],
    "profile_grid": ["1", "2"], "gammas": ["", "0.5,4"], "ns": ["", ",", "1", "1,8"],
    "rate": ["0"], "q": ["0"], "epsilon": ["1"], "num_states": ["1", "3"], "r_12": ["0", "1e308"],
}


@st.composite
def _cli_runs(draw):
    """A subcommand and a config with edge values: every key of its
    channel (and alpha_grid on the run it names), and a subset of the
    other keys its run reads."""
    run, family = draw(st.sampled_from(list(CLI_READS)))
    values = {"family": family} if family else {}
    if run.startswith("broadcast"):
        values["mode"] = run.split()[-1]
    always = (CHANNEL_READS[family] | ({"alpha_grid"} if "alpha_grid" in run else set())) - values.keys()
    others = sorted(CLI_READS[run, family] - always - values.keys() - {"out"})
    for key in sorted(always | draw(st.sets(st.sampled_from(others)))):
        values[key] = draw(st.sampled_from([KEY_VALUES[key], *EDGE_VALUES[key]]))
    return run.split()[0], values


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_cli_runs())
@example(run=("simulate", {"family": "bec", "erasures": "0.1,0.3", "pmf": "0.5,0.5", "ns": ""}))
@example(run=("broadcast", {"family": "uniform", "mode": "gamma", "gammas": "0.1"}))
def test_cli_contract_on_generated_configs(tmp_path, capsys, run):
    """Every config answers with data rows free of NaN and inf that keep
    their subcommand's invariants, or exits 2 with one error line and no
    output file; nothing else."""
    sub, values = run
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.txt"
    for path, text in ((tmp_path / "flat.csv", "".join(f"{p},2\n" for p in np.linspace(0.0, 0.5, 101).tolist())),
                       # Zero on [0, 0.2], then a ramp that integrates to 1.
                       (tmp_path / "ramp.csv", "".join(f"{p},{max(p - 0.2, 0.0) / 0.045!r}\n"
                                                       for p in np.linspace(0.0, 0.5, 11).tolist())),
                       (tmp_path / "wedge.csv", WEDGE_CSV),
                       # Every route exits 2 here: its C^e fails a certificate.
                       (tmp_path / "below_outage.csv", BELOW_OUTAGE_CSV),
                       (cfg, "".join(f"{k}={v}\n" for k, v in values.items()))):
        path.unlink(missing_ok=True)
        path.write_text(text)
    out.unlink(missing_ok=True)
    status = main([sub, "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    if status == 2:
        assert re.fullmatch(r"error: [^\n]*\n", captured.err)
        assert not out.exists()
        return
    assert status == 0 and captured.err == ""
    text = out.read_text()
    assert len(text.splitlines()) > (1 if sub == "mapdemo" else 2)
    assert not re.search(r"\b(nan|inf)\b", text, re.IGNORECASE)
    if sub != "mapdemo":
        _check_invariants(sub, *_rows(text))


def _check_invariants(sub, header, data, tol=1e-9):
    """Each subcommand's invariants on its printed table, within tol."""
    col = dict(zip(header, data.T))

    def nondecreasing(v):
        return bool(np.all(np.diff(v) >= -tol))

    def in_unit(v):
        return bool(np.all((v >= -tol) & (v <= 1.0 + tol)))

    if sub == "capacity":
        assert nondecreasing(col["q"]) and nondecreasing(col["c_q"])
        assert np.all(col["outage_capacity"] <= col["expected_capacity"] + tol)
        assert np.all(col["expected_capacity"] <= col["upper_bound"] + tol)
    elif sub == "spectrum":
        # alpha_grid may list its points in any order.
        order = np.argsort(col["alpha"], kind="stable")
        for name in header[1:]:
            assert in_unit(col[name]) and nondecreasing(col[name][order]), name
    elif sub == "simulate":
        for name in ("outage_rate", "error_rate_given_no_outage", "expected_rate"):
            assert name not in col or in_unit(col[name]), name
    elif header == ["p", "r", "rate"]:
        assert nondecreasing(col["r"]) and np.all((col["r"] >= 0.0) & (col["r"] <= 0.5))
        assert nondecreasing(-col["rate"]) and np.all(col["rate"] <= 1.0 + tol)
        # No state decodes more than its own capacity.
        assert np.all(col["rate"] <= 1.0 - binary_entropy(col["p"]) + tol)
    else:
        # A parametric code's expected rate is at most C^e.
        for name in ("rate_optimal_cutoff", "rate_full_range"):
            assert in_unit(col[name]) and np.all(col[name] <= col["expected_capacity"] + tol), name


def test_spectrum_empty_alpha_grid_exits_2(tmp_path, capsys):
    # An empty alpha_grid= used to exit 0 with only the header, as --grid 0
    # did (test_grid_below_one_exits_2).
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("alpha_grid=\n")
    assert main(["spectrum", "--config", str(cfg), "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: spectrum: the alpha grid must be nonempty\n"


@pytest.mark.parametrize("sub", ["capacity", "spectrum"])
@pytest.mark.parametrize("grid", [0, -3])
def test_grid_below_one_exits_2(tmp_path, capsys, sub, grid):
    # --grid 0 used to fail inside outage_curve (capacity) and --grid -3
    # inside numpy's linspace.
    out = tmp_path / "out.csv"
    assert main([sub, "--grid", str(grid), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: grid: expected a positive integer, got {grid}\n"
    assert not out.exists()


# A run that reads each key holding one number.
SCALAR_KEY_RUNS = {
    **dict.fromkeys(("p_good", "p_bad", "g", "b", "pi_good"), ("capacity", "ge")),
    **dict.fromkeys(("q_min", "q_max", "grid"), ("capacity", "uniform")),
    **dict.fromkeys(("trials", "seed"), ("spectrum", "uniform")),
    "profile_grid": ("broadcast profile", "uniform"),
    **dict.fromkeys(("rate", "q", "epsilon"), ("simulate", "bsc")),
    **dict.fromkeys(("num_states", "n", "r_12"), ("mapdemo", None)),
}
INTEGER_KEYS = {"grid", "trials", "seed", "profile_grid", "num_states", "n"}


@pytest.mark.parametrize("key", sorted(SCALAR_KEY_RUNS))
def test_malformed_number_names_its_key(tmp_path, capsys, key):
    # Each used to surface Python's own message, which names no key:
    # "could not convert string to float: 'abc'" or "invalid literal for int()".
    run, family = SCALAR_KEY_RUNS[key]
    values = {**KEY_VALUES, "family": family or "uniform", "mode": run.split()[-1], key: "abc"}
    cfg, out = tmp_path / "run.cfg", tmp_path / "out.txt"
    cfg.write_text("".join(f"{k}={values[k]}\n" for k in sorted(CLI_READS[run, family] - {"out"})))
    assert main([run.split()[0], "--config", str(cfg), "--out", str(out)]) == 2
    noun = "an integer" if key in INTEGER_KEYS else "a number"
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {key}: expected {noun}, got 'abc'\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["spectrum", "simulate"])
def test_negative_seed_exits_2(capsys, sub):
    # numpy used to reject it with "expected non-negative integer".
    assert main([sub, "--seed", "-1", "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: seed: expected a nonnegative integer, got -1\n"


def test_uncertified_law_exits_2_on_every_route(tmp_path, capsys):
    # `broadcast` used to skip the certificates and print the profile of
    # a C^e that failed them.
    law = tmp_path / "below_outage.csv"
    law.write_text(BELOW_OUTAGE_CSV)
    with pytest.raises(layering.SolverError, match="below the best outage rate"):
        layering.solve_layering(ContinuousBscComposite(*np.loadtxt(law, delimiter=",").T))
    cfg, out = tmp_path / "law.cfg", tmp_path / "out.csv"
    for sub, mode in (("capacity", ""), ("broadcast", ""), ("broadcast", "mode=gamma\n")):
        cfg.write_text(f"family=density\ndensity_file={law}\n{mode}")
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected_capacity_continuous: below the best outage rate\n"
        assert not out.exists()


def test_wedge_law_is_answered_on_every_route(tmp_path, capsys):
    # The wedge f = (2/w)(1 - p/w) on [0, 1e-6]: the trapezoid C^e lay
    # above the mean state capacity, and `broadcast` printed
    # R(0) = 1.68082675737 bits/use.  The code's value lies between the
    # best outage rate 0.99997863 and the mean state capacity 0.99999247.
    wedge = tmp_path / "wedge.csv"
    wedge.write_text(WEDGE_CSV)
    law = ContinuousBscComposite(*np.loadtxt(wedge, delimiter=",").T)
    low, high = chancap.best_outage_rate(law)[1], chancap.mean_state_capacity(law)
    cfg = tmp_path / "wedge.cfg"
    cfg.write_text(f"family=density\ndensity_file={wedge}\n")
    assert main(["capacity", "--config", str(cfg), "--grid", "3"]) == 0
    _, data = _rows(capsys.readouterr().out)
    ce = data[0, 3]
    assert ce == pytest.approx(0.999978654423, abs=1e-11) and low <= ce <= high
    assert main(["broadcast", "--config", str(cfg)]) == 0
    header, data = _rows(capsys.readouterr().out)
    _check_invariants("broadcast", header, data)
    assert data[0, 2] <= 1.0
    cfg.write_text(cfg.read_text() + "mode=gamma\n")
    assert main(["broadcast", "--config", str(cfg)]) == 0
    header, data = _rows(capsys.readouterr().out)
    _check_invariants("broadcast", header, data)
    assert np.all(data[:, 3] == ce)


def test_memory_error_exits_2(capsys, monkeypatch):
    # A draw too large for the host used to end in a traceback.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setattr(cli, "estimate_spectrum", no_memory)
    assert main(["spectrum", "--trials", "10000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Unable to allocate 72.8 TiB\n"


def test_codebook_memory_guard_exits_2(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("family=bsc\nstates=0.05\npmf=1\nns=20\nrate=1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "memory budget" in captured.err


# sha256 of the `chancap spectrum` CSV, frozen from the one-generator
# stream: per-draw crossovers for the default uniform law, and for the
# discrete BEC law one multinomial histogram of counts per state with
# at least n + 1 draws (direct binomial draws for the others).  Every
# f_hat column lies inside a delta = 1e-6 DKW band around the exact
# finite-n cdf.
SPECTRUM_DEFAULT_SHA256 = "ed4f171a5096cb0f0040b950ed36c4b61f13f30104f446f28157bab99a0232c2"
SPECTRUM_BEC_SHA256 = "c8a3c2bb0b66a57b7fc70eea6727761ee41bc964062533203d25a4bd64c2898e"


def test_spectrum_csv_bytes_frozen(tmp_path, capsys):
    assert main(["spectrum"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SPECTRUM_DEFAULT_SHA256
    cfg = tmp_path / "bec.cfg"
    cfg.write_text("family=bec\nerasures=0,0.1,0.3\npmf=0.2,0.5,0.3\nseed=3\n")
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SPECTRUM_BEC_SHA256


def test_parser_reuse_leaks_nothing_between_calls(capsys):
    # `main` parses every argv with one parser per process: a flag set in
    # one call, or an argv argparse rejected, must not reach the next.
    assert main(["spectrum", "--seed", "7", "--trials", "50", "--grid", "5"]) == 0
    assert "seed=7" in capsys.readouterr().out.splitlines()[0]
    assert main(["spectrum", "--trials", "50", "--grid", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# chancap spectrum :: grid=5 seed=0 trials=50"
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["spectrum"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SPECTRUM_DEFAULT_SHA256


# sha256 of the `chancap capacity` CSV at its default q grid, one per
# channel: the uniform law (upper_bound 1 - 1/(2 ln 2) = 0.278652479556,
# the exact mean state capacity), frozen and ergodic Gilbert-Elliott, a BEC
# mixture, and BSC mixtures with a zero-mass atom and with tied
# crossovers.
CAPACITY_SHA256 = {
    "": "886b4c6e7594050617a4336866b4df16835c5e4387b9f04e68e509661a40f268",
    "family=ge\np_good=0.05\np_bad=0.3\npi_good=0.14\n":
        "d9bc4a8852ef263fda2591fbf96b381aa052895bf05e7fc83029ee35ef427dba",
    "family=ge\np_good=0.05\np_bad=0.3\ng=0.2\nb=0.1\n":
        "d5b98e64b520a17da2da2d1d94786c5fb4b5c44dedd6dc72d187f5f986b75399",
    "family=bec\nerasures=0,0.1,0.3\npmf=0.2,0.5,0.3\n":
        "ac8b99fc354d9a2b2786d3cee806ddf952b20762110f44d42a1e1e5573f050a6",
    "family=bsc\nstates=0.01,0.05,0.2,0.3,0.45\npmf=0.1,0.2,0.3,0,0.4\n":
        "2de00274984029393a36a242290ef73fb37712c20c24a9df9ca89d554c5ccdc4",
    "family=bsc\nstates=0.2,0.1,0.2,0.4\npmf=0.25,0.25,0.25,0.25\n":
        "2910401e68dfc717b6c95c3422737cb6c3f4481ef3d1fc9fb8930b619f28cb50",
}


# sha256 of the `chancap simulate` CSV at its defaults: the decoder
# sweep on the uniform law and on frozen Gilbert-Elliott (both pin the
# per-role streams spawned by index from the seed: states, noise
# uniforms, and each n's codebooks and sent indices), and the uncoded BEC
# mixture.  Each sweep's outage rates lie in a delta = 1e-6 Bernstein
# band around their exact law (test_sweep_outage_rates_match_exact_law).
SIMULATE_SHA256 = {
    "": "5e4d601c30beb2d45415665329b89a4bb7b9984018303200b99c44e7ce064ac8",
    "family=ge\np_good=0.05\np_bad=0.3\npi_good=0.14\n":
        "c5a35b808b3c5c3844a7744c6bddb6489cd78cca8cc868b811d440eac5be7f0a",
    "family=bec\nerasures=0,0.1,0.3\npmf=0.2,0.5,0.3\nseed=3\n":
        "f14263494d1b973df4b611c3ce93f4872bc7e452d5dc2d581f1b159df1280917",
}


@pytest.mark.parametrize("channel", list(SIMULATE_SHA256))
def test_simulate_csv_bytes_frozen(tmp_path, capsys, channel):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(channel)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SIMULATE_SHA256[channel]


@pytest.mark.parametrize("channel", list(CAPACITY_SHA256))
def test_capacity_csv_bytes_frozen(tmp_path, capsys, channel):
    cfg = tmp_path / "cap.cfg"
    cfg.write_text(channel)
    assert main(["capacity", "--config", str(cfg)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CAPACITY_SHA256[channel]


def test_nan_inputs_exit_2(tmp_path, capsys):
    dens = tmp_path / "dens.csv"
    f = np.full(31, 1.0 / 0.3)
    f[15] = np.nan
    dens.write_text("".join(f"{p},{v}\n" for p, v in zip(np.linspace(0.1, 0.4, 31).tolist(), f.tolist())))
    cfg = tmp_path / "dens.cfg"
    cfg.write_text(f"family=density\ndensity_file={dens}\n")
    assert main(["spectrum", "--config", str(cfg), "--trials", "10", "--grid", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "finite" in captured.err
    pmf = tmp_path / "pmf.cfg"
    pmf.write_text("family=bsc\nstates=0.1,0.2\npmf=nan,nan\n")
    assert main(["capacity", "--config", str(pmf), "--grid", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "pmf" in err
    # NaN fails every comparison, so each range check is "not (in range)".
    for sub, text, word in (
        ("simulate", "family=ge\np_good=0.05\np_bad=0.3\nepsilon=nan\n", "epsilon must be positive"),
        ("simulate", "family=ge\np_good=0.05\np_bad=0.3\nepsilon=inf\n", "epsilon must be positive and finite"),
        ("simulate", "family=ge\np_good=0.05\np_bad=0.3\nrate=nan\n", "rate must be positive"),
        ("spectrum", "family=ge\np_good=0.05\np_bad=0.3\nalpha_grid=nan,0.5\n", "finite"),
        ("broadcast", "mode=gamma\ngammas=1,inf\n", "finite"),
    ):
        cfg.write_text(text)
        trials = ["--trials", "10"] if sub != "broadcast" else []
        assert main([sub, "--config", str(cfg), *trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert word in captured.err


def test_capacity_q_within_rounding_of_1(tmp_path, capsys):
    # The pmf sums to 1 - 5e-13, so at q_max every atom fits under q and
    # the best state is the one kept (the scalar search used to crash).
    cfg = tmp_path / "near1.cfg"
    cfg.write_text("family=bsc\nstates=0.1,0.2\npmf=0.5,0.4999999999995\nq_max=0.9999999999999\n")
    assert main(["capacity", "--config", str(cfg), "--grid", "5"]) == 0
    _, data = _rows(capsys.readouterr().out)
    assert data[-1, 1] == pytest.approx(bsc_capacity(0.1), abs=1e-12)


def test_capacity_collapsed_layers(tmp_path, capsys):
    # The optimum collapses layers onto r = 1/2; coordinate ascent used
    # to crash here with a traceback.
    cfg = tmp_path / "three.cfg"
    cfg.write_text(
        "family=bsc\n"
        "states=0.062230166257739916,0.1476171278313479,0.4234991853168648\n"
        "pmf=0.6658933552120739,0.23839636698807629,0.09571027779984978\n"
    )
    assert main(["capacity", "--config", str(cfg), "--grid", "11"]) == 0
    _, data = _rows(capsys.readouterr().out)
    assert np.all(data[:, 2] <= data[:, 3]) and np.all(data[:, 3] <= data[:, 4])


def test_solver_failure_exits_2(tmp_path, capsys, monkeypatch):
    # A layer solve that ignores its problem fails the optimizer's own
    # first-order certificate, which the CLI reports as an error line.
    monkeypatch.setattr("chancap.layering._two_state_argmax", lambda a, p, b, q: 0.25)
    cfg = tmp_path / "ge.cfg"
    cfg.write_text("family=ge\np_good=0.05\np_bad=0.3\npi_good=0.14\n")
    assert main(["capacity", "--config", str(cfg), "--grid", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: optimize_discrete:")


def test_density_file_with_one_column_exits_2(tmp_path, capsys):
    dens = tmp_path / "dens.csv"
    dens.write_text("0.0,2.0\n0.25\n0.5,2.0\n")
    cfg = tmp_path / "dens.cfg"
    cfg.write_text(f"family=density\ndensity_file={dens}\n")
    assert main(["capacity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "row 2" in captured.err


def test_density_file_with_a_non_number_names_the_row(tmp_path, capsys):
    dens = tmp_path / "dens.csv"
    dens.write_text("0.0,2.0\n0.25,abc\n0.5,2.0\n")
    cfg = tmp_path / "dens.cfg"
    cfg.write_text(f"family=density\ndensity_file={dens}\n")
    assert main(["capacity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {dens} row 2: expected p,f(p), got '0.25,abc'\n"


def test_constant_density_file_is_the_uniform_law(tmp_path, capsys):
    dens = tmp_path / "dens.csv"
    dens.write_text("".join(f"{p},2.0\n" for p in np.linspace(0.0, 0.5, 101).tolist()))
    cfg = tmp_path / "dens.cfg"
    cfg.write_text(f"family=density\ndensity_file={dens}\n")
    assert main(["capacity", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out.splitlines()
    cfg.write_text("family=uniform\n")
    assert main(["capacity", "--config", str(cfg)]) == 0
    preset = capsys.readouterr().out.splitlines()
    assert from_file[1:] == preset[1:]


def _density_config(tmp_path, name, grid, f):
    dens = tmp_path / f"{name}.csv"
    dens.write_text("".join(f"{p},{v}\n" for p, v in zip(grid.tolist(), f.tolist())))
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"family=density\ndensity_file={dens}\n")
    return cfg


def test_density_without_band_is_one_layer_in_every_command(tmp_path, capsys):
    # f ~ p^3 on [0, 0.2] has no cutoff band: one layer at the support
    # edge, 1 - h(0.2), is its expected capacity.  `broadcast` used to
    # exit 2 in both modes; it now prints that one-layer code.
    g = np.linspace(0.0, 0.2, 1025)
    cfg = _density_config(tmp_path, "cubic", g, g ** 3 / np.trapezoid(g ** 3, g))
    one_layer = float(f"{bsc_capacity(0.2):.12g}")
    assert one_layer == 0.278071905113
    assert main(["capacity", "--config", str(cfg), "--grid", "3"]) == 0
    _, data = _rows(capsys.readouterr().out)
    assert np.all(data[:, 3] == one_layer)
    assert main(["broadcast", "--config", str(cfg)]) == 0
    header, data = _rows(capsys.readouterr().out)
    below = data[:, 0] <= 0.2
    assert header == ["p", "r", "rate"] and below.sum() == 103
    assert np.all(data[below, 1:] == [0.0, one_layer]) and np.all(data[~below, 1:] == [0.5, 0.0])
    with open(cfg, "a") as fh:
        fh.write("mode=gamma\n")
    assert main(["broadcast", "--config", str(cfg)]) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == ["gamma", "rate_optimal_cutoff", "rate_full_range", "expected_capacity"]
    assert len(data) == 10 and np.all(data[:, [1, 3]] == one_layer)
    assert np.all(data[:, 2] < one_layer)


def test_capacity_of_smooth_bump(tmp_path, capsys):
    # F is the exact integral of the interpolated f, and C^e, the value
    # of the right-edge code on 4097 points, lies 1.7e-8 above the
    # 4096-state ladder and 6.5e-11 below the Richardson value
    # (4 L(8192) - L(4096))/3 of the right-edge ladders.
    g = np.linspace(0.0, 0.5, 257)
    f = 0.3 + np.exp(-(((g - 0.15) / 0.06) ** 2))
    f = f / np.trapezoid(f, g)
    cfg = _density_config(tmp_path, "bump", g, f)
    assert main(["capacity", "--config", str(cfg), "--grid", "3"]) == 0
    _, data = _rows(capsys.readouterr().out)
    ladder = layering.optimize_discrete(*layering.discretize_density(ContinuousBscComposite(g, f), 4096))[1]
    assert ladder <= data[0, 3] <= ladder + 1e-7


def test_two_bump_density_is_layered_over_its_last_band(tmp_path, capsys):
    # Three Euler bands.  `capacity` used to exit 2, and `broadcast`
    # printed the first band's profile (r rising near p = 0.13).  The
    # pooled profile stays at 0 up to the last band, near p = 0.27.
    g = np.linspace(0.0, 0.4, 1025)
    f = 0.3 * np.exp(-0.5 * ((g - 0.1) / 0.02) ** 2) + 0.7 * np.exp(-0.5 * ((g - 0.25) / 0.02) ** 2)
    cfg = _density_config(tmp_path, "bumps", g, f / np.trapezoid(f, g))
    assert main(["capacity", "--config", str(cfg), "--grid", "3"]) == 0
    _, data = _rows(capsys.readouterr().out)
    ce = data[0, 3]
    assert ce == pytest.approx(0.14095998, abs=1e-8)
    assert main(["broadcast", "--config", str(cfg)]) == 0
    _, data = _rows(capsys.readouterr().out)
    p, r, rate = data.T
    assert np.all(np.diff(r) >= 0.0) and np.all(np.diff(rate) <= 0.0)
    assert np.all(r[p < 0.26] == 0.0) and np.all(r[p > 0.275] == 0.5)
    cfg.write_text(cfg.read_text() + "mode=gamma\ngammas=1,2\n")
    assert main(["broadcast", "--config", str(cfg)]) == 0
    _, data = _rows(capsys.readouterr().out)
    assert np.all(data[:, 3] == ce) and np.all(data[:, 1:3] <= ce + 1e-9)


def test_cli_runs_without_scipy(tmp_path):
    # Every subcommand at its default config, plus broadcast mode=gamma
    # and capacity on a gridded density file, in a fresh interpreter
    # where importing scipy fails.  The outputs keep their digests.
    g = np.linspace(0.0, 0.4, 513)
    density = _density_config(tmp_path, "ramp", g, (1.0 - g / 0.4) / 0.2)
    gamma = tmp_path / "gamma.cfg"
    gamma.write_text("family=uniform\nmode=gamma\n")
    runs = {
        ("capacity",): CAPACITY_SHA256[""],
        ("spectrum",): SPECTRUM_DEFAULT_SHA256,
        ("broadcast",): BROADCAST_SHA256[""],
        ("broadcast", "--config", str(gamma)): BROADCAST_SHA256["family=uniform\nmode=gamma\n"],
        ("simulate",): SIMULATE_SHA256[""],
        ("mapdemo",): None,
        ("capacity", "--config", str(density)): None,
    }
    code = (
        "import contextlib, hashlib, io, json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from chancap.cli import main\n"
        "result = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = main(argv)\n"
        "    result.append([status, hashlib.sha256(out.getvalue().encode()).hexdigest()])\n"
        "print(json.dumps(result))\n"
    )
    src = str(Path(chancap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code, json.dumps([list(a) for a in runs])],
                          env=env, capture_output=True, text=True, check=True, cwd=tmp_path)
    for (argv, want), (status, digest) in zip(runs.items(), json.loads(proc.stdout)):
        assert status == 0, argv
        assert want is None or digest == want, argv
