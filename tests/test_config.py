import numpy as np
import pytest

from chancap import ContinuousBscComposite, DiscreteComposite, GilbertElliott
from chancap.cli import main
from chancap.config import (
    ConfigError,
    RunConfig,
    build_channel,
    load_config,
    parse_config_text,
)


def test_parse_config_text():
    text = "a=1\n# comment\n\n  b = two words \nc=x=y\n"
    assert parse_config_text(text) == {"a": "1", "b": "two words", "c": "x=y"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("a=1\na=2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("=3\n")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("family=uniform\nseed=4\n")
    assert load_config(path) == {"family": "uniform", "seed": "4"}


def test_build_channel_uniform_default():
    ch = build_channel({})
    assert isinstance(ch, ContinuousBscComposite)
    assert ch.analytic_preset == "uniform"
    assert ch.grid.tolist() == [0.0, 0.5]


def test_build_channel_bsc():
    ch = build_channel({"family": "bsc", "states": "0.05,0.3", "pmf": "0.5,0.5"})
    assert isinstance(ch, DiscreteComposite)
    assert ch.family == "bsc"
    assert np.array_equal(ch.params, [0.05, 0.3])
    with pytest.raises(ConfigError):
        build_channel({"family": "bsc", "states": "0.05,0.3"})


def test_build_channel_bec():
    ch = build_channel({"family": "bec", "erasures": "0.1,0.3", "pmf": "0.5,0.5"})
    assert ch.family == "bec"
    with pytest.raises(ConfigError):
        build_channel({"family": "bec", "pmf": "1"})


def test_build_channel_ge():
    ch = build_channel({"family": "ge", "p_good": "0.05", "p_bad": "0.3"})
    assert isinstance(ch, GilbertElliott)
    assert (ch.g, ch.b, ch.pi_good) == (0.0, 0.0, 0.5)
    assert not ch.is_ergodic
    with pytest.raises(ConfigError):
        build_channel({"family": "ge", "p_good": "0.05"})


def test_build_channel_density_file(tmp_path):
    csv_path = tmp_path / "tri.csv"
    csv_path.write_text("# p,f\n0,0\n0.25,4\n0.5,0\n")
    ch = build_channel({"family": "density", "density_file": "tri.csv"}, base_dir=tmp_path)
    assert isinstance(ch, ContinuousBscComposite)
    assert ch.pdf(0.25) == 4.0
    assert ch.cdf(0.5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError):
        build_channel({"family": "density"})
    with pytest.raises(ConfigError):
        build_channel({"family": "density", "density_file": "missing.csv"}, base_dir=tmp_path)


def test_build_channel_errors_wrap():
    with pytest.raises(ConfigError):
        build_channel({"family": "laplace"})
    with pytest.raises(ConfigError):
        build_channel({"family": "bsc", "states": "0.05,oops", "pmf": "0.5,0.5"})
    # pmf not summing to one surfaces as a config error, not a raw ValueError
    with pytest.raises(ConfigError):
        build_channel({"family": "bsc", "states": "0.05,0.3", "pmf": "0.7,0.7"})


def test_run_config_defaults_and_overrides():
    cfg = RunConfig(subcommand="capacity", raw={})
    assert (cfg.seed, cfg.trials, cfg.grid, cfg.out) == (0, 10000, 101, None)
    cfg = RunConfig(
        subcommand="capacity",
        raw={"seed": "7", "trials": "99", "grid": "11", "out": "x.csv"},
    )
    assert (cfg.seed, cfg.trials, cfg.grid, cfg.out) == (7, 99, 11, "x.csv")


def _run(tmp_path, sub, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.txt"
    return main([sub, "--config", str(cfg), "--out", str(out)]), out


def test_run_config_rejects_unknown_keys(tmp_path, capsys):
    # A key is read once asked for through get or [], set or not; a
    # membership test does not read it.
    cfg = RunConfig(subcommand="capacity", raw={"alpha_grid": "0.5", "tol": "1e-3", "q_max": "0.9"})
    assert cfg.unread() == ["alpha_grid", "q_max", "tol"]
    assert "tol" in cfg.raw
    cfg.raw.get("q_min", "0")
    cfg.raw["q_max"]
    assert cfg.unread() == ["alpha_grid", "tol"]
    # The run, not the construction, rejects what it did not read.
    for sub, text, key in (
        ("capacity", "alpha_grid=0.5\n", "alpha_grid"),
        ("spectrum", "q_min=0\ntrials=10\ngrid=3\nn=10\n", "q_min"),
        # no solver reads a tolerance, so none is accepted
        ("capacity", "tol=1e-3\n", "tol"),
    ):
        status, out = _run(tmp_path, sub, text)
        assert status == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {sub} does not read {key}\n"
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_run_config_mapdemo_rate_keys(tmp_path, capsys):
    status, out = _run(tmp_path, "mapdemo", "r_12=0.3\nr_2=0.2\nnum_states=2\n")
    assert status == 0 and "subset {1,2}: rate 0.3" in out.read_text()
    for sub, text, key in (("mapdemo", "r_ab=0.3\n", "r_ab"), ("capacity", "r_12=0.3\n", "r_12")):
        out.unlink(missing_ok=True)
        status, out = _run(tmp_path, sub, text)
        assert status == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {sub} does not read {key}\n"


def test_run_config_list_helpers():
    cfg = RunConfig(subcommand="simulate", raw={"ns": "8, 12 ,16"})
    assert cfg.ints("ns", "1") == [8, 12, 16]
    assert cfg.floats("rate", "0.15,0.2") == [0.15, 0.2]
    with pytest.raises(ConfigError, match="expected comma-separated integers, got '8,twelve'"):
        RunConfig(subcommand="simulate", raw={"ns": "8,twelve"}).ints("ns", "1")
    with pytest.raises(ConfigError, match="expected comma-separated integers, got '8,1.5'"):
        RunConfig(subcommand="simulate", raw={"ns": "8,1.5"}).ints("ns", "1")
    with pytest.raises(ConfigError, match="expected comma-separated numbers, got '0.1,x'"):
        RunConfig(subcommand="broadcast", raw={"gammas": "0.1,x"}).floats("gammas", "1")


def test_canonical_string_omits_out():
    cfg = RunConfig(subcommand="capacity", raw={"q_max": "0.9", "out": "x.csv", "seed": "7"})
    assert cfg.canonical_string() == "q_max=0.9 seed=7"
    # the default seed is recorded once the run has read it
    cfg = RunConfig(subcommand="capacity", raw={})
    assert cfg.canonical_string() == ""
    assert cfg.seed == 0
    assert cfg.canonical_string() == "seed=0"
