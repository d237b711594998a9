"""Command-line front end: capacity tables, spectrum estimates, layering
profiles, simulation sweeps, and the index-mapping demo.

Each subcommand reads an optional flat key=value config file, applies
flag overrides, and writes CSV (plain text for `mapdemo`) to --out or
stdout.  The first output line records the effective configuration, so
rerunning a command with the same config is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .capacity import limit_spectrum_cdf, mean_state_capacity, outage_curve
from .channels import state_law
from .codemap import BroadcastCodeSpec, bc_to_expected, expected_to_bc, subset_weighted_rate
from .config import ConfigError, RunConfig, build_channel, load_config
from .layering import (
    FULL_RANGE,
    SolverError,
    expected_capacity,
    expected_capacity_continuous,
    find_cutoffs,
    parametric_expected_rate,
    rate_profile,
    solve_layering,
)
from .simulate import simulate_outage_code_sweep, simulate_uncoded_bec
from .spectrum import estimate_spectrum


def _render(cfg: RunConfig, header, rows) -> str:
    lines = [f"# chancap {cfg.subcommand} :: {cfg.canonical_string()}".rstrip(), ",".join(header)]
    rows = list(rows)
    if rows:
        # One %-format per row: %d or %.12g, by the first row's types.
        fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.12g" for v in rows[0])
        lines += [fmt % row for row in rows]
    return "\n".join(lines) + "\n"


def cmd_capacity(cfg: RunConfig, base_dir: Path) -> tuple[str, list[str]]:
    """(q, C_q, (1-q) C_q, C^e, upper bound) over a q grid."""
    channel = build_channel(cfg.raw, base_dir)
    q_min = cfg.scalar("q_min", "0", float)
    q_max = cfg.scalar("q_max", "0.99", float)
    if not 0.0 <= q_min < q_max < 1.0:
        raise ConfigError("capacity: need 0 <= q_min < q_max < 1")
    qs = np.linspace(q_min, q_max, cfg.grid)
    ce = expected_capacity(channel)
    ub = mean_state_capacity(channel)
    curve = outage_curve(channel, qs)
    rows = [(q, c, oc, ce, ub) for q, c, oc in zip(qs, curve.c_q, curve.outage_capacity)]
    header = ["q", "c_q", "outage_capacity", "expected_capacity", "upper_bound"]
    return _render(cfg, header, rows), header


def cmd_spectrum(cfg: RunConfig, base_dir: Path) -> tuple[str, list[str]]:
    """Empirical spectrum cdf at several blocklengths plus the large-n limit."""
    channel = build_channel(cfg.raw, base_dir)
    ns = cfg.ints("n", "500,1000,2000")
    if len(ns) == 0:
        raise ConfigError("spectrum: need at least one blocklength")
    if "alpha_grid" in cfg.raw:
        alphas = np.asarray(cfg.floats("alpha_grid", ""), dtype=float)
    else:
        alphas = np.linspace(0.0, 1.0, cfg.grid)
    if alphas.size == 0:
        raise ConfigError("spectrum: the alpha grid must be nonempty")
    columns = [alphas]
    header = ["alpha"]
    for n in ns:
        est = estimate_spectrum(channel, n=n, trials=cfg.trials, seed=cfg.seed)
        columns.append(est.evaluate(alphas))
        header.append(f"f_hat_n{n}")
    columns.append(limit_spectrum_cdf(channel, alphas))
    header.append("f_limit")
    rows = list(zip(*columns))
    return _render(cfg, header, rows), header


def cmd_broadcast(cfg: RunConfig, base_dir: Path) -> tuple[str, list[str]]:
    """Layering output: (p, r, R) profile or a gamma sweep of parametric families."""
    channel = build_channel(cfg.raw, base_dir)
    mode = cfg.raw.get("mode", "profile")
    if mode == "profile":
        prof = solve_layering(channel)
        rates = rate_profile(prof)
        m = cfg.scalar("profile_grid", "257", int)
        if m < 2:
            raise ConfigError("broadcast: profile_grid must be >= 2")
        ps = np.linspace(0.0, 0.5, m)
        r = np.interp(ps, prof.grid, prof.r, left=0.0, right=0.5)
        big_r = rates.rate_at(ps)
        header = ["p", "r", "rate"]
        return _render(cfg, header, zip(ps, r, big_r)), header
    if mode == "gamma":
        gammas = cfg.floats("gammas", "0.25,0.5,0.75,1,1.5,2,2.5,3,3.5,4")
        if len(gammas) == 0:
            raise ConfigError("broadcast: gammas must be nonempty")
        ce = expected_capacity_continuous(channel)
        bands = (find_cutoffs(channel), FULL_RANGE)
        rows = [(g, *(parametric_expected_rate(channel, band, g) for band in bands), ce) for g in gammas]
        header = ["gamma", "rate_optimal_cutoff", "rate_full_range", "expected_capacity"]
        return _render(cfg, header, rows), header
    raise ConfigError(f"broadcast: unknown mode {mode!r} (profile or gamma)")


def cmd_simulate(cfg: RunConfig, base_dir: Path) -> tuple[str, list[str]]:
    """Decoder sweeps: outage codes for BSC families, uncoded for BEC."""
    channel = build_channel(cfg.raw, base_dir)
    bec = state_law(channel).family == "bec"
    ns = cfg.ints("ns", "10000" if bec else "8,12,16")
    if len(ns) == 0:
        raise ConfigError("simulate: need at least one blocklength")
    if bec:
        rows = []
        for n in ns:
            res = simulate_uncoded_bec(channel, n=n, trials=cfg.trials, seed=cfg.seed)
            rows.append((n, res.trials, res.expected_rate, res.seed))
        header = ["n", "trials", "expected_rate", "seed"]
        return _render(cfg, header, rows), header
    rate = cfg.scalar("rate", "0.15", float)
    q = cfg.scalar("q", "0.5", float)
    epsilon = cfg.scalar("epsilon", "0.01", float)
    results = simulate_outage_code_sweep(
        channel, ns, rate=rate, q=q, trials=cfg.trials, epsilon=epsilon, seed=cfg.seed
    )
    rows = [
        (r.blocklength, r.trials, r.rate, r.outage_rate,
         r.error_rate_given_no_outage, r.expected_rate, r.seed)
        for r in results
    ]
    header = ["n", "trials", "rate", "outage_rate", "error_rate_given_no_outage",
              "expected_rate", "seed"]
    return _render(cfg, header, rows), header


def _index_ranges(indices) -> str:
    """Compress a sorted index collection to '1-6,9' range notation."""
    idx = sorted(indices)
    if not idx:
        return "(empty)"
    spans = []
    start = prev = idx[0]
    for i in idx[1:]:
        if i == prev + 1:
            prev = i
            continue
        spans.append((start, prev))
        start = prev = i
    spans.append((start, prev))
    return ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def _mapdemo_rates(cfg: RunConfig, num_states: int) -> dict:
    """Subset rates from r_<labels> keys; labels are 1-based state digits."""
    rates = {}
    for key in [k for k in cfg.raw if k.startswith("r_") and k[2:].isdigit()]:
        members = []
        for ch in key[2:]:
            s = int(ch) - 1
            if not 0 <= s < num_states:
                raise ConfigError(f"mapdemo: key {key} names state {ch} outside 1..{num_states}")
            members.append(s)
        rates[tuple(members)] = cfg.scalar(key, "", float)
    if not rates:
        # Worked example: common rate 0.3 plus 0.2 private to state 2.
        rates = {(0, 1): 0.3, (1,): 0.2}
    return rates


def cmd_mapdemo(cfg: RunConfig, base_dir: Path) -> tuple[str, None]:
    """Text dump of the broadcast <-> expected-rate index mapping."""
    num_states = cfg.scalar("num_states", "2", int)
    if not 1 <= num_states <= 9:
        raise ConfigError("mapdemo: num_states must lie in 1..9 (single-digit labels)")
    n = cfg.scalar("n", "20", int)
    if "pmf" in cfg.raw:
        pmf = np.asarray(cfg.floats("pmf", ""), dtype=float)
    else:
        pmf = np.full(num_states, 1.0 / num_states)
    rates = _mapdemo_rates(cfg, num_states)
    spec = BroadcastCodeSpec(num_states=num_states, rates=rates, n=n)
    code = bc_to_expected(spec, pmf)
    sets = code.index_sets
    back = expected_to_bc(code)
    round_trip = {p: len(b) / n for p, b in sets.i_p.items()}
    achieved = {p: r for p, r in back.rates.items() if r > 0.0}
    if achieved != {p: r for p, r in round_trip.items() if r > 0.0}:
        raise ConfigError("mapdemo: round-trip reconstruction disagreed with the forward mapping")
    objective = subset_weighted_rate(back, pmf)
    identity_gap = abs(objective - code.expected_rate)

    def subset_label(p) -> str:
        return "{" + ",".join(str(s + 1) for s in p) + "}"

    lines = [f"# chancap mapdemo :: {cfg.canonical_string()}".rstrip()]
    lines.append(f"blocklength n = {n}")
    lines.append(f"states = {num_states}, pmf = [{', '.join(f'{w:.12g}' for w in pmf)}]")
    lines.append(f"total rate R_t = {code.total_rate:.12g} ({len(sets.i_t)} bits)")
    lines.append(f"rounding deficit = {code.rounding_deficit:.12g} bits/use")
    for p in sorted(sets.i_p, key=lambda t: (-len(t), t)):
        lines.append(
            f"subset {subset_label(p)}: rate {len(sets.i_p[p]) / n:.12g}, "
            f"indices {_index_ranges(sets.i_p[p])}"
        )
    for s in range(num_states):
        lines.append(
            f"state {s + 1}: R_s = {code.state_rates[s]:.12g}, "
            f"I_s = {_index_ranges(sets.i_s[s])}"
        )
    lines.append(f"expected rate = {code.expected_rate:.12g}")
    # bc_to_expected verified the index sets; it raises on a bad partition.
    lines.append("partition check: ok")
    lines.append("round-trip check: ok")
    lines.append(f"objective identity gap = {identity_gap:.12g}")
    return "\n".join(lines) + "\n", None


_COMMANDS = {
    "capacity": cmd_capacity,
    "spectrum": cmd_spectrum,
    "broadcast": cmd_broadcast,
    "simulate": cmd_simulate,
    "mapdemo": cmd_mapdemo,
}


def _plot_script(csv_path: str, header: list[str]) -> str:
    cols = ", ".join(
        f"'{csv_path}' using 1:{i} with lines" for i in range(2, len(header) + 1)
    )
    return "\n".join([
        "# generated by chancap; render with: gnuplot -p <this file>",
        "set datafile separator ','",
        "set key autotitle columnhead noenhanced",
        f"set xlabel '{header[0]}' noenhanced",
        f"plot {cols}",
    ]) + "\n"


# The run flags each subcommand reads, each setting the config key of
# its name; the others would only be rejected as unread.
_RUN_FLAGS = {
    "capacity": ("grid",),
    "spectrum": ("seed", "trials", "grid"),
    "broadcast": (),
    "simulate": ("seed", "trials"),
    "mapdemo": (),
}
_FLAG_HELP = {
    "seed": "master RNG seed",
    "trials": "Monte Carlo trials",
    "grid": "grid points for q/alpha tables",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Reusing it is safe: `parse_args` returns a fresh namespace each call
    and every flag defaults to None, so no call sees another's values.
    """
    parser = argparse.ArgumentParser(
        prog="chancap",
        description="Capacity metrics for composite channels with receiver side information.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    descriptions = {
        "capacity": "outage/expected capacity table over a q grid",
        "spectrum": "empirical information-spectrum cdf at several blocklengths",
        "broadcast": "layering rate profile or parametric gamma sweep",
        "simulate": "Monte Carlo decoder sweeps",
        "mapdemo": "broadcast/expected-rate index mapping dump",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for flag in _RUN_FLAGS[name]:
            p.add_argument(f"--{flag}", type=int, help=_FLAG_HELP[flag])
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--plot-script", dest="plot_script",
                       help="also write a gnuplot script for the emitted CSV")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = dict(load_config(args.config)) if args.config else {}
        for key in (*_RUN_FLAGS[args.subcommand], "out"):
            value = getattr(args, key)
            if value is not None:
                raw[key] = str(value)
        cfg = RunConfig(subcommand=args.subcommand, raw=raw)
        base_dir = Path(args.config).resolve().parent if args.config else Path.cwd()
        text, header = _COMMANDS[args.subcommand](cfg, base_dir)
        out = cfg.out  # read before the check: every run reads out
        unread = cfg.unread()
        if unread:
            raise ConfigError(f"{args.subcommand} does not read {', '.join(unread)}")
        if args.plot_script and header is None:
            raise ConfigError("mapdemo output is plain text; no plot script available")
        if args.plot_script and not out:
            raise ConfigError("--plot-script needs --out so the script can reference the CSV")
        if out:
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
        if args.plot_script:
            Path(args.plot_script).write_text(_plot_script(out, header))
        return 0
    except (ConfigError, ValueError, OSError, SolverError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
