"""Workload inputs, operations and per-operation correctness gates.

An operation ("op") is one user-level request: a full capacity report for
one channel, one Monte Carlo job, or one command-line invocation.  A
workload is a pool of rounds generated from a seed; the benchmark runs the
rounds in order and starts the pool again when it runs out.  Every round
has the same composition of op kinds (density shapes rotate through the
pool), so the mix a run measures depends neither on the seed nor on how
many rounds the run completes.  Every op goes through the library's public
functions only and is checked by a gate that raises `GateMiss` when the
output is wrong.

The channels of the workloads whose ops fail at the seed commit
(`continuous`, `discrete`, `cli`) come from one fixed corpus, and the seed
orders its rounds and draws the seeds of the CLI's Monte Carlo calls.  Which
ops fail then depends on the code alone, so the number of failed ops is the
same on every seed and a change in it means the code changed.

Why each workload exists (see README.md for the full table):

* continuous: Euler-equation layering on gridded crossover densities does
  almost all the work; the outage-curve search does the rest.
* discrete:   the N-state layered optimizer dominates; absent elsewhere.
* montecarlo: random-number-bound spectrum and decoder jobs; no layering.
* cli:        the command-line front end end to end, including config
  parsing, rendering and the index-mapping demo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import chancap
from chancap import cli, config

import reference

# q grid of every outage curve: the CLI's default capacity table.
Q_GRID = np.linspace(0.0, 0.99, 101)
# Slack on exact inequalities between solver outputs.
TOL = 1e-9
# False-fail probability allowed to the statistical checks of one op.
DELTA = 1e-6

DENSITY_KINDS = ("beta", "triangle", "truncexp", "twobump")
GRID_SIZES = (257, 513, 1025, 2049, 4097)

# Uniform-density reference values (criteria 1, 4 and the README).
UNIFORM_P_U = 1.0 / 6.0
UNIFORM_P_L = 0.136
UNIFORM_CE = 0.11734
UNIFORM_Q_STAR = 0.6909
UNIFORM_OUTAGE_RATE = 0.11711
# Two-state reference from the README: (C^e, r*) of GE(0.05, 0.3, pi_good=0.14).
GE_REFERENCE = {"p_good": 0.05, "p_bad": 0.3, "pi_good": 0.14}
GE_REFERENCE_CE = 0.11925
GE_REFERENCE_R = 0.02620

# ROADMAP item 2's three-state composite on which optimize_discrete raises.
ROADMAP_BSC = {
    "states": [0.062230166257739916, 0.1476171278313479, 0.4234991853168648],
    "pmf": [0.6658933552120739, 0.23839636698807629, 0.09571027779984978],
}

SPECTRUM_TRIALS = 100_000
SWEEP_TRIALS = 20_000
SWEEP_RATE, SWEEP_Q, SWEEP_EPSILON = 0.15, 0.5, 0.01
UNCODED_TRIALS, UNCODED_N = 100_000, 1000
SPECTRUM_QS = np.linspace(0.05, 0.95, 19)
SPECTRUM_ALPHAS = np.linspace(0.0, 1.0, 41)
# Gamma values of the cli workload's `broadcast mode=gamma` call.
GAMMAS = "1,2"


class GateMiss(Exception):
    """An op returned an output that fails its correctness gate."""


@dataclass
class Op:
    """One request: `run` is timed, `check` gates its result untimed.

    `params` holds the generated inputs as plain data; `anchor` marks an
    op on fixed inputs with known answers, whose miss means the program
    no longer reproduces the paper's reference values.
    """

    kind: str
    params: dict
    run: Callable[[], Any]
    check: Callable[[Any], None]
    anchor: bool = False


@dataclass
class Workload:
    name: str
    rounds: list[list[Op]]
    files: dict[str, str] = field(default_factory=dict)

    def input_bytes(self) -> bytes:
        """Canonical bytes of every generated input, files included."""
        blob = {
            "rounds": [[[op.kind, op.params, op.anchor] for op in ops] for ops in self.rounds],
            "files": self.files,
        }
        return json.dumps(blob, sort_keys=True).encode()


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise GateMiss(why)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(abs(got - want) <= tol, f"{what} = {got:.12g}, expected {want:.12g} +- {tol:g}")


def _sandwich(lower: float, ce: float, upper: float) -> None:
    _require(lower - TOL <= ce, f"C^e {ce:.12g} below the outage bound {lower:.12g}")
    _require(ce <= upper + TOL, f"C^e {ce:.12g} above the mean state capacity {upper:.12g}")


def _nonincreasing(values, what: str) -> None:
    _require(bool(np.all(np.diff(np.asarray(values, dtype=float)) <= TOL)), f"{what} increases")


def _nondecreasing(values, what: str) -> None:
    _require(bool(np.all(np.diff(np.asarray(values, dtype=float)) >= -TOL)), f"{what} decreases")


def digest(obj) -> str:
    """Stable hash of an op result, used to check that repeats agree."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(x.dtype.str.encode() + repr(x.shape).encode() + x.tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for v in x:
                feed(v)
        elif hasattr(x, "__dataclass_fields__"):
            feed(type(x).__name__)
            feed({k: getattr(x, k) for k in x.__dataclass_fields__ if not k.startswith("_")})
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


# ---------------------------------------------------------------- inputs


def density_params(kind: str, rng: np.random.Generator) -> dict:
    """A gridded crossover density on [0, top], normalized by trapezoid."""
    size = int(rng.choice(GRID_SIZES))
    top = float(rng.uniform(0.3, 0.5))
    p = np.linspace(0.0, top, size)
    x = p / top
    if kind == "beta":
        a, b = rng.uniform(1.2, 4.0, 2)
        f = x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)
    elif kind == "triangle":
        f = 1.0 - x
    elif kind == "truncexp":
        f = np.exp(-rng.uniform(1.0, 10.0) * p)
    elif kind == "twobump":
        mu = rng.uniform(0.05, top - 0.05, 2)
        sd = rng.uniform(0.02, 0.08, 2)
        w = rng.uniform(0.2, 0.8)
        f = w * np.exp(-0.5 * ((p - mu[0]) / sd[0]) ** 2)
        f += (1.0 - w) * np.exp(-0.5 * ((p - mu[1]) / sd[1]) ** 2)
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    f = f / np.trapezoid(f, p)
    return {"kind": kind, "grid": p.tolist(), "density": f.tolist()}


def _density(params: dict):
    return chancap.ContinuousBscComposite(np.array(params["grid"]), np.array(params["density"]))


def _mixture(rng: np.random.Generator, n_states: int, high: float) -> dict:
    params = np.sort(rng.uniform(0.0, high, n_states))
    pmf = rng.dirichlet(np.ones(n_states))
    return {"states": params.tolist(), "pmf": (pmf / pmf.sum()).tolist()}


def _bsc(params: dict):
    return chancap.DiscreteComposite(
        tuple(chancap.BscState(p) for p in params["states"]), np.array(params["pmf"])
    )


def _bec(params: dict):
    return chancap.DiscreteComposite(
        tuple(chancap.BecState(a) for a in params["states"]), np.array(params["pmf"])
    )


def _ge_params(rng: np.random.Generator) -> dict:
    p_good, p_bad = np.sort(rng.uniform(0.0, 0.5, 2))
    return {"p_good": float(p_good), "p_bad": float(p_bad), "pi_good": float(rng.uniform(0.05, 0.95))}


def _ge(params: dict):
    return chancap.GilbertElliott(params["p_good"], params["p_bad"], 0.0, 0.0, params["pi_good"])


# ------------------------------------------------------------ continuous


def _continuous_op(params: dict, anchor: bool) -> Op:
    channel = chancap.ContinuousBscComposite.uniform() if anchor else _density(params)

    def run():
        cut = chancap.find_cutoffs(channel)
        layer = chancap.solve_layering(channel)
        profile = chancap.rate_profile(layer)
        ce = chancap.expected_capacity_continuous(channel)
        bounds = chancap.expected_capacity_bounds(channel)
        curve = chancap.outage_curve(channel, Q_GRID)
        return {"cut": cut, "r": layer.r, "rates": profile.rates, "ce": ce,
                "bounds": bounds, "c_q": curve.c_q}

    def check(res):
        _require(res["cut"].p_l <= res["cut"].p_u, "p_l above p_u")
        _nonincreasing(res["rates"], "rate profile")
        _nondecreasing(res["c_q"], "C_q")
        _sandwich(res["bounds"].lower, res["ce"], res["bounds"].upper)
        if anchor:
            _close(res["cut"].p_u, UNIFORM_P_U, 1e-6, "p_u")
            _close(res["cut"].p_l, UNIFORM_P_L, 1e-3, "p_l")
            _close(res["ce"], UNIFORM_CE, 1e-5, "C^e")
            _close(res["bounds"].lower, UNIFORM_OUTAGE_RATE, 1e-5, "best outage rate")
            q_star, _ = chancap.best_outage_rate(channel)
            _close(q_star, UNIFORM_Q_STAR, 1e-3, "q*")

    kind = "uniform" if anchor else params["kind"]
    return Op(f"continuous.{kind}", params, run, check, anchor=anchor)


def continuous(rng: np.random.Generator, jobs: np.random.Generator, r: int, work: Path,
               files: dict) -> list[Op]:
    ops = [_continuous_op({"preset": "uniform"}, anchor=True)]
    # Beta ops take about half as long as the others and the uniform preset
    # about half again as long, so with one of each per round the median op
    # falls in the middle of the four gridded ops of similar cost, and
    # op_p50_ms does not jump between clusters from run to run.
    for kind in ("beta", "triangle", "triangle", "truncexp", "twobump"):
        ops.append(_continuous_op(density_params(kind, rng), anchor=False))
    return ops


# -------------------------------------------------------------- discrete


def _outage_report(channel) -> dict:
    bounds = chancap.expected_capacity_bounds(channel)
    curve = chancap.outage_curve(channel, Q_GRID)
    return {"bounds": bounds, "c_q": curve.c_q, "shannon": chancap.shannon_capacity(channel)}


def _check_outage_report(res: dict) -> None:
    _nondecreasing(res["c_q"], "C_q")
    _close(res["shannon"], float(res["c_q"][0]), TOL, "Shannon capacity against C_0")
    _require(res["bounds"].lower <= res["bounds"].upper + TOL, "outage bound above mean capacity")


def _bsc_op(kind: str, params: dict, ladder: int = 0) -> Op:
    """Layered optimum of a BSC mixture, or of an N-state density ladder."""
    density = _density(params["density"]) if ladder else None

    def run():
        if ladder:
            w, p = chancap.discretize_density(density, ladder)
            channel = chancap.DiscreteComposite(tuple(chancap.BscState(x) for x in p), w)
        else:
            w, p = np.array(params["pmf"]), np.array(params["states"])
            channel = _bsc(params)
        chain, ce = chancap.optimize_discrete(w, p)
        return {"chain": chain, "ce": ce, **_outage_report(channel)}

    def check(res):
        _check_outage_report(res)
        _sandwich(res["bounds"].lower, res["ce"], res["bounds"].upper)

    return Op(kind, params, run, check)


def _ge_op(params: dict, anchor: bool = False) -> Op:
    channel = _ge(params)

    def run():
        ce, r_star = chancap.ge_expected_capacity(params["p_good"], params["p_bad"], params["pi_good"])
        return {"ce": ce, "r": r_star, **_outage_report(channel)}

    def check(res):
        _check_outage_report(res)
        _sandwich(res["bounds"].lower, res["ce"], res["bounds"].upper)
        pi = params["pi_good"]
        _, n2 = chancap.optimize_discrete([pi, 1.0 - pi], [params["p_good"], params["p_bad"]])
        _close(res["ce"], n2, 1e-8, "two-state closed form against optimize_discrete")
        if anchor:
            _close(res["ce"], GE_REFERENCE_CE, 1e-5, "C^e")
            _close(res["r"], GE_REFERENCE_R, 1e-5, "r*")

    return Op("discrete.ge", params, run, check, anchor=anchor)


def _bec_op(params: dict) -> Op:
    channel = _bec(params)
    # BEC composites only get outage metrics: their expected capacity is
    # contested (ROADMAP item 3), so no value is pinned here.
    return Op("discrete.bec", params, lambda: _outage_report(channel), _check_outage_report)


def discrete(rng: np.random.Generator, jobs: np.random.Generator, r: int, work: Path,
             files: dict) -> list[Op]:
    ops = [_ge_op(GE_REFERENCE, anchor=True)]
    # Many mixtures per round: their times spread evenly over 5-60 ms, so
    # op_p50_ms needs a large sample to repeat from run to run.
    for n_states in range(2, 10):
        for _ in range(8):
            ops.append(_bsc_op("discrete.bsc", _mixture(rng, n_states, 0.5)))
    for _ in range(3):
        ops.append(_ge_op(_ge_params(rng)))
    # Two density ladders, one of them continued to 64 states.  Triangle
    # densities: across draws of this family the 64-state optimizer time
    # varies least (about 1.0-1.4 s, against 0.2-0.9 s for two-bump
    # mixtures), so the few 64-state ops a run holds do not swing ops_per_s.
    for ladder in range(2):
        density = density_params("triangle", rng)
        for n_states in (8, 16, 32, 64) if ladder == 0 else (8, 16, 32):
            ops.append(_bsc_op(f"discrete.ladder{n_states}", {"density": density, "n": n_states},
                               ladder=n_states))
    for n_states in (2, 4):
        ops.append(_bec_op(_mixture(rng, n_states, 1.0)))
    return ops


# ------------------------------------------------------------ montecarlo


def _check_cdf(f_hat, channel, n: int, alphas, eps: float) -> None:
    """Empirical cdf within eps of the exact one at every alpha."""
    lo, hi = reference.spectrum_cdf_bracket(channel, n, alphas)
    dev = float(np.max(np.maximum(f_hat - hi, lo - f_hat)))
    _require(dev <= eps, f"n={n}: spectrum cdf off by {dev:.4g} (band {eps:.4g})")


def _spectrum_op(label: str, params: dict, channel, n: int, job_seed: int) -> Op:
    def run():
        cdf = chancap.estimate_spectrum(channel, n=n, trials=SPECTRUM_TRIALS, seed=job_seed)
        c_q = [chancap.capacity_from_spectrum(cdf, float(q)) for q in SPECTRUM_QS]
        return {"cdf": cdf, "c_q": np.array(c_q)}

    def check(res):
        cdf = res["cdf"]
        _require(cdf.trials == SPECTRUM_TRIALS and cdf.blocklength == n, "spectrum shape")
        _nondecreasing(res["c_q"], "C_q estimate")
        # One DKW event covers the cdf grid and both sides of every quantile:
        # F_hat(c) > q >= F_hat(c-) for the estimate c, so F(c) > q - eps
        # and F(c-) <= q + eps.
        eps = reference.dkw_epsilon(SPECTRUM_TRIALS, DELTA)
        _check_cdf(cdf.evaluate(SPECTRUM_ALPHAS), channel, n, SPECTRUM_ALPHAS, eps)
        _, hi = reference.spectrum_cdf_bracket(channel, n, res["c_q"] + 1e-9)
        lo, _ = reference.spectrum_cdf_bracket(channel, n, res["c_q"] - 1e-9)
        _require(bool(np.all(hi >= SPECTRUM_QS - eps)), "C_q estimate too low")
        _require(bool(np.all(lo <= SPECTRUM_QS + eps)), "C_q estimate too high")

    return Op(f"montecarlo.spectrum.{label}", {**params, "n": n, "seed": job_seed}, run, check)


def check_sweep(channel, results, ns, trials: int, rate: float, threshold: float) -> None:
    """Outage counts within Bernstein bands of their exact probabilities."""
    _require([r.blocklength for r in results] == list(ns), "sweep blocklengths")
    for res in results:
        p_out, slack = reference.outage_probability(channel, res.blocklength, rate, threshold)
        count = res.outage_rate * trials
        width = reference.binomial_halfwidth(trials, p_out, DELTA / len(ns)) + slack * trials
        _require(abs(count - trials * p_out) <= width,
                 f"n={res.blocklength}: {count:.0f} outages, expected {trials * p_out:.1f} +- {width:.1f}")
        if res.ml_dominance_violations is not None:
            _require(res.ml_dominance_violations == 0,
                     f"n={res.blocklength}: {res.ml_dominance_violations} ML dominance violations")


def _sweep_op(label: str, params: dict, channel, ns: list, ml: bool, job_seed: int) -> Op:
    def run():
        return chancap.simulate_outage_code_sweep(
            channel, ns, rate=SWEEP_RATE, q=SWEEP_Q, trials=SWEEP_TRIALS,
            epsilon=SWEEP_EPSILON, seed=job_seed, ml_oracle=ml,
        )

    def check(results):
        threshold = chancap.capacity_vs_outage(channel, SWEEP_Q) - SWEEP_EPSILON
        check_sweep(channel, results, ns, SWEEP_TRIALS, SWEEP_RATE, threshold)

    return Op(f"montecarlo.sweep.{label}", {**params, "ns": ns, "ml": ml, "seed": job_seed},
              run, check)


def check_uncoded(channel, expected_rate: float, trials: int) -> None:
    want = 1.0 - reference.mean_erasure(channel)
    _close(expected_rate, want, reference.dkw_epsilon(trials, DELTA), "uncoded BEC rate")


def _uncoded_op(params: dict, channel, job_seed: int) -> Op:
    def run():
        return chancap.simulate_uncoded_bec(channel, n=UNCODED_N, trials=UNCODED_TRIALS, seed=job_seed)

    def check(res):
        check_uncoded(channel, res.expected_rate, UNCODED_TRIALS)

    return Op("montecarlo.uncoded_bec", {**params, "seed": job_seed}, run, check)


def montecarlo(rng: np.random.Generator, jobs: np.random.Generator, r: int, work: Path,
               files: dict) -> list[Op]:
    channels = {
        "uniform": ({"preset": "uniform"}, chancap.ContinuousBscComposite.uniform()),
    }
    ge = _ge_params(rng)
    channels["ge"] = (ge, _ge(ge))
    bsc = _mixture(rng, int(rng.integers(2, 6)), 0.5)
    channels["bsc"] = (bsc, _bsc(bsc))
    bec = _mixture(rng, int(rng.integers(2, 6)), 1.0)
    channels["bec"] = (bec, _bec(bec))

    def job_seed() -> int:
        return int(jobs.integers(2**31))

    ops = []
    for label, (params, channel) in channels.items():
        for n in (500, 1000, 2000):
            ops.append(_spectrum_op(label, params, channel, n, job_seed()))
    sweeps = [("uniform", [8, 12, 16], False), ("ge", [8, 16], True), ("ge", [12], False),
              ("bsc", [8, 12, 16], True), ("bsc", [16], False), ("uniform", [8], True)]
    for label, ns, ml in sweeps:
        params, channel = channels[label]
        ops.append(_sweep_op(label, params, channel, ns, ml, job_seed()))
    for _ in range(2):
        ops.append(_uncoded_op(bec, channels["bec"][1], job_seed()))
    return ops


# ------------------------------------------------------------------- cli


def _read_table(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    _require(lines[0].startswith("# chancap "), "missing provenance line")
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    _require(rows.ndim == 2 and rows.shape[1] == len(header), "ragged table")
    return header, rows


def _col(header, rows, name):
    return rows[:, header.index(name)]


def _is_uniform(channel) -> bool:
    return isinstance(channel, chancap.ContinuousBscComposite) and channel.analytic_preset == "uniform"


def _check_capacity_table(text: str, channel) -> None:
    header, rows = _read_table(text)
    q = _col(header, rows, "q")
    c_q = _col(header, rows, "c_q")
    oc = _col(header, rows, "outage_capacity")
    ce = _col(header, rows, "expected_capacity")
    ub = _col(header, rows, "upper_bound")
    _nondecreasing(c_q, "C_q")
    _require(bool(np.all(oc <= ce + TOL)), f"outage capacity {oc.max():.12g} above C^e {ce[0]:.12g}")
    _require(bool(np.all(ce <= ub + TOL)), "C^e above the upper bound")
    if _is_uniform(channel):
        # The best outage code is read off the q grid, so q* is pinned to
        # within one grid step and its rate to the reference's last digit.
        best = int(np.argmax(oc))
        _close(float(ce[0]), UNIFORM_CE, 1e-5, "C^e")
        _close(float(oc[best]), UNIFORM_OUTAGE_RATE, 1e-5, "best outage rate")
        _close(float(q[best]), UNIFORM_Q_STAR, float(q[1] - q[0]) + 1e-3, "q*")


def _check_spectrum_table(text: str, channel, trials: int) -> None:
    header, rows = _read_table(text)
    alphas = rows[:, 0]
    _nondecreasing(_col(header, rows, "f_limit"), "limit spectrum")
    ns = [int(h[len("f_hat_n"):]) for h in header if h.startswith("f_hat_n")]
    eps = reference.dkw_epsilon(trials, DELTA / len(ns))
    for n in ns:
        _check_cdf(_col(header, rows, f"f_hat_n{n}"), channel, n, alphas, eps)


@dataclass
class _OutageRow:
    """The part of a SimResult that a `simulate` CSV row carries."""

    blocklength: int
    outage_rate: float
    ml_dominance_violations: int | None = None


def _check_simulate_table(text: str, channel, cfg: dict) -> None:
    header, rows = _read_table(text)
    trials = int(cfg.get("trials", "10000"))
    if isinstance(channel, chancap.DiscreteComposite) and channel.family == "bec":
        for rate in _col(header, rows, "expected_rate"):
            check_uncoded(channel, float(rate), trials)
        return
    ns = [int(n) for n in _col(header, rows, "n")]
    rate, q, epsilon = (float(cfg.get(k, d)) for k, d in
                        (("rate", "0.15"), ("q", "0.5"), ("epsilon", "0.01")))
    outage = _col(header, rows, "outage_rate")
    results = [_OutageRow(n, float(o)) for n, o in zip(ns, outage)]
    threshold = chancap.capacity_vs_outage(channel, q) - epsilon
    check_sweep(channel, results, ns, trials, rate, threshold)


def _check_broadcast_table(text: str, channel) -> None:
    header, rows = _read_table(text)
    if header[0] == "p":
        p, r, rate = _col(header, rows, "p"), _col(header, rows, "r"), _col(header, rows, "rate")
        _nondecreasing(r, "r(p)")
        _nonincreasing(rate, "rate profile")
        _require(bool(np.all((r >= 0.0) & (r <= 0.5) & (rate >= 0.0))), "profile out of range")
        if _is_uniform(channel):
            # Layering starts (r leaves 0) at p_l and ends (the rate reaches
            # 0) at p_u; the profile brackets each cutoff by one grid cell.
            _bracket(p, r > 0.0, UNIFORM_P_L, 1e-3, "p_l")
            _bracket(p, rate <= 0.0, UNIFORM_P_U, 1e-6, "p_u")
        return
    ce = _col(header, rows, "expected_capacity")
    for name in ("rate_optimal_cutoff", "rate_full_range"):
        _require(bool(np.all(_col(header, rows, name) <= ce + TOL)), f"{name} above C^e")
    if _is_uniform(channel):
        _close(float(ce[0]), UNIFORM_CE, 1e-5, "C^e")


def _bracket(p, after, want: float, tol: float, what: str) -> None:
    """The grid cell where `after` first holds lies within tol of `want`."""
    first = int(np.argmax(after))
    _require(bool(after[first]) and first > 0, f"{what} not inside the profile grid")
    lo, hi = float(p[first - 1]), float(p[first])
    _require(lo - tol <= want <= hi + tol, f"{what} in [{lo:.6g}, {hi:.6g}], expected {want:.6g} +- {tol:g}")


def _check_mapdemo(text: str) -> None:
    for line in ("partition check: ok", "round-trip check: ok"):
        _require(line in text.splitlines(), f"mapdemo lacks {line!r}")
    gap = [ln for ln in text.splitlines() if ln.startswith("objective identity gap = ")]
    _require(len(gap) == 1 and float(gap[0].rsplit("=", 1)[1]) <= TOL, "objective identity gap")


def _cli_op(sub: str, cfg: dict, work: Path, files: dict, tag: str, anchor: bool,
            density: dict | None = None) -> Op:
    """One `chancap <sub> [--config file] --out file` invocation."""
    out = work / f"out{tag}.txt"
    csv_name = f"density{tag}.csv"
    argv = [sub]
    if cfg or density:
        conf = dict(cfg)
        if density:
            files[csv_name] = "".join(f"{p!r},{f!r}\n" for p, f in zip(density["grid"], density["density"]))
            conf["density_file"] = csv_name
        conf_name = f"run{tag}.conf"
        files[conf_name] = "".join(f"{k} = {v}\n" for k, v in conf.items())
        argv += ["--config", str(work / conf_name)]
    argv += ["--out", str(out)]

    def run():
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments by exiting
            code = exc.code
        return {"code": code, "text": out.read_text() if code == 0 else ""}

    def check(res):
        _require(res["code"] == 0, f"exit code {res['code']}")
        text = res["text"]
        if sub == "mapdemo":
            _check_mapdemo(text)
            return
        channel = config.build_channel(
            {**cfg, **({"density_file": str(work / csv_name)} if density else {})}
        )
        if sub == "capacity":
            _check_capacity_table(text, channel)
        elif sub == "spectrum":
            _check_spectrum_table(text, channel, int(cfg.get("trials", "10000")))
        elif sub == "simulate":
            _check_simulate_table(text, channel, cfg)
        else:
            _check_broadcast_table(text, channel)

    params = {"subcommand": sub, "config": cfg, "density": density}
    return Op(f"cli.{sub}", params, run, check, anchor=anchor)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def cli_workload(rng: np.random.Generator, jobs: np.random.Generator, r: int, work: Path,
                 files: dict) -> list[Op]:
    ge = _ge_params(rng)
    ge_cfg = {"family": "ge", **{k: repr(v) for k, v in ge.items()}}
    bec = _mixture(rng, int(rng.integers(2, 6)), 1.0)
    bec_cfg = {"family": "bec", "erasures": _csv(bec["states"]), "pmf": _csv(bec["pmf"])}
    bsc = _mixture(rng, int(rng.integers(2, 10)), 0.5)
    bsc_cfg = {"family": "bsc", "states": _csv(bsc["states"]), "pmf": _csv(bsc["pmf"])}
    roadmap_cfg = {"family": "bsc", "states": _csv(ROADMAP_BSC["states"]),
                   "pmf": _csv(ROADMAP_BSC["pmf"])}
    density = density_params(DENSITY_KINDS[r % len(DENSITY_KINDS)], rng)
    ge_mc, bec_mc = ({**cfg, "seed": str(int(jobs.integers(2**31)))} for cfg in (ge_cfg, bec_cfg))

    specs = [
        ("capacity", {}, None, True),
        ("spectrum", {}, None, True),
        ("broadcast", {}, None, True),
        ("simulate", {}, None, True),
        ("mapdemo", {}, None, True),
        ("capacity", ge_cfg, None, False),
        ("capacity", bec_cfg, None, False),
        ("capacity", bsc_cfg, None, False),
        ("capacity", roadmap_cfg, None, False),
        ("capacity", {"family": "density"}, density, False),
        ("spectrum", ge_mc, None, False),
        ("spectrum", bec_mc, None, False),
        ("simulate", ge_mc, None, False),
        ("simulate", bec_mc, None, False),
    ]
    # Two of the ten default gammas: this call takes about 0.8 s, the full
    # sweep about 1.5 s, which would make up half of the workload's time.
    specs.append(("broadcast", {"mode": "gamma", "gammas": GAMMAS}, None, True))
    return [_cli_op(sub, cfg, work, files, f"{r}_{i:02d}", anchor, density=dens)
            for i, (sub, cfg, dens, anchor) in enumerate(specs)]


# Round maker, pool size and whether the channels come from the fixed corpus,
# per workload.  Enough distinct rounds that a run averages over many
# inputs, and few enough that one pass through the pool takes at most about
# half of a 30-s run at the seed commit's speed, so every op runs at least
# twice and the repeat check compares their outputs.
ROUND_MAKERS = {
    "continuous": (continuous, 8, True),
    "discrete": (discrete, 4, True),
    "montecarlo": (montecarlo, 8, False),
    "cli": (cli_workload, 8, True),
}
# Draws the corpus of the fixed-corpus workloads.
CORPUS_SEED = 0


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate a workload's inputs from `seed`; write its files under `work`.

    Round r draws its channels from `[seed, r]`, or from `[CORPUS_SEED, r]`
    on a fixed-corpus workload, whose rounds the seed then puts in order.
    Monte Carlo job seeds always come from the seed.
    """
    make_round, pool, fixed = ROUND_MAKERS[name]
    files: dict[str, str] = {}
    rounds = [make_round(np.random.default_rng([CORPUS_SEED if fixed else seed, r]),
                         np.random.default_rng([seed, r, 1]), r, work, files)
              for r in range(pool)]
    if fixed:
        rounds = [rounds[i] for i in np.random.default_rng(seed).permutation(pool)]
    workload = Workload(name, rounds, files)
    work.mkdir(parents=True, exist_ok=True)
    for fname, text in workload.files.items():
        (work / fname).write_text(text)
    return workload
