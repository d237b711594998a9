"""Per-layer tracing by wrapping chancap's public functions from outside.

`Tracer` replaces each target function with a wrapper wherever a chancap
module binds it: the defining module, every module that imported the name,
and module-level dicts that hold it (the CLI's subcommand table).  While an
op runs, each call records a span (name, parent span, start, end, raised)
in memory; when the op ends the spans are folded into per-function call
counts, self times and failure counts, and dropped.  Leaving the `with`
block restores every original binding.  Outside an op the wrappers pass
straight through, so the benchmark's own gates are never traced.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "chancap.layering"
    attr: str    # function name, or "Class.method"
    name: str    # metric prefix, e.g. "layering.find_cutoffs"


def _targets() -> tuple[Target, ...]:
    out = []
    for module, names in (
        ("layering", ("find_cutoffs", "euler_rhs", "solve_layering", "solve_euler_r", "rate_profile",
                      "expected_capacity_continuous", "parametric_expected_rate", "optimize_discrete",
                      "ge_expected_capacity", "discretize_density")),
        ("capacity", ("capacity_vs_outage", "best_outage_rate", "outage_curve", "mean_state_capacity",
                      "shannon_capacity", "expected_capacity_bounds", "capacity_from_spectrum")),
        ("spectrum", ("estimate_spectrum", "cdf_quantile")),
        ("simulate", ("simulate_outage_code_sweep", "simulate_uncoded_bec")),
        ("config", ("build_channel",)),
        ("codemap", ("bc_to_expected", "expected_to_bc")),
    ):
        out += [Target(f"chancap.{module}", n, f"{module}.{n}") for n in names]
    out.append(Target("chancap.cli", "main", "cli.main"))
    for sub in ("capacity", "spectrum", "broadcast", "simulate", "mapdemo"):
        out.append(Target("chancap.cli", f"cmd_{sub}", f"cli.{sub}"))
    # Channel construction: the validation every composite runs on creation.
    for cls in ("BscState", "BecState", "DiscreteComposite", "ContinuousBscComposite", "GilbertElliott"):
        out.append(Target("chancap.channels", f"{cls}.__post_init__", "channels.construct"))
    return tuple(out)


TARGETS = _targets()


def _count_optimize_discrete(stats, args, result):
    stats["states"] += len(args["p_states"])


def _count_spectrum(stats, args, result):
    stats["trials"] += args["trials"]


def _count_sweep(stats, args, result):
    ns = [int(n) for n in args["ns"]]
    stats["trials"] += args["trials"] * len(ns)
    # Computed, not measured: the codebook bits the sweep draws.
    stats["codebook_bits"] += sum(
        args["trials"] * math.floor(2.0 ** (n * args["rate"])) * n for n in ns
    )
    stats["ml_dominance_violations"] += sum(r.ml_dominance_violations or 0 for r in result)


def _count_uncoded(stats, args, result):
    stats["trials"] += args["trials"]


def _count_cli_main(stats, args, result):
    if result != 0:
        stats["failed"] += 1


COUNTERS = {
    "layering.optimize_discrete": _count_optimize_discrete,
    "spectrum.estimate_spectrum": _count_spectrum,
    "simulate.simulate_outage_code_sweep": _count_sweep,
    "simulate.simulate_uncoded_bec": _count_uncoded,
    "cli.main": _count_cli_main,
}


def _chancap_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "chancap" or name.startswith("chancap."))]


class Tracer:
    """Wraps TARGETS while active; aggregates spans op by op."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self.op_s = 0.0
        self.top_s = 0.0
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, target: Target) -> None:
        module = sys.modules[target.module]
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            self._set(owner, attr, self._wrap(target.name, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(target.name, original)
        for mod in _chancap_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, v, True))
                            value[k] = wrapper

    def _set(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key], False))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, key, original, is_dict = self._patches.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _wrap(self, name: str, fn):
        tracer = self
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer.stats[name], bound.arguments, result)
            return result

        return wrapper

    # -- measurement --------------------------------------------------

    def run(self, fn):
        """Call fn() as one traced op; return (result or exception, seconds)."""
        self.on = True
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is counted, not fatal
            result = exc
        finally:
            elapsed = perf_counter() - start
            self.on = False
        self._fold(elapsed)
        return result, elapsed

    def _fold(self, op_seconds: float) -> None:
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                self.top_s += end - start
        for i, (name, _, start, end, failed) in enumerate(self.spans):
            stats = self.stats[name]
            stats["calls"] += 1
            stats["self_s"] += end - start - child[i]
            stats["failed"] += failed
        self.op_s += op_seconds
        self.spans = []
        self.stack = []


# Per-layer metrics beyond every target's self_ms: (name, stats key, unit).
COUNTS = (
    ("layering.find_cutoffs.calls", "layering.find_cutoffs", "calls"),
    ("layering.euler_rhs.calls", "layering.euler_rhs", "calls"),
    ("layering.solve_euler_r.calls", "layering.solve_euler_r", "calls"),
    ("layering.expected_capacity_continuous.failed", "layering.expected_capacity_continuous", "failed"),
    ("layering.optimize_discrete.calls", "layering.optimize_discrete", "calls"),
    ("layering.optimize_discrete.states", "layering.optimize_discrete", "states"),
    ("layering.optimize_discrete.failed", "layering.optimize_discrete", "failed"),
    ("capacity.capacity_vs_outage.calls", "capacity.capacity_vs_outage", "calls"),
    ("spectrum.estimate_spectrum.trials", "spectrum.estimate_spectrum", "trials"),
    ("simulate.simulate_outage_code_sweep.trials", "simulate.simulate_outage_code_sweep", "trials"),
    ("simulate.codebook_bits", "simulate.simulate_outage_code_sweep", "codebook_bits"),
    ("simulate.ml_dominance_violations", "simulate.simulate_outage_code_sweep", "ml_dominance_violations"),
    ("cli.failed", "cli.main", "failed"),
)


def trials(tracer: Tracer) -> int:
    """Monte Carlo trials completed in the traced pass; a sweep trial counts
    once per blocklength."""
    return sum(stats["trials"] for stats in tracer.stats.values())


def layer_names() -> list[str]:
    """Every target's metric prefix, once, in target order."""
    return list(dict.fromkeys(t.name for t in TARGETS))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self times and counts of one traced pass, keyed by metric name."""
    out = {f"{name}.self_ms": (tracer.stats[name]["self_s"] * 1e3, "ms") for name in layer_names()}
    for metric, name, key in COUNTS:
        unit = "bits_computed" if key == "codebook_bits" else "count"
        out[metric] = (float(tracer.stats[name][key]), unit)
    out["trace.op_ms"] = (tracer.op_s * 1e3, "ms")
    out["trace.unattributed_ms"] = ((tracer.op_s - tracer.top_s) * 1e3, "ms")
    return out
