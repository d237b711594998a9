"""Flat key=value run configuration.

Config files are plain text: one `key = value` per line, `#` comments,
blank lines ignored.  Every subcommand validates its keys against an
explicit schema; unknown keys are rejected rather than silently
ignored, so typos fail loudly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import (
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
)


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; duplicates are errors."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def _floats(value: str) -> list[float]:
    try:
        return [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {value!r}") from exc


def _ints(value: str) -> list[int]:
    out = []
    for tok in value.split(","):
        tok = tok.strip()
        if tok == "":
            continue
        try:
            out.append(int(tok))
        except ValueError as exc:
            raise ConfigError(f"expected comma-separated integers, got {value!r}") from exc
    return out


# Keys that describe the channel itself; every subcommand accepts them.
CHANNEL_KEYS = {
    "family", "states", "pmf", "erasures",
    "p_good", "p_bad", "g", "b", "pi_good",
    "density_file", "density_grid",
}


def build_channel(cfg: dict[str, str], base_dir: Path | None = None):
    """Construct a composite channel from config keys.

    family = uniform      -> uniform crossover density on [0, 1/2]
    family = bsc          -> states=p1,p2,... pmf=w1,w2,...
    family = bec          -> erasures=a1,a2,... pmf=w1,w2,...
    family = ge           -> p_good, p_bad, g, b, pi_good
    family = density      -> density_file=<csv of p,f(p) rows>
    """
    family = cfg.get("family", "uniform").lower()
    try:
        if family == "uniform":
            num = int(cfg.get("density_grid", "2049"))
            return ContinuousBscComposite.uniform(num)
        if family == "bsc":
            if "states" not in cfg or "pmf" not in cfg:
                raise ConfigError("family=bsc needs states= and pmf=")
            states = tuple(BscState(p) for p in _floats(cfg["states"]))
            return DiscreteComposite(states, np.asarray(_floats(cfg["pmf"])))
        if family == "bec":
            if "erasures" not in cfg or "pmf" not in cfg:
                raise ConfigError("family=bec needs erasures= and pmf=")
            states = tuple(BecState(a) for a in _floats(cfg["erasures"]))
            return DiscreteComposite(states, np.asarray(_floats(cfg["pmf"])))
        if family == "ge":
            missing = [k for k in ("p_good", "p_bad") if k not in cfg]
            if missing:
                raise ConfigError(f"family=ge needs {', '.join(missing)}")
            return GilbertElliott(
                p_good=float(cfg["p_good"]),
                p_bad=float(cfg["p_bad"]),
                g=float(cfg.get("g", "0")),
                b=float(cfg.get("b", "0")),
                pi_good=float(cfg.get("pi_good", "0.5")),
            )
        if family == "density":
            if "density_file" not in cfg:
                raise ConfigError("family=density needs density_file=")
            path = Path(cfg["density_file"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            grid, dens = [], []
            with open(path, newline="") as fh:
                for lineno, row in enumerate(csv.reader(fh), start=1):
                    if not row or row[0].lstrip().startswith("#"):
                        continue
                    if len(row) < 2:
                        raise ConfigError(f"{path} row {lineno}: expected p,f(p), got {','.join(row)!r}")
                    grid.append(float(row[0]))
                    dens.append(float(row[1]))
            return ContinuousBscComposite(np.asarray(grid), np.asarray(dens))
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad channel configuration: {exc}") from exc
    raise ConfigError(f"unknown channel family {family!r}")


@dataclass
class RunConfig:
    """Validated knobs for one CLI run."""

    subcommand: str
    raw: dict[str, str] = field(default_factory=dict)
    seed: int = 0
    trials: int = 10000
    grid: int = 101
    out: str | None = None

    # Per-subcommand keys beyond the channel block.
    EXTRA_KEYS = {
        "capacity": {"q_min", "q_max"},
        "spectrum": {"n", "alpha_grid"},
        "broadcast": {"mode", "gammas", "profile_grid"},
        "simulate": {"ns", "rate", "q", "epsilon"},
        "mapdemo": {"n", "num_states"},
    }
    COMMON_KEYS = {"seed", "trials", "grid", "out"}

    def __post_init__(self):
        if self.subcommand not in self.EXTRA_KEYS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        allowed = CHANNEL_KEYS | self.COMMON_KEYS | self.EXTRA_KEYS[self.subcommand]
        if self.subcommand == "mapdemo":
            # Subset rates arrive as r_<digits> keys, e.g. r_01=0.3.
            unknown = {
                k for k in self.raw
                if k not in allowed and not (k.startswith("r_") and k[2:].isdigit())
            }
        else:
            unknown = set(self.raw) - allowed
        if unknown:
            raise ConfigError(
                f"unknown keys for {self.subcommand}: {', '.join(sorted(unknown))}"
            )
        if "seed" in self.raw:
            self.seed = int(self.raw["seed"])
        if "trials" in self.raw:
            self.trials = int(self.raw["trials"])
        if "grid" in self.raw:
            self.grid = int(self.raw["grid"])
        if "out" in self.raw:
            self.out = self.raw["out"]

    def floats(self, key: str, default: str) -> list[float]:
        return _floats(self.raw.get(key, default))

    def ints(self, key: str, default: str) -> list[int]:
        return _ints(self.raw.get(key, default))

    def canonical_string(self) -> str:
        """Sorted key=value rendering for the reproducibility comment.

        The output path is omitted: it does not affect the computation,
        so the same config produces the same bytes wherever they land.
        """
        merged = dict(self.raw)
        merged.setdefault("seed", str(self.seed))
        merged.pop("out", None)
        return " ".join(f"{k}={merged[k]}" for k in sorted(merged))
