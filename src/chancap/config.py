"""Flat key=value run configuration.

Config files are plain text: one `key = value` per line, `#` comments,
blank lines ignored.  A run records every key it reads, and a key it
was given but never read is an error: a typo, a key of another family
or subcommand, or a flag the run has no use for fails loudly instead of
being silently ignored.
"""

from __future__ import annotations

import csv
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


def _number(key: str, value: str, kind: type):
    """`value`, the value of `key`, as one `kind` (float or int)."""
    try:
        return kind(value)
    except ValueError as exc:
        noun = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key}: expected {noun}, got {value!r}") from exc


def _numbers(key: str, value: str, kind: type) -> list:
    """The nonblank comma-separated tokens of `value`, the value of `key`,
    as `kind` (float or int)."""
    try:
        return [kind(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        noun = "numbers" if kind is float else "integers"
        raise ConfigError(f"{key}: expected comma-separated {noun}, got {value!r}") from exc


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
            return ContinuousBscComposite.uniform()
        if family == "bsc":
            if "states" not in cfg or "pmf" not in cfg:
                raise ConfigError("family=bsc needs states= and pmf=")
            states = tuple(BscState(p) for p in _numbers("states", cfg["states"], float))
            return DiscreteComposite(states, np.asarray(_numbers("pmf", cfg["pmf"], float)))
        if family == "bec":
            if "erasures" not in cfg or "pmf" not in cfg:
                raise ConfigError("family=bec needs erasures= and pmf=")
            states = tuple(BecState(a) for a in _numbers("erasures", cfg["erasures"], float))
            return DiscreteComposite(states, np.asarray(_numbers("pmf", cfg["pmf"], float)))
        if family == "ge":
            missing = [k for k in ("p_good", "p_bad") if k not in cfg]
            if missing:
                raise ConfigError(f"family=ge needs {', '.join(missing)}")
            return GilbertElliott(
                p_good=_number("p_good", cfg["p_good"], float),
                p_bad=_number("p_bad", cfg["p_bad"], float),
                g=_number("g", cfg.get("g", "0"), float),
                b=_number("b", cfg.get("b", "0"), float),
                pi_good=_number("pi_good", cfg.get("pi_good", "0.5"), float),
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
                    try:
                        grid.append(float(row[0]))
                        dens.append(float(row[1]))
                    except (IndexError, ValueError):
                        raise ConfigError(f"{path} row {lineno}: expected p,f(p), got {','.join(row)!r}") from None
            return ContinuousBscComposite(np.asarray(grid), np.asarray(dens))
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad channel configuration: {exc}") from exc
    raise ConfigError(f"unknown channel family {family!r}")


class _ReadTracking(dict):
    """A dict that records every key asked for through `get` or `[]`."""

    def __init__(self, raw: dict[str, str]):
        super().__init__(raw)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class RunConfig:
    """The keys of one CLI run; `unread` lists those the run never asked for."""

    def __init__(self, subcommand: str, raw: dict[str, str]):
        self.subcommand = subcommand
        self.raw = _ReadTracking(raw)

    @property
    def seed(self) -> int:
        seed = self.scalar("seed", "0", int)
        if seed < 0:
            raise ConfigError(f"seed: expected a nonnegative integer, got {seed}")
        return seed

    @property
    def trials(self) -> int:
        return self.scalar("trials", "10000", int)

    @property
    def grid(self) -> int:
        grid = self.scalar("grid", "101", int)
        if grid < 1:
            raise ConfigError(f"grid: expected a positive integer, got {grid}")
        return grid

    @property
    def out(self) -> str | None:
        return self.raw.get("out")

    def unread(self) -> list[str]:
        return sorted(self.raw.keys() - self.raw.read)

    def scalar(self, key: str, default: str, kind: type):
        """The value of `key`, else `default`, as one `kind` (float or int)."""
        return _number(key, self.raw.get(key, default), kind)

    def floats(self, key: str, default: str) -> list[float]:
        return _numbers(key, self.raw.get(key, default), float)

    def ints(self, key: str, default: str) -> list[int]:
        return _numbers(key, self.raw.get(key, default), int)

    def canonical_string(self) -> str:
        """Sorted key=value rendering for the reproducibility comment.

        The output path is omitted: it does not affect the computation,
        so the same config produces the same bytes wherever they land.
        The seed is recorded, default included, when the run read it.
        """
        merged = {k: v for k, v in self.raw.items() if k != "out"}
        if "seed" in self.raw.read:
            merged.setdefault("seed", str(self.seed))
        return " ".join(f"{k}={merged[k]}" for k in sorted(merged))
