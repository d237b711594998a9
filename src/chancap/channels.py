"""Channel families, state distributions, and entropy utilities.

A composite channel is a collection of component channels indexed by a
state variable S that is drawn once (at time zero) and then held fixed.
The receiver knows the realized state, the transmitter does not.  All
rates are in bits per channel use; logarithms are base 2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

# Erasure symbol for BEC outputs (binary symbols are 0/1).
ERASURE = 2

# Clamp for log arguments where a formula has a removable 0*log(0) or a
# derivative singularity at {0, 1}.
EPS = 1e-12


def _rng(seed):
    """Accept an int seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def binary_entropy(p):
    """Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0.

    Accepts scalars or arrays; raises ValueError outside [0, 1].  A
    scalar is computed with math.log and returned as a float.
    """
    if np.ndim(p) == 0:
        x = float(p)
        if x < 0.0 or x > 1.0:
            raise ValueError("binary_entropy: argument must lie in [0, 1]")
        y = 1.0 - x
        x_log_x = 0.0 if x == 0.0 else x * math.log(x)
        y_log_y = 0.0 if y == 0.0 else y * math.log(y)
        return -(x_log_x + y_log_y) / LN2
    arr = np.asarray(p, dtype=float)
    if (arr < 0.0).any() or (arr > 1.0).any():
        raise ValueError("binary_entropy: argument must lie in [0, 1]")
    return _entropy_bits(arr)


def _entropy_bits(x: np.ndarray) -> np.ndarray:
    """h(x) for a float array already known to lie in [0, 1] (NaN
    stays NaN): log is taken at 1 in place of 0, so 0 log 0 = 0."""
    y = 1.0 - x
    return -(x * np.log(np.where(x > 0.0, x, 1.0)) + y * np.log(np.where(y > 0.0, y, 1.0))) / LN2


def binary_entropy_prime(x):
    """h'(x) = log2((1-x)/x), clamped near the endpoint singularities."""
    arr = np.clip(np.asarray(x, dtype=float), EPS, 1.0 - EPS)
    d = np.log2((1.0 - arr) / arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(d)
    return d


def star(a, b):
    """Crossover probability of two cascaded BSCs: a*b = a(1-b) + (1-a)b."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    if np.any(aa < 0.0) or np.any(aa > 1.0) or np.any(bb < 0.0) or np.any(bb > 1.0):
        raise ValueError("star: arguments must lie in [0, 1]")
    out = aa + bb - 2.0 * aa * bb
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def bsc_capacity(p):
    """Capacity 1 - h(p) of a binary symmetric channel."""
    h = binary_entropy(p)
    return 1.0 - h


def bec_capacity(alpha):
    """Capacity 1 - alpha of a binary erasure channel."""
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("bec_capacity: erasure probability must lie in [0, 1]")
    out = 1.0 - arr
    if np.isscalar(alpha) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class BscState:
    """One component BSC with crossover probability in [0, 1/2]."""

    crossover: float

    def __post_init__(self):
        if not 0.0 <= self.crossover <= 0.5:
            raise ValueError("BscState: crossover must lie in [0, 1/2]")

    def capacity(self) -> float:
        return bsc_capacity(self.crossover)


@dataclass(frozen=True)
class BecState:
    """One component BEC with erasure probability in [0, 1]."""

    erasure: float

    def __post_init__(self):
        if not 0.0 <= self.erasure <= 1.0:
            raise ValueError("BecState: erasure must lie in [0, 1]")

    def capacity(self) -> float:
        return bec_capacity(self.erasure)


def degraded_order(a, b) -> int:
    """Compare two same-family states by noisiness.

    Returns -1 if `a` is less noisy (a degraded version of `a` yields `b`),
    +1 if `b` is less noisy, 0 if equivalent.  BSCs order by crossover,
    BECs by erasure probability.  Mixed families are not comparable here.
    """
    if isinstance(a, BscState) and isinstance(b, BscState):
        pa, pb = a.crossover, b.crossover
    elif isinstance(a, BecState) and isinstance(b, BecState):
        pa, pb = a.erasure, b.erasure
    else:
        raise ValueError("degraded_order: unsupported for mixed channel families")
    if pa < pb:
        return -1
    if pa > pb:
        return 1
    return 0


@dataclass(frozen=True)
class DiscreteComposite:
    """Finitely many component channels with a pmf over states."""

    states: tuple
    pmf: np.ndarray

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) == 0:
            raise ValueError("DiscreteComposite: state list must be nonempty")
        kinds = {type(s) for s in states}
        if len(kinds) != 1 or kinds.pop() not in (BscState, BecState):
            raise ValueError("DiscreteComposite: states must be all BscState or all BecState")
        w = np.asarray(self.pmf, dtype=float)
        if w.shape != (len(states),):
            raise ValueError("DiscreteComposite: pmf length must match state count")
        if not np.all(w >= 0.0):
            raise ValueError("DiscreteComposite: pmf entries must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("DiscreteComposite: pmf must sum to 1 within 1e-12")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "pmf", w)

    @property
    def family(self) -> str:
        return "bsc" if isinstance(self.states[0], BscState) else "bec"

    @property
    def params(self) -> np.ndarray:
        """Crossover (BSC) or erasure (BEC) probabilities, state order."""
        if self.family == "bsc":
            return np.array([s.crossover for s in self.states])
        return np.array([s.erasure for s in self.states])

    def support_params(self) -> np.ndarray:
        """Parameters of states carrying positive probability."""
        return self.params[self.pmf > 0.0]


@dataclass(frozen=True)
class ContinuousBscComposite:
    """BSC with random crossover probability on [0, 1/2].

    The density f(p) lives on a uniform grid; F(p) is its trapezoid
    cumulative.  The `uniform` preset keeps exact closed forms
    (f = 2, F(p) = 2p) so analytic comparisons are not polluted by
    quadrature error.
    """

    grid: np.ndarray
    density: np.ndarray
    analytic_preset: str | None = None
    _cum: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        f = np.asarray(self.density, dtype=float)
        if g.ndim != 1 or g.size < 2 or f.shape != g.shape:
            raise ValueError("ContinuousBscComposite: grid and density must be matching 1-D arrays")
        if not (g[0] >= 0.0 and g[-1] <= 0.5 and np.all(np.diff(g) > 0.0)):
            raise ValueError("ContinuousBscComposite: grid must increase strictly within [0, 1/2]")
        if not np.all((f >= 0.0) & (f < np.inf)):
            raise ValueError("ContinuousBscComposite: density must be finite and nonnegative")
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(g))])
        if abs(cum[-1] - 1.0) > 1e-9:
            raise ValueError("ContinuousBscComposite: density must integrate to 1 within 1e-9")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", f)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def uniform(cls, num: int = 2049) -> "ContinuousBscComposite":
        """Uniform crossover density f = 2 on [0, 1/2]."""
        g = np.linspace(0.0, 0.5, num)
        return cls(g, np.full(num, 2.0), analytic_preset="uniform")

    def pdf(self, p):
        if self.analytic_preset == "uniform":
            p_arr = np.asarray(p, dtype=float)
            out = np.where((p_arr >= 0.0) & (p_arr <= 0.5), 2.0, 0.0)
            return float(out) if np.isscalar(p) else out
        out = np.interp(p, self.grid, self.density, left=0.0, right=0.0)
        return float(out) if np.isscalar(p) else out

    def cdf(self, p):
        if self.analytic_preset == "uniform":
            out = np.clip(2.0 * np.asarray(p, dtype=float), 0.0, 1.0)
            return float(out) if np.isscalar(p) else out
        out = np.interp(p, self.grid, self._cum, left=0.0, right=1.0)
        return float(out) if np.isscalar(p) else out

    def inverse_cdf(self, u):
        """Smallest p with F(p) >= u (plateaus resolve to their left edge)."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
            raise ValueError("inverse_cdf: u must lie in [0, 1]")
        if self.analytic_preset == "uniform":
            out = u_arr / 2.0
        else:
            idx = np.searchsorted(self._cum, u_arr, side="left")
            idx = np.clip(idx, 1, self._cum.size - 1)
            lo, hi = self._cum[idx - 1], self._cum[idx]
            frac = np.where(hi > lo, (u_arr - lo) / np.where(hi > lo, hi - lo, 1.0), 0.0)
            out = self.grid[idx - 1] + frac * (self.grid[idx] - self.grid[idx - 1])
            out = np.where(u_arr <= self._cum[0], self.grid[0], out)
        return float(out[0]) if np.isscalar(u) else out

    def support_sup(self) -> float:
        """Supremum of {p : f(p) > 0}."""
        pos = np.nonzero(self.density > 0.0)[0]
        if pos.size == 0:
            raise ValueError("ContinuousBscComposite: density is identically zero")
        return float(self.grid[pos[-1]])

    def sample(self, rng, size: int) -> np.ndarray:
        return self.inverse_cdf(rng.random(size))


@dataclass(frozen=True)
class PointMassDensity:
    """Degenerate crossover distribution concentrated at a single p0.

    Useful as the collapsed limit of continuous layering; the broadcast
    solver short-circuits it to the single-state answers.
    """

    p0: float

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 0.5:
            raise ValueError("PointMassDensity: p0 must lie in [0, 1/2]")

    def cdf(self, p):
        p_arr = np.asarray(p, dtype=float)
        out = np.where(p_arr >= self.p0, 1.0, 0.0)
        return float(out) if np.isscalar(p) else out

    def support_sup(self) -> float:
        return self.p0


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov channel; each state is a BSC.

    `b` is the good-to-bad transition probability and `g` the
    bad-to-good one, so the stationary distribution is
    (g/(g+b), b/(g+b)).  With g = b = 0 the state is frozen at its
    initial draw (pi_good, pi_bad) and the channel is a nonergodic
    two-state composite; with g + b > 0 it is ergodic.
    """

    p_good: float
    p_bad: float
    g: float
    b: float
    pi_good: float

    def __post_init__(self):
        if not 0.0 <= self.p_good < self.p_bad <= 0.5:
            raise ValueError("GilbertElliott: need 0 <= p_good < p_bad <= 1/2")
        for name in ("g", "b", "pi_good"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"GilbertElliott: {name} must lie in [0, 1]")

    @property
    def pi_bad(self) -> float:
        return 1.0 - self.pi_good

    @property
    def is_ergodic(self) -> bool:
        return self.g + self.b > 0.0

    def stationary(self) -> tuple[float, float]:
        if not self.is_ergodic:
            return (self.pi_good, self.pi_bad)
        s = self.g + self.b
        return (self.g / s, self.b / s)

    def step(self, pi: tuple[float, float]) -> tuple[float, float]:
        """One step of the state Markov chain applied to (pi_good, pi_bad)."""
        pg, pb = pi
        return (pg * (1.0 - self.b) + pb * self.g,
                pg * self.b + pb * (1.0 - self.g))

    def as_composite(self) -> DiscreteComposite:
        """The frozen-state two-BSC composite (nonergodic semantics)."""
        return DiscreteComposite(
            (BscState(self.p_good), BscState(self.p_bad)),
            np.array([self.pi_good, self.pi_bad]),
        )


def sample_state(composite, seed):
    """Draw one channel state from the composite's state distribution."""
    rng = _rng(seed)
    if isinstance(composite, DiscreteComposite):
        idx = rng.choice(len(composite.states), p=composite.pmf)
        return composite.states[int(idx)]
    if isinstance(composite, ContinuousBscComposite):
        return BscState(float(composite.sample(rng, 1)[0]))
    if isinstance(composite, GilbertElliott):
        return sample_state(composite.as_composite(), rng)
    raise ValueError("sample_state: unsupported composite type")


def sample_state_indices(composite: DiscreteComposite, rng, size: int) -> np.ndarray:
    """Vectorized state-index draws for a discrete composite."""
    return rng.choice(len(composite.states), size=size, p=composite.pmf)


def transmit(state, x_block, seed):
    """Send a binary block through one realized component channel.

    BSC flips each bit independently with probability p; BEC maps each
    bit to ERASURE independently with probability alpha.
    """
    x = np.asarray(x_block)
    if x.size == 0:
        raise ValueError("transmit: empty block")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("transmit: input block must be binary")
    rng = _rng(seed)
    if isinstance(state, BscState):
        flips = rng.random(x.shape) < state.crossover
        return np.where(flips, 1 - x, x).astype(np.int8)
    if isinstance(state, BecState):
        erased = rng.random(x.shape) < state.erasure
        return np.where(erased, ERASURE, x).astype(np.int8)
    raise ValueError("transmit: unsupported state type")
