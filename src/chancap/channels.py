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

# Newton steps when inverting h: four already reach the rounding of h
# itself on [0, 1]; two more are margin.
_ENTROPY_NEWTON_STEPS = 6
# Smallest normal float: the floor of those iterates.
_TINY = np.finfo(float).tiny


def binary_entropy(p):
    """Binary entropy h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0.

    Accepts scalars or arrays; raises ValueError outside [0, 1].  A
    scalar is returned as a float.  Both paths take numpy's log (libm's
    can differ from it in the last bit), so a value gives the same bits
    alone or in an array.
    """
    if np.ndim(p) == 0:
        x = float(p)
        # Written as "not (in range)" so that NaN fails the check.
        if not 0.0 <= x <= 1.0:
            raise ValueError("binary_entropy: argument must lie in [0, 1]")
        y = 1.0 - x
        x_log_x = 0.0 if x == 0.0 else x * float(np.log(x))
        y_log_y = 0.0 if y == 0.0 else y * float(np.log(y))
        return -(x_log_x + y_log_y) / LN2
    arr = np.asarray(p, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError("binary_entropy: argument must lie in [0, 1]")
    return _entropy_bits(arr)


def _entropy_bits(x: np.ndarray) -> np.ndarray:
    """h(x) for a float array already known to lie in [0, 1] (NaN
    stays NaN): log is taken at 1 in place of 0, so 0 log 0 = 0."""
    y = 1.0 - x
    return -(x * np.log(np.where(x > 0.0, x, 1.0)) + y * np.log(np.where(y > 0.0, y, 1.0))) / LN2


def star(a, b):
    """Crossover probability of two cascaded BSCs: a*b = a(1-b) + (1-a)b."""
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    # Written as "not (in range)" so that NaN fails the check.
    if not (np.all((aa >= 0.0) & (aa <= 1.0)) and np.all((bb >= 0.0) & (bb <= 1.0))):
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
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
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


@dataclass(frozen=True)
class BecState:
    """One component BEC with erasure probability in [0, 1]."""

    erasure: float

    def __post_init__(self):
        if not 0.0 <= self.erasure <= 1.0:
            raise ValueError("BecState: erasure must lie in [0, 1]")


@dataclass(frozen=True)
class StateLaw:
    """The law of the realized state's capacity, as atoms in state order.

    `family` is "bsc" or "bec", `params` holds each atom's crossover or
    erasure probability (None when no state is frozen, as for an
    ergodic Gilbert-Elliott channel), `mass` the atom probabilities and
    `caps` each atom's capacity.  `worst` is the noisiest-first order,
    argsort(-params) (capacities of parameters an ulp apart can round
    out of order), or the identity without params, and `worst_mass` the
    cumulative masses in it: C_q, C_0 and the best outage rate read
    them.  The spectrum cdf, which searches the capacities, and the
    layered optimizer, which takes ascending params, keep their own
    sorts: their sums follow the order of tied atoms.  The arrays are
    read-only: a channel builds its law once and every solver shares it.
    `sample` and `split` are the one place that draws atoms: every Monte
    Carlo stage draws its states through them.
    """

    family: str
    params: np.ndarray | None
    mass: np.ndarray
    caps: np.ndarray
    worst: np.ndarray = field(init=False, repr=False, compare=False)
    worst_mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        worst = np.arange(self.mass.size) if self.params is None else np.argsort(-self.params)
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "worst_mass", np.cumsum(self.mass[worst]))
        for arr in (self.params, self.mass, self.caps, self.worst, self.worst_mass):
            if arr is not None:
                arr.setflags(write=False)

    def _frozen_params(self) -> np.ndarray:
        if self.params is None:
            raise ValueError("ergodic Gilbert-Elliott has no frozen state to draw")
        return self.params

    def sample(self, rng, size: int) -> np.ndarray:
        """The parameters of `size` states drawn i.i.d. from the law."""
        return self._frozen_params()[rng.choice(self.mass.size, size=size, p=self.mass)]

    def split(self, rng, trials: int) -> list[tuple[int, int]]:
        """One Multinomial(trials, mass) draw over the states of positive
        mass: (state index, count) of each state drawn at least once."""
        self._frozen_params()
        support = np.flatnonzero(self.mass > 0.0)
        counts = rng.multinomial(trials, self.mass[support])
        return [(s, k) for s, k in zip(support.tolist(), counts.tolist()) if k > 0]


@dataclass(frozen=True)
class DiscreteComposite:
    """Finitely many component channels with a pmf over states; `law`
    is their StateLaw, built once here."""

    states: tuple
    pmf: np.ndarray
    law: StateLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) == 0:
            raise ValueError("DiscreteComposite: state list must be nonempty")
        kinds = {type(s) for s in states}
        if len(kinds) != 1 or kinds.pop() not in (BscState, BecState):
            raise ValueError("DiscreteComposite: states must be all BscState or all BecState")
        w = np.array(self.pmf, dtype=float)
        if w.shape != (len(states),):
            raise ValueError("DiscreteComposite: pmf length must match state count")
        if not np.all(w >= 0.0):
            raise ValueError("DiscreteComposite: pmf entries must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("DiscreteComposite: pmf must sum to 1 within 1e-12")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "pmf", w)
        if type(states[0]) is BscState:
            params = np.array([s.crossover for s in states], dtype=float)
            law = StateLaw("bsc", params, w, bsc_capacity(params))
        else:
            params = np.array([s.erasure for s in states], dtype=float)
            law = StateLaw("bec", params, w, bec_capacity(params))
        object.__setattr__(self, "law", law)

    @property
    def family(self) -> str:
        return self.law.family

    @property
    def params(self) -> np.ndarray:
        """Crossover (BSC) or erasure (BEC) probabilities, state order."""
        return self.law.params


@dataclass(frozen=True)
class ContinuousBscComposite:
    """BSC with random crossover probability on [0, 1/2].

    The density lives on a grid, and the law is one polynomial per grid
    cell: f is linear between the knots, and F is its exact integral, a
    quadratic.  At the knots F takes the trapezoid cumulative, scaled to
    end at exactly 1, and f is divided by the same total, so F' = f
    holds everywhere.  In cell k, with t = p - x_k and slope
    s_k = (f_{k+1} - f_k)/h_k, F(p) = F_k + t (f_k + s_k t / 2).  f = 2
    on a grid from 0 to 1/2 is the uniform law, with `analytic_preset`
    "uniform": exact closed forms (f = 2, F(p) = 2p), free of grid
    rounding.  The composite is its own state law.
    """

    family = "bsc"

    grid: np.ndarray
    density: np.ndarray
    analytic_preset: str | None = field(init=False, default=None)
    _cum: np.ndarray = field(init=False, repr=False, default=None)
    _pdf: np.ndarray = field(init=False, repr=False, default=None)
    _cells: np.ndarray = field(init=False, repr=False, default=None)
    _top: int = field(init=False, repr=False, default=None)

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
        # So that F ends at exactly 1 and no u in [0, 1] searches past the grid.
        object.__setattr__(self, "_cum", cum / cum[-1])
        object.__setattr__(self, "_top", min(int(np.nonzero(f > 0.0)[0][-1]) + 1, g.size - 1))
        pdf = f / cum[-1]
        object.__setattr__(self, "_pdf", pdf)
        # Row j is the cell that ends at knot j: its left knot, F and f
        # there, and half its slope.  Row 0 lies below the grid and row
        # g.size above it, both with f = 0, so F is 0 and 1 there.
        cells = np.zeros((g.size + 1, 4))
        cells[0, 0], cells[1:, 0], cells[1:, 1] = g[0], g, self._cum
        cells[1:-1, 2], cells[1:-1, 3] = pdf[:-1], 0.5 * (np.diff(pdf) / np.diff(g))
        object.__setattr__(self, "_cells", cells)
        if g[0] == 0.0 and g[-1] == 0.5 and np.all(f == 2.0):
            object.__setattr__(self, "analytic_preset", "uniform")

    @classmethod
    def uniform(cls) -> "ContinuousBscComposite":
        """Uniform crossover density: f = 2 on the one cell [0, 1/2]; f = 2
        on finer knots is the same law and gives the same numbers."""
        return cls(np.array([0.0, 0.5]), np.array([2.0, 2.0]))

    def pdf(self, p):
        if self.analytic_preset == "uniform":
            p_arr = np.asarray(p, dtype=float)
            out = np.where((p_arr >= 0.0) & (p_arr <= 0.5), 2.0, 0.0)
            return float(out) if np.isscalar(p) else out
        out = np.interp(p, self.grid, self._pdf, left=0.0, right=0.0)
        return float(out) if np.isscalar(p) else out

    def cdf(self, p):
        """F(p): at a knot its trapezoid value, inside a cell the exact
        integral of the linear f from the cell's left knot."""
        p_arr = np.asarray(p, dtype=float)
        if self.analytic_preset == "uniform":
            out = np.clip(2.0 * p_arr, 0.0, 1.0)
        else:
            # A knot starts its own cell (t = 0), the top knot included.
            x, big_f, f, half_slope = self._cells[np.searchsorted(self.grid, p_arr, side="right")].T
            t = p_arr - x
            out = big_f + t * (f + half_slope * t)
        return float(out) if np.isscalar(p) else out

    def inverse_cdf(self, u):
        """Smallest p with F(p) >= u (plateaus resolve to their left edge).

        A u equal to a knot's F returns that knot exactly.  Inside cell k
        the quadratic F_k + t (f_k + s_k t / 2) = u is solved in the form
        t = 2 du / (f_k + sqrt(f_k^2 + 2 s_k du)), du = u - F_k, which
        does not cancel when s_k < 0.
        """
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if not ((u_arr >= 0.0) & (u_arr <= 1.0)).all():
            raise ValueError("inverse_cdf: u must lie in [0, 1]")
        if self.analytic_preset == "uniform":
            out = u_arr / 2.0
        else:
            idx = np.searchsorted(self._cum, u_arr, side="left")
            # u = 1 is the support edge, though F rounds to 1 below it on sub-ulp tails.
            idx[u_arr == 1.0] = self._top
            x, big_f, f, half_slope = self._cells[idx].T
            du = u_arr - big_f
            denom = f + np.sqrt(np.maximum(f * f + 4.0 * half_slope * du, 0.0))
            t = 2.0 * du / np.where(denom > 0.0, denom, 1.0)
            g = self.grid[idx]
            out = np.where(self._cum[idx] == u_arr, g, np.minimum(x + t, g))
        return float(out[0]) if np.isscalar(u) else out

    def support_sup(self) -> float:
        """Supremum of {p : pdf(p) > 0}, one knot past the last f > 0: inverse_cdf(1)."""
        return float(self.grid[self._top])

    def sample(self, rng, size: int) -> np.ndarray:
        return self.inverse_cdf(rng.random(size))


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov channel; each state is a BSC.

    `b` is the good-to-bad transition probability and `g` the
    bad-to-good one, so the stationary distribution is
    (g/(g+b), b/(g+b)).  With g = b = 0 the state is frozen at its
    initial draw (pi_good, pi_bad) and the channel is a nonergodic
    two-state composite; with g + b > 0 it is ergodic.  `law` is the
    StateLaw of either case, built once here.
    """

    p_good: float
    p_bad: float
    g: float
    b: float
    pi_good: float
    law: StateLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.p_good < self.p_bad <= 0.5:
            raise ValueError("GilbertElliott: need 0 <= p_good < p_bad <= 1/2")
        for name in ("g", "b", "pi_good"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"GilbertElliott: {name} must lie in [0, 1]")
        if self.is_ergodic:
            # The state keeps moving, so every block sees the stationary
            # mixture: one atom at the average capacity, no frozen state.
            pi_g, pi_b = self.stationary()
            cap = pi_g * bsc_capacity(self.p_good) + pi_b * bsc_capacity(self.p_bad)
            law = StateLaw("bsc", None, np.array([1.0]), np.array([cap]))
        else:
            law = self.as_composite().law
        object.__setattr__(self, "law", law)

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

    def as_composite(self) -> DiscreteComposite:
        """The frozen-state two-BSC composite (nonergodic semantics)."""
        return DiscreteComposite(
            (BscState(self.p_good), BscState(self.p_bad)),
            np.array([self.pi_good, self.pi_bad]),
        )


def state_law(channel):
    """The channel's state law: a StateLaw of atoms, or the continuous
    composite itself (its `family` is "bsc")."""
    if isinstance(channel, (StateLaw, ContinuousBscComposite)):
        return channel
    if isinstance(channel, (DiscreteComposite, GilbertElliott)):
        return channel.law
    raise ValueError(f"unsupported composite type {type(channel).__name__}")


def sample_state(composite, seed):
    """Draw the channel state S, once per block, from the composite's
    state distribution: the paper's composite channel picks S at time
    zero and holds it for the whole block, and the receiver learns it."""
    law = state_law(composite)
    param = float(law.sample(np.random.default_rng(seed), 1)[0])
    return (BscState if law.family == "bsc" else BecState)(param)


def _entropy_inverse(t: np.ndarray) -> np.ndarray:
    """The p in [0, 1/2] with h(p) = t, for every t of an array in [0, 1].

    Newton's method from p0 = (1 - sqrt(1 - t^(4/3)))/2, the inverse of
    h(p) ~ (4p(1-p))^(3/4), written as a / (2 (1 + sqrt(1 - a))) with
    a = t^(4/3) so that small t does not cancel.  h is concave, so from
    the first step on the iterates approach the root from below.  They
    stay in [tiny, 1/2], where (1 - p)/p is finite.  t = 0 gives 0, and
    t = 1 starts at its double root 1/2, where h' = 0: there the step
    divides by 1 instead, which leaves p = 1/2 at t = 1.
    The result is a root of the computed h, so near t = 1, where
    dp/dt = 1/h'(p) is large, it is fixed only to about 1e-16 / h'(p).
    """
    a = t ** (4.0 / 3.0)
    p = np.maximum(a / (2.0 * (1.0 + np.sqrt(1.0 - a))), _TINY)
    for _ in range(_ENTROPY_NEWTON_STEPS):
        slope = np.log((1.0 - p) / p) / LN2
        step = (_entropy_bits(p) - t) / np.where(slope > 0.0, slope, 1.0)
        p = np.clip(p - step, _TINY, 0.5)
    return np.where(t > 0.0, p, 0.0)


def transmit(state, x_block, seed):
    """Send a binary block through the component channel of a realized
    state: one block's use of the composite channel once S is drawn.

    BSC flips each bit independently with probability p; BEC maps each
    bit to ERASURE independently with probability alpha.
    """
    x = np.asarray(x_block)
    if x.size == 0:
        raise ValueError("transmit: empty block")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("transmit: input block must be binary")
    rng = np.random.default_rng(seed)
    if isinstance(state, BscState):
        flips = rng.random(x.shape) < state.crossover
        return np.where(flips, 1 - x, x).astype(np.int8)
    if isinstance(state, BecState):
        erased = rng.random(x.shape) < state.erasure
        return np.where(erased, ERASURE, x).astype(np.int8)
    raise ValueError("transmit: unsupported state type")
