"""Expected capacity via degraded broadcast layering.

Each channel state is treated as a virtual receiver of a degraded
broadcast channel.  For BSC states the Bergmans cascade parameterizes
the region: auxiliary crossovers 0 = r_0 <= r_1 <= ... <= r_N = 1/2,
layer i carrying rate h(r_i * p_i) - h(r_{i-1} * p_i), and state i
decoding all layers j >= i.  The continuous-state limit replaces the
cascade by a monotone profile r(p) whose optimality condition is an
Euler equation with two cutoffs p_l (r = 0 below) and p_u (r = 1/2
above): states better than p_l decode everything, states worse than
p_u get nothing.  Where the pointwise solution falls, the profile is
pooled flat by the same rule as the discrete cascade.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import best_outage_rate, mean_state_capacity
from .channels import (
    EPS,
    ContinuousBscComposite,
    _entropy_bits,
    binary_entropy,
    star,
    state_law,
)

# Switch to the removable-singularity limit of the Euler LHS this close
# to x = 1/2.
_LHS_LIMIT_BAND = 1e-6

# sinh(y)/y - 1 = t P(t) with t = y**2 and P(t) = sum_k t**(k-1)/(2k+1)!
# for k = 1..8, highest power first; for t <= 1 the first omitted term
# is below 1e-17.  _SINHC_SLOPE is the same series for d/dt of t P(t).
_SINHC_SERIES = np.array([1.0 / math.factorial(2 * k + 1) for k in range(8, 0, -1)])
_SINHC_SLOPE = _SINHC_SERIES * np.arange(8, 0, -1)

# The Newton solves stop once no step moved its iterate by more than
# this fraction: convergence is quadratic, so the error left is below
# rounding.  Over s in [1, 1e300] they stop within 4 steps; the cap
# only bounds the loop.
_NEWTON_RTOL = 1e-8
_NEWTON_MAX_STEPS = 8

# Grid points of a layer profile, solved or parametric.
_PROFILE_POINTS = 4097

# Slack of the discrete optimizer's first-order certificate, in nats.
_KKT_TOL = 1e-9

# States of the right-edge ladder that certifies a continuous C^e from
# below: an achievable code, at about 0.4 ms a solve.
_CERTIFY_STATES = 64

# The discrete optimizer treats r below the smallest normal float as 0.
# With p = 0 the gradient at r = 0 is infinite, so a two-state root can
# underflow; the solver stops here instead, which changes the rate by
# less than 1e-303.
_R_MIN = float(np.finfo(float).tiny)


class SolverError(RuntimeError):
    """A solver's answer failed its own certificate."""


@dataclass(frozen=True)
class LayerProfile:
    """Monotone overall auxiliary crossover r(p) on a grid; a one-point
    grid at p_u with r = 0 is the one-layer code of a band of width zero."""

    grid: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if g.ndim != 1 or g.size < 1 or r.shape != g.shape:
            raise ValueError("LayerProfile: grid and r must be matching 1-D arrays")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("LayerProfile: grid must be strictly increasing")
        if g[0] < 0.0 or g[-1] > 0.5:
            raise ValueError("LayerProfile: grid must lie in [0, 1/2]")
        if np.any(r < -1e-12) or np.any(r > 0.5 + 1e-12):
            raise ValueError("LayerProfile: r must lie in [0, 1/2]")
        if np.any(np.diff(r) < -1e-12):
            raise ValueError("LayerProfile: r must be nondecreasing")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "r", np.clip(r, 0.0, 0.5))


@dataclass(frozen=True)
class RateProfile:
    """Cumulative decodable rate R(p): what a state-p receiver gets."""

    grid: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        rr = np.asarray(self.rates, dtype=float)
        if g.shape != rr.shape:
            raise ValueError("RateProfile: grid and rates must match")
        if np.any(np.diff(rr) > 1e-9):
            raise ValueError("RateProfile: rates must be nonincreasing in p")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "rates", rr)

    def rate_at(self, p):
        """R(p); the plateau value below the grid, 0 above it."""
        return np.interp(p, self.grid, self.rates, left=float(self.rates[0]), right=0.0)


@dataclass(frozen=True)
class CutoffPair:
    p_l: float
    p_u: float

    def __post_init__(self):
        if not 0.0 <= self.p_l <= self.p_u <= 0.5:
            raise ValueError("CutoffPair: need 0 <= p_l <= p_u <= 1/2")


# The band of the full-range parametric family.
FULL_RANGE = CutoffPair(0.0, 0.5)


def ge_expected_capacity(p_good: float, p_bad: float, pi_good: float) -> tuple[float, float]:
    """Expected capacity of the two-state (frozen) BSC composite.

    The N = 2 call of optimize_discrete, which maximizes
    J(r) = 1 - h(r * p_bad) + pi_good [h(r * p_good) - h(p_good)] over
    the single auxiliary crossover r.  With L(x) = ln(1/x - 1) and
    A = (1-2 p_bad)/(1-2 p_good), J is unimodal and

        r* = 0    if pi_good L(p_good) <= A L(p_bad)   (J'(0) <= 0)
        r* = 1/2  if pi_good >= A^2                    (J'(1/2) >= 0)
        else the unique interior stationary point.

    This is the rule every pooled run of layers reduces to by
    telescoping; with a single layer nothing is pooled.

    Returns (expected capacity, r*).
    """
    if not 0.0 <= p_good < p_bad <= 0.5:
        raise ValueError("ge_expected_capacity: need 0 <= p_good < p_bad <= 1/2")
    if not 0.0 <= pi_good <= 1.0:
        raise ValueError("ge_expected_capacity: pi_good must lie in [0, 1]")
    chain, ce = optimize_discrete([pi_good, 1.0 - pi_good], [p_good, p_bad])
    return ce, float(chain[1])


def _layer_rates(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-layer rates of the Bergmans cascade for a valid chain: layer i
    (1-based) carries R_i = h(r_i * p_i) - h(r_{i-1} * p_i), with r * p
    spelled out as star computes it."""
    upper, lower = r[1:], r[:-1]
    return _entropy_bits(upper + p - 2.0 * upper * p) - _entropy_bits(lower + p - 2.0 * lower * p)


def _ladder(weights, p_states, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """The weights and states of a ladder as arrays: N states sorted in
    [0, 1/2] and a pmf over them, or ValueError with the caller's name."""
    w = np.asarray(weights, dtype=float)
    p = np.asarray(p_states, dtype=float)
    # Written as "not (in range)" so that NaN and inf fail every check.
    if not (p.ndim == 1 and p.size >= 1 and ((p >= 0.0) & (p <= 0.5)).all() and (p[1:] >= p[:-1]).all()):
        raise ValueError(f"{caller}: states must be sorted in [0, 1/2] and finite")
    if not (w.shape == p.shape and (w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError(f"{caller}: weights must be a pmf over the states with finite entries")
    return w, p


def discrete_expected_rate(weights, p_states, r) -> float:
    """Expected rate sum_i w_i R(p_i) with R(p_i) = sum_{j >= i} R_j.

    This is the expected rate of one layered (broadcast) code for the
    composite BSC: the state-i decoder recovers layers i..N of the
    Bergmans cascade (_layer_rates), so the quantity the paper's
    expected capacity maximizes over codes, here for a given r chain;
    optimize_discrete maximizes it over chains.

    Takes the N crossovers sorted ascending, a chain 0 = r_0 <= ... <=
    r_N = 1/2 and a pmf; anything else raises ValueError.  Rearranged as
    sum_j W_j R_j with W_j the cdf of the weights, which is the form the
    optimizer differentiates.
    """
    w, p = _ladder(weights, p_states, "discrete_expected_rate")
    rr = np.asarray(r, dtype=float)
    if rr.shape != (p.size + 1,):
        raise ValueError("discrete_expected_rate: r must have length N+1 (including both endpoints)")
    if not (abs(rr[0]) <= 1e-12 and abs(rr[-1] - 0.5) <= 1e-12):
        raise ValueError("discrete_expected_rate: r must start at 0 and end at 1/2")
    if not np.all(np.diff(rr) >= -1e-12):
        raise ValueError("discrete_expected_rate: r must be nondecreasing and finite")
    return float(np.dot(np.cumsum(w), _layer_rates(p, rr)))


def _log_odds(r, p):
    """ln((1 - x)/x) at x = r * p, written as log1p((1-2r)(1-2p)/x) so
    that it keeps full relative precision as x approaches 1/2."""
    return np.log1p((1.0 - 2.0 * r) * (1.0 - 2.0 * p) / (r + p - 2.0 * r * p))


def _two_product(x: float, y: float) -> tuple[float, float]:
    """x * y as hi + lo with hi the rounded product, exact unless a part
    underflows: Dekker's product on halves split off by 2^27 + 1 (no
    math.fma before Python 3.13)."""
    hi, c, d = x * y, 134217729.0 * x, 134217729.0 * y
    x_hi, y_hi = c - (c - x), d - (d - y)
    return hi, ((x_hi * y_hi - hi) + x_hi * (y - y_hi) + (x - x_hi) * y_hi) + (x - x_hi) * (y - y_hi)


def _two_state_argmax(a: float, p: float, b: float, q: float) -> float:
    """Maximizer over r in [0, 1/2] of a h(r * p) - b h(r * q), 0 <= a <= b, p <= q.

    The derivative is a positive multiple of
    s(r) = a (1-2p) L(r * p) - b (1-2q) L(r * q), L(x) = ln(1/x - 1),
    whose sign is that of f(r) - c with f(r) = L(r * p)/L(r * q)
    decreasing from L(p)/L(q) to (1-2p)/(1-2q) and
    c = b (1-2q)/(a (1-2p)).  So the objective is unimodal and

        r* = 0    if s(0) <= 0   (s is taken at _R_MIN in place of 0)
        r* = 1/2  if a (1-2p)^2 >= b (1-2q)^2   (the limit of f at 1/2)
        else the unique sign change of s in (0, 1/2).

    The sign change is found by safeguarded Newton on s in Python
    floats.  [lo, hi] always brackets it (s(lo) > 0 >= s(hi)), with
    s'(r) = -a (1-2p)^2 / (x_p (1-x_p)) + b (1-2q)^2 / (x_q (1-x_q)),
    x_p = r * p.  A Newton step that leaves the bracket is replaced by
    a bisection step.  While hi > 4 lo, the bisection halves log r, and
    a Newton step in log r is tried too (first when s(r) > 0): with
    p = 0 and a small a the root can lie far below 1 (3.9e-121 at
    a = 0.003, b = 1, q = 0.2), where s is nearly linear in log r and
    halving r from 1/2 would take hundreds of steps to reach its scale.
    The solve stops when a Newton step no longer moves r, or when lo and
    hi are adjacent floats.
    """
    up, uq = 1.0 - 2.0 * p, 1.0 - 2.0 * q
    ap, bq = a * up, b * uq
    # The tie coefficient a (1-2p) - b (1-2q) = (a - b) + 2 b q - 2 a p,
    # rounded once from the exact sum of its parts: near a tie the two
    # rounded products would leave only their rounding errors.
    tie = math.fsum((a, -b, *_two_product(2.0 * b, q), *_two_product(-2.0 * a, p)))

    # s = tie L(x_p) + bq (L(x_p) - L(x_q)), the second term as one
    # log1p: near a tie ap = bq the two terms of s cancel, and
    # differencing them at full size would lose the root.
    def s(r: float) -> float:
        t = 1.0 - 2.0 * r
        x_p, x_q = r + p - 2.0 * r * p, r + q - 2.0 * r * q
        return (tie * math.log1p(t * up / x_p)
                + bq * math.log1p((q - p) * t / (x_p * (1.0 - x_q))))

    if s(_R_MIN) <= 0.0:
        return 0.0
    if a * (up * up) >= b * (uq * uq):
        return 0.5
    lo, hi, r = _R_MIN, 0.5, 0.25
    while True:
        val = s(r)
        if val > 0.0:
            lo = r
        else:
            hi = r
        wide = hi > 4.0 * lo
        mid = math.sqrt(lo) * math.sqrt(hi) if wide else 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return r
        x_p, x_q = r + p - 2.0 * r * p, r + q - 2.0 * r * q
        slope = bq * uq / (x_q * (1.0 - x_q)) - ap * up / (x_p * (1.0 - x_p))
        step = r - val / slope if slope != 0.0 else mid
        # In a wide bracket, left of the root a step in r only creeps up
        # a log-like s, so the step in log r goes first there; right of
        # the root it is the fallback.
        if wide and (val > 0.0 or not lo < step < hi):
            log_slope = r * slope
            log_step = r * math.exp(max(-700.0, min(700.0, -val / log_slope))) if log_slope != 0.0 else mid
            if lo < log_step < hi or log_step == r:
                step = log_step
        if step == r:
            return r
        r = step if lo < step < hi else mid


def _pool(values: list[float], solve) -> tuple[np.ndarray, np.ndarray]:
    """Pool adjacent violators: the best nondecreasing sequence for a sum
    of per-element objectives, each unimodal, whose sum over any run of
    adjacent elements is unimodal too.

    `values[k]` is element k's own maximizer and `solve(i, k)` that of
    the run of elements i..k-1.  Adjacent equal values start as one run,
    since a sum of unimodal objectives that share a maximizer keeps it.
    While a run's maximizer lies below the one to its left, the two
    merge and the merged run is re-solved; each pooled run is then
    constant at its maximizer, which is the exact optimum.

    Returns each run's first element and its value.
    """
    runs: list[tuple[int, float]] = []  # (first element, value)
    end = 0
    for value, equal in itertools.groupby(values):
        first, end = end, end + len(list(equal))
        while runs and runs[-1][1] > value:
            first = runs.pop()[0]
            value = solve(first, end)
        runs.append((first, value))
    return np.array([first for first, _ in runs], dtype=int), np.array([value for _, value in runs])


def optimize_discrete(weights, p_states) -> tuple[np.ndarray, float]:
    """Maximize the discrete layered expected rate over the r chain.

    With W_k the cdf of the weights, the expected rate is
    1 - W_1 h(p_1) + sum_k g_k(r_k) over the interior r_1..r_{N-1},
    g_k(r) = W_k h(r * p_k) - W_{k+1} h(r * p_{k+1}); only the ordering
    r_1 <= ... <= r_{N-1} couples the layers.  The sum of g_k over a
    run of adjacent layers a..b telescopes to the two-state objective
    W_a h(r * p_a) - W_{b+1} h(r * p_{b+1}), which is unimodal; its
    maximizer is 0, 1/2 or the unique stationary point
    (_two_state_argmax).

    Each layer is solved as its own two-state problem, and ordering
    violators are pooled (_pool), each pooled run re-solved as one
    two-state problem.  Since the sum over every run of adjacent layers
    is unimodal, the pooled chain is the exact optimum.

    The answer is certified by the first-order conditions: within each
    run (value v) the prefix sums of the gradient are >= 0 unless
    v = 0, the suffix sums are <= 0 unless v = 1/2, so the full sum
    vanishes in the interior.  A violation beyond _KKT_TOL raises
    SolverError.

    Returns (chain r_0..r_N with r_0 = 0 and r_N = 1/2, expected rate).
    """
    w, p = _ladder(weights, p_states, "optimize_discrete")
    cum_w = np.cumsum(w)
    cw, ps = cum_w.tolist(), p.tolist()

    starts, levels = _pool(list(map(_two_state_argmax, cw[:-1], ps[:-1], cw[1:], ps[1:])),
                           lambda i, k: _two_state_argmax(cw[i], ps[i], cw[k], ps[k]))
    lengths = np.diff(np.append(starts, p.size - 1))
    v = np.repeat(levels, lengths)

    # By telescoping, the gradient summed over layers i..j of a run is
    # T_i - T_{j+1} with T_s = W_s (1-2p_s) L(v p_s): each condition
    # compares a layer's own terms with the end terms of its run.
    at = np.maximum(v, _R_MIN)
    lower = cum_w[:-1] * (1.0 - 2.0 * p[:-1]) * _log_odds(at, p[:-1])
    upper = cum_w[1:] * (1.0 - 2.0 * p[1:]) * _log_odds(at, p[1:])
    prefix_ok = (v <= 0.0) | (lower[np.repeat(starts, lengths)] >= upper - _KKT_TOL)
    suffix_ok = (v >= 0.5) | (lower <= upper[np.repeat(starts + lengths - 1, lengths)] + _KKT_TOL)
    if not np.all(prefix_ok & suffix_ok):
        raise SolverError("optimize_discrete: pooled chain fails the first-order conditions")
    chain = np.concatenate([[0.0], v, [0.5]])
    return chain, float(np.dot(cum_w, _layer_rates(p, chain)))


def discretize_density(density, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantize a continuous crossover density to n_states BSC states.

    Splits the support [0, sup] into equal cells and represents each
    cell by its right edge, weighted by the cell mass f(p_k) dp.  Every
    state in a cell is at least as good as its representative, so any
    layered code designed for the quantized channel is achievable on
    the continuous one: the discrete optimum approaches the continuous
    expected capacity from below, and doubling n_states refines the
    grid in a nested way (values nondecreasing).

    Returns (weights, p_states) for optimize_discrete.
    """
    if n_states < 1:
        raise ValueError("discretize_density: need at least one state")
    top = density.support_sup()
    edges = np.linspace(0.0, top, n_states + 1)
    p = edges[1:]
    w = np.maximum(np.diff(density.cdf(edges)), 0.0)
    s = w.sum()
    if s <= 0.0:
        raise ValueError("discretize_density: density carries no mass on its support")
    return w / s, p


def euler_lhs(x):
    """LHS of the Euler condition: [1/x - 1/(1-x)] / ln((1-x)/x).

    Natural logs: the Euler-Lagrange derivation cancels the log base
    from this ratio.  With y = ln(1/x - 1), 1 - 2x = tanh(y/2) and
    x (1-x) = 1/(4 cosh^2(y/2)), so the ratio is 2 sinh(y)/y: the
    removable singularity at x = 1/2 is y = 0, with the limit 2
    (matching the p_u condition RHS = 2).  Decreasing in x.  Accepts
    scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr <= 0.5)):
        raise ValueError("euler_lhs: x must lie in (0, 1/2]")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (1.0 / arr - 1.0 / (1.0 - arr)) / np.log((1.0 - arr) / arr)
    out = np.where(0.5 - arr < _LHS_LIMIT_BAND, 2.0, ratio)
    return float(out) if arr.ndim == 0 else out


def euler_rhs(p, density):
    """RHS of the Euler condition: [(1-2p) f(p) - 2 F(p)] / F(p).

    Accepts scalars or arrays.
    """
    big_f = density.cdf(p)
    if np.any(big_f <= 0.0):
        raise ValueError("euler_rhs: F(p) must be positive")
    return ((1.0 - 2.0 * p) * density.pdf(p) - 2.0 * big_f) / big_f


def _newton(x: np.ndarray, step) -> np.ndarray:
    """Newton iteration x <- x - step(x) on a whole array, until no
    point moves by more than _NEWTON_RTOL of its value."""
    for _ in range(_NEWTON_MAX_STEPS):
        dx = step(x)
        x = x - dx
        if np.all(np.abs(dx) <= _NEWTON_RTOL * x):
            break
    return x


def _inverse_sinhc(s: np.ndarray) -> np.ndarray:
    """The root y >= 0 of sinh(y)/y = s for an array of s >= 1.

    Both branches run Newton on a convex increasing function, which
    reaches its root from above after at most one step from below, so
    any positive start converges.

    - s <= sinh(1), so y <= 1: the polynomial t P(t) = s - 1 in
      t = y**2 (_SINHC_SERIES), started at 6 (s-1)/(1 + 0.3 (s-1)).
      It keeps full relative precision as s approaches 1, and s = 1
      gives y = 0 exactly.
    - s > sinh(1): ln(sinh(y)/y) = ln s in y, written
      y + log1p(-e^(-2y)) - ln(2y) so that nothing overflows, started
      at the larger of sqrt(6 ln s), a lower bound, and the large-s
      estimate ln(2s) + ln(ln(2s) + ln ln(2s)).

    The result is nondecreasing in s up to rounding.
    """
    y = np.empty(s.shape)
    near = s <= math.sinh(1.0)
    d = s[near] - 1.0

    def poly_step(t):
        return (t * np.polyval(_SINHC_SERIES, t) - d) / np.polyval(_SINHC_SLOPE, t)

    y[near] = np.sqrt(_newton(6.0 * d / (1.0 + 0.3 * d), poly_step))

    log_s = np.log(s[~near])
    big = log_s + math.log(2.0)
    start = np.maximum(np.sqrt(6.0 * log_s), big + np.log(big + np.log(big)))

    def log_step(v):
        e = np.exp(-2.0 * v)
        # d/dy ln(sinh(y)/y) = coth(y) - 1/y
        return (v + np.log1p(-e) - np.log(2.0 * v) - log_s) / ((1.0 + e) / (1.0 - e) - 1.0 / v)

    y[~near] = _newton(start, log_step)
    return y


def _euler_r(p: np.ndarray, density) -> np.ndarray:
    """Pointwise optimum r(p) in [0, 1/2] for an array of p.

    The r-derivative of the Euler integrand has the sign of the residual
    LHS(p * r) - RHS(p), which decreases in r from LHS(p) - RHS(p) to
    2 - RHS(p).  Where it changes sign the optimum is its root: the LHS
    at x = p * r is 2 sinh(y)/y with y = ln(1/x - 1) (euler_lhs), so
    LHS(p * r) = RHS(p) is sinh(y)/y = RHS(p)/2, one monotone equation
    in y whose form does not depend on p.  Its root (_inverse_sinhc)
    gives x = 1/2 - tanh(y/2)/2 and r = (x - p)/(1 - 2p).  Elsewhere the
    residual has one sign: r = 0 where RHS(p) >= LHS(p), r = 1/2 where
    RHS(p) <= 2.
    """
    rhs = euler_rhs(p, density)
    inside = (euler_lhs(np.maximum(p, EPS)) > rhs) & (rhs > 2.0)
    r, p_in = np.where(rhs > 2.0, 0.0, 0.5), p[inside]
    r[inside] = (0.5 - 0.5 * np.tanh(0.5 * _inverse_sinhc(0.5 * rhs[inside])) - p_in) / (1.0 - 2.0 * p_in)
    return r


def solve_euler_r(p: float, density) -> float:
    """Pointwise optimum r(p) in [0, 1/2]: the Euler root, or 0 or 1/2
    where there is none; the one-point call of the grid solve."""
    return float(_euler_r(np.array([p], dtype=float), density)[0])


def _require_density(channel, caller: str) -> None:
    """The Euler layering needs a continuous crossover density."""
    if not isinstance(state_law(channel), ContinuousBscComposite):
        raise ValueError(f"{caller}: needs a continuous crossover density, not {type(channel).__name__}")


def _lhs(x: float) -> float:
    """euler_lhs of one float x in (0, 1/2], in math floats."""
    if 0.5 - x < _LHS_LIMIT_BAND:
        return 2.0
    return (1.0 / x - 1.0 / (1.0 - x)) / math.log((1.0 - x) / x)


def _bisect(fn, lo: float, hi: float) -> float:
    """The root of fn in [lo, hi] with fn < 0 left of it and fn >= 0 right
    of it, halved down to adjacent floats; returns hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def find_cutoffs(density) -> CutoffPair:
    """Cutoff probabilities: the band [p_l, p_u] where r leaves 0 and 1/2.

    Both are roots of the Euler condition multiplied through by F, so
    that it is defined where F = 0: p_l where LHS(p) F - ((1 - 2p) f - 2F)
    rises through 0 (LHS = RHS at r = 0), below which the pointwise
    optimum is r = 0, and p_u where 4F - (1 - 2p) f does (RHS(p) = 2,
    the LHS limit at r = 1/2), above which it is r = 1/2.  Both
    residuals are negative just above the bottom of the support.  Each
    is scanned on the law's knots up to the top of the support: p_l
    takes the first upward crossing, p_u the one that starts the final
    positive stretch, so that between them lie every Euler band and
    every stretch _layering pools.  On the bracketing cell f is linear
    and F its exact integral, read from the end knots, and a bisection
    in floats runs to adjacent floats: each root is exact to the last
    float of the law's own polynomial (the uniform law's p_u is 1/6).
    Without such a crossing the cutoff is the top of the support;
    p_l = p_u is a band of width zero, one layer at p_u.
    """
    _require_density(density, "find_cutoffs")
    ps = density.grid[:int(np.searchsorted(density.grid, density.support_sup())) + 1]
    f, big_f = density.pdf(ps), density.cdf(ps)

    def root_on(vals: np.ndarray, residual, last: bool = False) -> float:
        # Where F = 0 both residuals are -(1 - 2p) f <= 0.  An upward
        # step from below 0, or from a 0 where f = F = 0, is a crossing;
        # a step down never is.
        crossing = np.nonzero(np.diff(np.sign(vals)) > 0.0)[0]
        if crossing.size == 0 or (last and vals[-1] <= 0.0):
            return float(ps[-1])
        k = int(crossing[-1 if last else 0])
        a, b = float(ps[k]), float(ps[k + 1])
        f_a, big_f_a = float(f[k]), float(big_f[k])
        # The same operations as ContinuousBscComposite.cdf.
        half_slope = 0.5 * ((float(f[k + 1]) - f_a) / (b - a))

        def on_cell(p: float) -> float:
            t = p - a
            return residual(p, f_a + 2.0 * half_slope * t, big_f_a + t * (f_a + half_slope * t))

        return _bisect(on_cell, a, b)

    # Clamping p = 0, where F = 0, leaves LHS * F finite.
    p_u = root_on(4.0 * big_f - (1.0 - 2.0 * ps) * f,
                  lambda p, f_p, big_f_p: 4.0 * big_f_p - (1.0 - 2.0 * p) * f_p, last=True)
    p_l = root_on(euler_lhs(np.maximum(ps, EPS)) * big_f - ((1.0 - 2.0 * ps) * f - 2.0 * big_f),
                  lambda p, f_p, big_f_p: _lhs(max(p, EPS)) * big_f_p - ((1.0 - 2.0 * p) * f_p - 2.0 * big_f_p))
    return CutoffPair(p_l=min(p_l, p_u), p_u=p_u)


def _on_band(band: CutoffPair, r_of) -> LayerProfile:
    """r_of(grid) on _PROFILE_POINTS points over the band; a band of width
    zero gets one layer at p_u (Shamai and Steiner, 2003), r = 0 at p_u."""
    if band.p_l == band.p_u:
        return LayerProfile(grid=np.array([band.p_u]), r=np.zeros(1))
    grid = np.linspace(band.p_l, band.p_u, _PROFILE_POINTS)
    return LayerProfile(grid=grid, r=r_of(grid))


def _layering(density, band: CutoffPair) -> LayerProfile:
    """The optimal layer profile on a grid over the band [p_l, p_u].

    r(p_l) = 0, and every later grid point starts at its pointwise
    optimum (_euler_r), the top one included.  Where that falls, the
    optimum runs flat: a run of points at one level v on [a, b] gains
    F(a) h(v * a) - F(b) h(v * b) in all (Myerson's ironing, the
    continuum form of optimize_discrete's pooling), so the runs are
    pooled as two-state problems between the grid points a and b.
    """
    def r_of(grid: np.ndarray) -> np.ndarray:
        r = _euler_r(grid[1:], density)
        # The pooling loop runs in Python, so a profile that never falls skips it.
        if (r[1:] < r[:-1]).any():
            big_f, g = density.cdf(grid).tolist(), grid.tolist()
            starts, levels = _pool(r.tolist(), lambda i, k: _two_state_argmax(big_f[i], g[i], big_f[k], g[k]))
            r = np.repeat(levels, np.diff(np.append(starts, r.size)))
        return np.concatenate([[0.0], r])

    return _on_band(band, r_of)


def _euler(layer: LayerProfile) -> tuple[np.ndarray, float, RateProfile]:
    """-dR/dp = log2(1/(p * r(p)) - 1) (1 - 2p) r'(p) on the profile's grid
    (r' by central differences, 0 on one point); the top layer
    J = 1 - h(p_u * r(p_u)) of r(p_u) -> 1/2, which every state up to p_u
    decodes (0 when r(p_u) = 1/2); and R(p) = J + the trapezoid integral of -dR up to p_u."""
    g, r = layer.grid, layer.r
    x = np.clip(star(g, r), EPS, 1.0 - EPS)
    top = 1.0 - binary_entropy(float(x[-1])) if r[-1] < 0.5 else 0.0
    increments = np.log2(1.0 / x - 1.0) * (1.0 - 2.0 * g) * (np.gradient(r, g) if g.size > 1 else 0.0)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (increments[1:] + increments[:-1]) * np.diff(g))])
    return increments, top, RateProfile(grid=g, rates=np.maximum(cum[-1] - cum, 0.0) + top)


def rate_profile(layer: LayerProfile) -> RateProfile:
    """R(p), integrated down from the worst state (_euler).  R vanishes
    above p_u and plateaus below p_l."""
    return _euler(layer)[2]


def _expected_rate(density, prof: RateProfile) -> float:
    """E[R(p)] = F(lo) R(lo) + integral f R over the profile's grid [lo, hi]:
    states below the grid decode the plateau R(lo), states above it
    nothing."""
    g = prof.grid
    return float(density.cdf(g[0]) * prof.rates[0] + np.trapezoid(density.pdf(g) * prof.rates, g))


def _solve(density) -> tuple[LayerProfile, float]:
    """The optimal layer profile over [p_l, p_u] (find_cutoffs) and its
    C^e = integral F(p) log2(1/(p * r(p)) - 1) (1 - 2p) r'(p) dp + F(p_u) J,
    J = 1 - h(p_u * r(p_u)) the top layer (_euler).  Four certificates
    raise SolverError: the integration-by-parts form F(p_l) R(p_l) +
    integral f R agrees to 1e-6, and C^e lies (to 1e-9) above two
    admissible codes, a single-layer outage code and the 64-state
    right-edge ladder (discretize_density), and below the mean state
    capacity, which no code beats."""
    layer = _layering(density, find_cutoffs(density))
    g, (increments, top, prof) = layer.grid, _euler(layer)
    value = float(np.trapezoid(density.cdf(g) * increments, g)) + float(density.cdf(g[-1])) * top
    if abs(value - _expected_rate(density, prof)) > 1e-6:
        raise SolverError("expected_capacity_continuous: integral forms disagree")
    if value < best_outage_rate(density)[1] - 1e-9:
        raise SolverError("expected_capacity_continuous: below the best outage rate")
    if value > mean_state_capacity(density) + 1e-9:
        raise SolverError("expected_capacity_continuous: above the mean state capacity")
    if value < optimize_discrete(*discretize_density(density, _CERTIFY_STATES))[1] - 1e-9:
        raise SolverError(f"expected_capacity_continuous: below the {_CERTIFY_STATES}-state ladder")
    return layer, value


def solve_layering(density) -> LayerProfile:
    """The optimal layer profile on [p_l, p_u], a one-layer code on a band
    of width zero (_on_band); it passes the same four certificates as C^e."""
    return _solve(density)[0]


def expected_capacity_continuous(density) -> float:
    """Expected capacity C^e of the continuous-state BSC composite (_solve)."""
    return _solve(density)[1]


def expected_capacity(channel) -> float:
    """Expected capacity C^e of any composite channel.

    A continuous BSC density takes the Euler layering
    (expected_capacity_continuous).  BSC atoms take the layered
    optimizer with the states sorted best first (optimize_discrete).
    For N degraded BEC states, sorted best first with W_k the mass of
    the k best, the expected rate is linear in each layer's H(X|U), so
    one outage code is optimal: C^e = max_k W_k (1 - alpha_k), the best
    outage rate.  An ergodic Gilbert-Elliott channel has no frozen state
    to layer over: it is one atom, and C^e is its Shannon capacity.
    """
    law = state_law(channel)
    if isinstance(law, ContinuousBscComposite):
        return expected_capacity_continuous(law)
    if law.family == "bec" or law.params is None:
        return best_outage_rate(law)[1]
    order = np.argsort(law.params)
    return optimize_discrete(law.mass[order], law.params[order])[1]


def parametric_profile(band: CutoffPair, gamma: float) -> LayerProfile:
    """One-parameter layering r = ((p - p_l)/(p_u - p_l))^gamma / 2 on a band.

    find_cutoffs(density) gives the "optimal-cutoff" family and
    FULL_RANGE the "full-range" one, r = (2p)^gamma / 2 exactly; a band
    of width zero, the one-layer code for every gamma (_on_band)."""
    # Written as "not (in range)" so that NaN fails the check.  An
    # infinite gamma is a step at the top of the band, which the
    # finite-difference rate profile cannot integrate.
    if not 0.0 < gamma < math.inf:
        raise ValueError("parametric_profile: gamma must be positive and finite")
    return _on_band(band, lambda grid: 0.5 * ((grid - band.p_l) / (band.p_u - band.p_l)) ** gamma)


def parametric_expected_rate(density, band: CutoffPair, gamma: float) -> float:
    """Expected rate over `density` of the parametric profile on `band`."""
    _require_density(density, "parametric_expected_rate")
    return _expected_rate(density, rate_profile(parametric_profile(band, gamma)))
