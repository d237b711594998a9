"""Expected capacity via degraded broadcast layering.

Each channel state is treated as a virtual receiver of a degraded
broadcast channel.  For BSC states the Bergmans cascade parameterizes
the region: auxiliary crossovers 0 = r_0 <= r_1 <= ... <= r_N = 1/2,
layer i carrying rate h(r_i * p_i) - h(r_{i-1} * p_i), and state i
decoding all layers j >= i.  The continuous-state limit replaces the
cascade by a monotone profile r(p) whose optimality condition is an
Euler equation with two cutoffs p_l (r = 0) and p_u (r = 1/2): states
better than p_l decode everything, states worse than p_u get nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import best_outage_rate
from .channels import (
    EPS,
    PointMassDensity,
    _entropy_bits,
    binary_entropy,
    bsc_capacity,
    star,
)

# Switch to the removable-singularity limit of the Euler LHS this close
# to x = 1/2.
_LHS_LIMIT_BAND = 1e-6

# Halvings of [0, 1/2] in the Euler solve: 0.5 / 2**50 < 5e-16.
_EULER_BISECTIONS = 50

# Slack of the discrete optimizer's first-order certificate, in nats.
_KKT_TOL = 1e-9

# The discrete optimizer treats r below the smallest normal float as 0.
# With p = 0 the gradient at r = 0 is infinite, so a two-state root can
# underflow; the solver stops here instead, which changes the rate by
# less than 1e-303.
_R_MIN = float(np.finfo(float).tiny)


class SolverError(RuntimeError):
    """A solver's answer failed its own certificate."""


@dataclass(frozen=True)
class LayerProfile:
    """Monotone overall auxiliary crossover r(p) on a grid."""

    grid: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if g.ndim != 1 or g.size < 2 or r.shape != g.shape:
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


def bergmans_rates(p_states, r) -> np.ndarray:
    """Per-layer rates of the Bergmans cascade.

    `p_states` are the N state crossovers sorted ascending; `r` is the
    full auxiliary chain of length N+1 with r[0] = 0 and r[-1] = 1/2.
    Layer i (1-based) carries R_i = h(r_i * p_i) - h(r_{i-1} * p_i);
    state i decodes layers i..N.  Non-finite entries raise ValueError.
    """
    p = np.asarray(p_states, dtype=float)
    rr = np.asarray(r, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("bergmans_rates: need at least one state")
    # Written as "not (in range)" so that NaN fails every check.
    if not (np.all((p >= 0.0) & (p <= 0.5)) and np.all(np.diff(p) >= 0.0)):
        raise ValueError("bergmans_rates: states must be sorted in [0, 1/2] and finite")
    if rr.shape != (p.size + 1,):
        raise ValueError("bergmans_rates: r must have length N+1 (including both endpoints)")
    if not (abs(rr[0]) <= 1e-12 and abs(rr[-1] - 0.5) <= 1e-12):
        raise ValueError("bergmans_rates: r must start at 0 and end at 1/2")
    if not np.all(np.diff(rr) >= -1e-12):
        raise ValueError("bergmans_rates: r must be nondecreasing and finite")
    return _layer_rates(p, rr)


def _layer_rates(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """bergmans_rates without the checks, for a chain already known to
    be valid; r * p is spelled out as star computes it."""
    upper, lower = r[1:], r[:-1]
    return _entropy_bits(upper + p - 2.0 * upper * p) - _entropy_bits(lower + p - 2.0 * lower * p)


def discrete_expected_rate(weights, p_states, r) -> float:
    """Expected rate sum_i w_i R(p_i) with R(p_i) = sum_{j >= i} R_j.

    Rearranged as sum_j W_j R_j with W_j the cdf of the weights, which
    is the form the optimizer differentiates.
    """
    w = np.asarray(weights, dtype=float)
    rates = bergmans_rates(p_states, r)
    return float(np.dot(np.cumsum(w), rates))


def _log_odds(r, p):
    """ln((1 - x)/x) at x = r * p, written as log1p((1-2r)(1-2p)/x) so
    that it keeps full relative precision as x approaches 1/2."""
    return np.log1p((1.0 - 2.0 * r) * (1.0 - 2.0 * p) / (r + p - 2.0 * r * p))


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
    a bisection step.  The solve stops when a Newton step no longer
    moves r, or when lo and hi are adjacent floats.
    """
    up, uq = 1.0 - 2.0 * p, 1.0 - 2.0 * q
    ap, bq = a * up, b * uq

    def s(r: float) -> float:
        t = 1.0 - 2.0 * r
        return (ap * math.log1p(t * up / (r + p - 2.0 * r * p))
                - bq * math.log1p(t * uq / (r + q - 2.0 * r * q)))

    if s(_R_MIN) <= 0.0:
        return 0.0
    if a * up ** 2 >= b * uq ** 2:
        return 0.5
    lo, hi, r = _R_MIN, 0.5, 0.25
    while True:
        val = s(r)
        if val > 0.0:
            lo = r
        else:
            hi = r
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return r
        x_p, x_q = r + p - 2.0 * r * p, r + q - 2.0 * r * q
        slope = bq * uq / (x_q * (1.0 - x_q)) - ap * up / (x_p * (1.0 - x_p))
        step = r - val / slope if slope != 0.0 else mid
        if step == r:
            return r
        r = step if lo < step < hi else mid


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

    Pooling rule (pool-adjacent-violators): solve each layer as its own
    two-state problem; while a run's maximizer lies below the one to
    its left, merge the two runs and re-solve the merged run as one
    two-state problem.  Since the sum over every run of adjacent layers
    is unimodal, the best nondecreasing chain on each pooled run is
    constant, so the pooled chain is the exact optimum.

    The answer is certified by the first-order conditions: within each
    run (value v) the prefix sums of the gradient are >= 0 unless
    v = 0, the suffix sums are <= 0 unless v = 1/2, so the full sum
    vanishes in the interior.  A violation beyond _KKT_TOL raises
    SolverError.

    Returns (chain r_0..r_N with r_0 = 0 and r_N = 1/2, expected rate).
    """
    p = np.asarray(p_states, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != p.shape:
        raise ValueError("optimize_discrete: weights and states must match")
    # Written as "not (in range)" so that NaN and inf fail every check.
    if not ((w >= 0.0).all() and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("optimize_discrete: weights must be a pmf with finite entries")
    if not (p.ndim == 1 and p.size >= 1 and ((p >= 0.0) & (p <= 0.5)).all() and (p[1:] >= p[:-1]).all()):
        raise ValueError("optimize_discrete: states must be sorted in [0, 1/2] and finite")
    cum_w = np.cumsum(w)
    cw, ps = cum_w.tolist(), p.tolist()

    # Runs as (first layer, value); layer k couples states k and k+1.
    runs: list[tuple[int, float]] = []
    for k in range(p.size - 1):
        first, value = k, _two_state_argmax(cw[k], ps[k], cw[k + 1], ps[k + 1])
        while runs and runs[-1][1] > value:
            first = runs.pop()[0]
            value = _two_state_argmax(cw[first], ps[first], cw[k + 1], ps[k + 1])
        runs.append((first, value))

    starts = np.array([first for first, _ in runs], dtype=int)
    lengths = np.diff(np.append(starts, p.size - 1))
    v = np.repeat([val for _, val in runs], lengths)

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
    w = np.array([density.cdf(edges[i + 1]) - density.cdf(edges[i]) for i in range(n_states)])
    w = np.maximum(w, 0.0)
    s = w.sum()
    if s <= 0.0:
        raise ValueError("discretize_density: density carries no mass on its support")
    return w / s, p


def euler_lhs(x):
    """LHS of the Euler condition: [1/x - 1/(1-x)] / ln((1-x)/x).

    Natural logs: the Euler-Lagrange derivation cancels the log base
    from this ratio, and the removable singularity at x = 1/2 has the
    limit 2 (matching the p_u condition RHS = 2).  Decreasing in x.
    Accepts scalars or arrays.
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


def euler_residual(p: float, r: float, density) -> float:
    """LHS(p * r) - RHS(p); a solved profile makes this vanish."""
    return euler_lhs(max(star(p, r), EPS)) - euler_rhs(p, density)


def _euler_r(p: np.ndarray, density) -> np.ndarray:
    """Pointwise Euler solutions r(p) in [0, 1/2] for an array of p.

    The LHS at p * r decreases in r, so where the residual changes sign
    between r = 0 and r = 1/2 the root is unique; _EULER_BISECTIONS
    halvings of [0, 1/2], done for every point at once, leave it within
    5e-16.  Points without a sign change lie outside the cutoff band
    and get NaN (callers map it to 0 below p_l, 1/2 above p_u).
    """
    rhs = euler_rhs(p, density)
    # Residual positive at r = 0, negative at r = 1/2 (where the LHS is 2).
    inside = (euler_lhs(np.maximum(p, EPS)) > rhs) & (rhs > 2.0)
    slope = 1.0 - 2.0 * p  # p * r = p + slope * r
    r, half = np.zeros(p.shape), 0.5
    for _ in range(_EULER_BISECTIONS):
        half *= 0.5
        mid = r + half
        np.copyto(r, mid, where=euler_lhs(p + slope * mid) > rhs)
    return np.where(inside, r + half, np.nan)


def solve_euler_r(p: float, density) -> float:
    """Pointwise Euler solution r(p) in [0, 1/2], or NaN outside the
    cutoff band; the one-point call of the grid solve."""
    return float(_euler_r(np.array([p], dtype=float), density)[0])


def find_cutoffs(density, scan_points: int = 4096) -> CutoffPair:
    """Cutoff probabilities: r(p_l) = 0 and r(p_u) = 1/2 boundaries.

    p_u solves RHS(p) = 2 (the LHS limit at r = 1/2) and p_l solves
    LHS(p) = RHS(p) (the r = 0 boundary); each root is bracketed by the
    first sign change in its declared direction on a scan grid and
    polished by bisection to 1e-8.  A point mass collapses both cutoffs
    onto the atom.
    """
    if isinstance(density, PointMassDensity):
        return CutoffPair(density.p0, density.p0)
    # Imported here: scipy.optimize adds about 48 MB of resident memory
    # and 0.5 s to a process that has imported chancap, and only the
    # continuous solvers use it.
    from scipy.optimize import brentq

    p_min = max(float(density.grid[0]), 1e-9)
    p_max = min(density.support_sup(), 0.5)
    # Skip ahead to positive F so the RHS is defined.
    ps = np.linspace(p_min, p_max, scan_points)
    ps = ps[density.cdf(ps) > 0.0]
    if ps.size < 2:
        raise ValueError("find_cutoffs: degenerate density grid")

    def root_on(fn, increasing: bool) -> float:
        vals = fn(ps)
        step = np.diff(np.sign(vals))
        # Only a crossing in the declared direction counts.  Where
        # f(0) = 0, F and f are both linear in the first grid cell, so
        # the RHS is flat there while the LHS falls through it: a
        # spurious down-crossing of the p_l residual.
        crossing = np.nonzero(step > 0.0 if increasing else step < 0.0)[0]
        if crossing.size == 0:
            # Boundary never crossed inside the support: the cutoff
            # sits at whichever support edge the sign points to.
            if increasing:
                return float(ps[0] if vals[0] >= 0.0 else ps[-1])
            return float(ps[0] if vals[0] <= 0.0 else ps[-1])
        k = int(crossing[0])
        return brentq(fn, float(ps[k]), float(ps[k + 1]), xtol=1e-8)

    # RHS decreases through 2 at p_u; the r=0 residual increases through
    # 0 at p_l.
    p_u = root_on(lambda p: euler_rhs(p, density) - 2.0, increasing=False)
    p_l = root_on(lambda p: euler_lhs(np.maximum(p, EPS)) - euler_rhs(p, density), increasing=True)
    return CutoffPair(p_l=min(p_l, p_u), p_u=p_u)


def solve_layering(density, num: int = 4097) -> LayerProfile:
    """Solve the Euler equation on a grid over [p_l, p_u], all interior
    points in one array pass."""
    cut = find_cutoffs(density)
    grid = np.linspace(cut.p_l, cut.p_u, num)
    r = np.empty(num)
    r[0], r[-1] = 0.0, 0.5
    inner = grid[1:-1]
    # Roundoff at the band edges leaves no sign change: clamp those
    # points to the nearer boundary.
    nearer = np.where(inner - cut.p_l < cut.p_u - inner, 0.0, 0.5)
    val = _euler_r(inner, density)
    r[1:-1] = np.where(np.isnan(val), nearer, val)
    r = np.maximum.accumulate(r)
    return LayerProfile(grid=grid, r=r)


def rate_profile(layer: LayerProfile) -> RateProfile:
    """Integrate the incremental layer rates down from the worst state.

    -dR(p) = log2(1/(p * r(p)) - 1) (1 - 2p) r'(p) dp, so
    R(p) = integral from p to the top of the grid; r' by central
    differences, integral by trapezoid.  R vanishes above p_u (r is
    flat at 1/2 there) and plateaus below p_l.
    """
    g, r = layer.grid, layer.r
    x = np.clip(star(g, r), EPS, 1.0 - EPS)
    integrand = np.log2(1.0 / x - 1.0) * (1.0 - 2.0 * g) * np.gradient(r, g)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(g))])
    rates = cum[-1] - cum
    rates = np.maximum(rates, 0.0)
    return RateProfile(grid=g, rates=rates)


def expected_capacity_continuous(density, num: int = 4097) -> float:
    """Expected capacity of the continuous-state BSC composite.

    Solves the layering, then evaluates
    C^e = integral F(p) log2(1/(p * r(p)) - 1) (1 - 2p) r'(p) dp,
    cross-checked against the integration-by-parts form
    F(p_l) R(p_l) + integral f(p) R(p) dp; the two must agree to 1e-6.
    A single-layer outage code is one admissible profile, so C^e below
    the best outage rate (less 1e-9) means the solve failed: both
    certificates raise SolverError.
    """
    if isinstance(density, PointMassDensity):
        return bsc_capacity(density.p0)
    layer = solve_layering(density, num=num)
    g, r = layer.grid, layer.r
    x = np.clip(star(g, r), EPS, 1.0 - EPS)
    weight = density.cdf(g) * np.log2(1.0 / x - 1.0) * (1.0 - 2.0 * g) * np.gradient(r, g)
    value = float(np.trapezoid(weight, g))

    prof = rate_profile(layer)
    alt = float(density.cdf(g[0]) * prof.rates[0] + np.trapezoid(density.pdf(g) * prof.rates, g))
    if abs(value - alt) > 1e-6:
        raise SolverError("expected_capacity_continuous: integral forms disagree")
    if value < best_outage_rate(density)[1] - 1e-9:
        raise SolverError("expected_capacity_continuous: below the best outage rate")
    return value


def parametric_profile(density, family: str, gamma: float, num: int = 4097) -> LayerProfile:
    """Suboptimal one-parameter layering families.

    "optimal-cutoff": r = ((p - p_l)/(p_u - p_l))^gamma / 2 on the
    solved cutoff band.  "full-range": r = (2p)^gamma / 2 on [0, 1/2].
    """
    if gamma <= 0.0:
        raise ValueError("parametric_profile: gamma must be positive")
    if family == "optimal-cutoff":
        cut = find_cutoffs(density)
        grid = np.linspace(cut.p_l, cut.p_u, num)
        span = max(cut.p_u - cut.p_l, EPS)
        r = 0.5 * ((grid - cut.p_l) / span) ** gamma
    elif family == "full-range":
        grid = np.linspace(0.0, 0.5, num)
        r = 0.5 * (2.0 * grid) ** gamma
    else:
        raise ValueError("parametric_profile: family must be 'optimal-cutoff' or 'full-range'")
    return LayerProfile(grid=grid, r=np.clip(r, 0.0, 0.5))


def parametric_expected_rate(density, family: str, gamma: float, num: int = 4097) -> float:
    """Expected rate of a parametric profile: F(lo) R(lo) + integral f R."""
    layer = parametric_profile(density, family, gamma, num=num)
    prof = rate_profile(layer)
    g = layer.grid
    return float(
        density.cdf(g[0]) * prof.rates[0] + np.trapezoid(density.pdf(g) * prof.rates, g)
    )


def bec_bc_region(alpha1: float, alpha2: float, p_aux: float) -> tuple[float, float]:
    """Rate pair of the two-user degraded BEC broadcast channel.

    User 1 (erasure alpha1 < alpha2) gets the private rate
    R1 = (1 - alpha1) h(p); both users get the common rate
    R12 = (1 - alpha2)(1 - h(p)).
    """
    if not 0.0 <= alpha1 < alpha2 <= 1.0:
        raise ValueError("bec_bc_region: need 0 <= alpha1 < alpha2 <= 1")
    if not 0.0 <= p_aux <= 0.5:
        raise ValueError("bec_bc_region: p_aux must lie in [0, 1/2]")
    h = binary_entropy(p_aux)
    return (1.0 - alpha1) * h, (1.0 - alpha2) * (1.0 - h)


def bec_bc_expected_rate(alpha1: float, alpha2: float, w1: float = 0.5) -> float:
    """Best expected rate of BEC broadcast codes: max{1-alpha2, w1 (1-alpha1)}.

    The objective R12 + w1 R1 is linear in h(p_aux), so the maximum over
    the auxiliary parameter sits at an endpoint: all-common (h = 0)
    giving 1 - alpha2, or all-private (h = 1) giving w1 (1 - alpha1).
    With equiprobable states (w1 = 1/2) this reduces to
    max{1 - alpha2, (1 - alpha1)/2}.
    """
    if not 0.0 <= w1 <= 1.0:
        raise ValueError("bec_bc_expected_rate: w1 must lie in [0, 1]")
    r1_full, _ = bec_bc_region(alpha1, alpha2, 0.5)
    _, r12_full = bec_bc_region(alpha1, alpha2, 0.0)
    return max(r12_full, w1 * r1_full)
