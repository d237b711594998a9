import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import beta

from chancap import (
    FULL_RANGE,
    BecState,
    BscState,
    ContinuousBscComposite,
    CutoffPair,
    DiscreteComposite,
    GilbertElliott,
    LayerProfile,
    RateProfile,
    SolverError,
    best_outage_rate,
    binary_entropy,
    bsc_capacity,
    capacity_vs_outage,
    discrete_expected_rate,
    discretize_density,
    euler_lhs,
    euler_rhs,
    expected_capacity,
    expected_capacity_continuous,
    find_cutoffs,
    ge_expected_capacity,
    mean_state_capacity,
    optimize_discrete,
    outage_curve,
    parametric_expected_rate,
    parametric_profile,
    rate_profile,
    shannon_capacity,
    solve_euler_r,
    solve_layering,
    star,
)
from chancap import layering
from chancap.channels import EPS

UNIFORM = ContinuousBscComposite.uniform()


def _triangle(a=0.02, b=0.48, num=2001):
    c = 0.5 * (a + b)
    g = np.linspace(a, b, num)
    f = np.where(g <= c, (g - a) / (c - a), (b - g) / (b - c)) * (2.0 / (b - a))
    return ContinuousBscComposite(g, f)


def _normalized(g, f):
    return ContinuousBscComposite(g, f / np.trapezoid(f, g))


def _truncated_exponential(rate=8.0, num=2049):
    g = np.linspace(0.0, 0.5, num)
    return _normalized(g, np.exp(-rate * g))


def _beta(a, b, top=0.4, num=1025):
    g = np.linspace(0.0, top, num)
    return _normalized(g, beta.pdf(g / top, a, b))


def _two_bumps():
    g = np.linspace(0.0, 0.4, 1025)
    f = 0.3 * np.exp(-0.5 * ((g - 0.1) / 0.02) ** 2) + 0.7 * np.exp(-0.5 * ((g - 0.25) / 0.02) ** 2)
    return _normalized(g, f)


TWO_BUMPS = _two_bumps()


def _piecewise_linear(knots, lo, hi):
    """Knot values equally spaced on [lo, hi], interpolated onto 513 points."""
    g = np.linspace(lo, hi, 513)
    return _normalized(g, np.interp(g, np.linspace(lo, hi, len(knots)), knots))


# The first Euler band gave 0.0756876; the 64-state ladder reaches 0.0759462.
BELOW_LADDER = ((0.374, 0.15, 0.627, 0.485), 0.0509, 0.408)

# Euler roots on [0.1200, 0.1338] and [0.1697, 0.1753] of the band
# [0.1200, 0.1753], none between: a profile clamped to 0 or 1/2 there
# jumped from 0.036 to 1/2 at mid-band, and the integral forms read
# 0.31381.
SPLIT_BAND = ((0.25, 0.5, 0.5, 0.375, 0.625, 0.0, 0.0), 0.0, 0.25)

# r(p_u) = 0 at the support top: the whole code is the top layer,
# C^e = 1 - h(0.2608).
TOP_LAYER = ((0.185, 0.082, 0.619), 0.0936, 0.2608)


# Its profile is pooled at an interior level on most of its band.
BELOW_LADDER_LAW = _piecewise_linear(*BELOW_LADDER)


def _smooth_bump():
    g = np.linspace(0.0, 0.5, 257)
    return _normalized(g, 0.3 + np.exp(-(((g - 0.15) / 0.06) ** 2)))


def _brentq_euler_r(p, density):
    """A per-point Euler solve independent of the closed form: Brent's
    method on LHS(p * r) = RHS(p); where r = 0 and r = 1/2 give no sign
    change, 1/2 if RHS(p) <= 2 and 0 otherwise."""
    rhs = euler_rhs(p, density)
    if 2.0 - rhs >= 0.0:
        return 0.5
    if euler_lhs(max(p, EPS)) - rhs <= 0.0:
        return 0.0
    return brentq(lambda r: euler_lhs(p + r - 2.0 * p * r) - rhs, 0.0, 0.5, xtol=1e-12)


def _brentq_cutoffs(density):
    """find_cutoffs' roots by an independent route: the Euler condition
    in its RHS form on a 4096-point scan where F > 0, then Brent's method
    at xtol 1e-15.  p_l is bracketed by the first crossing in the
    declared direction, p_u by the last, which starts the final stretch
    of RHS < 2 on each law tested here."""
    ps = np.linspace(max(float(density.grid[0]), 1e-9), density.support_sup(), 4096)
    ps = ps[density.cdf(ps) > 0.0]

    def root(fn, sign, pick):
        vals = sign * fn(ps)
        k = np.nonzero((vals[:-1] < 0.0) & (vals[1:] >= 0.0))[0][pick]
        return brentq(fn, ps[k], ps[k + 1], xtol=1e-15)

    p_u = root(lambda p: euler_rhs(p, density) - 2.0, -1.0, -1)
    p_l = root(lambda p: euler_lhs(np.maximum(p, EPS)) - euler_rhs(p, density), 1.0, 0)
    return CutoffPair(p_l, p_u)


def _brentq_layering(density, num, cut):
    """The pointwise optima on solve_layering's grid over the band `cut`,
    from one scalar Brent solve per point, with r = 0 at p_l."""
    grid = np.linspace(cut.p_l, cut.p_u, num)
    r = np.array([0.0] + [_brentq_euler_r(float(p), density) for p in grid[1:]])
    return grid, r


def _flat_runs(r):
    """(first, end) of each maximal run of at least two equal entries of r."""
    edges = [0, *(np.flatnonzero(np.diff(r)) + 1).tolist(), r.size]
    return [(i, k) for i, k in zip(edges[:-1], edges[1:]) if k - i >= 2]


def _check_against_pointwise(density, layer, pointwise):
    """The solved profile is nondecreasing and equals the pointwise optima
    to 1e-11 off its pooled runs: the flat runs where the pointwise
    optima differ from the run's level.  An interior pooled level v on
    the grid points a..b balances the run's two-state problem between
    the point before it and its last point:
    T(p) = F(p) (1 - 2p) L(v * p), L(x) = ln(1/x - 1), is equal there to
    1e-9 relative.  Returns the number of pooled runs."""
    r, g = layer.r, layer.grid
    assert np.all(np.diff(r) >= 0.0)
    off = np.ones(r.size, dtype=bool)
    pooled = 0
    for i, k in _flat_runs(r):
        v = r[i]
        if np.all(np.abs(pointwise[i:k] - v) <= 1e-11):
            continue
        pooled += 1
        off[i:k] = False
        if 0.0 < v < 0.5:
            t_a, t_b = (float(density.cdf(p)) * (1.0 - 2.0 * p) * math.log(1.0 / star(p, v) - 1.0)
                        for p in (float(g[i - 1]), float(g[k - 1])))
            assert abs(t_a - t_b) <= 1e-9 * abs(t_b)
    assert np.max(np.abs(r[off] - pointwise[off])) <= 1e-11
    return pooled


def test_euler_lhs():
    assert euler_lhs(0.25) == 2.427304604338233
    # removable singularity at 1/2 with limit 2
    assert euler_lhs(0.5) == 2.0
    assert euler_lhs(0.5 - 1e-7) == 2.0
    assert euler_lhs(0.5 - 1e-5) == pytest.approx(2.0, abs=1e-8)
    assert euler_lhs(0.1) > euler_lhs(0.2) > euler_lhs(0.3)
    with pytest.raises(ValueError):
        euler_lhs(0.0)
    with pytest.raises(ValueError):
        euler_lhs(0.6)


def test_euler_rhs_uniform():
    # f = 2, F = 2p collapses the RHS to (1 - 4p)/p
    for p in (0.05, 0.1, 0.15, 0.2, 0.4):
        assert euler_rhs(p, UNIFORM) == pytest.approx((1.0 - 4.0 * p) / p, rel=1e-12)
    with pytest.raises(ValueError):
        euler_rhs(0.0, UNIFORM)


def test_solve_euler_r():
    r = solve_euler_r(0.15, UNIFORM)
    assert r == pytest.approx(0.07952307504687503, abs=1e-9)
    assert abs(euler_lhs(star(0.15, r)) - euler_rhs(0.15, UNIFORM)) < 1e-9
    # Outside the cutoff band there is no root, and the residual's one
    # sign puts the pointwise optimum at 0 below p_l and at 1/2 above p_u.
    assert solve_euler_r(0.10, UNIFORM) == 0.0
    assert solve_euler_r(0.20, UNIFORM) == 0.5


@pytest.mark.parametrize("density, num", [
    (UNIFORM, 4097),
    (_triangle(), 1025),
    (_truncated_exponential(), 1025),
    (_beta(2.0, 3.0), 1025),
    (TWO_BUMPS, 1025),
    (_smooth_bump(), 1025),
    (BELOW_LADDER_LAW, 1025),
])
def test_solve_layering_matches_brentq_oracle(density, num, monkeypatch):
    monkeypatch.setattr(layering, "_PROFILE_POINTS", num)
    layer = solve_layering(density)
    grid, r = _brentq_layering(density, num, find_cutoffs(density))
    assert np.array_equal(layer.grid, grid)
    # Only the two multi-band laws have falling pointwise optima to pool.
    pooled = _check_against_pointwise(density, layer, r)
    assert (pooled > 0) == (density is TWO_BUMPS or density is BELOW_LADDER_LAW)


def _log_sinhc(y):
    """ln(sinh(y)/y) to 60 digits, from the float y."""
    with localcontext() as ctx:
        ctx.prec = 60
        v = Decimal(y)
        return ((v.exp() - (-v).exp()) / (2 * v)).ln() if v else Decimal(0)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1.0, 1e300), min_size=1, max_size=8))
@example([1.0, 1.0 + 1e-15, 2.0, 1e300])
@example([1.0])
@example([1.0 + 1e-15])
@example([2.0])
@example([1e300])
def test_inverse_sinhc_property(s):
    # The closed-form Euler solve inverts sinh(y)/y = s.  y must be
    # finite, >= 0 and nondecreasing in s, and ln(sinh(y)/y) must match
    # ln(s) to 1e-14 relative (s = 1: y = 0).  The solver evaluates
    # ln(sinh(y)/y) to about 6e-16 relative, so s values a few ulps
    # apart can give y a few ulps apart in either order: monotonicity
    # is checked up to 2e-15 relative.
    s = np.sort(np.array(s))
    y = layering._inverse_sinhc(s)
    assert np.all(np.isfinite(y)) and np.all(y >= 0.0)
    assert np.all(y[:-1] <= y[1:] * (1.0 + 2e-15))
    for si, yi in zip(s.tolist(), y.tolist()):
        want = Decimal(si).ln()
        if si == 1.0:
            assert yi == 0.0
        else:
            assert abs(_log_sinhc(yi) - want) <= Decimal(1e-14) * want


def test_euler_sides_accept_arrays():
    x = np.array([0.1, 0.25, 0.5])
    assert np.array_equal(euler_lhs(x), [euler_lhs(float(v)) for v in x])
    p = np.array([0.05, 0.15])
    assert np.array_equal(euler_rhs(p, UNIFORM), [euler_rhs(float(v), UNIFORM) for v in p])
    with pytest.raises(ValueError):
        euler_lhs(np.array([0.2, 0.6]))
    with pytest.raises(ValueError):
        euler_rhs(np.array([0.0, 0.2]), UNIFORM)


def test_find_cutoffs_uniform():
    cut = find_cutoffs(UNIFORM)
    assert cut.p_l == pytest.approx(0.13605173593431932, abs=1e-10)
    assert cut.p_u == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert cut.p_l < cut.p_u


def _flat(num):
    """f = 2 on num knots from 0 to 1/2: the uniform law on a finer grid."""
    return ContinuousBscComposite(np.linspace(0.0, 0.5, num), np.full(num, 2.0))


@pytest.mark.parametrize("num", [2, 3, 101, 2049])
def test_find_cutoffs_uniform_p_u_is_one_sixth(num):
    # (1 - 2p) f - 4F = 2 - 12p: the bisection lands on 1/6 on any
    # grid of knots (Brent's method at xtol 1e-8 left 1/6 + 6.7e-10).
    cut = find_cutoffs(_flat(num))
    assert abs(cut.p_u - 1.0 / 6.0) <= np.spacing(1.0 / 6.0)


def test_uniform_law_does_not_depend_on_its_knots():
    # f = 2 is one law on any knots from 0 to 1/2, so every quantity takes
    # one value; the mean state capacity is 1 - 1/(2 ln 2) in closed form.
    q = np.linspace(0.0, 0.9, 10)
    ref = None
    for num in (2, 3, 101, 2049):
        law = _flat(num)
        cut = find_cutoffs(law)
        got = ((cut.p_l, cut.p_u), expected_capacity_continuous(law), best_outage_rate(law),
               outage_curve(law, q).c_q.tobytes())
        assert ref is None or got == ref, num
        ref = got
        assert abs(mean_state_capacity(law) - (1.0 - 1.0 / (2.0 * math.log(2.0)))) <= 1e-15


@st.composite
def _coarse_laws(draw):
    """Piecewise-linear laws on 3 to 17 knots in [0, 1/2], some of them at
    f = 0, normalized as ContinuousBscComposite normalizes them."""
    knots = draw(st.lists(st.floats(0.0, 0.5), min_size=3, max_size=17, unique=True))
    grid = np.sort(knots)
    assume(np.all(np.diff(grid) > 1e-9))
    f = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                               min_size=grid.size, max_size=grid.size)))
    mass = np.trapezoid(f, grid)
    assume(mass > 1e-9)
    return ContinuousBscComposite(grid, f / mass)


@settings(max_examples=150, deadline=None)
@given(law=_coarse_laws())
def test_mean_state_capacity_is_the_laws_own_integral(law):
    # Per cell, quad of the law's own linear f against 1 - h.
    g = law.grid
    want = sum(quad(lambda p: law.pdf(p) * (1.0 - binary_entropy(p)), a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for a, b in zip(g[:-1].tolist(), g[1:].tolist()))
    upper = mean_state_capacity(law)
    assert abs(upper - want) <= 1e-12
    # A law with stretches of zero density often has no certified C^e
    # (SolverError); the bound is checked on the others.
    try:
        ce = expected_capacity(law)
    except SolverError:
        assume(False)
    assert ce <= upper + 1e-9


@pytest.mark.parametrize("density", [
    UNIFORM,
    _smooth_bump(),
    _beta(2.0, 3.0),
    _triangle(),
    _normalized(np.linspace(0.0, 0.4, 513), 1.0 - np.linspace(0.0, 0.4, 513) / 0.4),
    _truncated_exponential(),
    _two_bumps(),
], ids=["uniform", "smooth_bump", "beta", "tent", "ramp", "truncexp", "two_bumps"])
def test_find_cutoffs_match_brentq_oracle(density):
    cut, want = find_cutoffs(density), _brentq_cutoffs(density)
    assert abs(cut.p_l - want.p_l) <= 1e-12
    assert abs(cut.p_u - want.p_u) <= 1e-12


def test_find_cutoffs_triangle_brackets_mode():
    cut = find_cutoffs(_triangle())
    assert cut.p_l < 0.25 < cut.p_u
    assert 0.2 < cut.p_l and cut.p_u < 0.3


def test_cutoff_pair_validation():
    with pytest.raises(ValueError):
        CutoffPair(0.3, 0.2)
    with pytest.raises(ValueError):
        CutoffPair(-0.1, 0.2)
    with pytest.raises(ValueError):
        CutoffPair(0.2, 0.6)


def test_layer_profile_validation():
    g = np.linspace(0.1, 0.4, 11)
    LayerProfile(g, np.linspace(0.0, 0.5, 11))
    with pytest.raises(ValueError):
        LayerProfile(g, np.linspace(0.5, 0.0, 11))
    with pytest.raises(ValueError):
        LayerProfile(g, np.full(11, 0.7))
    with pytest.raises(ValueError):
        LayerProfile(np.linspace(0.1, 0.7, 11), np.full(11, 0.2))
    with pytest.raises(ValueError):
        LayerProfile(g, np.zeros(5))


def test_rate_profile_validation():
    g = np.linspace(0.1, 0.4, 5)
    with pytest.raises(ValueError):
        RateProfile(g, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))


def test_solve_layering_shape(monkeypatch):
    monkeypatch.setattr(layering, "_PROFILE_POINTS", 513)
    layer = solve_layering(UNIFORM)
    cut = find_cutoffs(UNIFORM)
    assert layer.grid[0] == cut.p_l and layer.grid[-1] == cut.p_u
    assert layer.r[0] == 0.0 and layer.r[-1] == 0.5
    assert np.all(np.diff(layer.r) >= 0.0)
    # interior points satisfy the stationarity condition
    for i in (128, 256, 384):
        p, r = float(layer.grid[i]), float(layer.r[i])
        assert abs(euler_lhs(star(p, r)) - euler_rhs(p, UNIFORM)) < 1e-6


def test_rate_profile_uniform():
    # The staircase total R(p_l) converges at first order in the grid:
    # 0.381431765 at 4097 points, 0.381436413 at 8193 and 0.381438738 at
    # 16385, from below the continuum value 0.3814411.
    prof = rate_profile(solve_layering(UNIFORM))
    assert prof.rates[0] == pytest.approx(0.3814317650473523, abs=1e-12)
    # The same profile from Brent's method, for the cutoffs and per point.
    oracle = rate_profile(LayerProfile(*_brentq_layering(UNIFORM, 4097, _brentq_cutoffs(UNIFORM))))
    assert abs(prof.rates[0] - oracle.rates[0]) <= 1e-13
    assert prof.rates[-1] == 0.0
    assert np.all(np.diff(prof.rates) <= 1e-12)
    # plateau below p_l, nothing above p_u
    assert prof.rate_at(0.0) == prof.rates[0]
    assert prof.rate_at(0.3) == 0.0
    assert prof.rate_at(0.49) == 0.0
    # A step lookup: rates[k] on [g_k, g_{k+1}), the top layer at p_u.
    g = prof.grid
    assert np.array_equal(prof.rate_at(g), prof.rates)
    assert np.array_equal(prof.rate_at(0.5 * (g[1:] + g[:-1])), prof.rates[:-1])


def test_rate_profile_constant_r_carries_nothing():
    # No increment: every state up to the grid top gets the top layer
    # r(0.4) = 1/4 -> 1/2 alone.
    g = np.linspace(0.1, 0.4, 101)
    prof = rate_profile(LayerProfile(g, np.full(101, 0.25)))
    assert np.abs(prof.rates - bsc_capacity(star(0.4, 0.25))).max() < 1e-15


def test_rate_profile_step_matches_single_cutoff():
    # a steep 0 -> 1/2 ramp at p0 sends everything to states better
    # than p0: their rate approaches the outage choice q = 1 - F(p0)
    g = np.linspace(0.0, 0.5, 16385)
    p0, width = 0.2, 0.002
    r = 0.5 * np.clip((g - p0) / width, 0.0, 1.0)
    prof = rate_profile(LayerProfile(g, r))
    want = capacity_vs_outage(UNIFORM, 1.0 - UNIFORM.cdf(p0))
    assert want == bsc_capacity(p0)
    assert prof.rates[0] == pytest.approx(want, abs=5e-3)
    assert prof.rate_at(p0 + 2.0 * width) == pytest.approx(0.0, abs=1e-12)


def test_expected_capacity_continuous():
    # The value of the right-edge code on 4097 points: 5.7e-11 below the
    # Richardson value (4 L(8192) - L(4096))/3 = 0.117344662021 of the
    # right-edge ladders, and within 1e-15 of an mpmath sum of its layers.
    assert expected_capacity_continuous(UNIFORM) == pytest.approx(0.11734466196332269, abs=1e-12)
    assert expected_capacity(DiscreteComposite((BscState(0.2),), [1.0])) == bsc_capacity(0.2)


def test_expected_capacity_of_every_law():
    assert expected_capacity(UNIFORM) == expected_capacity_continuous(UNIFORM)
    frozen = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.14)
    assert expected_capacity(frozen) == ge_expected_capacity(0.05, 0.3, 0.14)[0]
    ergodic = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5)
    assert expected_capacity(ergodic) == shannon_capacity(ergodic)


@settings(max_examples=200, deadline=None)
@given(a1=st.floats(0.0, 1.0), a2=st.floats(0.0, 1.0), w1=st.floats(0.0, 1.0), swap=st.booleans())
@example(a1=0.0, a2=1.0, w1=1e-13, swap=False)
@example(a1=0.0, a2=0.5, w1=1.0 - 1e-13, swap=True)
def test_expected_capacity_two_state_bec(a1, a2, w1, swap):
    a1, a2 = sorted((a1, a2))
    assume(a1 < a2)
    pairs = [(BecState(a1), w1), (BecState(a2), 1.0 - w1)]
    states, pmf = zip(*(pairs[::-1] if swap else pairs))
    got = expected_capacity(DiscreteComposite(states, list(pmf)))
    # An atom of positive mass at most 1e-12 fits under every q (the
    # outage search's mass tolerance), which moves C^e by at most that
    # mass times a capacity.
    tol = 1e-12 if 0.0 < min(w1, 1.0 - w1) <= 1e-12 else 1e-15
    # The better corner of the degraded BEC broadcast region: all common
    # (every state decodes 1 - alpha_2) or all private to the better state.
    assert abs(got - max(1.0 - a2, w1 * (1.0 - a1))) <= tol


def _code_inputs(density, lay):
    """The layered code a profile defines on its grid, as
    discrete_expected_rate takes it: layer (r_{j-1}, r_j] at the right
    edge g_j, the top layer r(p_u) -> 1/2 at p_u, and the states above
    p_u as one state at 1/2 that decodes nothing."""
    states = np.append(lay.grid[1:], [lay.grid[-1], 0.5])
    big_f = np.append(density.cdf(states[:-1]), 1.0)
    return np.diff(big_f, prepend=0.0), states, np.append(lay.r, [0.5, 0.5])


def test_solved_profile_is_first_order_optimal():
    layer = solve_layering(UNIFORM)
    g, cut = layer.grid, find_cutoffs(UNIFORM)

    def functional(lay):
        return discrete_expected_rate(*_code_inputs(UNIFORM, lay))

    base = functional(layer)
    assert base == pytest.approx(expected_capacity_continuous(UNIFORM), abs=1e-15)
    mid = g[g.size // 2]
    width = (cut.p_u - cut.p_l) / 20.0
    for sign in (1.0, -1.0):
        bump = sign * 1e-4 * np.exp(-(((g - mid) / width) ** 2))
        r = np.maximum.accumulate(np.clip(layer.r + bump, 0.0, 0.5))
        r[0], r[-1] = 0.0, 0.5
        assert functional(LayerProfile(g, r)) <= base + 1e-9


def test_expected_capacity_grid_convergence(monkeypatch):
    # Observed: difference 5.6e-11 and order 2.00 (the right-edge code
    # loses second order in the grid step from the optimal continuum).
    def at(num):
        monkeypatch.setattr(layering, "_PROFILE_POINTS", num)
        return expected_capacity_continuous(UNIFORM)

    c4, c8, c16 = (at(n) for n in (4097, 8193, 16385))
    assert abs(c4 - c16) <= 1e-8
    order = math.log2(abs(c4 - c8) / abs(c8 - c16))
    assert 1.5 <= order <= 2.5


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("b", [2.0, 3.0, 4.0])
def test_expected_capacity_sandwich_on_beta(a, b):
    # f(0) = 0: the cutoff scan used to take a spurious down-crossing of
    # the p_l residual in the first grid cell (Beta(2,2): 0.1045 against
    # a best outage rate of 0.1391).
    d = _beta(a, b)
    ce = expected_capacity_continuous(d)
    assert best_outage_rate(d)[1] - 1e-9 <= ce <= mean_state_capacity(d)


def _left_edge_ladder(density, n_states):
    """discretize_density with each cell at its left edge, its best state:
    the quantized channel is at least as good, so its optimum bounds C^e
    from above."""
    edges = np.linspace(0.0, density.support_sup(), n_states + 1)
    w = np.maximum(np.diff(density.cdf(edges)), 0.0)
    return optimize_discrete(w / w.sum(), edges[:-1])[1]


@pytest.mark.parametrize("density, want", [
    # Three Euler bands; the first alone gave 0.1240 against a best
    # outage rate of 0.1410.
    (TWO_BUMPS, 0.140959980),
    (BELOW_LADDER_LAW, 0.075957419),
    (_piecewise_linear(*SPLIT_BAND), 0.300097815),
], ids=["two_bumps", "below_ladder", "split_band"])
def test_expected_capacity_multi_band_sandwich(density, want):
    # Each law's pointwise optima fall somewhere in [p_l, p_u], and the
    # pooled solve lies between the 4096-state right-edge (achievable)
    # and left-edge ladders, below the Richardson value of the two
    # right-edge ladders (4 L(8192) - L(4096))/3 by 1.7e-8, 1.0e-9 and
    # 2.3e-9.
    ce = expected_capacity_continuous(density)
    assert ce == pytest.approx(want, abs=5e-9)
    assert optimize_discrete(*discretize_density(density, 4096))[1] - 1e-9 <= ce
    assert ce <= _left_edge_ladder(density, 4096) + 1e-9
    # Summation by parts: the staircase weighted by the mass of each
    # cell (0, g_1], (g_1, g_2], ... is the same expected rate.
    prof = rate_profile(solve_layering(density))
    cells = np.diff(density.cdf(np.append(prof.grid[1:], prof.grid[-1])), prepend=0.0)
    assert abs(float(np.dot(cells, prof.rates)) - ce) <= 1e-12


def test_top_layer_alone():
    density = _piecewise_linear(*TOP_LAYER)
    layer = solve_layering(density)
    assert layer.grid[-1] == 0.2608 and layer.r[-1] == 0.0
    assert expected_capacity_continuous(density) == bsc_capacity(0.2608) == 0.17204881448876552


@settings(max_examples=100, deadline=None)
@given(knots=st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=3, max_size=15),
       lo=st.floats(0.0, 0.1), hi=st.floats(0.25, 0.5),
       centre=st.floats(0.05, 0.3), sd=st.floats(0.005, 0.05))
@example(*BELOW_LADDER, 0.1, 0.01)
@example(*SPLIT_BAND, 0.1, 0.01)
@example(*TOP_LAYER, 0.1, 0.01)
def test_expected_capacity_sandwich_on_random_laws(knots, lo, hi, centre, sd):
    # Every solve lies between the right-edge (achievable) and left-edge
    # ladders.
    assume(max(knots) > 0.0)
    density = _piecewise_linear(knots, lo, hi)
    # Shannon capacity is C_0; the per-law rule it replaced read the
    # support edge.  A narrow Gaussian on [0, 1/2] has tail cells below
    # an ulp of mass, where F rounds to 1 short of that edge.
    g = np.linspace(0.0, 0.5, 1025)
    for law in (density, _normalized(g, np.exp(-(((g - centre) / sd) ** 2)))):
        assert shannon_capacity(law) == bsc_capacity(law.support_sup())
    ce = expected_capacity_continuous(density)
    assert optimize_discrete(*discretize_density(density, 64))[1] - 1e-9 <= ce
    assert ce <= _left_edge_ladder(density, 64) + 1e-9


def test_density_without_band_gets_one_layer():
    # f ~ p^3 on [0, 0.2]: neither residual crosses 0, so both cutoffs
    # sit at the support edge.  The band of width zero is one layer at
    # 0.2, which every state decodes: 1 - h(0.2), the best outage rate
    # and the 4096-state ladder's value.  The solved profile is that
    # code, a one-point grid at 0.2 with r = 0.
    g = np.linspace(0.0, 0.2, 1025)
    cubic = _normalized(g, g ** 3)
    assert find_cutoffs(cubic) == CutoffPair(p_l=0.2, p_u=0.2)
    ce = expected_capacity_continuous(cubic)
    assert ce == bsc_capacity(0.2) == 0.2780719051126377
    assert ce == best_outage_rate(cubic)[1] == optimize_discrete(*discretize_density(cubic, 4096))[1]
    layer = solve_layering(cubic)
    assert np.array_equal(layer.grid, [0.2]) and np.array_equal(layer.r, [0.0])
    prof = rate_profile(layer)
    assert np.array_equal(prof.grid, [0.2]) and np.array_equal(prof.rates, [ce])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), w=st.floats(0.02, 0.2))
def test_power_law_has_a_zero_width_band_and_one_layer(k, w):
    # f ~ p^k on [0, w]: every route answers the band of width zero with
    # the one-layer code at p_u.
    g = np.linspace(0.0, w, 257)
    law = _normalized(g, g ** k)
    band = find_cutoffs(law)
    assert band.p_l == band.p_u
    ce = expected_capacity_continuous(law)
    assert ce == float(law.cdf(band.p_u)) * bsc_capacity(band.p_u)
    assert ce == best_outage_rate(law)[1]
    ps = np.linspace(0.0, 0.5, 101)
    rates = rate_profile(solve_layering(law)).rate_at(ps)
    assert np.array_equal(rates, np.where(ps <= band.p_u, bsc_capacity(band.p_u), 0.0))
    for gamma in (0.25, 1.0, 4.0):
        assert parametric_expected_rate(law, band, gamma) == ce


@pytest.mark.parametrize("channel", [
    GilbertElliott(0.05, 0.3, 0.0, 0.0, 0.14),
    DiscreteComposite((BscState(0.05), BscState(0.3)), [0.5, 0.5]),
])
def test_continuous_layering_rejects_atoms(channel):
    calls = (
        lambda: find_cutoffs(channel),
        lambda: solve_layering(channel),
        lambda: expected_capacity_continuous(channel),
        lambda: parametric_expected_rate(channel, FULL_RANGE, 1.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="needs a continuous crossover density"):
            call()


def test_ge_expected_capacity_degenerate():
    assert ge_expected_capacity(0.05, 0.3, 0.0) == (bsc_capacity(0.3), 0.0)
    assert ge_expected_capacity(0.05, 0.3, 1.0) == (bsc_capacity(0.05), 0.5)


def test_ge_expected_capacity_boundary_regimes():
    # large good-state mass: single layer at r = 1/2 (time-share to good)
    ce, r = ge_expected_capacity(0.05, 0.3, 0.5)
    assert (ce, r) == (0.35680152144202193, 0.5)
    assert ce == pytest.approx(0.5 * bsc_capacity(0.05), abs=1e-15)
    # small good-state mass: r = 0, only the worst-state code survives
    ce, r = ge_expected_capacity(0.05, 0.3, 0.1)
    assert r == 0.0
    assert ce == bsc_capacity(0.3)


def test_ge_expected_capacity_interior():
    ce, r = ge_expected_capacity(0.05, 0.3, 0.14)
    assert ce == pytest.approx(0.11925778183785894, abs=1e-12)
    assert r == pytest.approx(0.02620193591092797, abs=1e-10)
    # interior optimum beats both endpoint strategies
    assert ce > bsc_capacity(0.3)
    assert ce > 0.14 * bsc_capacity(0.05)


def test_ge_expected_capacity_domain():
    with pytest.raises(ValueError):
        ge_expected_capacity(0.3, 0.05, 0.5)
    with pytest.raises(ValueError):
        ge_expected_capacity(0.05, 0.3, 1.5)
    with pytest.raises(ValueError):
        ge_expected_capacity(-0.1, 0.3, 0.5)


def _layer_sum(p_states, chain):
    """The sum of every layer rate of the cascade: weights e_1 make every
    W_j 1 in discrete_expected_rate."""
    return discrete_expected_rate(np.eye(len(p_states))[0], p_states, chain)


def test_bergmans_rates_hand_case():
    assert _layer_sum([0.2], [0.0, 0.5]) == pytest.approx(bsc_capacity(0.2), abs=1e-15)
    layer_2 = 1.0 - binary_entropy(0.1 + 0.3 - 2 * 0.1 * 0.3)
    # Weights e_2 leave the last layer alone.
    assert discrete_expected_rate([0.0, 1.0], [0.05, 0.3], [0.0, 0.1, 0.5]) == pytest.approx(layer_2, abs=1e-15)
    assert _layer_sum([0.05, 0.3], [0.0, 0.1, 0.5]) == pytest.approx(
        binary_entropy(0.1 + 0.05 - 2 * 0.1 * 0.05) - binary_entropy(0.05) + layer_2, abs=1e-15
    )


def test_bergmans_rates_validation():
    with pytest.raises(ValueError):
        _layer_sum([0.2], [0.0, 0.4])
    with pytest.raises(ValueError):
        _layer_sum([0.2], [0.1, 0.5])
    with pytest.raises(ValueError):
        _layer_sum([0.3, 0.2], [0.0, 0.1, 0.5])
    with pytest.raises(ValueError):
        _layer_sum([0.2], [0.0, 0.3, 0.5])


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(0.01, 0.49),
    interior=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
)
def test_bergmans_rates_telescope(p, interior):
    # equal states: the cascade telescopes to the single-state capacity
    chain = np.concatenate([[0.0], np.sort(interior), [0.5]])
    states = np.full(chain.size - 1, p)
    assert _layer_sum(states, chain) == pytest.approx(bsc_capacity(p), abs=1e-12)


def test_discrete_expected_rate_matches_single_layer_objective():
    # two states: the layered expected rate is exactly
    # 1 - h(r * p_bad) + w_good [h(r * p_good) - h(p_good)]
    w, p = [0.14, 0.86], [0.05, 0.3]
    for r1 in (0.0, 0.02620193591092797, 0.1, 0.5):
        got = discrete_expected_rate(w, p, [0.0, r1, 0.5])
        want = (
            1.0
            - binary_entropy(r1 + 0.3 - 2 * r1 * 0.3)
            + 0.14 * (binary_entropy(r1 + 0.05 - 2 * r1 * 0.05) - binary_entropy(0.05))
        )
        assert got == pytest.approx(want, abs=1e-14)


def test_bergmans_rates_rejects_non_finite():
    with pytest.raises(ValueError, match="discrete_expected_rate: r must be nondecreasing"):
        _layer_sum([0.1, 0.2], [0.0, math.nan, 0.5])
    with pytest.raises(ValueError, match="discrete_expected_rate: states must be sorted"):
        _layer_sum([0.1, math.nan], [0.0, 0.1, 0.5])
    with pytest.raises(ValueError, match="discrete_expected_rate: r must start at 0"):
        _layer_sum([0.1, 0.2], [0.0, 0.1, math.inf])


def test_discrete_expected_rate_rejects_bad_weights():
    for w in ([0.5, math.nan], [math.inf, 0.5], [0.5, 0.6], [1.0]):
        with pytest.raises(ValueError, match="discrete_expected_rate: weights must be a pmf"):
            discrete_expected_rate(w, [0.1, 0.2], [0.0, 0.1, 0.5])


def test_optimize_discrete_rejects_non_finite():
    with pytest.raises(ValueError, match="optimize_discrete: weights must be a pmf"):
        optimize_discrete([0.5, math.nan], [0.1, 0.2])
    with pytest.raises(ValueError, match="optimize_discrete: weights must be a pmf"):
        optimize_discrete([math.inf, 0.5], [0.1, 0.2])
    with pytest.raises(ValueError, match="optimize_discrete: states must be sorted"):
        optimize_discrete([0.5, 0.5], [0.1, math.nan])
    with pytest.raises(ValueError, match="optimize_discrete: states must be sorted"):
        optimize_discrete([0.5, 0.5], [-math.inf, 0.2])


def _bisection_two_state_argmax(a, p, b, q):
    """The two-state solve the Newton iteration replaced: the same case
    rule, then bisection on numpy scalars to the last float.  s is
    written as the solver writes it, (ap - bq) L(x_p) + bq (L(x_p) -
    L(x_q)), since near a tie the plain difference is rounding noise
    around the root."""
    def s(r):
        x_p, x_q = r + p - 2.0 * r * p, r + q - 2.0 * r * q
        return ((a * (1.0 - 2.0 * p) - b * (1.0 - 2.0 * q)) * layering._log_odds(r, p)
                + b * (1.0 - 2.0 * q) * np.log1p((q - p) * (1.0 - 2.0 * r) / (x_p * (1.0 - x_q))))

    if s(layering._R_MIN) <= 0.0:
        return 0.0
    if a * (1.0 - 2.0 * p) ** 2 >= b * (1.0 - 2.0 * q) ** 2:
        return 0.5
    lo, hi = layering._R_MIN, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if s(mid) > 0.0:
            lo = mid
        else:
            hi = mid


@st.composite
def _two_state_problems(draw):
    """(a, p, b, q) with 0 <= a <= b and p <= q, including p = 0,
    q = 1/2, p = q, a = 0, a = b and tiny a."""
    p = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    q = draw(st.one_of(st.just(0.5), st.just(p), st.floats(p, 0.5)))
    b = draw(st.floats(1e-6, 1.0))
    ratio = draw(st.one_of(
        st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-3),
    ))
    return ratio * b, p, b, q


def _two_state_objective(a, p, b, q, r):
    return a * binary_entropy(r + p - 2.0 * r * p) - b * binary_entropy(r + q - 2.0 * r * q)


@settings(max_examples=400, deadline=None)
@given(_two_state_problems())
# a = b (1 - ulp) with a subnormal q: the two log-odds terms cancel to
# 1e-16 of their size near the root.
@example((0.9999999999999999, 0.0, 1.0, 1.401298464324817e-45))
def test_two_state_argmax_matches_bisection_oracle(problem):
    got = layering._two_state_argmax(*problem)
    want = _bisection_two_state_argmax(*problem)
    assert type(got) is float
    branch = {0.0: "zero", 0.5: "half"}
    assert branch.get(got, "interior") == branch.get(float(want), "interior")
    if 0.0 < got < 0.5:
        assert abs(got - want) <= 1e-9 * want
        assert _two_state_objective(*problem, got) >= _two_state_objective(*problem, want) - 1e-15


def test_two_state_argmax_near_tie_root():
    # The root of s for a = 1 - 2^-53, b = 1, p = 0, q = 1e-45, found by
    # bisection at 60 digits.  Taking the difference of the two log-odds
    # terms at full size put it at 8.8e-32.
    root = 1.7826857271011179e-31
    got = layering._two_state_argmax(0.9999999999999999, 0.0, 1.0, 1.401298464324817e-45)
    assert abs(got - root) <= 1e-9 * root


def _mpmath_two_state_root(a, p, b, q):
    """The sign change of s(r) = a (1-2p) L(r * p) - b (1-2q) L(r * q)
    for the exact float inputs, by 260 halvings of log r at 60 digits."""
    with mpmath.workdps(60):
        a, p, b, q = (mpmath.mpf(v) for v in (a, p, b, q))

        def s(r):
            x_p, x_q = r + p - 2 * r * p, r + q - 2 * r * q
            return a * (1 - 2 * p) * mpmath.log(1 / x_p - 1) - b * (1 - 2 * q) * mpmath.log(1 / x_q - 1)

        lo, hi = mpmath.log(layering._R_MIN), mpmath.log(mpmath.mpf(0.5))
        for _ in range(260):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if s(mpmath.exp(mid)) > 0 else (lo, mid)
        return mpmath.exp((lo + hi) / 2)


def test_two_state_argmax_near_tie_matches_mpmath():
    # a (1-2p) = b (1-2q) (1 - eta) with q just above p and eta a few
    # times 2 (q - p)/(1 - 2p): the two products agree to 3-12 digits,
    # as they do when a pooled run spans nearby grid points.  Rounding
    # the tie coefficient from the two products put 20 of the 27
    # interior roots more than 1e-9 off, by up to 4e-4.
    rng = np.random.default_rng(5)
    interior = 0
    for _ in range(400):
        p = rng.uniform(0.0, 0.45)
        gap = 10.0 ** rng.uniform(-12, -3)
        q = min(0.5, p + (p * gap if rng.random() < 0.8 else gap))
        b = rng.uniform(0.01, 1.0)
        eta = 2.0 * (q - p) / (1.0 - 2.0 * p) * 10.0 ** rng.uniform(0, 3)
        a = min(b, b * (1.0 - 2.0 * q) / (1.0 - 2.0 * p) * (1.0 - eta))
        got = layering._two_state_argmax(a, p, b, q)
        if 0.0 < got < 0.5:
            interior += 1
            want = _mpmath_two_state_root(a, p, b, q)
            assert abs(got - want) <= 1e-9 * want
    assert interior == 27


@pytest.mark.parametrize("a", [0.002, 0.003])
def test_two_state_argmax_tiny_root_is_cheap(monkeypatch, a):
    # With p = 0 the root lies near 1e-181 (a = 0.002) or 1e-121
    # (a = 0.003); arithmetic halving from 1/2 took 605 and 405
    # evaluations of s to reach that scale.  Each evaluation takes two
    # log1p calls.
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def log1p(self, x):
            calls.append(x)
            return math.log1p(x)

    monkeypatch.setattr(layering, "math", CountingMath())
    got = layering._two_state_argmax(a, 0.0, 1.0, 0.2)
    monkeypatch.undo()
    assert len(calls) // 2 <= 80
    want = _bisection_two_state_argmax(a, 0.0, 1.0, 0.2)
    assert 0.0 < want < 1e-100
    assert 0.0 < got < 0.5 and abs(got - want) <= 1e-9 * want


def test_optimize_discrete_single_state():
    chain, value = optimize_discrete([1.0], [0.2])
    assert np.array_equal(chain, [0.0, 0.5])
    assert value == pytest.approx(bsc_capacity(0.2), abs=1e-15)


def test_optimize_discrete_matches_two_state_closed_form():
    ce, r_star = ge_expected_capacity(0.05, 0.3, 0.14)
    chain, value = optimize_discrete([0.14, 0.86], [0.05, 0.3])
    assert value == pytest.approx(ce, abs=1e-9)
    assert chain[1] == pytest.approx(r_star, abs=1e-6)
    with pytest.raises(ValueError):
        optimize_discrete([0.5, 0.6], [0.05, 0.3])
    with pytest.raises(ValueError):
        optimize_discrete([0.5, 0.5], [0.05])
    with pytest.raises(ValueError, match="optimize_discrete: states must be sorted"):
        optimize_discrete([0.5, 0.5], [0.3, 0.05])


def _ascent_oracle(weights, p_states):
    """Projected coordinate ascent on r_1..r_{N-1} (three starts, up to
    500 passes of exact bounded 1-D maximization).

    Returns the best expected rate found, or None when that chain does
    not meet first-order stationarity within 1e-8 (the ascent stalls on
    collapsed layers), so only certified values serve as a reference.
    """
    p = np.asarray(p_states, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = p.size
    if n == 1:
        return discrete_expected_rate(w, p, [0.0, 0.5])
    cum_w = np.cumsum(w)

    def h(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / math.log(2.0)

    def h_prime(x):
        x = min(max(x, 1e-12), 1.0 - 1e-12)
        return math.log2((1.0 - x) / x)

    def cascade(a, b):
        return a + b - 2.0 * a * b

    def local_term(k, rk):
        return cum_w[k - 1] * h(cascade(rk, p[k - 1])) - cum_w[k] * h(cascade(rk, p[k]))

    def residual(chain):
        worst = 0.0
        for k in range(1, n):
            grad = (1.0 - 2.0 * p[k - 1]) * cum_w[k - 1] * h_prime(cascade(chain[k], p[k - 1])) \
                - (1.0 - 2.0 * p[k]) * cum_w[k] * h_prime(cascade(chain[k], p[k]))
            at_lo = chain[k] - chain[k - 1] < 1e-10
            at_hi = chain[k + 1] - chain[k] < 1e-10
            if at_lo and at_hi:
                continue
            viol = max(0.0, grad) if at_lo else max(0.0, -grad) if at_hi else abs(grad)
            worst = max(worst, viol)
        return worst

    starts = (
        np.linspace(0.0, 0.5, n + 1),
        np.concatenate([[0.0], np.linspace(1e-6, 2e-6, n - 1), [0.5]]),
        np.concatenate([[0.0], np.linspace(0.5 - 2e-6, 0.5 - 1e-6, n - 1), [0.5]]),
    )
    best_chain, best_val = None, -np.inf
    for start in starts:
        chain = start.copy()
        prev = -np.inf
        for _ in range(500):
            for k in range(1, n):
                lo, hi = chain[k - 1], chain[k + 1]
                if hi - lo < 1e-14:
                    chain[k] = lo
                    continue
                res = minimize_scalar(lambda rk: -local_term(k, rk), bounds=(lo, hi),
                                      method="bounded", options={"xatol": 1e-13})
                cand = float(res.x)
                for edge in (lo, hi):
                    if local_term(k, edge) >= local_term(k, cand):
                        cand = edge
                chain[k] = cand
            val = discrete_expected_rate(w, p, chain)
            if val - prev < 1e-14:
                break
            prev = val
        if val > best_val:
            best_chain, best_val = chain, val
    return best_val if residual(best_chain) < 1e-8 else None


def _check_layered_optimum(w, p, oracle=True):
    chain, value = optimize_discrete(w, p)
    assert abs(value - discrete_expected_rate(w, p, chain)) <= 1e-15
    assert chain[0] == 0.0 and chain[-1] == 0.5 and np.all(np.diff(chain) >= 0.0)
    composite = DiscreteComposite(tuple(BscState(x) for x in p), w)
    assert best_outage_rate(composite)[1] - 1e-12 <= value <= mean_state_capacity(composite) + 1e-12
    if oracle:
        reference = _ascent_oracle(w, p)
        if reference is not None:
            assert value >= reference - 1e-12


@st.composite
def _bsc_composites(draw):
    """1-9 sorted crossovers, repeats, p = 0, p = 1/2, zero masses and
    point masses."""
    n = draw(st.integers(1, 9))
    crossover = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 0.5))
    pool = draw(st.lists(crossover, min_size=1, max_size=n))
    p = np.sort(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=n, max_size=n)))
    if w.sum() == 0.0:
        w[draw(st.integers(0, n - 1))] = 1.0
    return w / w.sum(), p


@settings(max_examples=60, deadline=None)
@given(_bsc_composites())
def test_optimize_discrete_property(composite):
    _check_layered_optimum(*composite)


def test_optimize_discrete_random_mixtures():
    # 300 mixtures with 2-9 uniform crossovers and Dirichlet weights;
    # coordinate ascent raised on 15 of them and fell below the best
    # outage rate on others.
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        p = np.sort(rng.uniform(0.0, 0.5, n))
        _check_layered_optimum(rng.dirichlet(np.ones(n)), p, oracle=False)


def test_solver_certificates_raise_solver_error(monkeypatch):
    monkeypatch.setattr(layering, "_two_state_argmax", lambda a, p, b, q: 0.25)
    with pytest.raises(SolverError, match="first-order"):
        optimize_discrete([0.14, 0.86], [0.05, 0.3])
    monkeypatch.undo()
    monkeypatch.setattr(layering, "_PROFILE_POINTS", 257)
    monkeypatch.setattr(layering, "mean_state_capacity", lambda density: 0.1)
    with pytest.raises(SolverError, match="above the mean state capacity"):
        expected_capacity_continuous(UNIFORM)
    monkeypatch.undo()
    monkeypatch.setattr(layering, "_PROFILE_POINTS", 257)
    monkeypatch.setattr(layering, "optimize_discrete", lambda weights, p_states: (None, 0.2))
    with pytest.raises(SolverError, match="below the 64-state ladder"):
        expected_capacity_continuous(UNIFORM)


@pytest.mark.parametrize("width", [1e-8, 1e-6, 1e-4])
def test_expected_capacity_on_steep_ramps(width):
    # All mass on [0, width], f falling linearly to 0: the band
    # [p_l, p_u] is a few percent of the width and r climbs from 0 to
    # near 1/2 across it.  The trapezoid's log-weighted integral of r'
    # overshot, to 3.41 at width 1e-8, where no code beats
    # E[1 - h] = 0.9999999.  The code's value lies between the best
    # outage rate and the mean state capacity: at width 1e-6,
    # 0.99997863 <= 0.99997865 <= 0.99999247.
    law = ContinuousBscComposite(np.array([0.0, width, 0.5]), np.array([2.0 / width, 0.0, 0.0]))
    ce = expected_capacity_continuous(law)
    assert best_outage_rate(law)[1] <= ce <= mean_state_capacity(law)
    assert rate_profile(solve_layering(law)).rates[0] <= 1.0


def test_discretize_density():
    w, p = discretize_density(UNIFORM, 4)
    assert np.array_equal(p, [0.125, 0.25, 0.375, 0.5])
    assert np.array_equal(w, [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        discretize_density(UNIFORM, 0)


@pytest.mark.parametrize("density", [UNIFORM, _two_bumps()], ids=["uniform", "two_bumps"])
@pytest.mark.parametrize("n_states", [7, 8, 16, 33, 64, 1024, 4096])
def test_discretize_density_matches_scalar_cdf_differences(density, n_states):
    # One array cdf call must give the cell masses of the per-edge
    # scalar differences to the last bit.
    edges = np.linspace(0.0, density.support_sup(), n_states + 1)
    w = np.maximum([density.cdf(edges[i + 1]) - density.cdf(edges[i]) for i in range(n_states)], 0.0)
    got_w, got_p = discretize_density(density, n_states)
    assert np.array_equal(got_w, w / w.sum())
    assert np.array_equal(got_p, edges[1:])


@pytest.mark.parametrize("n_states", [64, 1024])
def test_optimize_discrete_rate_matches_bergmans_evaluation(n_states):
    w, p = discretize_density(UNIFORM, n_states)
    chain, value = optimize_discrete(w, p)
    assert abs(value - discrete_expected_rate(w, p, chain)) <= 1e-15


def test_discrete_ladder_approaches_continuous():
    ce = expected_capacity_continuous(UNIFORM)
    _, v8 = optimize_discrete(*discretize_density(UNIFORM, 8))
    _, v16 = optimize_discrete(*discretize_density(UNIFORM, 16))
    assert v8 == pytest.approx(0.1154109821619292, abs=1e-9)
    assert v8 < v16 < ce


def test_parametric_profile_families():
    for density in (UNIFORM, _beta(2.0, 3.0)):
        cut = find_cutoffs(density)
        lay = parametric_profile(cut, 1.0)
        assert lay.grid[0] == cut.p_l and lay.grid[-1] == cut.p_u
        assert lay.r[0] == 0.0 and lay.r[-1] == 0.5
    # On [0, 1/2] the band formula is the full-range family bit for bit.
    for gamma in (0.25, 1.0, 2.0, 3.5):
        full = parametric_profile(FULL_RANGE, gamma)
        assert full.grid[0] == 0.0 and full.grid[-1] == 0.5
        assert np.array_equal(full.r, 0.5 * (2.0 * full.grid) ** gamma)
    # A NaN gamma used to fail deep in `star`, and an infinite one to
    # give a rate above the expected capacity.
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            parametric_profile(cut, bad)
    # A band of width zero is the one-layer code for every gamma.
    for gamma in (0.25, 1.0, 4.0):
        one = parametric_profile(CutoffPair(0.2, 0.2), gamma)
        assert np.array_equal(one.grid, [0.2]) and np.array_equal(one.r, [0.0])


def test_parametric_rates_below_optimum():
    ce = expected_capacity_continuous(UNIFORM)
    cut = find_cutoffs(UNIFORM)
    oc = [parametric_expected_rate(UNIFORM, cut, g) for g in (0.5, 1.0, 2.0)]
    fr = [parametric_expected_rate(UNIFORM, FULL_RANGE, g) for g in (0.5, 1.0, 2.0)]
    assert all(v <= ce + 1e-9 for v in oc + fr)
    assert max(oc) > max(fr)
    assert max(oc) == pytest.approx(ce, abs=1e-3)


@pytest.mark.parametrize("band", [find_cutoffs(UNIFORM), FULL_RANGE], ids=["optimal_cutoff", "full_range"])
@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.25, 1.0, 4.0, 10.0])
def test_parametric_code_stays_below_capacities(band, gamma):
    # A code's rate at state p never beats 1 - h(p), and its expected
    # rate never beats C^e.  The trapezoid profile at gamma = 0.1 on the
    # optimal-cutoff band gave p_l 0.4357 bits/use, above
    # 1 - h(p_l) = 0.4262, and an expected rate of 0.118894 above
    # C^e = 0.117345.
    ps = np.linspace(0.0, 0.5, 1001)
    rates = rate_profile(parametric_profile(band, gamma)).rate_at(ps)
    assert np.all(rates <= bsc_capacity(ps) + 1e-12)
    assert parametric_expected_rate(UNIFORM, band, gamma) <= expected_capacity_continuous(UNIFORM) + 1e-12


def _bec_pair(a1, a2, w1):
    return DiscreteComposite((BecState(a1), BecState(a2)), [w1, 1.0 - w1])


def test_bec_bc_expected_rate():
    # The paper's two-state BEC broadcast example: max{1 - a2, w1 (1 - a1)}.
    assert expected_capacity(_bec_pair(0.1, 0.3, 0.5)) == 0.7
    assert expected_capacity(_bec_pair(0.1, 0.3, 1.0)) == 0.9
    assert expected_capacity(_bec_pair(0.1, 0.3, 0.0)) == 0.7
    # all-common vs all-private crossover
    assert expected_capacity(_bec_pair(0.1, 0.9, 0.5)) == 0.45


@settings(max_examples=40, deadline=None)
@given(
    a1=st.floats(0.0, 0.8),
    gap=st.floats(0.01, 0.19),
    w1=st.floats(0.0, 1.0),
)
# 1 - 0.81 rounds to 0.18999999999999995, so C^e formed from 1 - q missed w1 (1 - a1) by an ulp.
@example(a1=0.78125, gap=0.1875, w1=0.19)
def test_bec_bc_expected_rate_is_endpoint_max(a1, gap, w1):
    a2 = min(a1 + gap, 1.0)
    got = expected_capacity(_bec_pair(a1, a2, w1))
    assert got == max(1.0 - a2, w1 * (1.0 - a1))
    # No point of the degraded BEC broadcast region beats the corners:
    # auxiliary BSC(p) gives the common rate (1 - a2)(1 - h(p)) to both
    # states and the private rate (1 - a1) h(p) to the better one.
    for p in (0.1, 0.25, 0.4):
        h = binary_entropy(p)
        assert (1.0 - a2) * (1.0 - h) + w1 * (1.0 - a1) * h <= got + 1e-12
