import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import beta

from chancap import (
    BscState,
    ContinuousBscComposite,
    CutoffPair,
    DiscreteComposite,
    LayerProfile,
    PointMassDensity,
    RateProfile,
    SolverError,
    bec_bc_expected_rate,
    bec_bc_region,
    bergmans_rates,
    best_outage_rate,
    binary_entropy,
    bsc_capacity,
    capacity_vs_outage,
    discrete_expected_rate,
    discretize_density,
    euler_lhs,
    euler_residual,
    euler_rhs,
    expected_capacity_continuous,
    find_cutoffs,
    ge_expected_capacity,
    mean_state_capacity,
    optimize_discrete,
    parametric_expected_rate,
    parametric_profile,
    rate_profile,
    solve_euler_r,
    solve_layering,
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


def _brentq_euler_r(p, density):
    """The per-point Euler solve the array bisection replaced: Brent's
    method on LHS(p * r) = RHS(p), NaN where r = 0 and r = 1/2 give no
    sign change."""
    rhs = euler_rhs(p, density)
    if euler_lhs(max(p, EPS)) - rhs <= 0.0 or 2.0 - rhs >= 0.0:
        return float("nan")
    return brentq(lambda r: euler_lhs(p + r - 2.0 * p * r) - rhs, 0.0, 0.5, xtol=1e-12)


def _brentq_layering(density, num):
    """solve_layering's profile from one scalar Brent solve per point."""
    cut = find_cutoffs(density)
    grid = np.linspace(cut.p_l, cut.p_u, num)
    r = np.empty(num)
    r[0], r[-1] = 0.0, 0.5
    for i in range(1, num - 1):
        val = _brentq_euler_r(float(grid[i]), density)
        if math.isnan(val):
            val = 0.0 if grid[i] - cut.p_l < cut.p_u - grid[i] else 0.5
        r[i] = val
    return grid, np.maximum.accumulate(r)


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
    assert abs(euler_residual(0.15, r, UNIFORM)) < 1e-9
    # outside the cutoff band there is no root
    assert np.isnan(solve_euler_r(0.10, UNIFORM))
    assert np.isnan(solve_euler_r(0.20, UNIFORM))


@pytest.mark.parametrize("density, num", [
    (UNIFORM, 4097),
    (_triangle(), 1025),
    (_truncated_exponential(), 1025),
    (_beta(2.0, 3.0), 1025),
])
def test_solve_layering_matches_brentq_oracle(density, num):
    layer = solve_layering(density, num=num)
    grid, r = _brentq_layering(density, num)
    assert np.array_equal(layer.grid, grid)
    assert np.max(np.abs(layer.r - r)) <= 1e-11


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


def test_find_cutoffs_point_mass():
    cut = find_cutoffs(PointMassDensity(0.2))
    assert (cut.p_l, cut.p_u) == (0.2, 0.2)


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


def test_solve_layering_shape():
    layer = solve_layering(UNIFORM, num=513)
    cut = find_cutoffs(UNIFORM)
    assert layer.grid[0] == cut.p_l and layer.grid[-1] == cut.p_u
    assert layer.r[0] == 0.0 and layer.r[-1] == 0.5
    assert np.all(np.diff(layer.r) >= 0.0)
    # interior points satisfy the stationarity condition
    for i in (128, 256, 384):
        assert abs(euler_residual(float(layer.grid[i]), float(layer.r[i]), UNIFORM)) < 1e-6


def test_rate_profile_uniform():
    prof = rate_profile(solve_layering(UNIFORM))
    assert prof.rates[0] == pytest.approx(0.3814410858097629, abs=1e-12)
    assert prof.rates[-1] == 0.0
    assert np.all(np.diff(prof.rates) <= 1e-12)
    # plateau below p_l, nothing above p_u
    assert prof.rate_at(0.0) == prof.rates[0]
    assert prof.rate_at(0.3) == 0.0
    assert prof.rate_at(0.49) == 0.0


def test_rate_profile_constant_r_carries_nothing():
    g = np.linspace(0.1, 0.4, 101)
    prof = rate_profile(LayerProfile(g, np.full(101, 0.25)))
    assert np.abs(prof.rates).max() < 1e-15


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
    assert expected_capacity_continuous(UNIFORM) == pytest.approx(0.11734466657589292, abs=1e-12)
    assert expected_capacity_continuous(PointMassDensity(0.2)) == bsc_capacity(0.2)


def test_solved_profile_is_first_order_optimal():
    layer = solve_layering(UNIFORM)
    g, cut = layer.grid, find_cutoffs(UNIFORM)

    def functional(lay):
        prof = rate_profile(lay)
        return float(
            UNIFORM.cdf(lay.grid[0]) * prof.rates[0]
            + np.trapezoid(UNIFORM.pdf(lay.grid) * prof.rates, lay.grid)
        )

    base = functional(layer)
    assert base == pytest.approx(expected_capacity_continuous(UNIFORM), abs=1e-8)
    mid = g[g.size // 2]
    width = (cut.p_u - cut.p_l) / 20.0
    for sign in (1.0, -1.0):
        bump = sign * 1e-4 * np.exp(-(((g - mid) / width) ** 2))
        r = np.maximum.accumulate(np.clip(layer.r + bump, 0.0, 0.5))
        r[0], r[-1] = 0.0, 0.5
        assert functional(LayerProfile(g, r)) <= base + 1e-9


def test_expected_capacity_grid_convergence():
    # Observed: difference 4.2e-9 and order 1.91 (trapezoid plus central
    # differences are second order).
    c4, c8, c16 = (expected_capacity_continuous(UNIFORM, num=n) for n in (4097, 8193, 16385))
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


def test_expected_capacity_rejects_answer_below_outage_rate():
    # Two separated bands: the single-band Euler solve gives 0.1240
    # against a best outage rate of 0.1410.
    g = np.linspace(0.0, 0.4, 1025)
    bumps = 0.3 * np.exp(-0.5 * ((g - 0.1) / 0.02) ** 2) + 0.7 * np.exp(-0.5 * ((g - 0.25) / 0.02) ** 2)
    with pytest.raises(SolverError, match="below the best outage rate"):
        expected_capacity_continuous(_normalized(g, bumps))


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


def test_bergmans_rates_hand_case():
    rates = bergmans_rates([0.2], [0.0, 0.5])
    assert rates.shape == (1,)
    assert rates[0] == pytest.approx(bsc_capacity(0.2), abs=1e-15)
    two = bergmans_rates([0.05, 0.3], [0.0, 0.1, 0.5])
    assert two[0] == pytest.approx(
        binary_entropy(0.1 + 0.05 - 2 * 0.1 * 0.05) - binary_entropy(0.05), abs=1e-15
    )
    assert two[1] == pytest.approx(
        1.0 - binary_entropy(0.1 + 0.3 - 2 * 0.1 * 0.3), abs=1e-15
    )


def test_bergmans_rates_validation():
    with pytest.raises(ValueError):
        bergmans_rates([0.2], [0.0, 0.4])
    with pytest.raises(ValueError):
        bergmans_rates([0.2], [0.1, 0.5])
    with pytest.raises(ValueError):
        bergmans_rates([0.3, 0.2], [0.0, 0.1, 0.5])
    with pytest.raises(ValueError):
        bergmans_rates([0.2], [0.0, 0.3, 0.5])


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(0.01, 0.49),
    interior=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
)
def test_bergmans_rates_telescope(p, interior):
    # equal states: the cascade telescopes to the single-state capacity
    chain = np.concatenate([[0.0], np.sort(interior), [0.5]])
    states = np.full(chain.size - 1, p)
    total = float(bergmans_rates(states, chain).sum())
    assert total == pytest.approx(bsc_capacity(p), abs=1e-12)


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
    with pytest.raises(ValueError, match="bergmans_rates: r must be nondecreasing"):
        bergmans_rates([0.1, 0.2], [0.0, math.nan, 0.5])
    with pytest.raises(ValueError, match="bergmans_rates: states must be sorted"):
        bergmans_rates([0.1, math.nan], [0.0, 0.1, 0.5])
    with pytest.raises(ValueError, match="bergmans_rates: r must start at 0"):
        bergmans_rates([0.1, 0.2], [0.0, 0.1, math.inf])


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
    rule, then bisection on numpy scalars to the last float."""
    def s(r):
        return a * (1.0 - 2.0 * p) * layering._log_odds(r, p) - b * (1.0 - 2.0 * q) * layering._log_odds(r, q)

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
def test_two_state_argmax_matches_bisection_oracle(problem):
    got = layering._two_state_argmax(*problem)
    want = _bisection_two_state_argmax(*problem)
    assert type(got) is float
    branch = {0.0: "zero", 0.5: "half"}
    assert branch.get(got, "interior") == branch.get(float(want), "interior")
    if 0.0 < got < 0.5:
        assert abs(got - want) <= 1e-9 * want
        assert _two_state_objective(*problem, got) >= _two_state_objective(*problem, want) - 1e-15


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
    real = layering.rate_profile
    monkeypatch.setattr(layering, "rate_profile", lambda lay: RateProfile(lay.grid, 2.0 * real(lay).rates))
    with pytest.raises(SolverError, match="integral forms disagree"):
        expected_capacity_continuous(UNIFORM, num=257)


def test_discretize_density():
    w, p = discretize_density(UNIFORM, 4)
    assert np.array_equal(p, [0.125, 0.25, 0.375, 0.5])
    assert np.array_equal(w, [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        discretize_density(UNIFORM, 0)


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
    lay = parametric_profile(UNIFORM, "optimal-cutoff", 1.0, num=257)
    cut = find_cutoffs(UNIFORM)
    assert lay.grid[0] == cut.p_l and lay.grid[-1] == cut.p_u
    assert lay.r[0] == 0.0 and lay.r[-1] == 0.5
    full = parametric_profile(UNIFORM, "full-range", 2.0, num=257)
    assert full.grid[0] == 0.0 and full.grid[-1] == 0.5
    with pytest.raises(ValueError):
        parametric_profile(UNIFORM, "optimal-cutoff", 0.0)
    with pytest.raises(ValueError):
        parametric_profile(UNIFORM, "spiral", 1.0)


def test_parametric_rates_below_optimum():
    ce = expected_capacity_continuous(UNIFORM)
    oc = [parametric_expected_rate(UNIFORM, "optimal-cutoff", g) for g in (0.5, 1.0, 2.0)]
    fr = [parametric_expected_rate(UNIFORM, "full-range", g) for g in (0.5, 1.0, 2.0)]
    assert all(v <= ce + 1e-9 for v in oc + fr)
    assert max(oc) > max(fr)
    assert max(oc) == pytest.approx(ce, abs=1e-3)


def test_bec_bc_region():
    h = binary_entropy(0.11)
    assert bec_bc_region(0.1, 0.3, 0.11) == (0.9 * h, 0.7 * (1.0 - h))
    assert bec_bc_region(0.1, 0.3, 0.5) == (0.9, 0.0)
    assert bec_bc_region(0.1, 0.3, 0.0) == (0.0, 0.7)
    with pytest.raises(ValueError):
        bec_bc_region(0.3, 0.1, 0.11)
    with pytest.raises(ValueError):
        bec_bc_region(0.1, 0.3, 0.7)


def test_bec_bc_expected_rate():
    assert bec_bc_expected_rate(0.1, 0.3) == 0.7
    assert bec_bc_expected_rate(0.1, 0.3, w1=1.0) == 0.9
    assert bec_bc_expected_rate(0.1, 0.3, w1=0.0) == 0.7
    # all-common vs all-private crossover
    assert bec_bc_expected_rate(0.1, 0.9, w1=0.5) == 0.45
    with pytest.raises(ValueError):
        bec_bc_expected_rate(0.1, 0.3, w1=1.5)


@settings(max_examples=40, deadline=None)
@given(
    a1=st.floats(0.0, 0.8),
    gap=st.floats(0.01, 0.19),
    w1=st.floats(0.0, 1.0),
)
def test_bec_bc_expected_rate_is_endpoint_max(a1, gap, w1):
    a2 = min(a1 + gap, 1.0)
    got = bec_bc_expected_rate(a1, a2, w1)
    assert got == max(1.0 - a2, w1 * (1.0 - a1))
    # no interior auxiliary parameter beats the endpoints
    for p in (0.1, 0.25, 0.4):
        r1, r12 = bec_bc_region(a1, a2, p)
        assert r12 + w1 * r1 <= got + 1e-12
