import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from chancap import (
    BecState,
    BscState,
    CapacityBounds,
    ContinuousBscComposite,
    DiscreteComposite,
    EmpiricalCdf,
    GilbertElliott,
    bec_capacity,
    best_outage_rate,
    binary_entropy,
    bsc_capacity,
    capacity_from_spectrum,
    capacity_vs_outage,
    discretize_density,
    expected_capacity_bounds,
    limit_spectrum_cdf,
    mean_state_capacity,
    outage_curve,
    shannon_capacity,
)


def _bsc(pairs):
    ps, ws = zip(*pairs)
    return DiscreteComposite(tuple(BscState(p) for p in ps), list(ws))


UNIFORM = ContinuousBscComposite.uniform()
ATOMIC = _bsc([(0.01, 0.9), (0.49, 0.1)])
THREE = _bsc([(0.05, 0.5), (0.2, 0.3), (0.45, 0.2)])


def test_shannon_capacity_worst_state():
    assert shannon_capacity(_bsc([(0.05, 0.5), (0.3, 0.5)])) == bsc_capacity(0.3)
    # support-set invariance: the pmf matters only through its support
    assert shannon_capacity(_bsc([(0.05, 0.9), (0.3, 0.1)])) == bsc_capacity(0.3)
    assert shannon_capacity(_bsc([(0.05, 1.0), (0.3, 0.0)])) == bsc_capacity(0.05)
    bec = DiscreteComposite((BecState(0.2), BecState(0.7)), [0.5, 0.5])
    assert shannon_capacity(bec) == 1.0 - 0.7
    # the uniform crossover family reaches p = 1/2, a zero-capacity state
    assert shannon_capacity(UNIFORM) == 0.0


def test_shannon_capacity_gilbert_elliott():
    frozen = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)
    assert shannon_capacity(frozen) == bsc_capacity(0.3)
    ergodic = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5)
    pi_g, pi_b = ergodic.stationary()
    want = pi_g * bsc_capacity(0.05) + pi_b * bsc_capacity(0.3)
    assert shannon_capacity(ergodic) == want


def test_capacity_vs_outage_uniform_closed_form():
    for q in np.linspace(0.0, 0.95, 20):
        assert capacity_vs_outage(UNIFORM, float(q)) == bsc_capacity((1.0 - q) / 2.0)
    assert capacity_vs_outage(UNIFORM, 0.5) == 0.18872187554086717


def test_capacity_vs_outage_atom_convention():
    # an atom joins the outage set only when its whole mass fits under q
    assert capacity_vs_outage(ATOMIC, 0.1) == bsc_capacity(0.01)
    assert capacity_vs_outage(ATOMIC, 0.0999) == bsc_capacity(0.49)
    assert capacity_vs_outage(ATOMIC, 0.2) == bsc_capacity(0.01)


def test_capacity_vs_outage_three_state():
    assert capacity_vs_outage(THREE, 0.19) == bsc_capacity(0.45)
    assert capacity_vs_outage(THREE, 0.2) == bsc_capacity(0.2)
    assert capacity_vs_outage(THREE, 0.49) == bsc_capacity(0.2)
    assert capacity_vs_outage(THREE, 0.5) == bsc_capacity(0.05)


def test_capacity_vs_outage_domain():
    with pytest.raises(ValueError):
        capacity_vs_outage(UNIFORM, 1.0)
    with pytest.raises(ValueError):
        capacity_vs_outage(UNIFORM, -0.1)


def test_capacity_vs_outage_ergodic_ge_is_flat():
    ergodic = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5)
    c = shannon_capacity(ergodic)
    for q in (0.0, 0.3, 0.9):
        assert capacity_vs_outage(ergodic, q) == c


def test_outage_curve():
    grid = np.linspace(0.0, 0.9, 10)
    curve = outage_curve(UNIFORM, grid)
    assert np.array_equal(curve.q, grid)
    assert np.all(np.diff(curve.c_q) >= 0.0)
    assert curve.c_q[0] == shannon_capacity(UNIFORM)
    assert np.array_equal(curve.outage_capacity, (1.0 - grid) * curve.c_q)
    with pytest.raises(ValueError):
        outage_curve(UNIFORM, [])
    with pytest.raises(ValueError):
        outage_curve(UNIFORM, [0.5, 1.0])
    # NaN fails every comparison; it used to get the C_q of the best state.
    with pytest.raises(ValueError, match="outage_curve"):
        outage_curve(GilbertElliott(0.05, 0.3, 0.0, 0.0, 0.5), [np.nan, 0.2])


def test_best_outage_rate_discrete():
    q_star, value = best_outage_rate(ATOMIC)
    assert q_star == 0.1
    assert value == 0.82728617769368
    assert value == pytest.approx(0.9 * bsc_capacity(0.01), abs=1e-15)
    # single state: never worth declaring an outage
    q_star, value = best_outage_rate(_bsc([(0.2, 1.0)]))
    assert (q_star, value) == (0.0, bsc_capacity(0.2))


def test_best_outage_rate_uniform():
    q_star, value = best_outage_rate(UNIFORM)
    assert q_star == pytest.approx(0.6909078264720224, abs=1e-5)
    assert value == pytest.approx(0.11711474003319604, abs=1e-9)
    # stationarity of (1-q)(1 - h((1-q)/2)) at the optimum
    eps = 1e-4
    f = lambda q: (1.0 - q) * capacity_vs_outage(UNIFORM, q)
    assert f(q_star) >= f(q_star - eps) - 1e-12
    assert f(q_star) >= f(q_star + eps) - 1e-12


def _gridded(f, top, num):
    g = np.linspace(0.0, top, num)
    dens = f(g / top)
    return ContinuousBscComposite(g, dens / np.trapezoid(dens, g))


# One density of each kind the benchmark draws, on its grid sizes.
OUTAGE_LAWS = {
    "uniform": UNIFORM,
    "beta": _gridded(lambda x: x ** 1.6 * (1.0 - x) ** 2.3, 0.42, 1025),
    "triangle": _gridded(lambda x: 1.0 - x, 0.45, 2049),
    "truncexp": _gridded(lambda x: np.exp(-2.4 * x), 0.35, 513),
    "twobump": _gridded(
        lambda x: 0.4 * np.exp(-0.5 * ((x - 0.3) / 0.1) ** 2) + 0.6 * np.exp(-0.5 * ((x - 0.7) / 0.12) ** 2),
        0.4, 1025,
    ),
}


def _golden_section_best_outage(law):
    """The former density branch of best_outage_rate: the 1024-point
    scan, then bounded Brent on scalar C_q calls (xatol 1e-6)."""
    qs = np.linspace(0.0, 1.0, 1024, endpoint=False)
    k = int(np.argmax(outage_curve(law, qs).outage_capacity))
    res = minimize_scalar(
        lambda q: -(1.0 - q) * capacity_vs_outage(law, q),
        bounds=(qs[max(k - 1, 0)], qs[min(k + 1, qs.size - 1)]),
        method="bounded",
        options={"xatol": 1e-6},
    )
    return float(res.x), -float(res.fun)


@pytest.mark.parametrize("name", list(OUTAGE_LAWS))
def test_best_outage_rate_density_matches_oracles(name):
    law = OUTAGE_LAWS[name]
    q_star, value = best_outage_rate(law)
    q_oracle, v_oracle = _golden_section_best_outage(law)
    assert value >= v_oracle - 1e-12
    assert q_star == pytest.approx(q_oracle, abs=1e-5)
    fine = outage_curve(law, np.linspace(0.0, 1.0, 2 ** 16, endpoint=False))
    assert value >= fine.outage_capacity.max() - 1e-12
    assert value == (1.0 - q_star) * capacity_vs_outage(law, q_star)


def test_best_outage_rate_density_optimum_at_q_0():
    # f ~ p^3 on [0, 0.2]: the worst state carries almost no mass, so no
    # outage is best.  q = 0 is a bracket end, which a golden-section
    # polish never evaluates (it returned q = 3.8e-7, 6.8e-8 low).
    g = np.linspace(0.0, 0.2, 1025)
    cubic = ContinuousBscComposite(g, g ** 3 / np.trapezoid(g ** 3, g))
    assert best_outage_rate(cubic) == (0.0, bsc_capacity(0.2))


@pytest.mark.parametrize("law", [
    _gridded(lambda x: 1.0 - x, 0.4, 257),
    _gridded(lambda x: x * (1.0 - x) ** 2, 0.4, 1025),
], ids=["triangle", "beta"])
def test_density_support_edge_is_one_point(law):
    # f vanishes at the last grid point only: the interpolated pdf is
    # positive up to it, so the worst supported state is p = 0.4, for
    # the Shannon capacity, C_0 and the quantized ladder alike.
    assert law.pdf(0.3985) > 0.0
    assert shannon_capacity(law) == 1.0 - binary_entropy(0.4)
    assert abs(shannon_capacity(law) - capacity_vs_outage(law, 0.0)) <= 1e-12
    assert discretize_density(law, 64)[1][-1] == 0.4


def test_best_outage_rate_ergodic_ge():
    ergodic = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5)
    assert best_outage_rate(ergodic) == (0.0, shannon_capacity(ergodic))


def test_limit_spectrum_cdf_rejects_non_finite_alpha():
    # A NaN alpha used to get a limit cdf of 1.
    for channel in (GilbertElliott(0.05, 0.3, 0.0, 0.0, 0.5), UNIFORM):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="limit_spectrum_cdf: alphas must be finite"):
                limit_spectrum_cdf(channel, np.array([bad, 0.5]))


def test_capacity_from_spectrum():
    cdf = EmpiricalCdf(np.array([0.1, 0.2, 0.3, 0.4]), np.array([1, 2, 3, 4]), blocklength=8, trials=4)
    assert capacity_from_spectrum(cdf, 0.5) == 0.3
    assert capacity_from_spectrum(cdf, 0.0) == 0.1
    # The same draws as two cells of two: the third draw is 0.3.
    cells = EmpiricalCdf(np.array([0.1, 0.3]), np.array([2, 4]), blocklength=8, trials=4)
    assert capacity_from_spectrum(cells, 0.5) == 0.3
    assert capacity_from_spectrum(cells, 0.0) == 0.1


def test_mean_state_capacity():
    # uniform density: 2 * integral of 1 - h(p) over [0, 1/2] = 1 - 1/(2 ln 2)
    assert mean_state_capacity(UNIFORM) == 1.0 - 1.0 / (2.0 * math.log(2.0))
    target, _ = quad(lambda p: 2.0 * (1.0 - binary_entropy(p)), 0.0, 0.5)
    assert mean_state_capacity(UNIFORM) == pytest.approx(target, abs=1e-15)
    two = _bsc([(0.05, 0.7), (0.3, 0.3)])
    assert mean_state_capacity(two) == 0.7 * bsc_capacity(0.05) + 0.3 * bsc_capacity(0.3)
    bec = DiscreteComposite((BecState(0.2), BecState(0.6)), [0.5, 0.5])
    assert mean_state_capacity(bec) == 0.5 * 0.8 + 0.5 * 0.4
    ge = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.7)
    assert mean_state_capacity(ge) == 0.7 * bsc_capacity(0.05) + 0.3 * bsc_capacity(0.3)


def test_expected_capacity_bounds():
    for comp in (UNIFORM, ATOMIC, THREE, GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)):
        bounds = expected_capacity_bounds(comp)
        assert bounds.lower <= bounds.upper
    with pytest.raises(ValueError):
        CapacityBounds(lower=0.5, upper=0.4)


@st.composite
def discrete_bsc(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    params = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
    total = sum(weights)
    return _bsc([(p, w / total) for p, w in zip(params, weights)])


@settings(max_examples=60, deadline=None)
@given(comp=discrete_bsc(), q1=st.floats(0.0, 0.98), q2=st.floats(0.0, 0.98))
# An atom of mass 1e-13 is supported, so it bounds C_0 as it bounds the
# Shannon capacity; an absolute 1e-12 allowance let it fit under q = 0.
@example(comp=_bsc([(0.01, 1.0 - 1e-13), (0.4, 1e-13)]), q1=0.0, q2=0.0)
def test_capacity_vs_outage_monotone(comp, q1, q2):
    lo, hi = sorted((q1, q2))
    assert capacity_vs_outage(comp, lo) <= capacity_vs_outage(comp, hi) + 1e-15
    assert capacity_vs_outage(comp, 0.0) == shannon_capacity(comp)


@settings(max_examples=60, deadline=None)
@given(comp=discrete_bsc())
def test_best_outage_dominates_grid(comp):
    _, value = best_outage_rate(comp)
    for q in np.linspace(0.0, 0.95, 24):
        assert value >= (1.0 - q) * capacity_vs_outage(comp, float(q)) - 1e-12


def _greedy_c_q(composite, q):
    """C_q by the per-point greedy loop outage_curve replaced: drop
    states worst-first while each whole atom still fits under q.  None
    where every atom fits (q within rounding of 1), which the loop
    treated as unreachable."""
    if isinstance(composite, GilbertElliott):
        composite = composite.as_composite()
    params, weights = composite.params, composite.pmf
    removed = 0.0
    for i in np.argsort(-params):
        if weights[i] == 0.0:
            continue
        if removed + weights[i] <= q * (1.0 + 1e-12):
            removed += weights[i]
        else:
            return bsc_capacity(params[i]) if composite.family == "bsc" else 1.0 - params[i]
    return None


@st.composite
def _outage_composites(draw):
    """BSC or BEC composites with tied parameters and zero-mass atoms,
    or a frozen Gilbert-Elliott channel."""
    if draw(st.booleans()):
        p_good = draw(st.floats(0.0, 0.49))
        p_bad = draw(st.floats(p_good, 0.5).filter(lambda p: p > p_good))
        return GilbertElliott(p_good, p_bad, g=0.0, b=0.0, pi_good=draw(st.floats(0.0, 1.0)))
    family = draw(st.sampled_from(["bsc", "bec"]))
    top = 0.5 if family == "bsc" else 1.0
    pool = draw(st.lists(st.floats(0.0, top), min_size=1, max_size=4))
    k = draw(st.integers(1, 8))
    params = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)), dtype=float)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    state = BscState if family == "bsc" else BecState
    return DiscreteComposite(tuple(state(p) for p in params), weights / weights.sum())


@settings(max_examples=200, deadline=None)
@given(comp=_outage_composites(), qs=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6))
# The scalar and array entropies once differed in the last bit here.
@example(comp=GilbertElliott(0.13211697676985767, 0.5, g=0.0, b=0.0, pi_good=1.0), qs=[])
# Crossovers an ulp apart whose capacities round out of order.
@example(comp=GilbertElliott(0.39920440259575163, 0.3992044025957517, g=0.0, b=0.0, pi_good=0.5), qs=[])
def test_outage_curve_matches_greedy_oracle(comp, qs):
    law = comp.as_composite() if isinstance(comp, GilbertElliott) else comp
    masses = np.cumsum(law.pmf[np.argsort(-law.params)])
    grid = np.concatenate([qs, [0.0], masses, masses - 1e-12, masses + 1e-12, masses + 2e-12])
    grid = grid[(grid >= 0.0) & (grid < 1.0)]
    curve = outage_curve(comp, grid)
    want = [_greedy_c_q(comp, float(q)) for q in grid]
    kept = np.array([w is not None for w in want])
    assert np.array_equal(curve.c_q[kept], [w for w in want if w is not None])
    # Past every atom the best supported state is kept.
    best = law.params[law.pmf > 0.0].min()
    assert np.all(curve.c_q[~kept] == (bsc_capacity(best) if law.family == "bsc" else 1.0 - best))
    # The law's noisiest-first order is the per-call sort it replaced.
    state = comp.law
    assert np.array_equal(state.worst, np.argsort(-state.params))
    assert np.array_equal(state.worst_mass, np.cumsum(state.mass[state.worst]))
    for arr in (state.worst, state.worst_mass):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert best_outage_rate(comp) == _sorting_best_outage_rate(state)


def _sorting_best_outage_rate(law):
    """best_outage_rate of a discrete law as it was before the law kept
    its order: an argsort of -params, two gathers and a cumsum per call.
    The mass out of outage is summed from the best state."""
    order = np.argsort(-law.params)
    caps, weights = law.caps[order], law.mass[order]
    masses = np.concatenate([[0.0], np.cumsum(weights)])
    kept = masses * (1.0 + 1e-12) < 1.0
    candidates = masses[kept]
    upper = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])[kept]
    idx = np.searchsorted(np.cumsum(weights), candidates * (1.0 + 1e-12), side="right")
    values = upper * caps[np.minimum(idx, np.nonzero(weights)[0][-1])]
    best_q, best_v = 0.0, -np.inf
    for qc, v in zip(candidates.tolist(), values.tolist()):
        if v > best_v + 1e-15:
            best_q, best_v = qc, v
    return best_q, best_v


def test_ergodic_law_is_one_atom_in_identity_order():
    law = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5).law
    assert law.worst.tolist() == [0] and law.worst_mass.tolist() == [1.0]


def _masked_sum_limit_cdf(channel, alphas):
    """The limit spectrum as the command line computed it before
    limit_spectrum_cdf: one masked pmf sum per alpha."""
    if isinstance(channel, GilbertElliott):
        if channel.is_ergodic:
            pi_g, pi_b = channel.stationary()
            c = pi_g * bsc_capacity(channel.p_good) + pi_b * bsc_capacity(channel.p_bad)
            return (alphas >= c - 1e-15).astype(float)
        channel = channel.as_composite()
    caps = np.array([bsc_capacity(s.crossover) if isinstance(s, BscState) else bec_capacity(s.erasure)
                     for s in channel.states])
    return np.array([float(channel.pmf[caps <= a + 1e-15].sum()) for a in alphas])


@st.composite
def _ergodic_ge(draw):
    p_good = draw(st.floats(0.0, 0.49))
    p_bad = draw(st.floats(p_good, 0.5).filter(lambda p: p > p_good))
    g, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    assume(g + b > 0.0)
    return GilbertElliott(p_good, p_bad, g=g, b=b, pi_good=draw(st.floats(0.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(comp=st.one_of(_outage_composites(), _ergodic_ge()),
       alphas=st.lists(st.floats(-0.1, 1.1), max_size=6))
def test_limit_spectrum_cdf_matches_masked_sum(comp, alphas):
    caps = comp.law.caps
    # Shannon capacity is C_0; the per-law rule it replaced took the
    # worst state of positive mass.
    order = np.argsort(-comp.law.params) if comp.law.params is not None else [0]
    assert shannon_capacity(comp) == caps[order][np.flatnonzero(comp.law.mass[order])[0]]
    grid = np.concatenate([alphas, np.linspace(0.0, 1.0, 11), caps, caps - 1e-15, caps + 1e-15])
    got = limit_spectrum_cdf(comp, grid)
    want = _masked_sum_limit_cdf(comp, grid)
    if comp.law.params is None:
        # The ergodic branch rounded the 1e-15 slack as alpha >= c - 1e-15,
        # the atoms as c <= alpha + 1e-15.  Within an ulp of the boundary
        # the two can disagree, and the one form keeps the atoms' rounding.
        edge = np.abs(grid - (caps[0] - 1e-15)) <= np.spacing(1.0)
        want = np.where(edge, caps[0] <= grid + 1e-15, want)
    assert np.all(np.abs(got - want) <= 1e-15)
    assert np.all(np.diff(got[np.argsort(grid, kind="stable")]) >= 0.0)
