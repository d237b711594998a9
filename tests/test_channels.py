import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import xlogy

import chancap

from chancap import (
    ERASURE,
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
    bec_capacity,
    binary_entropy,
    bsc_capacity,
    estimate_spectrum,
    sample_state,
    shannon_capacity,
    simulate_outage_code_sweep,
    star,
    transmit,
)
from chancap.channels import _entropy_bits, _entropy_inverse

probs = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_value():
    # frozen from direct high-precision evaluation of -x log2 x - (1-x) log2 (1-x)
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-14)


def test_binary_entropy_symmetry_and_arrays():
    p = np.array([0.1, 0.25, 0.4])
    assert np.allclose(binary_entropy(p), binary_entropy(1.0 - p))
    assert binary_entropy(p).shape == p.shape


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError, match="binary_entropy: argument must lie in"):
        binary_entropy(np.array([0.2, 1.5]))
    with pytest.raises(ValueError, match="binary_entropy: argument must lie in"):
        binary_entropy(np.float64(-1e-300))
    # NaN fails every comparison, so it must fail the range check too.
    for bad in (np.nan, np.array([0.2, np.nan])):
        with pytest.raises(ValueError, match="binary_entropy: argument must lie in"):
            binary_entropy(bad)


def _xlogy_entropy(p):
    """The former scipy formula, kept as an oracle."""
    arr = np.asarray(p, dtype=float)
    return -(xlogy(arr, arr) + xlogy(1.0 - arr, 1.0 - arr)) / np.log(2.0)


_unit_floats = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0 - 2.0**-53]),
    st.floats(0.0, 1e-300),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=_unit_floats))
def test_binary_entropy_matches_xlogy_oracle(x):
    want = _xlogy_entropy(x)
    assert np.max(np.abs(binary_entropy(x) - want)) <= 1e-15
    for v, w in zip(x.tolist(), want.tolist()):
        assert abs(binary_entropy(v) - w) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=_unit_floats | st.floats(0.99, 1.0)))
@example(np.array([0.13211697676985767]))
def test_binary_entropy_scalar_equals_array_bit_for_bit(x):
    # Both shapes take numpy's log.  libm's log differs from it in the
    # last bit on some inputs, such as the example (0.43678445072016325
    # against ...336 for 1 - h).
    arr = binary_entropy(x)
    assert np.array([binary_entropy(v) for v in x.tolist()]).tobytes() == arr.tobytes()


def test_binary_entropy_scalar_returns_float():
    for v in (0.3, np.float64(0.3), np.array(0.3), 0, 1):
        assert type(binary_entropy(v)) is float
    assert binary_entropy(np.array(0.3)) == binary_entropy(0.3)
    assert isinstance(binary_entropy([0.3]), np.ndarray)


def _bisection_entropy_inverse(t):
    """The oracle: 66 halvings of [0, 1/2] for all t at once, keeping
    each midpoint whose computed h is at most t (p within 1e-20)."""
    p, half = np.zeros(t.shape), 0.5
    for _ in range(66):
        half *= 0.5
        mid = p + half
        np.copyto(p, mid, where=_entropy_bits(mid) <= t)
    return p


def test_entropy_inverse_matches_bisection():
    # Near t = 1 the root is ill-conditioned: dp/dt = 1/h'(p), and both
    # methods find a root of the computed h, which is fixed only to
    # about 1e-16 in t.  At t = 1 - 1e-12 the two differ by 5e-11 in p
    # (the bisection itself is 5e-11 from the exact root there).  So the
    # gap is bounded by 1e-15 in p plus 1e-15 in t, carried through h'.
    edges = np.array([0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0])
    dense = np.linspace(0.0, 1.0, 100001)
    for t in (edges, dense, np.logspace(-300, 0, 3001)):
        got, want = _entropy_inverse(t), _bisection_entropy_inverse(t)
        slope = np.log2((1.0 - want) / np.maximum(want, 1e-300))
        with np.errstate(divide="ignore"):
            assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + 1.0 / slope))
    got = _entropy_inverse(edges)
    assert got[0] == 0.0 and got[-1] == 0.5
    assert np.all(np.diff(_entropy_inverse(dense)) >= 0.0)


def _modules_after(code: str, prefix: str) -> str:
    """The modules under `prefix` loaded in a fresh interpreter after `code`."""
    src = str(Path(chancap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    assert _modules_after("import chancap", "scipy") == "[]"


def test_thread_pool_loads_only_past_one_block():
    # concurrent.futures costs milliseconds to import, so neither the
    # import nor a one-block density spectrum may load it; two blocks do.
    draw = "import chancap\nchancap.estimate_spectrum(chancap.ContinuousBscComposite.uniform(), 50, {}, 0)"
    assert _modules_after("import chancap", "concurrent") == "[]"
    assert _modules_after(draw.format(2**14), "concurrent") == "[]"
    assert "'concurrent.futures'" in _modules_after(draw.format(2**14 + 1), "concurrent")


def test_star_values():
    assert star(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)
    assert star(0.3, 0.0) == 0.3
    assert star(0.3, 0.5) == 0.5


def test_star_rejects_nan():
    for a, b in ((np.nan, 0.1), (0.1, np.nan), (np.array([0.1, np.nan]), 0.2)):
        with pytest.raises(ValueError, match="star: arguments must lie in"):
            star(a, b)


@given(probs, probs)
def test_star_range_and_symmetry(a, b):
    v = star(a, b)
    assert max(a, b) - 1e-12 <= v <= 0.5 + 1e-12
    assert v == pytest.approx(star(b, a), abs=1e-15)


@given(probs, probs)
def test_star_never_decreases_entropy(a, b):
    # cascading BSCs is degrading: the combined crossover is closer to 1/2
    assert binary_entropy(star(a, b)) >= binary_entropy(a) - 1e-12


def test_capacity_helpers():
    assert bsc_capacity(0.0) == 1.0
    assert bsc_capacity(0.5) == 0.0
    assert bsc_capacity(0.11) == pytest.approx(1.0 - 0.499915958164528, abs=1e-14)
    assert bec_capacity(0.3) == pytest.approx(0.7, abs=1e-15)
    for bad in (np.nan, np.array([0.2, np.nan])):
        with pytest.raises(ValueError, match="bec_capacity: erasure probability must lie in"):
            bec_capacity(bad)


def test_state_types():
    assert BscState(0.1).crossover == 0.1
    assert BecState(0.25).erasure == 0.25
    with pytest.raises(ValueError):
        BscState(-0.1)
    with pytest.raises(ValueError):
        BecState(1.5)


def test_discrete_composite_validation():
    states = (BscState(0.1), BscState(0.3))
    DiscreteComposite(states, (0.4, 0.6))
    with pytest.raises(ValueError):
        DiscreteComposite(states, (0.4, 0.4))  # pmf does not sum to 1
    with pytest.raises(ValueError):
        DiscreteComposite(states, (-0.1, 1.1))
    with pytest.raises(ValueError):
        DiscreteComposite((BscState(0.1), BecState(0.3)), (0.5, 0.5))
    # every comparison with NaN is false, so NaN must be rejected explicitly
    with pytest.raises(ValueError, match="finite"):
        DiscreteComposite(states, (np.nan, np.nan))
    with pytest.raises(ValueError):
        DiscreteComposite(states, (np.nan, 1.0))


def test_discrete_composite_support():
    dc = DiscreteComposite((BscState(0.1), BscState(0.3), BscState(0.2)), (0.5, 0.0, 0.5))
    assert dc.family == "bsc"
    # The zero-mass state stays in the law but is outside the support.
    assert tuple(dc.params) == (0.1, 0.3, 0.2)
    assert shannon_capacity(dc) == bsc_capacity(0.2)


def test_uniform_density():
    u = ContinuousBscComposite.uniform()
    assert u.support_sup() == 0.5
    assert float(u.cdf(0.25)) == pytest.approx(0.5, abs=1e-15)
    assert float(u.pdf(0.1)) == pytest.approx(2.0, abs=1e-12)
    assert float(u.inverse_cdf(0.5)) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError, match="inverse_cdf: u must lie in"):
        u.inverse_cdf(np.nan)
    # density integrates to one on its grid
    assert np.trapezoid(u.density, u.grid) == pytest.approx(1.0, abs=1e-9)



def test_uniform_preset_is_derived_from_the_density():
    grid = np.linspace(0.0, 0.5, 101)
    assert ContinuousBscComposite(grid, np.full(101, 2.0)).analytic_preset == "uniform"
    tri = ContinuousBscComposite(grid, 8.0 * (0.5 - grid))
    assert tri.analytic_preset is None
    shifted = np.linspace(0.1, 0.4, 51)
    assert ContinuousBscComposite(shifted, np.full(51, 1.0 / 0.3)).analytic_preset is None
    # A preset passed in used to replace the triangle's own C_q and cdf
    # with the uniform law's.
    with pytest.raises(TypeError):
        ContinuousBscComposite(grid, 8.0 * (0.5 - grid), analytic_preset="uniform")
    with pytest.raises(TypeError):
        ContinuousBscComposite(grid, np.full(101, 2.0), _cum=2.0 * grid)

def _normalized(g, f):
    return ContinuousBscComposite(g, f / np.trapezoid(f, g))


_G257, _G1025 = np.linspace(0.0, 0.5, 257), np.linspace(0.0, 0.4, 1025)
SMOOTH_BUMP = _normalized(_G257, 0.3 + np.exp(-(((_G257 - 0.15) / 0.06) ** 2)))
TWO_BUMPS = _normalized(_G1025, 0.3 * np.exp(-0.5 * ((_G1025 - 0.1) / 0.02) ** 2)
                      + 0.7 * np.exp(-0.5 * ((_G1025 - 0.25) / 0.02) ** 2))


@st.composite
def piecewise_laws(draw):
    """Piecewise-linear densities on nonuniform grids within [0, 1/2]:
    zero cells and f = 0 at either end are among the draws."""
    n = draw(st.integers(2, 24))
    lo = draw(st.floats(0.0, 0.4))
    top = draw(st.floats(lo + 0.01, 0.5))
    widths = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1)))
    grid = lo + (top - lo) * np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    grid[-1] = top
    values = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))
    f = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    mass = np.trapezoid(f, grid)
    assume(mass > 0.0)
    return ContinuousBscComposite(grid, f / mass)


# Points inside grid cells: (cell as a fraction of the cell count,
# position as a fraction of the cell width).
cell_points = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8)


def _in_cell(law, cell, frac):
    g = law.grid
    k = min(int(cell * (g.size - 1)), g.size - 2)
    return k, min(float(g[k] + frac * (g[k + 1] - g[k])), float(g[k + 1]))


@settings(max_examples=200, deadline=None)
@given(law=piecewise_laws(), left=cell_points, right=st.floats(0.0, 1.0))
@example(law=SMOOTH_BUMP, left=[(0.3, 0.2), (0.99, 0.9)], right=1.0)
@example(law=TWO_BUMPS, left=[(0.25, 0.0), (0.62, 0.5)], right=0.7)
def test_density_cdf_is_the_exact_integral_of_pdf(law, left, right):
    # In a cell f is linear, so the trapezoid rule is exact for it.
    for cell, frac in left:
        k, a = _in_cell(law, cell, frac)
        b = min(a + right * (float(law.grid[k + 1]) - a), float(law.grid[k + 1]))
        trap = (b - a) * (law.pdf(a) + law.pdf(b)) / 2.0
        assert abs(law.cdf(b) - law.cdf(a) - trap) <= 1e-15 * law.cdf(b)


@settings(max_examples=200, deadline=None)
@given(law=piecewise_laws(), points=cell_points)
@example(law=SMOOTH_BUMP, points=[(0.3, 0.2), (0.99, 0.9)])
@example(law=TWO_BUMPS, points=[(0.25, 0.0), (0.62, 0.5)])
def test_density_inverse_cdf_inverts_cdf(law, points):
    # Exactly at the first knot and at each knot that ends a cell with
    # mass (other knots sit on a plateau of F, which resolves to its
    # left edge), the top of the support included.
    cum = law.cdf(law.grid)
    own = np.concatenate([[True], cum[1:] > cum[:-1]])
    assert np.array_equal(law.inverse_cdf(cum[own]), law.grid[own])
    assert law.inverse_cdf(1.0) == law.support_sup()
    # Inside a cell to 1e-12 where f >= 1e-3: one ulp of F moves p by
    # about 1e-16 / f, so that is as close as F pins p down.
    for cell, frac in points:
        _, p = _in_cell(law, cell, frac)
        if law.pdf(p) >= 1e-3:
            assert abs(law.inverse_cdf(law.cdf(p)) - p) <= 1e-12


def test_density_validation():
    grid = np.linspace(0.1, 0.4, 51)
    f = np.full(51, 1.0 / 0.3)
    ContinuousBscComposite(grid, f)
    with pytest.raises(ValueError):
        ContinuousBscComposite(grid, 2.0 * f)  # mass 2
    with pytest.raises(ValueError):
        ContinuousBscComposite(grid[::-1], f)  # decreasing grid
    for bad in (np.nan, np.inf):
        g = grid.copy()
        g[25] = bad
        with pytest.raises(ValueError, match="grid"):
            ContinuousBscComposite(g, f)
        dens = f.copy()
        dens[25] = bad
        with pytest.raises(ValueError, match="finite"):
            ContinuousBscComposite(grid, dens)
    g = grid.copy()
    g[0] = np.nan
    with pytest.raises(ValueError, match="grid"):
        ContinuousBscComposite(g, f)


def test_gilbert_elliott_stationary():
    ge = GilbertElliott(0.05, 0.3, g=0.1, b=0.05, pi_good=0.5)
    pi = ge.stationary()
    assert pi == pytest.approx((2.0 / 3.0, 1.0 / 3.0), abs=1e-15)
    assert ge.is_ergodic


def test_gilbert_elliott_frozen():
    ge = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.7)
    assert not ge.is_ergodic
    assert ge.stationary() == (0.7, 1.0 - 0.7)
    comp = ge.as_composite()
    assert tuple(comp.params) == (0.05, 0.3)
    assert tuple(comp.pmf) == (0.7, 1.0 - 0.7)


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliott(0.3, 0.05, g=0.1, b=0.1, pi_good=0.5)  # p_good >= p_bad
    with pytest.raises(ValueError):
        GilbertElliott(0.05, 0.3, g=1.5, b=0.1, pi_good=0.5)


def test_transmit_bsc():
    x = np.zeros(64, dtype=np.int8)
    y = transmit(BscState(0.0), x, seed=0)
    assert np.array_equal(y, x)
    y = transmit(BscState(0.5), x, seed=0)
    assert set(np.unique(y)) <= {0, 1}
    assert 10 <= int(y.sum()) <= 54


def test_transmit_bec():
    x = np.ones(32, dtype=np.int8)
    y = transmit(BecState(1.0), x, seed=0)
    assert np.all(y == ERASURE)
    y = transmit(BecState(0.0), x, seed=0)
    assert np.array_equal(y, x)


def test_sample_state_deterministic():
    dc = DiscreteComposite((BscState(0.1), BscState(0.3)), (0.5, 0.5))
    assert sample_state(dc, seed=5) == sample_state(dc, seed=5)


def test_sample_state_and_transmit_draw_from_a_given_generator():
    # A Generator passed as the seed is used as is: the draws continue
    # its stream, exactly as drawing from it directly.
    dc = DiscreteComposite((BscState(0.1), BscState(0.3)), (0.5, 0.5))
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    states = [sample_state(dc, rng) for _ in range(20)]
    assert states == [BscState((0.1, 0.3)[int(ref.choice(2, p=dc.law.mass))]) for _ in range(20)]
    uniform = ContinuousBscComposite.uniform()
    assert sample_state(uniform, rng) == BscState(float(uniform.sample(ref, 1)[0]))
    x = np.zeros(64, dtype=np.int8)
    assert np.array_equal(transmit(BscState(0.3), x, rng), (ref.random(64) < 0.3).astype(np.int8))
    y = transmit(BecState(0.4), x, rng)
    assert np.array_equal(y, np.where(ref.random(64) < 0.4, ERASURE, 0).astype(np.int8))


def test_sample_state_rejects_ergodic_gilbert_elliott():
    # An ergodic chain keeps moving, so there is no frozen state to draw.
    ergodic = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5)
    with pytest.raises(ValueError, match="ergodic"):
        sample_state(ergodic, seed=0)
    frozen = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)
    assert sample_state(frozen, seed=0) in (BscState(0.05), BscState(0.3))


@pytest.mark.parametrize(
    "draw",
    [
        lambda ch: sample_state(ch, seed=0),
        lambda ch: estimate_spectrum(ch, n=10, trials=10, seed=0),
        lambda ch: simulate_outage_code_sweep(ch, [8], rate=0.1, q=0.5, trials=10),
    ],
    ids=["sample_state", "estimate_spectrum", "simulate_outage_code_sweep"],
)
def test_every_state_draw_refuses_an_ergodic_law_alike(draw):
    ergodic = GilbertElliott(0.05, 0.3, g=0.2, b=0.1, pi_good=0.5)
    with pytest.raises(ValueError) as exc:
        draw(ergodic)
    assert str(exc.value) == "ergodic Gilbert-Elliott has no frozen state to draw"


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.5, 1.0, 3.0]), min_size=1, max_size=8).filter(any),
    trials=st.integers(1, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_is_one_multinomial_over_the_states_of_positive_mass(weights, trials, seed):
    pmf = np.array(weights) / sum(weights)
    law = DiscreteComposite(tuple(BecState(0.1 * i) for i in range(len(pmf))), pmf).law
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    split = law.split(rng, trials)
    assert all(law.mass[s] > 0.0 and k > 0 for s, k in split)
    assert sum(k for _, k in split) == trials
    # The same draw as one multinomial over the positive masses, which
    # leaves the generator at the same point.
    support = np.flatnonzero(law.mass > 0.0)
    drawn = ref.multinomial(trials, law.mass[support])
    assert split == [(int(s), int(k)) for s, k in zip(support, drawn) if k > 0]
    assert rng.random() == ref.random()
