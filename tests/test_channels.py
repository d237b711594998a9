import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
    PointMassDensity,
    bec_capacity,
    binary_entropy,
    binary_entropy_prime,
    bsc_capacity,
    degraded_order,
    sample_state,
    star,
    transmit,
)

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


def test_binary_entropy_scalar_returns_float():
    for v in (0.3, np.float64(0.3), np.array(0.3), 0, 1):
        assert type(binary_entropy(v)) is float
    assert binary_entropy(np.array(0.3)) == binary_entropy(0.3)
    assert isinstance(binary_entropy([0.3]), np.ndarray)


def test_import_loads_no_scipy():
    src = str(Path(chancap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, chancap; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_entropy_prime():
    assert binary_entropy_prime(0.25) == pytest.approx(np.log2(3.0), abs=1e-14)
    assert binary_entropy_prime(0.5) == pytest.approx(0.0, abs=1e-9)
    assert binary_entropy_prime(0.75) == pytest.approx(-np.log2(3.0), abs=1e-14)


def test_star_values():
    assert star(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)
    assert star(0.3, 0.0) == 0.3
    assert star(0.3, 0.5) == 0.5


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


def test_state_types():
    assert BscState(0.1).capacity() == pytest.approx(bsc_capacity(0.1))
    assert BecState(0.25).capacity() == pytest.approx(0.75)
    with pytest.raises(ValueError):
        BscState(-0.1)
    with pytest.raises(ValueError):
        BecState(1.5)


def test_degraded_order():
    assert degraded_order(BscState(0.1), BscState(0.3)) == -1
    assert degraded_order(BscState(0.3), BscState(0.1)) == 1
    assert degraded_order(BscState(0.2), BscState(0.2)) == 0
    assert degraded_order(BecState(0.1), BecState(0.4)) == -1
    with pytest.raises(ValueError):
        degraded_order(BscState(0.1), BecState(0.1))


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
    assert set(dc.support_params()) == {0.1, 0.2}


def test_uniform_density():
    u = ContinuousBscComposite.uniform()
    assert u.support_sup() == 0.5
    assert float(u.cdf(0.25)) == pytest.approx(0.5, abs=1e-15)
    assert float(u.pdf(0.1)) == pytest.approx(2.0, abs=1e-12)
    assert float(u.inverse_cdf(0.5)) == pytest.approx(0.25, abs=1e-12)
    # density integrates to one on its grid
    assert np.trapezoid(u.density, u.grid) == pytest.approx(1.0, abs=1e-9)


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


def test_point_mass():
    pm = PointMassDensity(0.2)
    assert pm.support_sup() == 0.2
    assert float(pm.cdf(0.19)) == 0.0
    assert float(pm.cdf(0.2)) == 1.0


def test_gilbert_elliott_stationary():
    ge = GilbertElliott(0.05, 0.3, g=0.1, b=0.05, pi_good=0.5)
    pi = ge.stationary()
    assert pi == pytest.approx((2.0 / 3.0, 1.0 / 3.0), abs=1e-15)
    # stationary point is a fixed point of the chain step
    assert ge.step(pi) == pytest.approx(pi, abs=1e-15)
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
