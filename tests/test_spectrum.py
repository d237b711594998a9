import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import binom

from chancap import spectrum
from chancap import (
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    EmpiricalCdf,
    GilbertElliott,
    bsc_capacity,
    cdf_quantile,
    estimate_spectrum,
    info_density_bec,
    info_density_bsc,
)


def test_info_density_bsc_values():
    # hand-checked: 1 + (1/4) log2(0.11) + (3/4) log2(0.89)
    assert info_density_bsc(1, 4, 0.11) == 0.07780178810939795
    assert info_density_bsc(0, 4, 0.11) == 1.0 + np.log2(0.89)
    out = info_density_bsc(np.array([0, 1, 2]), 4, 0.11)
    assert isinstance(out, np.ndarray)
    assert out[1] == 0.07780178810939795
    # d = n p gives the capacity of the state channel
    assert info_density_bsc(110, 1000, 0.11) == pytest.approx(bsc_capacity(0.11), abs=1e-12)


def test_info_density_bsc_deterministic():
    assert info_density_bsc(0, 8, 0.0) == 1.0
    assert info_density_bsc(8, 8, 1.0) == 1.0
    with pytest.raises(AssertionError):
        info_density_bsc(1, 8, 0.0)
    with pytest.raises(AssertionError):
        info_density_bsc(7, 8, 1.0)


def test_info_density_bsc_domain():
    with pytest.raises(ValueError):
        info_density_bsc(0, 0, 0.1)
    with pytest.raises(ValueError):
        info_density_bsc(-1, 4, 0.1)
    with pytest.raises(ValueError):
        info_density_bsc(5, 4, 0.1)
    with pytest.raises(ValueError):
        info_density_bsc(1, 4, 1.5)


def test_info_density_bec():
    assert info_density_bec(3, 10, 0.3) == 0.7
    assert info_density_bec(0, 10, 0.0) == 1.0
    assert info_density_bec(10, 10, 1.0) == 0.0
    out = info_density_bec(np.array([0, 5, 10]), 10, 0.5)
    assert np.array_equal(out, [1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        info_density_bec(11, 10, 0.5)
    with pytest.raises(ValueError):
        info_density_bec(1, 10, -0.1)


def _cdf(values, counts=None):
    v = np.asarray(values, dtype=float)
    cum = np.cumsum(np.ones(v.size, dtype=np.int64) if counts is None else counts)
    return EmpiricalCdf(v, cum, blocklength=8, trials=int(cum[-1]) if cum.size else 0)


def _counts(cdf):
    return np.diff(cdf.cum_counts, prepend=0)


def test_empirical_cdf_validation():
    with pytest.raises(ValueError):
        _cdf([2.0, 1.0])
    with pytest.raises(ValueError):
        _cdf([])
    with pytest.raises(ValueError):
        _cdf([np.nan, 1.0])
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([1.0, 2.0]), np.array([1, 2]), blocklength=8, trials=3)
    with pytest.raises(ValueError, match="positive"):
        _cdf([1.0, 2.0], [1, 0])
    with pytest.raises(ValueError, match="positive"):
        _cdf([1.0, 2.0], [0, 2])
    with pytest.raises(ValueError, match="integers"):
        EmpiricalCdf(np.array([1.0, 2.0]), np.array([1.0, 2.0]), blocklength=8, trials=2)
    with pytest.raises(ValueError, match="one per value"):
        EmpiricalCdf(np.array([1.0, 2.0]), np.array([2]), blocklength=8, trials=2)
    # Ties between cells are allowed.
    tied = _cdf([1.0, 1.0, 2.0], [1, 2, 1])
    assert tied.trials == 4 and tied.cum_counts.dtype == np.int64


def test_empirical_cdf_evaluate():
    cdf = _cdf([1.0, 2.0, 3.0], [1, 2, 1])
    assert cdf.evaluate(0.5) == 0.0
    # right-continuous: the atom at 1.0 is included at alpha = 1.0
    assert cdf.evaluate(1.0) == 0.25
    assert cdf.evaluate(1.9999) == 0.25
    assert cdf.evaluate(2.0) == 0.75
    assert cdf.evaluate(3.0) == 1.0
    assert cdf.evaluate(99.0) == 1.0
    out = cdf.evaluate(np.array([1.0, 2.0]))
    assert np.array_equal(out, [0.25, 0.75])


def test_empirical_cdf_evaluate_rejects_non_finite_alpha():
    # A NaN alpha used to get an estimated cdf of 1.
    cdf = _cdf([1.0, 2.0, 3.0], [1, 2, 1])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alphas must be finite"):
            cdf.evaluate(bad)
        with pytest.raises(ValueError, match="alphas must be finite"):
            cdf.evaluate(np.array([0.5, bad]))


def test_cdf_quantile():
    cdf = _cdf([1.0, 2.0, 3.0, 4.0])
    assert cdf_quantile(cdf, 0.5) == 3.0
    assert cdf_quantile(cdf, 0.0) == 1.0
    assert cdf_quantile(cdf, 0.999) == 4.0
    assert cdf_quantile(_cdf([1.0, 2.0, 3.0], [1, 2, 1]), 0.5) == 2.0
    with pytest.raises(ValueError):
        cdf_quantile(cdf, 1.0)
    with pytest.raises(ValueError):
        cdf_quantile(cdf, -0.1)


def _sample_evaluate(samples, alpha):
    """F_hat(alpha) over an expanded, sorted sample array."""
    return np.asarray(np.searchsorted(samples, alpha, side="right"), dtype=float) / samples.size


def _sample_quantile(samples, q):
    """The (floor(q m) + 1)-th order statistic of an expanded sample array."""
    m = samples.size
    return float(samples[min(int(np.floor(q * m)), m - 1)])


@st.composite
def _cell_sets(draw):
    """Sorted cells with ties between them, single cells and counts up
    to 10^5 (expanded by the oracle, so kept small in total)."""
    pool = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=1, max_size=4))
    size = draw(st.integers(1, 8))
    values = np.sort(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)))
    count = st.integers(1, 3) | st.integers(1, 10**5)
    counts = np.array(draw(st.lists(count, min_size=size, max_size=size)), dtype=np.int64)
    return values, counts


@settings(max_examples=150, deadline=None)
@given(cells=_cell_sets())
def test_cell_cdf_matches_expanded_samples(cells):
    values, counts = cells
    cdf = _cdf(values, counts)
    samples = np.repeat(values, counts)
    m = samples.size
    assert cdf.trials == m
    distinct = np.unique(values)
    alphas = np.concatenate([
        values,
        np.nextafter(values, -np.inf),
        np.nextafter(values, np.inf),
        0.5 * (distinct[1:] + distinct[:-1]),
        [distinct[0] - 1.0, distinct[-1] + 1.0],
    ])
    assert cdf.evaluate(alphas).tobytes() == _sample_evaluate(samples, alphas).tobytes()
    for alpha in alphas:
        assert cdf.evaluate(float(alpha)) == float(_sample_evaluate(samples, float(alpha)))
    ks = np.unique(np.concatenate([[0, 1, m // 2, m - 1], cdf.cum_counts - 1, cdf.cum_counts]))
    qs = {0.0}
    for k in ks[ks < m]:
        q = k / m
        qs.update((q, float(np.nextafter(q, 0.0)), float(np.nextafter(q, 1.0))))
    for q in sorted(x for x in qs if 0.0 <= x < 1.0):
        assert cdf_quantile(cdf, q) == _sample_quantile(samples, q)


def test_estimate_spectrum_deterministic_and_sorted():
    comp = DiscreteComposite((BscState(0.05), BscState(0.3)), [0.5, 0.5])
    a = estimate_spectrum(comp, n=200, trials=2000, seed=3)
    b = estimate_spectrum(comp, n=200, trials=2000, seed=3)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.cum_counts, b.cum_counts)
    assert a.trials == 2000 and a.cum_counts[-1] == 2000
    assert np.all(np.diff(a.values) >= 0.0) and np.all(_counts(a) >= 1)
    # One cell per occupied (state, count) pair.
    assert a.values.size <= 2 * 201


def test_estimate_spectrum_bimodal_masses():
    comp = DiscreteComposite((BscState(0.05), BscState(0.3)), [0.5, 0.5])
    cdf = estimate_spectrum(comp, n=1000, trials=20000, seed=7)
    good, bad = bsc_capacity(0.05), bsc_capacity(0.3)

    def mass(center, width):
        return cdf.evaluate(center + width) - cdf.evaluate(center - width)

    # each state contributes half the samples, clustered at its capacity
    assert 0.45 <= mass(good, 0.08) <= 0.55
    assert 0.45 <= mass(bad, 0.08) <= 0.55
    # the good-state cluster is wider (larger capacity slope), so a
    # tight window catches less of it than of the bad-state cluster
    assert 0.20 <= mass(good, 0.02) <= 0.30
    assert 0.33 <= mass(bad, 0.02) <= 0.42


def test_estimate_spectrum_uniform_median():
    u = ContinuousBscComposite.uniform()
    cdf = estimate_spectrum(u, n=2000, trials=20000, seed=11)
    # Every draw of a density is a cell of its own.
    assert np.array_equal(cdf.cum_counts, np.arange(1, 20001))
    med = float(np.median(cdf.values))
    # limit spectrum hits 1/2 where the crossover quantile is 1/4
    assert abs(med - bsc_capacity(0.25)) < 0.02


def test_estimate_spectrum_deterministic_states_exact():
    noiseless = DiscreteComposite((BscState(0.0),), [1.0])
    cdf = estimate_spectrum(noiseless, n=50, trials=500, seed=0)
    assert np.array_equal(cdf.values, [1.0]) and np.array_equal(cdf.cum_counts, [500])
    bec = DiscreteComposite((BecState(0.0), BecState(1.0)), [0.5, 0.5])
    cdf = estimate_spectrum(bec, n=50, trials=2000, seed=1)
    assert np.array_equal(cdf.values, [0.0, 1.0]) and cdf.cum_counts[-1] == 2000
    assert 0.4 <= cdf.evaluate(0.0) <= 0.6


def test_estimate_spectrum_gilbert_elliott():
    frozen = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)
    cdf = estimate_spectrum(frozen, n=100, trials=1000, seed=2)
    assert cdf.trials == 1000
    ergodic = GilbertElliott(0.05, 0.3, g=0.1, b=0.1, pi_good=0.5)
    with pytest.raises(ValueError):
        estimate_spectrum(ergodic, n=100, trials=1000, seed=2)


def test_estimate_spectrum_domain():
    comp = DiscreteComposite((BscState(0.1),), [1.0])
    with pytest.raises(ValueError):
        estimate_spectrum(comp, n=0, trials=10, seed=0)
    with pytest.raises(ValueError):
        estimate_spectrum(comp, n=10, trials=0, seed=0)


def test_estimate_spectrum_huge_blocklength():
    # Draws are counted per (state, count) cell, so memory stays
    # O(trials) however large n is.
    comp = DiscreteComposite((BscState(0.05), BscState(0.3)), [0.5, 0.5])
    start = time.perf_counter()
    cdf = estimate_spectrum(comp, n=10**12, trials=1000, seed=0)
    assert time.perf_counter() - start < 1.0
    assert np.all(np.isfinite(cdf.values)) and np.all(np.diff(cdf.values) >= 0.0)
    # Each draw sits at its state's capacity, 0.71 or 0.12.
    gap = np.minimum(abs(cdf.values - bsc_capacity(0.05)), abs(cdf.values - bsc_capacity(0.3)))
    assert np.allclose(gap, 0.0, atol=1e-5)


def test_estimate_spectrum_cost_does_not_grow_with_trials():
    # A state's histogram costs O(n) however many draws it holds, so
    # 10^12 trials make at most n + 1 cells per state.
    frozen = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)
    n = 2000
    start = time.perf_counter()
    cdf = estimate_spectrum(frozen, n=n, trials=10**12, seed=0)
    assert time.perf_counter() - start < 1.0
    assert cdf.trials == 10**12 and cdf.cum_counts[-1] == 10**12
    assert cdf.values.size <= 2 * (n + 1)


@pytest.mark.parametrize("n,k", [(1, 1), (5, 3), (2000, 1000), (3, 50)])
def test_zero_crossover_histogram_is_one_cell_without_draws(n, k):
    # numpy's Binomial(n, 0) draws consume no random numbers, so the
    # one-cell histogram leaves the stream where the draws left it.
    drawn, skipped = np.random.default_rng(7), np.random.default_rng(7)
    want = np.unique(drawn.binomial(n, 0.0, size=k), return_counts=True)
    got = spectrum._count_histogram(skipped, n, 0.0, k)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert skipped.random() == drawn.random()


def test_estimate_spectrum_zero_crossover_state_at_huge_trials():
    # The p = 0 state takes about 5e11 of 10^12 draws as one cell.
    comp = DiscreteComposite((BscState(0.0), BscState(0.3)), [0.5, 0.5])
    n = 2000
    start = time.perf_counter()
    cdf = estimate_spectrum(comp, n=n, trials=10**12, seed=0)
    assert time.perf_counter() - start < 1.0
    assert cdf.values.size <= n + 2 and cdf.cum_counts[-1] == 10**12
    assert cdf.values[-1] == 1.0 and 0.49 < 1.0 - cdf.evaluate(0.999) < 0.51


def _oracle_stirlerr(k: np.ndarray) -> np.ndarray:
    kk = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k
    return np.where(k < 16, spectrum._STIRLERR_TABLE[np.minimum(k, 15).astype(int)], series)


def _oracle_bd0(x: np.ndarray, m: float) -> np.ndarray:
    """x ln(x/m) + m - x, as x log1p((x-m)/m) - (x-m) for accuracy near x = m."""
    d = x - m
    with np.errstate(over="ignore"):
        return x * np.log1p(d / m) - d


def _oracle_binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at 0..n for 0 < p < 1, one p per call: the
    byte oracle for the rows of spectrum._binomial_pmf's table."""
    log_pmf = np.empty(n + 1)
    log_pmf[0] = n * math.log1p(-p)
    log_pmf[n] = n * math.log(p)
    k = np.arange(1.0, n)
    rest = k[::-1]  # n - k
    st = _oracle_stirlerr(k)
    log_pmf[1:n] = (
        _oracle_stirlerr(np.array(float(n))) - st - st[::-1]
        - _oracle_bd0(k, n * p) - _oracle_bd0(rest, n * (1.0 - p))
        + 0.5 * np.log(n / (k * rest)) - spectrum._HALF_LN_2PI
    )
    return np.exp(log_pmf)


def _per_draw_spectrum(composite, n, trials, seed, histograms=False):
    """estimate_spectrum's random stream replayed draw by draw: every draw
    is evaluated with info_density_bsc/info_density_bec, and the pooled
    values are sorted.

    A density draws its trials in blocks of spectrum._BLOCK: block 0
    from the seed's generator and block j from its spawned child j - 1,
    each its crossovers and then its counts.

    Without `histograms` every state's counts are drawn one by one, which
    is the stream whenever n + 1 exceeds every state's draw count.  With
    it, a state with at least n + 1 draws and 0 < p < 1 draws its
    histogram as one multinomial over the counts taken from both tails
    toward the mode, and the histogram is expanded into single draws."""
    if isinstance(composite, GilbertElliott):
        composite = composite.as_composite()
    rng = np.random.default_rng(seed)
    if isinstance(composite, ContinuousBscComposite):
        block = spectrum._BLOCK
        blocks = -(-trials // block)
        vals = []
        for j, gen in enumerate([rng, *rng.spawn(blocks - 1)]):
            p = composite.sample(gen, min(block, trials - j * block))
            counts = gen.binomial(n, p)
            vals.extend(info_density_bsc(int(d), n, float(pd)) for d, pd in zip(counts, p))
        return np.sort(np.array(vals))
    density = info_density_bec if composite.family == "bec" else info_density_bsc
    support = np.flatnonzero(composite.pmf > 0.0)
    vals = []
    for state, size in zip(support, rng.multinomial(trials, composite.pmf[support])):
        p = float(composite.params[state])
        if histograms and size >= n + 1 and 0.0 < p < 1.0:
            pmf = _oracle_binomial_pmf(n, p)
            mode = int(np.argmax(pmf))
            order = list(range(mode)) + list(range(n, mode - 1, -1))
            hist = rng.multinomial(size, pmf[order])
            counts = np.repeat(order, hist)
        else:
            counts = rng.binomial(n, p, size=size)
        vals.extend(density(int(c), n, p) for c in counts)
    return np.sort(np.array(vals, dtype=float))


@st.composite
def _spectrum_composites(draw):
    """BSC/BEC mixtures with repeated, zero-mass and p in {0, 1/2} (BEC:
    alpha in {0, 1}) states, frozen Gilbert-Elliott, the uniform law and
    a gridded density."""
    kind = draw(st.sampled_from(["bsc", "bec", "ge", "uniform", "density"]))
    if kind == "ge":
        p_good = draw(st.floats(0.0, 0.49))
        p_bad = draw(st.floats(p_good, 0.5).filter(lambda p: p > p_good))
        return GilbertElliott(p_good, p_bad, g=0.0, b=0.0, pi_good=draw(st.floats(0.0, 1.0)))
    if kind == "uniform":
        return ContinuousBscComposite.uniform()
    if kind == "density":
        m = draw(st.integers(2, 9))
        grid = np.linspace(0.0, draw(st.floats(0.05, 0.5)), m)
        f = np.array(draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)), dtype=float)
        if f.sum() == 0.0:
            f[0] = 1.0
        return ContinuousBscComposite(grid, f / np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(grid)))
    edges = [0.0, 0.5] if kind == "bsc" else [0.0, 1.0]
    pool = draw(st.lists(st.sampled_from(edges) | st.floats(0.0, edges[1]), min_size=1, max_size=4))
    k = draw(st.integers(1, 8))
    params = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)), dtype=float)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    state = BscState if kind == "bsc" else BecState
    return DiscreteComposite(tuple(state(p) for p in params), weights / weights.sum())


@settings(max_examples=200, deadline=None)
@given(
    comp=_spectrum_composites(),
    trials_n=st.integers(1, 60).flatmap(lambda t: st.tuples(st.just(t), st.integers(t, 2000))),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_spectrum_direct_branch_matches_per_draw_oracle(comp, trials_n, seed):
    # n >= trials, so no state has the n + 1 draws the histogram needs.
    trials, n = trials_n
    got = estimate_spectrum(comp, n=n, trials=trials, seed=seed)
    values = _per_draw_spectrum(comp, n, trials, seed)
    assert np.repeat(got.values, _counts(got)).tobytes() == values.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    comp=_spectrum_composites(),
    n=st.integers(1, 40),
    trials=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_estimate_spectrum_histogram_branch_matches_replay(comp, n, trials, seed):
    # Small n against up to 400 trials: both branches, often in one call.
    got = estimate_spectrum(comp, n=n, trials=trials, seed=seed)
    values = _per_draw_spectrum(comp, n, trials, seed, histograms=True)
    assert np.repeat(got.values, _counts(got)).tobytes() == values.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40), st.integers(1, 5000)),
    p=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1e-300, 1e-3),
        st.floats(1e-3, 1.0, exclude_max=True).map(lambda x: 1.0 - x),
    ),
)
def test_binomial_pmf_matches_scipy(n, p):
    got = spectrum._binomial_pmf(n, [p])[0]
    if p < 1e-300:
        # scipy's pmf raises OverflowError here; all mass sits at 0.
        assert got[0] == 1.0 and np.all(got[1:] <= 1e-290)
        return
    want = binom.pmf(np.arange(n + 1), n, p)
    big = want > 1e-300
    assert np.all(np.abs(got[big] - want[big]) <= 1e-10 * want[big])
    assert np.all(got[~big] <= 1e-290)


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(1, 40), st.integers(1, 5000)),
    ps=st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([1e-300, 1.0 - 1e-3, 0.5]),
        min_size=1, max_size=6,
    ),
)
@example(n=2000, ps=[0.5, 1e-300, 0.5, 1.0 - 1e-3])
@example(n=1, ps=[0.5])
def test_binomial_pmf_table_rows_match_scalar_oracle(n, ps):
    # The table forms its terms free of p once for all rows, in the
    # order the per-p form summed them, so every row is byte-equal.
    table = spectrum._binomial_pmf(n, ps)
    assert table.shape == (len(ps), n + 1)
    for row, p in zip(table, ps):
        assert row.tobytes() == _oracle_binomial_pmf(n, p).tobytes()


_TABLE_BSC = DiscreteComposite(
    (BscState(0.1), BscState(0.02), BscState(0.3), BscState(0.0), BscState(0.25), BscState(0.3)),
    [0.3, 0.015, 0.25, 0.2, 0.0, 0.235],
)
_TABLE_BEC = DiscreteComposite((BecState(0.2), BecState(1.0), BecState(0.45)), [0.4, 0.3, 0.3])


@pytest.mark.parametrize("n", [500, 2000])
@pytest.mark.parametrize("law", [_TABLE_BSC, _TABLE_BEC], ids=["bsc6", "bec-alpha1"])
def test_estimate_spectrum_table_keeps_the_stream(law, n):
    # Table states drawn around states that draw one by one: the BSC law
    # has a p = 0 state, a zero-mass one, a repeated p and a state with
    # fewer than n + 1 draws between two table states; the BEC law an
    # alpha = 1 state, whose draws consume uniforms, between two.
    trials, seed = 20000, 13
    split = law.law.split(np.random.default_rng(seed), trials)
    table = [size > n and 0.0 < law.params[s] < 1.0 for s, size in split]
    assert table[0] and table[-1] and not all(table)
    got = estimate_spectrum(law, n=n, trials=trials, seed=seed)
    values = _per_draw_spectrum(law, n, trials, seed, histograms=True)
    assert np.repeat(got.values, _counts(got)).tobytes() == values.tobytes()


def test_estimate_spectrum_table_chunks_do_not_change_the_draws(monkeypatch):
    # One row per chunk and two rows per chunk (three table states) give
    # the bytes of the one-chunk table.
    n = 500
    whole = estimate_spectrum(_TABLE_BSC, n=n, trials=20000, seed=13)
    for cells in (1, 2 * (n + 1)):
        monkeypatch.setattr(spectrum, "_TABLE_CELLS", cells)
        chunked = estimate_spectrum(_TABLE_BSC, n=n, trials=20000, seed=13)
        assert whole.values.tobytes() == chunked.values.tobytes()
        assert whole.cum_counts.tobytes() == chunked.cum_counts.tobytes()


def _numpy_floor_quantile(cdf, q):
    """cdf_quantile as it was written with numpy's floor and searchsorted."""
    m = cdf.trials
    k = min(int(np.floor(q * m)), m - 1)
    return float(cdf.values[np.searchsorted(cdf.cum_counts, k, side="right")])


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8).map(sorted),
    counts=st.lists(st.integers(1, 3) | st.integers(1, 10**12 // 8), min_size=8, max_size=8),
    q=st.floats(0.0, 1.0, exclude_max=True),
)
def test_cdf_quantile_matches_numpy_floor_form(values, counts, q):
    # Up to 10^12 trials, at q in {0, 1/2, 1 - 2^-53}, a drawn q, and
    # at and beside every cell edge, where floor(q m) picks the cell.
    cdf = _cdf(values, np.array(counts[:len(values)], dtype=np.int64))
    edges = cdf.cum_counts / cdf.trials
    qs = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53, q], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    for q in qs[qs < 1.0].tolist():
        got, want = cdf_quantile(cdf, q), _numpy_floor_quantile(cdf, q)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


def test_estimate_spectrum_huge_n_matches_oracle():
    # Counts near 2^62 are taken per state, with no packed cell key.
    comp = DiscreteComposite((BscState(0.0), BscState(0.3), BscState(0.5), BscState(0.3)),
                             [0.1, 0.4, 0.2, 0.3])
    n = 2**62
    got = estimate_spectrum(comp, n=n, trials=3000, seed=5)
    values = _per_draw_spectrum(comp, n, 3000, 5)
    assert np.repeat(got.values, _counts(got)).tobytes() == values.tobytes()


_GRIDDED = ContinuousBscComposite(np.array([0.0, 0.1, 0.25, 0.4]), np.array([1.0, 4.0, 3.0, 0.0]))


@pytest.mark.parametrize("law, trials", [
    pytest.param(ContinuousBscComposite.uniform(), spectrum._BLOCK, id="uniform-one-block"),
    pytest.param(_GRIDDED, spectrum._BLOCK + 1, id="gridded-two-blocks"),
    pytest.param(ContinuousBscComposite.uniform(), 2 * spectrum._BLOCK + 17, id="uniform-three-blocks"),
])
def test_estimate_spectrum_density_blocks_match_replay(law, trials):
    got = estimate_spectrum(law, n=300, trials=trials, seed=21)
    assert got.values.tobytes() == _per_draw_spectrum(law, 300, trials, 21).tobytes()


def test_estimate_spectrum_density_does_not_depend_on_workers(monkeypatch):
    # The default pool, one worker, and eight workers switching threads
    # every microsecond: each block owns its slice of the output, so a
    # lost or misplaced write would change the bytes.
    trials = 3 * spectrum._BLOCK + 5
    pooled = estimate_spectrum(_GRIDDED, n=700, trials=trials, seed=4)
    for workers, interval in ((1, sys.getswitchinterval()), (8, 1e-6)):
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(interval)
        try:
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(spectrum, "_pool", lambda: pool)
                other = estimate_spectrum(_GRIDDED, n=700, trials=trials, seed=4)
        finally:
            sys.setswitchinterval(old_interval)
        assert pooled.values.tobytes() == other.values.tobytes()
        assert pooled.cum_counts.tobytes() == other.cum_counts.tobytes()


def test_estimate_spectrum_density_error_in_a_block_propagates(monkeypatch):
    # A block's error reaches the caller through the pool.
    def bad_density(d, n, p):
        raise ValueError("bad block")

    monkeypatch.setattr(spectrum, "info_density_bsc", bad_density)
    with pytest.raises(ValueError, match="bad block"):
        estimate_spectrum(ContinuousBscComposite.uniform(), n=10, trials=2 * spectrum._BLOCK, seed=0)


def _uniform_exact_cdf(n, alphas):
    """P(i <= alpha) of the uniform law at blocklength n.

    Given count k, i(k, p) = 1 + (k/n) log2 p + (1 - k/n) log2(1 - p) is
    concave in p with its top at p = k/n, so i > alpha on one interval
    [p1, p2], found by bisection on each side of k/n.  The mass of
    count k with crossover in [0, x] is I_x(k+1, n-k+1) / (n+1), so
    F(alpha) = sum_k 2/(n+1) (I_p1 + I_1/2 - I_p2) with p1, p2 clipped
    to [0, 1/2].
    """
    k = np.arange(n + 1.0)[:, None]
    frac = k / n

    def density(p):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 + np.nan_to_num(frac * np.log2(p)) + np.nan_to_num((1.0 - frac) * np.log2(1.0 - p))

    def crossing(lo, hi, rising):
        # The p in [lo, hi] where density(p) - alpha changes sign.
        lo, hi = np.broadcast_to(lo, (n + 1, alphas.size)), np.broadcast_to(hi, (n + 1, alphas.size))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            above = (density(mid) > alphas) == rising
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        return 0.5 * (lo + hi)

    top = density(frac) > alphas
    p1 = np.where(top, crossing(0.0, frac, True), 0.0)
    p2 = np.where(top, crossing(frac, 1.0, False), 0.0)
    p1, p2 = np.minimum(p1, 0.5), np.minimum(p2, 0.5)
    a, b = k + 1.0, n - k + 1.0
    inside = betainc(a, b, p2) - betainc(a, b, p1)
    return (2.0 / (n + 1) * (betainc(a, b, 0.5) - inside)).sum(axis=0)


def test_estimate_spectrum_uniform_law_within_dkw_band_of_exact_law():
    # Seven blocks, drawn on the pool.  The empirical cdf must lie in the
    # DKW-Massart band (delta = 1e-6) of the exact cdf, on both sides of
    # 400 alphas at the sample's own quantiles.
    n, trials = 500, 10**5
    cdf = estimate_spectrum(ContinuousBscComposite.uniform(), n=n, trials=trials, seed=8)
    alphas = np.unique(cdf.values[np.linspace(0, trials - 1, 400).astype(int)])
    exact = _uniform_exact_cdf(n, alphas)
    f_right = cdf.evaluate(alphas)
    f_left = np.searchsorted(cdf.values, alphas, side="left") / trials
    eps = np.sqrt(np.log(2.0 / 1e-6) / (2.0 * trials))
    assert max(np.abs(f_right - exact).max(), np.abs(f_left - exact).max()) <= eps


def _exact_atoms(composite, n):
    """Distinct values of the finite-n information density and their masses."""
    density = info_density_bec if composite.family == "bec" else info_density_bsc
    counts = np.arange(n + 1)
    vals = np.concatenate([density(counts, n, float(p)) for p in composite.params])
    mass = np.concatenate([w * binom.pmf(counts, n, p) for p, w in zip(composite.params, composite.pmf)])
    atoms, inv = np.unique(vals, return_inverse=True)
    return atoms, np.bincount(inv, weights=mass)


_GE_FROZEN = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)


@pytest.mark.parametrize(
    "composite, n",
    [
        pytest.param(DiscreteComposite((BscState(0.05), BscState(0.2), BscState(0.35)), [0.2, 0.5, 0.3]),
                     300, id="bsc3"),
        pytest.param(DiscreteComposite((BecState(0.1), BecState(0.3)), [0.4, 0.6]), 300, id="bec2"),
        pytest.param(_GE_FROZEN, 300, id="ge"),
        pytest.param(_GE_FROZEN, 2000, id="ge-n2000"),
        pytest.param(DiscreteComposite((BscState(0.02), BscState(0.11), BscState(0.11), BscState(0.4)),
                                       [0.3, 0.2, 0.1, 0.4]), 1500, id="bsc4-n1500"),
    ],
)
def test_estimate_spectrum_within_dkw_band_of_exact_law(composite, n):
    # The draws lie on the exact atoms, and the empirical cdf is within
    # the DKW-Massart band (delta = 1e-6) of the binomial-mixture cdf on
    # both sides of every atom, which bounds the sup over all alpha.
    # Each state draws more than n + 1 counts here, so every state's
    # counts come from the histogram draw.
    trials = 20000
    cdf = estimate_spectrum(composite, n=n, trials=trials, seed=8)
    if isinstance(composite, GilbertElliott):
        composite = composite.as_composite()
    atoms, mass = _exact_atoms(composite, n)
    assert np.all(np.isin(cdf.values, atoms))
    right = np.cumsum(mass)
    left = right - mass
    f_right = cdf.evaluate(atoms)
    below = np.concatenate([[0], cdf.cum_counts])
    f_left = below[np.searchsorted(cdf.values, atoms, side="left")] / trials
    eps = np.sqrt(np.log(2.0 / 1e-6) / (2.0 * trials))
    assert max(np.abs(f_right - right).max(), np.abs(f_left - left).max()) <= eps
