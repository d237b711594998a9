"""Acceptance suite: ten end-to-end checks, one test per criterion.

Each test prints its measured quantities and asserts the pinned
tolerances, so `pytest -v tests/test_acceptance.py` reports one
pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from chancap import (
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
    BroadcastCodeSpec,
    bc_to_expected,
    binary_entropy,
    bsc_capacity,
    canonical_subsets,
    capacity_from_spectrum,
    capacity_vs_outage,
    discretize_density,
    estimate_spectrum,
    expected_capacity,
    expected_capacity_bounds,
    expected_capacity_continuous,
    expected_to_bc,
    find_cutoffs,
    ge_expected_capacity,
    optimize_discrete,
    rate_profile,
    shannon_capacity,
    simulate_outage_code_sweep,
    simulate_uncoded_bec,
    solve_layering,
    subset_weighted_rate,
)

UNIFORM = ContinuousBscComposite.uniform()
GE_FROZEN = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)


def test_criterion_01_cutoff_probabilities():
    """Uniform-density layering cutoffs: p_u = 1/6 exactly, p_l near 0.136."""
    start = time.perf_counter()
    cut = find_cutoffs(UNIFORM)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: p_l={cut.p_l:.12g} p_u={cut.p_u:.12g} ({elapsed:.2f}s)")
    assert abs(cut.p_u - 1.0 / 6.0) < 1e-6
    assert abs(cut.p_l - 0.136) < 1e-3
    assert elapsed < 5.0


def test_criterion_02_rate_profile():
    """Best states decode about 0.38 bits/use; states past p_u decode nothing."""
    start = time.perf_counter()
    layer = solve_layering(UNIFORM)
    prof = rate_profile(layer)
    cut = find_cutoffs(UNIFORM)
    elapsed = time.perf_counter() - start
    top_rate = float(prof.rate_at(cut.p_l))
    above = [float(prof.rate_at(p)) for p in np.linspace(cut.p_u, 0.5, 25)]
    print(f"criterion 2: R(p_l)={top_rate:.12g} max R(p>=p_u)={max(above):.3g} ({elapsed:.2f}s)")
    assert top_rate == pytest.approx(0.38, abs=0.02)
    assert max(above) <= 1e-9
    assert elapsed < 10.0


def test_criterion_03_spectrum_convergence():
    """Analytic C_q matches the closed form; the Monte Carlo spectrum
    quantile lands within a DKW-plus-smearing tolerance at n = 2000."""
    start = time.perf_counter()
    qs = np.linspace(0.01, 0.99, 100)
    for q in qs:
        analytic = capacity_vs_outage(UNIFORM, float(q))
        closed = 1.0 - float(binary_entropy((1.0 - q) / 2.0))
        assert abs(analytic - closed) < 1e-10

    trials, n = 100000, 2000
    cdf = estimate_spectrum(UNIFORM, n=n, trials=trials, seed=0)
    eps_dkw = np.sqrt(np.log(2.0 / 1e-6) / (2.0 * trials))
    worst = 0.0
    for q in qs:
        want = capacity_vs_outage(UNIFORM, float(q))
        got = capacity_from_spectrum(cdf, float(q))
        p_q = (1.0 - q) / 2.0
        slope = np.log2((1.0 - p_q) / p_q)  # |d alpha / d p| = h'(p)
        limit_density = 2.0 / slope          # spectrum pdf at alpha_q
        smear = slope * np.sqrt(p_q * (1.0 - p_q) / n)
        tol = eps_dkw / limit_density + smear
        worst = max(worst, abs(got - want) / tol)
        assert abs(got - want) <= tol
    elapsed = time.perf_counter() - start
    print(f"criterion 3: worst error/tolerance ratio {worst:.3f} ({elapsed:.2f}s)")
    assert elapsed < 60.0


def test_criterion_04_expected_capacity_sandwich():
    """Lower bound sup_q (1-q) C_q <= C^e <= mean state capacity, with the
    outage bound within 5% of C^e on the cutoff-image band."""
    bounds = expected_capacity_bounds(UNIFORM)
    ce = expected_capacity_continuous(UNIFORM)
    print(
        f"criterion 4: lower={bounds.lower:.12g} ce={ce:.12g} upper={bounds.upper:.12g}"
    )
    assert bounds.lower <= ce <= bounds.upper
    assert bounds.upper == pytest.approx(0.27865264154626224, abs=1e-3)
    for q in np.linspace(0.0, 0.98, 50):
        assert ce >= (1.0 - q) * capacity_vs_outage(UNIFORM, float(q)) - 1e-12
    cut = find_cutoffs(UNIFORM)
    band = np.linspace(1.0 - 2.0 * cut.p_u, 1.0 - 2.0 * cut.p_l, 21)
    gaps = [
        (ce - (1.0 - q) * capacity_vs_outage(UNIFORM, float(q))) / ce for q in band
    ]
    print(f"criterion 4: max band gap {max(gaps):.4f}")
    assert max(gaps) < 0.05


def test_criterion_05_two_state_closed_form():
    """The closed-form two-state optimizer agrees with direct numerical
    maximization on 200 random (p_good, p_bad, pi_good) triples."""
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        p_g = rng.uniform(0.001, 0.45)
        p_b = rng.uniform(p_g + 1e-3, 0.5)
        pi_g = rng.uniform(0.0, 1.0)
        ce, _ = ge_expected_capacity(p_g, p_b, pi_g)

        def objective(r):
            x_b = r + p_b - 2 * r * p_b
            x_g = r + p_g - 2 * r * p_g
            return 1.0 - binary_entropy(x_b) + pi_g * (binary_entropy(x_g) - binary_entropy(p_g))

        res = minimize_scalar(
            lambda r: -objective(r), bounds=(0.0, 0.5), method="bounded",
            options={"xatol": 1e-10},
        )
        worst = max(worst, -res.fun - ce)
        assert ce >= -res.fun - 1e-6
    print(f"criterion 5: worst shortfall vs direct maximization {worst:.3g}")
    assert ge_expected_capacity(0.05, 0.3, 0.0)[0] == bsc_capacity(0.3)
    assert ge_expected_capacity(0.05, 0.3, 1.0)[0] == bsc_capacity(0.05)


def test_criterion_06_discretization_ladder():
    """Quantized optimizers climb toward the continuous expected capacity:
    nondecreasing in N = 8, 16, 32, 64 and within 1% at N = 64."""
    ce = expected_capacity_continuous(UNIFORM)
    values = []
    for n_states in (8, 16, 32, 64):
        _, value = optimize_discrete(*discretize_density(UNIFORM, n_states))
        values.append(value)
    rel_gap = (ce - values[-1]) / ce
    print(f"criterion 6: ladder {[f'{v:.8f}' for v in values]} ce={ce:.8f} gap={rel_gap:.5f}")
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-6
    assert all(v <= ce + 1e-9 for v in values)
    assert rel_gap < 0.01


def test_criterion_07_bec_broadcast():
    """Erasure composite: best broadcast expected rate is the endpoint max
    (exactly 0.7 for alphas 0.1/0.3), and uncoded transmission achieves
    the 1 - E[alpha] = 0.8 benchmark."""
    bec = DiscreteComposite((BecState(0.1), BecState(0.3)), [0.5, 0.5])
    exact = expected_capacity(bec)
    assert exact == 0.7
    res = simulate_uncoded_bec(bec, n=10000, trials=1000, seed=0)
    print(f"criterion 7: broadcast max {exact} uncoded {res.expected_rate:.5f}")
    assert res.expected_rate == pytest.approx(0.8, abs=0.01)
    assert res.expected_rate > exact


def test_criterion_08_code_mapping_round_trip():
    """500 random broadcast codes with integral bit counts map to
    expected-rate codes and back losslessly; the two expected-rate
    accountings agree to 1e-13."""
    rng = np.random.default_rng(2024)
    n = 32
    worst_gap = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 6))
        all_subsets = canonical_subsets(
            [tuple(s for s in range(k) if mask & (1 << s)) for mask in range(1, 2**k)]
        )
        take = rng.random(len(all_subsets)) < 0.5
        chosen = [p for p, t in zip(all_subsets, take) if t] or [all_subsets[0]]
        rates = {p: int(rng.integers(0, 13)) / n for p in chosen}
        weights = rng.integers(1, 10, size=k).astype(float)
        pmf = weights / weights.sum()

        spec = BroadcastCodeSpec(num_states=k, rates=rates, n=n)
        code = bc_to_expected(spec, pmf)
        code.index_sets.verify()
        assert abs(code.rounding_deficit) < 1e-12
        gap = abs(subset_weighted_rate(spec, pmf) - code.expected_rate)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-13
        back = expected_to_bc(code)
        assert back.rates == {p: r for p, r in rates.items() if r > 0.0}
    print(f"criterion 8: 500 round trips lossless, worst identity gap {worst_gap:.3g}")


def test_criterion_09_support_invariance():
    """Shannon capacity depends on the state pmf only through its support;
    shrinking the support can only raise it."""
    rng = np.random.default_rng(777)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        params = np.sort(rng.uniform(0.0, 0.5, size=k))
        w1 = rng.uniform(0.05, 1.0, size=k)
        w2 = rng.uniform(0.05, 1.0, size=k)
        states = tuple(BscState(float(p)) for p in params)
        c1 = shannon_capacity(DiscreteComposite(states, w1 / w1.sum()))
        c2 = shannon_capacity(DiscreteComposite(states, w2 / w2.sum()))
        assert c1 == c2
        # zero out a nonempty tail of the worst states
        keep = int(rng.integers(1, k))
        w3 = w1.copy()
        w3[keep:] = 0.0
        c3 = shannon_capacity(DiscreteComposite(states, w3 / w3.sum()))
        assert c3 >= c1
        assert c3 == bsc_capacity(float(params[keep - 1]))
    print("criterion 9: 100 support-invariance checks passed")


def test_criterion_10_error_decay_with_blocklength():
    """Random-coding ensemble: the post-outage error rate at n = 16 beats
    n = 8 for at least 48 of 50 seeds, and the exhaustive ML oracle never
    contradicts typical-set success."""
    start = time.perf_counter()
    wins = 0
    for seed in range(50):
        sweep = simulate_outage_code_sweep(
            GE_FROZEN, [8, 16], rate=0.15, q=0.5, trials=128000, seed=seed
        )
        e8 = sweep[0].error_rate_given_no_outage
        e16 = sweep[1].error_rate_given_no_outage
        wins += e16 < e8
    ml = simulate_outage_code_sweep(
        GE_FROZEN, [8], rate=0.15, q=0.5, trials=20000, seed=0, ml_oracle=True
    )[0]
    elapsed = time.perf_counter() - start
    print(
        f"criterion 10: wins {wins}/50, ml violations {ml.ml_dominance_violations} "
        f"({elapsed:.1f}s)"
    )
    assert wins >= 48
    assert ml.ml_dominance_violations == 0
    assert elapsed < 300.0
