import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from chancap import (
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
    SimResult,
    bsc_capacity,
    simulate_outage_code_sweep,
    simulate_uncoded_bec,
)
from chancap import simulate
from chancap.capacity import capacity_vs_outage
from chancap.channels import StateLaw, state_law
from chancap.simulate import _distances, _draw_codebooks, _pack_bits

NOISELESS = DiscreteComposite((BscState(0.0),), [1.0])
GE_FROZEN = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)


def test_simulate_noiseless_decodes_everything():
    res = simulate_outage_code_sweep(NOISELESS, [20], rate=0.2, q=0.1, trials=2000, seed=0)[0]
    assert res.outage_rate == 0.0
    assert res.error_rate_given_no_outage == 0.0
    assert res.expected_rate == 0.2
    assert res.blocklength == 20 and res.trials == 2000 and res.seed == 0


def test_simulate_rate_above_one_forces_errors():
    # 2^{nR} codewords cannot be distinct n-bit blocks when R > 1
    res = simulate_outage_code_sweep(NOISELESS, [8], rate=1.25, q=0.1, trials=2000, seed=0)[0]
    assert res.outage_rate == 0.0
    assert res.error_rate_given_no_outage >= 0.9
    assert res.expected_rate == 1.25


def test_simulate_error_decays_with_blocklength():
    sweep = simulate_outage_code_sweep(GE_FROZEN, [8, 12, 16], rate=0.15, q=0.5, trials=20000, seed=0)
    errs = [r.error_rate_given_no_outage for r in sweep]
    assert errs[0] > errs[1] > errs[2]
    for r in sweep:
        # the bad state (mass 1/2) always falls below the threshold
        assert 0.5 <= r.outage_rate <= 0.85
        assert r.expected_rate == r.rate * (1.0 - r.outage_rate)


def test_simulate_deterministic():
    a = simulate_outage_code_sweep(GE_FROZEN, [8, 16], rate=0.15, q=0.5, trials=4000, seed=9)
    b = simulate_outage_code_sweep(GE_FROZEN, [8, 16], rate=0.15, q=0.5, trials=4000, seed=9)
    assert a == b
    c = simulate_outage_code_sweep(GE_FROZEN, [8, 16], rate=0.15, q=0.5, trials=4000, seed=10)
    assert a != c


def test_simulate_repeated_blocklength_is_an_independent_run():
    # Each entry of ns keeps its own counts and codebook stream; a repeated
    # n used to add both runs' counts into one tally (outage rate
    # 0.2375 + 0.2355 = 0.473 reported twice here).  Both rates lie in the
    # exact-law band of test_sweep_outage_rates_match_exact_law.
    twice = simulate_outage_code_sweep(GE_FROZEN, [8, 8], rate=0.15, q=0.1, trials=2000, seed=0)
    once = simulate_outage_code_sweep(GE_FROZEN, [8], rate=0.15, q=0.1, trials=2000, seed=0)
    assert twice[0] == once[0] and once[0].outage_rate == 0.2375
    assert twice[1].outage_rate == 0.2355


def _exact_outage(params, weights, n, m, threshold):
    """P(outage) at blocklength n: no codeword passes when the sent one's
    distance is Binomial(n, p) and the m - 1 others' are Binomial(n, 1/2),
    averaged over crossovers p with the given weights.  The density is
    evaluated as the decoder does, so `>=` ties fall the same way."""
    d = np.arange(n + 1)
    pc = np.clip(params, 1e-300, 1.0 - 1e-16)[:, None]
    passes = 1.0 + (d / n) * np.log2(pc) + (1.0 - d / n) * np.log2(1.0 - pc) >= threshold
    sent = (binom.pmf(d, n, params[:, None]) * passes).sum(axis=1)
    other = (binom.pmf(d, n, 0.5) * passes).sum(axis=1)
    return float(np.dot(weights, (1.0 - sent) * (1.0 - other) ** (m - 1)))


# Midpoint cells for the uniform law (f = 2 on [0, 1/2]).  Each codeword
# distance passes on one interval of p, so the outage integrand jumps at
# most 2 (n + 1) times, and a jump inside a cell of width h costs the rule
# at most f h: the slack is 4 (n + 1) h.
_UNIFORM_CELLS = 20000


@pytest.mark.parametrize(
    "composite, ns, q, trials",
    [
        # `chancap simulate` at its defaults, on the uniform law and on
        # frozen Gilbert-Elliott (the SIMULATE_SHA256 sweeps of test_cli).
        (ContinuousBscComposite.uniform(), [8, 12, 16], 0.5, 10000),
        (GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.14), [8, 12, 16], 0.5, 10000),
        (GE_FROZEN, [8, 8], 0.1, 2000),
    ],
    ids=["uniform", "ge", "repeated"],
)
def test_sweep_outage_rates_match_exact_law(composite, ns, q, trials):
    rate, epsilon, delta = 0.15, 0.01, 1e-6
    results = simulate_outage_code_sweep(composite, ns, rate=rate, q=q, trials=trials, epsilon=epsilon, seed=0)
    threshold = capacity_vs_outage(composite, q) - epsilon
    law = state_law(composite)
    for res, n in zip(results, ns):
        m = math.floor(2.0 ** (n * rate))
        if isinstance(law, ContinuousBscComposite):
            h = 0.5 / _UNIFORM_CELLS
            cells = (np.arange(_UNIFORM_CELLS) + 0.5) * h
            p_out = _exact_outage(cells, np.full(cells.size, 1.0 / cells.size), n, m, threshold)
            slack = 4.0 * (n + 1) * h
        else:
            p_out, slack = _exact_outage(law.params, law.mass, n, m, threshold), 0.0
        # Two-sided Bernstein band on the Binomial(trials, p_out) outage count.
        log_term = math.log(2.0 / delta)
        var = trials * p_out * (1.0 - p_out)
        band = (log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * var * log_term)) / trials
        assert abs(res.outage_rate - p_out) <= band + slack, (n, p_out)


def test_simulate_ml_oracle_dominance():
    res = simulate_outage_code_sweep(GE_FROZEN, [8], rate=0.15, q=0.5, trials=5000, seed=0, ml_oracle=True)[0]
    assert res.ml_dominance_violations == 0
    assert res.ml_error_rate is not None
    # ML decodes everything; typical-set turns most failures into outages
    assert res.ml_error_rate <= res.outage_rate
    plain = simulate_outage_code_sweep(GE_FROZEN, [8], rate=0.15, q=0.5, trials=5000, seed=0)[0]
    assert plain.ml_error_rate is None and plain.ml_dominance_violations is None


def test_simulate_continuous_composite():
    res = simulate_outage_code_sweep(ContinuousBscComposite.uniform(), [16], rate=0.15, q=0.5,
                                     trials=3000, seed=1)[0]
    assert 0.0 <= res.outage_rate <= 1.0
    assert res.expected_rate == res.rate * (1.0 - res.outage_rate)


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [], rate=0.2, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [0], rate=0.2, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [8], rate=0.2, q=0.1, trials=0)
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [8], rate=0.0, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [8], rate=0.2, q=0.1, trials=100, epsilon=0.0)
    # NaN fails every comparison: a NaN epsilon used to make every trial an outage.
    with pytest.raises(ValueError, match="rate must be positive"):
        simulate_outage_code_sweep(NOISELESS, [8], rate=math.nan, q=0.1, trials=100)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        simulate_outage_code_sweep(NOISELESS, [8], rate=0.2, q=0.1, trials=100, epsilon=math.nan)
    # An infinite epsilon makes the threshold -inf, so every codeword
    # used to pass and the sweep reported a rate no trial delivered.
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        simulate_outage_code_sweep(NOISELESS, [8], rate=0.2, q=0.1, trials=100, epsilon=math.inf)
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [200], rate=0.15, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(GilbertElliott(0.05, 0.3, g=0.1, b=0.1, pi_good=0.5),
                                   [8], rate=0.15, q=0.5, trials=100)
    bec = DiscreteComposite((BecState(0.1),), [1.0])
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(bec, [8], rate=0.15, q=0.1, trials=100)


def test_codebook_draw_guard():
    # One shard would draw 1250 codebooks of 2^20 words of 20 bits
    # (about 26e9 entries); it is refused before anything is drawn.
    with pytest.raises(ValueError, match="memory budget"):
        simulate_outage_code_sweep(NOISELESS, [20], rate=1.0, q=0.1, trials=10000)
    # The largest draw elsewhere in the suite (250 x 1024 x 8) still runs.
    simulate_outage_code_sweep(NOISELESS, [8], rate=1.25, q=0.1, trials=2000, seed=0)


def _unpack_words(words, n):
    """(..., ceil(n/64)) uint64 words -> (..., n) int8 bits, and the bits above n."""
    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8), axis=-1, bitorder="little")
    return bits[..., :n].astype(np.int8), bits[..., n:]


def _int8_distances(books, sent, noise):
    """The one-int8-per-bit decoder distances the packed words replaced."""
    y = books[np.arange(books.shape[0]), sent] ^ noise
    return (books ^ y[:, None, :]).sum(axis=2)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 200) | st.sampled_from([63, 64, 65, 128]),
    size=st.integers(1, 6),
    m=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_distances_match_int8_oracle(n, size, m, seed):
    rng = np.random.default_rng(seed)
    books = _draw_codebooks(rng, size, m, n)
    assert books.shape == (size, m, math.ceil(n / 64)) and books.dtype == np.uint64
    bits, above = _unpack_words(books, n)
    assert not above.any()
    sent = rng.integers(0, m, size=size)
    noise = rng.random((size, n)) < rng.random((size, 1))
    packed_noise = _pack_bits(noise)
    assert np.array_equal(_unpack_words(packed_noise, n)[0], noise)
    y = books[np.arange(size), sent] ^ packed_noise
    # Codeword-major (m, size), C-contiguous.
    dist = _distances(books, y)
    assert dist.flags["C_CONTIGUOUS"] and dist.dtype == np.float64
    assert np.array_equal(dist, _int8_distances(bits, sent, noise.astype(np.int8)).T)


def _trial_major_counts(composite, ns, rate, threshold, trials, seed, ml_oracle):
    """The trial-major decode that the codeword-major sweep replaced, as its
    oracle: every trial drawn at once from the per-role streams (spawned
    by index: states, noise uniforms, then each n's codebooks and sent
    indices), per-trial (trials, 1) columns broadcast over (trials, m)
    arrays, the noise compared and packed again for every n, and argmax
    decisions.  Returns [outage, error, ml_error, violations] per entry
    of ns."""
    state_rng, noise_rng, *run_rngs = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2 + 2 * len(ns))
    )
    law = state_law(composite)
    ps = law.params[state_rng.choice(law.mass.size, size=trials, p=law.mass)]
    noise_u = noise_rng.random((trials, max(ns)))
    pc = np.clip(ps, 1e-300, 1.0 - 1e-16)
    log_p = np.log2(pc)[:, None]
    log_1p = np.log2(1.0 - pc)[:, None]
    counts = []
    for n, book_rng, sent_rng in zip(ns, run_rngs[0::2], run_rngs[1::2]):
        m = int(math.floor(2.0 ** (n * rate)))
        books = _draw_codebooks(book_rng, trials, m, n)
        sent = sent_rng.integers(0, m, size=trials)
        y = books[np.arange(trials), sent] ^ _pack_bits(noise_u[:, :n] < ps[:, None])
        dist = np.bitwise_count(books ^ y[:, None, :]).sum(axis=2, dtype=np.int64)
        dens = 1.0 + (dist / n) * log_p + (1.0 - dist / n) * log_1p
        passed = dens >= threshold
        num_passed = passed.sum(axis=1)
        first = np.argmax(passed, axis=1)
        outage = num_passed == 0
        error = (~outage) & ((num_passed > 1) | (first != sent))
        c = [int(outage.sum()), int(error.sum()), 0, 0]
        if ml_oracle:
            loglik = dist * np.log(pc)[:, None] + (n - dist) * np.log(1.0 - pc)[:, None]
            ml_err = np.argmax(loglik, axis=1) != sent
            c[2] = int(ml_err.sum())
            c[3] = int((ml_err & ~(outage | error)).sum())
        counts.append(c)
    return counts


@settings(max_examples=120, deadline=None)
@given(
    params=st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5), min_size=1, max_size=3),
    ns=st.lists(st.integers(1, 130) | st.sampled_from([63, 64, 65, 128]), min_size=1, max_size=3, unique=True),
    m_top=st.integers(1, 40),
    trials=st.integers(1, 160),
    tie=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 130)),
    ml=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# m = 1 at every n, with p = 0 and p = 1/2 (every log-likelihood ties).
@example(params=[0.0, 0.5], ns=[64, 1, 128], m_top=1, trials=40, tie=(1, 0, 3), ml=True, seed=3)
# m = 40 codewords against 16 trials: the codeword axis is the long one.
@example(params=[0.5, 0.1], ns=[65, 63], m_top=40, trials=16, tie=(0, 0, 30), ml=True, seed=4)
def test_codeword_major_decode_matches_trial_major_oracle(params, ns, m_top, trials, tie, ml, seed):
    composite = DiscreteComposite(tuple(BscState(p) for p in params), [1.0 / len(params)] * len(params))
    # The largest n gets m_top codewords; smaller n get fewer.
    rate = math.log2(m_top + 0.5) / max(ns)
    # A threshold on an attainable density value, evaluated as the decoder
    # does, so that `>=` ties occur.
    k, j, d = tie
    n = ns[j % len(ns)]
    pc = np.clip(np.array([params[k % len(params)]]), 1e-300, 1.0 - 1e-16)
    frac = np.array([float(d % (n + 1))]) / n
    target = float((1.0 + frac * np.log2(pc) + (1.0 - frac) * np.log2(1.0 - pc))[0])
    # C_q and epsilon with C_q - epsilon == target exactly.
    c_q, epsilon = (2.0 * target, target) if target > 0 else (target / 2, -target / 2) if target < 0 else (1.0, 1.0)
    assert c_q - epsilon == target
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "capacity_vs_outage", lambda composite, q: c_q)
        results = simulate_outage_code_sweep(composite, ns, rate=rate, q=0.5, trials=trials,
                                             epsilon=epsilon, seed=seed, ml_oracle=ml)
    want = _trial_major_counts(composite, ns, rate, target, trials, seed, ml)
    for res, (outage, error, ml_error, violations) in zip(results, want):
        decoded = trials - outage
        assert res.outage_rate == outage / trials
        assert res.error_rate_given_no_outage == (error / decoded if decoded else 0.0)
        assert res.ml_error_rate == (ml_error / trials if ml else None)
        assert res.ml_dominance_violations == (violations if ml else None)


def _sweep_with_chunk(chunk, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK", chunk)
        return simulate_outage_code_sweep(*args, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    params=st.none() | st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5), min_size=1, max_size=3),
    ns=st.lists(st.integers(1, 130) | st.sampled_from([63, 64, 65, 128]), min_size=1, max_size=4),
    m_top=st.integers(1, 40),
    trials=st.integers(1, 100),
    prime=st.sampled_from([2, 3, 7, 13, 31]),
    extra=st.integers(0, 50),
    ml=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# The uniform law, a repeated n, m = 40 codewords above chunks of 7 trials
# and below the chunk of all 99, which 7 does not divide.
@example(params=None, ns=[64, 65, 64, 128], m_top=40, trials=99, prime=7, extra=0, ml=True, seed=5)
# p = 0 and p = 1/2 (every log-likelihood ties), m = 1 at every n.
@example(params=[0.0, 0.5], ns=[63, 63], m_top=1, trials=50, prime=3, extra=1, ml=True, seed=6)
def test_chunk_size_changes_no_count(params, ns, m_top, trials, prime, extra, ml, seed):
    # Every stream is consumed in trial order, so decoding in chunks of 1,
    # of a prime and of at least all trials gives the same results: equal
    # rates over the same trials are equal outage, error, ML-error and
    # violation counts.
    if params is None:
        composite = ContinuousBscComposite.uniform()
    else:
        composite = DiscreteComposite(tuple(BscState(p) for p in params), [1.0 / len(params)] * len(params))
    rate = math.log2(m_top + 0.5) / max(ns)
    args = (composite, ns)
    kwargs = dict(rate=rate, q=0.5, trials=trials, seed=seed, ml_oracle=ml)
    whole = _sweep_with_chunk(trials + extra, *args, **kwargs)
    assert _sweep_with_chunk(1, *args, **kwargs) == whole
    assert _sweep_with_chunk(prime, *args, **kwargs) == whole


def test_chunks_stay_under_the_byte_budget():
    # A chunk's codebooks at one n and its noise uniforms each take at most
    # _CHUNK_BYTES; the sizes are read off the state draws, one per chunk.
    def chunk_sizes(ns, rate, trials):
        sizes = []
        draw = StateLaw.sample
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_CHUNK_BYTES", 2**12)
            mp.setattr(StateLaw, "sample", lambda law, rng, size: sizes.append(size) or draw(law, rng, size))
            simulate_outage_code_sweep(GE_FROZEN, ns, rate=rate, q=0.5, trials=trials, seed=0)
        return sizes

    # 32 codewords of one word: 256 bytes per trial, so 16 trials per chunk.
    assert chunk_sizes([10, 4], 0.5, 40) == [16, 16, 8]
    # One codeword of three words, but 130 noise uniforms per trial.
    assert chunk_sizes([130], 0.001, 7) == [3, 3, 1]
    # A single trial over the budget is still decoded, alone.
    assert chunk_sizes([600], 0.001, 2) == [1, 1]


def test_simulate_blocklength_above_64():
    # Two words per codeword.  Noiseless: every trial decodes.
    res = simulate_outage_code_sweep(NOISELESS, [100], rate=0.05, q=0.1, trials=2000, seed=0)[0]
    assert res.outage_rate == 0.0 and res.error_rate_given_no_outage == 0.0
    # BSC(0.1): the sent codeword passes at d <= 10 of all 100 bits (10 of
    # only the first 64 would make outages about 8 times rarer), and a
    # uniform wrong codeword passes with probability P(Bin(100, 1/2) <= 10).
    p, n, trials, delta = 0.1, 100, 4000, 1e-6
    bsc = DiscreteComposite((BscState(p),), [1.0])
    res = simulate_outage_code_sweep(bsc, [n], rate=0.05, q=0.1, trials=trials, seed=0)[0]
    d = np.arange(n + 1)
    dens = 1.0 + (d / n) * np.log2(p) + (1.0 - d / n) * np.log2(1.0 - p)
    passing = d[dens >= bsc_capacity(p) - 0.01].max()
    assert passing == 10
    p_out = binom.sf(passing, n, p) * binom.sf(passing, n, 0.5) ** 31
    assert abs(res.outage_rate - p_out) <= math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


def test_uncoded_bec_approaches_mean_rate():
    bec = DiscreteComposite((BecState(0.1), BecState(0.3)), [0.5, 0.5])
    res = simulate_uncoded_bec(bec, n=2000, trials=500, seed=4)
    assert res.expected_rate == pytest.approx(0.8, abs=0.015)
    assert res.outage_rate == 0.0 and res.error_rate_given_no_outage == 0.0
    assert res.rate == 1.0
    assert res.per_state_rates[0] == pytest.approx(0.9, abs=0.01)
    assert res.per_state_rates[1] == pytest.approx(0.7, abs=0.01)
    again = simulate_uncoded_bec(bec, n=2000, trials=500, seed=4)
    assert res == again


def test_uncoded_bec_per_state_hoeffding():
    # Each per-state rate averages k_s * n independent unerased bits, and
    # k_s is Binomial(trials, w_s): Hoeffding on both, delta = 1e-6 each.
    alphas, pmf = [0.1, 0.3, 0.6], [0.2, 0.5, 0.3]
    n, trials, log_term = 1000, 5000, math.log(2.0 / 1e-6)
    bec = DiscreteComposite(tuple(BecState(a) for a in alphas), pmf)
    res = simulate_uncoded_bec(bec, n=n, trials=trials, seed=0)
    assert sorted(res.per_state_rates) == [0, 1, 2]
    for s, (alpha, w) in enumerate(zip(alphas, pmf)):
        k_min = trials * w - math.sqrt(trials * log_term / 2.0)
        band = math.sqrt(log_term / (2.0 * k_min * n))
        assert abs(res.per_state_rates[s] - (1.0 - alpha)) <= band
    mean = 1.0 - float(np.dot(pmf, alphas))
    assert abs(res.expected_rate - mean) <= math.sqrt(log_term / (2.0 * trials))


def test_uncoded_bec_beyond_int64_uses():
    # n k above 2^63: the erasure total is split into binomial draws of
    # at most 2^63 - 1 uses (two draws of two blocks and one of one
    # block here), and the rate stays within a Hoeffding band
    # (delta = 1e-6) over its n k bits.
    n, trials = 3 * 2**60, 5
    bec = DiscreteComposite((BecState(0.3),), [1.0])
    res = simulate_uncoded_bec(bec, n=n, trials=trials, seed=1)
    assert math.isfinite(res.expected_rate)
    assert abs(res.expected_rate - 0.7) <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n * trials))
    assert res.per_state_rates == {0: res.expected_rate}
    # A numpy integer n must not wrap in n * k.
    assert simulate_uncoded_bec(bec, n=np.int64(n), trials=trials, seed=1) == res
    with pytest.raises(ValueError, match="n must fit in int64"):
        simulate_uncoded_bec(bec, n=2**63, trials=2, seed=1)


def test_uncoded_bec_fully_erased():
    res = simulate_uncoded_bec(DiscreteComposite((BecState(1.0),), [1.0]), n=100, trials=50, seed=0)
    assert res.expected_rate == 0.0
    assert res.per_state_rates == {0: 0.0}


def test_uncoded_bec_validation():
    bsc = DiscreteComposite((BscState(0.1),), [1.0])
    with pytest.raises(ValueError):
        simulate_uncoded_bec(bsc, n=100, trials=10)
    bec = DiscreteComposite((BecState(0.1),), [1.0])
    with pytest.raises(ValueError):
        simulate_uncoded_bec(bec, n=0, trials=10)
    with pytest.raises(ValueError):
        simulate_uncoded_bec(bec, n=100, trials=0)


def test_sim_result_validation():
    with pytest.raises(ValueError):
        SimResult(trials=10, blocklength=8, rate=0.2, outage_rate=1.5,
                  error_rate_given_no_outage=0.0, expected_rate=0.1, seed=0)
    with pytest.raises(ValueError):
        SimResult(trials=10, blocklength=8, rate=0.2, outage_rate=0.0,
                  error_rate_given_no_outage=0.0, expected_rate=0.3, seed=0)
