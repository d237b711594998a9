import numpy as np
import pytest

from chancap import (
    ERASURE,
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
    SimResult,
    ml_decode,
    simulate_outage_code,
    simulate_outage_code_sweep,
    simulate_uncoded_bec,
)

NOISELESS = DiscreteComposite((BscState(0.0),), [1.0])
GE_FROZEN = GilbertElliott(0.05, 0.3, g=0.0, b=0.0, pi_good=0.5)


def test_ml_decode_bsc():
    book = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.int8)
    assert ml_decode(book, np.array([0, 0, 0, 1]), BscState(0.1)) == 0
    assert ml_decode(book, np.array([1, 1, 0, 1]), BscState(0.1)) == 1
    assert ml_decode(book, np.array([1, 1, 1, 1]), BscState(0.1)) == 1
    # ties break to the smallest index
    assert ml_decode(book, np.array([0, 0, 1, 1]), BscState(0.1)) == 0


def test_ml_decode_bec():
    book = np.array([[0, 0], [1, 0]], dtype=np.int8)
    assert ml_decode(book, np.array([ERASURE, 0]), BecState(0.5)) == 0
    assert ml_decode(book, np.array([1, ERASURE]), BecState(0.5)) == 1
    assert ml_decode(book, np.array([ERASURE, ERASURE]), BecState(0.5)) == 0
    with pytest.raises(ValueError):
        ml_decode(np.array([[0, 0]], dtype=np.int8), np.array([1, 1]), BecState(0.5))


def test_ml_decode_validation():
    book = np.array([[0, 0], [1, 1]], dtype=np.int8)
    with pytest.raises(ValueError):
        ml_decode(book, np.array([0, 0, 0]), BscState(0.1))
    with pytest.raises(ValueError):
        ml_decode(book, np.array([0, 0]), "bsc")


def test_simulate_noiseless_decodes_everything():
    res = simulate_outage_code(NOISELESS, n=20, rate=0.2, q=0.1, trials=2000, seed=0)
    assert res.outage_rate == 0.0
    assert res.error_rate_given_no_outage == 0.0
    assert res.expected_rate == 0.2
    assert res.blocklength == 20 and res.trials == 2000 and res.seed == 0


def test_simulate_rate_above_one_forces_errors():
    # 2^{nR} codewords cannot be distinct n-bit blocks when R > 1
    res = simulate_outage_code(NOISELESS, n=8, rate=1.25, q=0.1, trials=2000, seed=0)
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


def test_simulate_ml_oracle_dominance():
    res = simulate_outage_code(GE_FROZEN, n=8, rate=0.15, q=0.5, trials=5000, seed=0, ml_oracle=True)
    assert res.ml_dominance_violations == 0
    assert res.ml_error_rate is not None
    # ML decodes everything; typical-set turns most failures into outages
    assert res.ml_error_rate <= res.outage_rate
    plain = simulate_outage_code(GE_FROZEN, n=8, rate=0.15, q=0.5, trials=5000, seed=0)
    assert plain.ml_error_rate is None and plain.ml_dominance_violations is None


def test_simulate_continuous_composite():
    res = simulate_outage_code(ContinuousBscComposite.uniform(), n=16, rate=0.15, q=0.5,
                               trials=3000, seed=1)
    assert 0.0 <= res.outage_rate <= 1.0
    assert res.expected_rate == res.rate * (1.0 - res.outage_rate)


def test_simulate_validation():
    with pytest.raises(ValueError):
        simulate_outage_code_sweep(NOISELESS, [], rate=0.2, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code(NOISELESS, n=0, rate=0.2, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code(NOISELESS, n=8, rate=0.2, q=0.1, trials=0)
    with pytest.raises(ValueError):
        simulate_outage_code(NOISELESS, n=8, rate=0.0, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code(NOISELESS, n=8, rate=0.2, q=0.1, trials=100, epsilon=0.0)
    with pytest.raises(ValueError):
        simulate_outage_code(NOISELESS, n=200, rate=0.15, q=0.1, trials=100)
    with pytest.raises(ValueError):
        simulate_outage_code(GilbertElliott(0.05, 0.3, g=0.1, b=0.1, pi_good=0.5),
                             n=8, rate=0.15, q=0.5, trials=100)
    bec = DiscreteComposite((BecState(0.1),), [1.0])
    with pytest.raises(ValueError):
        simulate_outage_code(bec, n=8, rate=0.15, q=0.1, trials=100)


def test_codebook_draw_guard():
    # One shard would draw 1250 codebooks of 2^20 words of 20 bits
    # (about 26e9 entries); it is refused before anything is drawn.
    with pytest.raises(ValueError, match="memory budget"):
        simulate_outage_code(NOISELESS, n=20, rate=1.0, q=0.1, trials=10000)
    # The largest draw elsewhere in the suite (250 x 1024 x 8) still runs.
    simulate_outage_code(NOISELESS, n=8, rate=1.25, q=0.1, trials=2000, seed=0)


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
