import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chancap import (
    BroadcastCodeSpec,
    ExpectedRateCodeSpec,
    IndexSets,
    bc_to_expected,
    canonical_subsets,
    expected_to_bc,
    subset_weighted_rate,
)


def test_canonical_subsets_order():
    got = canonical_subsets([(1,), (0, 1), (0,), (1, 2)])
    assert got == [(0, 1), (1, 2), (0,), (1,)]
    # members are sorted and deduplicated before ordering
    assert canonical_subsets([(1, 0), (2, 2)]) == [(0, 1), (2,)]
    with pytest.raises(ValueError):
        canonical_subsets([(0, 1), (1, 0)])


def test_broadcast_spec_validation():
    BroadcastCodeSpec(num_states=2, rates={(0, 1): 0.3}, n=20)
    with pytest.raises(ValueError):
        BroadcastCodeSpec(num_states=0, rates={}, n=20)
    with pytest.raises(ValueError):
        BroadcastCodeSpec(num_states=2, rates={(0,): 0.1}, n=0)
    with pytest.raises(ValueError):
        BroadcastCodeSpec(num_states=2, rates={(): 0.1}, n=20)
    with pytest.raises(ValueError):
        BroadcastCodeSpec(num_states=2, rates={(0, 2): 0.1}, n=20)
    with pytest.raises(ValueError):
        BroadcastCodeSpec(num_states=2, rates={(0, 1): 0.1, (1, 0): 0.2}, n=20)
    with pytest.raises(ValueError):
        BroadcastCodeSpec(num_states=2, rates={(0,): -0.1}, n=20)


def test_bc_to_expected_hand_case():
    # two states, a common 0.3 message plus a 0.2 private one for state 1
    spec = BroadcastCodeSpec(num_states=2, rates={(0, 1): 0.3, (1,): 0.2}, n=20)
    code = bc_to_expected(spec, [0.5, 0.5])
    sets = code.index_sets
    assert sets.i_t == frozenset(range(1, 11))
    assert sets.i_p[(0, 1)] == frozenset(range(1, 7))
    assert sets.i_p[(1,)] == frozenset(range(7, 11))
    assert sets.i_s[0] == frozenset(range(1, 7))
    assert sets.i_s[1] == frozenset(range(1, 11))
    assert code.total_rate == 0.5
    assert code.state_rates == {0: 0.3, 1: 0.5}
    assert code.expected_rate == pytest.approx(0.4, abs=1e-15)
    assert code.rounding_deficit == 0.0
    sets.verify()


def test_bc_to_expected_all_common():
    spec = BroadcastCodeSpec(num_states=3, rates={(0, 1, 2): 0.25}, n=8)
    code = bc_to_expected(spec, [0.2, 0.3, 0.5])
    assert code.state_rates == {0: 0.25, 1: 0.25, 2: 0.25}
    assert code.expected_rate == pytest.approx(0.25, abs=1e-15)


def test_bc_to_expected_empty_rates():
    spec = BroadcastCodeSpec(num_states=2, rates={}, n=8)
    code = bc_to_expected(spec, [0.5, 0.5])
    assert code.total_rate == 0.0
    assert code.index_sets.i_t == frozenset()
    assert code.expected_rate == 0.0


def test_bc_to_expected_pmf_validation():
    spec = BroadcastCodeSpec(num_states=2, rates={(0,): 0.5}, n=8)
    with pytest.raises(ValueError):
        bc_to_expected(spec, [0.5])
    with pytest.raises(ValueError):
        bc_to_expected(spec, [0.7, 0.7])
    with pytest.raises(ValueError):
        bc_to_expected(spec, [-0.5, 1.5])


def test_bc_to_expected_floor_rounding():
    # nominal bits 10/3: floors to 3, deficit 1/3 - 3/10 <= |P|/n
    spec = BroadcastCodeSpec(num_states=1, rates={(0,): 1.0 / 3.0}, n=10)
    code = bc_to_expected(spec, [1.0])
    assert code.index_sets.i_t == frozenset({1, 2, 3})
    assert code.total_rate == 0.3
    assert code.rounding_deficit == pytest.approx(1.0 / 3.0 - 0.3, abs=1e-15)
    assert code.rounding_deficit <= 1.0 / 10.0
    # near-integral rates snap instead of losing a bit
    snap = bc_to_expected(
        BroadcastCodeSpec(num_states=1, rates={(0,): 0.1 + 0.2}, n=10), [1.0]
    )
    assert snap.total_rate == 0.3
    assert abs(snap.rounding_deficit) < 1e-12


def test_round_trip_exact():
    spec = BroadcastCodeSpec(
        num_states=3,
        rates={(0, 1, 2): 4 / 16, (1, 2): 3 / 16, (2,): 2 / 16, (0,): 1 / 16},
        n=16,
    )
    code = bc_to_expected(spec, [0.3, 0.3, 0.4])
    back = expected_to_bc(code)
    assert back.num_states == 3
    assert back.rates == spec.rates
    # degraded layout: later states decode supersets
    assert code.state_rates[2] >= code.state_rates[1] >= code.state_rates[0] - 1 / 16


def test_nested_and_disjoint_layouts():
    nested = bc_to_expected(
        BroadcastCodeSpec(num_states=3, rates={(0, 1, 2): 0.25, (1, 2): 0.25, (2,): 0.25}, n=8),
        [1 / 3, 1 / 3, 1 / 3],
    )
    s = nested.index_sets.i_s
    assert s[0] < s[1] < s[2]
    disjoint = bc_to_expected(
        BroadcastCodeSpec(num_states=2, rates={(0,): 0.25, (1,): 0.5}, n=8),
        [0.5, 0.5],
    )
    d = disjoint.index_sets.i_s
    assert not (d[0] & d[1])
    assert len(d[0]) == 2 and len(d[1]) == 4


def test_index_sets_verify_failures():
    good = IndexSets(
        n=4, i_t=frozenset({1, 2}), i_p={(0,): frozenset({1, 2})}, i_s={0: frozenset({1, 2})}
    )
    good.verify()
    with pytest.raises(ValueError):
        IndexSets(
            n=4, i_t=frozenset({1}), i_p={(0,): frozenset({1, 2})}, i_s={0: frozenset({1, 2})}
        ).verify()
    with pytest.raises(ValueError):
        IndexSets(
            n=4,
            i_t=frozenset({1, 2}),
            i_p={(0,): frozenset({1, 2}), (1,): frozenset({2})},
            i_s={0: frozenset({1, 2}), 1: frozenset({2})},
        ).verify()
    with pytest.raises(ValueError):
        IndexSets(
            n=4, i_t=frozenset({1, 2}), i_p={(0,): frozenset({1})}, i_s={0: frozenset({1})}
        ).verify()
    with pytest.raises(ValueError):
        IndexSets(
            n=4, i_t=frozenset({1}), i_p={(0,): frozenset({1})}, i_s={0: frozenset()}
        ).verify()


def test_expected_to_bc_orphan_index_is_structural_error():
    sets = IndexSets(n=2, i_t=frozenset({1, 2}), i_p={}, i_s={0: frozenset({1})})
    code = ExpectedRateCodeSpec(
        n=2,
        total_rate=1.0,
        state_rates={0: 0.5},
        index_sets=sets,
        expected_rate=0.5,
        rounding_deficit=0.0,
    )
    with pytest.raises(ValueError):
        expected_to_bc(code)


def test_expected_to_bc_index_outside_i_t_is_structural_error():
    # I_s for state 0 holds index 3, which I_t does not: the recovered
    # blocks cover only I_t, so I_s is not their union.
    sets = IndexSets(n=2, i_t=frozenset({1, 2}), i_p={},
                     i_s={0: frozenset({1, 2, 3}), 1: frozenset({2})})
    code = ExpectedRateCodeSpec(
        n=2,
        total_rate=1.0,
        state_rates={0: 1.0, 1: 0.5},
        index_sets=sets,
        expected_rate=0.75,
        rounding_deficit=0.0,
    )
    with pytest.raises(ValueError, match="I_s for state 0 is not the union of its blocks"):
        expected_to_bc(code)


def test_expected_rate_spec_validation():
    sets = IndexSets(n=2, i_t=frozenset({1}), i_p={(0,): frozenset({1})}, i_s={0: frozenset({1})})
    with pytest.raises(ValueError):
        ExpectedRateCodeSpec(
            n=2,
            total_rate=0.5,
            state_rates={0: 0.6},
            index_sets=sets,
            expected_rate=0.6,
            rounding_deficit=0.0,
        )


def test_subset_weighted_rate_identity():
    spec = BroadcastCodeSpec(num_states=2, rates={(0, 1): 0.3, (1,): 0.2}, n=20)
    pmf = [0.5, 0.5]
    code = bc_to_expected(spec, pmf)
    assert subset_weighted_rate(spec, pmf) == pytest.approx(code.expected_rate, abs=1e-13)
    assert subset_weighted_rate(spec, pmf) == pytest.approx(0.4, abs=1e-15)


@st.composite
def random_spec(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    all_subsets = canonical_subsets(
        [tuple(s for s in range(k) if mask & (1 << s)) for mask in range(1, 2**k)]
    )
    chosen = draw(
        st.lists(st.sampled_from(all_subsets), min_size=1, max_size=len(all_subsets), unique=True)
    )
    n = 16
    bits = draw(st.lists(st.integers(0, 8), min_size=len(chosen), max_size=len(chosen)))
    rates = {p: m / n for p, m in zip(chosen, bits)}
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    total = sum(weights)
    return BroadcastCodeSpec(num_states=k, rates=rates, n=n), [w / total for w in weights]


@settings(max_examples=80, deadline=None)
@given(case=random_spec())
def test_round_trip_and_identity_random(case):
    spec, pmf = case
    code = bc_to_expected(spec, pmf)
    code.index_sets.verify()
    assert abs(code.rounding_deficit) < 1e-12
    assert subset_weighted_rate(spec, pmf) == pytest.approx(code.expected_rate, abs=1e-13)
    back = expected_to_bc(code)
    nonzero = {p: r for p, r in spec.rates.items() if r > 0.0}
    assert back.rates == nonzero


def test_bc_to_expected_bit_budget():
    # 2^16 bits are laid out; past that, or at an n R_p beyond float
    # range, the code is refused before any index set is built.
    assert len(bc_to_expected(BroadcastCodeSpec(1, {(0,): 1.0}, 2**16), [1.0]).index_sets.i_t) == 2**16
    for n, rates in ((2**16 + 1, {(0,): 1.0}), (10**12, {(0, 1): 0.3, (1,): 0.2}), (20, {(0,): 1e308})):
        with pytest.raises(ValueError, match="must total at most 65536 bits"):
            bc_to_expected(BroadcastCodeSpec(2, rates, n), [0.5, 0.5])


def test_bc_to_expected_zero_rate_past_float_range():
    # n R_p with n past float range used to overflow and read as over
    # budget even at R_p = 0, which is a 0-bit block at any n.
    n = 10**400
    code = bc_to_expected(BroadcastCodeSpec(2, {(0,): 0.0, (0, 1): 0.0}, n), [0.5, 0.5])
    assert code.index_sets.i_t == frozenset() and code.total_rate == 0.0
    assert code.state_rates == {0: 0.0, 1: 0.0} and code.expected_rate == 0.0
    # A positive rate at that n is still refused.
    with pytest.raises(ValueError, match="must total at most 65536 bits"):
        bc_to_expected(BroadcastCodeSpec(2, {(0,): 0.0, (1,): 1e-300}, n), [0.5, 0.5])
