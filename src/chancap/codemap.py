"""Bit-index bookkeeping between broadcast and expected-rate codes.

A broadcast code assigns rate R_p to every nonempty subset p of states
(the message decodable exactly by the states in p).  An expected-rate
code describes, per state s, which indices I_s of the total message
I_t = {1..nR_t} that state can decode.  The two descriptions are
equivalent: concatenating the subset blocks gives the index sets
(I_s = union of I_p over p containing s), and intersecting index sets
recovers the blocks
(I_p = (intersection of I_s, s in p) minus every I_s with s outside p).
Both directions are exact set algebra; rates follow as |I|/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fractional nR_p within this tolerance of an integer is treated as
# integral (guards n * (m/n) round-trips).
_INT_TOL = 1e-9

# Most bits of I_t that bc_to_expected lays out.  Each bit is an int in
# I_t, in its block and in every I_s that holds it, so the sets grow
# with n R_t: at 2^16 bits mapdemo peaks near 56 MB max RSS with two
# states and 92 MB with nine, and at n = 10^12 with its default rates
# it would need terabytes.
_MAX_BITS = 2**16


def canonical_subsets(subsets) -> list[tuple[int, ...]]:
    """Fixed concatenation order: cardinality descending, then lexicographic.

    Puts the most-common information (largest subsets) at the lowest
    indices, which keeps nested/degraded examples human-readable.
    """
    normed = [tuple(sorted(set(p))) for p in subsets]
    if len(set(normed)) != len(normed):
        raise ValueError("canonical_subsets: duplicate subsets")
    return sorted(normed, key=lambda p: (-len(p), p))


@dataclass(frozen=True)
class BroadcastCodeSpec:
    """Per-subset rates of a broadcast code over `num_states` states."""

    num_states: int
    rates: dict
    n: int

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("BroadcastCodeSpec: need at least one state")
        if self.n < 1:
            raise ValueError("BroadcastCodeSpec: blocklength must be >= 1")
        normed = {}
        for subset, rate in self.rates.items():
            key = tuple(sorted(set(subset)))
            if len(key) == 0:
                raise ValueError("BroadcastCodeSpec: subsets must be nonempty")
            if any(s < 0 or s >= self.num_states for s in key):
                raise ValueError("BroadcastCodeSpec: subset members must be valid state indices")
            if key in normed:
                raise ValueError("BroadcastCodeSpec: duplicate subset")
            r = float(rate)
            if not math.isfinite(r) or r < 0.0:
                raise ValueError("BroadcastCodeSpec: rates must be finite and nonnegative")
            normed[key] = r
        object.__setattr__(self, "rates", normed)


@dataclass(frozen=True)
class IndexSets:
    """I_t = {1..nR_t} partitioned into per-subset blocks I_p."""

    n: int
    i_t: frozenset
    i_p: dict
    i_s: dict

    def verify(self):
        """Partition and union invariants; raises on structural failure."""
        seen = set()
        for subset, block in self.i_p.items():
            if not block <= self.i_t:
                raise ValueError(f"IndexSets: block {subset} escapes I_t")
            if seen & block:
                raise ValueError(f"IndexSets: block {subset} overlaps another block")
            seen |= block
        if seen != set(self.i_t):
            raise ValueError("IndexSets: blocks do not partition I_t")
        for s, idx in self.i_s.items():
            expect = set()
            for subset, block in self.i_p.items():
                if s in subset:
                    expect |= block
            if set(idx) != expect:
                raise ValueError(f"IndexSets: I_s for state {s} is not the union of its blocks")


@dataclass(frozen=True)
class ExpectedRateCodeSpec:
    """Expected-rate code: total rate, per-state rates, index sets."""

    n: int
    total_rate: float
    state_rates: dict
    index_sets: IndexSets
    expected_rate: float
    rounding_deficit: float

    def __post_init__(self):
        for s, r in self.state_rates.items():
            if r > self.total_rate + 1e-12:
                raise ValueError("ExpectedRateCodeSpec: a state rate exceeds the total rate")


def bc_to_expected(spec: BroadcastCodeSpec, pmf) -> ExpectedRateCodeSpec:
    """Map a broadcast code to its expected-rate description.

    Blocks are laid out by concatenation in canonical subset order;
    fractional nR_p floors to an integer block with the lost rate
    reported as `rounding_deficit` (at most one bit per subset, so the
    deficit is bounded by |P|/n).
    """
    w = np.asarray(pmf, dtype=float)
    if w.shape != (spec.num_states,):
        raise ValueError("bc_to_expected: pmf length must match the state count")
    # Written as "not (in range)" so that NaN fails the check.
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9):
        raise ValueError("bc_to_expected: pmf must be a probability vector")

    order = canonical_subsets(spec.rates.keys())
    try:
        # R_p = 0 is a 0-bit block at any n, even one past float range.
        sizes = [math.floor(spec.n * r + _INT_TOL) if r else 0 for r in map(spec.rates.get, order)]
    except OverflowError:  # n R_p is infinite, or n is past float range
        sizes = [math.inf]
    if sum(sizes) > _MAX_BITS:
        raise ValueError(f"bc_to_expected: the floor(n R_p) must total at most {_MAX_BITS} bits")
    blocks = {}
    start = 1
    deficit = 0.0
    for subset, m in zip(order, sizes):
        deficit += spec.rates[subset] - m / spec.n
        blocks[subset] = frozenset(range(start, start + m))
        start += m
    total_bits = start - 1
    i_t = frozenset(range(1, total_bits + 1))
    i_s = {
        s: frozenset().union(*(blocks[p] for p in order if s in p))
        for s in range(spec.num_states)
    }
    sets = IndexSets(n=spec.n, i_t=i_t, i_p=blocks, i_s=i_s)
    sets.verify()

    state_rates = {s: len(i_s[s]) / spec.n for s in range(spec.num_states)}
    expected = float(sum(w[s] * state_rates[s] for s in range(spec.num_states)))
    return ExpectedRateCodeSpec(
        n=spec.n,
        total_rate=total_bits / spec.n,
        state_rates=state_rates,
        index_sets=sets,
        expected_rate=expected,
        rounding_deficit=deficit,
    )


def expected_to_bc(code: ExpectedRateCodeSpec) -> BroadcastCodeSpec:
    """Recover the broadcast code from per-state index sets.

    Every index is classified by its membership profile: the subset p
    collecting exactly the states whose I_s contain it.  Indices with an
    empty profile cannot belong to any broadcast message, so their
    presence in I_t is a structural error (the blocks would not
    partition I_t).
    """
    sets = code.index_sets
    states = sorted(sets.i_s.keys())
    profile_blocks: dict = {}
    for idx in sorted(sets.i_t):
        profile = tuple(s for s in states if idx in sets.i_s[s])
        if len(profile) == 0:
            raise ValueError("expected_to_bc: index belongs to no state (non-partition)")
        profile_blocks.setdefault(profile, set()).add(idx)

    rates = {p: len(block) / code.n for p, block in profile_blocks.items()}
    rebuilt = IndexSets(
        n=code.n,
        i_t=sets.i_t,
        i_p={p: frozenset(b) for p, b in profile_blocks.items()},
        i_s=sets.i_s,
    )
    rebuilt.verify()
    num_states = max(states) + 1 if states else 1
    return BroadcastCodeSpec(num_states=num_states, rates=rates, n=code.n)


def subset_weighted_rate(spec: BroadcastCodeSpec, pmf) -> float:
    """Expected rate written subset-first: sum_p R_p sum_{s in p} pmf(s).

    Equals sum_s pmf(s) R_s computed from the index sets whenever the
    nR_p are integral; the acceptance suite checks the identity to
    machine precision.
    """
    w = np.asarray(pmf, dtype=float)
    return float(sum(r * sum(w[s] for s in p) for p, r in spec.rates.items()))
