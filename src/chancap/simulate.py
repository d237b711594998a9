"""Small-blocklength random-coding simulation with outage decoding.

Encoding draws codebooks i.i.d. uniform; a fresh codebook is drawn for
every trial, so measured rates are averages over the random-coding
ensemble (a single fixed codebook at n = 8 is dominated by codebook
luck, which says nothing about the ensemble trend the theory predicts).

Decoding is the typical-set rule with threshold I_q - epsilon: compute
the normalized information density of the received block against every
codeword; declare an outage when no codeword passes, decode on a unique
passer, declare an error on multiple passers or a wrong unique passer.

An exhaustive maximum-likelihood oracle can run alongside: whenever the
typical-set decoder is correct, the true codeword is the unique passer
and hence the strict Hamming minimizer, so per trial
1{ML error} <= 1{TS outage or TS error}.

A sweep draws from 2 + 2 len(ns) generators spawned from the seed by
index: the states, the noise uniforms, and per entry of ns its codebooks
and its sent indices.  Each stream is consumed in trial order, so trials
are decoded in memory-bounded chunks whose size changes no count, and
every n sees the same states and noise (common random numbers).
Codewords and noise blocks are little-endian uint64 words, ceil(n/64)
per block with the bits above n zero; Hamming distances are popcounts
of their XOR.  A chunk's noise is packed once at the largest n, and each
n takes its prefix words.  The decode runs codeword-major: (m, trials)
distances with the trial axis innermost, so the density, the pass
counts and the ML maxima are passes along it.  Uncoded BEC trials use
one generator per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import capacity_vs_outage
from .channels import state_law

# Codebook size guards: floor(2^{nR}) codewords of n bits, and at most
# _MAX_DRAW bytes of a sweep's uint64 codebook words at one n.
_MAX_NR = 20.0
_MAX_DRAW = 2**29

# Trials per chunk: at most _CHUNK, and fewer when a chunk's codebooks at
# one n or its noise uniforms would pass _CHUNK_BYTES (cache-sized decode
# arrays).  Both are the fastest of those timed on a 2-core VM.
_CHUNK = 8192
_CHUNK_BYTES = 2**20

# Largest number of channel uses in one binomial draw.
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class SimResult:
    """Aggregated Monte Carlo outcome; deterministic for a fixed seed."""

    trials: int
    blocklength: int
    rate: float
    outage_rate: float
    error_rate_given_no_outage: float
    expected_rate: float
    seed: int
    per_state_rates: dict | None = None
    ml_error_rate: float | None = None
    ml_dominance_violations: int | None = None

    def __post_init__(self):
        for name in ("outage_rate", "error_rate_given_no_outage"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"SimResult: {name} must lie in [0, 1]")
        # The delivered rate is the nominal rate thinned by outages, so
        # it lives in [0, rate] (rates above 1 are legal inputs; they
        # just guarantee decoding errors on a binary channel).
        if not 0.0 <= self.expected_rate <= self.rate + 1e-12:
            raise ValueError("SimResult: expected_rate must lie in [0, rate]")


def _words(n: int) -> int:
    """uint64 words per packed n-bit block."""
    return -(-n // 64)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """(size, n) 0/1 array -> (size, ceil(n/64)) uint64 words, bit j of
    the block at bit j % 64 of word j // 64."""
    size, n = bits.shape
    padded = np.zeros((size, 64 * _words(n)), dtype=bool)
    padded[:, :n] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(size, -1)


def _draw_codebooks(rng, size: int, m: int, n: int) -> np.ndarray:
    """`size` codebooks of m uniform n-bit codewords, as (size, m, ceil(n/64))
    uint64 words with the bits above n cleared."""
    return _clear_above(rng.integers(0, 2**64, size=(size, m, _words(n)), dtype=np.uint64), n)


def _clear_above(words: np.ndarray, n: int) -> np.ndarray:
    """Clear, in place, the bits above n in the last of ceil(n/64) words."""
    if n % 64:
        words[..., -1] &= np.uint64((1 << (n % 64)) - 1)
    return words


def _distances(books: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hamming distances between packed codebooks (size, m, words) and
    packed received blocks (size, words), as a codeword-major (m, size)
    C-contiguous float array."""
    counts = np.bitwise_count(books ^ y[:, None, :])
    # Word by word: for n <= 64 a sum over the one-word axis would be a
    # reduction of length 1 per codeword.
    dist = counts[..., 0].T.astype(np.float64, order="C")
    for k in range(1, counts.shape[2]):
        dist += counts[..., k].T
    return dist


def simulate_outage_code_sweep(
    composite,
    ns,
    rate: float,
    q: float,
    trials: int,
    epsilon: float = 0.01,
    seed: int = 0,
    ml_oracle: bool = False,
) -> list[SimResult]:
    """Run the typical-set decoder at several blocklengths, paired.

    Every blocklength sees the same drawn states and the same noise
    uniforms (truncated to its own n), so cross-n error comparisons are
    common-random-number paired.  A repeated n is a further run with its
    own codebooks and its own result.
    """
    ns = [int(n) for n in ns]
    if len(ns) == 0 or any(n < 1 for n in ns):
        raise ValueError("simulate: blocklengths must be positive")
    if trials < 1:
        raise ValueError("simulate: trials must be >= 1")
    # Written as "not (in range)" so that NaN fails the checks.
    if not rate > 0.0:
        raise ValueError("simulate: rate must be positive")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("simulate: epsilon must be positive and finite")
    n_max = max(ns)
    if n_max * rate > _MAX_NR:
        raise ValueError(f"simulate: nR = {n_max * rate:.1f} exceeds the codebook budget ({_MAX_NR})")
    ms = [math.floor(2.0 ** (n * rate)) for n in ns]
    for n, m in zip(ns, ms):
        draw_bytes = trials * m * _words(n) * 8
        if draw_bytes > _MAX_DRAW:
            raise ValueError(
                f"simulate: the sweep's codebooks at n = {n} take {draw_bytes} bytes, "
                f"over the memory budget of {_MAX_DRAW} bytes; lower trials, n or rate"
            )

    threshold = capacity_vs_outage(composite, q) - epsilon
    law = state_law(composite)
    if law.family != "bsc":
        raise ValueError("simulate: outage-code simulation covers BSC families")
    # Generators by fixed index: the states, the noise uniforms, then the
    # codebooks and the sent indices of each entry of ns.
    seqs = np.random.SeedSequence(seed).spawn(2 + 2 * len(ns))
    state_rng, noise_rng, *run_rngs = map(np.random.default_rng, seqs)
    runs = list(zip(ns, ms, run_rngs[0::2], run_rngs[1::2]))
    trial_bytes = 8 * max(n_max, max(m * _words(n) for n, m in zip(ns, ms)))
    chunk = max(1, min(_CHUNK, trials, _CHUNK_BYTES // trial_bytes))

    # One tally per entry of ns: a repeated n is a second, independent run.
    counts = [{"outage": 0, "error": 0, "ml_error": 0, "violations": 0} for _ in ns]
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        ps = law.sample(state_rng, size)
        # Packed once at n_max; each n decodes the first n bits.
        noise = _pack_bits(noise_rng.random((size, n_max)) < ps[:, None])
        pc = np.clip(ps, 1e-300, 1.0 - 1e-16)
        log_p, log_1p = np.log2(pc), np.log2(1.0 - pc)
        if ml_oracle:
            ln_p, ln_1p = np.log(pc), np.log(1.0 - pc)
        cols = np.arange(size)

        for c, (n, m, book_rng, sent_rng) in zip(counts, runs):
            books = _draw_codebooks(book_rng, size, m, n)
            sent = sent_rng.integers(0, m, size=size)
            y = books[cols, sent] ^ _clear_above(noise[:, : _words(n)].copy(), n)
            # Codeword-major (m, size) arrays, and each trial's sent
            # codeword as a flat index into them.
            at_sent = sent * size + cols
            dist = _distances(books, y)
            # Density 1 + frac log2 p + (1 - frac) log2(1 - p), summed in
            # that order, in place: on large codebooks fresh temporaries
            # cost more than the arithmetic.
            frac = dist / n
            dens = frac * log_p
            dens += 1.0
            np.subtract(1.0, frac, out=frac)
            frac *= log_1p
            dens += frac
            passed = dens >= threshold
            num_passed = passed.sum(axis=0)
            # Correct: the sent codeword is the unique passer.  Every other
            # trial that is not an outage is an error.
            correct = (num_passed == 1) & passed.ravel()[at_sent]
            outage = int(np.count_nonzero(num_passed == 0))
            c["outage"] += outage
            c["error"] += size - outage - int(np.count_nonzero(correct))
            if ml_oracle:
                # Log-likelihood d ln p + (n - d) ln(1 - p), in place.
                loglik = dist * ln_p
                rest = np.subtract(n, dist, out=frac)
                rest *= ln_1p
                loglik += rest
                # ML errs unless the sent codeword is the first maximizer.
                ll_sent = loglik.ravel()[at_sent]
                earlier = np.less.outer(np.arange(m), sent)
                ml_err = (loglik.max(axis=0) > ll_sent) | ((loglik == ll_sent) & earlier).any(axis=0)
                c["ml_error"] += int(np.count_nonzero(ml_err))
                c["violations"] += int(np.count_nonzero(ml_err & correct))

    results = []
    for n, c in zip(ns, counts):
        decoded = trials - c["outage"]
        err_rate = c["error"] / decoded if decoded > 0 else 0.0
        out_rate = c["outage"] / trials
        results.append(
            SimResult(
                trials=trials,
                blocklength=n,
                rate=rate,
                outage_rate=out_rate,
                error_rate_given_no_outage=err_rate,
                # An outage code delivers its nominal rate exactly when
                # no outage is declared.
                expected_rate=rate * (1.0 - out_rate),
                seed=seed,
                ml_error_rate=(c["ml_error"] / trials) if ml_oracle else None,
                ml_dominance_violations=c["violations"] if ml_oracle else None,
            )
        )
    return results


def _erasure_total(rng, n: int, k: int, alpha: float) -> int:
    """Erasures in k blocks of n uses of BEC(alpha): one
    Binomial(n k, alpha) draw, or several of at most _INT64_MAX uses
    each when n k does not fit in int64."""
    per_draw = _INT64_MAX // n  # blocks per draw
    if k <= per_draw:
        return int(rng.binomial(n * k, alpha))
    full, rest = divmod(k, per_draw)
    total = sum(rng.binomial(n * per_draw, alpha, size=full).tolist())
    return total + int(rng.binomial(n * rest, alpha)) if rest else total


def simulate_uncoded_bec(composite, n: int, trials: int, seed: int = 0) -> SimResult:
    """Transmit information bits uncoded over a composite BEC.

    The receiver keeps the unerased positions, so a state-alpha trial
    delivers (n - erasures)/n information bits per use, approaching
    1 - alpha; the achieved expected rate estimates 1 - E[alpha].
    No outages and no errors occur: erasure locations are known.

    Trials are split over the states by one Multinomial(trials, pmf)
    draw.  Only each state's total of erasures is used, and the total
    over k blocks is one Binomial(n k, alpha) draw (split into draws of
    at most 2^63 - 1 uses when n k is larger).
    """
    law = state_law(composite)
    if law.family != "bec":
        raise ValueError("simulate_uncoded_bec: needs a discrete BEC composite")
    if n < 1 or trials < 1:
        raise ValueError("simulate_uncoded_bec: n and trials must be >= 1")
    if n > _INT64_MAX:
        raise ValueError("simulate_uncoded_bec: n must fit in int64")
    n = int(n)  # a numpy integer would wrap in n * k

    rng = np.random.default_rng(seed)
    rate_sum = 0.0
    per_state = {}
    for state, k in law.split(rng, trials):
        state_sum = (n * k - _erasure_total(rng, n, k, float(law.params[state]))) / n
        rate_sum += state_sum
        per_state[state] = state_sum / k
    return SimResult(
        trials=trials,
        blocklength=n,
        rate=1.0,  # raw information bits in, one per use
        outage_rate=0.0,
        error_rate_given_no_outage=0.0,
        expected_rate=rate_sum / trials,
        seed=seed,
        per_state_rates=per_state,
    )
