"""Information spectrum estimation.

The normalized information density of a block, (1/n) i(X^n; Y^n | S),
has closed forms for the symmetric families under uniform input:
a function of the Hamming distance for the BSC and of the erasure
count for the BEC.  Sampling those sufficient statistics directly
avoids accumulating n log-ratios (no cancellation, and n = 10^4 is
cheap).  The empirical cdf of the draws, kept as (value, count)
cells, is the estimated information spectrum F(alpha).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channels import ContinuousBscComposite, state_law


def info_density_bsc(d, n: int, p):
    """Normalized information density of a BSC block at Hamming distance d.

    Under uniform input, (1/n) i = 1 + (d/n) log2 p + (1 - d/n) log2(1-p),
    for scalars or matching arrays of d and p.  At p = 0 (or 1) only the
    deterministic distance is possible; any other d signals an
    impossible event and is rejected loudly.
    """
    d_arr = np.asarray(d)
    p_arr = np.asarray(p, dtype=float)
    if n < 1:
        raise ValueError("info_density_bsc: n must be >= 1")
    # Written as "not (in range)" so that NaN fails the checks.
    if not ((d_arr >= 0) & (d_arr <= n)).all():
        raise ValueError("info_density_bsc: need 0 <= d <= n")
    if not ((p_arr >= 0.0) & (p_arr <= 1.0)).all():
        raise ValueError("info_density_bsc: p must lie in [0, 1]")
    frac = d_arr.astype(float) / n
    # p in {0, 1} is handled exactly below; the clamp only protects
    # the vectorized log evaluation.
    pc = np.clip(p_arr, 1e-300, 1.0 - 1e-16)
    out = 1.0 + frac * np.log2(pc) + (1.0 - frac) * np.log2(1.0 - pc)
    exact = (p_arr == 0.0) | (p_arr == 1.0)
    if exact.any():
        if np.any(exact & (d_arr != np.where(p_arr == 0.0, 0, n))):
            raise AssertionError("info_density_bsc: impossible distance for a deterministic channel")
        out = np.where(exact, 1.0, out)
    return float(out) if out.ndim == 0 else out


def info_density_bec(e, n: int, alpha):
    """Normalized information density of a BEC block with e erasures: (n-e)/n."""
    e_arr = np.asarray(e)
    alpha_arr = np.asarray(alpha, dtype=float)
    if n < 1:
        raise ValueError("info_density_bec: n must be >= 1")
    # Written as "not (in range)" so that NaN fails the checks.
    if not ((e_arr >= 0) & (e_arr <= n)).all():
        raise ValueError("info_density_bec: need 0 <= e <= n")
    if not ((alpha_arr >= 0.0) & (alpha_arr <= 1.0)).all():
        raise ValueError("info_density_bec: alpha must lie in [0, 1]")
    out = (n - e_arr.astype(float)) / n
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EmpiricalCdf:
    """Monte Carlo estimate of the information spectrum as weighted cells.

    `values` holds the sorted cell values of the normalized information
    density (ties between cells are allowed) and `cum_counts` the int64
    cumulative draw counts of the cells, strictly increasing and ending
    at `trials`.  The cdf is that of the draws
    np.repeat(values, np.diff(cum_counts, prepend=0)), computed without
    expanding them, so both queries cost O(log cells) per point.
    """

    values: np.ndarray
    cum_counts: np.ndarray
    blocklength: int
    trials: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        cum = np.asarray(self.cum_counts)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("EmpiricalCdf: values must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("EmpiricalCdf: values must be finite")
        if np.any(v[1:] < v[:-1]):
            raise ValueError("EmpiricalCdf: values must be sorted")
        if cum.shape != v.shape or not np.issubdtype(cum.dtype, np.integer):
            raise ValueError("EmpiricalCdf: cum_counts must be integers, one per value")
        if cum[0] < 1 or np.any(cum[1:] <= cum[:-1]):
            raise ValueError("EmpiricalCdf: cell counts must be positive")
        if cum[-1] != self.trials:
            raise ValueError("EmpiricalCdf: trials must equal the total count")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "cum_counts", cum.astype(np.int64, copy=False))

    def evaluate(self, alpha):
        """F_hat(alpha) = fraction of draws <= alpha (right-continuous)."""
        if not np.all(np.isfinite(alpha)):
            raise ValueError("EmpiricalCdf.evaluate: alphas must be finite")
        idx = np.searchsorted(self.values, alpha, side="right")
        below = np.where(idx > 0, self.cum_counts[idx - 1], 0)
        out = below.astype(float) / self.trials
        return float(out) if np.isscalar(alpha) else out


def cdf_quantile(cdf: EmpiricalCdf, q: float) -> float:
    """Largest alpha with F_hat(alpha) <= q, i.e. sup of the outage set.

    For a step function the supremum is the (floor(q m) + 1)-th order
    statistic: every alpha below it has F_hat <= q, and F_hat jumps
    above q at it.  That draw lies in the first cell whose cumulative
    count exceeds floor(q m).  q = 0 returns the smallest draw (the
    support infimum at this resolution).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("cdf_quantile: q must lie in [0, 1)")
    m = cdf.trials
    k = min(math.floor(q * m), m - 1)
    return float(cdf.values[cdf.cum_counts.searchsorted(k, side="right")])


# Loader's saddle-point form of the binomial pmf ("Fast and accurate
# computation of binomial probabilities", 2000): stirlerr(k) =
# ln k! - ln(sqrt(2 pi k) (k/e)^k), tabulated below 16 and a Stirling
# series above, and bd0(x, m) = x ln(x/m) + m - x.
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLERR_TABLE = np.array(
    [0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LN_2PI for k in range(1, 16)]
)


def _stirlerr(n: int) -> np.ndarray:
    """stirlerr(k) for k = 1..n: the table below 16, the series above."""
    out = np.empty(n)
    out[:15] = _STIRLERR_TABLE[1:n + 1]
    k = np.arange(16.0, n + 1)
    kk = k * k
    out[15:] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x ln(x/m) + m - x, as x log1p((x-m)/m) - (x-m) for accuracy near x = m."""
    d = x - m
    with np.errstate(over="ignore"):
        return x * np.log1p(d / m) - d


def _binomial_pmf(n: int, ps) -> np.ndarray:
    """Binomial(n, p) pmf at 0..n, one row per p of `ps`, each 0 < p < 1.

    Each probability above 1e-300 is within about 1e-11 of its value,
    relative, up to n = 10^6 and far into both tails; smaller ones may
    underflow to 0.  The terms free of p are formed once for all rows.
    """
    ps = np.asarray(ps, dtype=float)
    log_pmf = np.empty((ps.size, n + 1))
    log_pmf[:, 0] = [n * math.log1p(-p) for p in ps.tolist()]
    log_pmf[:, n] = [n * math.log(p) for p in ps.tolist()]
    k = np.arange(1.0, n)
    rest = k[::-1]  # n - k
    st = _stirlerr(n)
    head = st[-1] - st[:-1] - st[-2::-1]
    col = ps[:, None]
    # The terms are summed left to right as in a per-p evaluation, so a
    # row does not depend on the other ps.
    body = log_pmf[:, 1:n]
    np.subtract(head, _bd0(k, n * col), out=body)
    body -= _bd0(rest, n * (1.0 - col))
    body += 0.5 * np.log(n / (k * rest))
    body -= _HALF_LN_2PI
    return np.exp(log_pmf, out=log_pmf)


# Table cells built at once when drawing histograms: the rows of
# _histogram_tables come in chunks of at most this many cells (at least
# one row), so a law of many states at a large n needs no large table.
_TABLE_CELLS = 2**18


def _histogram_tables(n: int, ps: np.ndarray):
    """For each p of `ps` in turn, the counts 0..n ordered from both
    tails toward the mode of Binomial(n, p), and their probabilities.

    A row's category j is count j below the mode, else n + mode - j.
    numpy's multinomial draws the categories in order, each as a
    binomial with its probability over the mass not yet drawn, which it
    tracks by subtraction.  This order keeps that mass at least the
    mode's, so its rounding error never dominates a tail's remaining
    mass.  The rows are built in chunks of 2-D passes, each chunk when
    the first of its rows is asked for.
    """
    j = np.arange(n + 1)
    step = max(1, _TABLE_CELLS // (n + 1))
    for lo in range(0, ps.size, step):
        pmf = _binomial_pmf(n, ps[lo:lo + step])
        mode = pmf.argmax(axis=1)[:, None]
        order = np.where(j < mode, j, n + mode - j)
        # One flat gather: faster than take_along_axis, same values.
        yield from zip(order, pmf.take(order + (n + 1) * np.arange(len(pmf))[:, None]))


def _count_histogram(rng, n: int, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupied counts and their multiplicities among k Binomial(n, p)
    draws, drawn one by one.

    At p = 0 every count is 0, and numpy's Binomial(n, 0) draws consume
    no random numbers, so the one cell is returned without drawing (at
    p = 1 each draw consumes a uniform, so those draws stay).
    """
    if p == 0.0:
        return np.array([0]), np.array([k])
    return np.unique(rng.binomial(n, p, size=k), return_counts=True)


# Trials per block of a density law's draws.  The blocks fix the random
# stream: block 0 draws from the seed's generator and block j >= 1 from
# its spawned child j - 1, so changing this constant changes the draws.
_BLOCK = 2**14


@functools.cache
def _pool():
    """The helper threads of this process, one per core beside the
    calling thread, built on first use.

    numpy releases the GIL inside `binomial`, which is most of a
    density block's time, so the blocks draw on all cores at once.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(1, (os.cpu_count() or 1) - 1))


def estimate_spectrum(composite, n: int, trials: int, seed) -> EmpiricalCdf:
    """Monte Carlo estimate of the information spectrum at blocklength n.

    Each trial draws a state, then the closed-form sufficient statistic
    (Hamming distance or erasure count) as a Binomial(n, .) variable,
    and maps it through the per-block density.  The cells are sorted
    by value.

    For a density each draw is a cell of count 1.  The trials are drawn
    in blocks of _BLOCK = 2^14: block 0 from the generator seeded with
    `seed`, block j >= 1 from its spawned child j - 1, each its
    crossovers and then its counts.  Past one block the calling thread
    and the helper threads share the blocks, each writing into its own
    slice of one array.  So the output does not depend on the core
    count, and trials <= 2^14 are one stream, the same bytes as a
    single-generator draw.

    A discrete law draws everything from the generator seeded with
    `seed`.  Its per-state trial counts are drawn first, as one
    Multinomial(trials, pmf) vector over the states of positive mass.
    A draw's value depends only on its (state, count) cell, so
    only each state's histogram of counts is drawn: one
    Multinomial(k, Binomial(n, p) pmf) vector when the state's k draws
    are at least the n + 1 counts and 0 < p < 1, else k scalar-p
    binomial draws.  Either is the law of drawing the pairs one by one,
    since the result is sorted.  So a state's draws cost O(min(k, n))
    for any n, and a state makes at most n + 1 cells however many
    trials it draws.  The pmfs of the multinomial states come from one
    table (_histogram_tables), whose terms free of p are formed once
    per call; the states still draw in state order, so the table does
    not move the stream.  The density is evaluated once per occupied
    cell, and each cell keeps its multiplicity as its count.
    """
    if n < 1:
        raise ValueError("estimate_spectrum: n must be >= 1")
    if trials < 1:
        raise ValueError("estimate_spectrum: trials must be >= 1")
    law = state_law(composite)
    rng = np.random.default_rng(seed)
    if isinstance(law, ContinuousBscComposite):
        values = np.empty(trials)
        starts = range(0, trials, _BLOCK)
        blocks = zip(starts, [rng, *rng.spawn(len(starts) - 1)])

        def drain() -> None:
            # The calling thread and the helpers take blocks from one
            # shared iterator until it runs out.
            for start, gen in blocks:
                out = values[start:start + _BLOCK]
                p = law.sample(gen, out.size)
                out[:] = info_density_bsc(gen.binomial(n, p), n, p)

        helpers = [_pool().submit(drain) for _ in starts[1:]]
        try:
            drain()
        finally:
            # No helper outlives the call, and a helper's error is raised.
            for helper in helpers:
                helper.result()
        values.sort()
        return EmpiricalCdf(values, np.arange(1, trials + 1), blocklength=n, trials=trials)
    params = law.params
    split = law.split(rng, trials)
    table_states = [state for state, size in split if size > n and 0.0 < params[state] < 1.0]
    tables = _histogram_tables(n, params[table_states])
    cells = []
    for state, size in split:
        p = float(params[state])
        if size > n and 0.0 < p < 1.0:
            order, pvals = next(tables)
            hist = rng.multinomial(size, pvals)
            hit = np.flatnonzero(hist)
            count, mult = order[hit], hist[hit]
        else:
            count, mult = _count_histogram(rng, n, p, size)
        cells.append((np.full(count.size, state), count, mult))
    cell_state, cell_count, mult = (np.concatenate(c) for c in zip(*cells))
    density = info_density_bec if law.family == "bec" else info_density_bsc
    v = density(cell_count, n, params[cell_state])
    order = np.argsort(v, kind="stable")
    return EmpiricalCdf(v[order], np.cumsum(mult[order]), blocklength=n, trials=trials)
