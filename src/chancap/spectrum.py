"""Information spectrum estimation.

The normalized information density of a block, (1/n) i(X^n; Y^n | S),
has closed forms for the symmetric families under uniform input:
a function of the Hamming distance for the BSC and of the erasure
count for the BEC.  Sampling those sufficient statistics directly
avoids accumulating n log-ratios (no cancellation, and n = 10^4 is
cheap).  The empirical cdf of the samples is the estimated
information spectrum F(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ContinuousBscComposite, state_law


@dataclass(frozen=True)
class Quantile:
    """A quantile of an empirical cdf.

    `at_atom` marks that the returned value carries more than one
    sample (an atom of the empirical measure), in which case the
    supremum in the outage definition sits just below the atom and a
    conservative caller may prefer the preceding value.
    """

    value: float
    at_atom: bool


def info_density_bsc(d, n: int, p: float):
    """Normalized information density of a BSC block at Hamming distance d.

    Under uniform input, (1/n) i = 1 + (d/n) log2 p + (1 - d/n) log2(1-p).
    At p = 0 (or 1) only the deterministic distance is possible; any
    other d signals an impossible event and is rejected loudly.
    """
    d_arr = np.asarray(d)
    if n < 1:
        raise ValueError("info_density_bsc: n must be >= 1")
    if np.any(d_arr < 0) or np.any(d_arr > n):
        raise ValueError("info_density_bsc: need 0 <= d <= n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("info_density_bsc: p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        forced = 0 if p == 0.0 else n
        if np.any(d_arr != forced):
            raise AssertionError("info_density_bsc: impossible distance for a deterministic channel")
        out = np.ones_like(np.asarray(d_arr, dtype=float))
        return float(out) if np.isscalar(d) else out
    frac = np.asarray(d_arr, dtype=float) / n
    out = 1.0 + frac * np.log2(p) + (1.0 - frac) * np.log2(1.0 - p)
    return float(out) if np.isscalar(d) else out


def info_density_bec(e, n: int, alpha: float):
    """Normalized information density of a BEC block with e erasures: (n-e)/n."""
    e_arr = np.asarray(e)
    if n < 1:
        raise ValueError("info_density_bec: n must be >= 1")
    if np.any(e_arr < 0) or np.any(e_arr > n):
        raise ValueError("info_density_bec: need 0 <= e <= n")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("info_density_bec: alpha must lie in [0, 1]")
    out = (n - np.asarray(e_arr, dtype=float)) / n
    return float(out) if np.isscalar(e) else out


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted Monte Carlo samples of the normalized information density.

    `state_ids[i]` is the index of the state drawn for `values[i]` (-1 for
    a continuous crossover density); within a run of tied values the
    state indices do not decrease.
    """

    values: np.ndarray
    state_ids: np.ndarray
    blocklength: int
    trials: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.state_ids)
        if v.ndim != 1 or v.size == 0 or s.shape != v.shape:
            raise ValueError("EmpiricalCdf: values/state_ids must be matching nonempty 1-D arrays")
        if not np.all(np.isfinite(v)):
            raise ValueError("EmpiricalCdf: values must be finite")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("EmpiricalCdf: values must be sorted")
        if self.trials != v.size:
            raise ValueError("EmpiricalCdf: trials must equal the sample count")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "state_ids", s)

    def evaluate(self, alpha):
        """F_hat(alpha) = fraction of samples <= alpha (right-continuous)."""
        idx = np.searchsorted(self.values, alpha, side="right")
        out = np.asarray(idx, dtype=float) / self.trials
        return float(out) if np.isscalar(alpha) else out


def cdf_quantile(cdf: EmpiricalCdf, q: float) -> Quantile:
    """Largest alpha with F_hat(alpha) <= q, i.e. sup of the outage set.

    For a step function the supremum is the (floor(q m) + 1)-th order
    statistic: every alpha below it has F_hat <= q, and F_hat jumps
    above q at it.  q = 0 returns the sample minimum (the support
    infimum at this resolution).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("cdf_quantile: q must lie in [0, 1)")
    m = cdf.trials
    k = min(int(np.floor(q * m)), m - 1)
    value = float(cdf.values[k])
    multiplicity = np.searchsorted(cdf.values, value, side="right") - np.searchsorted(
        cdf.values, value, side="left"
    )
    return Quantile(value=value, at_atom=bool(multiplicity > 1))


def _bsc_density(counts: np.ndarray, n: int, params: np.ndarray) -> np.ndarray:
    """(1/n) i at `counts` flips in n uses of BSC(params), exact at p in {0, 1}."""
    frac = counts.astype(float) / n
    # p in {0, 1} states are handled exactly below; clamp only
    # protects the vectorized log evaluation.
    pc = np.clip(params, 1e-300, 1.0 - 1e-16)
    v = 1.0 + frac * np.log2(pc) + (1.0 - frac) * np.log2(1.0 - pc)
    exact_zero = params == 0.0
    exact_one = params == 1.0
    if np.any(exact_zero):
        if np.any(counts[exact_zero] != 0):
            raise AssertionError("estimate_spectrum: impossible flip for p = 0 state")
        v[exact_zero] = 1.0
    if np.any(exact_one):
        if np.any(counts[exact_one] != n):
            raise AssertionError("estimate_spectrum: impossible non-flip for p = 1 state")
        v[exact_one] = 1.0
    return v


# Loader's saddle-point form of the binomial pmf ("Fast and accurate
# computation of binomial probabilities", 2000): stirlerr(k) =
# ln k! - ln(sqrt(2 pi k) (k/e)^k), tabulated below 16 and a Stirling
# series above, and bd0(x, m) = x ln(x/m) + m - x.
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLERR_TABLE = np.array(
    [0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _HALF_LN_2PI for k in range(1, 16)]
)


def _stirlerr(k: np.ndarray) -> np.ndarray:
    kk = k * k
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / k
    return np.where(k < 16, _STIRLERR_TABLE[np.minimum(k, 15).astype(int)], series)


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """x ln(x/m) + m - x, as x log1p((x-m)/m) - (x-m) for accuracy near x = m."""
    d = x - m
    with np.errstate(over="ignore"):
        return x * np.log1p(d / m) - d


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at 0..n for 0 < p < 1.

    Each probability above 1e-300 is within about 1e-11 of its value,
    relative, up to n = 10^6 and far into both tails; smaller ones may
    underflow to 0.
    """
    log_pmf = np.empty(n + 1)
    log_pmf[0] = n * math.log1p(-p)
    log_pmf[n] = n * math.log(p)
    k = np.arange(1.0, n)
    rest = k[::-1]  # n - k
    st = _stirlerr(k)
    log_pmf[1:n] = (
        _stirlerr(np.array(float(n))) - st - st[::-1]
        - _bd0(k, n * p) - _bd0(rest, n * (1.0 - p))
        + 0.5 * np.log(n / (k * rest)) - _HALF_LN_2PI
    )
    return np.exp(log_pmf)


def _count_histogram(rng, n: int, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Occupied counts and their multiplicities among k Binomial(n, p) draws.

    With n + 1 <= k and 0 < p < 1 the histogram is drawn directly as one
    Multinomial(k, pmf) vector.  numpy draws the categories in order,
    each as a binomial with its probability over the mass not yet
    drawn, which it tracks by subtraction.  Ordering the categories from
    both tails toward the mode keeps that mass at least the mode's, so
    its rounding error never dominates a tail's remaining mass.
    Otherwise the k counts are drawn one by one.
    """
    if n + 1 > k or not 0.0 < p < 1.0:
        return np.unique(rng.binomial(n, p, size=k), return_counts=True)
    pmf = _binomial_pmf(n, p)
    mode = int(np.argmax(pmf))
    order = np.concatenate([np.arange(mode), np.arange(n, mode - 1, -1)])
    hist = rng.multinomial(k, pmf[order])
    hit = np.flatnonzero(hist)
    return order[hit], hist[hit]


def estimate_spectrum(composite, n: int, trials: int, seed) -> EmpiricalCdf:
    """Monte Carlo estimate of the information spectrum at blocklength n.

    Each trial draws a state, then the closed-form sufficient statistic
    (Hamming distance or erasure count) as a Binomial(n, .) variable,
    and maps it through the per-block density.  All draws come from one
    generator seeded with `seed`, and the samples are sorted by value,
    ties by state index.

    For a discrete law the per-state trial counts are drawn first, as
    one Multinomial(trials, pmf) vector over the states of positive
    mass.  A draw's value depends only on its (state, count) cell, so
    only each state's histogram of counts is drawn: one
    Multinomial(k, Binomial(n, p) pmf) vector when the state's k draws
    are at least the n + 1 counts and 0 < p < 1, else k scalar-p
    binomial draws.  Either is the law of drawing the pairs one by one,
    since the result is sorted.  So a state's draws cost O(min(k, n))
    for any n.  The density is evaluated once per occupied cell, and the
    sorted cells are expanded by their multiplicities.
    """
    if n < 1:
        raise ValueError("estimate_spectrum: n must be >= 1")
    if trials < 1:
        raise ValueError("estimate_spectrum: trials must be >= 1")
    law = state_law(composite)
    rng = np.random.default_rng(seed)
    if isinstance(law, ContinuousBscComposite):
        p = law.sample(rng, trials)
        values = np.sort(_bsc_density(rng.binomial(n, p), n, p))
        return EmpiricalCdf(values=values, state_ids=np.full(trials, -1), blocklength=n, trials=trials)
    if law.params is None:
        raise ValueError("estimate_spectrum: ergodic Gilbert-Elliott has no frozen-state spectrum")

    params = law.params
    support = np.flatnonzero(law.mass > 0.0)
    cells = []
    for state, size in zip(support, rng.multinomial(trials, law.mass[support])):
        if size > 0:
            count, mult = _count_histogram(rng, n, float(params[state]), int(size))
            cells.append((np.full(count.size, state), count, mult))
    cell_state, cell_count, mult = (np.concatenate(c) for c in zip(*cells))
    if law.family == "bec":
        v = (n - cell_count.astype(float)) / n
    else:
        v = _bsc_density(cell_count, n, params[cell_state])
    order = np.lexsort((cell_state, v))
    return EmpiricalCdf(
        values=np.repeat(v[order], mult[order]),
        state_ids=np.repeat(cell_state[order], mult[order]),
        blocklength=n,
        trials=trials,
    )
