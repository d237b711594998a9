"""Exact finite-blocklength references for the benchmark's statistical gates.

Every Monte Carlo output the benchmark checks has a law that can be written
down: the information density of a block is a function of a Binomial
distance (or erasure) count, and a random-coding outage happens exactly when
neither the sent codeword nor any of the other, independent, uniform
codewords clears the decoding threshold.  The functions here evaluate those
laws with the same floating-point expressions the library uses, so the gate
compares a sample against its true distribution, not against the large-n
limit.  Bands are sized so that a correct program fails a check with
probability at most `delta`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from chancap import ContinuousBscComposite, GilbertElliott

# Midpoint-rule cells for the uniform-density integrals (f = 2 on [0, 1/2]).
# A jump of size J inside a cell of width h costs the rule at most f J h.
# The spectrum integrand P(v <= alpha | p) is nondecreasing in p, so its
# jumps add up to at most 1 and the error stays below 2h = 2e-4, well
# inside QUAD_SLACK.  The outage integrand can jump at 2 (n + 1) points
# (each codeword distance passes on one interval of p), so it gets finer
# cells and the slack 4 (n + 1) h.  A smooth-part term far below these
# is covered by the margin of QUAD_SLACK.
QUAD_CELLS = 5000
QUAD_SLACK = 5e-4
OUTAGE_CELLS = 100_000


def _binom():
    # Imported on first use: scipy.stats would add about 0.6 s to the
    # fresh-interpreter set-up that setup_s measures.
    from scipy.stats import binom

    return binom


def _states(channel):
    """(family, params, weights) of a frozen composite, or ("uniform", None, None)."""
    if isinstance(channel, GilbertElliott):
        channel = channel.as_composite()
    if isinstance(channel, ContinuousBscComposite):
        if channel.analytic_preset != "uniform":
            raise ValueError("reference: only the uniform density has a quadrature reference")
        return "uniform", None, None
    return channel.family, channel.params, channel.pmf


def _bsc_density_values(p: float, n: int, d: np.ndarray) -> np.ndarray:
    """Per-block information density at distances d, as estimate_spectrum computes it."""
    pc = np.clip(np.full(d.shape, p), 1e-300, 1.0 - 1e-16)
    frac = d.astype(float) / n
    v = 1.0 + frac * np.log2(pc) + (1.0 - frac) * np.log2(1.0 - pc)
    if p == 0.0 or p == 1.0:
        v[:] = 1.0
    return v


def _uniform_cells(cells: int = QUAD_CELLS) -> np.ndarray:
    return (np.arange(cells) + 0.5) * (0.5 / cells)


# The uniform reference is tabulated once per blocklength on this grid and
# bracketed in between, since the cdf is nondecreasing.
UNIFORM_ALPHAS = np.linspace(0.0, 1.0, 501)


def spectrum_cdf_bracket(channel, n: int, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on P(information density <= alpha) at blocklength n.

    Exact (lo == hi) for discrete composites; for the uniform density the
    tabulated neighbours of each alpha, widened by QUAD_SLACK.
    """
    a = np.asarray(alphas, dtype=float)
    if _states(channel)[0] != "uniform":
        exact = spectrum_cdf(channel, n, a)
        return exact, exact
    table = spectrum_cdf(channel, n, UNIFORM_ALPHAS)
    below = np.searchsorted(UNIFORM_ALPHAS, a, side="right") - 1
    above = np.searchsorted(UNIFORM_ALPHAS, a, side="left")
    last = UNIFORM_ALPHAS.size - 1
    lo = np.where(below >= 0, table[np.clip(below, 0, last)], 0.0)
    hi = np.where(above <= last, table[np.clip(above, 0, last)], 1.0)
    return lo - QUAD_SLACK, hi + QUAD_SLACK


def spectrum_cdf(channel, n: int, alphas) -> np.ndarray:
    """P(normalized information density <= alpha) at blocklength n."""
    binom = _binom()
    a = np.asarray(alphas, dtype=float)
    family, params, weights = _states(channel)
    if family == "uniform":
        return _uniform_spectrum_cdf(n, tuple(a.tolist()))
    out = np.zeros(a.size)
    counts = np.arange(n + 1)
    for param, w in zip(params, weights):
        pmf = binom.pmf(counts, n, param)
        if family == "bec":
            v = (n - counts.astype(float)) / n
        else:
            v = _bsc_density_values(float(param), n, counts)
        out += w * ((v[None, :] <= a[:, None]) @ pmf)
    return out


@lru_cache(maxsize=64)
def _uniform_spectrum_cdf(n: int, alphas: tuple) -> np.ndarray:
    binom = _binom()
    p = _uniform_cells()[:, None]
    log_p, log_q = np.log2(p), np.log2(1.0 - p)
    out = np.empty(len(alphas))
    # A few alphas at a time, for the same reason as in _uniform_outage.
    for start in range(0, len(alphas), 16):
        a = np.array(alphas[start:start + 16])
        # v <= alpha  <=>  d >= n (1 - alpha + log2(1-p)) / (log2(1-p) - log2 p)
        d_min = np.ceil(n * (1.0 - a[None, :] + log_q) / (log_q - log_p))
        tail = binom.sf(np.clip(d_min, 0, n + 1) - 1, n, p)
        # f = 2 on [0, 1/2], so the integral is the mean over the cells.
        out[start:start + 16] = tail.mean(axis=0)
    out.flags.writeable = False
    return out


def dkw_epsilon(samples: int, delta: float) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz-Massart band.

    The same width bounds, by Hoeffding, the mean of `samples` independent
    variables in [0, 1].
    """
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def binomial_halfwidth(trials: int, p: float, delta: float) -> float:
    """Two-sided Bernstein band on a Binomial(trials, p) count."""
    log_term = math.log(2.0 / delta)
    var = trials * p * (1.0 - p)
    return log_term / 3.0 + math.sqrt((log_term / 3.0) ** 2 + 2.0 * var * log_term)


def _outage_given_state(p: np.ndarray, n: int, m: int, threshold: float) -> np.ndarray:
    """P(no codeword passes | crossover p) for the typical-set decoder."""
    binom = _binom()
    d = np.arange(n + 1)
    pc = np.clip(p, 1e-300, 1.0 - 1e-16)[:, None]
    dens = 1.0 + (d / n) * np.log2(pc) + (1.0 - d / n) * np.log2(1.0 - pc)
    passes = dens >= threshold
    true_pass = (binom.pmf(d[None, :], n, p[:, None]) * passes).sum(axis=1)
    other_pass = (binom.pmf(d, n, 0.5)[None, :] * passes).sum(axis=1)
    return (1.0 - true_pass) * (1.0 - other_pass) ** (m - 1)


def outage_probability(channel, n: int, rate: float, threshold: float) -> tuple[float, float]:
    """(outage probability, quadrature slack) of one blocklength of a sweep."""
    m = int(math.floor(2.0 ** (n * rate)))
    family, params, weights = _states(channel)
    if family == "uniform":
        slack = 4.0 * (n + 1) * 0.5 / OUTAGE_CELLS + QUAD_SLACK
        return _uniform_outage(n, m, threshold), slack
    if family != "bsc":
        raise ValueError("reference: outage sweeps cover BSC families")
    per_state = _outage_given_state(np.asarray(params, dtype=float), n, m, threshold)
    return float(np.dot(weights, per_state)), 0.0


@lru_cache(maxsize=64)
def _uniform_outage(n: int, m: int, threshold: float) -> float:
    cells = _uniform_cells(OUTAGE_CELLS)
    # Chunks keep the temporaries small, so the gate does not raise the
    # run's peak_rss_mb.
    total = sum(_outage_given_state(cells[i:i + 5000], n, m, threshold).sum()
                for i in range(0, cells.size, 5000))
    return float(total / cells.size)


def mean_erasure(channel) -> float:
    _, params, weights = _states(channel)
    return float(np.dot(weights, params))
