"""Capacity metrics for composite channels with receiver side information.

Three notions are computed:

* Shannon capacity: the largest rate decodable for every positive-mass
  state, i.e. the infimum of the information-spectrum support.  For the
  families here that is the capacity of the worst supported state, and
  it is C_q at q = 0.
* Capacity versus outage C_q: the largest rate decodable outside an
  outage set of probability at most q; the decoder recognizes outages.
  Equivalently the Shannon capacity of the best probability-q
  compatible subchannel.
* Expected capacity bounds: sup_q (1-q) C_q from below, the mean state
  capacity from above (uniform input is optimal for every state of
  these symmetric families, which is what makes the upper bound valid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    LN2,
    ContinuousBscComposite,
    _entropy_inverse,
    bsc_capacity,
    state_law,
)
from .spectrum import EmpiricalCdf, cdf_quantile

# Mass comparisons at pmf atoms tolerate accumulated float error: a
# cumulative mass m fits under q when m <= q (1 + _ATOM_RTOL).  The
# allowance scales with q, so at q = 0 no atom of positive mass fits.
_ATOM_RTOL = 1e-12

# Steps of the continuous best-outage scan of [0, 1) and of each rescan;
# two rescans leave a step of at most 2**-28 (4e-9) in q.
_OUTAGE_SCAN_POINTS = 1024
_OUTAGE_RESCANS = 2

# Series for the cell moments of h (_cell_moments) where the closed
# forms cancel: at knots t <= 1/16 in powers of t, and on cells of
# half-width d <= m/8 about their midpoint m in powers of (d/m)^2.  The
# terms past these lie below 1e-17 of the first; highest power first.
_SMALL_KNOT = 1.0 / 16.0
_K_SERIES = np.array([1.0 / ((j + 1) * (j + 2) * (j + 3)) for j in range(11, -1, -1)])
_N_SERIES = np.array([1.0 / ((j + 1) * (j + 2) * (j + 3) * (j + 4)) for j in range(11, -1, -1)])
_NARROW_CELL = 0.125
# Rows: the coefficients of P and Q (_cell_moments) of one power.
_CELL_SERIES = np.array([[1.0 / ((2 * j - 1) * 2 * j * (2 * j + 1)), 1.0 / (2 * j * (2 * j + 1) * (2 * j + 3))]
                         for j in range(8, 0, -1)])[:, :, None, None]


@dataclass(frozen=True)
class OutageCurve:
    """C_q and the outage capacity (1-q) C_q on a q grid."""

    q: np.ndarray
    c_q: np.ndarray
    outage_capacity: np.ndarray


@dataclass(frozen=True)
class CapacityBounds:
    """Sandwich bounds on the expected capacity."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise ValueError("CapacityBounds: lower bound exceeds upper bound")


def shannon_capacity(composite) -> float:
    """Worst-supported-state capacity (support infimum of the spectrum): C_0.

    Depends on the pmf only through its support, which is the
    support-set invariance property: equivalent state measures give
    equal Shannon capacity, and shrinking the support can only raise it.
    """
    return float(_c_q(composite, np.zeros(1))[0])


def _c_q(composite, q: np.ndarray) -> np.ndarray:
    """C_q = sup {alpha : F(alpha) <= q} for every q of an array in [0, 1).

    Atoms: states leave in the law's noisiest-first order, and an atom
    joins the outage set only if its entire mass still fits under q
    (conservative convention for ties at atoms), so the worst kept
    state is the first one whose cumulative mass exceeds q.  A
    zero-mass state never is; when every state fits (q within rounding
    of 1) the best supported state is kept.  Continuous BSC family:
    C_q = 1 - h(p_q) with p_q = inf {p : F(p) >= 1 - q}.
    """
    law = state_law(composite)
    if isinstance(law, ContinuousBscComposite):
        return bsc_capacity(law.inverse_cdf(1.0 - q))
    idx = np.searchsorted(law.worst_mass, q * (1.0 + _ATOM_RTOL), side="right")
    idx = np.minimum(idx, np.flatnonzero(law.mass[law.worst])[-1])
    return law.caps[law.worst[idx]]


def limit_spectrum_cdf(composite, alphas: np.ndarray) -> np.ndarray:
    """Large-n information-spectrum cdf F(alpha): the probability that
    the drawn state's capacity is at most alpha (atoms within 1e-15 of
    alpha count as at most)."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.isfinite(alphas).all():
        raise ValueError("limit_spectrum_cdf: alphas must be finite")
    law = state_law(composite)
    if isinstance(law, ContinuousBscComposite):
        return 1.0 - law.cdf(_entropy_inverse(np.clip(1.0 - alphas, 0.0, 1.0)))
    order = np.argsort(law.caps)
    below = np.concatenate([[0.0], np.cumsum(law.mass[order])])
    return below[np.searchsorted(law.caps[order], alphas + 1e-15, side="right")]


def capacity_vs_outage(composite, q: float) -> float:
    """C_q = sup {alpha : F(alpha) <= q}; see outage_curve for a q grid."""
    if not 0.0 <= q < 1.0:
        raise ValueError("capacity_vs_outage: q must lie in [0, 1)")
    return float(_c_q(composite, np.array([q], dtype=float))[0])


def outage_curve(composite, q_grid) -> OutageCurve:
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("outage_curve: q_grid must be a nonempty 1-D array")
    # Written as "not (in range)" so that NaN fails the check.
    if not ((q >= 0.0) & (q < 1.0)).all():
        raise ValueError("outage_curve: grid values must lie in [0, 1)")
    c = _c_q(composite, q)
    return OutageCurve(q=q, c_q=c, outage_capacity=(1.0 - q) * c)


def best_outage_rate(composite) -> tuple[float, float]:
    """Maximize the outage capacity (1-q) C_q over q in [0, 1).

    Atoms: C_q is a right-continuous step function whose pieces start
    at cumulative masses, and (1-q) decreases, so the supremum is
    attained exactly at an atom boundary; those candidates are
    enumerated directly.  Densities: an array scan of q, then rescans of
    the two cells around the best q.  A rescan keeps every earlier point
    of its bracket, ends included: the value never decreases.
    """
    law = state_law(composite)
    if isinstance(law, ContinuousBscComposite):
        qs = np.linspace(0.0, 1.0, _OUTAGE_SCAN_POINTS, endpoint=False)
        for _ in range(_OUTAGE_RESCANS + 1):
            vals = (1.0 - qs) * _c_q(law, qs)
            k = int(np.argmax(vals))
            best_q, best_v = float(qs[k]), float(vals[k])
            qs = np.linspace(qs[max(k - 1, 0)], qs[min(k + 1, qs.size - 1)], _OUTAGE_SCAN_POINTS + 1)
        return best_q, best_v
    # With every state in outage the rate is 0, so that q is no candidate.
    masses = np.concatenate([[0.0], law.worst_mass[:-1]])
    kept = masses * (1.0 + _ATOM_RTOL) < 1.0
    candidates = masses[kept]
    # The mass out of outage at each candidate, summed from the best
    # state: 1 - q rounds it, and the best state's mass alone then
    # misses its own value by an ulp.
    upper = np.add.accumulate(law.mass[law.worst[::-1]])[::-1]
    values = upper[kept] * _c_q(law, candidates)
    best_q, best_v = 0.0, -np.inf
    for qc, v in zip(candidates.tolist(), values.tolist()):
        if v > best_v + 1e-15:
            best_q, best_v = qc, v
    return best_q, best_v


def capacity_from_spectrum(cdf: EmpiricalCdf, q: float) -> float:
    """Spectrum-estimated C_q: the empirical quantile sup {alpha : F_hat <= q}."""
    return cdf_quantile(cdf, q)


def _cell_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of g and of (t - m) g over each cell [m - d, m + d] of
    the knots x, for g(t) = t ln t + u ln u = -h(t) ln 2, u = 1 - t.

    With K' = g and N' = K, both 0 at 0, they are K(b) - K(a) and, by
    parts, d (K(a) + K(b)) - (N(b) - N(a)), where
    K = (t^2 ln t - u^2 ln u - t)/2 and N = (t^3 ln t + u^3 ln u + t)/6
    - 5 t^2/12, or at t <= _SMALL_KNOT, from u ln u = -t + sum
    t^k/(k (k-1)), K = t^2 (ln t/2 - 3/4 + t P_K(t)) and
    N = t^3 (ln t/6 - 11/36 + t P_N(t)) (_K_SERIES, _N_SERIES).  On a
    cell narrow against m the differences cancel; there the Taylor series
    of g at m, with g^(k)(m)/k! = ((-1)^k m^(1-k) + v^(1-k))/(k (k-1))
    for k >= 2 and v = 1 - m, gives 2d [g(m) + d^2 (P(z_m)/m + P(z_v)/v)]
    and 2d^3 [ln(m/v)/3 + d^2 (Q(z_v)/v^2 - Q(z_m)/m^2)], z_m = (d/m)^2,
    z_v = (d/v)^2 (P, Q: _CELL_SERIES).
    """
    u = 1.0 - x
    ln_x, ln_u = np.log(np.where(x > 0.0, x, 1.0)), np.log1p(-x)
    x2_ln, u2_ln = x * x * ln_x, u * u * ln_u
    big_k = 0.5 * (x2_ln - u2_ln - x)
    big_n = (x * x2_ln + u * u2_ln + x) / 6.0 - 5.0 / 12.0 * x * x
    small = (x > 0.0) & (x <= _SMALL_KNOT)
    if small.any():
        t, ln_t = x[small], ln_x[small]
        big_k[small] = t * t * (0.5 * ln_t - 0.75 + t * np.polyval(_K_SERIES, t))
        big_n[small] = t * t * t * (ln_t / 6.0 - 11.0 / 36.0 + t * np.polyval(_N_SERIES, t))
    d = 0.5 * np.diff(x)
    m = x[:-1] + d
    zeroth = np.diff(big_k)
    first = d * (big_k[1:] + big_k[:-1]) - np.diff(big_n)
    narrow = d <= _NARROW_CELL * m
    if narrow.any():
        mv = np.stack([m, 1.0 - m])
        z = (d / mv) ** 2
        p_q = np.zeros((2,) + z.shape)
        for coef in _CELL_SERIES:
            p_q *= z
            p_q += coef
        (p_m, p_v), (q_m, q_v) = p_q[0] / mv, p_q[1] / (mv * mv)
        ln_m, ln_v = np.log(m), np.log1p(-m)
        zeroth = np.where(narrow, 2.0 * d * (m * ln_m + mv[1] * ln_v + d * d * (p_m + p_v)), zeroth)
        first = np.where(narrow, 2.0 * d * d * d * ((ln_m - ln_v) / 3.0 + d * d * (q_v - q_m)), first)
    return zeroth, first


def mean_state_capacity(composite) -> float:
    """E_S[capacity of state S]; the expected-capacity upper bound.

    On a continuous law, the exact integral of 1 - h against the law's
    own f, f_m + s (t - m) on a cell of midpoint value f_m and slope s.
    """
    law = state_law(composite)
    if isinstance(law, ContinuousBscComposite):
        f = law.pdf(law.grid)
        zeroth, first = _cell_moments(law.grid)
        f_g = np.sum(0.5 * (f[1:] + f[:-1]) * zeroth + np.diff(f) / np.diff(law.grid) * first)
        return float(1.0 + f_g / LN2)
    return float(np.dot(law.mass, law.caps))


def expected_capacity_bounds(composite) -> CapacityBounds:
    """Sandwich: sup_q (1-q) C_q <= C^e <= E_S[state capacity]."""
    _, lower = best_outage_rate(composite)
    return CapacityBounds(lower=lower, upper=mean_state_capacity(composite))
