"""Capacity metrics for composite channels with receiver side information.

Three notions are computed:

* Shannon capacity: the largest rate decodable for every positive-mass
  state, i.e. the infimum of the information-spectrum support.  For the
  families here that is the capacity of the worst supported state.
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
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
    binary_entropy,
    bsc_capacity,
)
from .spectrum import EmpiricalCdf, cdf_quantile

# Mass comparisons at pmf atoms tolerate accumulated float error.
_ATOM_TOL = 1e-12


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


def _state_capacity(composite: DiscreteComposite, param):
    if composite.family == "bsc":
        return bsc_capacity(param)
    return 1.0 - param


def shannon_capacity(composite) -> float:
    """Worst-supported-state capacity (support infimum of the spectrum).

    Depends on the pmf only through its support, which is the
    support-set invariance property: equivalent state measures give
    equal Shannon capacity, and shrinking the support can only raise it.
    """
    if isinstance(composite, GilbertElliott):
        if composite.is_ergodic:
            pi_g, pi_b = composite.stationary()
            return pi_g * bsc_capacity(composite.p_good) + pi_b * bsc_capacity(composite.p_bad)
        composite = composite.as_composite()
    if isinstance(composite, DiscreteComposite):
        sup = composite.support_params()
        if sup.size == 0:
            raise ValueError("shannon_capacity: pmf has empty support")
        return _state_capacity(composite, float(sup.max()))
    if isinstance(composite, ContinuousBscComposite):
        return bsc_capacity(composite.support_sup())
    raise ValueError("shannon_capacity: unsupported composite type")


def _c_q(composite, q: np.ndarray) -> np.ndarray:
    """C_q = sup {alpha : F(alpha) <= q} for every q of an array in [0, 1).

    Discrete composites: states leave worst-first, and an atom joins
    the outage set only if its entire mass still fits under q
    (conservative convention for ties at atoms), so the worst kept
    state is the first one whose cumulative mass exceeds q.  A zero-mass
    state never is; when every state fits (q within rounding of 1) the
    best supported state is kept.  Continuous BSC family:
    C_q = 1 - h(p_q) with p_q = inf {p : F(p) >= 1 - q}.
    """
    if isinstance(composite, GilbertElliott):
        if composite.is_ergodic:
            return np.full(q.shape, shannon_capacity(composite))
        composite = composite.as_composite()
    if isinstance(composite, DiscreteComposite):
        params = composite.params
        order = np.argsort(-params)  # worst (most noisy) first
        params, weights = params[order], composite.pmf[order]
        removed = np.cumsum(weights)
        idx = np.searchsorted(removed, q + _ATOM_TOL, side="right")
        idx = np.minimum(idx, np.nonzero(weights)[0][-1])
        return _state_capacity(composite, params[idx])
    if isinstance(composite, ContinuousBscComposite):
        return bsc_capacity(composite.inverse_cdf(1.0 - q))
    raise ValueError("capacity_vs_outage: unsupported composite type")


def capacity_vs_outage(composite, q: float) -> float:
    """C_q = sup {alpha : F(alpha) <= q}; see outage_curve for a q grid."""
    if not 0.0 <= q < 1.0:
        raise ValueError("capacity_vs_outage: q must lie in [0, 1)")
    return float(_c_q(composite, np.array([q], dtype=float))[0])


def outage_curve(composite, q_grid) -> OutageCurve:
    q = np.asarray(q_grid, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("outage_curve: q_grid must be a nonempty 1-D array")
    if np.any(q < 0.0) or np.any(q >= 1.0):
        raise ValueError("outage_curve: grid values must lie in [0, 1)")
    c = _c_q(composite, q)
    return OutageCurve(q=q, c_q=c, outage_capacity=(1.0 - q) * c)


def best_outage_rate(composite, grid_points: int = 1024) -> tuple[float, float]:
    """Maximize the outage capacity (1-q) C_q over q in [0, 1).

    Discrete composites: C_q is a right-continuous step function whose
    pieces start at cumulative pmf atoms, and (1-q) decreases, so the
    supremum is attained exactly at an atom boundary; those candidates
    are enumerated directly.  Continuous densities: coarse grid scan
    followed by bounded golden-section refinement (tolerance 1e-6 in q).
    """
    if isinstance(composite, GilbertElliott):
        if composite.is_ergodic:
            return 0.0, shannon_capacity(composite)
        composite = composite.as_composite()
    if isinstance(composite, DiscreteComposite):
        order = np.argsort(-composite.params)
        masses = np.concatenate([[0.0], np.cumsum(composite.pmf[order])])
        candidates = masses[masses < 1.0 - _ATOM_TOL]
        values = (1.0 - candidates) * _c_q(composite, candidates)
        best_q, best_v = 0.0, -np.inf
        for qc, v in zip(candidates.tolist(), values.tolist()):
            if v > best_v + 1e-15:
                best_q, best_v = qc, v
        return best_q, best_v
    if isinstance(composite, ContinuousBscComposite):
        # Imported here: scipy.optimize adds about 24 MB of resident
        # memory, and only the continuous solvers use it.
        from scipy.optimize import minimize_scalar

        qs = np.linspace(0.0, 1.0, grid_points, endpoint=False)
        vals = (1.0 - qs) * _c_q(composite, qs)
        k = int(np.argmax(vals))
        lo = qs[max(k - 1, 0)]
        hi = qs[min(k + 1, qs.size - 1)]
        res = minimize_scalar(
            lambda q: -(1.0 - q) * capacity_vs_outage(composite, q),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-6},
        )
        q_star = float(res.x)
        return q_star, (1.0 - q_star) * capacity_vs_outage(composite, q_star)
    raise ValueError("best_outage_rate: unsupported composite type")


def expected_retransmissions(q: float) -> float:
    """Mean transmissions per successful block: geometric, 1/(1-q)."""
    if not 0.0 <= q < 1.0:
        raise ValueError("expected_retransmissions: q must lie in [0, 1)")
    return 1.0 / (1.0 - q)


def capacity_from_spectrum(cdf: EmpiricalCdf, q: float) -> float:
    """Spectrum-estimated C_q: the empirical quantile sup {alpha : F_hat <= q}."""
    return cdf_quantile(cdf, q).value


def mean_state_capacity(composite) -> float:
    """E_S[capacity of state S]; the expected-capacity upper bound."""
    if isinstance(composite, GilbertElliott):
        pi = composite.stationary() if composite.is_ergodic else (composite.pi_good, composite.pi_bad)
        return pi[0] * bsc_capacity(composite.p_good) + pi[1] * bsc_capacity(composite.p_bad)
    if isinstance(composite, DiscreteComposite):
        if composite.family == "bsc":
            caps = 1.0 - binary_entropy(composite.params)
        else:
            caps = 1.0 - composite.params
        return float(np.dot(composite.pmf, caps))
    if isinstance(composite, ContinuousBscComposite):
        caps = 1.0 - binary_entropy(composite.grid)
        return float(np.trapezoid(composite.density * caps, composite.grid))
    raise ValueError("mean_state_capacity: unsupported composite type")


def expected_capacity_bounds(composite) -> CapacityBounds:
    """Sandwich: sup_q (1-q) C_q <= C^e <= E_S[state capacity]."""
    _, lower = best_outage_rate(composite)
    return CapacityBounds(lower=lower, upper=mean_state_capacity(composite))
