"""Capacity metrics for composite channels with receiver side information."""

from .channels import (
    ERASURE,
    BecState,
    BscState,
    ContinuousBscComposite,
    DiscreteComposite,
    GilbertElliott,
    binary_entropy,
    bec_capacity,
    bsc_capacity,
    sample_state,
    star,
    state_law,
    transmit,
)
from .spectrum import (
    EmpiricalCdf,
    cdf_quantile,
    estimate_spectrum,
    info_density_bec,
    info_density_bsc,
)
from .capacity import (
    CapacityBounds,
    OutageCurve,
    best_outage_rate,
    capacity_from_spectrum,
    capacity_vs_outage,
    expected_capacity_bounds,
    limit_spectrum_cdf,
    mean_state_capacity,
    outage_curve,
    shannon_capacity,
)
from .layering import (
    FULL_RANGE,
    CutoffPair,
    LayerProfile,
    RateProfile,
    SolverError,
    discrete_expected_rate,
    discretize_density,
    expected_capacity,
    euler_lhs,
    euler_rhs,
    expected_capacity_continuous,
    find_cutoffs,
    ge_expected_capacity,
    optimize_discrete,
    parametric_expected_rate,
    parametric_profile,
    rate_profile,
    solve_euler_r,
    solve_layering,
)
from .codemap import (
    BroadcastCodeSpec,
    ExpectedRateCodeSpec,
    IndexSets,
    bc_to_expected,
    canonical_subsets,
    expected_to_bc,
    subset_weighted_rate,
)
from .simulate import (
    SimResult,
    simulate_outage_code_sweep,
    simulate_uncoded_bec,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
