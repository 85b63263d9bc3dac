"""voidnet: void cells and random cell association in Poisson networks.

A Monte-Carlo simulator plus closed-form analytics for cellular networks
whose base stations and users form independent homogeneous Poisson point
processes.  Users attach to the station maximizing a randomly weighted
received power; the package measures how often a station ends up serving
nobody, validates the analytic void-probability expressions and bounds,
checks the random conservation property of the PPP, and quantifies the
impact of void cells on SIR coverage.
"""

__version__ = "0.1.0"

from .analytics import (
    EstimateWithCI,
    mapped_intensity,
    rho_strongest_power,
    user_count_pmf,
    void_prob_bounds,
    void_prob_nearest,
    void_prob_rca,
)
from .association import (
    AssociationOutcome,
    associate,
    associated_pattern,
    cell_count_pmf_mc,
    void_probability_mc,
    void_probability_sweep,
)
from .channel import ChannelParams, WeightLaw, fractional_moment, sample_gain, zeta_dagger
from .coverage import coverage_sweep, sir_at_typical_user
from .geometry import SimulationWindow
from .pointprocess import (
    PointPattern,
    csr_test,
    map_pattern,
    sample_ppp,
)
from .spatialstats import ppp_envelope, remark2_test, ripley_k

__all__ = [
    "AssociationOutcome",
    "ChannelParams",
    "EstimateWithCI",
    "PointPattern",
    "SimulationWindow",
    "WeightLaw",
    "associate",
    "associated_pattern",
    "cell_count_pmf_mc",
    "coverage_sweep",
    "csr_test",
    "fractional_moment",
    "map_pattern",
    "mapped_intensity",
    "ppp_envelope",
    "remark2_test",
    "rho_strongest_power",
    "ripley_k",
    "sample_gain",
    "sample_ppp",
    "sir_at_typical_user",
    "user_count_pmf",
    "void_prob_bounds",
    "void_prob_nearest",
    "void_prob_rca",
    "void_probability_mc",
    "void_probability_sweep",
    "zeta_dagger",
]
