"""Bell-test analysis for single-photon path-entangled states.

The package models an N-mode single-photon state (optionally entangled with
an atom), applies realistic two- and three-outcome detector models, and
quantifies nonlocality three ways: closed-form Bell functionals, critical
detection efficiencies found by bisection over optimized measurements, and
the exact EPR2 nonlocal content from a linear program over the local
polytope.
"""

from .bell import (
    BellResult,
    cabello_value,
    chsh_value,
    mermin3_value,
    wwwzb_value,
)
from .dist import (
    JointDistribution,
    MeasurementAssignment,
    joint_distribution,
)
from .measure import (
    POVM,
    BlochAxis,
    X_AXIS,
    Z_AXIS,
    efficiency_povm,
    family_povm,
)
from .polytope import (
    ContentResult,
    LPError,
    nonlocal_content,
    solve_lp,
)
from .qmat import negativity, partial_transpose
from .search import (
    BracketError,
    MeasSpec,
    ParamSpec,
    ScenarioSpec,
    SearchResult,
    ThresholdCurve,
    critical_efficiency,
    optimize_free_parameters,
    region_boundary,
    scenario_distribution,
    scenario_result,
    violation_margin,
)
from .states import ExcitationState, atom_photon_state, damped_w_state, w_state

__version__ = "0.1.0"

__all__ = [
    "BellResult",
    "BlochAxis",
    "BracketError",
    "ContentResult",
    "ExcitationState",
    "JointDistribution",
    "LPError",
    "MeasSpec",
    "MeasurementAssignment",
    "POVM",
    "ParamSpec",
    "ScenarioSpec",
    "SearchResult",
    "ThresholdCurve",
    "X_AXIS",
    "Z_AXIS",
    "atom_photon_state",
    "cabello_value",
    "chsh_value",
    "critical_efficiency",
    "damped_w_state",
    "efficiency_povm",
    "family_povm",
    "joint_distribution",
    "mermin3_value",
    "negativity",
    "nonlocal_content",
    "optimize_free_parameters",
    "partial_transpose",
    "region_boundary",
    "scenario_distribution",
    "scenario_result",
    "solve_lp",
    "violation_margin",
    "w_state",
    "wwwzb_value",
]
