"""rigidkit: rigidity, hidden-mode geometry and impulse response of
distance-based formations.

The package models a formation as a framework (graph plus reference
configuration), computes its rigidity subspaces, analyzes which modes of
the linearized gradient dynamics a single actuator can reach and a single
sensor can see, and simulates how an impulsive disturbance reshapes the
formation.
"""

from .dynamics import (
    controllable_plane,
    edge_error_series,
    rbm_coefficients,
    rbm_motion_from_coords,
    shape_recovery_experiment,
    simulate_lti,
    simulate_nonlinear,
    steady_state,
    sweep_impulse_angles,
)
from .framework import (
    Framework,
    Scenario,
    ScenarioParseError,
    SimSettings,
    ToleranceOverrides,
    ValidationError,
    block,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)
from .modes import (
    LinearizedSystem,
    classify_modes,
    eigenspaces,
    elementary_rotations,
    global_rotation_subspace,
    hidden_mode_checks,
    linearize,
    local_rotation_report,
    local_rotation_subspace,
    rbm_deformation_split_report,
    specialization_report,
    uncontrollable_subspace,
    unobservable_subspace,
)
from .rigidity import (
    FLEXIBLE,
    INFINITESIMALLY_RIGID,
    MINIMALLY_RIGID,
    RIGID_WITH_REDUNDANCY,
    RigidityMatrix,
    classify_rigidity,
    deformation_space,
    flex_space,
    rbm_basis,
    rigidity_function,
    rigidity_matrix,
    rigidity_rank,
    rotation_2d,
    self_stress_space,
)
from .subspaces import (
    DEFAULT_TOL,
    NumericalError,
    Subspace,
    contains,
    direct_sum_check,
    intersect,
    nullspace,
    orthonormalize,
    principal_angles,
    project,
)

__version__ = "0.1.0"
