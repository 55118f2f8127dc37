"""rigidkit: rigidity, hidden-mode geometry and impulse response of
distance-based formations.

The package models a formation as a framework (graph plus reference
configuration), computes its rigidity subspaces, analyzes which modes of
the linearized gradient dynamics a single actuator can reach and a single
sensor can see, and simulates how an impulsive disturbance reshapes the
formation.

``import rigidkit`` loads no submodule (and so not numpy): each name below
is imported from its module the first time it is looked up (PEP 562).
"""

import importlib

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "dynamics": """rbm_coefficients shape_recovery_experiment
            simulate_lti simulate_nonlinear steady_state sweep_impulse_angles""",
        "framework": """Framework Scenario ScenarioParseError SimSettings ToleranceOverrides
            ValidationError block load_scenario save_scenario scenario_to_dict""",
        "modes": """LinearizedSystem classify_modes controllable_plane eigenspaces
            elementary_rotations global_rotation_subspace hidden_mode_checks linearize
            local_rotation_subspace""",
        "rigidity": """FLEXIBLE INFINITESIMALLY_RIGID MINIMALLY_RIGID RIGID_WITH_REDUNDANCY
            RigidityMatrix classify_rigidity deformation_space flex_space rbm_basis
            rigidity_function rigidity_matrix self_stress_space""",
        "subspaces": """DEFAULT_TOL NumericalError Subspace contains direct_sum_check
            orthonormalize principal_angles project""",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _EXPORTS.values():  # a submodule, as the eager package had them all bound
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
