"""Desk-scale simulator and analysis bench for single-actuator exotendon
hand orthoses: tendon routing over a kinematic hand, aggregate spastic-muscle
resistance, breakaway-coupling hardware, trial simulation, and the
force-position analysis pipeline.

The names below are re-exported lazily: ``import exosim`` loads no submodule
(and so not numpy), and ``from exosim import run_trial`` loads the one that
defines it.
"""

import importlib

TOOL_VERSION = "0.1.0"
__version__ = TOOL_VERSION

_EXPORTS = {
    "actuation": (
        "ActuatorSpec", "CouplingSpec", "LoadCellSpec", "MAGNET_BREAKAWAY_N",
        "actuator_position_mm", "coupling_for_magnet", "measure", "update_coupling",
    ),
    "analysis": (
        "AnalysisReport", "analyze", "batch_report", "linear_fit_and_correlation",
        "normalize", "trim_slack", "truncate_breakaway",
    ),
    "config": ("Bench", "default_config", "default_subject_bank", "load_config"),
    "hand": (
        "Digit", "HandModel", "HandPose", "Joint", "JointKind", "clamp_pose",
        "default_hand", "full_flexion_pose", "spastic_rest_pose", "zero_pose",
    ),
    "spasticity": (
        "MasLevel", "SubjectBank", "SubjectProfile", "calibrate_stiffness",
        "resistance_force_n",
    ),
    "tendons": (
        "NetworkKind", "TendonBranch", "TendonNetwork", "calibrate_depth",
        "config1_extension", "config2_pinch", "excursion_mm", "moment_arms",
        "network_state",
    ),
    "trial": (
        "PoseResponse", "TrialConfig", "TrialTrace", "is_functional_extension", "run_trial",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
