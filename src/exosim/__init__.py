"""Desk-scale simulator and analysis bench for single-actuator exotendon
hand orthoses: tendon routing over a kinematic hand, aggregate spastic-muscle
resistance, breakaway-coupling hardware, trial simulation, and the
force-position analysis pipeline."""

from .actuation import (
    ActuatorSpec,
    CouplingSpec,
    CouplingState,
    LoadCellSpec,
    MAGNET_BREAKAWAY_N,
    actuator_position_mm,
    coupling_for_magnet,
    measure,
    update_coupling,
)
from .analysis import (
    AnalysisReport,
    analyze,
    batch_report,
    linear_fit_and_correlation,
    normalize,
    trim_slack,
    truncate_breakaway,
)
from .config import TOOL_VERSION, Bench, default_config, default_subject_bank, load_config
from .hand import (
    Digit,
    HandModel,
    HandPose,
    Joint,
    JointKind,
    clamp_pose,
    default_hand,
    full_flexion_pose,
    spastic_rest_pose,
    zero_pose,
)
from .spasticity import (
    MasLevel,
    SubjectBank,
    SubjectProfile,
    calibrate_stiffness,
    resistance_force_n,
)
from .tendons import (
    NetworkKind,
    TendonBranch,
    TendonNetwork,
    branch_excursion_mm,
    calibrate_depth,
    config1_extension,
    config2_pinch,
    network_state,
)
from .trial import (
    PoseResponse,
    TrialConfig,
    TrialTrace,
    is_functional_extension,
    run_trial,
    trial_config_for,
)

__version__ = TOOL_VERSION
