"""Distribution of Gaussian entanglement and EPR steering via separable ancillas.

A numpy library plus CLI that builds the covariance matrices of a
server/multi-user optical network, certifies separability (PPT) and
steerability (Schur-complement monotone) of arbitrary Gaussian states,
derives the optimal classical-displacement coefficients, and validates
everything against a shot-level Monte Carlo twin.
"""

from .core import (
    GaussianState,
    NoisePattern,
    add_correlated_noise,
    beam_splitter,
    db_to_variance,
    is_physical,
    loss_channel,
    relabel,
    select_modes,
    squeezed_mode,
    symplectic_form,
    tensor,
    vacuum,
)
from .criteria import (
    Partition,
    SteeringReport,
    full_report,
    partial_transpose,
    ppt_min,
    ppt_two_mode,
    steerability,
    symplectic_eigenvalues,
)
from .optimize import (
    OptimizationResult,
    ScanResult,
    fiber_distance,
    golden_section_maximize,
    key_rate,
    numeric_optimize_coefficient,
    optimal_fb,
    optimal_fb_general_loss,
    optimal_fd,
    optimal_fd_general_loss,
    qss_scenario,
)
from .protocol import (
    ProtocolParams,
    analytic_cov_final_two_user,
    analytic_cov_pre_bob,
    analytic_cov_three_user,
    build_network_state,
    closed_form_steering_three_user,
    closed_form_steering_two_user,
    qss_params,
    separable_boundary_vsep,
    server_output_state,
)
from .sampler import (
    CovarianceComparison,
    ShotBatch,
    compare_covariance,
    estimate_covariance,
    shot_blocks,
    simulate_shots,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
