"""The package's top level re-exports each library module's public names."""

import pytest

import cvsteer
from cvsteer import core, criteria, optimize, protocol, sampler

MODULES = (core, criteria, optimize, protocol, sampler)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_public_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(cvsteer, name) is getattr(module, name), name
        assert name in cvsteer.__all__, name


#: The public surface: a change here is an API change and belongs in the README.
PUBLIC_NAMES = {
    # the library modules themselves
    "core", "criteria", "optimize", "protocol", "sampler",
    # core
    "GaussianState", "beam_splitter", "db_to_variance", "is_physical", "select_modes",
    "squeezed_mode", "tensor", "vacuum",
    # criteria
    "Partition", "SteeringReport", "full_report", "partial_transpose", "ppt_min",
    "ppt_two_mode", "steerability", "symplectic_eigenvalues",
    # optimize
    "OptimizationResult", "SCENARIO_TABLE", "ScanResult", "Scenario",
    "fiber_distance", "key_rate", "numeric_optimize_coefficient", "optimal_fb",
    "optimal_fb_general_loss", "optimal_fd", "optimal_fd_general_loss", "scan",
    "scenario_params",
    # protocol
    "ProtocolParams", "analytic_cov_final_two_user", "analytic_cov_pre_bob",
    "analytic_cov_three_user", "build_network_state", "closed_form_steering_three_user",
    "closed_form_steering_two_user", "qss_params", "separable_boundary_vsep",
    "server_output_state",
    # sampler
    "CovarianceComparison", "ShotBatch", "compare_covariance", "estimate_covariance",
    "simulate_shots",
}


def test_public_surface_is_pinned():
    assert set(cvsteer.__all__) == PUBLIC_NAMES
