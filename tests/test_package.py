"""The public surface: the names the package re-exports and the options they take."""

import inspect

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


#: Every parameter with a default of a public callable, dataclass fields included: an
#: option is public surface too, and one that only tests set is a candidate for deletion.
PUBLIC_OPTIONS = {
    "ProtocolParams": {"v_s", "v_a", "v_dis", "t1", "t2", "t3", "eta_sa", "eta_sb", "eta_sd",
                       "eta_ab", "eta_bd", "f_a", "f_b", "f_c", "f_d", "users"},
    "Scenario": {"reference", "key_rates"},
    "full_report": {"splits"},
    "qss_params": {"eta"},
    "scan": {"overrides"},
    "squeezed_mode": {"orientation", "label"},
    "vacuum": {"labels"},
}


def test_public_options_are_pinned():
    options = {}
    for name in cvsteer.__all__:
        obj = getattr(cvsteer, name)
        if callable(obj) and not inspect.ismodule(obj):
            params = inspect.signature(obj).parameters.values()
            defaults = {p.name for p in params if p.default is not p.empty}
            if defaults:
                options[name] = defaults
    assert options == PUBLIC_OPTIONS
