"""The public surface: the names the package re-exports, those of ``cli``, and the options
they take."""

import inspect

import pytest

import cvsteer
from cvsteer import cli, core, criteria, optimize, protocol, sampler

MODULES = (core, criteria, optimize, protocol, sampler)


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_every_public_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(cvsteer, name) is getattr(module, name), name
        assert name in cvsteer.__all__, name


#: The public surface: a change here is an API change and belongs in the README.  ``cli``'s
#: names, which the package does not re-export, are pinned as ``cli.<name>``.
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
    # sampler
    "CovarianceComparison", "ShotBatch", "compare_covariance", "estimate_covariance",
    "simulate_shots",
    # cli
    "cli.InputDataError", "cli.RunConfig", "cli.cmd_certify", "cli.cmd_montecarlo",
    "cli.cmd_scan", "cli.cmd_table_a1", "cli.main", "cli.read_cov_matrix_file",
}


def _public() -> dict[str, object]:
    """Each public name and its object: the package's ``__all__``, and ``cli``'s as
    ``cli.<name>``."""
    return {**{name: getattr(cvsteer, name) for name in cvsteer.__all__},
            **{f"cli.{name}": getattr(cli, name) for name in cli.__all__}}


def test_public_surface_is_pinned():
    assert set(_public()) == PUBLIC_NAMES


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
    "cli.RunConfig": {"scenario", "eta_start", "eta_stop", "eta_steps", "overrides"},
    "cli.cmd_certify": {"splits"},
    "cli.cmd_montecarlo": {"dump_shots"},
    "cli.main": {"argv"},
}


def test_public_options_are_pinned():
    options = {}
    for name, obj in _public().items():
        # an exception class takes its message, not options
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            params = inspect.signature(obj).parameters.values()
            defaults = {p.name for p in params if p.default is not p.empty}
            if defaults:
                options[name] = defaults
    assert options == PUBLIC_OPTIONS
