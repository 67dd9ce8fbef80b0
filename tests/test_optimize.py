import math

import numpy as np
import pytest

from cvsteer import (
    Partition,
    ProtocolParams,
    build_network_state,
    fiber_distance,
    key_rate,
    numeric_optimize_coefficient,
    optimal_fb,
    optimal_fb_general_loss,
    optimal_fd,
    optimal_fd_general_loss,
    ppt_min,
    qss_params,
    steerability,
)
from cvsteer import optimize
from cvsteer.criteria import SEPARABILITY_TOL
from cvsteer.optimize import _OBJECTIVE_STAGE, SCENARIO_TABLE, _trials, scan, scenario_params
from cvsteer.protocol import (V_A_DEFAULT, V_S_DEFAULT, _RESOLUTION_LIMIT, _STAGES,
                              closed_form_steering_three_user)
from conftest import three_user_params, two_user_params

TABLE_ETAS = (1.0, 0.8, 0.6, 0.4, 0.2)
TABLE_FD = (1.752, 1.567, 1.357, 1.108, 0.784)


class TestOptimalFb:
    def test_reference_value(self):
        assert optimal_fb(0.5, 1.0, 1.0, 3.55, 0.50) == pytest.approx(1.239, abs=1e-3)

    def test_dead_relay(self):
        assert optimal_fb(0.5, 1.0, 0.0, 3.55, 0.50) == 0.0

    def test_symmetric_efficiency_cancels(self):
        symmetric = math.sqrt(2) * V_A_DEFAULT / (V_A_DEFAULT + V_S_DEFAULT)
        for eta in (0.2, 0.7, 1.0):
            assert optimal_fb(0.5, eta, eta, V_A_DEFAULT, V_S_DEFAULT) == pytest.approx(
                symmetric, rel=1e-12)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="t2 and eta_sb must be positive"):
            optimal_fb(0.0, 1.0, 1.0, 3.55, 0.5)
        with pytest.raises(ValueError, match="t2 and eta_sb must be positive"):
            optimal_fb(0.5, 0.0, 1.0, 3.55, 0.5)


#: Each formula, its valid arguments by name, and the order it takes them in.
FORMULAS = [
    (optimal_fb, dict(t2=0.5, eta_sb=1.0, eta_ab=1.0, v_a=3.55, v_s=0.5)),
    (optimal_fd, dict(eta=0.5, v_a=3.55, v_s=0.5)),
    (optimal_fb_general_loss, dict(eta_sa=0.9, eta_sb=1.0, eta_ab=1.0, v_a=3.55, v_s=0.5)),
    (optimal_fd_general_loss, dict(eta=0.5, v_a=3.55, v_s=0.5)),
]


class TestFormulaDomain:
    """One domain rule for every optimal-coefficient formula: efficiencies and
    transmittances in [0, 1], variances finite and positive, NaN rejected by both."""

    @pytest.mark.parametrize("formula, args", FORMULAS)
    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, math.inf])
    def test_every_argument_is_checked(self, formula, args, bad):
        for name in args:
            if name.startswith("v_") and 0 < bad < math.inf:
                continue  # any finite positive variance is in the domain
            rule = "be finite and positive" if name.startswith("v_") else r"lie in \[0, 1\]"
            with pytest.raises(ValueError, match=rf"{name} must {rule}, got {bad}"):
                formula(**{**args, name: bad})

    @pytest.mark.parametrize("call", [
        # a bare math domain error, NaN, an eta_sa outside [0, 1] taken, and 1 / 0
        lambda: optimal_fb(1.5, 1.0, 1.0, 3.55, 0.5),
        lambda: optimal_fb(0.5, math.nan, 1.0, 3.55, 0.5),
        lambda: optimal_fb_general_loss(2.0, 1.0, 1.0, 3.55, 0.5),
        lambda: optimal_fd(0.5, -1.0, 1.0),
    ])
    def test_former_escapes_are_value_errors(self, call):
        with pytest.raises(ValueError, match="must"):
            call()

    def test_zero_efficiency_limits_kept(self):
        assert optimal_fd(0.0, 3.55, 0.5) == 0.0
        assert optimal_fd_general_loss(0.0, 3.55, 0.5) == 0.0
        assert optimal_fb_general_loss(0.0, 1.0, 1.0, 3.55, 0.5) == 0.0
        with pytest.raises(ValueError, match="eta_sb must be positive"):
            optimal_fb_general_loss(0.9, 0.0, 1.0, 3.55, 0.5)


class TestOptimalFd:
    @pytest.mark.parametrize("eta,expected", list(zip(TABLE_ETAS, TABLE_FD)))
    def test_table_values(self, eta, expected):
        assert optimal_fd(eta, V_A_DEFAULT, V_S_DEFAULT) == pytest.approx(expected, abs=1e-3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_fd(1.2, 3.55, 0.5)


class TestGeneralLossCoefficients:
    def test_reduces_to_balanced_optimum_without_alice_loss(self):
        for eta_ab, eta_sb in ((1.0, 1.0), (0.7, 0.9), (0.4, 0.6)):
            a = optimal_fb_general_loss(1.0, eta_sb, eta_ab, V_A_DEFAULT, V_S_DEFAULT)
            b = optimal_fb(0.5, eta_sb, eta_ab, V_A_DEFAULT, V_S_DEFAULT)
            assert a == pytest.approx(b, rel=1e-12)

    def test_threshold_point_value(self):
        value = optimal_fb_general_loss(0.81, 0.81, 0.81, 3.55, 0.50)
        assert value == pytest.approx(1.065904796587693, rel=1e-12)

    def test_monotone_in_alice_efficiency(self):
        values = [optimal_fb_general_loss(float(s), 0.81, 0.81, V_A_DEFAULT, V_S_DEFAULT)
                  for s in np.linspace(0.05, 1.0, 20)]
        assert all(np.diff(values) > 0)

    def test_is_the_actual_argmax(self):
        # independent check against a dense scan of the pipeline steerability
        eta = 0.95
        fs = np.linspace(0.5, 2.5, 2001)
        best = max(fs, key=lambda f: steerability(
            build_network_state(
                ProtocolParams(users="two", eta_sa=eta, eta_sb=eta, eta_ab=eta,
                               f_b=float(f)), "final_two_user"),
            Partition((0,), (1,))))
        assert abs(best - optimal_fb_general_loss(eta, eta, eta, V_A_DEFAULT, V_S_DEFAULT)) < 2e-3

    def test_fd_ratio(self):
        for eta in (0.9, 0.95, 1.0):
            fb = optimal_fb_general_loss(eta, eta, eta, V_A_DEFAULT, V_S_DEFAULT)
            fd = optimal_fd_general_loss(eta, V_A_DEFAULT, V_S_DEFAULT)
            assert fd == pytest.approx(math.sqrt(2 * eta) * fb, rel=1e-12)

    def test_fd_limits(self):
        assert optimal_fd_general_loss(1.0, V_A_DEFAULT, V_S_DEFAULT) == pytest.approx(
            1.752, abs=1e-3)
        assert optimal_fd_general_loss(0.0, V_A_DEFAULT, V_S_DEFAULT) == 0.0

    def test_zero_eta_sb_rejected(self):
        with pytest.raises(ValueError):
            optimal_fb_general_loss(1.0, 0.0, 1.0, 3.55, 0.5)


class TestNumericOptimizer:
    def test_two_user_coefficient(self):
        result = numeric_optimize_coefficient("steer_A_to_B", two_user_params(1.0), "f_b")
        assert abs(result.f_star - 1.239) < 1e-3
        assert not result.constraint_active
        assert not result.at_boundary
        assert result.g_star == pytest.approx(0.0627748, abs=1e-6)

    def test_three_user_david_coefficient(self):
        result = numeric_optimize_coefficient("steer_A_to_BD", three_user_params(0.4), "f_d")
        assert abs(result.f_star - optimal_fd(0.4, V_A_DEFAULT, V_S_DEFAULT)) < 1e-6

    @pytest.mark.parametrize("eta", TABLE_ETAS)
    def test_reproduces_table_fb(self, eta):
        result = numeric_optimize_coefficient("steer_A_to_B", two_user_params(eta), "f_b")
        expected = optimal_fb(0.5, eta if eta else 1.0, eta if eta else 1.0,
                              V_A_DEFAULT, V_S_DEFAULT)
        assert abs(result.f_star - expected) < 1e-6

    def test_local_maximum_witness(self):
        params = three_user_params(0.6)
        state = lambda f: build_network_state(params.replace(f_d=f), "final_three_user")
        g = lambda f: steerability(state(f), Partition((0,), (1, 2)))
        f_star = optimal_fd(0.6, V_A_DEFAULT, V_S_DEFAULT)
        assert g(f_star) >= g(f_star * 1.01)
        assert g(f_star) >= g(f_star * 0.99)

    def test_boundary_reported(self):
        # with no relay Alice cannot steer Bob at any weight: the objective is zero over
        # the whole bracket, so the search has no interior maximum to refine
        result = numeric_optimize_coefficient("steer_A_to_B", ProtocolParams(eta_ab=0.0), "f_b")
        assert result.at_boundary
        assert (result.f_star, result.g_star) == (0.0, 0.0)

    def test_two_user_objective_rejects_david_coefficient(self):
        # no two-user step reads f_d, so the search returned f* = 0 at the boundary
        with pytest.raises(ValueError, match="does not depend on f_d"):
            numeric_optimize_coefficient(
                "steer_A_to_B", ProtocolParams(eta_sb=0.7, eta_ab=0.7), "f_d")

    def test_three_user_objective_on_two_users_is_rejected(self):
        # the optimizer used to switch the parameters to three users without a word
        with pytest.raises(ValueError, match="requires users='three'"):
            numeric_optimize_coefficient("steer_A_to_BD", ProtocolParams(users="two"), "f_d")

    def test_infeasible_everywhere(self):
        params = two_user_params(1.0).replace(v_dis=0.1)
        with pytest.raises(ValueError, match="separability"):
            numeric_optimize_coefficient("steer_A_to_B", params, "f_b")

    def test_constraint_rejection_active(self):
        # with the noise variance pinned barely above the boundary the window
        # of feasible coefficients shrinks but the optimum stays interior
        params = two_user_params(1.0).replace(v_dis=0.9)
        result = numeric_optimize_coefficient("steer_A_to_B", params, "f_b")
        assert result.g_star > 0

    def test_collective_reverse_direction_constraint_binds(self):
        # steering the dealer is limited by ancilla separability itself: the search
        # stops where a relay would become entangled, right by the scenario's fixed weight
        from cvsteer import qss_params

        params = qss_params(1.0)
        constrained = numeric_optimize_coefficient("steer_BD_to_A", params, "f_d")
        assert constrained.constraint_active
        assert not constrained.at_boundary
        assert abs(constrained.f_star - 1.70) < 0.05
        # the returned weight itself keeps both relayed ancillas separable
        at_star = params.replace(f_d=constrained.f_star)
        assert ppt_min(build_network_state(at_star, "pre_bob"), ["C1"]) >= 1 - SEPARABILITY_TOL
        assert ppt_min(build_network_state(at_star, "pre_david"), ["C2"]) >= 1 - SEPARABILITY_TOL
        # the scenario's frozen weight is feasible and close to the optimum
        state = build_network_state(params, "final_three_user")
        g_frozen = steerability(state, Partition((1, 2), (0,)))
        assert g_frozen <= constrained.g_star
        assert constrained.g_star - g_frozen < 0.02

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            numeric_optimize_coefficient("steer_Z_to_Q", two_user_params(1.0), "f_b")
        with pytest.raises(ValueError):
            numeric_optimize_coefficient("steer_A_to_B", two_user_params(1.0), "f_q")


#: Parameters each objective is optimized on in the rule tests below.
OBJECTIVE_PARAMS = {"steer_A_to_B": two_user_params(0.7),
                    "steer_A_to_BD": three_user_params(0.7),
                    "steer_BD_to_A": qss_params(0.9)}


@pytest.mark.parametrize("objective", OBJECTIVE_PARAMS)
@pytest.mark.parametrize("which", ["f_a", "f_b", "f_c", "f_d"])
def test_optimizer_takes_exactly_the_coefficients_its_stage_reads(objective, which):
    params = OBJECTIVE_PARAMS[objective]
    if which in {"f_b", "f_d"} & _STAGES[_OBJECTIVE_STAGE[objective][0]].fields:
        assert numeric_optimize_coefficient(objective, params, which).g_star > 0
    else:
        with pytest.raises(ValueError, match=which):
            numeric_optimize_coefficient(objective, params, which)


@pytest.mark.parametrize("objective, which", [
    ("steer_A_to_B", "f_b"), ("steer_A_to_BD", "f_b"), ("steer_A_to_BD", "f_d"),
    ("steer_BD_to_A", "f_b"), ("steer_BD_to_A", "f_d")])
def test_ancilla_ppt_matches_the_public_route(objective, which):
    # each f_b grid reaches coefficients that entangle C1 (checked last); C2 counts only
    # where C1 is separable
    params, (stage, partition) = OBJECTIVE_PARAMS[objective], _OBJECTIVE_STAGE[objective]
    xs = np.linspace(0.0, 4.0, 9)
    _, got = _trials(params, stage, partition, which)[0](xs)
    for x, value in zip(xs, got):
        p = params.replace(**{which: x})
        want = ppt_min(build_network_state(p, "pre_bob"), ["C1"])
        if stage == "final_three_user" and want >= 1 - SEPARABILITY_TOL:
            want = min(want, ppt_min(build_network_state(p, "pre_david"), ["C2"]))
        assert value == pytest.approx(want, rel=1e-12, abs=0), x
    assert which == "f_d" or got.min() < 1 - SEPARABILITY_TOL


def test_relay_not_reading_the_coefficient_is_certified_once(monkeypatch):
    # pre_bob (3 modes) does not read f_d: one stack of one for the whole search, while
    # pre_david (4 modes) is certified on every trial stack where C1 is separable
    stacks = []
    ppt_cov = optimize._ppt_cov

    def count(cov, modes):
        stacks.append(cov.shape)
        return ppt_cov(cov, modes)

    monkeypatch.setattr(optimize, "_ppt_cov", count)
    numeric_optimize_coefficient("steer_A_to_BD", three_user_params(0.7), "f_d")
    assert [shape for shape in stacks if shape[-1] == 6] == [(1, 6, 6)]
    assert [shape for shape in stacks if shape[-1] == 8] == [(81, 8, 8)] + [(9, 8, 8)] * 8


@pytest.mark.parametrize("objective", OBJECTIVE_PARAMS)
def test_one_network_pass_per_search(monkeypatch, objective):
    # the trials of the bracket and of every refinement pass are read off one pass
    calls = []
    network_transfers = optimize._network_transfers

    def count(*args, **kwargs):
        calls.append(kwargs)
        return network_transfers(*args, **kwargs)

    monkeypatch.setattr(optimize, "_network_transfers", count)
    numeric_optimize_coefficient(objective, OBJECTIVE_PARAMS[objective], "f_b")
    assert len(calls) == 1


def test_entangled_fixed_relay_rejects_every_trial():
    # C1 does not read f_d, and at this noise variance it is entangled at every f_d
    params = three_user_params(0.7).replace(v_dis=0.1)
    with pytest.raises(ValueError, match=r"no feasible point in \[0, 4\]: separability violated"):
        numeric_optimize_coefficient("steer_A_to_BD", params, "f_d")


@pytest.mark.parametrize("objective, which", [
    ("steer_A_to_B", "f_b"), ("steer_A_to_BD", "f_b"), ("steer_A_to_BD", "f_d"),
    ("steer_BD_to_A", "f_b"), ("steer_BD_to_A", "f_d")])
def test_unresolvable_noise_variance_is_refused(objective, which):
    # the trials at v_dis = 1e12 carry variances of 1e12 and more, whose steering and PPT
    # values float64 cannot resolve; with f_d searched, pre_bob's fixed relay is refused
    params = OBJECTIVE_PARAMS[objective].replace(v_dis=1e12)
    with pytest.raises(ArithmeticError, match="^float64 cannot resolve this network: "):
        numeric_optimize_coefficient(objective, params, which)


def test_resolvable_optimum_is_found_past_an_unresolvable_bracket_end():
    # at the analytic optimum f_b = 1.23918 eps x largest variance is 5.6e-11 (final_two_user)
    # and 1.2e-10 (pre_bob), under the bound; only the bracket's far end exceeds it
    params = two_user_params(0.7).replace(v_dis=5e5)
    result = numeric_optimize_coefficient("steer_A_to_B", params, "f_b")
    assert result.f_star == pytest.approx(
        optimal_fb(0.5, 0.7, 0.7, V_A_DEFAULT, V_S_DEFAULT), abs=1e-4)


def test_optimum_next_to_the_resolvable_end_is_refined():
    # float64 resolves f_b up to 1.268 (pre_bob): the coarse bracket's best is its cut end,
    # 1.25, and refinement still finds the interior optimum below it
    params = two_user_params(0.7).replace(v_dis=4e6)
    result = numeric_optimize_coefficient("steer_A_to_B", params, "f_b")
    assert not result.at_boundary
    assert result.f_star == pytest.approx(
        optimal_fb(0.5, 0.7, 0.7, V_A_DEFAULT, V_S_DEFAULT), abs=1e-4)


def test_optimum_past_the_resolvable_end_is_reported_at_the_boundary():
    # float64 resolves f_b only up to 1.1343 (pre_bob), below the optimum 1.2392: the best
    # resolvable coefficient is that end, reported with at_boundary set, not as a maximum
    params = two_user_params(0.7).replace(v_dis=5e6)
    result = numeric_optimize_coefficient("steer_A_to_B", params, "f_b")
    assert result.at_boundary
    assert result.f_star == pytest.approx(1.134347, abs=1e-6)
    build_network_state(params.replace(f_b=result.f_star), "pre_bob")
    with pytest.raises(ArithmeticError, match="^float64 cannot resolve this network: "):
        build_network_state(params.replace(f_b=result.f_star + 1e-5), "pre_bob")


def test_scenario_params_refuses_an_override_no_column_reads():
    # David's weight changes nothing a two_user row reports
    with pytest.raises(ValueError, match="^no column of this scenario reads f_d; it reads "):
        scenario_params(SCENARIO_TABLE["two_user"], 0.5, {"f_d": 3.0})


def test_scan_refuses_an_unread_override_on_an_empty_grid():
    # the refusal does not wait for a grid point to reach scenario_params
    with pytest.raises(ValueError, match="^no column of this scenario reads bogus; it reads "):
        scan(SCENARIO_TABLE["two_user"], [], {"bogus": 1.0})
    assert scan(SCENARIO_TABLE["two_user"], [], None).rows == ()


def test_scan_just_under_the_resolution_bound_matches_the_closed_forms():
    # eps times the largest variance of the grid's states is just under the bound, and the
    # three_user steering columns still match the closed forms to within it
    scenario, overrides, etas = SCENARIO_TABLE["three_user"], {"v_dis": 9e6}, np.linspace(0.5, 1, 6)
    result = scan(scenario, etas, overrides)
    params = [scenario_params(scenario, eta, overrides) for eta in etas]
    worst = max(build_network_state(p, "final_three_user").cov.diagonal().max() for p in params)
    assert 0.99 < np.finfo(float).eps * worst / _RESOLUTION_LIMIT <= 1.0
    for row, p in zip(result.rows, params):
        got = [row[name] for name in ("G_A_to_BD", "G_A_to_B", "G_A_to_D")]
        np.testing.assert_allclose(got, closed_form_steering_three_user(p), rtol=0,
                                   atol=_RESOLUTION_LIMIT)


#: (objective, parameters, eta, coefficient, f_ref, g_ref, constraint_active, at_boundary,
#: f_star, g_star).  f_ref/g_ref are the optimum that the
#: golden-section refinement found before the grid passes replaced it; the grid must stay
#: within 1e-6 of f_ref and lose no more than 1e-12 of g_ref.  f_star/g_star are the
#: grid-refinement optimizer's values, exact, so any change to the coarse bracket, the
#: refinement passes or the kernels under them shows here.
PINNED_OPTIMA = [
    ("steer_A_to_B", two_user_params, 1.0, "f_b",
     1.239175640332382, 0.06277479913993837, False, False,
     1.2391753600000002, 0.06277479913997538),
    ("steer_A_to_B", two_user_params, 0.7, "f_b",
     1.239175640332382, 0.04352516159409473, False, False,
     1.2391753600000002, 0.04352516159412013),
    ("steer_A_to_B", two_user_params, 0.4, "f_b",
     1.239175640332382, 0.024639085187924688, False, False,
     1.2391753600000002, 0.024639085187938684),
    ("steer_A_to_BD", three_user_params, 1.0, "f_d",
     1.7524584216290418, 0.0957045927508973, False, False,
     1.7524585599999998, 0.0957045927509056),
    ("steer_A_to_BD", three_user_params, 0.7, "f_d",
     1.4662118414912877, 0.05921784643313091, False, False,
     1.4662121599999995, 0.05921784643313691),
    ("steer_A_to_BD", three_user_params, 0.4, "f_d",
     1.1083521205602072, 0.02964059910865017, False, False,
     1.10835216, 0.029640599108649825),
    ("steer_A_to_BD", three_user_params, 0.7, "f_b",
     1.239175640332382, 0.05921784643312902, False, False,
     1.2391753600000002, 0.05921784643313727),
    ("steer_BD_to_A", qss_params, 1.0, "f_d",
     1.718947403239698, 0.4384660002040186, True, False,
     1.7189476799999996, 0.438466190435661),
    ("steer_BD_to_A", qss_params, 0.9, "f_d",
     1.863109711024948, 0.28793436943211254, True, False,
     1.86310992, 0.2879344518331009),
    ("steer_BD_to_A", qss_params, 0.8, "f_d",
     2.028959069433207, 0.0944990126056686, True, False,
     2.0289593599999995, 0.09449906765691984),
]


# a case is named by its inputs and reference optimum, not by the exact pin, so a re-pin
# keeps the test names; the "True" after the coefficient (the separability constraint, which
# is always on) keeps each case's established name
@pytest.mark.parametrize(
    "objective,make,eta,which,f_ref,g_ref,active,boundary,f_star,g_star",
    PINNED_OPTIMA, ids=["-".join(map(str, (o, m.__name__, eta, which, True, *rest)))
                        for o, m, eta, which, *rest, _, _ in PINNED_OPTIMA])
def test_optimizer_pinned(objective, make, eta, which, f_ref, g_ref, active, boundary,
                          f_star, g_star):
    result = numeric_optimize_coefficient(objective, make(eta), which)
    assert (result.f_star, result.g_star) == (f_star, g_star)
    assert (result.constraint_active, result.at_boundary) == (active, boundary)
    assert abs(result.f_star - f_ref) <= 1e-6
    assert result.g_star >= g_ref - 1e-12


class TestKeyRate:
    def test_zero_steering(self):
        assert key_rate(0.0) == 0.0

    def test_threshold(self):
        assert key_rate(1.0 - math.log(2.0)) == 0.0

    def test_positive_region(self):
        assert key_rate(0.5) == pytest.approx(0.5 - (1 - math.log(2)), rel=1e-12)

    def test_monotone(self):
        gs = np.linspace(0.0, 1.0, 50)
        ks = [key_rate(float(g)) for g in gs]
        assert all(np.diff(ks) >= 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            key_rate(-0.1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            key_rate(math.nan)


class TestFiberDistance:
    def test_steering_range(self):
        assert fiber_distance(0.80) == pytest.approx(4.85, abs=0.01)
        assert abs(fiber_distance(0.80) - 4.90) < 0.1

    def test_no_loss_no_distance(self):
        assert fiber_distance(1.0) == 0.0

    def test_no_loss_is_positive_zero(self):
        # -10 log10(1) is -0.0, which printed as "-0.00 km"
        assert math.copysign(1.0, fiber_distance(1.0)) == 1.0
        assert f"{fiber_distance(1.0):.2f}" == "0.00"

    def test_key_rate_range(self):
        assert fiber_distance(0.94) == pytest.approx(1.34, abs=0.05)

    def test_monotone_decreasing(self):
        etas = np.linspace(0.5, 1.0, 20)
        dists = [fiber_distance(float(e)) for e in etas]
        assert all(np.diff(dists) < 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fiber_distance(0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="got nan"):
            fiber_distance(math.nan)
