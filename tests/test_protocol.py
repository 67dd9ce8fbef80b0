import dataclasses
import math

import numpy as np
import pytest

from cvsteer import (
    Partition,
    SCENARIO_TABLE,
    ProtocolParams,
    analytic_cov_final_two_user,
    analytic_cov_pre_bob,
    analytic_cov_three_user,
    build_network_state,
    closed_form_steering_three_user,
    closed_form_steering_two_user,
    db_to_variance,
    is_physical,
    optimal_fb,
    ppt_min,
    qss_params,
    scan,
    separable_boundary_vsep,
    steerability,
)
from cvsteer.criteria import SEPARABILITY_TOL
from cvsteer.protocol import (STAGES, _RESOLUTION_LIMIT, _STAGES, _covariance, _network_transfers,
                              _resolvable_limit)
from conftest import server_cov, three_user_params, two_user_params


class TestParams:
    def test_defaults_from_db_levels(self):
        p = ProtocolParams()
        assert p.v_s == pytest.approx(10 ** -0.3, rel=1e-12)
        assert p.v_a == pytest.approx(10 ** 0.55, rel=1e-12)
        assert p.v_dis == 1.50
        assert p.t1 == 0.5 and p.f_a == 1.0 and p.f_c == 1.0
        assert p.eta_sa == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(t2=1.4)
        with pytest.raises(ValueError):
            ProtocolParams(eta_ab=-0.1)
        with pytest.raises(ValueError):
            ProtocolParams(v_s=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(users="four")

    @pytest.mark.parametrize("name, value", [("v_s", 0.0), ("v_a", -1.0)])
    def test_non_positive_variance_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
            ProtocolParams(**{name: value})

    def test_source_uncertainty_relation(self):
        with pytest.raises(ValueError, match="uncertainty relation"):
            ProtocolParams(v_s=0.1, v_a=2.0)
        # pure sources sit on the bound up to float rounding; impure ones lie above it
        for db in (3.0, 10.0, 15.0):
            ProtocolParams(v_s=db_to_variance(db, "squeezed"),
                           v_a=db_to_variance(db, "antisqueezed"))
        ProtocolParams(v_s=0.1, v_a=20.0)

    @pytest.mark.parametrize("name", ["v_s", "v_a", "v_dis", "f_a", "f_b", "f_c", "f_d"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ProtocolParams(**{name: value})


class TestBuildNetworkState:
    def test_stage_labels(self):
        p3 = three_user_params(0.9)
        assert build_network_state(p3, "pre_bob").labels == ("A", "B0", "C1")
        assert build_network_state(p3, "final_two_user").labels == ("A", "B")
        assert build_network_state(p3, "pre_david").labels == ("A", "B", "C2", "D0")
        assert build_network_state(p3, "final_three_user").labels == ("A", "B", "D")

    def test_stage_users_consistency(self):
        p2 = two_user_params(1.0)
        with pytest.raises(ValueError):
            build_network_state(p2, "final_three_user")
        with pytest.raises(ValueError):
            build_network_state(p2, "unknown_stage")

    def test_alice_variance(self):
        p = two_user_params(1.0, v_s=0.50, v_a=3.55)
        state = build_network_state(p, "final_two_user")
        assert state.cov[0, 0] == pytest.approx(2.775, abs=1e-12)
        assert state.cov[1, 1] == pytest.approx(2.775, abs=1e-12)

    def test_total_loss_decouples_users(self):
        p = three_user_params(0.0)
        state = build_network_state(p, "final_three_user")
        np.testing.assert_allclose(state.cov[2:4, 2:4], np.eye(2), atol=1e-12)  # B
        np.testing.assert_allclose(state.cov[4:6, 4:6], np.eye(2), atol=1e-12)  # D
        np.testing.assert_allclose(state.cov[0:2, 2:4], 0, atol=1e-12)  # A, B
        np.testing.assert_allclose(state.cov[0:2, 4:6], 0, atol=1e-12)  # A, D

    def test_all_stages_physical(self, rng):
        for _ in range(30):
            v_s = rng.uniform(0.1, 1.0)
            p = ProtocolParams(
                v_s=v_s, v_a=max(1.0, 1.05 / v_s), v_dis=rng.uniform(0, 3),
                t1=rng.uniform(0, 1), t2=rng.uniform(0, 1), t3=rng.uniform(0, 1),
                eta_sa=rng.uniform(0, 1), eta_sb=rng.uniform(0, 1),
                eta_sd=rng.uniform(0, 1), eta_ab=rng.uniform(0, 1),
                eta_bd=rng.uniform(0, 1),
                f_a=rng.uniform(0, 2), f_b=rng.uniform(0, 2),
                f_c=rng.uniform(0, 2), f_d=rng.uniform(0, 2), users="three",
            )
            for stage in ("pre_bob", "final_two_user", "pre_david", "final_three_user"):
                assert is_physical(build_network_state(p, stage))

    def test_xp_cross_blocks_vanish(self, rng):
        for _ in range(10):
            p = three_user_params(float(rng.uniform(0.1, 1.0)))
            cov = build_network_state(p, "final_three_user").cov
            assert np.abs(cov[0::2, 1::2]).max() == 0.0

    def test_complement_splitter_takes_both_amplitudes_from_t(self):
        # David's splitter runs at 1 - t3; sqrt(1 - (1 - t3)) is not sqrt(t3) at t3 = 0.3,
        # and it used to move 6 of the 36 entries of the last cut by 2.2e-16
        transfers = {cut.stage: m for cut, m in
                     _network_transfers(three_user_params(0.8, t3=0.3), "final_three_user")}
        s = np.eye(8)
        c, r = math.sqrt(0.7), math.sqrt(0.3)
        for q in (0, 1):  # the port map of core.beam_splitter on slots 3 (C2) and 2 (D0)
            a, b = 6 + q, 4 + q
            s[a, a], s[a, b], s[b, a], s[b, b] = c, r, r, -c
        want = s @ transfers["pre_david"]
        assert np.array_equal(transfers["final_three_user"], want[:6])


class TestCovariance:
    """``_covariance`` forms and guards every network covariance, of one ``M`` or a stack."""

    def test_one_matrix_is_its_product(self):
        *_, (cut, m) = _network_transfers(two_user_params(0.8), "pre_bob")
        assert cut.stage == "pre_bob"
        assert _covariance(m).tobytes() == (m @ m.T).tobytes()

    def test_one_unresolvable_matrix_refuses_the_stack(self):
        # eps x 1e8 = 2.2e-8 exceeds the bound; the stack's other matrices are fine
        stack = np.stack([np.eye(4, 6), np.eye(4, 6), np.eye(4, 6)])
        stack[1, 2, 2] = 1e4
        with pytest.raises(ArithmeticError, match=r"^float64 cannot resolve this network: "
                                                  r"eps x largest variance = 2.22e-08 exceeds "
                                                  rf"{_RESOLUTION_LIMIT:g} "):
            _covariance(stack)
        stack[1, 2, 2] = 1e3  # eps x 1e6 = 2.2e-10 passes
        assert _covariance(stack)[1, 2, 2] == 1e6

    def test_empty_stack_passes(self):
        # the trial stack where every trial is infeasible
        assert _covariance(np.zeros((0, 4, 6))).shape == (0, 4, 4)

    def test_overflow_is_an_arithmetic_error(self):
        with pytest.raises(ArithmeticError):
            _covariance(np.full((1, 2, 2), 1e200))


class TestResolvableLimit:
    """``_resolvable_limit``: how far along ``M0 + f dM`` ``_covariance`` still resolves."""

    @pytest.fixture
    def roots(self):
        # the f_b roots of the pre_bob cut at a v_dis whose limit, about 1.1343, lies inside
        # the optimizer's bracket
        params = two_user_params(0.7).replace(v_dis=5e6)
        *_, (cut, (m0, m1)) = _network_transfers(params, "pre_bob", f_b=np.array([0.0, 1.0]))
        assert cut.stage == "pre_bob"
        return m0, m1 - m0

    def test_covariance_resolves_up_to_the_limit_and_no_further(self, roots):
        m0, dm = roots
        limit = _resolvable_limit(m0, dm)
        assert limit == pytest.approx(1.1343, abs=1e-4)
        _covariance(m0 + limit * (1 - 1e-12) * dm)
        with pytest.raises(ArithmeticError, match="^float64 cannot resolve this network: "):
            _covariance(m0 + limit * (1 + 1e-12) * dm)

    def test_a_cut_that_does_not_read_the_coefficient_has_no_limit(self, roots):
        m0, dm = roots
        assert _resolvable_limit(m0, np.zeros_like(dm)) == math.inf

    def test_a_root_past_the_bound_is_refused_as_covariance_refuses_it(self, roots):
        m0, dm = roots
        with pytest.raises(ArithmeticError, match="^float64 cannot resolve this network: "
                                                  "eps x largest variance = "):
            _resolvable_limit(m0 + 2.0 * dm, dm)


class TestStageFields:
    @pytest.mark.parametrize("stage", STAGES)
    def test_exactly_the_fields_the_covariance_reads(self, stage):
        # each field moved by 20% changes the stage's covariance if and only if it is listed
        base = ProtocolParams(users="three")
        cov = build_network_state(base, stage).cov
        for field in dataclasses.fields(ProtocolParams):
            if field.name == "users":
                continue
            moved = base.replace(**{field.name: 0.8 * getattr(base, field.name)})
            changed = not np.array_equal(build_network_state(moved, stage).cov, cov)
            assert changed == (field.name in _STAGES[stage].fields), field.name


class TestAnalyticPreBob:
    def test_matches_pipeline_at_defaults(self):
        p = two_user_params(1.0)
        pipeline = build_network_state(p, "pre_bob").cov
        np.testing.assert_allclose(pipeline, analytic_cov_pre_bob(p), atol=1e-10)

    def test_bob_mode_variance(self):
        p = two_user_params(1.0, v_s=0.50, v_a=3.55).replace(f_b=1.239)
        cov = analytic_cov_pre_bob(p)
        assert cov[2, 2] == pytest.approx(1 + 1.5 * 1.239**2, abs=1e-12)
        assert cov[2, 2] == pytest.approx(3.303, abs=1e-3)
        # measured value for comparison: 3.282, within experimental spread
        assert abs(cov[2, 2] - 3.282) < 0.05

    def test_alice_bob_correlation(self):
        p = two_user_params(1.0, v_s=0.50, v_a=3.55).replace(f_b=1.239)
        cov = analytic_cov_pre_bob(p)
        expected = math.sqrt(2) * 1.5 * 1.239 / 2
        assert cov[0, 2] == pytest.approx(expected, abs=1e-12)
        assert abs(cov[0, 2] - 1.296) < 0.05

    def test_dead_relay_channel(self):
        p = two_user_params(1.0).replace(eta_ab=0.0)
        cov = analytic_cov_pre_bob(p)
        assert cov[4, 4] == pytest.approx(1.0)
        assert np.abs(cov[:4, 4:]).max() == 0.0
        np.testing.assert_allclose(build_network_state(p, "pre_bob").cov, cov, atol=1e-10)

    def test_grid_equivalence(self):
        for eta_sb in np.linspace(0.1, 1.0, 5):
            for eta_ab in np.linspace(0.1, 1.0, 5):
                p = ProtocolParams(users="two", eta_sb=float(eta_sb),
                                   eta_ab=float(eta_ab), f_b=1.1)
                np.testing.assert_allclose(
                    build_network_state(p, "pre_bob").cov,
                    analytic_cov_pre_bob(p), atol=1e-10)

    def test_regime_rejected(self):
        with pytest.raises(ValueError, match="t1"):
            analytic_cov_pre_bob(ProtocolParams(t1=0.4))
        with pytest.raises(ValueError, match="eta_sa"):
            analytic_cov_pre_bob(ProtocolParams(eta_sa=0.9))


class TestAnalyticTwoUser:
    def test_bob_variance_value(self):
        p = two_user_params(1.0, v_s=0.50, v_a=3.55).replace(f_b=1.239)
        cov = analytic_cov_final_two_user(p)
        assert cov[2, 2] == pytest.approx(1.725, abs=1e-3)

    def test_no_xp_correlations(self):
        for eta in (0.3, 0.8, 1.0):
            cov = analytic_cov_final_two_user(two_user_params(eta))
            assert cov[0, 3] == 0.0 and cov[1, 2] == 0.0

    def test_grid_equivalence(self):
        for eta in np.linspace(0.2, 1.0, 5):
            for t2 in np.linspace(0.1, 0.9, 5):
                p = ProtocolParams(users="two", eta_sb=float(eta), eta_ab=float(eta),
                                   t2=float(t2), f_b=0.9)
                np.testing.assert_allclose(
                    build_network_state(p, "final_two_user").cov,
                    analytic_cov_final_two_user(p), atol=1e-10)


class TestAnalyticThreeUser:
    def test_grid_equivalence_with_optimal_coefficients(self):
        for eta in (1.0, 0.8, 0.6, 0.4, 0.2):
            p = three_user_params(eta)
            np.testing.assert_allclose(
                build_network_state(p, "final_three_user").cov,
                analytic_cov_three_user(p), atol=1e-10)

    def test_grid_equivalence_generic_coefficients(self, rng):
        for _ in range(25):
            p = ProtocolParams(
                users="three", f_b=float(rng.uniform(0, 2)), f_d=float(rng.uniform(0, 2)),
                eta_sb=0.7, eta_sd=0.7, eta_ab=0.7, eta_bd=0.7,
            )
            np.testing.assert_allclose(
                build_network_state(p, "final_three_user").cov,
                analytic_cov_three_user(p), atol=1e-10)

    def test_bd_correlation_sign_structure(self):
        cov = analytic_cov_three_user(three_user_params(0.8))
        assert cov[2, 4] == pytest.approx(cov[3, 5], abs=1e-12)  # Cov(xB,xD) = Cov(pB,pD)
        assert cov[0, 2] == pytest.approx(-cov[1, 3], abs=1e-12)  # Cov(xA,xB) = -Cov(pA,pB)

    def test_total_loss(self):
        cov = analytic_cov_three_user(three_user_params(0.0))
        np.testing.assert_allclose(cov[2:, 2:], np.eye(4), atol=1e-12)
        np.testing.assert_allclose(cov[:2, 2:], 0, atol=1e-12)

    def test_unequal_etas_rejected(self):
        p = three_user_params(0.8).replace(eta_bd=0.5)
        with pytest.raises(ValueError, match="equal"):
            analytic_cov_three_user(p)

    def test_unbalanced_splitter_rejected(self):
        with pytest.raises(ValueError, match="t3"):
            analytic_cov_three_user(three_user_params(0.8).replace(t3=0.6))


class TestSeparableBoundary:
    def test_default_boundary_value(self):
        p = two_user_params(1.0, v_s=0.50, v_a=3.55)
        assert separable_boundary_vsep(p) == pytest.approx(0.808, abs=0.005)

    def test_matches_optimal_substitution_form(self):
        # substituting the optimal relay coefficient must reproduce the
        # boundary expressed through the beam-splitter and channel parameters
        for eta_ab in (1.0, 0.8, 0.5):
            for t2 in (0.5, 0.3):
                p = ProtocolParams(users="two", eta_ab=eta_ab, t2=t2)
                p = p.replace(f_b=optimal_fb(p.t2, p.eta_sb, p.eta_ab, p.v_a, p.v_s))
                s = p.v_a + p.v_s
                expected = (t2 * (1 - p.v_s) * s**2
                            / (t2 * s**2 - eta_ab * (1 - t2) * (1 - p.v_s) * p.v_a**2))
                assert separable_boundary_vsep(p) == pytest.approx(expected, rel=1e-12)

    def test_no_squeezing_no_boundary(self):
        # no quadrature below vacuum: C1 is separable even with no displacement noise
        for v_s in (1.0, 1.2):
            p = ProtocolParams(users="two", v_s=v_s, v_a=1.0, v_dis=0.0)
            assert separable_boundary_vsep(p) == 0.0
            assert ppt_min(build_network_state(p, "pre_bob"), ["C1"]) >= 1.0 - SEPARABILITY_TOL

    def test_decreases_with_relay_loss(self):
        values = []
        for eta_ab in np.linspace(1.0, 0.3, 8):
            p = ProtocolParams(users="two", eta_ab=float(eta_ab))
            p = p.replace(f_b=optimal_fb(p.t2, p.eta_sb, p.eta_ab, p.v_a, p.v_s))
            values.append(separable_boundary_vsep(p))
        assert all(np.diff(values) < 0)

    def test_no_relay_no_boundary(self):
        # with no relay, or no light from the server, C1 is vacuum: separable at any
        # displacement variance
        for dark in ({"eta_ab": 0.0}, {"eta_sa": 0.0}):
            p = ProtocolParams(v_s=0.5, v_a=2.0, v_dis=0.0, **dark)
            assert separable_boundary_vsep(p) == 0.0
            value = ppt_min(build_network_state(p, "pre_bob"), ["C1"])
            assert value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("change, match", [({"t1": 0.3}, "t1 = 1/2"),
                                               ({"f_a": 0.5, "f_b": 1.2}, "f_a = f_c = 1"),
                                               ({"f_c": 0.7}, "f_a = f_c = 1")])
    def test_refused_outside_its_regime(self, change, match):
        # the closed form misplaces the crossing here: 0.665 against 0.583 at t1 = 0.3,
        # and 0.778 against 2.73 at f_a = 0.5, where C1 is entangled at the default v_dis
        with pytest.raises(ValueError, match=match):
            separable_boundary_vsep(ProtocolParams(**change))

    def test_squeezing_the_noise_misses_is_never_separable(self):
        # v_a < 1 squeezes A0's x and C0's p, which carry no noise weight
        p = ProtocolParams(v_s=1.2, v_a=0.9, eta_sa=0.3, eta_ab=0.2)
        assert separable_boundary_vsep(p) == math.inf
        for v_dis in (0.0, 1.5, 1e4):
            assert ppt_min(build_network_state(p.replace(v_dis=v_dis), "pre_bob"), ["C1"]) < 1.0

    def test_unattainable_boundary(self):
        p = ProtocolParams(users="two", f_b=3.0, v_s=0.5)
        assert separable_boundary_vsep(p) == math.inf

    def test_empirical_ppt_crossing(self):
        p = two_user_params(1.0)
        vsep = separable_boundary_vsep(p)
        below = build_network_state(p.replace(v_dis=vsep - 1e-3), "pre_bob")
        above = build_network_state(p.replace(v_dis=vsep + 1e-3), "pre_bob")
        assert ppt_min(below, ["C1"]) < 1.0
        assert ppt_min(above, ["C1"]) >= 1.0

    def test_separable_above_entangled_below(self):
        p = two_user_params(0.9)
        vsep = separable_boundary_vsep(p)
        for v_dis in np.linspace(vsep * 1.05, vsep * 2.0, 5):
            state = build_network_state(p.replace(v_dis=float(v_dis)), "pre_bob")
            assert ppt_min(state, ["C1"]) >= 1.0 - 1e-9
        for v_dis in np.linspace(vsep * 0.5, vsep * 0.95, 5):
            state = build_network_state(p.replace(v_dis=float(v_dis)), "pre_bob")
            assert ppt_min(state, ["C1"]) < 1.0

    def test_sender_always_inseparable(self):
        for v_dis in (0.05, 0.5, 1.5):
            state = build_network_state(two_user_params(1.0).replace(v_dis=v_dis), "pre_bob")
            assert ppt_min(state, ["A"]) < 1.0


class TestClosedFormSteeringTwoUser:
    def test_ideal_channel_value(self):
        p = two_user_params(1.0, v_s=0.50, v_a=3.55)
        assert closed_form_steering_two_user(p) == pytest.approx(np.log(8.10 / 7.60), abs=1e-12)

    def test_dead_channel(self):
        assert closed_form_steering_two_user(two_user_params(1.0).replace(eta_ab=0.0)) == 0.0

    def test_monotone_in_efficiency(self):
        values = [closed_form_steering_two_user(two_user_params(float(e)))
                  for e in np.linspace(0.01, 1.0, 50)]
        assert all(np.diff(values) >= 0)

    def test_matches_pipeline_steering(self):
        for eta in np.arange(0.1, 1.01, 0.1):
            p = two_user_params(float(eta))
            g_pipe = steerability(build_network_state(p, "final_two_user"),
                                  Partition((0,), (1,)))
            assert abs(g_pipe - closed_form_steering_two_user(p)) < 1e-9

    @pytest.mark.parametrize("field, value", [("eta_sa", 0.5), ("t1", 0.3), ("f_a", 0.5)])
    def test_outside_the_regime_raises(self, field, value):
        # the formula reads 0.0499 here; the pipeline gives 0.0, 0.0143 and 0.0
        p = ProtocolParams(users="two", eta_sb=0.8, eta_ab=0.8)
        p = p.replace(f_b=optimal_fb(p.t2, p.eta_sb, p.eta_ab, p.v_a, p.v_s), **{field: value})
        with pytest.raises(ValueError, match="closed form requires"):
            closed_form_steering_two_user(p)

    def test_two_way_outside_the_one_way_regime(self):
        # strong pure squeezing and an unbalanced t2 steer both ways at the optimal f_b
        v_s, v_a = db_to_variance(14.1, "squeezed"), db_to_variance(14.1, "antisqueezed")
        p = ProtocolParams(v_s=v_s, v_a=v_a, t2=0.11, eta_sb=0.56, eta_ab=1.0)
        p = p.replace(f_b=optimal_fb(p.t2, p.eta_sb, p.eta_ab, v_a, v_s))
        assert p.f_b == pytest.approx(5.367, abs=1e-3)
        state = build_network_state(p, "final_two_user")
        assert steerability(state, Partition((0,), (1,))) == pytest.approx(1.720, abs=1e-3)
        assert steerability(state, Partition((1,), (0,))) == pytest.approx(1.612, abs=1e-3)

    @pytest.mark.parametrize("eta, value", [
        (1.0, "0x1.012025d51b4dbp-4"), (0.8, "0x1.98c93171770d5p-5"),
        (0.5, "0x1.fa2e95fc77542p-6"), (0.1, "0x1.8ff8e11460a59p-8")])
    def test_in_regime_values_pinned(self, eta, value):
        assert closed_form_steering_two_user(two_user_params(eta)).hex() == value


class TestClosedFormSteeringThreeUser:
    def test_individual_david_value(self):
        p = three_user_params(1.0, v_s=0.50, v_a=3.55)
        _, _, g_ad = closed_form_steering_three_user(p)
        assert g_ad == pytest.approx(np.log(16.2 / 15.7), abs=1e-12)

    def test_all_zero_at_total_loss(self):
        assert closed_form_steering_three_user(three_user_params(0.0)) == (0.0, 0.0, 0.0)

    def test_collective_dominates(self):
        for eta in np.linspace(0.05, 1.0, 20):
            g_abd, g_ab, g_ad = closed_form_steering_three_user(three_user_params(float(eta)))
            assert g_abd >= max(g_ab, g_ad)

    def test_matches_pipeline_steering(self):
        for eta in np.arange(0.1, 1.01, 0.1):
            p = three_user_params(float(eta))
            state = build_network_state(p, "final_three_user")
            g_abd = steerability(state, Partition((0,), (1, 2)))
            g_ab = steerability(state, Partition((0,), (1,)))
            g_ad = steerability(state, Partition((0,), (2,)))
            closed = closed_form_steering_three_user(p)
            assert abs(g_abd - closed[0]) < 1e-9
            assert abs(g_ab - closed[1]) < 1e-9
            assert abs(g_ad - closed[2]) < 1e-9


class TestServerOutputs:
    def test_fully_separable_every_split(self):
        for eta in (1.0, 0.6):
            state = build_network_state(three_user_params(eta), "server")
            for mode in range(4):
                assert ppt_min(state, [mode]) >= 1.0 - 1e-9

    def test_labels(self):
        assert build_network_state(ProtocolParams(), "server").labels == ("A0", "B0", "C0", "D0")

    @pytest.mark.parametrize("stage", STAGES)
    def test_every_pass_starts_at_the_server(self, stage):
        # the server's output is the network's first cut: every stage's pass hands it out
        # first, and its M M^T is the server covariance built apart from protocol
        params = three_user_params(0.8)
        cut, m = next(_network_transfers(params, stage))
        assert cut.stage == STAGES[0] == "server"
        np.testing.assert_allclose(_covariance(m), server_cov(params), rtol=1e-12, atol=0)


class TestQssScenario:
    def test_parameters(self):
        p = qss_params(0.9)
        assert p.f_b == 0.92 and p.f_d == 1.70
        assert p.v_s == pytest.approx(0.1, rel=1e-12)
        assert p.v_a == pytest.approx(10 ** 1.1, rel=1e-12)

    def test_collective_steering_threshold(self):
        result = scan(SCENARIO_TABLE["qss"], [0.79, 0.81])
        assert result.rows[0]["G_BD_to_A"] == 0.0
        assert result.rows[1]["G_BD_to_A"] > 0.0

    def test_individual_steering_always_zero(self):
        result = scan(SCENARIO_TABLE["qss"], np.linspace(0.1, 1.0, 10))
        assert np.all(result.column("G_B_to_A") == 0.0)
        assert np.all(result.column("G_D_to_A") == 0.0)

    def test_ancilla_ppt_at_unit_efficiency(self):
        row = scan(SCENARIO_TABLE["qss"], [1.0]).rows[0]
        assert row["ppt_C1_vs_AB0"] == pytest.approx(1.02, abs=0.02)
        assert row["ppt_C2_vs_ABD0"] == pytest.approx(1.01, abs=0.02)
        assert row["ppt_C1_vs_AB0"] > 1.0 and row["ppt_C2_vs_ABD0"] > 1.0

    def test_column_access(self):
        result = scan(SCENARIO_TABLE["qss"], [0.9, 1.0])
        assert result.column("eta").tolist() == [0.9, 1.0]
        with pytest.raises(KeyError):
            result.column("nope")
