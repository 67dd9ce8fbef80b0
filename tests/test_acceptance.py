"""Acceptance suite: every release criterion with its stated tolerance.

Run as ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (each test also prints an ``ACCEPTANCE n: PASS`` line).
"""

import math
import time

import numpy as np

from cvsteer import (
    GaussianState,
    Partition,
    ProtocolParams,
    analytic_cov_final_two_user,
    analytic_cov_pre_bob,
    analytic_cov_three_user,
    build_network_state,
    closed_form_steering_three_user,
    closed_form_steering_two_user,
    compare_covariance,
    estimate_covariance,
    fiber_distance,
    is_physical,
    key_rate,
    numeric_optimize_coefficient,
    optimal_fb,
    optimal_fb_general_loss,
    optimal_fd,
    optimal_fd_general_loss,
    partial_transpose,
    ppt_min,
    ppt_two_mode,
    qss_params,
    separable_boundary_vsep,
    server_output_state,
    simulate_shots,
    steerability,
    symplectic_eigenvalues,
)
from cvsteer.cli import cmd_certify, cmd_table_a1
from cvsteer.core import _beam_splitter_matrix, _omega
from cvsteer.protocol import V_A_DEFAULT, V_S_DEFAULT
from conftest import (
    FOUR_MODE_PPT,
    THREE_MODE_PPT,
    random_physical_cov,
    three_user_params,
    two_user_params,
)

ETA_GRID = np.arange(0.1, 1.01, 0.1)


def _steering_threshold(g_of_eta, lo=0.5, hi=1.0, offset=0.0, iters=40):
    """Bisect the efficiency at which ``g_of_eta`` first exceeds ``offset``."""
    assert g_of_eta(lo) <= offset and g_of_eta(hi) > offset
    for _ in range(iters):
        mid = (lo + hi) / 2
        if g_of_eta(mid) > offset:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_criterion_1_optimal_coefficient_table():
    start = time.perf_counter()
    lines = cmd_table_a1().strip().splitlines()
    elapsed = time.perf_counter() - start
    expected_fd = {"1.0": 1.752, "0.8": 1.567, "0.6": 1.357, "0.4": 1.108, "0.2": 0.784}
    assert len(lines) == 6
    for line in lines[1:]:
        eta, f_b, f_d = line.split()
        assert abs(float(f_b) - 1.239) <= 0.001
        assert abs(float(f_d) - expected_fd[eta]) <= 0.001
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (coefficient table, {elapsed:.3f}s): PASS")


def test_criterion_2_reference_state_certification(three_mode_file, four_mode_file):
    start = time.perf_counter()
    report3 = cmd_certify(three_mode_file)
    report4 = cmd_certify(four_mode_file)
    elapsed = time.perf_counter() - start
    for got, expected in zip(report3.ppt_by_split.values(), THREE_MODE_PPT):
        assert abs(got - expected) <= 0.01
    for got, expected in zip(report4.ppt_by_split.values(), FOUR_MODE_PPT):
        assert abs(got - expected) <= 0.01
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 (reference certification, {elapsed:.3f}s): PASS")


def test_criterion_3_separable_boundary():
    params = two_user_params(1.0)
    vsep = separable_boundary_vsep(params)
    assert abs(vsep - 0.808) <= 0.005

    def crossing(v_dis):
        state = build_network_state(params.replace(v_dis=float(v_dis)), "pre_bob")
        return ppt_min(state, ["C1"]) - 1.0

    assert crossing(vsep - 1e-3) < 0
    assert crossing(vsep + 1e-3) > 0
    print(f"\nACCEPTANCE 3 (separable boundary {vsep:.4f}): PASS")


def test_criterion_4_closed_form_pipeline_equivalence():
    start = time.perf_counter()
    # relay stage: 5 x 5 grid over the two channel efficiencies
    for eta_sb in np.linspace(0.2, 1.0, 5):
        for eta_ab in np.linspace(0.2, 1.0, 5):
            p = ProtocolParams(users="two", eta_sb=float(eta_sb), eta_ab=float(eta_ab),
                               f_b=1.1)
            assert np.abs(build_network_state(p, "pre_bob").cov
                          - analytic_cov_pre_bob(p)).max() <= 1e-10
    # two-user output: efficiencies x Bob's transmittance
    for eta in np.linspace(0.2, 1.0, 5):
        for t2 in np.linspace(0.1, 0.9, 5):
            p = ProtocolParams(users="two", eta_sb=float(eta), eta_ab=float(eta),
                               t2=float(t2), f_b=1.3)
            assert np.abs(build_network_state(p, "final_two_user").cov
                          - analytic_cov_final_two_user(p)).max() <= 1e-10
    # three-user output: efficiency grid with per-point optimal coefficients
    for eta in np.linspace(0.04, 1.0, 25):
        p = three_user_params(float(eta))
        assert np.abs(build_network_state(p, "final_three_user").cov
                      - analytic_cov_three_user(p)).max() <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 (closed form == pipeline, {elapsed:.3f}s): PASS")


def test_criterion_5_steering_identities():
    for eta in ETA_GRID:
        p2 = two_user_params(float(eta))
        two = build_network_state(p2, "final_two_user")
        assert abs(steerability(two, Partition((0,), (1,)))
                   - closed_form_steering_two_user(p2)) <= 1e-9
        assert steerability(two, Partition((1,), (0,))) == 0.0

        p3 = three_user_params(float(eta))
        three = build_network_state(p3, "final_three_user")
        g_abd = steerability(three, Partition((0,), (1, 2)))
        g_ab = steerability(three, Partition((0,), (1,)))
        g_ad = steerability(three, Partition((0,), (2,)))
        closed = closed_form_steering_three_user(p3)
        assert abs(g_abd - closed[0]) <= 1e-9
        assert abs(g_ab - closed[1]) <= 1e-9
        assert abs(g_ad - closed[2]) <= 1e-9
        assert steerability(three, Partition((1,), (2,))) == 0.0
        assert g_abd >= max(g_ab, g_ad)
    print("\nACCEPTANCE 5 (steering identities, one-way and hierarchy): PASS")


def test_criterion_6_thresholds_and_fiber_reach():
    def qss_steering(eta, lossy_dealer=False):
        params = qss_params(eta).replace(eta_sa=eta if lossy_dealer else 1.0)
        state = build_network_state(params, "final_three_user")
        return steerability(state, Partition((1, 2), (0,)))

    thr_qss = _steering_threshold(qss_steering)
    assert abs(thr_qss - 0.80) <= 0.01

    thr_key = _steering_threshold(qss_steering, offset=1.0 - math.log(2.0))
    assert abs(thr_key - 0.94) <= 0.01
    assert key_rate(qss_steering(thr_key + 1e-3)) > 0
    assert key_rate(qss_steering(thr_key - 1e-3)) == 0

    def two_user_general(eta):
        f_b = optimal_fb_general_loss(eta, eta, eta, V_A_DEFAULT, V_S_DEFAULT)
        p = ProtocolParams(users="two", eta_sa=eta, eta_sb=eta, eta_ab=eta, f_b=f_b)
        return steerability(build_network_state(p, "final_two_user"), Partition((0,), (1,)))

    thr_e = _steering_threshold(two_user_general)
    assert abs(thr_e - 0.81) <= 0.01

    thr_qss_e = _steering_threshold(lambda e: qss_steering(e, lossy_dealer=True))
    assert abs(thr_qss_e - 0.87) <= 0.01

    # reach quoted at the published two-decimal threshold efficiencies
    reach_steer = fiber_distance(round(thr_qss, 2))
    reach_key = fiber_distance(round(thr_key, 2))
    reach_qss_e = fiber_distance(round(thr_qss_e, 2))
    assert abs(reach_steer - 4.90) <= 0.10
    assert abs(reach_key - 1.34) <= 0.05
    assert abs(reach_qss_e - 3.02) <= 0.10
    print(f"\nACCEPTANCE 6 (thresholds {thr_qss:.3f}/{thr_key:.3f}/{thr_e:.3f}/"
          f"{thr_qss_e:.3f}, reach {reach_steer:.2f}/{reach_key:.2f}/{reach_qss_e:.2f} km): PASS")


def test_criterion_7_optimizer_reproduces_analytic_optima():
    checked = []

    def check(objective, params, which, expected):
        result = numeric_optimize_coefficient(objective, params, which)
        assert abs(result.f_star - expected) <= 1e-3, (objective, which, expected)
        # +/- 1% perturbation must not improve the objective
        base = params.replace(**{which: expected})
        stage = "final_two_user" if objective == "steer_A_to_B" else "final_three_user"
        part = (Partition((0,), (1,)) if objective == "steer_A_to_B"
                else Partition((0,), (1, 2)) if objective == "steer_A_to_BD"
                else Partition((1, 2), (0,)))
        g_at = steerability(build_network_state(base, stage), part)
        for bump in (1.01, 0.99):
            g_near = steerability(
                build_network_state(params.replace(**{which: expected * bump}), stage), part)
            assert g_near <= g_at + 1e-12
        checked.append((objective, which, expected))

    for eta in (1.0, 0.8, 0.6, 0.4, 0.2):
        check("steer_A_to_B", two_user_params(eta), "f_b",
              optimal_fb(0.5, 1.0, 1.0, V_A_DEFAULT, V_S_DEFAULT))
        check("steer_A_to_BD", three_user_params(eta), "f_d",
              optimal_fd(eta, V_A_DEFAULT, V_S_DEFAULT))
    # lossy server-to-Alice link: coefficients under loss on every channel
    for eta in (0.9, 0.95, 1.0):
        fb = optimal_fb_general_loss(eta, eta, eta, V_A_DEFAULT, V_S_DEFAULT)
        fd = optimal_fd_general_loss(eta, V_A_DEFAULT, V_S_DEFAULT)
        p2 = ProtocolParams(users="two", eta_sa=eta, eta_sb=eta, eta_ab=eta, f_b=fb)
        check("steer_A_to_B", p2, "f_b", fb)
        p3 = ProtocolParams(users="three", eta_sa=eta, eta_sb=eta, eta_sd=eta,
                            eta_ab=eta, eta_bd=eta, f_b=fb, f_d=fd)
        check("steer_A_to_BD", p3, "f_d", fd)
        check("steer_A_to_BD", p3, "f_b", fb)
    print(f"\nACCEPTANCE 7 (optimizer independent check, {len(checked)} instances): PASS")


def test_criterion_8_monte_carlo_statistical_twin():
    start = time.perf_counter()
    params = two_user_params(1.0)
    batch = simulate_shots(params, "final_two_user", 1_000_000, seed=12345)
    estimated = estimate_covariance(batch)
    analytic = build_network_state(params, "final_two_user")
    comparison = compare_covariance(estimated, analytic.cov, batch.n_shots)
    assert comparison.max_abs_deviation < 0.02
    assert comparison.flagged == ()

    est_state = GaussianState(batch.labels, estimated)
    assert abs(ppt_min(est_state, ["A"]) - ppt_min(analytic, ["A"])) < 0.02
    part = Partition((0,), (1,))
    assert abs(steerability(est_state, part) - steerability(analytic, part)) < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 (monte carlo twin, max dev "
          f"{comparison.max_abs_deviation:.4f}, {elapsed:.1f}s): PASS")


def test_criterion_9_property_suite(rng):
    # beam-splitter matrices are symplectic across the whole transmittance range
    omega = _omega(2)
    for t in np.linspace(0.0, 1.0, 100):
        s = _beam_splitter_matrix(2, 0, 1, np.sqrt(t), np.sqrt(1.0 - t))
        assert np.abs(s @ omega @ s.T - omega).max() <= 1e-12

    # +/- pairing of the symplectic spectrum (asserted inside the solver)
    for _ in range(50):
        nus = symplectic_eigenvalues(random_physical_cov(rng, 3))
        assert np.all(nus >= 1.0 - 1e-9)

    # two-mode closed form against the general eigensolver route
    for _ in range(1000):
        cov = random_physical_cov(rng, 2, scale=float(rng.uniform(0.2, 1.5)))
        direct = symplectic_eigenvalues(partial_transpose(cov, [0])).min()
        assert abs(ppt_two_mode(cov) - direct) <= 1e-9

    # physicality survives every channel
    state = GaussianState(tuple("abcd"), random_physical_cov(rng, 4))
    from cvsteer import beam_splitter
    from cvsteer.core import _loss_cov

    for _ in range(40):
        i, j = (int(v) for v in rng.choice(4, size=2, replace=False))
        state = beam_splitter(state, i, j, float(rng.uniform(0, 1)))
        state = GaussianState(state.labels, _loss_cov(state.cov, i, float(rng.uniform(0, 1))))
        assert is_physical(state)

    # server outputs are fully separable before any beam splitter
    for eta in (1.0, 0.5):
        outputs = server_output_state(three_user_params(eta))
        for mode in range(4):
            assert ppt_min(outputs, [mode]) >= 1.0 - 1e-9
    print("\nACCEPTANCE 9 (property suite): PASS")
