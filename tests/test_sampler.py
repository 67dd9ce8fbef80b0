import hashlib

import numpy as np
import pytest

from cvsteer import (
    ProtocolParams,
    ShotBatch,
    build_network_state,
    compare_covariance,
    estimate_covariance,
    shot_blocks,
    simulate_shots,
)
from cvsteer.protocol import STAGES
from cvsteer.sampler import _BLOCK
from conftest import three_user_params, two_user_params

#: Unbalanced splitters, lossy links everywhere and f_a, f_c != 1, so that
#: every netlist step and every server weight matters.
OFF_BALANCE = ProtocolParams(users="three", t1=0.37, t2=0.61, t3=0.1, eta_sa=0.9, eta_sb=0.8,
                             eta_sd=0.7, eta_ab=0.85, eta_bd=0.75, f_a=0.8, f_c=0.9)


class TestSimulateShots:
    def test_deterministic_given_seed(self):
        params = two_user_params(0.8)
        a = simulate_shots(params, "final_two_user", 5000, seed=42)
        b = simulate_shots(params, "final_two_user", 5000, seed=42)
        np.testing.assert_array_equal(a.quads, b.quads)

    def test_different_seeds_differ(self):
        params = two_user_params(0.8)
        a = simulate_shots(params, "final_two_user", 1000, seed=1)
        b = simulate_shots(params, "final_two_user", 1000, seed=2)
        assert not np.array_equal(a.quads, b.quads)

    def test_prefix_stability_across_lengths(self):
        # block-wise substreams: a longer run extends, not reshuffles, a short one
        params = two_user_params(0.8)
        short = simulate_shots(params, "final_two_user", 1000, seed=7)
        long = simulate_shots(params, "final_two_user", 4000, seed=7)
        np.testing.assert_array_equal(long.quads[:1000], short.quads)

    def test_shapes_and_labels(self):
        params = three_user_params(0.9)
        batch = simulate_shots(params, "pre_david", 100, seed=3)
        assert batch.labels == ("A", "B", "C2", "D0")
        assert batch.quads.shape == (100, 8)

    def test_strong_noise_anticorrelates_relay(self):
        params = two_user_params(1.0).replace(v_dis=100.0)
        batch = simulate_shots(params, "pre_bob", 20000, seed=5)
        cov = estimate_covariance(batch)
        assert cov[2, 4] < 0  # x_B0 against x_C1

    def test_dead_channels_decorrelate(self):
        params = two_user_params(0.0)
        batch = simulate_shots(params, "final_two_user", 40000, seed=11)
        cov = estimate_covariance(batch)
        corr = cov[0, 2] / np.sqrt(cov[0, 0] * cov[2, 2])
        assert abs(corr) < 3.0 / np.sqrt(batch.n_shots)

    def test_too_few_shots(self):
        with pytest.raises(ValueError):
            simulate_shots(two_user_params(1.0), "final_two_user", 1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_bad_seed_rejected_on_the_call(self, seed):
        # the iterator is never advanced: the error comes from the call itself
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*128\), got {seed}"):
            shot_blocks(two_user_params(1.0), "final_two_user", 100, seed=seed)

    @pytest.mark.parametrize("stage, digest", [
        ("pre_bob", "c605c132d1d216df53fcf75023b6c393a8788d2fbbab46bd959ab57dbc3a1f77"),
        ("final_two_user", "0dc426308c688cf3f89a0e7a342167219ea1628ff3d1d2ccbc879081cc8d3f4c"),
        ("pre_david", "70ab7ee0e079900b0b63ec6d00788031b1f4def51728e6b7327be9819c169188"),
        ("final_three_user", "00b5e0238359e0e2c30cbebba13588802befe68b88f5fa9e5944e671a8604fcf"),
    ])
    def test_seeded_stream_is_pinned(self, stage, digest):
        # the draw order (sources, noise, one vacuum pair per loss site, block
        # layout) is the reproducibility contract; 70001 is not a block multiple
        quads = simulate_shots(OFF_BALANCE, stage, 70001, seed=99).quads
        assert quads.shape[0] == 70001
        assert hashlib.sha256(np.ascontiguousarray(quads).tobytes()).hexdigest() == digest

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            simulate_shots(two_user_params(1.0), "final_three_user", 100, seed=0)
        with pytest.raises(ValueError):
            simulate_shots(two_user_params(1.0), "nope", 100, seed=0)


class TestEstimateCovariance:
    def test_constant_batch_gives_zero(self):
        batch = ShotBatch(("A",), np.ones((50, 2)), seed=0)
        np.testing.assert_allclose(estimate_covariance(batch), 0.0, atol=1e-15)

    def test_vacuum_network(self):
        params = ProtocolParams(users="two", v_s=1.0, v_a=1.0, v_dis=0.0)
        batch = simulate_shots(params, "final_two_user", 50000, seed=9)
        est = estimate_covariance(batch)
        assert np.abs(est - np.eye(4)).max() < 5.0 / np.sqrt(batch.n_shots)

    def test_recovers_analytic_covariance(self):
        params = three_user_params(0.7)
        batch = simulate_shots(params, "final_three_user", 200000, seed=13)
        est = estimate_covariance(batch)
        analytic = build_network_state(params, "final_three_user").cov
        assert np.abs(est - analytic).max() < 0.03

    @pytest.mark.parametrize("params, stage, n_shots", [
        (two_user_params(0.8), "final_two_user", 5),  # 2n + 1
        (OFF_BALANCE, "final_three_user", _BLOCK + 4321),  # a full block and a partial one
        (three_user_params(0.9).replace(v_dis=1e6), "pre_david", 3 * _BLOCK),
    ])
    def test_merged_blocks_match_np_cov(self, params, stage, n_shots):
        batch = simulate_shots(params, stage, n_shots, seed=17)
        est = estimate_covariance(batch)
        ref = np.cov(batch.quads, rowvar=False, ddof=1)
        assert np.abs(est - ref).max() <= 1e-12 * np.abs(ref).max()
        # the stream and the batch are the same estimator on the same blocks
        labels, blocks = shot_blocks(params, stage, n_shots, seed=17)
        assert labels == batch.labels
        np.testing.assert_array_equal(estimate_covariance(blocks), est)

    def test_large_offset_keeps_digits(self):
        # per-block centring: a mean 1e6 above unit-scale spread costs no digits,
        # where raw sums of X^T X would keep about four of them
        quads = simulate_shots(two_user_params(0.9), "final_two_user", 2 * _BLOCK + 7, 3).quads
        est = estimate_covariance(ShotBatch(("A", "B"), quads + 1e6, seed=3))
        ref = np.cov(quads, rowvar=False, ddof=1)
        assert np.abs(est - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_degenerate_batch_rejected(self):
        batch = ShotBatch(("A",), np.ones((1, 2)), seed=0)
        with pytest.raises(ValueError):
            estimate_covariance(batch)


class TestCompareCovariance:
    def test_self_comparison_clean(self):
        cov = build_network_state(two_user_params(1.0), "final_two_user").cov
        report = compare_covariance(cov, cov, 1000)
        assert report.max_abs_deviation == 0.0
        assert report.flagged == ()

    def test_corrupted_element_flagged(self):
        params = two_user_params(1.0)
        batch = simulate_shots(params, "final_two_user", 100000, seed=21)
        est = estimate_covariance(batch)
        corrupted = build_network_state(params, "final_two_user").cov.copy()
        corrupted[0, 2] += 0.5
        corrupted[2, 0] += 0.5
        report = compare_covariance(est, corrupted, batch.n_shots)
        assert (0, 2) in report.flagged

    def test_statistical_agreement(self):
        params = two_user_params(0.85)
        batch = simulate_shots(params, "final_two_user", 200000, seed=23)
        est = estimate_covariance(batch)
        analytic = build_network_state(params, "final_two_user").cov
        report = compare_covariance(est, analytic, batch.n_shots)
        assert report.flagged == ()
        assert float(report.z_scores.max()) < 5.0

    def test_xp_cross_terms_consistent_with_zero(self):
        params = three_user_params(0.6)
        batch = simulate_shots(params, "final_three_user", 150000, seed=29)
        est = estimate_covariance(batch)
        analytic = build_network_state(params, "final_three_user").cov
        report = compare_covariance(est, analytic, batch.n_shots)
        assert float(np.abs(report.z_scores[0::2, 1::2]).max()) < 5.0

    @pytest.mark.parametrize("stage", STAGES)
    def test_interpreters_agree_off_balance(self, stage):
        # the covariance and shot interpreters of the netlist, on every stage
        batch = simulate_shots(OFF_BALANCE, stage, 100000, seed=37)
        analytic = build_network_state(OFF_BALANCE, stage)
        assert batch.labels == analytic.labels
        report = compare_covariance(estimate_covariance(batch), analytic.cov, batch.n_shots)
        assert report.flagged == ()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_covariance(np.eye(4), np.eye(6), 100)

    def test_small_sample_does_not_crash(self):
        params = two_user_params(1.0)
        batch = simulate_shots(params, "final_two_user", 10, seed=31)
        est = estimate_covariance(batch)
        analytic = build_network_state(params, "final_two_user").cov
        report = compare_covariance(est, analytic, batch.n_shots)
        assert report.max_abs_deviation > 0


def test_million_shot_three_user_run_within_five_sigma():
    params = three_user_params(1.0)
    batch = simulate_shots(params, "final_three_user", 1_000_000, seed=20240817)
    est = estimate_covariance(batch)
    analytic = build_network_state(params, "final_three_user").cov
    report = compare_covariance(est, analytic, batch.n_shots)
    assert report.flagged == ()


def test_convergence_rate_halves_with_quadrupled_shots():
    # averaged over independent seeds the max deviation should scale ~1/sqrt(n)
    params = two_user_params(1.0)
    analytic = build_network_state(params, "final_two_user").cov
    ratios = []
    for seed in (101, 202, 303, 404, 505):
        d_small = np.abs(estimate_covariance(
            simulate_shots(params, "final_two_user", 100_000, seed)) - analytic).max()
        d_large = np.abs(estimate_covariance(
            simulate_shots(params, "final_two_user", 400_000, seed + 1)) - analytic).max()
        ratios.append(d_small / d_large)
    assert 1.6 <= np.mean(ratios) <= 2.6
