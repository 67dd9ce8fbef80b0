import hashlib
import inspect
import io
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from cvsteer import (
    GaussianState,
    ProtocolParams,
    ShotBatch,
    build_network_state,
    compare_covariance,
    estimate_covariance,
    qss_params,
    sampler,
    simulate_shots,
)
from cvsteer import core, protocol
from cvsteer.protocol import NETLIST, STAGES, Loss, Splitter
from cvsteer.sampler import _BLOCK
from conftest import SERVER_SOURCES, server_cov, three_user_params, two_user_params

#: Unbalanced splitters, lossy links everywhere and f_a, f_c != 1, so that
#: every netlist step and every server weight matters.
OFF_BALANCE = ProtocolParams(users="three", t1=0.37, t2=0.61, t3=0.1, eta_sa=0.9, eta_sb=0.8,
                             eta_sd=0.7, eta_ab=0.85, eta_bd=0.75, f_a=0.8, f_c=0.9)


def _drawn(params: ProtocolParams, stage: str) -> list[int]:
    """The size of each normal draw of a 100-shot ``simulate_shots`` run, in order."""
    drawn, propagate = [], sampler._propagate_block

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *, out):
            drawn.append(out.size)
            return self.rng.standard_normal(out=out)

    def counted(*args):
        return propagate(*(Counting(a) if isinstance(a, np.random.Generator) else a
                           for a in args))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "_propagate_block", counted)
        simulate_shots(params, stage, 100, seed=1)
    return drawn


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
        # blocks are drawn as quadrature rows; the records are still read-only C-ordered
        # rows of shots, not the F-ordered transpose of the blocks
        assert batch.quads.flags.c_contiguous
        assert not batch.quads.flags.writeable

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
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*128\), got {seed}"):
            simulate_shots(two_user_params(1.0), "final_two_user", 100, seed=seed)

    def test_seed_and_shot_count_must_be_integers(self):
        # the seed is the entropy of a SeedSequence and must be an integer, so 1.5 is
        # refused rather than read as some other seed; a float shot count passed the call
        # and failed only at the first block
        with pytest.raises(TypeError):
            simulate_shots(two_user_params(1.0), "final_two_user", 100, seed=1.5)
        with pytest.raises(TypeError):
            simulate_shots(two_user_params(1.0), "final_two_user", 2.5, seed=0)
        batch = simulate_shots(two_user_params(1.0), "final_two_user", 100, seed=np.uint64(1))
        reference = simulate_shots(two_user_params(1.0), "final_two_user", 100, seed=1)
        np.testing.assert_array_equal(batch.quads, reference.quads)

    @pytest.mark.parametrize("stage, digest", {
        "server": "01f3add0dc17f978ed9f549a993b14f9b07aaafab8e4f7d43b502889fb23c8ef",
        "pre_bob": "a72e6a4c9908750fc6fbed88ee20e5361418b484bc2984e8c28f72c6f45f5345",
        "final_two_user": "f3b82408c8889a54f41f7baaa75b4275ad1c474ffd263a651f1b21a2b7284ac0",
        "pre_david": "fcf4315ede9fe09af7c858c90d5f7eadea1bd53b611e58391d9361d1a1cb7bb1",
        "final_three_user": "ba9e15f442ddbb2ade7a051bfaf6dd975678ced0dfedabefdd99d32e2bb208c0",
    }.items(), ids=STAGES)
    def test_seeded_stream_is_pinned(self, stage, digest):
        # the draw order (2n normals per shot, row after row, one SFC64 substream per block,
        # block layout) and the root they run through are the reproducibility contract;
        # 70001 is not a block multiple
        quads = simulate_shots(OFF_BALANCE, stage, 70001, seed=99).quads
        assert quads.shape[0] == 70001
        assert hashlib.sha256(np.ascontiguousarray(quads).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("params, stage", [
        (OFF_BALANCE, "pre_bob"), (OFF_BALANCE, "final_two_user"),
        (OFF_BALANCE, "pre_david"), (OFF_BALANCE, "final_three_user"),
        (two_user_params(0.8), "final_two_user"), (three_user_params(0.8), "final_three_user"),
        (two_user_params(1.0), "final_two_user"),
    ], ids=["pre_bob-10", "final_two_user-10", "pre_david-14", "final_three_user-14",
            "two_user-eta_sa_1-10", "three_user-eta_sa_1-14", "lossless-8"])
    def test_only_what_reaches_the_cut_is_drawn(self, params, stage):
        # one draw of 2n rows per block, one per kept quadrature, whatever the losses: the
        # shots are L w through the root of the twin's own P P^T.  The ids are kept as they
        # were named when a block drew one row per input it propagated, so the suite's ids
        # stay fixed; their numbers are those row counts, not today's
        n_rows = 2 * len(protocol._STAGES[stage].cut.labels)
        assert _drawn(params, stage) == [n_rows * _BLOCK]

    @pytest.mark.parametrize("eta_sd", [0.0, 0.5])
    def test_the_twin_refuses_what_the_pipeline_refuses(self, eta_sd):
        # pre_bob does not read David's slot, but its noise term sqrt(v_dis) f_d overflows:
        # the twin starts at the pipeline's server cut, so it refuses the network with the
        # pipeline's message, and at eta_sd = 0 without computing inf * 0, which warns
        params = ProtocolParams(users="two", f_d=1.7e308, eta_sd=eta_sd, eta_sb=0.8, eta_ab=0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for refused in (lambda: build_network_state(params, "pre_bob"),
                            lambda: simulate_shots(params, "pre_bob", 100, seed=0),
                            lambda: sampler._sampled_covariance(params, "pre_bob", 100, seed=0)):
                with pytest.raises(ArithmeticError, match=r"sqrt\(v_dis\) x f_d overflows"):
                    refused()

    @pytest.mark.parametrize("link", ["eta_sa", "eta_sb", "eta_sd", "eta_ab", "eta_bd"])
    def test_a_link_at_one_draws_what_it_draws_below_one(self, link):
        # a loss moves the root, not the draws: at 1 and at 1 - 1e-9 the same normals run
        # through roots 1e-9 apart, so the shots agree within 1e-7.  Each estimate still
        # matches its own analytic matrix
        n_shots = 200_000
        drawn, shots = [], []
        for eta in (1.0, 1.0 - 1e-9):
            params = three_user_params(0.8).replace(**{link: eta})
            drawn.append(_drawn(params, "final_three_user"))
            shots.append(simulate_shots(params, "final_three_user", 1000, seed=41).quads)
            _, est = sampler._sampled_covariance(params, "final_three_user", n_shots, seed=41)
            analytic = build_network_state(params, "final_three_user").cov
            assert compare_covariance(est, analytic, n_shots).flagged == ()
        assert drawn[0] == drawn[1] == [6 * _BLOCK]
        assert not np.array_equal(shots[0], shots[1])
        np.testing.assert_allclose(shots[1], shots[0], rtol=0, atol=1e-7)

    @pytest.mark.parametrize("stage", STAGES)
    def test_rows_not_drawn_are_not_read(self, monkeypatch, stage):
        # a step on a row that was never drawn would carry the buffer's old contents into
        # the shots, or raise a RuntimeWarning computing on them
        reference = simulate_shots(OFF_BALANCE, stage, 1000, seed=5).quads
        propagate = sampler._propagate_block

        def poisoned(*args):
            for a in args:
                if isinstance(a, np.ndarray):
                    a.fill(np.nan)
            return propagate(*args)

        monkeypatch.setattr(sampler, "_propagate_block", poisoned)
        quads = simulate_shots(OFF_BALANCE, stage, 1000, seed=5).quads
        assert np.isfinite(quads).all()
        np.testing.assert_array_equal(quads, reference)

    def test_blocks_are_distinct_substreams(self):
        # a block seeded like its neighbour would repeat it, which prefix stability misses
        quads = simulate_shots(OFF_BALANCE, "pre_david", 2 * _BLOCK, seed=3).quads
        first, second = quads[:_BLOCK], quads[_BLOCK:]
        for column in range(quads.shape[1]):
            corr = np.corrcoef(first[:, column], second[:, column])[0, 1]
            assert abs(corr) < 5 / np.sqrt(_BLOCK), column

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
    ], ids=["2n_plus_1", "block_and_partial", "three_blocks"])  # the counts follow _BLOCK
    def test_merged_blocks_match_np_cov(self, params, stage, n_shots):
        batch = simulate_shots(params, stage, n_shots, seed=17)
        est = estimate_covariance(batch)
        ref = np.cov(batch.quads, rowvar=False, ddof=1)
        assert np.abs(est - ref).max() <= 1e-12 * np.abs(ref).max()
        # the batch and montecarlo's pool route are the same estimator on the same blocks
        labels, pooled = sampler._sampled_covariance(params, stage, n_shots, seed=17)
        assert labels == batch.labels
        np.testing.assert_array_equal(pooled, est)

    def test_large_offset_keeps_digits(self):
        # per-block centring: a mean 1e6 above unit-scale spread costs no digits,
        # where raw sums of R R^T would keep about four of them
        quads = simulate_shots(two_user_params(0.9), "final_two_user", 2 * _BLOCK + 7, 3).quads
        est = estimate_covariance(ShotBatch(("A", "B"), quads + 1e6, seed=3))
        ref = np.cov(quads, rowvar=False, ddof=1)
        assert np.abs(est - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_degenerate_batch_rejected(self):
        batch = ShotBatch(("A",), np.ones((1, 2)), seed=0)
        with pytest.raises(ValueError):
            estimate_covariance(batch)


class TestShotBatch:
    """A batch is the one form in which shot records enter, and it checks them."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_rejected(self, bad):
        # a NaN record gave a NaN covariance
        quads = np.ones((10, 4))
        quads[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ShotBatch(("A", "B"), quads, seed=0)

    @pytest.mark.parametrize("labels, shape", [
        (("A", "B"), (10, 2)),  # gave a 2 x 2 covariance for two modes
        (("A",), (10, 3)),
        ((), (10, 0)),
        (("A",), (10,)),  # 1-D records gave a 1 x 1 covariance
        (("A",), (10, 2, 1)),
    ])
    def test_shape_must_match_labels(self, labels, shape):
        with pytest.raises(ValueError, match="2 columns per label"):
            ShotBatch(labels, np.ones(shape), seed=0)

    def test_string_labels_rejected(self):
        # "AB" was kept as the two labels "A" and "B", as GaussianState no longer does
        with pytest.raises(TypeError, match="not the string 'AB'"):
            ShotBatch("AB", np.ones((5, 4)), 0)

    @pytest.mark.parametrize("labels, match", [
        (("A", "A"), "duplicate mode labels"),
        (("A", ""), "labels may not be empty or hold"),
        (("A", "B C"), "labels may not be empty or hold"),
        (("A", "B,C"), "labels may not be empty or hold"),
        (("A", "B|C"), "labels may not be empty or hold"),
        (("A", "B->C"), "labels may not be empty or hold"),
    ], ids=["duplicate", "empty", "space", "comma", "bar", "arrow"])
    def test_labels_follow_the_state_rule(self, labels, match):
        # a batch's labels become a GaussianState's, so they obey its rule when they enter
        with pytest.raises(ValueError, match=match):
            ShotBatch(labels, np.ones((5, 4)), 0)
        with pytest.raises(ValueError, match=match):
            GaussianState(labels, np.eye(4))

    def test_labels_are_stored_as_a_tuple(self):
        batch = ShotBatch(["A", "B"], np.ones((5, 4)), 0)
        assert batch.labels == ("A", "B")

class TestCompareCovariance:
    def test_self_comparison_clean(self):
        cov = build_network_state(two_user_params(1.0), "final_two_user").cov
        report = compare_covariance(cov, cov, 1000)
        assert report.max_abs_deviation == 0.0
        assert report.flagged == ()

    def test_lossy_link_is_not_taken_for_a_lossless_one(self):
        # at eta_sa = 0.6 the shots must not match the covariance of a lossless link
        params = two_user_params(0.8).replace(eta_sa=0.6)
        _, est = sampler._sampled_covariance(params, "final_two_user", 200_000, seed=43)
        lossless = build_network_state(params.replace(eta_sa=1.0), "final_two_user").cov
        assert compare_covariance(est, lossless, 200_000).flagged != ()
        lossy = build_network_state(params, "final_two_user").cov
        assert compare_covariance(est, lossy, 200_000).flagged == ()

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

    @pytest.mark.parametrize("estimated, analytic, error, message", [
        # numpy's broadcast error, its 1- or 2-d error and a divide-by-zero warning used to
        # surface instead
        (np.eye(3)[0], np.eye(6), ValueError, r"square 2n x 2n, got \(3,\)"),
        (np.eye(4)[None], np.eye(4)[None], ValueError, r"2-D covariances of one shape"),
        (np.eye(4), np.diag([1.0, 1.0, 0.0, 1.0]), ArithmeticError, "not positive definite"),
        (np.eye(4), np.eye(4) + np.triu(np.ones((4, 4)), 1), ValueError, "asymmetric"),
    ], ids=["1-D", "3-D", "zero-analytic-variance", "asymmetric"])
    def test_malformed_matrices_rejected(self, estimated, analytic, error, message):
        with pytest.raises(error, match=message):
            compare_covariance(estimated, analytic, 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrices_rejected(self, bad):
        # a NaN estimate used to flag nothing, which reads as full agreement
        cov = build_network_state(two_user_params(1.0), "final_two_user").cov
        corrupted = cov.copy()
        corrupted[3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            compare_covariance(corrupted, cov, 100)
        with pytest.raises(ValueError, match="non-finite"):
            compare_covariance(cov, corrupted, 100)
        with pytest.raises(ValueError, match="non-finite"):
            compare_covariance(np.full_like(cov, bad), cov, 100)

    @pytest.mark.parametrize("n_shots", [0, 1, np.nan])
    def test_too_few_shots_rejected(self, n_shots):
        cov = np.eye(4)
        with pytest.raises(ValueError, match="need at least 2 shots"):
            compare_covariance(cov, cov, n_shots)

    @pytest.mark.parametrize("make", [
        lambda: compare_covariance(np.eye(4), np.eye(4), 2.5),
        lambda: compare_covariance(np.eye(4), np.eye(4), float("inf")),
        lambda: ShotBatch(("A",), np.zeros((3, 2)), seed="x"),
    ], ids=["shots-2.5", "shots-inf", "seed-str"])
    def test_shot_counts_and_seeds_are_integers(self, make):
        # 2.5 stored n_shots=2 but scaled every standard error by 2.5, inf divided by inf,
        # and a string seed was kept
        with pytest.raises(TypeError):
            make()

    def test_flags_in_row_major_order(self):
        analytic = np.eye(6)
        estimated = analytic.copy()
        for i, j in ((4, 1), (0, 5), (2, 2), (0, 3)):
            estimated[i, j] = estimated[j, i] = analytic[i, j] + 1.0
        report = compare_covariance(estimated, analytic, 10_000)
        assert report.flagged == ((0, 3), (0, 5), (1, 4), (2, 2))
        assert all(type(k) is int for pair in report.flagged for k in pair)

    def test_detection_floor_and_false_flags(self):
        # the vacuum at 10^4 shots: SE is sqrt(2) / 100 on the diagonal and 1 / 100 off it
        report = compare_covariance(np.eye(6), np.eye(6), 10_000)
        low, high = report.detection_floor
        assert low == pytest.approx(0.05, rel=1e-12)
        assert high == pytest.approx(0.05 * np.sqrt(2.0), rel=1e-12)
        # 21 compared elements, each flagged by noise with probability 5.7e-7
        assert report.expected_false_flags == pytest.approx(1.204e-5, rel=1e-3)
        assert compare_covariance(np.eye(2), np.eye(2), 10_000).expected_false_flags == (
            pytest.approx(3 / 21 * report.expected_false_flags, rel=1e-12))

    def test_small_sample_does_not_crash(self):
        params = two_user_params(1.0)
        batch = simulate_shots(params, "final_two_user", 10, seed=31)
        est = estimate_covariance(batch)
        analytic = build_network_state(params, "final_two_user").cov
        report = compare_covariance(est, analytic, batch.n_shots)
        assert report.max_abs_deviation > 0


#: Every link lossy enough that dropping one quadrature's vacuum anywhere moves some element
#: by 15 standard errors or more at 200k shots; splitters off balance, f_a, f_c != 1.
LOSSY = OFF_BALANCE.replace(eta_sa=0.6, eta_sb=0.5, eta_sd=0.4, eta_ab=0.55, eta_bd=0.45)

#: The netlist after its first cut, the server's output, which ``_reference_cov`` builds itself.
AFTER_SERVER = NETLIST[1:]


def _reference_cov(params: ProtocolParams, stage: str, swap: int | None = None,
                   drop: tuple[int, int] | None = None, flip: int | None = None,
                   scale: float = 1.0) -> np.ndarray:
    """The covariance at the cut of ``stage``, from the netlist interpreted on covariances
    by one plain 8 x 8 matrix per step, written apart from ``protocol`` and ``core``, with
    one defect at most.  ``swap`` is the ``AFTER_SERVER`` index of a splitter whose amplitudes
    trade places, ``drop`` a loss's index and the quadrature (0 for x, 1 for p) that gets
    no vacuum, ``flip`` the server quadrature whose shared-noise weight changes sign, and
    ``scale`` multiplies the covariance handed back."""
    cov = server_cov(params, flip)
    for j, step in enumerate(AFTER_SERVER):
        s, vacuum = np.eye(8), np.zeros(8)
        if isinstance(step, Loss):
            eta = getattr(params, step.eta)
            quads = [2 * step.slot, 2 * step.slot + 1]
            s[quads, quads] = np.sqrt(eta)
            vacuum[[k for q, k in enumerate(quads) if (j, q) != drop]] = 1.0 - eta
        elif isinstance(step, Splitter):
            t = getattr(params, step.t)
            c, r = np.sqrt(t), np.sqrt(1.0 - t)
            if step.complement != (j == swap):
                c, r = r, c
            for a, b in ((2 * step.i, 2 * step.j), (2 * step.i + 1, 2 * step.j + 1)):
                s[a, a], s[a, b], s[b, a], s[b, b] = c, r, r, -c
        elif step.stage == stage:
            keep = 2 * len(step.labels)
            return scale * cov[:keep, :keep]
        cov = s @ cov @ s.T + np.diag(vacuum)


class TestDetection:
    """The real sampler at 200k shots against a covariance interpreter with one defect: each
    defect of a netlist step is flagged, and a scale error below the detection floor is
    not."""

    N_SHOTS = 200_000
    STAGE = "final_three_user"  # every source and every step reaches it

    @pytest.fixture(scope="class")
    def estimate(self):
        return sampler._sampled_covariance(LOSSY, self.STAGE, self.N_SHOTS, seed=59)[1]

    def flagged(self, estimate, **defect):
        analytic = _reference_cov(LOSSY, self.STAGE, **defect)
        return compare_covariance(estimate, analytic, self.N_SHOTS).flagged

    def test_the_double_without_a_defect_agrees(self, estimate):
        # the double reads the netlist as protocol's interpreter does, to rounding
        assert self.flagged(estimate) == ()
        np.testing.assert_allclose(_reference_cov(LOSSY, self.STAGE),
                                   build_network_state(LOSSY, self.STAGE).cov, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("step", [j for j, st in enumerate(AFTER_SERVER)
                                      if isinstance(st, Splitter)])
    def test_swapped_splitter_amplitudes_are_flagged(self, estimate, step):
        assert self.flagged(estimate, swap=step) != ()

    @pytest.mark.parametrize("step", [j for j, st in enumerate(AFTER_SERVER)
                                      if isinstance(st, Loss)])
    @pytest.mark.parametrize("quadrature", [0, 1], ids=["x", "p"])
    def test_dropped_loss_vacuum_is_flagged(self, estimate, step, quadrature):
        assert self.flagged(estimate, drop=(step, quadrature)) != ()

    @pytest.mark.parametrize("quadrature", [k for k, (_, w) in enumerate(SERVER_SOURCES) if w])
    def test_flipped_weight_sign_is_flagged(self, estimate, quadrature):
        assert self.flagged(estimate, flip=quadrature) != ()

    def test_scale_error_below_the_floor_is_not_flagged(self, estimate):
        # 0.1% of every element is a third of a standard error at most: the z-test cannot
        # see it, so "flagged: none" bounds an error, it does not rule one out
        assert self.flagged(estimate, scale=1.001) == ()


#: Fixed layouts for the exact interpreter check, at every stage their users reach.
LAYOUT_STAGES = {
    f"{name}-{stage}": (params, stage)
    for name, params in {"off_balance": OFF_BALANCE, "lossy": LOSSY,
                         "two_user": two_user_params(0.8), "three_user": three_user_params(0.8),
                         "lossless": three_user_params(1.0), "qss": qss_params(0.7)}.items()
    for stage in STAGES if params.users == "three" or protocol._STAGES[stage].cut.users == "two"}


@pytest.mark.parametrize("params, stage", LAYOUT_STAGES.values(), ids=LAYOUT_STAGES)
def test_sampler_transfer_gives_the_network_covariance(params, stage):
    # the sampler's own arithmetic on unit inputs is its transfer matrix P: P P^T is the
    # network's covariance to rounding, with no sampling noise to hide a defect behind
    transfer = sampler._transfer(params, stage)
    want = build_network_state(params, stage).cov
    assert np.abs(transfer @ transfer.T - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("params, stage", LAYOUT_STAGES.values(), ids=LAYOUT_STAGES)
def test_the_twin_shares_only_the_server_cut(monkeypatch, params, stage):
    # the twin takes the pipeline's server cut and propagates it itself: with every later
    # cut of the pass and core's splitter refused, its P P^T is still the network's covariance
    want = build_network_state(params, stage).cov
    network_transfers = protocol._network_transfers

    def server_cut_only(*args, **kwargs):
        transfers = network_transfers(*args, **kwargs)
        yield next(transfers)
        raise AssertionError("the twin read a cut after the server's")

    def refused(*args):
        raise AssertionError("the twin called core._beam_splitter_matrix")

    monkeypatch.setattr(protocol, "_network_transfers", server_cut_only)
    monkeypatch.setattr(core, "_beam_splitter_matrix", refused)
    transfer = sampler._transfer(params, stage)
    assert np.abs(transfer @ transfer.T - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("params, stage", LAYOUT_STAGES.values(), ids=LAYOUT_STAGES)
def test_root_factors_each_sector(params, stage):
    # the shots are L w, so L L^T must be the twin's own P P^T, sector by sector
    transfer = sampler._transfer(params, stage)
    for parity, root in enumerate(sampler._root(transfer)):
        assert [len(row) for row in root] == list(range(1, len(root) + 1))  # lower triangular
        assert all(row[-1] > 0 for row in root)
        lower = np.array([row + [0.0] * (len(root) - len(row)) for row in root])
        sector = transfer[parity::2] @ transfer[parity::2].T
        assert np.abs(lower @ lower.T - sector).max() <= 1e-13 * np.abs(sector).max()


@pytest.mark.parametrize("transfer, message", [
    (np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 1.0]]), "x pivot 1 is 0"),
    (np.array([[1.0, 0.0], [0.0, 0.0]]), "p pivot 0 is 0"),
    (np.array([[1e200, 1.0], [0.0, 1.0]]), "x sector overflows"),
], ids=["singular-x", "singular-p", "overflow"])
def test_root_refuses_what_it_cannot_factor(transfer, message):
    with pytest.raises(ArithmeticError, match=message):
        sampler._root(transfer)


def test_no_linear_algebra_library_decides_a_shot(monkeypatch):
    # the root is Python floats and the shots elementwise numpy, so the records do not
    # depend on which BLAS or LAPACK numpy was built with
    n_shots = 3 * _BLOCK + 11
    reference = simulate_shots(OFF_BALANCE, "final_three_user", n_shots, seed=8).quads

    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.linalg.{name} reached")

    monkeypatch.setattr(np, "linalg", Refused())
    quads = simulate_shots(OFF_BALANCE, "final_three_user", n_shots, seed=8).quads
    assert quads.tobytes() == reference.tobytes()


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


@pytest.fixture
def cpus(monkeypatch):
    """Pin the set of CPUs the process may use to ``k`` of them."""
    def pin(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return pin


class TestBlockPool:
    """Blocks are drawn and reduced on one thread per usable CPU, up to ``_MAX_THREADS``;
    nothing depends on it."""

    def test_pool_size_follows_the_cpu_set(self, cpus, monkeypatch):
        for k in (1, 2, 4):
            cpus(k)
            assert sampler._usable_cpus() == k
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sampler._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sampler._usable_cpus() == 1

    def test_estimates_identical_across_cpu_sets(self, cpus, monkeypatch):
        # four blocks, the last truncated, drawn by pools of 1, 2 and 4 threads
        monkeypatch.setattr(sampler, "_MAX_THREADS", 4)
        n_shots = 3 * _BLOCK + 4321
        results = []
        for k in (1, 2, 4):
            cpus(k)
            batch = simulate_shots(OFF_BALANCE, "final_three_user", n_shots, seed=2**100)
            _, pooled = sampler._sampled_covariance(OFF_BALANCE, "final_three_user", n_shots,
                                                    seed=2**100)
            results.append((batch.quads.tobytes(), estimate_covariance(batch).tobytes(),
                            pooled.tobytes()))
        assert results[0][1] == results[0][2]
        assert results[1] == results[0]
        assert results[2] == results[0]

    @pytest.mark.parametrize("k", [1, 2, 4, 64])
    def test_at_most_pool_size_blocks_in_flight(self, cpus, monkeypatch, k):
        # two blocks per pool thread: a thread starts its next block while the one it
        # handed over waits to be read
        cpus(k)
        pool = min(k, sampler._MAX_THREADS)
        started = []
        propagate = sampler._propagate_block

        def counted(*args):
            started.append(threading.get_ident())
            return propagate(*args)

        def draw():
            return sampler._drawn_blocks(two_user_params(1.0), "final_two_user", 10 * _BLOCK,
                                         3, np.copy)[1]

        monkeypatch.setattr(sampler, "_propagate_block", counted)
        blocks = draw()
        assert started == []  # nothing is drawn before the first next
        next(blocks)
        # the first two blocks per pool thread, then one more as the first result was
        # handed out
        assert len(started) <= 2 * pool + 1
        blocks.close()
        assert len(started) <= 2 * pool + 1  # closing cancels what had not started
        for _ in draw():
            pass
        assert len(set(started[-10:])) <= pool  # however many CPUs the host has

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_memory_is_one_buffer_per_pool_thread(self, cpus, k):
        # each pool thread draws every one of its blocks in the same buffer
        from cvsteer import cli

        cpus(k)
        buffer = sampler._BUFFER_ROWS * _BLOCK * 8
        settings = ("three_user", 0.9, {}, 10 * _BLOCK, 4)
        cli.cmd_montecarlo(*settings)  # first calls fill caches outside the measurement
        tracemalloc.start()
        try:
            cli.cmd_montecarlo(*settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffer <= peak <= min(k, sampler._MAX_THREADS) * buffer + buffer // 4

    def test_buffer_is_below_numpys_huge_page_threshold(self):
        # numpy advises transparent huge pages for arrays of 4 MiB and more; a pool
        # thread's buffer at or above that lands on huge pages in some runs and not in
        # others, which made montecarlo's peak RSS bimodal (CHANGES.md, lines 20
        # and 27)
        assert sampler._BUFFER_ROWS * sampler._BLOCK * 8 < 4 * 2**20

    def test_no_result_aliases_its_threads_buffer(self, cpus, monkeypatch):
        # a pool thread draws its next block in the buffer of the last one while that
        # block's result waits to be read; run every job on the calling thread, in one
        # buffer, before the first result is read, and nothing may change
        cpus(2)
        n_shots = 3 * _BLOCK + 11

        def run():
            dump = io.StringIO()
            _, pooled = sampler._sampled_covariance(OFF_BALANCE, "final_three_user", n_shots,
                                                    seed=5, dump=dump)
            batch = simulate_shots(OFF_BALANCE, "final_three_user", n_shots, seed=5)
            return batch.quads.tobytes(), pooled.tobytes(), dump.getvalue()

        reference = run()
        monkeypatch.setattr(sampler, "_ordered_map",
                            lambda fn, items: iter([fn(item) for item in items]))
        assert run() == reference

    def test_worker_exception_reaches_the_caller_unchanged(self, cpus, monkeypatch):
        cpus(2)
        error = RuntimeError("third block")
        propagate, calls = sampler._propagate_block, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return propagate(*args)

        monkeypatch.setattr(sampler, "_propagate_block", failing)
        with pytest.raises(RuntimeError) as raised:
            sampler._sampled_covariance(two_user_params(1.0), "final_two_user", 8 * _BLOCK, 3)
        assert raised.value is error
        # four blocks go out at the start and one more per result handed out before the
        # failing third, so at most six of the eight are drawn, and the rest never are
        assert len(calls) <= 6

    def test_workers_call_no_public_function(self):
        # a wrapper around a public function (a tracer's, say) keeps one span stack for
        # the calling thread; code on the pool threads must not reach one
        from cvsteer import cli, core, criteria, optimize, protocol

        modules = (cli, core, criteria, optimize, protocol, sampler)
        public = {obj.__code__ for m in modules for name, obj in vars(m).items()
                  if not name.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == m.__name__}
        public.add(core.GaussianState.__post_init__.__code__)
        main, seen = threading.main_thread(), set()

        def profile(frame, event, arg):
            if event == "call" and threading.current_thread() is not main:
                seen.add(frame.f_code)

        threading.setprofile(profile)
        try:
            cli.cmd_montecarlo("three_user", 0.8, {}, 3 * _BLOCK, 7)
            estimate_covariance(simulate_shots(OFF_BALANCE, "pre_david", 2 * _BLOCK, seed=1))
        finally:
            threading.setprofile(None)
        assert sampler._propagate_block.__code__ in seen
        assert sampler._block_moments.__code__ in seen
        assert not seen & public
