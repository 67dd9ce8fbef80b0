import numpy as np
import pytest

from cvsteer import (
    GaussianState,
    Partition,
    beam_splitter,
    full_report,
    partial_transpose,
    ppt_min,
    ppt_two_mode,
    select_modes,
    squeezed_mode,
    steerability,
    symplectic_eigenvalues,
    tensor,
    vacuum,
)
from cvsteer.cli import EXIT_NUMERIC, main
from cvsteer.protocol import build_network_state
from conftest import (
    FOUR_MODE_LABELS,
    FOUR_MODE_PPT,
    FOUR_MODE_REFERENCE,
    THREE_MODE_LABELS,
    THREE_MODE_PPT,
    THREE_MODE_REFERENCE,
    random_physical_cov,
    three_user_params,
    two_user_params,
    unpaired_spectrum,
)


def _sym(m):
    return (m + m.T) / 2


def _real_eigvalsh_only(eigvalsh):
    """A stand-in for ``np.linalg.eigvalsh`` that refuses the Hermitian route's complex
    input and passes a real matrix, such as the steering guard's block, to ``eigvalsh``."""
    def real_only(matrix):
        if np.iscomplexobj(matrix):
            raise AssertionError("x/p-block matrix reached the Hermitian route")
        return eigvalsh(matrix)

    return real_only


class TestSymplecticEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(6)), np.ones(3))

    def test_single_mode_sqrt_det(self):
        nus = symplectic_eigenvalues(np.diag([0.5, 3.55]))
        np.testing.assert_allclose(nus, [np.sqrt(0.5 * 3.55)], atol=1e-12)
        assert nus[0] == pytest.approx(1.332, abs=1e-3)

    def test_invariant_under_beam_splitter(self):
        state = tensor(
            squeezed_mode(0.5, 3.55, "x_squeezed", label="a"),
            squeezed_mode(0.7, 1.9, "p_squeezed", label="b"),
        )
        before = symplectic_eigenvalues(state.cov)
        after = symplectic_eigenvalues(beam_splitter(state, 0, 1, 0.37).cov)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_sorted_ascending(self, rng):
        for _ in range(20):
            nus = symplectic_eigenvalues(random_physical_cov(rng, 3))
            assert np.all(np.diff(nus) >= 0)
            assert np.all(nus >= 1.0 - 1e-9)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ArithmeticError, match="positive definite"):
            symplectic_eigenvalues(np.diag([1.0, -1.0]))
        with pytest.raises(ArithmeticError, match="positive definite"):
            symplectic_eigenvalues(np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_not_symmetric_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            symplectic_eigenvalues(bad)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            symplectic_eigenvalues(np.eye(3))

    def test_unpaired_spectrum_rejected(self, monkeypatch):
        # the Hermitian route's spectrum is +/- nu; one without a - partner is refused.  An
        # x-p entry keeps the matrix off the sector route, which runs no eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", unpaired_spectrum)
        cov = np.eye(4)
        cov[0, 3] = cov[3, 0] = 0.5
        with pytest.raises(ArithmeticError, match=r"failed \+/- pairing check"):
            symplectic_eigenvalues(cov)

    def test_network_states_take_the_sector_route(self, monkeypatch):
        # no x-p entry: the spectrum, PPT values and steering run no Hermitian eigensolver
        state = build_network_state(three_user_params(0.7), "final_three_user")
        want = full_report(state)
        monkeypatch.setattr(np.linalg, "eigvalsh", _real_eigvalsh_only(np.linalg.eigvalsh))
        assert full_report(state) == want
        assert symplectic_eigenvalues(state.cov).shape == (3,)

    @pytest.mark.parametrize("indefinite", ["x", "p"])
    def test_sector_not_positive_definite(self, monkeypatch, indefinite):
        # mode 0 alone, modes 1 and 2 with one positive-definite sector and one not: the
        # sector route's one Cholesky of both sectors refuses the spectrum, the PPT value
        # and the steered party's Schur complement, as the Hermitian route did
        monkeypatch.setattr(np.linalg, "eigvalsh", _real_eigvalsh_only(np.linalg.eigvalsh))
        good, bad = np.array([[2.0, 1.5], [1.5, 2.0]]), np.array([[2.0, 2.5], [2.5, 2.0]])
        cov = np.eye(6)
        cov[2::2, 2::2], cov[3::2, 3::2] = (bad, good) if indefinite == "x" else (good, bad)
        state = GaussianState(("a", "b", "c"), cov)
        for certify in (lambda: symplectic_eigenvalues(cov), lambda: ppt_min(state, ["a"]),
                        lambda: steerability(state, Partition((0,), (1, 2)))):
            with pytest.raises(ArithmeticError, match="matrix is not positive definite"):
                certify()


class TestPartialTranspose:
    def test_involution(self, rng):
        cov = random_physical_cov(rng, 3)
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(cov, [1]), [1]), cov
        )

    def test_product_state_spectrum_unchanged(self):
        state = tensor(
            squeezed_mode(0.5, 3.55, "x_squeezed", label="a"),
            squeezed_mode(0.7, 1.9, "p_squeezed", label="b"),
        )
        before = symplectic_eigenvalues(state.cov)
        after = symplectic_eigenvalues(partial_transpose(state.cov, [0]))
        np.testing.assert_allclose(np.sort(after), np.sort(before), atol=1e-10)

    def test_reference_ancilla_value(self):
        pt = partial_transpose(THREE_MODE_REFERENCE, [2])
        assert symplectic_eigenvalues(pt).min() == pytest.approx(1.264, abs=0.01)

    def test_invalid_mode(self):
        with pytest.raises(IndexError):
            partial_transpose(np.eye(4), [3])
        with pytest.raises(TypeError):
            partial_transpose(np.eye(4), [0.5])


class TestPptMin:
    @pytest.mark.parametrize("mode,expected", list(zip(THREE_MODE_LABELS, THREE_MODE_PPT)))
    def test_three_mode_reference(self, mode, expected):
        state = GaussianState(THREE_MODE_LABELS, THREE_MODE_REFERENCE)
        assert ppt_min(state, [mode]) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("mode,expected", list(zip(FOUR_MODE_LABELS, FOUR_MODE_PPT)))
    def test_four_mode_reference(self, mode, expected):
        state = GaussianState(FOUR_MODE_LABELS, _sym(FOUR_MODE_REFERENCE))
        assert ppt_min(state, [mode]) == pytest.approx(expected, abs=0.01)

    def test_product_states_separable(self, rng):
        for _ in range(10):
            state = GaussianState(
                ("a", "b"),
                np.block([
                    [random_physical_cov(rng, 1), np.zeros((2, 2))],
                    [np.zeros((2, 2)), random_physical_cov(rng, 1)],
                ]),
            )
            assert ppt_min(state, ["a"]) >= 1.0 - 1e-9

    def test_float_party_rejected(self):
        # 0.5 resolved to mode 0, so the call certified a split nobody named
        state = GaussianState(THREE_MODE_LABELS, THREE_MODE_REFERENCE)
        with pytest.raises(TypeError):
            ppt_min(state, [0.5])

    def test_bare_string_party_rejected(self):
        # "AB" read as ("A", "B") certified the split A,B|AB on a state with a mode "AB"
        state = GaussianState(("A", "B", "AB"), THREE_MODE_REFERENCE)
        with pytest.raises(TypeError, match="not the string 'AB'"):
            ppt_min(state, "AB")
        assert ppt_min(state, ["AB"]) == ppt_min(state, [2])

    def test_not_positive_definite_raises_arithmetic_error(self):
        state = GaussianState(("a", "b"), np.diag([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ArithmeticError, match="positive definite"):
            ppt_min(state, ["a"])
        with pytest.raises(ArithmeticError, match="positive definite"):
            steerability(state, Partition((1,), (0,)))

    def test_party_validation(self):
        # the party is checked as Partition(party, rest)
        state = vacuum(2, ["A", "B"])
        with pytest.raises(ValueError, match="both parties must be nonempty"):
            ppt_min(state, [])
        with pytest.raises(ValueError, match="both parties must be nonempty"):
            ppt_min(state, [0, 1])
        with pytest.raises(ValueError, match="a mode appears twice in the split"):
            ppt_min(state, ["A", "A"])


class TestPptTwoMode:
    def test_vacuum(self):
        assert ppt_two_mode(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_two_user_output(self):
        params = two_user_params(v_s=0.50, v_a=3.55).replace(f_b=1.239)
        state = build_network_state(params, "final_two_user")
        value = ppt_two_mode(state.cov)
        assert value == pytest.approx(0.682, abs=1e-3)
        assert abs(value - ppt_min(state, ["A"])) < 1e-9

    def test_matches_eigensolver_on_random_states(self, rng):
        worst = 0.0
        for _ in range(1000):
            cov = random_physical_cov(rng, 2, scale=rng.uniform(0.2, 1.5))
            worst = max(worst, abs(ppt_two_mode(cov) - symplectic_eigenvalues(
                partial_transpose(cov, [0])).min()))
        assert worst < 1e-9

    def test_strong_squeezing_does_not_cancel(self):
        # two-mode squeezed vacuum at r = 5: the PPT value is exp(-2r), which
        # the unrationalized closed form cancelled to 0.0
        r = 5.0
        a, c = np.cosh(2 * r), np.sinh(2 * r)
        cov = np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]])
        value = ppt_two_mode(cov)
        # The stored entries carry rounding of eps * |cov| ~ 2e-12, which moves
        # the exact answer for this matrix (a - c, computed exactly) from
        # exp(-10) by 1.4e-8 relative; no algorithm can undo that.
        assert abs(value - (a - c)) <= np.finfo(float).eps * np.abs(cov).max()
        assert value == pytest.approx(np.exp(-2 * r), rel=1e-7)
        route = symplectic_eigenvalues(partial_transpose(cov, [0])).min()
        assert abs(value - route) <= np.finfo(float).eps * np.abs(cov).max()

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            ppt_two_mode(np.eye(6))

    def test_not_positive_definite_rejected(self):
        # the closed form read this matrix as separable (1.0)
        with pytest.raises(ArithmeticError, match="not positive definite"):
            ppt_two_mode(np.diag([1.0, 1, -1, -1]))

    def test_non_finite_rejected(self):
        cov = np.eye(4)
        cov[1, 2] = cov[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ppt_two_mode(cov)


class TestSteerability:
    def test_product_state_no_steering(self, rng):
        cov = np.block([
            [random_physical_cov(rng, 1), np.zeros((2, 2))],
            [np.zeros((2, 2)), random_physical_cov(rng, 1)],
        ])
        state = GaussianState(("a", "b"), cov)
        part = Partition((0,), (1,))
        assert steerability(state, part) == 0.0
        assert steerability(state, part.swapped()) == 0.0

    def test_two_user_forward_value(self):
        state = build_network_state(two_user_params(v_s=0.50, v_a=3.55), "final_two_user")
        g = steerability(state, Partition((0,), (1,)))
        assert abs(g - np.log(8.10 / 7.60)) < 1e-9

    def test_two_user_one_way(self):
        state = build_network_state(two_user_params(v_s=0.50, v_a=3.55), "final_two_user")
        assert steerability(state, Partition((1,), (0,))) == 0.0
        # the reverse-direction conditional state sits well above vacuum noise
        n = state.cov[2:, 2:]
        m = state.cov[:2, :2]
        gam = state.cov[2:, :2]
        schur = m - gam.T @ np.linalg.solve(n, gam)
        assert schur[0, 0] == pytest.approx(1.51, abs=0.01)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((), (1,))
        with pytest.raises(ValueError):
            Partition((0,), (0,))
        with pytest.raises(ValueError, match="twice"):  # within one party too
            Partition((0, 0), (1,))

    def test_partition_takes_only_nonnegative_integer_indices(self):
        # a float was truncated, ((0.7,), (1.2, 2.9)) -> ((0,), (1, 2)), and a negative
        # index certified a mode from the end under the first one's label
        with pytest.raises(TypeError):
            Partition((0.7,), (1.2, 2.9))
        with pytest.raises(ValueError, match="nonnegative"):
            Partition((-3,), (1, 2))
        part = Partition((np.int64(0),), np.array([1, 2]))
        assert part == Partition((0,), (1, 2))
        assert all(type(m) is int for m in part.steering + part.steered)

    def test_partition_from_labels_rejects_a_bare_string(self):
        state = GaussianState(("A", "B", "AB"), THREE_MODE_REFERENCE)
        with pytest.raises(TypeError, match="not the string 'AB'"):
            Partition.from_labels(state, "AB", ["A"])
        assert Partition.from_labels(state, ["AB"], ["A"]) == Partition((2,), (0,))

    def test_singular_steering_block_rejected(self):
        cov = np.diag([1e7, 1e-7, 1.0, 1.0])
        state = GaussianState(("a", "b"), cov)
        with pytest.raises(ArithmeticError, match="singular"):
            steerability(state, Partition((0,), (1,)))

    def test_indefinite_steering_block_rejected(self, tmp_path, capsys):
        for cov in (
                # eigenvalues -1.0066 (twice) and 0.5066 (twice): the guard took |lam| and
                # certified G = 0.673, where ppt_min refuses the matrix through the Cholesky
                [[-1, 0, .1, 0], [0, -1, 0, -.1], [.1, 0, .5, 0], [0, -.1, 0, .5]],
                # both steering blocks positive definite, neither Schur complement: the
                # factor of the whole split fails in either direction
                [[2, 0, 1.9, 0], [0, 2, 0, -1.9], [1.9, 0, 1, 0], [0, -1.9, 0, 1]]):
            state = GaussianState(("A", "B"), cov)
            for part in (Partition((0,), (1,)), Partition((1,), (0,))):
                with pytest.raises(ArithmeticError, match="not positive definite"):
                    steerability(state, part)
            path = tmp_path / "indefinite.txt"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in cov))
            assert main(["certify", str(path)]) == EXIT_NUMERIC
            assert "not positive definite" in capsys.readouterr().err

    def test_huge_steering_block_does_not_overflow_the_guard(self):
        # COND_LIMIT * 1e300 overflowed to inf with a RuntimeWarning; the blocks are well
        # conditioned, so both directions certify, and no steering is found
        state = GaussianState(("A", "B"), np.diag([1e300, 1e300, 1.0, 1.0]))
        report = full_report(state)
        assert report.steer_by_direction == {"A->B": 0.0, "B->A": 0.0}
        assert report.verdicts == {"A|B": "separable", "B|A": "separable"}

    def test_local_symplectic_invariance(self, rng):
        state = build_network_state(three_user_params(0.85), "final_three_user")
        part = Partition((0,), (1, 2))
        before = steerability(state, part)
        for t in rng.uniform(0.05, 0.95, size=5):
            mixed = beam_splitter(state, 1, 2, float(t))
            assert abs(steerability(mixed, part) - before) < 1e-9

    def test_steering_implies_ppt_entanglement(self):
        for eta in np.linspace(0.1, 1.0, 10):
            state = build_network_state(two_user_params(float(eta)), "final_two_user")
            if steerability(state, Partition((0,), (1,))) > 0:
                assert ppt_min(state, ["A"]) < 1.0

    def test_nonnegative_certificates_on_random_states(self, rng):
        # any physical state: positive PPT spectrum, nonnegative steering
        for _ in range(50):
            n = int(rng.integers(2, 5))
            state = GaussianState(tuple(f"m{k}" for k in range(n)),
                                  random_physical_cov(rng, n))
            cut = int(rng.integers(1, n))
            part = Partition(tuple(range(cut)), tuple(range(cut, n)))
            assert ppt_min(state, part.steering) > 0
            assert steerability(state, part) >= 0
            assert steerability(state, part.swapped()) >= 0

    def test_monogamy_over_loss_grid(self):
        # two independent parties can never steer the same target: whenever
        # Alice steers David, Bob cannot
        for eta in np.linspace(0.02, 1.0, 50):
            state = build_network_state(three_user_params(float(eta)), "final_three_user")
            if steerability(state, Partition((0,), (2,))) > 1e-6:
                assert steerability(state, Partition((1,), (2,))) == 0.0


class TestFullReport:
    def test_three_user_hierarchy(self):
        state = build_network_state(three_user_params(1.0), "final_three_user")
        report = full_report(state, [
            Partition((0,), (1, 2)),
            Partition((0,), (1,)),
            Partition((0,), (2,)),
            Partition((1,), (2,)),
        ])
        g = report.steer_by_direction
        assert g["A->B,D"] > g["A->B"] > 0
        assert g["A->B,D"] > g["A->D"] > 0
        assert g["B->D"] == 0.0

    def test_vacuum_all_separable(self):
        report = full_report(vacuum(3, ["a", "b", "c"]), [
            Partition((0,), (1, 2)),
            Partition((1,), (0, 2)),
            Partition((2,), (0, 1)),
        ])
        assert all(v == "separable" for v in report.verdicts.values())
        assert all(v == 0.0 for v in report.steer_by_direction.values())
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in report.ppt_by_split.values())

    def test_split_keys_use_labels(self):
        state = build_network_state(two_user_params(1.0), "final_two_user")
        report = full_report(state, [Partition((0,), (1,))])
        assert set(report.ppt_by_split) == {"A|B"}
        assert set(report.steer_by_direction) == {"A->B", "B->A"}

    def test_splits_from_a_one_shot_iterator(self):
        # the splits were read once for their modes and again for their groups, so a
        # generator gave an empty report
        state = build_network_state(three_user_params(0.8), "final_three_user")
        splits = [Partition((i,), tuple(m for m in range(3) if m != i)) for i in range(3)]
        report = full_report(state, (split for split in splits))
        assert report == full_report(state, splits) == full_report(state)
        assert len(report.ppt_by_split) == 3

    def test_split_given_twice_is_rejected(self):
        # the second used to overwrite the first under the same key
        state = build_network_state(two_user_params(1.0), "final_two_user")
        with pytest.raises(ValueError, match="split 'A|B' is given twice"):
            full_report(state, [Partition((0,), (1,)), Partition((1,), (0,)),
                                Partition((0,), (1,))])

    @pytest.mark.parametrize("split", [Partition((0,), (5,)), Partition((5, 0), (1,))])
    def test_out_of_range_mode_is_named(self, split):
        # numpy's fancy index used to fail first, naming a quadrature row instead
        state = build_network_state(two_user_params(1.0), "final_two_user")
        with pytest.raises(IndexError, match="mode 5 out of range for 2 modes"):
            full_report(state, [Partition((0,), (1,)), split])

    @pytest.mark.parametrize("call", [
        lambda state: state.mode_index(5),
        lambda state: steerability(state, Partition((0,), (5,))),
        lambda state: partial_transpose(state.cov, [5]),
        lambda state: select_modes(state, [0, 5]),
    ], ids=["mode_index", "steerability", "partial_transpose", "select_modes"])
    def test_every_entry_names_a_mode_out_of_range_alike(self, call):
        # full_report's case is test_out_of_range_mode_is_named
        state = build_network_state(two_user_params(1.0), "final_two_user")
        with pytest.raises(IndexError, match="^mode 5 out of range for 2 modes$"):
            call(state)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_vs_rest_report_is_one_stack(self, monkeypatch, rng, n):
        # every one-vs-rest split has party sizes (1, n - 1): one stack, three kernel calls
        from cvsteer import criteria

        spectra, factors, steer = [], [], []
        spectrum, factor_spectrum = criteria._symplectic_eigenvalues, criteria._factor_spectrum
        steer_cov = criteria._steer_cov

        def count_spectrum(cov):
            spectra.append(cov.shape)
            return spectrum(cov)

        def count_factor_spectrum(chol):
            factors.append(chol.shape)
            return factor_spectrum(chol)

        def count_steer(cov, partition):
            steer.append((cov.shape, partition))
            return steer_cov(cov, partition)

        monkeypatch.setattr(criteria, "_symplectic_eigenvalues", count_spectrum)
        monkeypatch.setattr(criteria, "_factor_spectrum", count_factor_spectrum)
        monkeypatch.setattr(criteria, "_steer_cov", count_steer)
        state = GaussianState(tuple(f"m{i}" for i in range(n)), random_physical_cov(rng, n))
        explicit = full_report(state, [Partition((i,), tuple(m for m in range(n) if m != i))
                                       for i in range(n)])
        local = Partition((0,), tuple(range(1, n)))
        assert steer == [((n, 2 * n, 2 * n), local), ((n, 2 * n, 2 * n), local.swapped())]
        # the PPT stack, then the factor of the conditional state of each _steer_cov call
        assert spectra == [(n, 2 * n, 2 * n)]
        assert factors == [(n, 2 * n - 2, 2 * n - 2), (n, 2, 2)]
        # the default splits are the same one-vs-rest list, in mode order
        assert full_report(state) == explicit
        assert list(explicit.ppt_by_split)[0] == "m0|" + ",".join(f"m{i}" for i in range(1, n))
