import math

import numpy as np
import pytest

from cvsteer import (
    GaussianState,
    ProtocolParams,
    beam_splitter,
    db_to_variance,
    is_physical,
    select_modes,
    squeezed_mode,
    symplectic_eigenvalues,
    tensor,
    vacuum,
)
from cvsteer.core import SYMMETRY_TOL, _checked_cov, _loss_cov, _noise_cov, _omega
from conftest import THREE_MODE_REFERENCE, THREE_MODE_LABELS, random_physical_cov


class TestDbToVariance:
    def test_squeezed_3db(self):
        v = db_to_variance(3.0, "squeezed")
        assert v == pytest.approx(10 ** -0.3, rel=1e-12)
        assert abs(v - 0.501) < 0.01

    def test_vacuum_limit(self):
        assert db_to_variance(0.0, "squeezed") == 1.0
        assert db_to_variance(0.0, "antisqueezed") == 1.0

    def test_antisqueezed_5p5db(self):
        assert abs(db_to_variance(5.5, "antisqueezed") - 3.548) < 0.01

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            db_to_variance(3.0, "sideways")

    @pytest.mark.parametrize("sign", ["squeezed", "antisqueezed"])
    @pytest.mark.parametrize("db", [math.nan, math.inf, -math.inf, -3.0])
    def test_non_finite_or_negative_db_rejected(self, db, sign):
        # NaN and inf used to come back as a NaN or infinite variance, -3 dB as the other sign
        with pytest.raises(ValueError, match=rf"db must be a finite nonnegative magnitude, "
                                             rf"got {db}"):
            db_to_variance(db, sign)


class TestVacuum:
    def test_single_mode(self):
        np.testing.assert_array_equal(vacuum(1).cov, np.eye(2))

    def test_two_modes(self):
        np.testing.assert_array_equal(vacuum(2).cov, np.eye(4))

    def test_is_physical(self):
        assert is_physical(vacuum(3))

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            vacuum(0)


class TestSqueezedMode:
    def test_x_squeezed(self):
        s = squeezed_mode(0.50, 3.55, "x_squeezed")
        np.testing.assert_allclose(np.diag(s.cov), [0.50, 3.55])

    def test_p_squeezed_swaps_quadratures(self):
        s = squeezed_mode(0.50, 3.55, "p_squeezed")
        np.testing.assert_allclose(np.diag(s.cov), [3.55, 0.50])

    def test_coherent_limit(self):
        np.testing.assert_array_equal(squeezed_mode(1.0, 1.0).cov, np.eye(2))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            squeezed_mode(0.0, 3.55)
        with pytest.raises(ValueError):
            squeezed_mode(0.5, -1.0)

    @pytest.mark.parametrize("v_s, v_a", [(math.nan, 3.55), (0.5, math.inf)])
    def test_non_finite_variance_rejected(self, v_s, v_a):
        with pytest.raises(ValueError, match="must be finite and positive"):
            squeezed_mode(v_s, v_a)

    def test_bad_orientation_rejected(self):
        with pytest.raises(ValueError, match="orientation must be 'x_squeezed' or"):
            squeezed_mode(0.5, 3.55, "q_squeezed")

    def test_unphysical_source_rejected(self):
        # the same rule, and message, as ProtocolParams: v_s * v_a = 0.2 breaks the
        # uncertainty relation, while a pure source on the bound and an impure one pass
        with pytest.raises(ValueError, match=r"uncertainty relation: v_s \* v_a = 0.2 < 1"):
            squeezed_mode(0.1, 2.0)
        with pytest.raises(ValueError, match=r"uncertainty relation: v_s \* v_a = 0.2 < 1"):
            ProtocolParams(v_s=0.1, v_a=2.0)
        squeezed_mode(db_to_variance(15.0, "squeezed"), db_to_variance(15.0, "antisqueezed"))
        squeezed_mode(0.1, 20.0)


class TestTensor:
    def test_vacua_compose(self):
        prod = tensor(vacuum(1, ["u"]), vacuum(1, ["v"]))
        np.testing.assert_array_equal(prod.cov, vacuum(2).cov)

    def test_block_structure(self):
        a = squeezed_mode(0.5, 3.55, "x_squeezed", label="s")
        prod = tensor(a, vacuum(1, ["w"]))
        np.testing.assert_allclose(np.diag(prod.cov), [0.5, 3.55, 1, 1])
        assert np.all(prod.cov[:2, 2:] == 0)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tensor(vacuum(1), vacuum(1))

    def test_symplectic_spectrum_is_union(self):
        a = squeezed_mode(0.4, 3.0, "x_squeezed", label="a")
        b = squeezed_mode(0.8, 1.6, "p_squeezed", label="b")
        nus = symplectic_eigenvalues(tensor(a, b).cov)
        expected = sorted([np.sqrt(0.4 * 3.0), np.sqrt(0.8 * 1.6)])
        np.testing.assert_allclose(nus, expected, atol=1e-12)


class TestBeamSplitter:
    def test_full_transmission_keeps_variances(self):
        state = tensor(squeezed_mode(0.5, 3.55, "x_squeezed", label="a"), vacuum(1, ["b"]))
        out = beam_splitter(state, 0, 1, 1.0)
        # port i passes straight through; port j only picks up a sign
        np.testing.assert_allclose(np.abs(out.cov), np.abs(state.cov), atol=1e-12)
        np.testing.assert_allclose(out.cov[:2, :2], state.cov[:2, :2], atol=1e-12)

    def test_balanced_mixing_of_squeezed_pair(self):
        state = tensor(
            squeezed_mode(0.5, 3.55, "p_squeezed", label="a"),
            squeezed_mode(0.5, 3.55, "x_squeezed", label="c"),
        )
        out = beam_splitter(state, 0, 1, 0.5)
        assert out.cov[0, 0] == pytest.approx((3.55 + 0.5) / 2)  # = 2.025
        assert out.cov[1, 1] == pytest.approx(2.025)

    @pytest.mark.parametrize("t", np.linspace(0.0, 1.0, 100))
    def test_symplectic_condition(self, t):
        from cvsteer.core import _beam_splitter_matrix

        s = _beam_splitter_matrix(2, 0, 1, np.sqrt(t), np.sqrt(1.0 - t))
        omega = _omega(2)
        np.testing.assert_allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_involution(self, rng):
        state = GaussianState(("a", "b", "c"), random_physical_cov(rng, 3))
        for t in (0.3, 0.5, 0.9):
            twice = beam_splitter(beam_splitter(state, 0, 2, t), 0, 2, t)
            np.testing.assert_allclose(twice.cov, state.cov, atol=1e-12)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(vacuum(2), 1, 1, 0.5)
        with pytest.raises(ValueError, match="two distinct modes"):
            beam_splitter(vacuum(2), "m2", 1, 0.5)  # one mode by label and by index

    def test_bad_transmittance_rejected(self):
        with pytest.raises(ValueError):
            beam_splitter(vacuum(2), 0, 1, 1.2)
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\], got nan"):
            beam_splitter(vacuum(2), 0, 1, float("nan"))


class TestLossChannel:
    def test_unit_efficiency_is_identity(self, rng):
        cov = random_physical_cov(rng, 2)
        np.testing.assert_array_equal(_loss_cov(cov, 0, 1.0), cov)

    def test_zero_efficiency_gives_vacuum(self, rng):
        out = _loss_cov(random_physical_cov(rng, 2), 0, 0.0)
        np.testing.assert_allclose(out[:2, :2], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(out[:2, 2:], 0, atol=1e-12)

    def test_half_loss_on_squeezed(self):
        out = _loss_cov(squeezed_mode(0.5, 3.55, "p_squeezed").cov, 0, 0.5)
        np.testing.assert_allclose(np.diag(out), [2.275, 0.75])

    def test_bad_eta_rejected(self):
        # the kernel reads efficiencies only from ProtocolParams, which checks them
        with pytest.raises(ValueError):
            ProtocolParams(eta_sb=-0.1)


class TestCorrelatedNoise:
    def test_zero_variance_is_identity(self, rng):
        cov = random_physical_cov(rng, 2)
        np.testing.assert_array_equal(_noise_cov(cov, (1.0, -2.0), (0.5, 1.0), 0.0), cov)

    def test_single_mode_additive(self):
        out = _noise_cov(np.eye(2), (1.0,), (0.0,), 1.5)
        np.testing.assert_allclose(out, np.diag([2.5, 1.0]))

    def test_many_modes(self):
        # more weights than numpy broadcasts in one call: u u^T + w w^T, x and p sectors apart
        n = 40
        out = _noise_cov(np.eye(2 * n), (0.5,) * n, (0.25,) * n, 2.0)
        np.testing.assert_array_equal(out[0::2, 0::2], np.eye(n) + 0.5)
        np.testing.assert_array_equal(out[1::2, 1::2], np.eye(n) + 0.125)
        np.testing.assert_array_equal(out[0::2, 1::2], 0.0)

    def test_negative_variance_rejected(self):
        # the kernel reads the noise variance only from ProtocolParams, which checks it
        with pytest.raises(ValueError):
            ProtocolParams(v_dis=-0.5)

    def test_diagonal_never_decreases(self, rng):
        cov = random_physical_cov(rng, 3)
        for _ in range(20):
            out = _noise_cov(cov, tuple(rng.normal(size=3)), tuple(rng.normal(size=3)),
                             rng.uniform(0, 3))
            assert np.all(np.diag(out) >= np.diag(cov) - 1e-12)

    def test_two_user_pipeline_variance(self):
        # four displaced modes then the full two-user chain at unit efficiency:
        # Alice's variance collects half of everything plus the shared noise
        state = tensor(
            tensor(squeezed_mode(0.5, 3.55, "p_squeezed", label="A"), vacuum(1, ["B"])),
            squeezed_mode(0.5, 3.55, "x_squeezed", label="C"),
        )
        f_b = 1.239
        state = GaussianState(state.labels, _noise_cov(state.cov, (0.0, f_b, 1.0),
                                                       (1.0, -f_b, 0.0), 1.5))
        state = beam_splitter(state, "A", "C", 0.5)
        state = beam_splitter(state, "B", "C", 0.5)
        assert state.cov[0, 0] == pytest.approx(2.775, abs=1e-12)
        assert state.cov[1, 1] == pytest.approx(2.775, abs=1e-12)


class TestSelectModes:
    def test_identity_selection(self, rng):
        state = GaussianState(tuple("abc"), random_physical_cov(rng, 3))
        out = select_modes(state, ["a", "b", "c"])
        np.testing.assert_array_equal(out.cov, state.cov)

    def test_keep_one_factor(self):
        prod = tensor(squeezed_mode(0.5, 3.55, "x_squeezed", label="s"), vacuum(1, ["w"]))
        np.testing.assert_allclose(select_modes(prod, ["s"]).cov, np.diag([0.5, 3.55]))

    def test_reference_submatrix(self):
        state = GaussianState(THREE_MODE_LABELS, THREE_MODE_REFERENCE)
        sub = select_modes(state, ["A", "B0"])
        np.testing.assert_array_equal(sub.cov, THREE_MODE_REFERENCE[:4, :4])

    def test_reordering(self, rng):
        state = GaussianState(tuple("abc"), random_physical_cov(rng, 3))
        out = select_modes(state, ["c", "a"])
        assert out.labels == ("c", "a")
        np.testing.assert_array_equal(out.cov[:2, :2], state.cov[4:, 4:])
        np.testing.assert_array_equal(out.cov[:2, 2:], state.cov[4:, :2])

    def test_errors(self):
        with pytest.raises(ValueError):
            select_modes(vacuum(2), [])
        with pytest.raises(ValueError):
            select_modes(vacuum(2), [0, 0])
        with pytest.raises(IndexError):
            select_modes(vacuum(2), [5])

    def test_bare_string_rejected(self):
        # "AB" kept modes A and B of a state that has a mode "AB"
        state = vacuum(3, ["A", "B", "AB"])
        with pytest.raises(TypeError, match="not the string 'AB'"):
            select_modes(state, "AB")
        assert select_modes(state, ["AB"]).labels == ("AB",)


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(vacuum(2))

    def test_uncertainty_violation(self):
        assert not is_physical(GaussianState(("a",), np.diag([0.5, 0.5])))

    def test_not_positive_definite_is_unphysical(self):
        # the +/- spectrum of Omega @ cov is all ones here; only the failed
        # Cholesky factorization reveals that the matrix is not a covariance
        assert not is_physical(GaussianState(("a", "b"), np.diag([1.0, 1.0, -1.0, -1.0])))

    def test_measured_state_is_physical(self):
        assert is_physical(GaussianState(THREE_MODE_LABELS, THREE_MODE_REFERENCE))

    def test_preserved_by_channels(self, rng):
        state = GaussianState(tuple("abc"), random_physical_cov(rng, 3))
        assert is_physical(state)
        for _ in range(25):
            t, eta = rng.uniform(0, 1), rng.uniform(0, 1)
            i, j = rng.choice(3, size=2, replace=False)
            state = beam_splitter(state, int(i), int(j), t)
            state = GaussianState(state.labels, _loss_cov(state.cov, int(i), eta))
            assert is_physical(state)


class TestGaussianStateValidation:
    def test_string_labels_rejected(self):
        # "AB" was read as the labels ("A", "B")
        with pytest.raises(TypeError, match="not the string 'AB'"):
            GaussianState("AB", np.eye(4))

    def test_asymmetric_rejected(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="asymmetric"):
            GaussianState(("a",), bad)

    def test_small_drift_absorbed(self):
        # the slack is relative to the largest entry: 1e-5 on a 1e6 scale is drift
        for scale, offset in ((1.0, 1e-12), (1e6, 1e-5)):
            drift = scale * np.eye(2)
            drift[0, 1] = offset
            state = GaussianState(("a",), drift)
            assert state.cov[0, 1] == state.cov[1, 0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        # NaN fails no comparison, so it used to pass the symmetry check and
        # reach the eigensolvers behind is_physical and ppt_min
        bad = np.diag([value, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            GaussianState(("a", "b"), bad)
        with pytest.raises(ValueError, match="non-finite"):
            symplectic_eigenvalues(bad)

    def test_stack_checked_per_matrix(self):
        # each matrix of a stack gets the slack of its own scale, and a stack is not a state
        big, small = 1e6 * np.eye(2), np.eye(2)
        big[0, 1] = small[0, 1] = 1e-5
        _checked_cov(big, SYMMETRY_TOL)
        with pytest.raises(ValueError, match="asymmetric"):
            _checked_cov(np.stack([big, small]), SYMMETRY_TOL)
        with pytest.raises(ValueError, match="square"):
            GaussianState(("a",), big[None])

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            GaussianState(("a", "a"), np.eye(4))

    @pytest.mark.parametrize("label", ["", "A,B", "C|D", "A->B", "A B", "A\tB"])
    def test_label_with_a_separator_rejected(self, label):
        # split and direction keys join labels with ',', '|' and '->', so such a label
        # would make a key that names no split unambiguously
        with pytest.raises(ValueError, match="labels may not be empty or hold"):
            GaussianState(("a", label), np.eye(4))

    def test_label_count(self):
        with pytest.raises(ValueError):
            GaussianState(("a",), np.eye(4))

    def test_odd_dimension(self):
        with pytest.raises(ValueError):
            GaussianState(("a",), np.eye(3))

    def test_zero_modes_rejected_by_the_shape_rule(self):
        # a 0 x 0 matrix reached numpy's max reduction, which has no identity on it
        with pytest.raises(ValueError, match="square 2n x 2n"):
            GaussianState((), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="square 2n x 2n"):
            symplectic_eigenvalues(np.zeros((0, 0)))
        # an empty stack of one-mode or larger matrices is still a stack
        assert _checked_cov(np.zeros((0, 4, 4)), SYMMETRY_TOL).shape == (0, 4, 4)

    def test_immutable(self):
        state = vacuum(1)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 5.0

    def test_mode_lookup(self):
        state = vacuum(2, ["A", "B0"])
        assert state.mode_index("B0") == 1
        assert state.mode_index(0) == 0
        with pytest.raises(KeyError):
            state.mode_index("C1")
        with pytest.raises(IndexError):
            state.mode_index(7)
        assert state.mode_index(np.int64(1)) == 1
        with pytest.raises(TypeError):  # 1.9 used to resolve to mode 1
            state.mode_index(1.9)


def test_symplectic_form_properties():
    for n in (1, 2, 4):
        omega = _omega(n)
        np.testing.assert_array_equal(omega, -omega.T)
        np.testing.assert_array_equal(omega @ omega, -np.eye(2 * n))
        assert not omega.flags.writeable  # the cached form is shared by every caller
