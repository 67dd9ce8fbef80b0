"""Property tests: the fast spectrum, steering and pipeline routes against
straightforward references, and the physical invariants of the certificates,
on random physical states and parameters."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvsteer import (
    GaussianState,
    Partition,
    ProtocolParams,
    beam_splitter,
    build_network_state,
    full_report,
    is_physical,
    numeric_optimize_coefficient,
    optimal_fb,
    partial_transpose,
    ppt_min,
    qss_params,
    select_modes,
    separable_boundary_vsep,
    squeezed_mode,
    steerability,
    symplectic_eigenvalues,
    tensor,
    vacuum,
)
from cvsteer.core import (SYMMETRY_TOL, _beam_splitter_matrix, _checked_cov, _omega,
                          _symplectic_eigenvalues)
from cvsteer.criteria import SEPARABILITY_TOL, _ppt_cov, _steer_cov
from cvsteer.optimize import _OBJECTIVE_STAGE, _SEPARABLE, _trials
from cvsteer.protocol import _STAGES, STAGES, _network_transfers
from cvsteer.sampler import _transfer
from conftest import lossy, three_user_params, two_user_params

SETTINGS = settings(max_examples=150, deadline=None)


def _passive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random passive (orthogonal symplectic) transform in xpxp order."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    o = np.empty((2 * n, 2 * n))
    o[0::2, 0::2], o[0::2, 1::2] = u.real, -u.imag
    o[1::2, 0::2], o[1::2, 1::2] = u.imag, u.real
    return o


@st.composite
def physical_states(draw, min_modes=1, max_modes=4):
    """(cov, nus): a Williamson decomposition ``O1 Z O2 diag(nus) O2^T Z O1^T``
    with thermal factors in [1, 3] and up to 15 dB of squeezing per mode."""
    n = draw(st.integers(min_modes, max_modes))
    nus = draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n))
    dbs = draw(st.lists(st.floats(0.0, 15.0), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.diag([10.0 ** (s * db / 20.0) for db in dbs for s in (-1, 1)])
    s = _passive(rng, n) @ z @ _passive(rng, n)
    cov = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return (cov + cov.T) / 2.0, np.sort(nus)


def _local_symplectic(rng: np.random.Generator, n: int, modes, max_db: float = 10.0):
    """A 2n x 2n symplectic acting only on ``modes``: passive, squeezing, passive."""
    k = len(modes)
    z = np.diag([10.0 ** (s * db / 20.0) for db in rng.uniform(0.0, max_db, k) for s in (-1, 1)])
    idx = [q for m in modes for q in (2 * m, 2 * m + 1)]
    out = np.eye(2 * n)
    out[np.ix_(idx, idx)] = _passive(rng, k) @ z @ _passive(rng, k)
    return out


def _random_partition(data, n: int) -> Partition:
    # each pair of party sizes drawn from one list; nested integer draws favoured a one-mode
    # steered party (a third of four-mode splits were 3|1).  Hypothesis leans to the head of
    # the list, so the widest splits come first
    order = data.draw(st.permutations(range(n)))
    n_steering, n_steered = data.draw(st.sampled_from(sorted(
        ((a, b) for a in range(1, n) for b in range(1, n - a + 1)), key=lambda ab: -sum(ab))))
    return Partition(tuple(order[:n_steering]), tuple(order[n_steering : n_steering + n_steered]))


def reference_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues from the general eigensolver on ``Omega @ cov``."""
    n = cov.shape[0] // 2
    imag = np.sort(np.abs(np.linalg.eigvals(_omega(n) @ cov).imag))
    return (imag[0::2] + imag[1::2]) / 2.0


def reference_steerability(cov: np.ndarray, steering, steered) -> float:
    idx_n = [k for m in steering for k in (2 * m, 2 * m + 1)]
    idx_m = [k for m in steered for k in (2 * m, 2 * m + 1)]
    n_blk, m_blk = cov[np.ix_(idx_n, idx_n)], cov[np.ix_(idx_m, idx_m)]
    gamma = cov[np.ix_(idx_n, idx_m)]
    schur = m_blk - gamma.T @ np.linalg.solve(n_blk, gamma)
    nus = reference_spectrum((schur + schur.T) / 2.0)
    below = nus[nus < 1.0 - 1e-12]
    return float(max(0.0, -np.sum(np.log(below))))


@SETTINGS
@given(physical_states())
def test_spectrum_matches_general_eigensolver(state):
    cov, nus = state
    got = symplectic_eigenvalues(cov)
    np.testing.assert_allclose(got, reference_spectrum(cov), rtol=1e-10, atol=0)
    np.testing.assert_allclose(got, nus, rtol=1e-10, atol=0)


def hermitian_route(cov: np.ndarray) -> float:
    """The positive eigenvalue of ``1j * L^T Omega L`` for a one-mode ``cov = L L^T``."""
    chol = np.linalg.cholesky(cov)
    ev = np.linalg.eigvalsh(1j * (chol.T @ _omega(1) @ chol))
    return (ev[1] - ev[0]) / 2.0


@st.composite
def one_mode_states(draw):
    """(cov, nu): ``R diag(nu / s, nu * s) R^T`` with thermal factor ``nu`` in [1, 3], up to
    20 dB of squeezing ``s`` and a rotation ``R`` that correlates x and p."""
    nu, db = draw(st.floats(1.0, 3.0)), draw(st.floats(0.0, 20.0))
    theta = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cov = rot @ np.diag(nu * 10.0 ** (np.array([-db, db]) / 10.0)) @ rot.T
    return (cov + cov.T) / 2.0, nu


@SETTINGS
@given(st.lists(one_mode_states(), min_size=1, max_size=4))
def test_one_mode_spectrum_is_the_hermitian_route(states):
    covs = np.stack([cov for cov, _ in states])
    got = _symplectic_eigenvalues(covs)
    assert got.shape == (len(states), 1)
    for value, cov, (_, nu) in zip(got[:, 0], covs, states):
        assert value == pytest.approx(hermitian_route(cov), rel=1e-14, abs=0)
        assert value == pytest.approx(nu, rel=1e-10, abs=0)


@st.composite
def xp_block_states(draw, min_modes=2, max_modes=4):
    """(cov, nus): an x/p-block covariance ``V_x (+) V_p``, the shape of every network
    state.  The symplectic ``S_x (+) S_p`` is ``O1 Z^-1 O2`` on x and ``O1 Z O2`` on p for
    real orthogonal ``O1, O2`` (passive, sector-preserving) and up to 20 dB of squeezing
    ``Z`` per source, over thermal factors ``nus`` in [1, 3]."""
    n = draw(st.integers(min_modes, max_modes))
    nus = np.array(draw(st.lists(st.floats(1.0, 3.0), min_size=n, max_size=n)))
    dbs = np.array(draw(st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    o1, o2 = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
    z = 10.0 ** (dbs / 20.0)
    cov = np.zeros((2 * n, 2 * n))
    for sector, s in ((slice(0, None, 2), o1 @ np.diag(1.0 / z) @ o2),
                      (slice(1, None, 2), o1 @ np.diag(z) @ o2)):
        cov[sector, sector] = s @ np.diag(nus) @ s.T
    return (cov + cov.T) / 2.0, np.sort(nus)


def hermitian_spectrum(cov: np.ndarray) -> np.ndarray:
    """The ``n`` positive eigenvalues of ``1j * L^T Omega L`` for ``cov = L L^T``, ascending."""
    n = cov.shape[-1] // 2
    chol = np.linalg.cholesky(cov)
    return np.linalg.eigvalsh(1j * (chol.T @ _omega(n) @ chol))[n:]


@SETTINGS
@given(xp_block_states())
def test_sector_spectrum_is_the_hermitian_route(state):
    # the sector route (singular values of L_x^T L_p) on every one-mode partial transpose
    cov, nus = state
    np.testing.assert_allclose(_symplectic_eigenvalues(cov), nus, rtol=1e-10, atol=0)
    for mode in range(cov.shape[0] // 2):
        flipped = partial_transpose(cov, [mode])
        assert not flipped[0::2, 1::2].any()
        np.testing.assert_allclose(_symplectic_eigenvalues(flipped),
                                   hermitian_spectrum(flipped), rtol=1e-12, atol=0)


@SETTINGS
@given(st.integers(3, 4).flatmap(lambda n: st.tuples(xp_block_states(n, n),
                                                     physical_states(n, n))),
       st.data())
def test_mixed_stack_gives_each_matrix_its_own_value(states, data):
    # one x-p entry anywhere sends the whole stack down the Hermitian route; the x/p-block
    # matrix alone takes the sector route, and both agree
    covs = np.stack([states[0][0], states[1][0]])
    n = covs.shape[-1] // 2
    part = _random_partition(data, n)
    spectra, ppt, steer = (_symplectic_eigenvalues(covs), _ppt_cov(covs, part.steering),
                           _steer_cov(covs, part))
    for k, cov in enumerate(covs):
        np.testing.assert_allclose(spectra[k], _symplectic_eigenvalues(cov), rtol=1e-12, atol=0)
        assert ppt[k] == pytest.approx(_ppt_cov(cov, part.steering), rel=1e-12, abs=0)
        assert abs(steer[k] - _steer_cov(cov, part)) <= 1e-12 * max(1.0, steer[k])


@SETTINGS
@given(st.integers(4, 5).flatmap(lambda n: st.lists(xp_block_states(n, n), min_size=2,
                                                    max_size=4)),
       st.data())
def test_stacked_kernels_equal_the_batch_of_one_on_sector_states(states, data):
    # x/p in, x/p out: eigh of a two-mode steering block can mix the sectors at rounding
    # level, yet every Schur complement of the stack takes the route it takes alone, so the
    # stacked values are the scalar ones bit for bit
    covs = np.stack([cov for cov, _ in states])
    order = data.draw(st.permutations(range(covs.shape[-1] // 2)))
    part = Partition(tuple(order[:2]), tuple(order[2:]))
    ppt, steer = _ppt_cov(covs, part.steering), _steer_cov(covs, part)
    for k, cov in enumerate(covs):
        assert ppt[k].tobytes() == _ppt_cov(cov, part.steering).tobytes()
        assert steer[k].tobytes() == _steer_cov(cov, part).tobytes()


# positive variances with a negative determinant, and a stack with one singular matrix
@pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]],
                                 [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]])
def test_one_mode_spectrum_rejects_non_positive_definite(cov):
    with pytest.raises(ArithmeticError, match="not positive definite"):
        symplectic_eigenvalues(np.array(cov))


@SETTINGS
@given(st.one_of(physical_states(min_modes=2), xp_block_states(2, 5)), st.data())
def test_steerability_matches_solve_reference(state, data):
    # general states take the Hermitian route, x/p-block ones the sector route of the factor
    cov, _ = state
    _check_solve_reference(cov, _random_partition(data, cov.shape[0] // 2))


# wide splits of x/p states, drawn on every run whatever the random partitions pick
@pytest.mark.parametrize("sizes", [(2, 2), (1, 3), (2, 3), (3, 2)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sector_steerability_matches_solve_reference_on_wide_splits(sizes, data):
    n = sum(sizes)
    cov, _ = data.draw(xp_block_states(n, n))
    order = data.draw(st.permutations(range(n)))
    _check_solve_reference(cov, Partition(tuple(order[:sizes[0]]), tuple(order[sizes[0]:])))


def _check_solve_reference(cov: np.ndarray, part: Partition) -> None:
    n = cov.shape[0] // 2
    got = steerability(GaussianState(tuple(f"m{i}" for i in range(n)), cov), part)
    assert abs(got - reference_steerability(cov, part.steering, part.steered)) <= 1e-10


#: Lists of one to four physical states with a common mode count of three or four: two modes
#: allow only the 1|1 split, which ``test_two_mode_stacks_equal_the_batch_of_one`` covers.
state_stacks = st.integers(3, 4).flatmap(
    lambda n: st.lists(physical_states(n, n), min_size=1, max_size=4))


@SETTINGS
@given(state_stacks, st.data())
def test_stacked_kernels_equal_the_batch_of_one(states, data):
    # each matrix of a stack is certified alone: bit for bit what the public calls return
    covs = np.stack([cov for cov, _ in states])
    n = covs.shape[-1] // 2
    part = _random_partition(data, n)
    spectra, ppt, steer = (_symplectic_eigenvalues(covs), _ppt_cov(covs, part.steering),
                           _steer_cov(covs, part))
    assert not np.signbit(steer).any()  # no steering reads +0.0, never -0.0
    for k, cov in enumerate(covs):
        state = GaussianState(tuple(f"m{i}" for i in range(n)), cov)
        assert spectra[k].tobytes() == _symplectic_eigenvalues(cov).tobytes()
        assert ppt[k].tobytes() == np.float64(ppt_min(state, part.steering)).tobytes()
        assert steer[k].tobytes() == np.float64(steerability(state, part)).tobytes()


@SETTINGS
@given(st.lists(physical_states(2, 2), min_size=1, max_size=4), xp_block_states(2, 2))
def test_two_mode_stacks_equal_the_batch_of_one(states, sector):
    # the two-mode stacks the tests around this one no longer draw, in both 1|1 directions:
    # general stacks bit for bit, and one mixed with an x/p-block state to rounding
    covs = np.stack([cov for cov, _ in states])
    mixed = np.stack([sector[0], covs[0]])
    spectra = _symplectic_eigenvalues(covs)
    for part in (Partition((0,), (1,)), Partition((1,), (0,))):
        ppt, steer = _ppt_cov(covs, part.steering), _steer_cov(covs, part)
        for k, cov in enumerate(covs):
            state = GaussianState(("m0", "m1"), cov)
            assert spectra[k].tobytes() == _symplectic_eigenvalues(cov).tobytes()
            assert ppt[k].tobytes() == np.float64(ppt_min(state, part.steering)).tobytes()
            assert steer[k].tobytes() == np.float64(steerability(state, part)).tobytes()
        for k, value in enumerate(_steer_cov(mixed, part)):
            assert abs(value - _steer_cov(mixed[k], part)) <= 1e-12 * max(1.0, value)
        np.testing.assert_allclose(_ppt_cov(mixed, part.steering),
                                   [_ppt_cov(cov, part.steering) for cov in mixed],
                                   rtol=1e-12, atol=0)


@SETTINGS
@given(physical_states(min_modes=3, max_modes=5), st.data())
def test_full_report_equals_each_split(state, data):
    # mixed party sizes, partial unions and swaps: every value is the scalar certificate of
    # its gathered split, bit for bit, under the keys and in the order of the splits; a full
    # union's PPT value also stays tied to the host-order one; a repeated split is refused
    cov, _ = state
    n = cov.shape[0] // 2
    state = GaussianState(tuple(f"m{i}" for i in range(n)), cov)
    splits = [_random_partition(data, n) for _ in range(data.draw(st.integers(1, 5)))]
    splits += data.draw(st.lists(st.sampled_from(splits), max_size=2))
    splits += [p.swapped() for p in data.draw(st.lists(st.sampled_from(splits), max_size=2))]
    splits = data.draw(st.permutations(splits))
    if len(set(splits)) < len(splits):
        with pytest.raises(ValueError, match="is given twice"):
            full_report(state, splits)
        splits = list(dict.fromkeys(splits))
    report = full_report(state, splits)
    ppt, steer, verdicts = {}, {}, {}
    for part in splits:
        n_key = ",".join(state.labels[m] for m in part.steering)
        m_key = ",".join(state.labels[m] for m in part.steered)
        union = part.steering + part.steered
        value = ppt_min(select_modes(state, union), range(len(part.steering)))
        if len(union) == n:
            assert abs(value - ppt_min(state, part.steering)) <= 1e-12 * value
        ppt[f"{n_key}|{m_key}"] = value.hex()
        verdicts[f"{n_key}|{m_key}"] = ("separable" if value >= 1.0 - SEPARABILITY_TOL
                                        else "inseparable")
        steer[f"{n_key}->{m_key}"] = steerability(state, part).hex()
        steer[f"{m_key}->{n_key}"] = steerability(state, part.swapped()).hex()
    assert [(k, v.hex()) for k, v in report.ppt_by_split.items()] == list(ppt.items())
    assert [(k, v.hex()) for k, v in report.steer_by_direction.items()] == list(steer.items())
    assert list(report.verdicts.items()) == list(verdicts.items())


@SETTINGS
@given(physical_states(min_modes=2), st.data())
def test_steerability_does_not_grow_under_loss_on_the_steered_party(state, data):
    # G(N->M) is monotone under local Gaussian channels on M (Kogias et al., PRL 114, 060403)
    cov, _ = state
    n = cov.shape[0] // 2
    part = _random_partition(data, n)
    before = GaussianState(tuple(f"m{i}" for i in range(n)), cov)
    after = GaussianState(before.labels, lossy(
        before.cov, data.draw(st.sampled_from(part.steered)), data.draw(st.floats(0.0, 1.0))))
    g_before, g_after = steerability(before, part), steerability(after, part)
    assert g_after <= g_before * (1.0 + 1e-9) + 1e-12


@SETTINGS
@given(physical_states(min_modes=2), st.data())
def test_certificates_invariant_under_local_symplectics(state, data):
    cov, _ = state
    n = cov.shape[0] // 2
    part = _random_partition(data, n)
    # one symplectic within each of N, M and the traced-out modes: local for the N | rest
    # PPT split and for G(N->M)
    traced = tuple(m for m in range(n) if m not in part.steering + part.steered)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = np.eye(2 * n)
    for modes in (part.steering, part.steered, traced):
        if modes:
            s = s @ _local_symplectic(rng, n, modes)
    labels = tuple(f"m{i}" for i in range(n))
    before = GaussianState(labels, cov)
    moved = s @ cov @ s.T
    after = GaussianState(labels, (moved + moved.T) / 2.0)
    for value_before, value_after in (
        (ppt_min(before, part.steering), ppt_min(after, part.steering)),
        (steerability(before, part), steerability(after, part)),
    ):
        assert abs(value_after - value_before) <= 1e-10 * max(1.0, value_before)


@SETTINGS
@given(physical_states(min_modes=2), st.data())
def test_channels_preserve_physicality(state, data):
    cov, _ = state
    n = cov.shape[0] // 2
    before = GaussianState(tuple(f"m{i}" for i in range(n)), cov)
    i, j = data.draw(st.permutations(range(n)))[:2]
    weights = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    u, w = np.zeros(2 * n), np.zeros(2 * n)
    u[0::2], w[1::2] = data.draw(weights), data.draw(weights)  # x_dis on x, p_dis on p
    noise = data.draw(st.floats(0.0, 5.0)) * (np.outer(u, u) + np.outer(w, w))
    for after in (GaussianState(before.labels,
                                lossy(before.cov, i, data.draw(st.floats(0.0, 1.0)))),
                  beam_splitter(before, i, j, data.draw(st.floats(0.0, 1.0))),
                  GaussianState(before.labels, before.cov + noise)):
        assert is_physical(after)


def composed_network_state(params: ProtocolParams, stage: str) -> GaussianState:
    """The network state built step by step on covariances, apart from ``protocol``: the
    ``core`` sources plus the shared noise ``v_dis (u u^T + w w^T)``, which is the server's
    output, then ``S V S^T`` per splitter and ``lossy`` per loss."""

    def mix(cov, i, j, c, r):
        s = _beam_splitter_matrix(4, i, j, c, r)
        return s @ cov @ s.T

    state = tensor(squeezed_mode(params.v_s, params.v_a, "p_squeezed", "A0"),
                   vacuum(1, ("B0",)))
    state = tensor(state, squeezed_mode(params.v_s, params.v_a, "x_squeezed", "C0"))
    cov = tensor(state, vacuum(1, ("D0",))).cov
    u = np.array([0.0, 0.0, params.f_b, 0.0, params.f_c, 0.0, params.f_d, 0.0])
    w = np.array([0.0, params.f_a, 0.0, -params.f_b, 0.0, 0.0, 0.0, -params.f_d])
    cov = cov + params.v_dis * (np.outer(u, u) + np.outer(w, w))
    if stage == "server":
        return GaussianState(("A0", "B0", "C0", "D0"), cov)
    cov = lossy(cov, 0, params.eta_sa)
    cov = lossy(cov, 2, params.eta_sa)
    cov = lossy(cov, 1, params.eta_sb)
    cov = lossy(cov, 3, params.eta_sd)
    cov = mix(cov, 0, 2, np.sqrt(params.t1), np.sqrt(1.0 - params.t1))
    cov = lossy(cov, 2, params.eta_ab)
    if stage == "pre_bob":
        return GaussianState(("A", "B0", "C1"), cov[:6, :6])
    cov = mix(cov, 1, 2, np.sqrt(params.t2), np.sqrt(1.0 - params.t2))
    if stage == "final_two_user":
        return GaussianState(("A", "B"), cov[:4, :4])
    cov = lossy(cov, 2, params.eta_bd)
    if stage == "pre_david":
        return GaussianState(("A", "B", "C2", "D0"), cov)
    cov = mix(cov, 3, 2, np.sqrt(1.0 - params.t3), np.sqrt(params.t3))
    return GaussianState(("A", "B", "D"), cov[:6, :6])


unit = st.floats(0.0, 1.0)
coeff = st.floats(-3.0, 3.0)


@st.composite
def _protocol_params(draw):
    """Physical sources only (``v_s * v_a >= 1``), pure or impure."""
    v_s = draw(st.floats(1.0 / 32.0, 1.0))
    return draw(st.builds(
        ProtocolParams,
        v_s=st.just(v_s), v_a=st.floats(1.0 / v_s, 32.0), v_dis=st.floats(0.0, 5.0),
        t1=unit, t2=unit, t3=unit,
        eta_sa=unit, eta_sb=unit, eta_sd=unit, eta_ab=unit, eta_bd=unit,
        f_a=coeff, f_b=coeff, f_c=coeff, f_d=coeff,
        users=st.just("three"),
    ))


protocol_params = _protocol_params()


@SETTINGS
@given(protocol_params, st.sampled_from(STAGES))
def test_pipeline_matches_composed_core_ops(params, stage):
    got = build_network_state(params, stage)
    want = composed_network_state(params, stage)
    assert got.labels == want.labels
    np.testing.assert_allclose(got.cov, want.cov, rtol=1e-13, atol=1e-13)


@SETTINGS
@given(protocol_params, st.sampled_from(STAGES))
def test_sampler_transfer_on_drawn_layouts(params, stage):
    # the sampler's own arithmetic on unit inputs is its transfer matrix P, and P P^T is
    # the network's covariance to rounding, for any layout
    transfer = _transfer(params, stage)
    want = build_network_state(params, stage).cov
    assert np.abs(transfer @ transfer.T - want).max() <= 1e-13 * np.abs(want).max()


@SETTINGS
@given(protocol_params, st.sampled_from(STAGES), st.sampled_from(("f_a", "f_b", "f_c", "f_d")),
       st.lists(coeff, min_size=1, max_size=4))
def test_network_stack_equals_each_build(params, stage, which, values):
    # one pass over a stack of a displacement weight yields every cut up to the stage's,
    # each M the per-point pass's at that cut, bit for bit, and each build is its M M^T
    stacks = list(_network_transfers(params, stage, **{which: np.array(values)}))
    assert [cut.stage for cut, _ in stacks] == list(STAGES[:STAGES.index(stage) + 1])
    for k, value in enumerate(values):
        point = params.replace(**{which: value})
        for (cut, stack), (point_cut, m) in zip(stacks, _network_transfers(point, stage),
                                                strict=True):
            assert point_cut == cut
            assert stack[k].tobytes() == m.tobytes()
            state = build_network_state(point, cut.stage)
            assert state.labels == cut.labels
            assert state.cov.tobytes() == _checked_cov(m @ m.T, SYMMETRY_TOL).tobytes()


@SETTINGS
@given(protocol_params, st.sampled_from(sorted(_OBJECTIVE_STAGE)), st.sampled_from(("f_b", "f_d")),
       st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4))
def test_trials_match_the_public_route(params, objective, which, xs):
    # the optimizer's trials, read off the roots M0 + f dM, are the public route's values at
    # each coefficient: the relays' PPT values in network order, as far as they are
    # separable, and the objective where all are
    stage, partition = _OBJECTIVE_STAGE[objective]
    assume(which in _STAGES[stage].fields)
    ys, ppts = _trials(params, stage, partition, which)[0](np.array(xs))
    relays = [s.cut for s in list(_STAGES.values())[:STAGES.index(stage)] if s.cut.relay]
    for x, y, ppt in zip(xs, ys, ppts):
        point = params.replace(**{which: x})
        want = np.inf
        for cut in relays:
            if want >= _SEPARABLE:
                value = ppt_min(build_network_state(point, cut.stage), [cut.relay])
                assume(abs(value - _SEPARABLE) > 1e-11)  # both routes on one side
                want = min(want, value)
        assert ppt == pytest.approx(want, rel=0, abs=1e-12)
        want = (steerability(build_network_state(point, stage), partition)
                if want >= _SEPARABLE else -np.inf)
        assert y == pytest.approx(want, rel=0, abs=1e-12)


@SETTINGS
@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0), unit)
def test_steering_is_one_way_at_the_default_source(t2, eta_sb, eta_ab):
    # the one-way regime README names: the 3 dB / 5.5 dB source with the optimal f_b.  Below
    # it, at t2 < 0.0067 with a lossless relay, Bob's output is nearly the ancilla and
    # G(B->A) is 0.0043 at t2 = 0.001
    p = ProtocolParams(t2=t2, eta_sb=eta_sb, eta_ab=eta_ab)
    p = p.replace(f_b=optimal_fb(t2, eta_sb, eta_ab, p.v_a, p.v_s))
    state = build_network_state(p, "final_two_user")
    assert steerability(state, Partition((1,), (0,))) == 0.0


#: (objective, its parameters at a common efficiency, coefficient) of each search.
SEARCHES = [("steer_A_to_B", two_user_params, "f_b"), ("steer_A_to_BD", three_user_params, "f_b"),
            ("steer_A_to_BD", three_user_params, "f_d"), ("steer_BD_to_A", qss_params, "f_b"),
            ("steer_BD_to_A", qss_params, "f_d")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SEARCHES), st.floats(0.3, 1.0))
def test_optimum_is_feasible_through_the_public_route(search, eta):
    # the search certifies polynomial trials; its optimum must hold on the built states
    objective, make, which = search
    params = make(eta)
    at_star = params.replace(**{which: numeric_optimize_coefficient(objective, params,
                                                                     which).f_star})
    assert ppt_min(build_network_state(at_star, "pre_bob"), ["C1"]) >= 1.0 - SEPARABILITY_TOL
    if params.users == "three":
        assert ppt_min(build_network_state(at_star, "pre_david"),
                       ["C2"]) >= 1.0 - SEPARABILITY_TOL


@st.composite
def _boundary_params(draw):
    """Physical sources with Alice's balanced splitter and ``f_a = f_c = 1``, where the
    closed-form boundary holds, at any efficiency and any ``t2``.  No relay or no light from
    the server (``eta_ab = 0``, ``eta_sa = 0``) is drawn too: ``C1`` is then vacuum, separable
    at any ``v_dis``, and the boundary is 0, as it is for ``1 <= v_s <= 2``, where every
    input is classical.  A source squeezed in ``v_a < 1`` is never separable, a verdict the
    PPT slack cannot make as ``v_a -> 1``; ``test_protocol.TestSeparableBoundary`` pins it."""
    v_s = draw(st.floats(1.0 / 32.0, 2.0))
    sometimes_dark = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    return ProtocolParams(v_s=v_s, v_a=draw(st.floats(max(1.0, 1.0 / v_s), 32.0)),
                          f_b=draw(coeff), eta_sb=draw(unit), t2=draw(unit),
                          eta_sa=draw(sometimes_dark), eta_ab=draw(sometimes_dark),
                          v_dis=draw(st.floats(0.0, 5.0)))


def _c1_entangled_within(params: ProtocolParams, k: float) -> bool:
    """Whether ``C1``'s PPT value at ``pre_bob`` lies within ``k`` below 1, decided from the
    inputs, for a draw of ``_boundary_params`` below the boundary.

    ``X`` is the x sector of ``(A, B0, C1)``, here in closed form; the p sector is ``D X D``
    for ``D = diag(1, -1, 1)``, so the partially transposed spectrum is that of ``X D``: one
    eigenvalue at or below -1, and below the boundary ``1 - m`` and one above 1.  Hence
    ``det(X D - I) = m Q(m)`` with ``Q(m) = tr(X D) - 2 + m + det X / (1 - m)``, which grows
    with ``m``, so ``m <= k`` exactly when ``det(X D - I) <= k Q(k)``.  ``det(X D - I)`` is
    taken in its factored form, ``eta_ab eta_sa^2 (v_a - 1) (2 (1 - v_s) - d v_dis)`` with
    ``d = 2 - eta_sb f_b^2 (1 - v_s)``, free of cancellation."""
    p = params
    half = p.eta_sa * ((p.v_a + p.v_s + p.v_dis) / 2.0 - 1.0)
    ab = np.sqrt(2.0 * p.eta_sa * p.eta_sb) * p.f_b * p.v_dis / 2.0
    ac = np.sqrt(p.eta_ab) * p.eta_sa * (p.v_a - p.v_s - p.v_dis) / 2.0
    bc = -np.sqrt(p.eta_ab) * ab
    x = np.array([[1.0 + half, ab, ac], [ab, 1.0 + p.eta_sb * p.f_b**2 * p.v_dis, bc],
                  [ac, bc, 1.0 + p.eta_ab * half]])
    gap = 2.0 * (1.0 - p.v_s) - (2.0 - p.eta_sb * p.f_b**2 * (1.0 - p.v_s)) * p.v_dis
    q = x[0, 0] - x[1, 1] + x[2, 2] - 2.0 + k + np.linalg.det(x) / (1.0 - k)
    return p.eta_ab * p.eta_sa**2 * (p.v_a - 1.0) * gap <= k * q


@SETTINGS
@given(_boundary_params())
def test_ancilla_separable_exactly_above_the_boundary(params):
    vsep = separable_boundary_vsep(params)
    # below the boundary C1's PPT value falls below 1 by a margin that shrinks with
    # eta_sa eta_ab (vsep - v_dis) and other factors; where it is within the verdict's slack
    # the verdict reads separable, so those draws are left to the pinned point below
    assume(params.v_dis >= vsep or not _c1_entangled_within(params, 2 * SEPARABILITY_TOL))
    value = ppt_min(build_network_state(params, "pre_bob"), ["C1"])
    # a pure source leaves C1 at PPT 1 above the boundary, so the verdict takes the slack
    assert (value >= 1.0 - SEPARABILITY_TOL) == (params.v_dis >= vsep)


def test_ancilla_just_below_the_boundary_takes_the_slack():
    # vsep = 0.5000019, so C1 is entangled, but only by 9.2e-10: inside the verdict's slack
    params = ProtocolParams(v_s=0.5, v_a=2.0, v_dis=0.5, t2=0.0, eta_sa=0.015625,
                            eta_sb=6.103515625e-05, eta_ab=0.015625, f_b=0.5)
    assert params.v_dis < separable_boundary_vsep(params)
    assert _c1_entangled_within(params, 2 * SEPARABILITY_TOL)
    value = ppt_min(build_network_state(params, "pre_bob"), ["C1"])
    assert 1.0 - SEPARABILITY_TOL <= value < 1.0


@SETTINGS
@given(protocol_params)
def test_server_output_is_separable_on_every_split(params):
    # only separable states leave the server (Simon, PRL 84, 2726, 2000, for 1-vs-1)
    state = build_network_state(params, "server")
    for party in ([0], [1], [2], [3], [0, 1], [0, 2], [0, 3]):
        assert ppt_min(state, party) >= 1.0 - 1e-9
