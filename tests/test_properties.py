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
    ppt_min,
    select_modes,
    separable_boundary_vsep,
    server_output_state,
    squeezed_mode,
    steerability,
    symplectic_eigenvalues,
    tensor,
    vacuum,
)
from cvsteer.core import (SYMMETRY_TOL, _bs_cov, _checked_cov, _loss_cov, _noise_cov, _omega,
                          _symplectic_eigenvalues)
from cvsteer.criteria import SEPARABILITY_TOL, _ppt_cov, _steer_cov
from cvsteer.protocol import STAGES, _network_cuts

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
    order = data.draw(st.permutations(range(n)))
    n_steering = data.draw(st.integers(1, n - 1))
    n_steered = data.draw(st.integers(1, n - n_steering))
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


# positive variances with a negative determinant, and a stack with one singular matrix
@pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]],
                                 [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]]])
def test_one_mode_spectrum_rejects_non_positive_definite(cov):
    with pytest.raises(ArithmeticError, match="not positive definite"):
        symplectic_eigenvalues(np.array(cov))


@SETTINGS
@given(physical_states(min_modes=2), st.data())
def test_steerability_matches_solve_reference(state, data):
    cov, _ = state
    n = cov.shape[0] // 2
    part = _random_partition(data, n)
    got = steerability(GaussianState(tuple(f"m{i}" for i in range(n)), cov), part)
    assert abs(got - reference_steerability(cov, part.steering, part.steered)) <= 1e-10


#: Lists of one to four physical states with a common mode count.
state_stacks = st.integers(2, 4).flatmap(
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
@given(physical_states(min_modes=2, max_modes=5), st.data())
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
    after = GaussianState(before.labels, _loss_cov(
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
    noise = (data.draw(weights), data.draw(weights), data.draw(st.floats(0.0, 5.0)))
    for after in (GaussianState(before.labels,
                                _loss_cov(before.cov, i, data.draw(st.floats(0.0, 1.0)))),
                  beam_splitter(before, i, j, data.draw(st.floats(0.0, 1.0))),
                  GaussianState(before.labels, _noise_cov(before.cov, *noise))):
        assert is_physical(after)


def composed_network_state(params: ProtocolParams, stage: str) -> GaussianState:
    """The network state built step by step from the ``core`` states and channel kernels."""
    state = tensor(squeezed_mode(params.v_s, params.v_a, "p_squeezed", "A0"),
                   vacuum(1, ("B0",)))
    state = tensor(state, squeezed_mode(params.v_s, params.v_a, "x_squeezed", "C0"))
    cov = tensor(state, vacuum(1, ("D0",))).cov
    cov = _noise_cov(cov, x_coeffs=(0.0, params.f_b, params.f_c, params.f_d),
                     p_coeffs=(params.f_a, -params.f_b, 0.0, -params.f_d), v_dis=params.v_dis)
    cov = _loss_cov(cov, 0, params.eta_sa)
    cov = _loss_cov(cov, 2, params.eta_sa)
    cov = _loss_cov(cov, 1, params.eta_sb)
    cov = _loss_cov(cov, 3, params.eta_sd)
    cov = _bs_cov(cov, 0, 2, np.sqrt(params.t1), np.sqrt(1.0 - params.t1))
    cov = _loss_cov(cov, 2, params.eta_ab)
    if stage == "pre_bob":
        return GaussianState(("A", "B0", "C1"), cov[:6, :6])
    cov = _bs_cov(cov, 1, 2, np.sqrt(params.t2), np.sqrt(1.0 - params.t2))
    if stage == "final_two_user":
        return GaussianState(("A", "B"), cov[:4, :4])
    cov = _loss_cov(cov, 2, params.eta_bd)
    if stage == "pre_david":
        return GaussianState(("A", "B", "C2", "D0"), cov)
    cov = _bs_cov(cov, 3, 2, np.sqrt(1.0 - params.t3), np.sqrt(params.t3))
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
@given(protocol_params, st.sampled_from(STAGES), st.sampled_from(("f_a", "f_b", "f_c", "f_d")),
       st.lists(coeff, min_size=1, max_size=4))
def test_network_stack_equals_each_build(params, stage, which, values):
    # one pass over a stack of a displacement weight yields every cut up to the stage's,
    # each the per-point builds at that cut, bit for bit
    cuts = list(_network_cuts(params, stage, **{which: np.array(values)}))
    assert [cut.stage for cut, _ in cuts] == list(STAGES[:STAGES.index(stage) + 1])
    for cut, covs in cuts:
        stack = _checked_cov(covs, SYMMETRY_TOL)
        for cov, value in zip(stack, values):
            state = build_network_state(params.replace(**{which: value}), cut.stage)
            assert state.labels == cut.labels
            assert cov.tobytes() == state.cov.tobytes()


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


@SETTINGS
@given(_boundary_params())
def test_ancilla_separable_exactly_above_the_boundary(params):
    vsep = separable_boundary_vsep(params)
    assume(abs(params.v_dis - vsep) > 1e-6 * max(1.0, vsep))  # float-undecidable at the edge
    value = ppt_min(build_network_state(params, "pre_bob"), ["C1"])
    # a pure source leaves C1 at PPT 1 above the boundary, so the verdict takes the slack
    assert (value >= 1.0 - SEPARABILITY_TOL) == (params.v_dis >= vsep)


@SETTINGS
@given(protocol_params)
def test_server_output_is_separable_on_every_split(params):
    # only separable states leave the server (Simon, PRL 84, 2726, 2000, for 1-vs-1)
    state = server_output_state(params)
    for party in ([0], [1], [2], [3], [0, 1], [0, 2], [0, 3]):
        assert ppt_min(state, party) >= 1.0 - 1e-9
