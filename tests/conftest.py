from pathlib import Path

import numpy as np
import pytest

from cvsteer import ProtocolParams, optimal_fb, optimal_fd

# Published reference covariance matrices (homodyne reconstructions quoted to
# three decimals).  The three-mode state holds (A, B0, C1) right before Bob's
# beam splitter; the four-mode state holds (A, B, C2, D0) with the second
# ancilla in flight.  Note the four-mode matrix is asymmetric by 1e-3 exactly
# as published, which the file reader must tolerate.

THREE_MODE_REFERENCE = np.array([
    [2.754, 0, 1.296, 0, 0.764, 0],
    [0, 2.759, 0, -1.294, 0, -0.767],
    [1.296, 0, 3.282, 0, -1.296, 0],
    [0, -1.294, 0, 3.276, 0, -1.291],
    [0.764, 0, -1.296, 0, 2.768, 0],
    [0, -0.767, 0, -1.291, 0, 2.786],
])
THREE_MODE_LABELS = ("A", "B0", "C1")
THREE_MODE_PPT = (0.701, 1.182, 1.264)

FOUR_MODE_REFERENCE = np.array([
    [2.757, 0, 1.483, 0, 0.318, 0, 1.809, 0],
    [0, 2.753, 0, -1.462, 0, -0.312, 0, -1.817],
    [1.483, 0, 1.774, 0, 0.277, 0, 0.985, 0],
    [0, -1.462, 0, 1.777, 0, 0.297, 0, 1.061],
    [0.318, 0, 0.277, 0, 4.277, 0, 3.643, 0],
    [0, -0.312, 0, 0.297, 0, 4.251, 0, 3.573],
    [1.809, 0, 0.985, 0, 3.644, 0, 5.592, 0],
    [0, -1.817, 0, 1.061, 0, 3.573, 0, 5.606],
])
FOUR_MODE_LABELS = ("A", "B", "C2", "D0")
FOUR_MODE_PPT = (0.589, 0.686, 1.177, 1.183)


def random_physical_cov(rng: np.random.Generator, n_modes: int, scale: float = 1.0) -> np.ndarray:
    """A generically mixed physical covariance: identity plus a PSD bump."""
    a = rng.normal(size=(2 * n_modes, 2 * n_modes)) * scale
    return np.eye(2 * n_modes) + a @ a.T


def lossy(cov: np.ndarray, mode: int, eta: float) -> np.ndarray:
    """``cov`` after a pure-loss channel of efficiency ``eta`` on ``mode``, written out:
    ``X V X^T + Y`` with ``X = sqrt(eta)`` and ``Y = 1 - eta`` on the mode's quadratures."""
    x, y = np.ones(len(cov)), np.zeros(len(cov))
    x[2 * mode : 2 * mode + 2], y[2 * mode : 2 * mode + 2] = np.sqrt(eta), 1.0 - eta
    return x[:, None] * cov * x + np.diag(y)


def unpaired_spectrum(matrix: np.ndarray) -> np.ndarray:
    """A stand-in for ``np.linalg.eigvalsh``: the ascending spectrum 1, 2, ..., 2n for each
    matrix of the stack, in which no value has a ``-`` partner."""
    return np.broadcast_to(np.arange(1.0, matrix.shape[-1] + 1.0), matrix.shape[:-1])


def two_user_params(eta: float = 1.0, **kw) -> ProtocolParams:
    p = ProtocolParams(users="two", eta_sb=eta, eta_ab=eta, **kw)
    # equal channel efficiencies cancel in the optimal coefficient
    return p.replace(f_b=optimal_fb(p.t2, 1.0, 1.0, p.v_a, p.v_s))


def three_user_params(eta: float = 1.0, **kw) -> ProtocolParams:
    p = ProtocolParams(users="three", eta_sb=eta, eta_sd=eta, eta_ab=eta, eta_bd=eta, **kw)
    return p.replace(
        f_b=optimal_fb(p.t2, 1.0, 1.0, p.v_a, p.v_s),
        f_d=optimal_fd(eta, p.v_a, p.v_s),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def write_cov_matrix_file(path, labels, cov) -> str:
    """Write ``cov`` in the plain-text matrix format ``cli.read_cov_matrix_file`` reads, each
    entry to six significant digits; returns the path as a string."""
    lines = ["# labels: " + " ".join(labels)]
    lines += [" ".join(format(float(v), ".6g") for v in row) for row in cov]
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def three_mode_file(tmp_path):
    return write_cov_matrix_file(tmp_path / "three_mode.txt", THREE_MODE_LABELS,
                                 THREE_MODE_REFERENCE)


@pytest.fixture
def four_mode_file(tmp_path):
    # written as published, asymmetry included: a GaussianState would symmetrize it
    return write_cov_matrix_file(tmp_path / "four_mode.txt", FOUR_MODE_LABELS,
                                 FOUR_MODE_REFERENCE)
