"""Separability and steerability certification of Gaussian covariance matrices.

Two certificates are provided for an arbitrary bipartition ``N | M``:

* the PPT test: the minimum symplectic eigenvalue of the partially
  transposed covariance, with values ``>= 1`` certifying separability
  (necessary and sufficient when one party holds a single mode);
* the steering monotone ``G(N->M)``: minus the summed log of the
  sub-unity symplectic eigenvalues of the Schur complement of the
  steering party's block, i.e. of the conditional state of ``M`` given
  Gaussian measurements on ``N``.

``core`` validates each ``GaussianState`` once and owns the one mode rule (``IndexError``
``mode m out of range for n modes``) and the one party rule (``TypeError`` for a bare
string).  A split is a ``Partition``, a ``ppt_min`` party included.  The kernels
``_ppt_cov`` and ``_steer_cov`` take a stack ``(..., 2n, 2n)`` of covariances and certify
each matrix alone; ``ppt_min`` and ``steerability`` are their batch of one.
``full_report`` gathers the splits of one party shape into one stack, so a report makes
three kernel calls per shape, not per split; without explicit splits it certifies every
one-mode-versus-rest split, in mode order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (GaussianState, _checked_cov, _cholesky, _party, _quadratures,
                   _symplectic_eigenvalues)

__all__ = [
    "Partition",
    "SteeringReport",
    "full_report",
    "partial_transpose",
    "ppt_min",
    "ppt_two_mode",
    "steerability",
    "symplectic_eigenvalues",
]

#: PPT values at or above ``1 - SEPARABILITY_TOL`` count as separable.
SEPARABILITY_TOL = 1e-9

#: Schur-complement eigenvalues must fall below ``1 - STEERING_EDGE`` to
#: contribute, which keeps ``-ln(1 - eps)`` float noise out of the monotone.
STEERING_EDGE = 1e-12

#: Condition-number guard on the steering party's block before inversion.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class Partition:
    """An ordered bipartition: steering party ``N`` and steered party ``M``.

    Parties are nonnegative integer mode indices into some host state, no mode twice in the
    split; their union may be a strict subset of it (remaining modes are traced out).
    """

    steering: tuple[int, ...]
    steered: tuple[int, ...]

    def __post_init__(self) -> None:
        steering = tuple(map(operator.index, self.steering))
        steered = tuple(map(operator.index, self.steered))
        if not steering or not steered:
            raise ValueError("both parties must be nonempty")
        if min(steering + steered) < 0:
            raise ValueError(f"mode indices must be nonnegative, got {steering}, {steered}")
        if len(set(steering + steered)) < len(steering + steered):
            raise ValueError(f"a mode appears twice in the split, got {steering}, {steered}")
        object.__setattr__(self, "steering", steering)
        object.__setattr__(self, "steered", steered)

    @classmethod
    def from_labels(
        cls, state: GaussianState, steering: Iterable[str], steered: Iterable[str]
    ) -> "Partition":
        return cls(_party(state, steering), _party(state, steered))

    def swapped(self) -> "Partition":
        return Partition(self.steered, self.steering)


@dataclass(frozen=True)
class SteeringReport:
    """Certification summary over a set of bipartitions.

    ``ppt_by_split`` maps split labels like ``"A|B0,C1"`` to minimum PPT
    eigenvalues, ``steer_by_direction`` maps ``"A->B0,C1"`` style keys to
    steering values (both directions per split), and ``verdicts`` holds the
    separable / inseparable call made at ``separability_tol``.
    """

    ppt_by_split: dict[str, float]
    steer_by_direction: dict[str, float]
    verdicts: dict[str, str]
    separability_tol: float


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """The n positive symplectic eigenvalues of ``cov``, ascending.

    For arrays from outside a ``GaussianState``: ``ValueError`` unless ``cov`` is
    ``2n x 2n``, finite and symmetric to ``1e-8`` relative, and ``ArithmeticError``
    unless it is positive definite, as from ``ppt_min`` and ``steerability``.
    Computed by ``core``'s Williamson (Cholesky) route, which also takes a stack
    ``(..., 2n, 2n)`` and returns ``(..., n)``.
    """
    return _symplectic_eigenvalues(_checked_cov(cov, 1e-8))


def partial_transpose(cov: np.ndarray, party: Sequence[int]) -> np.ndarray:
    """Flip the sign of every p row/column belonging to ``party`` modes (of each matrix
    of a stack ``(..., 2n, 2n)``)."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[-1] // 2
    signs = np.ones(2 * n)
    for k in _quadratures(party, n)[1::2]:  # the p rows; a scalar store beats fancy indexing
        signs[k] = -1.0
    return cov * (signs[:, None] * signs)


def _ppt_cov(cov: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """``ppt_min`` of each covariance of a stack ``(..., 2n, 2n)``, as ``(...)``."""
    return _symplectic_eigenvalues(partial_transpose(cov, modes)).min(axis=-1)


def ppt_min(state: GaussianState, party: Sequence[int | str]) -> float:
    """Minimum symplectic eigenvalue after partially transposing ``party``.

    A value ``>= 1`` certifies separability across ``party | rest``; below 1
    the split is entangled (necessary and sufficient for 1-vs-m splits).  The split is
    checked as ``Partition(party, rest)``: both nonempty, no mode twice.
    """
    modes = _party(state, party)
    Partition(modes, tuple(m for m in range(state.n_modes) if m not in modes))
    return float(_ppt_cov(state.cov, modes))


def ppt_two_mode(cov: np.ndarray) -> float:
    """Closed-form minimum PPT eigenvalue of a two-mode covariance.

    Writing the matrix in 2x2 blocks ``[[N, g], [g^T, M]]`` and
    ``c = det N + det M - 2 det g``, the value is
    ``sqrt((c - sqrt(c^2 - 4 det cov)) / 2)``, evaluated in the rationalized
    form ``sqrt(2 det cov / (c + sqrt(c^2 - 4 det cov)))`` so that strong
    squeezing (``c^2 >> det cov``) does not cancel it to zero.  Agrees with
    the general eigensolver route to near machine precision.  The input is checked as by
    ``symplectic_eigenvalues``: ``ValueError`` unless finite and symmetric,
    ``ArithmeticError`` unless positive definite.
    """
    cov = _checked_cov(cov, 1e-8)
    if cov.shape != (4, 4):
        raise ValueError(f"expected a 4 x 4 two-mode covariance, got {cov.shape}")
    _cholesky(cov)
    n_det = np.linalg.det(cov[:2, :2])
    m_det = np.linalg.det(cov[2:, 2:])
    g_det = np.linalg.det(cov[:2, 2:])
    c = n_det + m_det - 2.0 * g_det
    det = np.linalg.det(cov)
    disc = c * c - 4.0 * det
    return float(np.sqrt(2.0 * det / (c + np.sqrt(max(disc, 0.0)))))


def _steer_cov(cov: np.ndarray, partition: Partition) -> np.ndarray:
    """``steerability`` across ``partition`` of each covariance of a stack
    ``(..., 2n, 2n)``, as ``(...)``; ``ArithmeticError`` if any matrix fails the guard."""
    n = cov.shape[-1] // 2
    idx_n, idx_m = _quadratures(partition.steering, n), _quadratures(partition.steered, n)
    rows_n, rows_m = cov.take(idx_n, axis=-2), cov.take(idx_m, axis=-2)
    n_blk, m_blk = rows_n.take(idx_n, axis=-1), rows_m.take(idx_m, axis=-1)
    gamma = rows_n.take(idx_m, axis=-1)
    lam, u = np.linalg.eigh(n_blk)  # ascending: lam[..., 0] is the signed smallest
    lo = lam[..., 0]
    # max / COND_LIMIT, not COND_LIMIT * lo, which overflows for blocks near 1e300
    if ((lo <= 0.0) | (lam[..., -1] / COND_LIMIT > lo)).any():
        raise ArithmeticError("steering party block is not positive definite or is "
                              "numerically singular")
    x = u.swapaxes(-2, -1) @ gamma
    schur = m_blk - x.swapaxes(-2, -1) @ (x / lam[..., :, None])
    nus = _symplectic_eigenvalues((schur + schur.swapaxes(-2, -1)) / 2.0)
    logs = np.log(np.where(nus < 1.0 - STEERING_EDGE, nus, 1.0))
    # 0.0 - sum, not -sum: a matrix with no contributing eigenvalue reads +0.0, not -0.0
    return 0.0 - logs.sum(axis=-1)


def steerability(state: GaussianState, partition: Partition) -> float:
    """Gaussian steering monotone ``G`` from ``steering`` to ``steered``.

    Computes the Schur complement ``M - gamma^T N^{-1} gamma`` of the
    steering party's block and returns ``max(0, -sum(ln nu))`` over its
    symplectic eigenvalues ``nu < 1``.  The opposite direction is obtained
    by swapping the parties (``partition.swapped()``).

    One ``eigh`` of the steering block ``N = U diag(lam) U^T`` serves both
    the guard (every ``lam`` positive and ``max(lam) / min(lam)``, the 2-norm condition
    number, at most ``COND_LIMIT``, else ``ArithmeticError``) and the inverse:
    ``gamma^T N^{-1} gamma = x^T diag(1/lam) x`` with ``x = U^T gamma``.
    """
    return float(_steer_cov(state.cov, partition))


def _party_label(state: GaussianState, modes: Sequence[int]) -> str:
    return ",".join(state.labels[m] for m in modes)


def full_report(state: GaussianState,
                splits: Sequence[Partition] | None = None) -> SteeringReport:
    """PPT value, both-direction steerability and verdict for every split.

    ``splits`` defaults to ``Partition((i,), <the other modes>)`` for each mode ``i`` in order.
    Modes outside a split's union are traced out before the PPT test.  Splits with the
    same party sizes are certified as one stack: each split's modes, steering party
    first, are gathered into one ``(k, 2(a+b), 2(a+b))`` array, so a report costs one
    PPT spectrum and two ``_steer_cov`` calls per party shape, not three calls per
    split.  Each PPT value is bit for bit ``ppt_min`` on ``select_modes`` of the split's
    modes, steering party first (the PPT spectrum does not depend on mode order, so it
    equals ``ppt_min(state, steering)`` for a full union up to rounding), and each
    steering value is bit for bit ``steerability`` for that split.  A split given twice is a
    ``ValueError``.
    """
    if splits is None:
        modes = range(state.n_modes)
        splits = [Partition((i,), tuple(m for m in modes if m != i)) for i in modes]
    groups: dict[tuple[int, int], list[int]] = {}
    quads = [_quadratures(part.steering + part.steered, state.n_modes) for part in splits]
    for i, part in enumerate(splits):
        groups.setdefault((len(part.steering), len(part.steered)), []).append(i)
    values: dict[int, list[float]] = {}  # split index -> [PPT, G(N->M), G(M->N)]
    for (a, b), members in groups.items():
        idx = np.array([quads[i] for i in members])
        stack = state.cov[idx[:, :, None], idx[:, None, :]]
        local = Partition(tuple(range(a)), tuple(range(a, a + b)))
        rows = np.stack([_ppt_cov(stack, local.steering),
                         _steer_cov(stack, local), _steer_cov(stack, local.swapped())], axis=-1)
        values.update(zip(members, rows.tolist()))
    ppt: dict[str, float] = {}
    steer: dict[str, float] = {}
    verdicts: dict[str, str] = {}
    for i, part in enumerate(splits):
        value, g_nm, g_mn = values[i]
        key_n = _party_label(state, part.steering)
        key_m = _party_label(state, part.steered)
        split_key = f"{key_n}|{key_m}"
        if split_key in ppt:
            raise ValueError(f"split {split_key!r} is given twice")
        ppt[split_key] = value
        verdicts[split_key] = "separable" if value >= 1.0 - SEPARABILITY_TOL else "inseparable"
        steer[f"{key_n}->{key_m}"] = g_nm
        steer[f"{key_m}->{key_n}"] = g_mn
    return SteeringReport(ppt, steer, verdicts, SEPARABILITY_TOL)
