"""Covariance-matrix representation of multimode Gaussian optical states.

Conventions used throughout the package:

* quadratures are ordered ``(x1, p1, ..., xn, pn)``;
* the vacuum has unit variance on both quadratures (``[x, p] = 2i``
  normalization), so every physicality / separability threshold sits at 1;
* first moments are identically zero.  The protocol's "displacements" are
  classical Gaussian noise injections and only show up in second moments.

All operations are pure: they return new states and never mutate inputs.
This module owns covariance validity: ``GaussianState`` checks shape, finiteness,
symmetry and label rules once, and ``_cholesky``, whose factor every symplectic spectrum
is read from, is the one positive-definiteness test (``ArithmeticError`` on failure).  It
also owns the one mode rule, ``_quadratures``, which every mode index in the package goes
through, the one party rule, ``_party``, which resolves a sequence of labels or indices,
and the one label rule, ``_labels``, which ``GaussianState`` and ``sampler.ShotBatch``
apply.

The private kernels (the validity check and the symplectic spectrum) take a stack
``(..., 2n, 2n)`` of covariances and act on each matrix alone, so a grid of states is one
call; a single ``2n x 2n`` matrix is the stack of one.  Parameters are checked with the
``_require_*`` rules here, one per kind of quantity.  ``_beam_splitter_matrix`` holds the
one port map of a splitter, which ``beam_splitter`` applies to a state and ``protocol``'s
network to its transfer matrices.  The spectrum, ``_factor_spectrum``,
reads a stack of Cholesky factors and picks its route from them alone: one mode reads it
off the factor, a factor with no x-p entry (that of every network state) takes the real
x/p-sector route, and any other the Hermitian one, so a matrix gets the same value from
every caller.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GaussianState",
    "beam_splitter",
    "db_to_variance",
    "is_physical",
    "select_modes",
    "squeezed_mode",
    "tensor",
    "vacuum",
]

#: Symmetry slack relative to the largest entry, absorbed on construction (float drift).
SYMMETRY_TOL = 1e-10

#: Slack on the ``min symplectic eigenvalue >= 1`` physicality test.
PHYSICALITY_TOL = 1e-9


@cache
def _omega(n_modes: int) -> np.ndarray:
    """The symplectic form, ``n_modes`` copies of ``[[0, 1], [-1, 0]]``; cached, read-only."""
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.flags.writeable = False
    return omega


def _quadratures(modes: Iterable[int], n_modes: int) -> list[int]:
    """The quadrature indices ``2m, 2m+1`` of each mode index ``m``, in order: the one mode
    rule.  IndexError unless ``0 <= m < n_modes``, TypeError for a non-integer."""
    idx = []
    for m in map(operator.index, modes):
        if not 0 <= m < n_modes:
            raise IndexError(f"mode {m} out of range for {n_modes} modes")
        idx += (2 * m, 2 * m + 1)
    return idx


def _checked_cov(cov, tol: float) -> np.ndarray:
    """``cov`` symmetrized; ValueError unless each matrix of the stack ``(..., 2n, 2n)``,
    n >= 1, is finite and symmetric to tol x max(1, its max|entry|)."""
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2 or not cov.shape[-1]:
        raise ValueError(f"covariance must be square 2n x 2n, got {cov.shape}")
    scale = np.abs(cov).max(axis=(-2, -1))  # NaN or inf exactly where some entry is
    if not (scale < np.inf).all():
        raise ValueError("covariance has a non-finite entry")
    cov_t = cov.swapaxes(-2, -1)
    asym = np.abs(cov - cov_t).max(axis=(-2, -1))
    if ((asym > tol) & (asym > tol * scale)).any():  # asym > tol * max(1, scale), per matrix
        raise ValueError(f"covariance asymmetric by {asym.max():.3e} (relative tol {tol:.0e})")
    return (cov + cov_t) / 2.0  # absorb float drift; eigensolvers assume symmetry


def _require_fractions(**values: float) -> None:
    """ValueError unless each named efficiency or transmittance lies in [0, 1] (NaN fails)."""
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _require_variances(**values: float) -> None:
    """ValueError unless each named variance is finite and positive (NaN fails)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _require_physical_source(v_s: float, v_a: float) -> None:
    """ValueError unless the source obeys the uncertainty relation ``v_s * v_a >= 1`` up
    to ``PHYSICALITY_TOL``; impure sources (``> 1``) are fine."""
    if v_s * v_a < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"source violates the uncertainty relation: "
                         f"v_s * v_a = {v_s * v_a:.6g} < 1")


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of covariances, the one positive-definiteness test;
    ``ArithmeticError`` if some matrix is not positive definite."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise _NotPositiveDefinite("matrix is not positive definite") from None


_NOT_IN_LABELS = re.compile(r"[,|\s]|->")


def _labels(labels: Iterable[str], n: int) -> tuple[str, ...]:
    """``labels`` as a tuple of ``n`` mode names, the one label rule: ``TypeError`` for a
    bare string, which would read as one-character labels, and ``ValueError`` for a wrong
    count, a duplicate, an empty name or one holding ``,``, ``|``, ``->`` or whitespace."""
    if isinstance(labels, str):  # as in ``_party``
        raise TypeError(f"labels must be a sequence of names, not the string {labels!r}")
    labels = tuple(str(l) for l in labels)
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} modes")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate mode labels: {labels}")
    if not all(labels) or _NOT_IN_LABELS.search("\0".join(labels)):
        raise ValueError(f"labels may not be empty or hold ',', '|', '->' or space: {labels}")
    return labels


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"m{i + 1}" for i in range(n))


@dataclass(frozen=True)
class GaussianState:
    """A zero-mean Gaussian state of ``n_modes`` labeled optical modes.

    Attributes:
        labels: unique nonempty mode names free of the key separators ``,``, ``|``, ``->``
            and of whitespace, e.g. ``("A", "B0", "C1")``.
        cov: real symmetric ``2n x 2n`` covariance matrix in
            ``(x1, p1, ..., xn, pn)`` ordering, vacuum-normalized.
    """

    labels: tuple[str, ...]
    cov: np.ndarray

    def __post_init__(self) -> None:
        cov = _checked_cov(self.cov, SYMMETRY_TOL)
        if cov.ndim != 2:
            raise ValueError(f"covariance must be square 2n x 2n, got {cov.shape}")
        labels = _labels(self.labels, cov.shape[0] // 2)
        cov.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def mode_index(self, mode: int | str) -> int:
        """Resolve a mode given either its label or its index (an integer: ``TypeError``
        for a float)."""
        if isinstance(mode, str):
            try:
                return self.labels.index(mode)
            except ValueError:
                raise KeyError(f"unknown mode label {mode!r}; have {self.labels}") from None
        idx = operator.index(mode)
        _quadratures((idx,), self.n_modes)
        return idx


def _party(state: GaussianState, modes: Iterable[int | str]) -> tuple[int, ...]:
    """The index of each mode of a party, given by label or index, in order: the one party
    rule.  TypeError for a bare string, which would read as one-character labels."""
    if isinstance(modes, str):
        raise TypeError(f"a party must be a sequence of modes, not the string {modes!r}")
    return tuple(map(state.mode_index, modes))


def vacuum(n: int, labels: Sequence[str] | None = None) -> GaussianState:
    """n-mode vacuum: identity covariance."""
    if n < 1:
        raise ValueError("need at least one mode")
    return GaussianState(_default_labels(n) if labels is None else tuple(labels), np.eye(2 * n))


def db_to_variance(db: float, sign: str) -> float:
    """Convert a (anti)squeezing level in dB to a quadrature variance.

    ``sign`` is ``"squeezed"`` (variance below vacuum, ``10**(-db/10)``) or
    ``"antisqueezed"`` (``10**(+db/10)``); ``db`` is a finite nonnegative magnitude.
    """
    if not 0.0 <= db < math.inf:  # NaN too
        raise ValueError(f"db must be a finite nonnegative magnitude, got {db}")
    if sign == "squeezed":
        return 10.0 ** (-db / 10.0)
    if sign == "antisqueezed":
        return 10.0 ** (db / 10.0)
    raise ValueError(f"sign must be 'squeezed' or 'antisqueezed', got {sign!r}")


def squeezed_mode(
    v_s: float, v_a: float, orientation: str = "x_squeezed", label: str = "m1"
) -> GaussianState:
    """Single squeezed mode with quadrature variances ``v_s`` and ``v_a``.

    ``x_squeezed`` puts the low variance on x, ``p_squeezed`` on p.  Impure
    inputs (``v_s * v_a > 1``) are allowed; real sources are rarely pure, but
    ``v_s * v_a < 1`` violates the uncertainty relation and is rejected.
    """
    _require_variances(v_s=v_s, v_a=v_a)
    _require_physical_source(v_s, v_a)
    if orientation == "x_squeezed":
        diag = (v_s, v_a)
    elif orientation == "p_squeezed":
        diag = (v_a, v_s)
    else:
        raise ValueError(f"orientation must be 'x_squeezed' or 'p_squeezed', got {orientation!r}")
    return GaussianState((label,), np.diag(diag))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of two subsystems: block-diagonal covariance."""
    na, nb = 2 * a.n_modes, 2 * b.n_modes
    cov = np.zeros((na + nb, na + nb))
    cov[:na, :na] = a.cov
    cov[na:, na:] = b.cov
    return GaussianState(a.labels + b.labels, cov)


def _beam_splitter_matrix(n: int, i: int, j: int, c: float, r: float) -> np.ndarray:
    """Symplectic matrix mixing modes i and j with amplitudes ``c = sqrt(t)`` and
    ``r = sqrt(1-t)`` of power transmittance t.

    Port map (identical on x and p): ``a_i -> c a_i + r a_j`` and ``a_j -> r a_i - c a_j``.
    """
    s = np.eye(2 * n)
    for q in (0, 1):
        a, b = 2 * i + q, 2 * j + q
        s[a, a] = c
        s[a, b] = r
        s[b, a] = r
        s[b, b] = -c
    return s


def beam_splitter(state: GaussianState, i: int | str, j: int | str, t: float) -> GaussianState:
    """Mix modes ``i`` and ``j`` on a beam splitter of power transmittance ``t``."""
    a, b = state.mode_index(i), state.mode_index(j)
    if a == b:
        raise ValueError("beam splitter needs two distinct modes")
    _require_fractions(t=t)
    s = _beam_splitter_matrix(state.n_modes, a, b, math.sqrt(t), math.sqrt(1.0 - t))
    return GaussianState(state.labels, s @ state.cov @ s.T)


def select_modes(state: GaussianState, keep: Iterable[int | str]) -> GaussianState:
    """Partial trace: keep only the listed modes, in the requested order."""
    modes = _party(state, keep)
    if not modes:
        raise ValueError("must keep at least one mode")
    idx = _quadratures(modes, state.n_modes)
    return GaussianState(
        tuple(state.labels[m] for m in modes), state.cov[np.ix_(idx, idx)]
    )


class _NotPositiveDefinite(ArithmeticError):
    """The Cholesky factorization behind the symplectic spectrum failed."""


def _factor_spectrum(chol: np.ndarray) -> np.ndarray:
    """Positive symplectic spectra, each ascending, as ``(..., n)``, of ``L L^T`` for each
    lower Cholesky factor ``L`` of the stack ``chol`` ``(..., 2n, 2n)``.

    Williamson route (Serafini, *Quantum Continuous Variables*, ch. 3): ``Omega L L^T``
    is similar to the real antisymmetric ``L^T Omega L``, so ``1j * L^T Omega L`` is
    Hermitian with spectrum ``+/- nu``.  The ``+/-`` pairing is asserted per matrix to
    ``1e-9`` (scaled by its largest eigenvalue).  For one mode no eigensolver runs:
    ``L^T Omega L = det(L) Omega``, so ``nu = l00 * l11``.

    Sector route, for ``n >= 2`` and no x-p entry in the stack: each ``L`` is
    ``L_x (+) L_p``, the factor of ``V_x (+) V_p`` (every network state), and ``nu`` are
    the singular values of the real ``n x n`` ``L_x^T L_p``, with no pairing to check.
    Each x-p entry of a factor of an x/p matrix is a sum of products with an exact zero
    factor, so it is exactly zero and the route depends on the matrix alone.
    """
    n = chol.shape[-1] // 2
    if n == 1:
        return chol[..., :1, 0] * chol[..., 1:, 1]
    if not (np.count_nonzero(chol[..., 0::2, 1::2]) or np.count_nonzero(chol[..., 1::2, 0::2])):
        sectors = chol[..., 0::2, 0::2].swapaxes(-2, -1) @ chol[..., 1::2, 1::2]
        return np.linalg.svd(sectors, compute_uv=False)[..., ::-1]
    ev = np.linalg.eigvalsh(1j * (chol.swapaxes(-2, -1) @ _omega(n) @ chol))
    hi, lo = ev[..., n:], -ev[..., n - 1 :: -1]
    if np.count_nonzero(np.abs(hi - lo) > 1e-9 * np.maximum(1.0, hi[..., -1:])):
        raise ArithmeticError("symplectic eigenvalues failed +/- pairing check")
    return (lo + hi) / 2.0


def _symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """``_factor_spectrum`` of a stack ``(..., 2n, 2n)`` of covariances; ``ArithmeticError``
    when some matrix is not positive definite."""
    return _factor_spectrum(_cholesky(cov))


def is_physical(state: GaussianState) -> bool:
    """Whether the covariance is positive definite with every symplectic
    eigenvalue ``>= 1 - PHYSICALITY_TOL`` (uncertainty bound)."""
    try:
        nus = _symplectic_eigenvalues(state.cov)
    except _NotPositiveDefinite:
        return False
    return bool(nus.min() >= 1.0 - PHYSICALITY_TOL)
