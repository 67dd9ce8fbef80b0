"""Shot-level Monte Carlo twin of the network pipeline.

Every quantity in the protocol is Gaussian and every operation linear, so
ideal homodyne records can be emulated by drawing one Gaussian per input
quadrature, per shared classical noise variable and per loss-injected
vacuum, then propagating the samples through the steps of
``protocol.NETLIST``, the same network description the covariance pipeline
interprets.  The channel arithmetic here is written on shot arrays and does
not call ``core``, so the twin still checks the covariance algebra
independently.  The sample covariance of the retained modes must converge
to the analytic covariance at the usual 1/sqrt(n) rate;
``compare_covariance`` quantifies the agreement element by element.

Shots come in ``_BLOCK``-row blocks, each from its own jumped Philox
substream.  ``shot_blocks`` yields them one at a time and ``simulate_shots``
is their concatenation.  ``estimate_covariance`` reduces each block to a
count, a mean and a centred ``X^T X`` and merges them in order, so a run
that streams the blocks into it holds one block, whatever the shot count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import protocol
from .protocol import Loss, ProtocolParams

__all__ = [
    "ShotBatch",
    "compare_covariance",
    "CovarianceComparison",
    "estimate_covariance",
    "shot_blocks",
    "simulate_shots",
]

#: Shots are generated in fixed-size blocks, each on its own jumped Philox
#: substream, so the batch is reproducible independently of how the blocks
#: would be scheduled.  Not a tuning knob: changing it changes the streams.
_BLOCK = 1 << 16

#: ``compare_covariance`` flags elements deviating by more than this many standard errors.
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class ShotBatch:
    """Homodyne-style measurement records for the retained modes.

    ``quads`` has one row per shot and columns ``(x1, p1, ..., xn, pn)``
    matching ``labels``.  Deterministic given (seed, params, stage, n_shots).
    """

    labels: tuple[str, ...]
    quads: np.ndarray
    seed: int

    @property
    def n_shots(self) -> int:
        return self.quads.shape[0]


def _propagate_block(params: ProtocolParams, steps: tuple, n_modes: int,
                     rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` shots, run them through the netlist ``steps`` and keep ``n_modes``; the draw
    order (sources, ``x_dis``, ``p_dis``, a vacuum pair per loss site even at eta = 1) is fixed."""
    rt = np.sqrt

    def draw(var: float) -> np.ndarray:
        return rng.standard_normal(m) * rt(var)

    variances, weights = protocol._server_source(params)
    q = [draw(v) for v in variances]  # x1, p1, ..., x4, p4 by mode slot
    dis = (draw(params.v_dis), draw(params.v_dis))
    q = [qk + w * dis[k % 2] if w else qk for k, (qk, w) in enumerate(zip(q, weights))]

    for step in steps:
        if isinstance(step, Loss):
            eta = getattr(params, step.eta)
            for k in (2 * step.slot, 2 * step.slot + 1):
                q[k] = rt(eta) * q[k] + rt(1.0 - eta) * draw(1.0)
        else:
            t = getattr(params, step.t)
            c, r = (rt(1.0 - t), rt(t)) if step.complement else (rt(t), rt(1.0 - t))
            for a, b in ((2 * step.i, 2 * step.j), (2 * step.i + 1, 2 * step.j + 1)):
                q[a], q[b] = c * q[a] + r * q[b], r * q[a] - c * q[b]
    return np.column_stack(q[: 2 * n_modes])


def shot_blocks(params: ProtocolParams, stage: str, n_shots: int,
                seed: int) -> tuple[tuple[str, ...], Iterator[np.ndarray]]:
    """Labels of the ``stage`` modes and an iterator over ``n_shots`` shots in ``_BLOCK`` rows.

    The stage, the shot count and the seed (a Philox key) are checked on the call; the
    shots are drawn lazily, one block per ``next``, so a consumer holds one block at a time.
    """
    steps, cut = protocol._stage_steps(params, stage)
    if n_shots < 2:
        raise ValueError("need at least 2 shots")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")

    def blocks() -> Iterator[np.ndarray]:
        base = np.random.Philox(key=seed)
        for start in range(0, n_shots, _BLOCK):
            rng = np.random.Generator(base.jumped(start // _BLOCK))
            # always propagate a full block and truncate, so each block's stream
            # layout is fixed and prefixes agree across different shot counts
            block = _propagate_block(params, steps, len(cut.labels), rng, _BLOCK)
            yield block[: min(_BLOCK, n_shots - start)]

    return cut.labels, blocks()


def simulate_shots(params: ProtocolParams, stage: str, n_shots: int, seed: int) -> ShotBatch:
    """Sample ``n_shots`` joint quadrature outcomes of the ``stage`` modes."""
    labels, blocks = shot_blocks(params, stage, n_shots, seed)
    quads = np.concatenate(list(blocks), axis=0)
    quads.flags.writeable = False
    return ShotBatch(labels=labels, quads=quads, seed=int(seed))


def estimate_covariance(shots: ShotBatch | Iterable[np.ndarray]) -> np.ndarray:
    """Unbiased sample covariance (divisor ``n - 1``) of a batch or of its blocks in order.

    Each block contributes its count, mean and centred ``X^T X``; blocks are
    merged by the pairwise update of Chan, Golub and LeVeque (1979), which
    keeps the digits that raw sums of ``X^T X`` lose when the mean is large
    against the spread.  A
    ``ShotBatch`` is read in ``_BLOCK``-row slices, so it and the stream of
    ``shot_blocks`` give the same result.
    """
    if isinstance(shots, ShotBatch):
        quads = shots.quads
        shots = (quads[k : k + _BLOCK] for k in range(0, quads.shape[0], _BLOCK))
    n, mean, m2 = 0, 0.0, 0.0
    for block in shots:
        m = block.shape[0]
        block_mean = block.mean(axis=0)
        centred = block - block_mean
        delta = block_mean - mean
        n += m
        mean = mean + delta * (m / n)
        m2 = m2 + centred.T @ centred + np.outer(delta, delta) * ((n - m) * m / n)
    if n < 2:
        raise ValueError("need at least 2 shots to estimate a covariance")
    est = m2 / (n - 1)
    return (est + est.T) / 2.0


@dataclass(frozen=True)
class CovarianceComparison:
    """Element-wise agreement between an estimated and an analytic covariance.

    The standard error of each element is approximated from the analytic
    matrix as ``sqrt((s_ii s_jj + s_ij^2) / n)``; ``flagged`` lists the
    (upper-triangle) elements whose deviation exceeds ``z_threshold`` errors.
    """

    max_abs_deviation: float
    z_scores: np.ndarray
    flagged: tuple[tuple[int, int], ...]
    n_shots: int
    z_threshold: float


def compare_covariance(
    estimated: np.ndarray, analytic: np.ndarray, n_shots: int
) -> CovarianceComparison:
    """Flag estimated elements straying beyond ``Z_THRESHOLD`` standard errors."""
    estimated = np.asarray(estimated, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    if estimated.shape != analytic.shape:
        raise ValueError(f"shape mismatch: {estimated.shape} vs {analytic.shape}")
    dev = np.abs(estimated - analytic)
    diag = np.diag(analytic)
    se = np.sqrt((np.outer(diag, diag) + analytic**2) / n_shots)
    z = dev / se
    flagged = tuple(
        (int(i), int(j))
        for i in range(z.shape[0])
        for j in range(i, z.shape[1])
        if z[i, j] > Z_THRESHOLD
    )
    return CovarianceComparison(
        max_abs_deviation=float(dev.max()),
        z_scores=z,
        flagged=flagged,
        n_shots=int(n_shots),
        z_threshold=Z_THRESHOLD,
    )
