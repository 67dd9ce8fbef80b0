"""Shot-level Monte Carlo twin of the network pipeline.

Every quantity in the protocol is Gaussian and every operation linear, so
joint quadrature records (both quadratures of every kept mode on each shot)
can be emulated by drawing one Gaussian per input quadrature, per shared
classical noise variable and per loss-injected vacuum, then propagating the
samples through the steps of
``protocol.NETLIST``, the same network description the covariance pipeline
interprets; only the server slots and steps that reach the stage's cut
(``protocol._STAGES``) are drawn and run.  A loss at eta = 1 exactly, the
identity channel, is skipped with no vacuum drawn, and a loss that reaches
its slot before any splitter (a server link) is folded into that slot's
source, whose variance becomes ``eta * v + (1 - eta)`` and whose noise
weights scale by ``sqrt(eta)``, so only the relay losses after a splitter
draw a vacuum.  The channel arithmetic here is written on shot arrays and
does not call ``core``, so the twin still checks the covariance algebra
independently.  The sample covariance of the retained modes must converge
to the analytic covariance at the usual 1/sqrt(n) rate;
``compare_covariance`` quantifies the agreement element by element and
states its detection floor, the deviation each element needs to be flagged.

Shots come in ``_BLOCK``-shot blocks, block ``k`` from an SFC64 generator
seeded by the ``k``-th child of ``SeedSequence(seed)``, so no block depends on
when or where it is drawn.  The blocks are drawn on a pool of threads, one per
CPU the process may use but no more than ``_MAX_THREADS`` or the block count,
and handed out in order with at most two blocks per pool thread in flight.
Each pool thread draws and propagates all its blocks in place in one 2.4 MB
buffer, as rows: one row per quadrature, one column per shot.
``simulate_shots`` transposes copies of the blocks into the ``(n_shots, 2n)``
records of a ``ShotBatch``, which checks its records and is the one input of
``estimate_covariance``.
That transposes each ``_BLOCK``-shot slice back to rows and reduces it, on the
calling thread, to a count, a mean and a centred ``R R^T`` and merges them in
order; ``cli``'s ``montecarlo`` has each pool thread reduce its rows where it
drew them (``_sampled_covariance``), so the memory a run holds is set by the
pool size times one buffer, plus the moments or copies in flight, not by the
shot count or the host.  Both give the same result bit for bit whatever the
pool size.  Code on the pool threads calls only private functions.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import protocol
from .core import _checked_cov, _cholesky
from .protocol import Loss, ProtocolParams

__all__ = [
    "ShotBatch",
    "compare_covariance",
    "CovarianceComparison",
    "estimate_covariance",
    "simulate_shots",
]

#: Shots are generated in fixed-size blocks, each on its own SFC64 substream
#: (a spawned ``SeedSequence`` child), so the batch is reproducible independently
#: of how the blocks would be scheduled.  Sized so that a pool thread's buffer stays
#: under numpy's 4 MiB huge-page advice threshold, above which whether the buffer lands
#: on huge pages, and so the peak RSS, varies from run to run.  Not a tuning knob:
#: changing it changes the streams.
_BLOCK = 1 << 14

#: Rows of ``_BLOCK`` floats in a pool thread's buffer, 2.4 MB in all: 8 quadratures, 2
#: scratch rows and the kept rows of up to 4 modes.  One size for every stage: an allocator
#: with an adaptive mmap threshold (glibc's) left buffers sized per stage resident in its
#: thread heaps.
_BUFFER_ROWS = 18

#: The most pool threads a draw uses, whatever the host.  Each holds one 2.4 MB buffer, and
#: memory must not grow with the core count: nine 1M-shot ``montecarlo`` runs in one process
#: peaked at 41, 43, 47 and 56 MB of RSS with 1, 2, 4 and 8 threads.  More threads would
#: fit, but their speed-up is unmeasured on more than two CPUs.  Not a tuning knob: like
#: ``_BLOCK``, it bounds what a run may hold.
_MAX_THREADS = 2

#: ``compare_covariance`` flags elements deviating by more than this many standard errors.
Z_THRESHOLD = 5.0


@dataclass(frozen=True)
class ShotBatch:
    """Joint quadrature records for the retained modes.

    ``quads`` has one row per shot and columns ``(x1, p1, ..., xn, pn)``
    matching ``labels``.  Deterministic given (seed, params, stage, n_shots).
    ``ValueError`` unless ``quads`` is 2-D, finite and ``2 * len(labels) >= 2`` wide.
    """

    labels: tuple[str, ...]
    quads: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        quads = np.asarray(self.quads, dtype=float)
        if quads.ndim != 2 or quads.shape[1] != 2 * len(self.labels) or not self.labels:
            raise ValueError(f"quads must be shots x 2 columns per label, at least one label; "
                             f"got shape {quads.shape} for labels {tuple(self.labels)}")
        if not np.isfinite(quads).all():
            raise ValueError("shot record has a non-finite entry")
        object.__setattr__(self, "quads", quads)

    @property
    def n_shots(self) -> int:
        return self.quads.shape[0]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each item, in order, computed on a pool of threads.

    The pool has one thread per usable CPU, capped by ``_MAX_THREADS`` and ``len(items)``.
    At most two items per pool thread are in flight, so a thread starts its next item while
    its last result waits to be handed out; the next one is submitted as a result is handed
    out.  A result must therefore not be a view of memory its thread reuses.  A job's
    exception is raised here, unchanged, and the jobs not yet started are cancelled.
    """
    # imported here: it loads ``logging``, which every command would pay for at startup
    from concurrent.futures import ThreadPoolExecutor

    workers = max(1, min(_usable_cpus(), _MAX_THREADS, len(items)))
    items = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, item) for item in islice(items, 2 * workers))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(fn, item) for item in islice(items, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()


def _folded_source(params: ProtocolParams,
                   steps: tuple) -> tuple[tuple[float, ...], tuple[float, ...], tuple]:
    """The variances and shared-noise weights of the server quadratures, ``(x1, p1, ...,
    x4, p4)`` as in ``protocol._server_source``, with every loss in ``steps`` that reaches
    its slot before a splitter does folded in, and the ``steps`` left to run.

    Such a loss meets nothing but its slot's own source and noise terms, so
    ``sqrt(eta) (sqrt(v) z + w d) + sqrt(1 - eta) z'`` has the law of
    ``sqrt(eta * v + (1 - eta)) z + sqrt(eta) w d``: the slot draws one normal per
    quadrature, at the folded variance, and the loss draws no vacuum.  A loss at eta = 1
    exactly, the identity channel, is dropped wherever it is, so setting an eta to exactly 1
    moves the stream only where its loss comes after its slot's first splitter.
    """
    variances, weights = map(list, protocol._server_source(params))
    mixed, left = set(), []
    for step in steps:
        if isinstance(step, Loss):
            eta = getattr(params, step.eta)
            if eta == 1.0:
                continue
            if step.slot not in mixed:
                for k in (2 * step.slot, 2 * step.slot + 1):
                    variances[k] = eta * variances[k] + (1.0 - eta)
                    weights[k] = math.sqrt(eta) * weights[k]
                continue
        else:
            mixed.update((step.i, step.j))
        left.append(step)
    return tuple(map(float, variances)), tuple(map(float, weights)), tuple(left)


def _propagate_block(params: ProtocolParams, slots: tuple[int, ...],
                     variances: tuple[float, ...], weights: tuple[float, ...], steps: tuple,
                     n_modes: int, rng: np.random.Generator, buf: np.ndarray) -> np.ndarray:
    """Draw ``m = buf.size // _BUFFER_ROWS`` shots of the server ``slots``, run them through
    the netlist ``steps`` and keep ``n_modes``.  ``variances``, ``weights`` and ``steps`` are
    those of ``_folded_source``: the losses ahead of each slot's first splitter are already
    in the sources, and every step left runs.  The draw order is fixed: the slots' sources at
    their folded variances, ``x_dis``, ``p_dis``, then one vacuum pair per loss in ``steps``,
    each a loss with eta < 1 after its slot's first splitter.

    ``slots`` and ``steps`` are the ones that reach the kept modes (``protocol._STAGES``):
    the rows of the other slots are neither drawn nor read, and may hold anything.  The
    quadratures are rows of ``buf``, drawn in place and updated in place with two scratch
    rows; every product and sum is the one the out-of-place arithmetic would form, in the
    same order, so the shots do not depend on this layout.  The kept rows are stacked into
    the rest of ``buf``, and the ``(2 n_modes, m)`` rows returned, one per quadrature and
    one column per shot, are a view of it.
    """
    rt = np.sqrt
    n_rows = len(variances) + 2
    m = buf.size // _BUFFER_ROWS
    *q, dis, term = buf[: n_rows * m].reshape(n_rows, m)  # x1, p1, ..., x4, p4 by mode slot
    live = [k for slot in slots for k in (2 * slot, 2 * slot + 1)]
    for k in live:
        rng.standard_normal(out=q[k])
        q[k] *= rt(variances[k])
    for parity in (0, 1):  # x_dis onto the x rows, then p_dis onto the p rows
        rng.standard_normal(out=dis)
        dis *= rt(params.v_dis)
        for k in live[parity::2]:
            if weights[k]:
                q[k] += np.multiply(dis, weights[k], out=term)

    spare = [dis, term]
    for step in steps:
        if isinstance(step, Loss):
            eta = getattr(params, step.eta)
            vacuum = spare[0]
            for k in (2 * step.slot, 2 * step.slot + 1):
                rng.standard_normal(out=vacuum)
                vacuum *= rt(1.0 - eta)
                q[k] *= rt(eta)
                q[k] += vacuum
        else:
            t = getattr(params, step.t)
            c, r = (rt(1.0 - t), rt(t)) if step.complement else (rt(t), rt(1.0 - t))
            for a, b in ((2 * step.i, 2 * step.j), (2 * step.i + 1, 2 * step.j + 1)):
                out_a, out_b = spare
                np.multiply(q[a], c, out=out_a)
                out_a += np.multiply(q[b], r, out=out_b)  # c qa + r qb
                np.multiply(q[a], r, out=out_b)
                q[b] *= c
                out_b -= q[b]  # r qa - c qb
                spare = [q[a], q[b]]
                q[a], q[b] = out_a, out_b
    rows = buf[n_rows * m : (n_rows + 2 * n_modes) * m].reshape(2 * n_modes, m)
    return np.stack(q[: 2 * n_modes], axis=0, out=rows)


def _block_moments(rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """A block's shot count, mean and centred ``R R^T`` from its ``(2n, m)`` quadrature
    rows; ``rows`` is centred in place."""
    mean = rows.mean(axis=1)
    rows -= mean[:, None]
    return rows.shape[1], mean, rows @ rows.T


def _merged(moments: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Unbiased covariance of the blocks whose ``_block_moments`` come in order.

    Blocks are merged by the pairwise update of Chan, Golub and LeVeque (1979), which keeps
    the digits that raw sums of ``R R^T`` lose when the mean is large against the spread.
    """
    n, mean, m2 = 0, 0.0, 0.0
    for m, block_mean, scatter in moments:
        delta = block_mean - mean
        n += m
        mean = mean + delta * (m / n)
        m2 = m2 + scatter + np.outer(delta, delta) * ((n - m) * m / n)
    if n < 2:
        raise ValueError("need at least 2 shots to estimate a covariance")
    est = m2 / (n - 1)
    return (est + est.T) / 2.0


def _drawn_blocks(params: ProtocolParams, stage: str, n_shots: int, seed: int,
                  reduce: Callable) -> tuple[tuple[str, ...], Iterator]:
    """Labels of the ``stage`` modes and ``reduce(rows)`` of each ``_BLOCK``-shot block of
    ``n_shots`` shots, in order, each drawn and reduced on a pool thread.  ``rows`` holds the
    block as ``_propagate_block`` leaves it, one row per quadrature and one column per shot:
    the sources drawn at the variances ``_folded_source`` gives once for the call, the noise,
    then one vacuum pair per loss with eta < 1 after its slot's first splitter.  Each pool
    thread draws all its blocks in one buffer, so ``rows`` is a view that the thread's next
    block overwrites: ``reduce`` may overwrite it too, and must not return it.

    The stage, the shot count and the seed (an integer in ``[0, 2**128)``, the entropy of
    the ``SeedSequence`` whose ``k``-th spawned child seeds block ``k``) are checked on the
    call; no block is drawn before the first ``next``.
    """
    cut, _, slots, steps, _ = protocol._stage(params, stage)
    variances, weights, steps = _folded_source(params, steps)
    n_shots, seed = operator.index(n_shots), operator.index(seed)
    if n_shots < 2:
        raise ValueError("need at least 2 shots")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")

    scratch = threading.local()

    def job(start: int):
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty(_BUFFER_ROWS * _BLOCK)
        # SeedSequence(seed).spawn(k + 1)[k], without spawning the k children before it
        child = np.random.SeedSequence(seed, spawn_key=(start // _BLOCK,))
        rng = np.random.Generator(np.random.SFC64(child))
        # always propagate a full block and truncate, so each block's stream
        # layout is fixed and prefixes agree across different shot counts
        rows = _propagate_block(params, slots, variances, weights, steps, len(cut.labels), rng,
                                scratch.buf)
        return reduce(rows[:, : min(_BLOCK, n_shots - start)])

    return cut.labels, _ordered_map(job, range(0, n_shots, _BLOCK))


def _sampled_covariance(params: ProtocolParams, stage: str, n_shots: int, seed: int,
                        dump: TextIO | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels of the ``stage`` modes and ``estimate_covariance`` of
    ``simulate_shots(params, stage, n_shots, seed)``, each block reduced to its moments on
    the pool thread that drew it.  With ``dump``, the shots are also written there as CSV
    (a ``x_<label>,p_<label>,...`` header, then ``%.6g`` rows), block by block in order.
    """
    def reduce(rows: np.ndarray):
        shots = None if dump is None else rows.T.copy()  # one line per shot
        return _block_moments(rows), shots

    labels, drawn = _drawn_blocks(params, stage, n_shots, seed, reduce)

    def moments() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        if dump is not None:
            dump.write(",".join(f"{q}_{l}" for l in labels for q in ("x", "p")) + "\n")
            row = ",".join(["%.6g"] * 2 * len(labels)) + "\n"
        for block_moments, shots in drawn:
            if dump is not None:  # the bytes of np.savetxt(fmt="%.6g"), in one % format
                dump.write((row * len(shots)) % tuple(shots.ravel().tolist()))
            yield block_moments

    return labels, _merged(moments())


def simulate_shots(params: ProtocolParams, stage: str, n_shots: int, seed: int) -> ShotBatch:
    """Sample ``n_shots`` joint quadrature outcomes of the ``stage`` modes."""
    labels, blocks = _drawn_blocks(params, stage, n_shots, seed, np.copy)
    quads = np.empty((n_shots, 2 * len(labels)))  # C order, one row per shot
    for start, rows in zip(range(0, n_shots, _BLOCK), blocks):
        quads[start : start + rows.shape[1]] = rows.T
    quads.flags.writeable = False
    return ShotBatch(labels=labels, quads=quads, seed=int(seed))


def estimate_covariance(shots: ShotBatch) -> np.ndarray:
    """Unbiased sample covariance (divisor ``n - 1``) of a batch.

    The batch is read in ``_BLOCK``-shot slices, each transposed to quadrature rows and
    reduced to its count, mean and centred ``R R^T``, and merged in order by the pairwise
    update of Chan, Golub and LeVeque (1979): the reduction ``montecarlo`` runs on the
    blocks where they are drawn, so both give the same result.
    """
    quads = shots.quads
    return _merged(_block_moments(quads[k : k + _BLOCK].T.copy())
                   for k in range(0, quads.shape[0], _BLOCK))


@dataclass(frozen=True)
class CovarianceComparison:
    """Element-wise agreement between an estimated and an analytic covariance.

    The standard error of each element is approximated from the analytic
    matrix as ``sqrt((s_ii s_jj + s_ij^2) / n)`` (``standard_errors``);
    ``flagged`` lists the (upper-triangle) elements whose deviation exceeds
    ``z_threshold`` errors.
    """

    max_abs_deviation: float
    z_scores: np.ndarray
    standard_errors: np.ndarray
    flagged: tuple[tuple[int, int], ...]
    n_shots: int
    z_threshold: float

    @property
    def detection_floor(self) -> tuple[float, float]:
        """The least and the greatest of ``z_threshold`` standard errors over the compared
        (upper-triangle) elements: a deviation below an element's floor is not flagged."""
        floor = self.z_threshold * self.standard_errors[np.triu_indices_from(self.standard_errors)]
        return float(floor.min()), float(floor.max())

    @property
    def expected_false_flags(self) -> float:
        """Flags that sampling noise alone raises on average: the compared elements times
        the two-sided normal tail beyond ``z_threshold``, ``erfc(z_threshold / sqrt(2))``."""
        n = self.standard_errors.shape[0]
        return n * (n + 1) // 2 * math.erfc(self.z_threshold / math.sqrt(2.0))


def compare_covariance(
    estimated: np.ndarray, analytic: np.ndarray, n_shots: int
) -> CovarianceComparison:
    """Flag estimated elements straying beyond ``Z_THRESHOLD`` standard errors.

    Both matrices are checked as ``symplectic_eigenvalues`` checks its input and must share
    one 2-D shape, and the analytic one, whose diagonal scales the errors, must be positive
    definite.  ``ValueError`` for fewer than 2 shots, which no flag list could judge.
    """
    estimated, analytic = _checked_cov(estimated, 1e-8), _checked_cov(analytic, 1e-8)
    if estimated.ndim != 2 or estimated.shape != analytic.shape:
        raise ValueError(f"need two 2-D covariances of one shape, got {estimated.shape} "
                         f"and {analytic.shape}")
    _cholesky(analytic)
    if not n_shots >= 2:
        raise ValueError(f"need at least 2 shots, got {n_shots}")
    dev = np.abs(estimated - analytic)
    diag = np.diag(analytic)
    se = np.sqrt((np.outer(diag, diag) + analytic**2) / n_shots)
    z = dev / se
    # row-major over the upper triangle, diagonal included
    flagged = tuple(map(tuple, np.argwhere(np.triu(z > Z_THRESHOLD)).tolist()))
    return CovarianceComparison(
        max_abs_deviation=float(dev.max()),
        z_scores=z,
        standard_errors=se,
        flagged=flagged,
        n_shots=int(n_shots),
        z_threshold=Z_THRESHOLD,
    )
