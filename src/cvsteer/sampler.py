"""Shot-level Monte Carlo twin of the network pipeline.

Every quantity in the protocol is Gaussian and every operation linear, so the
law of the joint quadrature records (both quadratures of every kept mode on
each shot) is fixed by one transfer matrix ``P``: the kept quadratures are
``P z`` for independent unit normals ``z``, one per source quadrature, per
shared classical noise variable and per loss-injected vacuum.  The twin shares
``protocol.NETLIST``, ``_stage`` and the server cut with the pipeline: ``_transfer``
takes ``P`` at the server cut, the first yield of ``protocol._network_transfers``,
and runs the rest of the stage's netlist on it once as row operations on unit
inputs.  That arithmetic is the sampler's own and calls neither ``core`` nor a
later cut, so the twin checks the propagation independently.  No network state
has an x-p term, so ``P P^T`` is an x sector and a p sector; ``_root`` factors
each into a lower-triangular ``L`` in Python floats, and each shot is then
``L w`` for ``2n`` standard normals ``w``, which has the law of ``P z`` whatever
the losses.  No BLAS or LAPACK call decides a shot.  The sample covariance of the
retained modes must converge to the analytic covariance at the usual
1/sqrt(n) rate; ``compare_covariance`` quantifies the agreement element by
element and states its detection floor, the deviation each element needs to
be flagged.

Shots come in ``_BLOCK``-shot blocks, block ``k`` from an SFC64 generator
seeded by the ``k``-th child of ``SeedSequence(seed)``, so no block depends on
when or where it is drawn.  The blocks are drawn on a pool of threads, one per
CPU the process may use but no more than ``_MAX_THREADS`` or the block count,
and handed out in order with at most two blocks per pool thread in flight.
Each pool thread draws all its blocks and applies ``L`` in place in one 1.2 MB
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
from .core import _checked_cov, _cholesky, _labels
from .protocol import Loss, ProtocolParams, Splitter

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

#: Rows of ``_BLOCK`` floats in a pool thread's buffer, 1.2 MB in all: the 2n quadratures of
#: up to 4 modes and one scratch row.  One size for every stage: an allocator with an adaptive
#: mmap threshold (glibc's) left buffers sized per stage resident in its thread heaps.
_BUFFER_ROWS = 9

#: The most pool threads a draw uses, whatever the host.  Each holds one 1.2 MB buffer, and
#: memory must not grow with the core count: nine 1M-shot ``montecarlo`` runs in one process
#: peaked at 40, 41, 43 and 47 MB of RSS with 1, 2, 4 and 8 threads.  More threads would
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
    ``ValueError`` unless ``quads`` is 2-D, finite and ``2 * len(labels) >= 2`` wide; the
    labels follow ``GaussianState``'s rule (``core._labels``) and are stored as a tuple.
    ``TypeError`` unless ``seed`` is an integer.
    """

    labels: tuple[str, ...]
    quads: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        quads = np.asarray(self.quads, dtype=float)
        if quads.ndim != 2 or quads.shape[1] != 2 * len(self.labels) or not self.labels:
            raise ValueError(f"quads must be shots x 2 columns per label, at least one label; "
                             f"got shape {quads.shape} for labels {tuple(self.labels)}")
        labels = _labels(self.labels, quads.shape[1] // 2)
        if not np.isfinite(quads).all():
            raise ValueError("shot record has a non-finite entry")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "quads", quads)
        object.__setattr__(self, "seed", operator.index(self.seed))

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


def _transfer(params: ProtocolParams, stage: str) -> np.ndarray:
    """The transfer matrix ``P`` of the ``stage`` modes, ``(2n, k)``: the quadratures at the
    cut are ``P z`` for ``k`` independent unit normals ``z``, in the column layout of
    ``protocol._network_transfers``: eight server quadratures, ``x_dis``, ``p_dis``, a vacuum
    pair per loss.

    ``P`` starts as the server cut, the first yield of ``protocol._network_transfers``, and
    the rest of the stage's netlist runs once on it as row operations, in the sampler's own
    arithmetic (not ``core``'s or ``protocol``'s): a loss scales its slot's rows by
    ``sqrt(eta)`` and puts ``sqrt(1 - eta)`` in its own vacuum column, and a splitter maps
    rows ``a, b`` to ``c a + r b, r a - c b``.  An x row reads only x inputs and a p row only
    p inputs.  ``ArithmeticError``, from ``protocol``, if a source row overflows."""
    cut, netlist, _ = protocol._stage(params, stage)
    _, q = next(protocol._network_transfers(params, stage))
    vacuum = len(q) + 2
    for step in netlist:
        if isinstance(step, Loss):
            eta = getattr(params, step.eta)
            for k in (2 * step.slot, 2 * step.slot + 1):
                q[k] *= math.sqrt(eta)
                q[k, vacuum] = math.sqrt(1.0 - eta)
                vacuum += 1
        elif isinstance(step, Splitter):
            t = getattr(params, step.t)
            c, r = math.sqrt(t), math.sqrt(1.0 - t)
            if step.complement:
                c, r = r, c
            for a, b in ((2 * step.i, 2 * step.j), (2 * step.i + 1, 2 * step.j + 1)):
                q[a], q[b] = q[a] * c + q[b] * r, q[a] * r - q[b] * c
    return q[: 2 * len(cut.labels)]


def _root(transfer: np.ndarray) -> tuple[list[list[float]], list[list[float]]]:
    """The lower-triangular roots ``L_x`` and ``L_p``, rows of Python floats, of the x and p
    sectors of ``P P^T`` for the transfer matrix ``P`` of ``_transfer``: the Cholesky
    factors, each entry one ``math.fsum`` of the products it reads, so no BLAS or LAPACK
    build decides a shot.  ``ArithmeticError`` if a variance overflows, so that no product
    can, or at a pivot that is not positive."""
    roots = []
    for parity, sector in enumerate((transfer[0::2].tolist(), transfer[1::2].tolist())):
        if not all(math.isfinite(math.fsum(x * x for x in a)) for a in sector):
            raise ArithmeticError(f"a variance in the Monte Carlo twin's {'xp'[parity]} sector "
                                  f"overflows float64")
        root = []
        for i, a in enumerate(sector):
            row = []
            for j, b in enumerate(sector[: i + 1]):
                other = root[j] if j < i else row
                s = math.fsum([*map(operator.mul, a, b), *(-u * v for u, v in zip(row, other))])
                if j < i:
                    row.append(s / root[j][j])
                elif s > 0:
                    row.append(math.sqrt(s))
                else:
                    raise ArithmeticError(f"the Monte Carlo twin's covariance has no Cholesky "
                                          f"root: {'xp'[parity]} pivot {i} is {s:.3g}")
            root.append(row)
        roots.append(root)
    return roots[0], roots[1]


def _propagate_block(roots: tuple[list[list[float]], ...], rng: np.random.Generator,
                     buf: np.ndarray) -> np.ndarray:
    """``m = buf.size // _BUFFER_ROWS`` shots of the modes whose ``_root`` is ``roots``, as
    ``(2n, m)`` rows of ``buf``, one per quadrature ``(x1, p1, ..., xn, pn)`` and one column
    per shot.  The ``2n m`` standard normals ``w`` are drawn in one call, row after row, and
    each sector's rows become ``L w`` in place, from the last row up, with one scratch row."""
    n = len(roots[0])
    m = buf.size // _BUFFER_ROWS
    block = buf[: 2 * n * m]
    rng.standard_normal(out=block)
    *rows, scratch = buf[: (2 * n + 1) * m].reshape(2 * n + 1, m)
    for parity, root in enumerate(roots):
        w = rows[parity::2]
        for i in reversed(range(n)):
            w[i] *= root[i][i]
            for j in range(i):
                w[i] += np.multiply(w[j], root[i][j], out=scratch)
    return block.reshape(2 * n, m)


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
    block as ``_propagate_block`` leaves it, one row per quadrature and one column per shot,
    through the ``_root`` of the stage's ``_transfer``, computed once for the call.  Each
    pool thread draws all its blocks in one buffer, so ``rows`` is a view that the thread's
    next block overwrites: ``reduce`` may overwrite it too, and must not return it.

    The stage, the shot count and the seed (an integer in ``[0, 2**128)``, the entropy of
    the ``SeedSequence`` whose ``k``-th spawned child seeds block ``k``) are checked on the
    call, and so is the root; no block is drawn before the first ``next``.
    """
    labels = protocol._stage(params, stage).cut.labels
    n_shots, seed = operator.index(n_shots), operator.index(seed)
    if n_shots < 2:
        raise ValueError("need at least 2 shots")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    roots = _root(_transfer(params, stage))
    scratch = threading.local()

    def job(start: int):
        if not hasattr(scratch, "buf"):
            scratch.buf = np.empty(_BUFFER_ROWS * _BLOCK)
        # SeedSequence(seed).spawn(k + 1)[k], without spawning the k children before it
        child = np.random.SeedSequence(seed, spawn_key=(start // _BLOCK,))
        rng = np.random.Generator(np.random.SFC64(child))
        # always draw a full block and truncate, so each block's stream
        # layout is fixed and prefixes agree across different shot counts
        rows = _propagate_block(roots, rng, scratch.buf)
        return reduce(rows[:, : min(_BLOCK, n_shots - start)])

    return labels, _ordered_map(job, range(0, n_shots, _BLOCK))


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
    return ShotBatch(labels=labels, quads=quads, seed=seed)


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
    definite.  ``ValueError`` for fewer than 2 shots, which no flag list could judge, and
    ``TypeError`` for a shot count that is not an integer.
    """
    estimated, analytic = _checked_cov(estimated, 1e-8), _checked_cov(analytic, 1e-8)
    if estimated.ndim != 2 or estimated.shape != analytic.shape:
        raise ValueError(f"need two 2-D covariances of one shape, got {estimated.shape} "
                         f"and {analytic.shape}")
    _cholesky(analytic)
    if not n_shots >= 2:
        raise ValueError(f"need at least 2 shots, got {n_shots}")
    n_shots = operator.index(n_shots)  # 2.5 or inf would scale every standard error
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
        n_shots=n_shots,
        z_threshold=Z_THRESHOLD,
    )
