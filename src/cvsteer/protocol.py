"""Entanglement and steering distribution over a server / multi-user network.

A quantum server prepares two squeezed modes and up to two coherent modes,
correlates all of them with shared classical displacement noise (which keeps
the transmitted states fully separable), and ships them through lossy
channels.  Users then only apply local beam splitters:

* Alice mixes her two received modes on ``T1`` and relays one output port;
* Bob mixes the relayed ancilla with his mode on ``T2`` and, for three
  users, relays his spare port onwards;
* David mixes that second ancilla with his mode on ``T3``.

``NETLIST`` writes this chain down once, as loss and beam-splitter steps on mode slots
with stage cuts, each relay cut naming its ancilla.  ``_network_cuts`` interprets it
forward on covariance matrices, handing back each cut it passes on its way to a stage, so
one pass gives every cut before it too (the optimizer certifies its relays that way) and
``build_network_state`` keeps the last.  ``sampler`` interprets it on shot arrays and
``_stage_reach`` on the sets of server slots and steps that reach each slot:
``_stage_fields`` reads off it the parameter fields a stage depends on, and ``sampler``
skips what does not reach the cut.  The ``analytic_cov_*`` functions assemble the same
covariances from closed-form matrix elements and must agree with the pipeline to float
precision wherever their parameter regimes apply.  The scans over these states, with
their optimal coefficients, are in ``optimize``.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Sequence

import numpy as np

from . import core
from .core import GaussianState, db_to_variance

__all__ = [
    "ProtocolParams",
    "analytic_cov_final_two_user",
    "analytic_cov_pre_bob",
    "analytic_cov_three_user",
    "build_network_state",
    "closed_form_steering_three_user",
    "closed_form_steering_two_user",
    "qss_params",
    "separable_boundary_vsep",
    "server_output_state",
]

#: Squeezing / antisqueezing variances of the source (-3 dB / +5.5 dB).
V_S_DEFAULT = db_to_variance(3.0, "squeezed")
V_A_DEFAULT = db_to_variance(5.5, "antisqueezed")

#: Displacement-noise variance used throughout the reference scenarios.
V_DIS_DEFAULT = 1.50

_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class ProtocolParams:
    """Every knob of the distribution scenario.

    ``t1, t2, t3`` are the users' beam-splitter transmittances;
    ``eta_sa, eta_sb, eta_sd`` the server-to-user channel efficiencies
    (``eta_sa`` hits both of Alice's modes); ``eta_ab, eta_bd`` the
    user-to-user relay efficiencies; ``f_a .. f_d`` the signed displacement
    coefficients of the shared classical noise.
    """

    v_s: float = V_S_DEFAULT
    v_a: float = V_A_DEFAULT
    v_dis: float = V_DIS_DEFAULT
    t1: float = 0.5
    t2: float = 0.5
    t3: float = 0.5
    eta_sa: float = 1.0
    eta_sb: float = 1.0
    eta_sd: float = 1.0
    eta_ab: float = 1.0
    eta_bd: float = 1.0
    f_a: float = 1.0
    f_b: float = 1.0
    f_c: float = 1.0
    f_d: float = 1.0
    users: str = "two"

    def __post_init__(self) -> None:
        core._require_variances(v_s=self.v_s, v_a=self.v_a)
        for name in ("v_dis", "f_a", "f_b", "f_c", "f_d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        core._require_physical_source(self.v_s, self.v_a)
        if self.v_dis < 0:
            raise ValueError("displacement variance must be nonnegative")
        core._require_fractions(**{name: getattr(self, name) for name in (
            "t1", "t2", "t3", "eta_sa", "eta_sb", "eta_sd", "eta_ab", "eta_bd")})
        if self.users not in ("two", "three"):
            raise ValueError(f"users must be 'two' or 'three', got {self.users!r}")

    def replace(self, **changes) -> "ProtocolParams":
        return dataclasses.replace(self, **changes)


#: The ``ProtocolParams`` field weighting the shared noise on each server slot, A0 to D0.
_SLOT_WEIGHTS = ("f_a", "f_b", "f_c", "f_d")


def _server_source(p: ProtocolParams, **weights) -> tuple[tuple[float, ...], tuple]:
    """Variances and shared-noise weights of the server quadratures, ``(x1, p1, ..., x4, p4)``
    of ``A0, B0, C0, D0``; x weights multiply ``x_dis`` and p weights ``p_dis``.  ``weights``
    replace the ``f_*`` fields of ``p`` and may be arrays."""
    f_a, f_b, f_c, f_d = (weights.get(name, getattr(p, name)) for name in _SLOT_WEIGHTS)
    variances = (p.v_a, p.v_s, 1.0, 1.0, p.v_s, p.v_a, 1.0, 1.0)
    return variances, (0.0, f_a, f_b, -f_b, f_c, 0.0, f_d, -f_d)


def _server_cov(params: ProtocolParams, **weights) -> np.ndarray:
    """Covariance of ``server_output_state`` (modes ``A0, B0, C0, D0``); array ``f_*``
    ``weights`` give one covariance per weight, as a stack ``(..., 8, 8)``."""
    variances, source = _server_source(params, **weights)
    return core._noise_cov(np.diag(variances), source[0::2], source[1::2], params.v_dis)


def server_output_state(params: ProtocolParams) -> GaussianState:
    """The four displaced modes as they leave the server (fully separable).

    Modes in order ``A0, B0, C0, D0``: a p-squeezed mode for Alice, Bob's
    coherent mode, an x-squeezed mode for Alice, David's coherent mode, all
    correlated only through the shared classical noise.
    """
    return GaussianState(("A0", "B0", "C0", "D0"), _server_cov(params))


Loss = namedtuple("Loss", "slot eta")
Splitter = namedtuple("Splitter", "i j t complement", defaults=(False,))
Cut = namedtuple("Cut", "stage labels users relay", defaults=("two", None))

#: The network, written once.  Server modes start in slots A0=0, B0=1, C0=2, D0=3; steps name
#: the ``ProtocolParams`` field they read.  Splitters have the port map of ``core.beam_splitter``
#: and with ``complement`` run at ``1 - t``; each interpreter still forms ``sqrt(t)`` from ``t``,
#: since ``sqrt(1 - (1 - t))`` differs in the last bits.  A cut keeps its ``len(labels)`` slots;
#: its ``relay`` labels the ancilla in flight to the next user, which the protocol keeps separable.
NETLIST = (
    Loss(0, "eta_sa"), Loss(2, "eta_sa"), Loss(1, "eta_sb"), Loss(3, "eta_sd"),
    Splitter(0, 2, "t1"),                    # -> A at 0, C1 at 2
    Loss(2, "eta_ab"),
    Cut("pre_bob", ("A", "B0", "C1"), relay="C1"),
    Splitter(1, 2, "t2"),                    # -> B at 1, C2 at 2
    Cut("final_two_user", ("A", "B")),
    Loss(2, "eta_bd"),
    Cut("pre_david", ("A", "B", "C2", "D0"), users="three", relay="C2"),
    Splitter(3, 2, "t3", complement=True),   # -> C3 at 3, D at 2
    Cut("final_three_user", ("A", "B", "D"), users="three"),
)

_STAGE_STEPS = {step.stage: (tuple(s for s in NETLIST[:k] if not isinstance(s, Cut)), step)
                for k, step in enumerate(NETLIST) if isinstance(step, Cut)}
STAGES = tuple(_STAGE_STEPS)


def _stage_steps(params: ProtocolParams, stage: str) -> tuple[tuple, Cut]:
    """The loss and splitter steps before the cut of ``stage``, and that cut."""
    if stage not in _STAGE_STEPS:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    steps, cut = _STAGE_STEPS[stage]
    if cut.users == "three" and params.users != "three":
        raise ValueError(f"stage {stage!r} requires users='three'")
    return steps, cut


def _stage_reach(stage: str) -> tuple[tuple[int, ...], tuple]:
    """The server slots, in order, and the steps before the cut of ``stage`` that reach its
    kept slots, by a forward pass like the interpreters': each slot starts with its source's
    token, a loss adds its own token to its slot, a splitter gives both its slots their union
    plus its own, and the tokens the kept slots end with are the ones that reach the cut."""
    steps, cut = _STAGE_STEPS[stage]
    tokens = [frozenset({("source", slot)}) for slot in range(len(_SLOT_WEIGHTS))]
    for k, step in enumerate(steps):
        if isinstance(step, Loss):
            tokens[step.slot] |= {k}
        else:
            tokens[step.i] = tokens[step.j] = tokens[step.i] | tokens[step.j] | {k}
    live = frozenset().union(*tokens[:len(cut.labels)])
    return (tuple(slot for slot in range(len(tokens)) if ("source", slot) in live),
            tuple(step for k, step in enumerate(steps) if k in live))


@cache
def _stage_fields(stage: str) -> frozenset[str]:
    """The ``ProtocolParams`` fields the covariance at the cut of ``stage`` depends on: ``v_s``,
    ``v_a``, ``v_dis`` and the weight of each server slot that reaches it, and the field of
    each step that does (``_stage_reach``).  Cached, since they are fixed by ``NETLIST``."""
    slots, steps = _stage_reach(stage)
    return frozenset({"v_s", "v_a", "v_dis"}).union(
        (_SLOT_WEIGHTS[slot] for slot in slots),
        (step.eta if isinstance(step, Loss) else step.t for step in steps))


def _network_cuts(params: ProtocolParams, stage: str,
                  **weights) -> Iterator[tuple[Cut, np.ndarray]]:
    """Each cut of ``NETLIST`` up to that of ``stage``, in order, with the covariance of its
    kept slots there, unvalidated: one forward pass, which stops at the cut of ``stage``.
    Array ``f_*`` ``weights`` give stacks ``(..., 2n, 2n)`` with one covariance per weight
    (``eta`` and ``t`` stay scalar).  ``stage`` is checked on the first ``next``."""
    last = _stage_steps(params, stage)[1]
    cov = _server_cov(params, **weights)
    for step in NETLIST:
        if isinstance(step, Loss):
            cov = core._loss_cov(cov, step.slot, getattr(params, step.eta))
        elif isinstance(step, Splitter):
            t = getattr(params, step.t)
            cov = core._bs_cov(cov, step.i, step.j, 1.0 - t if step.complement else t)
        else:
            keep = 2 * len(step.labels)
            yield step, cov[..., :keep, :keep]
            if step is last:
                return


def build_network_state(params: ProtocolParams, stage: str) -> GaussianState:
    """Propagate the server outputs through ``NETLIST`` up to the cut of ``stage``.

    The stages, in order: ``pre_bob`` after Alice's beam splitter,
    ``final_two_user`` after Bob's, ``pre_david`` with the second ancilla in
    flight, ``final_three_user`` after David's; each cut names its modes.

    Bob's output takes amplitude ``sqrt(t2)`` from his own mode; David's
    takes ``sqrt(t3)`` from his mode and ``-sqrt(1-t3)`` from the relayed
    ancilla (the sign convention under which the closed forms hold).

    The covariance is propagated as a plain array by ``_network_cuts`` through
    ``core``'s channel kernels, which take the ``ProtocolParams`` values as already
    checked, and only the state at the last cut is wrapped (and validated) as a
    ``GaussianState``.
    """
    for cut, cov in _network_cuts(params, stage):
        pass
    return GaussianState(cut.labels, cov)


def _require_regime(params: ProtocolParams, *, balanced: Sequence[str], equal_etas: bool) -> None:
    for name in balanced:
        if abs(getattr(params, name) - 0.5) > _REGIME_TOL:
            raise ValueError(f"closed form requires {name} = 1/2")
    if abs(params.eta_sa - 1.0) > _REGIME_TOL:
        raise ValueError("closed form requires eta_sa = 1 (use the pipeline otherwise)")
    if abs(params.f_a - 1.0) > _REGIME_TOL or abs(params.f_c - 1.0) > _REGIME_TOL:
        raise ValueError("closed form requires f_a = f_c = 1")
    if equal_etas:
        etas = (params.eta_sb, params.eta_ab, params.eta_sd, params.eta_bd)
        if max(etas) - min(etas) > _REGIME_TOL:
            raise ValueError("closed form requires all channel efficiencies equal")


def _xp_diagonal_cov(n: int, xx: dict[tuple[int, int], float],
                     pp: dict[tuple[int, int], float]) -> np.ndarray:
    """Assemble a covariance with separate x and p sectors and no x-p mixing."""
    cov = np.zeros((2 * n, 2 * n))
    for (i, j), v in xx.items():
        cov[2 * i, 2 * j] = cov[2 * j, 2 * i] = v
    for (i, j), v in pp.items():
        cov[2 * i + 1, 2 * j + 1] = cov[2 * j + 1, 2 * i + 1] = v
    return cov


def analytic_cov_pre_bob(params: ProtocolParams) -> np.ndarray:
    """Closed-form 6x6 covariance of (A, B0, C1); requires t1 = 1/2."""
    _require_regime(params, balanced=("t1",), equal_etas=False)
    v_s, v_a, v_dis, f_b = params.v_s, params.v_a, params.v_dis, params.f_b
    eta_sb, eta_ab = params.eta_sb, params.eta_ab
    var_a = (v_a + v_s + v_dis) / 2.0
    var_b0 = eta_sb * (1.0 + v_dis * f_b**2) + 1.0 - eta_sb
    var_c1 = eta_ab * (v_a + v_s + v_dis) / 2.0 + 1.0 - eta_ab
    c_ab = math.sqrt(2.0 * eta_sb) * v_dis * f_b / 2.0
    c_ac = math.sqrt(eta_ab) * (v_a - v_s - v_dis) / 2.0
    c_bc = -math.sqrt(2.0 * eta_ab * eta_sb) * v_dis * f_b / 2.0
    xx = {(0, 0): var_a, (1, 1): var_b0, (2, 2): var_c1,
          (0, 1): c_ab, (0, 2): c_ac, (1, 2): c_bc}
    pp = {(0, 0): var_a, (1, 1): var_b0, (2, 2): var_c1,
          (0, 1): -c_ab, (0, 2): -c_ac, (1, 2): c_bc}
    return _xp_diagonal_cov(3, xx, pp)


def analytic_cov_final_two_user(params: ProtocolParams) -> np.ndarray:
    """Closed-form 4x4 covariance of (A, B); requires t1 = 1/2."""
    _require_regime(params, balanced=("t1",), equal_etas=False)
    v_s, v_a, v_dis, f_b = params.v_s, params.v_a, params.v_dis, params.f_b
    t2, eta_sb, eta_ab = params.t2, params.eta_sb, params.eta_ab
    var_a = (v_a + v_s + v_dis) / 2.0
    var_b = (
        eta_ab * (1.0 - t2) * (v_a + v_s + v_dis) / 2.0
        + eta_sb * t2 * v_dis * f_b**2
        - math.sqrt(2.0 * eta_sb * eta_ab * t2 * (1.0 - t2)) * v_dis * f_b
        + 1.0 - eta_ab + eta_ab * t2
    )
    c_ab = (
        math.sqrt(eta_ab * (1.0 - t2)) * (v_a - v_s - v_dis)
        + math.sqrt(2.0 * eta_sb * t2) * v_dis * f_b
    ) / 2.0
    xx = {(0, 0): var_a, (1, 1): var_b, (0, 1): c_ab}
    pp = {(0, 0): var_a, (1, 1): var_b, (0, 1): -c_ab}
    return _xp_diagonal_cov(2, xx, pp)


def analytic_cov_three_user(params: ProtocolParams) -> np.ndarray:
    """Closed-form 6x6 covariance of (A, B, D).

    Printed for the balanced symmetric regime: all three beam splitters at
    1/2 and one common efficiency on the four lossy channels.
    """
    _require_regime(params, balanced=("t1", "t2", "t3"), equal_etas=True)
    v_s, v_a, v_dis = params.v_s, params.v_a, params.v_dis
    f_b, f_d, eta = params.f_b, params.f_d, params.eta_sb
    total = v_a + v_s + v_dis
    rt2 = math.sqrt(2.0)
    f_term = eta / 2.0 * (v_dis * f_b**2 - 1.0 - rt2 * v_dis * f_b) + 1.0
    g_term = (
        (4.0 + eta**2 * (v_dis * f_b**2 + rt2 * v_dis * f_b - 1.0)
         + 2.0 * eta * v_dis * f_d**2) / 4.0
        - 2.0 * math.sqrt(eta**3) * v_dis * f_d * (rt2 * f_b + 1.0) / 4.0
    )
    j_term = (2.0 * math.sqrt(eta) * v_dis * f_d - rt2 * eta * v_dis * f_b) / 4.0
    k_term = (
        -math.sqrt(2.0 * eta**3) * (v_dis * f_b**2 + 1.0)
        + rt2 * eta * v_dis * f_d * (rt2 * f_b - 1.0)
    ) / 4.0
    var_a = total / 2.0
    var_b = eta * total / 4.0 + f_term
    var_d = eta**2 * total / 8.0 + g_term
    c_ab = math.sqrt(2.0 * eta) * (v_a - v_s - v_dis + rt2 * v_dis * f_b) / 4.0
    c_ad = eta * (v_a - v_s - v_dis) / 4.0 + j_term
    c_bd = math.sqrt(2.0 * eta**3) * total / 8.0 + k_term
    xx = {(0, 0): var_a, (1, 1): var_b, (2, 2): var_d,
          (0, 1): c_ab, (0, 2): c_ad, (1, 2): c_bd}
    pp = {(0, 0): var_a, (1, 1): var_b, (2, 2): var_d,
          (0, 1): -c_ab, (0, 2): -c_ad, (1, 2): c_bd}
    return _xp_diagonal_cov(3, xx, pp)


def separable_boundary_vsep(params: ProtocolParams) -> float:
    """Minimum displacement variance keeping the relay ancilla separable.

    Below the returned value the ``C1 | A,B0`` split is entangled; above it
    the ancilla is certified separable.  For strong displacement weights the
    boundary becomes unattainable and ``inf`` is returned.  The closed form holds
    for ``eta_ab > 0``: with no relay ``C1`` is vacuum, separable at any variance,
    and the boundary is 0.
    """
    if params.eta_ab == 0.0:
        return 0.0
    denom = 2.0 - params.eta_sb * params.f_b**2 * (1.0 - params.v_s)
    if denom <= 0.0:
        return math.inf
    return 2.0 * (1.0 - params.v_s) / denom


def closed_form_steering_two_user(params: ProtocolParams) -> float:
    """Maximal distributed steerability from Alice to Bob.

    Valid when ``f_b`` is set to its optimal value (the formula already has
    the optimum substituted); equals the steering monotone evaluated on the
    pipeline state in that case.  Requires ``t1 = 1/2``, ``eta_sa = 1`` and
    ``f_a = f_c = 1`` (``ValueError`` otherwise).
    """
    _require_regime(params, balanced=("t1",), equal_etas=False)
    v_s, v_a, t2, eta_ab = params.v_s, params.v_a, params.t2, params.eta_ab
    s = v_a + v_s
    denom = (1.0 - eta_ab + eta_ab * t2) * s + 2.0 * eta_ab * (1.0 - t2) * v_s * v_a
    return max(0.0, math.log(s / denom))


def closed_form_steering_three_user(params: ProtocolParams) -> tuple[float, float, float]:
    """(G(A->BD), G(A->B), G(A->D)) in the balanced symmetric-loss regime.

    Assumes optimal ``f_b`` and ``f_d``; each entry matches the steering
    monotone on the pipeline state under those coefficients.
    """
    _require_regime(params, balanced=("t1", "t2", "t3"), equal_etas=True)
    v_s, v_a, eta = params.v_s, params.v_a, params.eta_sb
    s = v_a + v_s
    p = v_s * v_a
    g_abd = math.log(4.0 * s / ((4.0 - eta**2 - 2.0 * eta) * s + (4.0 * eta + 2.0 * eta**2) * p))
    g_ab = math.log(2.0 * s / ((2.0 - eta) * s + 2.0 * eta * p))
    g_ad = math.log(4.0 * s / ((4.0 - eta**2) * s + 2.0 * eta**2 * p))
    return max(0.0, g_abd), max(0.0, g_ab), max(0.0, g_ad)


#: Displacement coefficients and squeezing for the secret-sharing scenario
#: (collective steering toward Alice with -10 dB / +11 dB sources).
QSS_F_B = 0.92
QSS_F_D = 1.70
QSS_V_S = db_to_variance(10.0, "squeezed")
QSS_V_A = db_to_variance(11.0, "antisqueezed")


def qss_params(eta: float = 1.0) -> ProtocolParams:
    """Three-user parameters for the secret-sharing resource state, every user link at
    ``eta`` and Alice's lossless."""
    return ProtocolParams(
        v_s=QSS_V_S, v_a=QSS_V_A, f_b=QSS_F_B, f_d=QSS_F_D,
        eta_sb=eta, eta_sd=eta, eta_ab=eta, eta_bd=eta, users="three",
    )
