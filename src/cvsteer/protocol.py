"""Entanglement and steering distribution over a server / multi-user network.

A quantum server prepares two squeezed modes and up to two coherent modes,
correlates all of them with shared classical displacement noise (which keeps
the transmitted states fully separable), and ships them through lossy
channels.  Users then only apply local beam splitters:

* Alice mixes her two received modes on ``T1`` and relays one output port;
* Bob mixes the relayed ancilla with his mode on ``T2`` and, for three
  users, relays his spare port onwards;
* David mixes that second ancilla with his mode on ``T3``.

``NETLIST`` writes this chain down once, from the server's output on, as loss and
beam-splitter steps on mode slots with stage cuts, each relay cut naming its ancilla.
``_network_transfers`` interprets it forward on transfer matrices ``M`` (the network is
linear in independent unit normals: the sources, the shared noise and a vacuum pair per
loss), handing back the ``M`` of each cut it passes on its way to a stage, so one pass gives
every cut before it too.  ``_covariance`` forms every network covariance ``M M^T``, of one
``M`` or of a stack (``build_network_state``'s last cut and the optimizer's trials alike),
and refuses one that float64 cannot resolve.  ``sampler``'s twin shares ``NETLIST``,
``_stage`` and the server cut, the first yield of ``_network_transfers``, and runs the rest
of the netlist on that cut with its own arithmetic.  At import ``_STAGES`` compiles
``NETLIST`` into one record per stage (its cut, the netlist through it and the fields its
covariance reads), which ``_stage`` looks up for a ``users`` setting.  The
``analytic_cov_*`` functions assemble the same covariances from closed-form matrix elements
and must agree with the pipeline to float precision wherever their parameter regimes apply.
The scans over these states, with their optimal coefficients, are in ``optimize``.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass
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


#: The largest ``eps * variance`` a network covariance may carry.  The shared noise enters a
#: covariance as entries of order ``v_dis f^2`` that cancel to O(1) in the steering and PPT
#: values, so these carry an absolute error of about ``eps`` times the largest variance:
#: 1e-9 keeps it below the six significant digits a scan prints.
_RESOLUTION_LIMIT = 1e-9


def _covariance(m: np.ndarray) -> np.ndarray:
    """The covariance ``M M^T`` of a transfer matrix ``m``, or of each of a stack
    ``(..., 2n, columns)``, the one place a network covariance is formed.
    ``FloatingPointError``, an ``ArithmeticError``, if the product overflows, and
    ``ArithmeticError`` naming the value and the bound if ``eps`` times the largest variance
    in the stack exceeds ``_RESOLUTION_LIMIT``; an empty stack passes."""
    with np.errstate(over="raise", invalid="raise"):
        cov = m @ m.swapaxes(-2, -1)
    value = np.finfo(float).eps * float(cov.diagonal(0, -2, -1).max(initial=0.0))
    if value > _RESOLUTION_LIMIT:
        raise ArithmeticError(f"float64 cannot resolve this network: eps x largest variance "
                              f"= {value:.3g} exceeds {_RESOLUTION_LIMIT:g} (lower v_dis or "
                              f"the displacement weights)")
    return cov


def _resolvable_limit(m0: np.ndarray, dm: np.ndarray) -> float:
    """The largest ``f >= 0`` at which ``_covariance(m0 + f dm)`` resolves: the least positive
    root of ``eps |r0 + f d|^2 = _RESOLUTION_LIMIT`` over the rows ``r0`` of ``m0`` and ``d`` of
    ``dm``, ``inf`` if no row reads ``f``; ``_covariance`` refuses an ``m0`` past the bound."""
    with np.errstate(over="raise", invalid="raise"):
        c = (m0 * m0).sum(1) - _RESOLUTION_LIMIT / np.finfo(float).eps
        if c.max() > 0:
            _covariance(m0)
        a, b = (dm * dm).sum(1), (m0 * dm).sum(1)
        a, b, c = a[a > 0], b[a > 0], c[a > 0]  # the rows that read ``f``
        return ((np.sqrt(b * b - a * c) - b) / a).min(initial=math.inf)


Loss = namedtuple("Loss", "slot eta")
Splitter = namedtuple("Splitter", "i j t complement", defaults=(False,))
Cut = namedtuple("Cut", "stage labels users relay", defaults=("two", None))

#: The network, written once, from its first cut, the server's output in slots A0=0, B0=1, C0=2,
#: D0=3; steps name the ``ProtocolParams`` field they read.  Splitters have the port map of
#: ``core.beam_splitter`` and with ``complement`` run at ``1 - t``; each interpreter still forms
#: ``sqrt(t)`` from ``t``, since ``sqrt(1 - (1 - t))`` differs in the last bits.  A cut keeps its
#: ``len(labels)`` slots; its ``relay`` labels the ancilla in flight to the next user, which the
#: protocol keeps separable.
NETLIST = (
    Cut("server", ("A0", "B0", "C0", "D0")),
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

_Stage = namedtuple("_Stage", "cut netlist fields")


def _compile(k: int) -> _Stage:
    """The ``_STAGES`` record of the cut ``NETLIST[k]``: the cut, the netlist through it and
    the ``ProtocolParams`` fields its covariance reads, by a forward pass like the interpreters'
    on field-name sets (a slot starts with ``v_s``, ``v_a``, ``v_dis`` and its weight, a loss
    adds its ``eta``, a splitter gives both its slots their union plus its ``t``), the union
    over the kept slots."""
    cut, netlist = NETLIST[k], NETLIST[: k + 1]
    fields = [frozenset({"v_s", "v_a", "v_dis", weight}) for weight in _SLOT_WEIGHTS]
    for step in netlist:
        if isinstance(step, Loss):
            fields[step.slot] |= {step.eta}
        elif isinstance(step, Splitter):
            fields[step.i] = fields[step.j] = fields[step.i] | fields[step.j] | {step.t}
    return _Stage(cut, netlist, frozenset().union(*fields[: len(cut.labels)]))


#: Every per-stage fact, compiled once from ``NETLIST``, by stage name in network order.
_STAGES = {step.stage: _compile(k) for k, step in enumerate(NETLIST) if isinstance(step, Cut)}
STAGES = tuple(_STAGES)


def _stage(params: ProtocolParams, name: str) -> _Stage:
    """The ``_STAGES`` record of ``name``; ValueError for an unknown stage, or for a
    three-user stage when ``params`` has two users."""
    if name not in _STAGES:
        raise ValueError(f"unknown stage {name!r}; expected one of {STAGES}")
    stage = _STAGES[name]
    if stage.cut.users == "three" and params.users != "three":
        raise ValueError(f"stage {name!r} requires users='three'")
    return stage


def _network_transfers(params: ProtocolParams, stage: str,
                       **weights) -> Iterator[tuple[Cut, np.ndarray]]:
    """Each cut of ``NETLIST`` up to that of ``stage``, in order, with the transfer matrix
    ``M`` of its kept slots there, whose covariance is ``M M^T``: one forward pass, which
    stops at the cut of ``stage``.  The columns of ``M`` are the eight source quadratures
    ``(x1, p1, ..., x4, p4)`` of ``A0, B0, C0, D0``, ``x_dis`` and ``p_dis``, then a vacuum
    pair per loss, which scales its slot's rows by ``sqrt(eta)``; a splitter is ``S M``.
    Array ``f_*`` ``weights`` give stacks ``(..., 2n, columns)``, one ``M`` per weight
    (``eta`` and ``t`` stay scalar).  ``stage`` is checked on the first ``next``, and
    ``ArithmeticError`` names the weight if a ``sqrt(v_dis)`` times it overflows."""
    netlist = _stage(params, stage).netlist
    variances, source = _server_source(params, **weights)
    vacuum = len(variances) + 2
    m = np.zeros((*np.broadcast(*source).shape, len(variances),
                  vacuum + 2 * sum(isinstance(step, Loss) for step in netlist)))
    for k, (variance, weight) in enumerate(zip(variances, source)):
        m[..., k, k] = math.sqrt(variance)
        m[..., k, len(variances) + k % 2] = math.sqrt(params.v_dis) * weight
    if not np.isfinite(m).all():
        name = _SLOT_WEIGHTS[np.argwhere(~np.isfinite(m))[0][-2] // 2]
        raise ArithmeticError(f"sqrt(v_dis) x {name} overflows float64 "
                              f"(v_dis = {params.v_dis:g}); lower v_dis or {name}")
    for step in netlist:
        if isinstance(step, Loss):
            eta, row = getattr(params, step.eta), 2 * step.slot
            m[..., row : row + 2, :] *= math.sqrt(eta)
            m[..., row, vacuum] = m[..., row + 1, vacuum + 1] = math.sqrt(1.0 - eta)
            vacuum += 2
        elif isinstance(step, Splitter):
            t = getattr(params, step.t)
            c, r = math.sqrt(t), math.sqrt(1.0 - t)  # correctly rounded, as the sampler's
            m = core._beam_splitter_matrix(4, step.i, step.j,
                                           *((r, c) if step.complement else (c, r))) @ m
        else:
            yield step, m[..., : 2 * len(step.labels), :].copy()  # losses write m in place


def build_network_state(params: ProtocolParams, stage: str) -> GaussianState:
    """Propagate the server outputs through ``NETLIST`` up to the cut of ``stage``.

    The stages, in order: ``server`` as the modes leave the server, ``pre_bob`` after
    Alice's beam splitter, ``final_two_user`` after Bob's, ``pre_david`` with the second
    ancilla in flight, ``final_three_user`` after David's; each cut names its modes.

    Bob's output takes amplitude ``sqrt(t2)`` from his own mode; David's
    takes ``sqrt(t3)`` from his mode and ``-sqrt(1-t3)`` from the relayed
    ancilla (the sign convention under which the closed forms hold).

    The network is propagated as plain transfer matrices by ``_network_transfers``, which
    takes the ``ProtocolParams`` values as already checked, and only the covariance at the
    last cut is formed, by ``_covariance``.  ``ArithmeticError`` if the pass overflows or
    float64 cannot resolve the state.
    """
    with np.errstate(over="raise", invalid="raise"):
        for cut, m in _network_transfers(params, stage):
            pass
        return GaussianState(cut.labels, _covariance(m))


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
    for ``t1 = 1/2`` and ``f_a = f_c = 1`` (``ValueError`` otherwise) at any ``eta_sa``,
    which scales Alice's squeezing and her noise alike.  With no relay or no light from
    the server (``eta_ab = 0`` or ``eta_sa = 0``) ``C1`` is vacuum, and with no quadrature
    below vacuum (``v_s, v_a >= 1``) every input is classical: ``C1`` is separable at any
    variance, and the boundary is 0.  A source squeezed in ``v_a < 1``, the quadratures the
    noise misses, keeps Duan's sum for ``A | C1`` below its bound at every variance: ``inf``.
    """
    _require_regime(params.replace(eta_sa=1.0), balanced=("t1",), equal_etas=False)
    if params.eta_ab == 0.0 or params.eta_sa == 0.0 or min(params.v_s, params.v_a) >= 1.0:
        return 0.0
    denom = 2.0 - params.eta_sb * params.f_b**2 * (1.0 - params.v_s)
    if params.v_a < 1.0 or denom <= 0.0:
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
