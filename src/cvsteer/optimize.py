"""Optimal displacement coefficients, deployment figures of merit, and scans.

The analytic formulas give the displacement weights that maximize the
distributed steerability for each network layout; ``numeric_optimize_coefficient``
re-derives them by direct search over the coefficient bracket ``[0, 4]`` on the
pipeline state, serving as an independent check.  The search always keeps every
relayed ancilla that ``protocol.NETLIST`` marks separable, since that rule defines the
protocol, and refuses a coefficient the objective's stage does not read.  Each call
propagates the network's transfer matrices once, at the searched coefficient 0 and 1,
which fix each relay cut's and the objective cut's transfer matrix as its root
``M0 + f dM``, affine in the coefficient; its coarse bracket and each pass of its grid
refinement, cut at the largest coefficient whose trials float64 resolves, are then one
stack of trials per such cut, whose covariances ``protocol._covariance`` forms from those
roots, certified by the batched kernels of ``criteria``, which take the real x/p-sector
route on these uncorrelated states.  A relay whose state does not read the searched
coefficient is certified once per call.

Deployment math: the guaranteed secret-key rate extractable from collective
steering and the fiber length, at ``FIBER_LOSS_DB_PER_KM``, corresponding to a
channel efficiency.

Scans: ``SCENARIO_TABLE`` holds each scenario of the paper as data (parameters
at a grid efficiency, with the optimal coefficients above, and the columns it
reports); ``scan`` runs one over an efficiency grid, and ``scenario_params`` refuses an
override that no column reads.  Secret sharing is the ``qss`` entry, and ``appendix_e``'s
``G_BD_to_A_qss`` column is the same with the dealer's link on the grid too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import _require_fractions, _require_variances
from .criteria import SEPARABILITY_TOL, Partition, _ppt_cov, _steer_cov, ppt_min, steerability
from .protocol import (ProtocolParams, _RESOLUTION_LIMIT, _STAGES, _covariance,
                       _network_transfers, _stage, build_network_state, qss_params)

__all__ = [
    "OptimizationResult",
    "SCENARIO_TABLE",
    "ScanResult",
    "Scenario",
    "fiber_distance",
    "key_rate",
    "numeric_optimize_coefficient",
    "optimal_fb",
    "optimal_fb_general_loss",
    "optimal_fd",
    "optimal_fd_general_loss",
    "scan",
    "scenario_params",
]

#: Key-rate offset: ln(e/2), kept symbolic as 1 - ln 2.
KEY_RATE_OFFSET = 1.0 - math.log(2.0)

#: Fiber loss in dB/km behind ``fiber_distance``: standard telecom fiber at 1550 nm.
FIBER_LOSS_DB_PER_KM = 0.2

#: The coarse bracket: every 0.05 of a coefficient over ``[0, 4]``, wide enough for the
#: steering window of every scenario, which is zero-flat outside a finite interval.
_BRACKET = np.arange(81) * 4.0 / 80
_BRACKET.flags.writeable = False

#: Evenly spaced points of each refinement pass over ``x* +/- h``; odd, so the incumbent
#: ``x*`` is the middle one.  Each pass then shrinks ``h`` by ``(_REFINE_POINTS + 1) / 2``.
_REFINE_POINTS = 9

#: Refinement stops once the window ``2h`` is this narrow.
_REFINE_TOL = 1e-6

#: Relay ancillas with a PPT value below this count as entangled.
_SEPARABLE = 1.0 - SEPARABILITY_TOL


def optimal_fb(t2: float, eta_sb: float, eta_ab: float, v_a: float, v_s: float) -> float:
    """Displacement weight on Bob's mode maximizing the A -> B steerability."""
    _require_fractions(t2=t2, eta_sb=eta_sb, eta_ab=eta_ab)
    _require_variances(v_a=v_a, v_s=v_s)
    if t2 == 0 or eta_sb == 0:
        raise ValueError("t2 and eta_sb must be positive")
    return math.sqrt(2.0 * eta_ab * (1.0 - t2)) * v_a / (math.sqrt(eta_sb * t2) * (v_a + v_s))


def optimal_fd(eta: float, v_a: float, v_s: float) -> float:
    """Displacement weight on David's mode maximizing A -> BD steering.

    Balanced beam splitters and one common channel efficiency assumed.
    """
    _require_fractions(eta=eta)
    _require_variances(v_a=v_a, v_s=v_s)
    return 2.0 * math.sqrt(eta) * v_a / (v_a + v_s)


def optimal_fb_general_loss(
    eta_sa: float, eta_sb: float, eta_ab: float, v_a: float, v_s: float
) -> float:
    """Optimal weight on Bob's mode when Alice's channel is lossy too.

    Balanced ``t2`` assumed; reduces to ``optimal_fb`` at ``eta_sa = 1``.
    Derived by maximizing the A -> B steering monotone of the two-user
    output state over the coefficient.
    """
    _require_fractions(eta_sa=eta_sa, eta_sb=eta_sb, eta_ab=eta_ab)
    _require_variances(v_a=v_a, v_s=v_s)
    if eta_sb == 0:
        raise ValueError("eta_sb must be positive")
    return (
        math.sqrt(2.0 * eta_sa * eta_ab / eta_sb)
        * (1.0 + (v_a - 1.0) * eta_sa)
        / (2.0 + (v_a + v_s - 2.0) * eta_sa)
    )


def optimal_fd_general_loss(eta: float, v_a: float, v_s: float) -> float:
    """Optimal weight on David's mode with every channel (Alice's too) at ``eta``."""
    _require_fractions(eta=eta)
    _require_variances(v_a=v_a, v_s=v_s)
    if eta == 0.0:
        return 0.0
    return math.sqrt(2.0 * eta) * optimal_fb_general_loss(eta, eta, eta, v_a, v_s)


def key_rate(g_bd_to_a: float) -> float:
    """Guaranteed secret-key rate from collective steering toward the dealer."""
    if not g_bd_to_a >= 0:  # NaN too, which max(0.0, NaN) would turn into a zero rate
        raise ValueError(f"steerability must be nonnegative, got {g_bd_to_a}")
    return max(0.0, g_bd_to_a - KEY_RATE_OFFSET)


def fiber_distance(eta: float) -> float:
    """Fiber length in km whose transmission is ``eta``, at ``FIBER_LOSS_DB_PER_KM``."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return 0.0 - 10.0 * math.log10(eta) / FIBER_LOSS_DB_PER_KM  # +0.0 at eta = 1, not -0.0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a single-coefficient steering optimization."""

    f_star: float
    g_star: float
    constraint_active: bool
    at_boundary: bool


_OBJECTIVE_STAGE = {
    "steer_A_to_B": ("final_two_user", Partition((0,), (1,))),
    "steer_A_to_BD": ("final_three_user", Partition((0,), (1, 2))),
    "steer_BD_to_A": ("final_three_user", Partition((1, 2), (0,))),
}


def _trials(params: ProtocolParams, stage: str, partition: Partition,
            which: str) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The function that takes coefficients ``xs`` of ``which`` to the objective, the
    steerability across ``partition`` at the cut of ``stage``, at each of them (``-inf``
    where a relay ancilla is entangled) and the smallest PPT value of the relay ancillas of
    the cuts before it.

    The network is propagated once, here, at ``f = 0, 1``: a cut's transfer matrix is
    affine in the coefficient, ``M0 + f dM`` with ``dM = M1 - M0``, and these roots are
    kept for the relay cuts and the cut of ``stage``.  Each trial stack is
    ``_covariance(M0 + xs dM)``, which refuses a stack that overflows or that float64
    cannot resolve.  A relay is evaluated only where the ones before it are separable, and
    the objective only where all are.  A relay whose cut does not read ``which`` has the
    same value at every trial, so it is certified once, here, as a stack of one, and its
    PPT value is where every trial's starts.  ``evaluate.f_res``, the largest coefficient
    float64 resolves, is the least positive root of ``eps |r0 + f d|^2 = _RESOLUTION_LIMIT``
    over each kept cut's rows ``r0`` of ``M0`` and ``d`` of ``dM``."""
    start = math.inf
    cuts = []  # (cut, M0, dM) of each relay that reads ``which`` and of the objective's cut
    bound, f_res = _RESOLUTION_LIMIT / np.finfo(float).eps, math.inf
    with np.errstate(over="raise", invalid="raise"):
        for cut, (m0, m1) in _network_transfers(params, stage, **{which: np.array([0.0, 1.0])}):
            if cut.relay and which not in _STAGES[cut.stage].fields:
                mode = (cut.labels.index(cut.relay),)
                start = min(start, _ppt_cov(_covariance(m0[None]), mode)[0])
            elif cut.relay or cut.stage == stage:
                dm = m1 - m0
                cuts.append((cut, m0, dm))
                a, b, c = (dm * dm).sum(1), (m0 * dm).sum(1), (m0 * m0).sum(1) - bound
                if c.max() > 0:  # unresolvable at f = 0 already: refused as every trial is
                    _covariance(m0)
                a, b, c = a[a > 0], b[a > 0], c[a > 0]  # rows that read ``which``
                f_res = min(f_res, ((np.sqrt(b * b - a * c) - b) / a).min(initial=math.inf))

    def evaluate(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ppt = np.full(xs.shape, start)
        for cut, m0, dm in cuts:
            ok = ppt >= _SEPARABLE
            cov = _covariance(m0 + xs[ok, None, None] * dm)
            if cut.stage == stage:
                ys = np.full(xs.shape, -math.inf)
                ys[ok] = _steer_cov(cov, partition)
                return ys, ppt
            ppt[ok] = np.minimum(ppt[ok], _ppt_cov(cov, (cut.labels.index(cut.relay),)))

    evaluate.f_res = f_res
    return evaluate


def numeric_optimize_coefficient(objective: str, params: ProtocolParams,
                                 which: str) -> OptimizationResult:
    """Maximize a steering objective over one displacement coefficient in ``[0, 4]``.

    ``objective`` is one of ``steer_A_to_B``, ``steer_A_to_BD`` or ``steer_BD_to_A``;
    ``which`` selects the coefficient, ``"f_b"`` or ``"f_d"`` and read by the objective's
    stage (``steer_A_to_B`` never reads ``f_d``), the other staying at its value in
    ``params``.  The relays may only carry separable ancillas, so a coefficient that
    entangles one is rejected outright.  The network is propagated once per call, and
    each set of trial coefficients is one stack per cut, formed from its transfer matrix,
    affine in the coefficient (``_trials``); a relay whose cut does not read ``which`` is
    certified once for the whole search, and if it is entangled no coefficient is feasible.

    The steering objective is identically zero outside a finite coefficient
    window, so a coarse scan of ``_BRACKET`` first brackets the window.  Grid passes
    then refine inside it: each evaluates ``_REFINE_POINTS`` evenly spaced coefficients
    over ``x* +/- h`` as one stack, moves ``x*`` only to a strictly better point and
    shrinks ``h``, until the window is ``_REFINE_TOL`` wide.  If no interior
    maximum exists the best end of the bracket is reported with ``at_boundary`` set, as is
    one within ``_REFINE_TOL`` of ``f_res`` (``_trials``), the largest coefficient float64
    resolves, where the bracket and every pass stop: the optimum may lie past it.
    """
    if objective not in _OBJECTIVE_STAGE:
        raise ValueError(f"unknown objective {objective!r}")
    if which not in ("f_b", "f_d"):
        raise ValueError(f"which must be 'f_b' or 'f_d', got {which!r}")
    stage, partition = _OBJECTIVE_STAGE[objective]
    if which not in _stage(params, stage).fields:
        raise ValueError(f"{objective} does not depend on {which}")

    evaluate = _trials(params, stage, partition, which)
    bracket = _BRACKET[_BRACKET <= evaluate.f_res]
    ys, ppt = evaluate(bracket)
    best = int(np.argmax(ys))
    if not math.isfinite(ys[best]):
        raise ValueError("no feasible point in [0, 4]: separability violated everywhere")

    x_star, g_star, ppt_star = bracket[best], ys[best], ppt[best]
    interior = 0 < best < len(_BRACKET) - 1
    h = _BRACKET[1] if interior else 0.0  # the bracket's spacing; an end is not refined
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    while 2.0 * h > _REFINE_TOL:
        xs = x_star + h * offsets
        xs = xs[xs <= evaluate.f_res]
        ys, ppt = evaluate(xs)
        k = int(np.argmax(ys))
        if ys[k] > g_star:  # so g* never falls and x* stays feasible
            x_star, g_star, ppt_star = xs[k], ys[k], ppt[k]
        h /= (_REFINE_POINTS + 1) / 2

    # x* is feasible, so both relays were checked there
    active = ppt_star - 1.0 < 1e-6
    return OptimizationResult(
        f_star=float(x_star),
        g_star=float(g_star),
        constraint_active=bool(active),
        at_boundary=bool(not interior or evaluate.f_res - x_star < _REFINE_TOL),
    )


@dataclass(frozen=True)
class ScanResult:
    """A table of per-grid-point results (one dict per row)."""

    columns: tuple[str, ...]
    rows: tuple[dict[str, float], ...]

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {self.columns}")
        return np.array([row[name] for row in self.rows])


#: A scan scenario, as data.  At grid efficiency ``eta`` the parameters ``p`` are ``base``
#: with ``eta`` on each of ``eta_fields``, then the overrides, then every ``auto`` field not
#: overridden set to ``fn(p, eta)``, a callable of the parameters so far.  A row
#: is ``columns`` (``_scan_row`` specs) on those parameters, then the columns of the
#: ``reference`` scenario at the same ``eta``, which the overrides never reach, then
#: ``key_rates`` of the named steering columns.
Scenario = namedtuple("Scenario", "base eta_fields auto columns reference key_rates",
                      defaults=(None, {}))

_AUTO_FB = {"f_b": lambda p, eta: optimal_fb(p.t2, p.eta_sb, p.eta_ab, p.v_a, p.v_s)}
_TWO_USER_COLUMNS = {
    "eta": None, "f_b": None,
    "PPT_A": ("final_two_user", ("A",)),
    "G_A_to_B": ("final_two_user", Partition((0,), (1,))),
    "G_B_to_A": ("final_two_user", Partition((1,), (0,))),
}
_LINKS = ("eta_sb", "eta_sd", "eta_ab", "eta_bd")

#: The secret-sharing state: fixed coefficients, every user link at the grid efficiency, and
#: the PPT value of each relay ancilla against the rest of its cut, in network order.
_QSS = Scenario(qss_params(), _LINKS, {}, {
    "eta": None, "f_b": None, "f_d": None,
    "G_BD_to_A": ("final_three_user", Partition((1, 2), (0,))),
    "G_B_to_A": ("final_three_user", Partition((1,), (0,))),
    "G_D_to_A": ("final_three_user", Partition((2,), (0,))),
    **{f"ppt_{cut.relay}_vs_{''.join(label for label in cut.labels if label != cut.relay)}":
       (cut.stage, (cut.relay,)) for cut, _, _ in _STAGES.values() if cut.relay},
})

SCENARIO_TABLE = {
    "two_user": Scenario(ProtocolParams(users="two"), ("eta_sb", "eta_ab"), _AUTO_FB,
                         _TWO_USER_COLUMNS),
    "three_user": Scenario(
        ProtocolParams(users="three"), _LINKS,
        {**_AUTO_FB, "f_d": lambda p, eta: optimal_fd(eta, p.v_a, p.v_s)},
        {"eta": None, "f_b": None, "f_d": None,
         "PPT_A": ("final_three_user", ("A",)),
         "PPT_B": ("final_three_user", ("B",)),
         "PPT_D": ("final_three_user", ("D",)),
         "G_A_to_BD": ("final_three_user", Partition((0,), (1, 2))),
         "G_A_to_B": ("final_three_user", Partition((0,), (1,))),
         "G_A_to_D": ("final_three_user", Partition((0,), (2,))),
         "G_B_to_D": ("final_three_user", Partition((1,), (2,)))}),
    "qss": _QSS._replace(key_rates={"key_rate": "G_BD_to_A"}),
    # lossy server-to-Alice link: two-user steering with the general-loss optimum, plus
    # the secret-sharing direction with Alice's link lossy too, for reference
    "appendix_e": Scenario(
        ProtocolParams(users="two"), ("eta_sa", "eta_sb", "eta_ab"),
        {"f_b": lambda p, eta: optimal_fb_general_loss(p.eta_sa, p.eta_sb, p.eta_ab, p.v_a,
                                                       p.v_s)},
        _TWO_USER_COLUMNS,
        reference=_QSS._replace(eta_fields=(*_LINKS, "eta_sa"),
                                columns={"G_BD_to_A_qss": _QSS.columns["G_BD_to_A"]}),
        key_rates={"key_rate_qss": "G_BD_to_A_qss"}),
}


def _refuse_unread(scenario: Scenario, overrides: dict[str, float]) -> None:
    """``ValueError`` naming each override that no column of ``scenario`` reads."""
    if overrides:
        read = frozenset().union(*(_STAGES[s[0]].fields for s in scenario.columns.values() if s))
        unread = sorted(set(overrides) - read)
        if unread:
            raise ValueError(f"no column of this scenario reads {', '.join(unread)}; "
                             f"it reads {', '.join(sorted(read))}")


def scenario_params(scenario: Scenario, eta: float, overrides: dict[str, float]) -> ProtocolParams:
    """Grid-point parameters with auto-optimal coefficients unless overridden; a
    ``ValueError`` names each override that no column of ``scenario`` reads."""
    _refuse_unread(scenario, overrides)
    fields = {**vars(scenario.base), **dict.fromkeys(scenario.eta_fields, eta), **overrides}
    params = ProtocolParams(**fields)  # validates the overrides before they feed ``auto``
    auto = {}
    for name, fn in scenario.auto.items():
        if name in overrides:
            continue
        try:
            auto[name] = fn(params, eta)
        except ValueError as exc:
            hint = "start the grid above 0 or " if eta == 0 else ""
            raise ValueError(f"optimal {name} is undefined at eta = {eta:g}: {exc} "
                             f"({hint}--set {name})") from None
    return ProtocolParams(**{**fields, **auto}) if auto else params


def _scan_row(params: ProtocolParams, eta: float, columns: dict) -> dict[str, float]:
    """One table row at grid efficiency ``eta``, building each needed stage once.

    ``columns`` maps a name to ``None`` (``eta`` or that field), to ``(stage, party)``
    for the PPT value of the ``party`` labels against the rest of the ``stage`` modes,
    or to ``(stage, partition)`` for the steerability across a ``Partition``."""
    states = {}
    row = {}
    for name, spec in columns.items():
        if spec is None:
            row[name] = float(eta) if name == "eta" else getattr(params, name)
            continue
        stage, what = spec
        if stage not in states:
            states[stage] = build_network_state(params, stage)
        state = states[stage]
        row[name] = (steerability(state, what) if isinstance(what, Partition)
                     else ppt_min(state, what))
    return row


def scan(scenario: Scenario, etas: Sequence[float],
         overrides: dict[str, float] | None = None) -> ScanResult:
    """One row of ``scenario`` per grid efficiency; ``overrides`` pin parameter fields, and
    each must be one that a column of ``scenario`` reads (``ValueError`` otherwise)."""
    reference = scenario.reference
    _refuse_unread(scenario, overrides)
    rows = []
    for eta in map(float, etas):
        row = _scan_row(scenario_params(scenario, eta, overrides or {}), eta, scenario.columns)
        if reference:
            row.update(_scan_row(scenario_params(reference, eta, {}), eta, reference.columns))
        for name, source in scenario.key_rates.items():
            row[name] = key_rate(row[source])
        rows.append(row)
    columns = (*scenario.columns, *(reference.columns if reference else ()),
               *scenario.key_rates)
    return ScanResult(columns, tuple(rows))

