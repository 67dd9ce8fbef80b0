"""Optimal displacement coefficients, deployment figures of merit, and scans.

The analytic formulas give the displacement weights that maximize the
distributed steerability for each network layout; ``numeric_optimize_coefficient``
re-derives them by direct golden-section search on the pipeline state under
the ancilla-separability constraint, serving as an independent check.  Its
coarse bracket is evaluated as one stack of states per network stage through
the batched kernels of ``protocol`` and ``criteria``; the golden-section
refinement then evaluates one coefficient at a time through the same kernels.

Deployment math: the guaranteed secret-key rate extractable from collective
steering and the fiber length corresponding to a channel efficiency.

Scans: ``SCENARIO_TABLE`` holds each scenario of the paper as data (parameters
at a grid efficiency, with the optimal coefficients above, and the columns it
reports); ``scan`` runs one over an efficiency grid, and ``qss_scenario`` the
secret-sharing one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import SYMMETRY_TOL, _checked_cov
from .criteria import SEPARABILITY_TOL, Partition, _ppt_cov, _steer_cov, ppt_min, steerability
from .protocol import ProtocolParams, _network_cov, build_network_state, qss_params

__all__ = [
    "OptimizationResult",
    "SCENARIOS",
    "SCENARIO_TABLE",
    "ScanResult",
    "Scenario",
    "fiber_distance",
    "golden_section_maximize",
    "key_rate",
    "numeric_optimize_coefficient",
    "optimal_fb",
    "optimal_fb_general_loss",
    "optimal_fd",
    "optimal_fd_general_loss",
    "qss_scenario",
    "scan",
    "scenario_params",
]

#: Key-rate offset: ln(e/2), kept symbolic as 1 - ln 2.
KEY_RATE_OFFSET = 1.0 - math.log(2.0)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: Coarse pre-scan spacing used to bracket the steering window, which is
#: zero-flat outside a finite coefficient interval.
_SCAN_STEP = 0.05

#: Relay ancillas with a PPT value below this count as entangled.
_SEPARABLE = 1.0 - SEPARABILITY_TOL

#: The relay ancilla's mode index at its cut: ``C1`` of ``pre_bob`` and ``C2`` of ``pre_david``.
_ANCILLA = (2,)


def optimal_fb(t2: float, eta_sb: float, eta_ab: float, v_a: float, v_s: float) -> float:
    """Displacement weight on Bob's mode maximizing the A -> B steerability."""
    if t2 <= 0 or eta_sb <= 0:
        raise ValueError("t2 and eta_sb must be positive")
    return math.sqrt(2.0 * eta_ab * (1.0 - t2)) * v_a / (math.sqrt(eta_sb * t2) * (v_a + v_s))


def optimal_fd(eta: float, v_a: float, v_s: float) -> float:
    """Displacement weight on David's mode maximizing A -> BD steering.

    Balanced beam splitters and one common channel efficiency assumed.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return 2.0 * math.sqrt(eta) * v_a / (v_a + v_s)


def optimal_fb_general_loss(
    eta_sa: float, eta_sb: float, eta_ab: float, v_a: float, v_s: float
) -> float:
    """Optimal weight on Bob's mode when Alice's channel is lossy too.

    Balanced ``t2`` assumed; reduces to ``optimal_fb`` at ``eta_sa = 1``.
    Derived by maximizing the A -> B steering monotone of the two-user
    output state over the coefficient.
    """
    if eta_sb <= 0:
        raise ValueError("eta_sb must be positive")
    return (
        math.sqrt(2.0 * eta_sa * eta_ab / eta_sb)
        * (1.0 + (v_a - 1.0) * eta_sa)
        / (2.0 + (v_a + v_s - 2.0) * eta_sa)
    )


def optimal_fd_general_loss(eta: float, v_a: float, v_s: float) -> float:
    """Optimal weight on David's mode with every channel (Alice's too) at ``eta``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 0.0:
        return 0.0
    return math.sqrt(2.0 * eta) * optimal_fb_general_loss(eta, eta, eta, v_a, v_s)


def key_rate(g_bd_to_a: float) -> float:
    """Guaranteed secret-key rate from collective steering toward the dealer."""
    if g_bd_to_a < 0:
        raise ValueError("steerability must be nonnegative")
    return max(0.0, g_bd_to_a - KEY_RATE_OFFSET)


def fiber_distance(eta: float, alpha_db_per_km: float = 0.2) -> float:
    """Fiber length whose transmission is ``eta``, for loss ``alpha`` dB/km."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if alpha_db_per_km <= 0:
        raise ValueError("fiber loss must be positive")
    return -10.0 * math.log10(eta) / alpha_db_per_km


def golden_section_maximize(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-6
) -> tuple[float, float]:
    """Golden-section search for the maximum of a unimodal function on [lo, hi].

    Returns ``(x_star, fn(x_star))`` with ``x_star`` located to within ``tol``.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(c), fn(d)
    while h > tol:
        h *= _INV_PHI
        if yc > yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a single-coefficient steering optimization."""

    f_star: float
    g_star: float
    constraint_active: bool
    method: str
    at_boundary: bool = False


_OBJECTIVE_STAGE = {
    "steer_A_to_B": ("final_two_user", Partition((0,), (1,))),
    "steer_A_to_BD": ("final_three_user", Partition((0,), (1, 2))),
    "steer_BD_to_A": ("final_three_user", Partition((1, 2), (0,))),
}


def _covariances(params: ProtocolParams, stage: str, which: str,
                 values: np.ndarray) -> np.ndarray:
    """The validated covariances at ``stage``, one per value of coefficient ``which``."""
    return _checked_cov(_network_cov(params, stage, **{which: values}), SYMMETRY_TOL)


def _ancilla_ppt(params: ProtocolParams, stage: str, which: str, xs: np.ndarray) -> np.ndarray:
    """Smallest PPT value of the relay ancillas in flight before ``stage`` at each value in
    ``xs`` of ``which``: ``C1``, and for three users ``C2`` where ``C1`` is separable."""
    ppt = _ppt_cov(_covariances(params, "pre_bob", which, xs), _ANCILLA)
    if stage == "final_three_user":
        ok = ppt >= _SEPARABLE
        c2 = _ppt_cov(_covariances(params, "pre_david", which, xs[ok]), _ANCILLA)
        ppt[ok] = np.minimum(ppt[ok], c2)
    return ppt


def numeric_optimize_coefficient(
    objective: str,
    params: ProtocolParams,
    which: str,
    bounds: tuple[float, float] = (0.0, 4.0),
    enforce_separability: bool = True,
) -> OptimizationResult:
    """Maximize a steering objective over one displacement coefficient.

    ``objective`` is one of ``steer_A_to_B``, ``steer_A_to_BD`` or
    ``steer_BD_to_A``; ``which`` selects the coefficient (``"f_b"`` or
    ``"f_d"``), the other staying at its value in ``params``.  Candidate
    points that break the ancilla-separability requirement are rejected
    outright when ``enforce_separability`` is set.

    The steering objective is identically zero outside a finite coefficient
    window, so a coarse scan first brackets the window and golden-section
    search then refines inside it.  If no interior maximum exists the best
    boundary point is reported with ``at_boundary`` set.
    """
    if objective not in _OBJECTIVE_STAGE:
        raise ValueError(f"unknown objective {objective!r}")
    if which not in ("f_b", "f_d"):
        raise ValueError(f"which must be 'f_b' or 'f_d', got {which!r}")
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got {bounds}")
    if hi <= lo:
        raise ValueError("bounds must satisfy lo < hi")
    stage, partition = _OBJECTIVE_STAGE[objective]
    if stage == "final_three_user" and params.users != "three":
        params = params.replace(users="three")

    def evaluate(xs) -> np.ndarray:
        """Objective at each coefficient in ``xs``, ``-inf`` where an ancilla is entangled;
        each stage is one stack, and no final state is built for an infeasible point."""
        xs = np.asarray(xs, dtype=float)
        ok = np.full(xs.shape, True)
        if enforce_separability:
            ok = _ancilla_ppt(params, stage, which, xs) >= _SEPARABLE
        ys = np.full(xs.shape, -math.inf)
        ys[ok] = _steer_cov(_covariances(params, stage, which, xs[ok]), partition)
        return ys

    n_scan = max(3, int(math.ceil((hi - lo) / _SCAN_STEP)) + 1)
    xs = [lo + (hi - lo) * k / (n_scan - 1) for k in range(n_scan)]
    ys = evaluate(xs)
    best = int(np.argmax(ys))
    if not math.isfinite(ys[best]):
        raise ValueError("no feasible point in bounds: separability violated everywhere")

    x_star, g_star = xs[best], ys[best]
    interior = 0 < best < n_scan - 1
    if interior:
        x, g = golden_section_maximize(lambda x: float(evaluate([x])[0]),
                                       xs[best - 1], xs[best + 1])
        if math.isfinite(g):  # otherwise it landed on an infeasible edge point
            x_star, g_star = x, g

    active = False
    if enforce_separability:  # x_star is feasible then, so both relays are checked there
        margin = _ancilla_ppt(params, stage, which, np.array([x_star]))[0] - 1.0
        active = margin < 1e-6
    return OptimizationResult(
        f_star=float(x_star),
        g_star=float(g_star),
        constraint_active=bool(active),
        method="golden_section",
        at_boundary=not interior,
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

#: The secret-sharing state: fixed coefficients, every user link at the grid efficiency.
_QSS = Scenario(qss_params(), _LINKS, {}, {
    "eta": None, "f_b": None, "f_d": None,
    "G_BD_to_A": ("final_three_user", Partition((1, 2), (0,))),
    "G_B_to_A": ("final_three_user", Partition((1,), (0,))),
    "G_D_to_A": ("final_three_user", Partition((2,), (0,))),
    "ppt_C1_vs_AB0": ("pre_bob", ("C1",)),
    "ppt_C2_vs_ABD0": ("pre_david", ("C2",)),
})
#: The same with Alice's channel at the grid efficiency too.
_QSS_LOSSY_ALICE = _QSS._replace(eta_fields=(*_LINKS, "eta_sa"))

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
        reference=_QSS_LOSSY_ALICE._replace(
            columns={"G_BD_to_A_qss": _QSS.columns["G_BD_to_A"]}),
        key_rates={"key_rate_qss": "G_BD_to_A_qss"}),
}

SCENARIOS = tuple(SCENARIO_TABLE)


def scenario_params(scenario: Scenario, eta: float, overrides: dict[str, float]) -> ProtocolParams:
    """Grid-point parameters with auto-optimal coefficients unless overridden."""
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
    """One row of ``scenario`` per grid efficiency; ``overrides`` pin parameter fields."""
    reference = scenario.reference
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


def qss_scenario(
    etas: Sequence[float],
    eta_sa_follows: bool = False,
    overrides: dict[str, float] | None = None,
) -> ScanResult:
    """Collective-steering scan of the secret-sharing scenario.

    Per grid efficiency: the steerabilities of the (B,D) group and of each
    user alone toward Alice, plus the PPT values certifying that both relay
    ancillas stay separable.  ``eta_sa_follows`` also subjects Alice's
    channel to the grid efficiency; ``overrides`` pins any parameter field
    across the whole grid.
    """
    return scan(_QSS_LOSSY_ALICE if eta_sa_follows else _QSS, etas, overrides)
