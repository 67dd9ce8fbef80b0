"""The benchmark's three workloads, their seeded inputs and correctness gates.

Each workload repeats a fixed *round* of requests.  Every request gets fresh
inputs drawn from the run's seed (a new grid, efficiency, shot seed or
matrix file), so a cache kept across calls cannot pass for a speed-up.
Each request is timed alone; its output is checked afterwards, outside the
timed region, and a request that raises, exits non-zero or fails its check
counts as failed.

* ``scan_grid``: ``cvsteer scan`` of the four scenarios on 1000-point grids.
* ``montecarlo``: ``cvsteer montecarlo`` at 1M shots for three scenarios.
* ``optimize_certify``: one closed-loop client alternating ``cvsteer
  certify`` on fresh matrix files with ``numeric_optimize_coefficient``.
"""

from __future__ import annotations

import ast
import json
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cvsteer import cli, optimize, protocol
from cvsteer.criteria import ppt_min
from cvsteer.protocol import ProtocolParams

from tracer import Tracer

#: ``.6g`` output keeps six significant digits: relative rounding <= 5e-6.
PRINT_RTOL = 5.0001e-6

SCAN_POINTS = 1000
SCAN_FORMAT = {"two_user": "csv", "three_user": "json", "qss": "csv", "appendix_e": "json"}
SCAN_COLUMNS = {
    "two_user": ("eta", "f_b", "PPT_A", "G_A_to_B", "G_B_to_A"),
    "three_user": ("eta", "f_b", "f_d", "PPT_A", "PPT_B", "PPT_D",
                   "G_A_to_BD", "G_A_to_B", "G_A_to_D", "G_B_to_D"),
    "qss": ("eta", "f_b", "f_d", "G_BD_to_A", "G_B_to_A", "G_D_to_A",
            "ppt_C1_vs_AB0", "ppt_C2_vs_ABD0", "key_rate"),
    "appendix_e": ("eta", "f_b", "PPT_A", "G_A_to_B", "G_B_to_A",
                   "G_BD_to_A_qss", "key_rate_qss"),
}
#: Rows per scan re-derived at full precision through ``cli.cmd_scan``.
FULL_PRECISION_ROWS = 2

MC_SCENARIOS = ("two_user", "three_user", "appendix_e")
MC_SHOTS = 1_000_000

#: (objective, coefficient searched) per optimizer request.
OBJECTIVES = (("steer_A_to_B", "f_b"), ("steer_A_to_BD", "f_d"), ("steer_BD_to_A", "f_d"))
#: Certify requests the client issues before each optimizer request.
CERTIFY_PER_OPTIMIZE = 4


class GateFailure(Exception):
    """A request's output failed its correctness check."""


@dataclass
class Sample:
    """One timed request: its kind, latency and the work it completed."""

    kind: str
    seconds: float
    units: float   # grid points, shots or certified files
    points: int    # state configurations certified (for per-layer ratios)


@dataclass
class Ledger:
    """Attempted and failed requests, timed ones and gate-only ones alike."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def run(self, what: str, check) -> bool:
        """Count one attempt; run ``check`` and record it failed if it raises."""
        self.attempted += 1
        try:
            check()
        except GateFailure as exc:
            self.fail(what, str(exc))
            return False
        except Exception:  # a crash in the program or the check is a failure
            self.fail(what, traceback.format_exc(limit=4))
            return False
        return True

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        self.reasons.append(f"{what}: {why}")
        print(f"FAILED {what}: {why}", file=sys.stderr)


@dataclass
class Context:
    """What every workload needs: paths, the seeded stream and the ledger."""

    root: Path
    work: Path
    rng: np.random.Generator
    ledger: Ledger
    tracer: Tracer
    tracing: bool = False
    requests: int = 0

    def timed(self, kind: str, units: float, points: int, fn, check) -> Sample | None:
        """Time ``fn()`` as one request, then check its result untimed."""
        rid = self.requests
        self.requests += 1
        if self.tracing:
            self.tracer.begin_request(rid, f"request.{kind}")
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the request failed; recorded below, untimed
            failure = traceback.format_exc(limit=4)
        else:
            failure = None
        seconds = time.perf_counter() - start
        if self.tracing:
            self.tracer.end_request(failure is None)
        if failure is not None:
            self.ledger.attempted += 1
            self.ledger.fail(kind, failure)
            return None
        if not self.ledger.run(kind, lambda: check(result)):
            return None
        return Sample(kind, seconds, units, points)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


def _close(got: float, want: float, what: str, atol: float = 1e-9) -> None:
    """``got`` was printed to six significant digits from a value equal to ``want``."""
    expect(abs(got - want) <= PRINT_RTOL * abs(want) + atol, f"{what}: got {got!r}, want {want!r}")


def _cli_ok(code: int) -> None:
    expect(code == 0, f"exit code {code}")


def tracer_self_check(ctx: Context) -> None:
    """Exact call counts on small fixed scans prove every bound name is wrapped.

    ``cli``, ``protocol`` and ``optimize`` import ``ppt_min``, ``steerability``
    and ``build_network_state`` by name, so a tracer that patched only the
    defining modules would undercount here.
    """
    tracer = ctx.tracer
    tracer.install()
    try:
        missed = tracer.unwrapped_references()
        expect(not missed, f"names left unwrapped: {missed}")
        expected = {
            "two_user": {"protocol.build_network_state": 10, "criteria.ppt_min": 10,
                         "criteria.steerability": 20},
            "qss": {"protocol.build_network_state": 30},
        }
        for scenario, want in expected.items():
            tracer.reset()
            tracer.begin_request(ctx.requests, "selfcheck")
            ctx.requests += 1
            code = cli.main(["scan", "--scenario", scenario, "--eta-grid", "0.1:1.0:10",
                             "--out", str(ctx.work / "selfcheck.csv")])
            tracer.end_request(code == 0)
            got = Counter(tracer.names[i] for i in tracer.name_id)
            for name, n in want.items():
                expect(got[name] == n, f"{scenario}: {got[name]} {name} spans, want {n}")
    finally:
        tracer.uninstall()
        tracer.reset()
    left = tracer.bound_wrappers()
    expect(not left, f"uninstall left wrappers bound: {left}")


# ---------------------------------------------------------------------------
# scan_grid
# ---------------------------------------------------------------------------


class ScanGrid:
    """Per-point dispatch through ``protocol``, ``criteria`` and ``core``."""

    name = "scan_grid"
    throughput_name = "scan_points_per_s"
    throughput_kind = "scan"
    latency_kind = "scan"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.defaults = ProtocolParams()

    def gates(self) -> None:
        golden = self.ctx.root / "tests" / "golden" / "scan_two_user.csv"
        out = self.ctx.work / "golden.csv"

        def check() -> None:
            _cli_ok(cli.main(["scan", "--scenario", "two_user", "--eta-grid", "0.2:1.0:5",
                              "--out", str(out)]))
            expect(out.read_bytes() == golden.read_bytes(),
                    "two_user 0.2:1.0:5 differs from tests/golden/scan_two_user.csv")

        self.ctx.ledger.run("gate.golden_scan", check)

    def round(self):
        """Yield one timed sample (or None if it failed) per request of a round."""
        for scenario, fmt in SCAN_FORMAT.items():
            lo = float(self.ctx.rng.uniform(0.09, 0.11))
            hi = float(self.ctx.rng.uniform(0.98, 1.0))
            sampled = self.ctx.rng.choice(SCAN_POINTS, FULL_PRECISION_ROWS, replace=False)
            out = self.ctx.work / f"scan_{scenario}.{fmt}"
            out.unlink(missing_ok=True)
            argv = ["scan", "--scenario", scenario, "--eta-grid", f"{lo!r}:{hi!r}:{SCAN_POINTS}",
                    "--format", fmt, "--out", str(out)]
            yield self.ctx.timed(
                f"scan.{scenario}", SCAN_POINTS, SCAN_POINTS, lambda: cli.main(argv),
                lambda code: self.check(scenario, np.linspace(lo, hi, SCAN_POINTS), sampled,
                                        out, code))

    def check(self, scenario: str, etas: np.ndarray, sampled, out: Path, code: int) -> None:
        _cli_ok(code)
        columns, rows = _read_table(out, SCAN_FORMAT[scenario])
        expect(columns == SCAN_COLUMNS[scenario], f"columns {columns}")
        expect(len(rows) == len(etas), f"{len(rows)} rows for {len(etas)} grid points")
        for eta, row in zip(etas, rows):
            eta = float(eta)
            expect(all(math.isfinite(v) for v in row.values()), f"non-finite row at {eta}")
            for col in SCAN_COLUMNS[scenario]:
                if col.startswith(("G_", "key_rate")):
                    expect(row[col] >= 0.0, f"{col} negative at eta={eta!r}")
                elif col.lower().startswith("ppt"):
                    expect(row[col] > 0.0, f"{col} not positive at eta={eta!r}")
            for col, want, atol in self._expected(scenario, eta, row):
                _close(row[col], want, f"{scenario} {col} at eta={eta!r}", atol)
        if scenario in ("two_user", "three_user"):
            for i in sampled:
                self._check_full_precision(scenario, float(etas[i]), rows[i])

    def _expected(self, scenario: str, eta: float, row: dict) -> list[tuple[str, float, float]]:
        """(column, value, absolute slack) known independently of the scan loop.

        Key rates are recomputed from the printed steering value, hence the
        wider slack for its rounding.
        """
        d = self.defaults
        out = [("eta", eta, 1e-9)]
        if scenario == "two_user":
            out.append(("f_b", optimize.optimal_fb(d.t2, eta, eta, d.v_a, d.v_s), 1e-9))
            out.append(("G_A_to_B",
                        protocol.closed_form_steering_two_user(_two_user(eta)), 1e-9))
        elif scenario == "three_user":
            out.append(("f_b", optimize.optimal_fb(d.t2, eta, eta, d.v_a, d.v_s), 1e-9))
            out.append(("f_d", optimize.optimal_fd(eta, d.v_a, d.v_s), 1e-9))
            closed = protocol.closed_form_steering_three_user(_three_user(eta))
            out += [(col, g, 1e-9) for col, g in zip(("G_A_to_BD", "G_A_to_B", "G_A_to_D"),
                                                     closed)]
        elif scenario == "qss":
            out += [("f_b", protocol.QSS_F_B, 1e-9), ("f_d", protocol.QSS_F_D, 1e-9),
                    ("key_rate", optimize.key_rate(row["G_BD_to_A"]), 2e-5)]
        else:
            out.append(("f_b", optimize.optimal_fb_general_loss(eta, eta, eta, d.v_a, d.v_s),
                        1e-9))
            out.append(("key_rate_qss", optimize.key_rate(row["G_BD_to_A_qss"]), 2e-5))
        return out

    def _check_full_precision(self, scenario: str, eta: float, printed: dict) -> None:
        """The same row at full precision matches the closed form to 1e-9."""
        config = cli.RunConfig(scenario=scenario, eta_start=eta, eta_stop=eta, eta_steps=1)
        row = cli.cmd_scan(config).rows[0]
        if scenario == "two_user":
            pairs = [(protocol.closed_form_steering_two_user(_two_user(eta)), "G_A_to_B")]
        else:
            closed = protocol.closed_form_steering_three_user(_three_user(eta))
            pairs = list(zip(closed, ("G_A_to_BD", "G_A_to_B", "G_A_to_D")))
        for want, col in pairs:
            expect(abs(row[col] - want) <= 1e-9,
                    f"{scenario} {col} at eta={eta!r}: {row[col]!r} vs closed form {want!r}")
        for col in SCAN_COLUMNS[scenario]:
            _close(printed[col], row[col], f"{scenario} printed {col} at eta={eta!r}")


def _two_user(eta: float) -> ProtocolParams:
    return ProtocolParams(users="two", eta_sb=eta, eta_ab=eta)


def _three_user(eta: float) -> ProtocolParams:
    return ProtocolParams(users="three", eta_sb=eta, eta_sd=eta, eta_ab=eta, eta_bd=eta)


def _read_table(path: Path, fmt: str) -> tuple[tuple[str, ...], list[dict[str, float]]]:
    if fmt == "json":
        payload = json.loads(path.read_text())
        return tuple(payload["columns"]), payload["rows"]
    lines = path.read_text().splitlines()
    columns = tuple(lines[0].split(","))
    return columns, [dict(zip(columns, map(float, line.split(",")))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


class MonteCarlo:
    """Shot sampling, covariance estimation and comparison in ``sampler``."""

    name = "montecarlo"
    throughput_name = "mc_shots_per_s"
    throughput_kind = "montecarlo"
    latency_kind = "montecarlo"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def _request(self, scenario: str, eta: float, seed: int, out: Path) -> list[str]:
        return ["montecarlo", "--scenario", scenario, "--eta-grid", f"{eta!r}:{eta!r}:1",
                "--shots", str(MC_SHOTS), "--seed", str(seed), "--out", str(out)]

    def gates(self) -> None:
        """Repeating a seed must give a byte-identical report."""
        eta = float(self.ctx.rng.uniform(0.3, 1.0))
        seed = int(self.ctx.rng.integers(1, 2**31 - 1))
        first, second = self.ctx.work / "mc_first.txt", self.ctx.work / "mc_second.txt"

        def check() -> None:
            for out in (first, second):
                code = cli.main(self._request("three_user", eta, seed, out))
                self.check("three_user", seed, out, code)
            expect(first.read_bytes() == second.read_bytes(),
                    f"montecarlo seed {seed} gave two different reports")

        self.ctx.ledger.run("gate.montecarlo_repeat", check)

    def round(self):
        """Yield one timed sample (or None if it failed) per request of a round."""
        for scenario in MC_SCENARIOS:
            eta = float(self.ctx.rng.uniform(0.3, 1.0))
            seed = int(self.ctx.rng.integers(1, 2**31 - 1))
            out = self.ctx.work / f"mc_{scenario}.txt"
            out.unlink(missing_ok=True)
            argv = self._request(scenario, eta, seed, out)
            yield self.ctx.timed(
                f"montecarlo.{scenario}", MC_SHOTS, 1, lambda: cli.main(argv),
                lambda code: self.check(scenario, seed, out, code))

    def check(self, scenario: str, seed: int, out: Path, code: int) -> None:
        _cli_ok(code)
        report = dict(line.split(": ", 1) for line in out.read_text().splitlines()
                      if ": " in line and not line.startswith(" "))
        expect(report.get("scenario") == scenario, f"scenario {report.get('scenario')}")
        expect(report.get("shots") == str(MC_SHOTS), f"shots {report.get('shots')}")
        expect(report.get("seed") == str(seed), f"seed {report.get('seed')}")
        flagged = [v for k, v in report.items() if k.startswith("flagged elements")]
        expect(flagged == ["none"], f"flagged elements: {flagged}")


# ---------------------------------------------------------------------------
# optimize_certify
# ---------------------------------------------------------------------------


class OptimizeCertify:
    """Scalar, sequential ``criteria``/``protocol`` calls of a closed-loop client."""

    name = "optimize_certify"
    throughput_name = "certify_files_per_s"
    throughput_kind = "certify"
    latency_kind = "optimize"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.defaults = ProtocolParams()
        self.files = 0

    def gates(self) -> None:
        """The two published reference matrices reproduce their PPT values."""
        refs = _conftest_constants(self.ctx.root / "tests" / "conftest.py")
        for size in ("THREE", "FOUR"):
            cov = np.array(refs[f"{size}_MODE_REFERENCE"], dtype=float)
            labels = tuple(refs[f"{size}_MODE_LABELS"])
            expected = refs[f"{size}_MODE_PPT"]
            path = self.ctx.work / f"reference_{size.lower()}.txt"
            lines = ["# labels: " + " ".join(labels)]
            lines += [" ".join(f"{v:g}" for v in row) for row in cov]
            path.write_text("\n".join(lines) + "\n")
            out = self.ctx.work / f"reference_{size.lower()}.json"

            def check(path=path, out=out, labels=labels, expected=expected) -> None:
                _cli_ok(cli.main(["certify", str(path), "--out", str(out)]))
                ppt = json.loads(out.read_text())["ppt"]
                for label, want in zip(labels, expected):
                    key = _one_vs_rest(label, labels)
                    expect(abs(ppt[key] - want) <= 0.01, f"{key}: {ppt[key]} vs {want}")

            self.ctx.ledger.run(f"gate.reference_{size.lower()}_mode", check)

    def round(self):
        """Yield one timed sample (or None if it failed) per request of a round."""
        # this round's input files are written before any request is timed
        files = [self._write_matrix(3 + k % 2) for k in range(CERTIFY_PER_OPTIMIZE * 3)]
        for n, (objective, which) in enumerate(OBJECTIVES):
            for path, cov, labels in files[n * CERTIFY_PER_OPTIMIZE:(n + 1) * CERTIFY_PER_OPTIMIZE]:
                out = path.with_suffix(".json")
                argv = ["certify", str(path), "--out", str(out)]
                yield self.ctx.timed(
                    "certify", 1, 1, lambda: cli.main(argv),
                    lambda code: _check_certify(code, out, cov, labels))
            eta = float(self.ctx.rng.uniform(0.3, 1.0))
            params = self._params(objective, eta)
            yield self.ctx.timed(
                f"optimize.{objective}", 1, 0,
                lambda: optimize.numeric_optimize_coefficient(objective, params, which),
                lambda result: self.check_optimum(objective, params, eta, result))

    def _write_matrix(self, n_modes: int) -> tuple[Path, np.ndarray, tuple[str, ...]]:
        cov = random_mixed_state(self.ctx.rng, n_modes)
        labels = tuple(f"R{i + 1}" for i in range(n_modes))
        self.files += 1
        path = self.ctx.work / f"matrix_{self.files % 64}.txt"
        lines = ["# labels: " + " ".join(labels)]
        lines += [" ".join(f"{v:.12g}" for v in row) for row in cov]
        path.write_text("\n".join(lines) + "\n")
        return path, cov, labels

    def _params(self, objective: str, eta: float) -> ProtocolParams:
        d = self.defaults
        f_b = optimize.optimal_fb(d.t2, 1.0, 1.0, d.v_a, d.v_s)  # equal etas cancel
        if objective == "steer_A_to_B":
            return _two_user(eta).replace(f_b=f_b)
        if objective == "steer_A_to_BD":
            return _three_user(eta).replace(f_b=f_b, f_d=optimize.optimal_fd(eta, d.v_a, d.v_s))
        return protocol.qss_params(eta)

    def check_optimum(self, objective: str, params: ProtocolParams, eta: float, result) -> None:
        d = self.defaults
        if objective == "steer_A_to_B":
            want = optimize.optimal_fb(d.t2, eta, eta, d.v_a, d.v_s)
            expect(abs(result.f_star - want) <= 1e-4, f"f_b* {result.f_star} vs {want}")
        elif objective == "steer_A_to_BD":
            want = optimize.optimal_fd(eta, d.v_a, d.v_s)
            expect(abs(result.f_star - want) <= 1e-4, f"f_d* {result.f_star} vs {want}")
        else:
            trial = params.replace(f_d=result.f_star)
            margin = min(
                ppt_min(protocol.build_network_state(trial, "pre_bob"), ["C1"]),
                ppt_min(protocol.build_network_state(trial, "pre_david"), ["C2"])) - 1.0
            expect(margin >= -1e-9, f"ancilla PPT margin {margin} at f_d*={result.f_star}")
        expect(math.isfinite(result.g_star) and result.g_star >= 0.0, f"g* {result.g_star}")


def random_mixed_state(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """Covariance ``S diag(nu) S^T`` with a random Bloch-Messiah symplectic ``S``.

    Thermal symplectic eigenvalues ``nu >= 1.05`` keep the state physical
    with margin after the file's 12-digit rounding; squeezing up to
    ``r = 0.9`` on random passive mixes gives both separable and entangled
    one-versus-rest splits.
    """
    nu = np.repeat(rng.uniform(1.05, 1.6, n_modes), 2)
    r = rng.uniform(0.0, 0.9, n_modes)
    squeeze = np.diag(np.exp(np.column_stack([-r, r]).ravel()))
    s = _random_passive(rng, n_modes) @ squeeze @ _random_passive(rng, n_modes)
    cov = s @ np.diag(nu) @ s.T
    return (cov + cov.T) / 2.0


def _random_passive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal symplectic matrix of a Haar-random interferometer, (x, p) per mode."""
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    o = np.empty((2 * n, 2 * n))
    o[0::2, 0::2], o[0::2, 1::2] = u.real, -u.imag
    o[1::2, 0::2], o[1::2, 1::2] = u.imag, u.real
    return o


def _oracle_ppt(cov: np.ndarray, mode: int) -> float:
    """Minimum symplectic eigenvalue after transposing ``mode``, straight from numpy."""
    n = cov.shape[0] // 2
    signs = np.ones(2 * n)
    signs[2 * mode + 1] = -1.0
    omega = np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])
    return float(np.abs(np.linalg.eigvals(omega @ (cov * np.outer(signs, signs)))).min())


def _one_vs_rest(label: str, labels) -> str:
    return f"{label}|" + ",".join(m for m in labels if m != label)


def _check_certify(code: int, out: Path, cov: np.ndarray, labels) -> None:
    _cli_ok(code)
    report = json.loads(out.read_text())
    expect(set(report["ppt"]) == {_one_vs_rest(l, labels) for l in labels},
            f"splits {sorted(report['ppt'])}")
    tol = report["separability_tol"]
    for mode, label in enumerate(labels):
        key = _one_vs_rest(label, labels)
        want = _oracle_ppt(cov, mode)
        _close(report["ppt"][key], want, f"ppt {key}")
        if abs(want - 1.0) > 1e-6:
            verdict = "separable" if want >= 1.0 - tol else "inseparable"
            expect(report["verdicts"][key] == verdict, f"verdict {key}")
        rest = key.split("|")[1]
        for direction in (f"{label}->{rest}", f"{rest}->{label}"):
            g = report["steering"][direction]
            expect(math.isfinite(g) and g >= 0.0, f"steering {direction} = {g}")


def _conftest_constants(path: Path) -> dict:
    """Literal module-level constants of the test suite's conftest, read by ``ast``.

    ``np.array([...])`` assignments yield their nested-list argument; the
    file is parsed, never imported, so the benchmark does not need pytest.
    """
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            value = node.value
            if isinstance(value, ast.Call) and value.args:
                value = value.args[0]
            try:
                out[node.targets[0].id] = ast.literal_eval(value)
            except ValueError:
                continue
    return out


WORKLOADS = {w.name: w for w in (ScanGrid, MonteCarlo, OptimizeCertify)}
