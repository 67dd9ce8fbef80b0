"""Command-line surface: scans, certification, coefficient tables, Monte Carlo.

Scenarios and scans are ``optimize``'s (``SCENARIO_TABLE``, ``scan``); this
module parses run settings, reads and writes files, and formats the results.

Subcommands
-----------
``scan``        grid of channel efficiencies -> PPT / steering table (CSV or JSON)
``certify``     PPT + steering certification of a covariance-matrix file
``table-a1``    optimal displacement coefficients versus channel efficiency
``montecarlo``  shot-level validation of the analytic covariances

All output is deterministic given the inputs (including RNG seeds).  The output
path (``--out`` or a config file's ``out``) is opened before the command runs, so an
unwritable one fails before any work.  Exit
codes: 0 success, 2 usage or configuration error, 3 input-data error,
4 numerical failure (e.g. a covariance that is not positive definite).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import optimize, sampler
from .core import GaussianState
from .criteria import Partition, SteeringReport, full_report, symplectic_eigenvalues
from .optimize import SCENARIOS, ScanResult
from .protocol import STAGES, ProtocolParams, build_network_state

__all__ = [
    "CliError",
    "InputDataError",
    "NumericalError",
    "RunConfig",
    "UsageError",
    "cmd_certify",
    "cmd_montecarlo",
    "cmd_scan",
    "cmd_table_a1",
    "main",
    "read_cov_matrix_file",
    "write_cov_matrix_file",
]

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

#: Published matrices carry three decimals, so rounding alone can make them
#: asymmetric by up to 1e-3; accept that and symmetrize on ingestion.
INPUT_SYMMETRY_TOL = 2e-3

#: ``certify`` refuses a smallest symplectic eigenvalue below this, not below 1: the
#: published four-mode reconstruction, a measured matrix, reads 0.9735.
MIN_SYMPLECTIC_EIGENVALUE = 0.95

_PARAM_FIELDS = {f.name for f in dataclasses.fields(ProtocolParams)} - {"users"}

#: Run settings a config file or a flag can give besides the ``_PARAM_FIELDS`` overrides.
_RUN_KEYS = ("scenario", "eta_grid", "format", "out", "seed", "shots")


class CliError(Exception):
    exit_code = EXIT_USAGE


class UsageError(CliError):
    exit_code = EXIT_USAGE


class InputDataError(CliError):
    exit_code = EXIT_INPUT


class NumericalError(CliError):
    exit_code = EXIT_NUMERIC


@dataclass(frozen=True)
class RunConfig:
    """Everything a scan or Monte Carlo run needs."""

    scenario: str = "two_user"
    eta_start: float = 0.1
    eta_stop: float = 1.0
    eta_steps: int = 10
    overrides: dict[str, float] = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"
    seed: int = 12345
    shots: int = 1_000_000

    def etas(self) -> np.ndarray:
        return np.linspace(self.eta_start, self.eta_stop, self.eta_steps)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _round6(x: float) -> float:
    return float(_fmt(x))


def parse_eta_grid(spec: str) -> tuple[float, float, int]:
    """Parse ``start:stop:steps`` into grid bounds."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"eta grid must look like start:stop:steps, got {spec!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad eta grid {spec!r}: {exc}") from None
    if steps < 1:
        raise UsageError("eta grid needs at least one step")
    for v in (start, stop):
        if not 0.0 <= v <= 1.0:
            raise UsageError(f"eta grid bounds must lie in [0, 1], got {v}")
    return start, stop, steps


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key=value`` configuration file; '#' starts a comment line."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file entries with command-line flags (flags win)."""
    raw = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _RUN_KEYS:
        if getattr(args, key, None) not in (None, ""):
            raw[key] = getattr(args, key)
    for item in getattr(args, "set", None) or []:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"override must look like key=value, got {item!r}")
        if key not in _PARAM_FIELDS:
            raise UsageError(f"unknown parameter {key!r}; settable: {sorted(_PARAM_FIELDS)}")
        raw[key] = value
    overrides: dict[str, float] = {}
    cfg: dict[str, object] = {"overrides": overrides}
    for key, value in raw.items():
        if key in _PARAM_FIELDS:
            try:
                overrides[key] = float(value)
            except ValueError:
                raise UsageError(f"value for {key!r} is not a number: {value!r}") from None
        elif key == "eta_grid":
            cfg["eta_start"], cfg["eta_stop"], cfg["eta_steps"] = parse_eta_grid(value)
        elif key in ("seed", "shots"):
            try:
                cfg[key] = int(value)
            except ValueError:
                raise UsageError(f"{key} must be an integer, got {value!r}") from None
        elif key in _RUN_KEYS:
            cfg["fmt" if key == "format" else key] = value
        else:
            raise UsageError(f"unknown config key {key!r}; "
                             f"known: {sorted({*_RUN_KEYS, *_PARAM_FIELDS})}")
    config = RunConfig(**cfg)  # type: ignore[arg-type]
    if config.scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {config.scenario!r}; choose from {SCENARIOS}")
    if config.fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {config.fmt!r}")
    return config


def cmd_scan(config: RunConfig) -> ScanResult:
    """One table row per grid efficiency for the configured scenario."""
    return optimize.scan(optimize.SCENARIO_TABLE[config.scenario], config.etas(), config.overrides)


def format_scan_csv(result: ScanResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(row[c]) for c in result.columns))
    return "\n".join(lines) + "\n"


def format_scan_json(result: ScanResult) -> str:
    payload = {
        "columns": list(result.columns),
        "rows": [{c: _round6(row[c]) for c in result.columns} for row in result.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# covariance-matrix files
# ---------------------------------------------------------------------------


def read_cov_matrix_file(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Parse a whitespace-separated square matrix with optional label header.

    The header line looks like ``# labels: A B0 C1``.  The matrix must be
    finite, square with even dimension and symmetric within ``INPUT_SYMMETRY_TOL``
    (published matrices are rounded, so mild asymmetry is tolerated and
    symmetrized away).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from None
    labels: tuple[str, ...] | None = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("labels:"):
                labels = tuple(body[len("labels:"):].split())
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError:
            raise InputDataError(f"{path}:{lineno}: non-numeric matrix entry") from None
    if not rows:
        raise InputDataError(f"{path}: no matrix data found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputDataError(f"{path}: ragged rows; expected {width} entries per row")
    if len(rows) != width:
        raise InputDataError(f"{path}: matrix is {len(rows)} x {width}, not square")
    if width % 2:
        raise InputDataError(f"{path}: dimension {width} is odd; need 2 per mode")
    cov = np.array(rows)
    if not np.isfinite(cov).all():
        raise InputDataError(f"{path}: non-finite matrix entry")
    asym = float(np.abs(cov - cov.T).max())
    if asym > INPUT_SYMMETRY_TOL:
        raise InputDataError(
            f"{path}: matrix asymmetric by {asym:.3g} (tolerance {INPUT_SYMMETRY_TOL:g})")
    n = width // 2
    if labels is None:
        labels = tuple(f"M{i + 1}" for i in range(n))
    if len(labels) != n:
        raise InputDataError(f"{path}: {len(labels)} labels for {n} modes")
    if len(set(labels)) != n:
        raise InputDataError(f"{path}: duplicate mode labels: {labels}")
    return labels, (cov + cov.T) / 2.0


def write_cov_matrix_file(path: str, state: GaussianState) -> None:
    """Export a state in the plain-text matrix format ``read_cov_matrix_file`` reads."""
    lines = ["# labels: " + " ".join(state.labels)]
    for row in state.cov:
        lines.append(" ".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def parse_split_spec(spec: str, labels: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Parse ``"A|B0,C1"`` into two label tuples; whitespace is ignored."""
    parts = [p.strip() for p in spec.split("|")]
    if len(parts) != 2:
        raise InputDataError(f"split {spec!r} must have exactly two parties separated by '|'")
    parties = []
    for part in parts:
        members = tuple(tok.strip() for tok in part.split(",") if tok.strip())
        if not members:
            raise InputDataError(f"split {spec!r} has an empty party")
        for m in members:
            if m not in labels:
                raise InputDataError(f"unknown mode label {m!r} in split {spec!r}; "
                                     f"file defines {tuple(labels)}")
        parties.append(members)
    overlap = set(parties[0]) & set(parties[1])
    if overlap:
        raise InputDataError(f"split {spec!r} repeats modes {sorted(overlap)}")
    return parties[0], parties[1]


def cmd_certify(path: str, splits: Sequence[str] | None = None) -> SteeringReport:
    """Certify a covariance-matrix file across the requested splits.

    Without explicit splits, every one-mode-versus-rest bipartition is
    certified.  Raises ``InputDataError`` for a one-mode or unphysical file
    (smallest symplectic eigenvalue below ``MIN_SYMPLECTIC_EIGENVALUE``) and
    ``NumericalError`` if the matrix is not positive definite or certification
    fails numerically, e.g. on an ill-conditioned steering block.
    """
    labels, cov = read_cov_matrix_file(path)
    if len(labels) < 2:
        raise InputDataError(f"{path}: one mode; need at least two modes to certify")
    state = GaussianState(labels, cov)
    partitions = [Partition.from_labels(state, *parse_split_spec(s, labels))
                  for s in splits] if splits else None
    try:
        nu_min = symplectic_eigenvalues(cov)[0]
        if nu_min < MIN_SYMPLECTIC_EIGENVALUE:
            raise InputDataError(f"{path}: unphysical covariance: smallest symplectic "
                                 f"eigenvalue {nu_min:.4g} is below {MIN_SYMPLECTIC_EIGENVALUE:g}")
        return full_report(state, partitions)
    except ArithmeticError as exc:
        raise NumericalError(f"{path}: {exc}") from None


def format_report_json(report: SteeringReport) -> str:
    payload = {
        "separability_tol": report.separability_tol,
        "ppt": {k: _round6(v) for k, v in report.ppt_by_split.items()},
        "steering": {k: _round6(v) for k, v in report.steer_by_direction.items()},
        "verdicts": dict(report.verdicts),
    }
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# coefficient table and Monte Carlo report
# ---------------------------------------------------------------------------

TABLE_ETAS = (1.0, 0.8, 0.6, 0.4, 0.2)


def cmd_table_a1() -> str:
    """Optimal displacement coefficients versus channel efficiency (``three_user``)."""
    lines = ["eta    F_B      F_D"]
    for eta in TABLE_ETAS:
        params = optimize.scenario_params(optimize.SCENARIO_TABLE["three_user"], eta, {})
        lines.append(f"{eta:<6.1f} {params.f_b:<8.3f} {params.f_d:<8.3f}".rstrip())
    return "\n".join(lines) + "\n"


def _open_out(path: str) -> TextIO:
    """``path`` opened for writing; ``UsageError`` if it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _dumped(blocks: Iterator[np.ndarray], fh: TextIO,
            labels: Sequence[str]) -> Iterator[np.ndarray]:
    """Pass ``blocks`` through, writing each to the CSV file ``fh`` as it arrives."""
    fh.write(",".join(f"{q}_{l}" for l in labels for q in ("x", "p")) + "\n")
    for block in blocks:
        np.savetxt(fh, block, delimiter=",", fmt="%.6g")
        yield block


def cmd_montecarlo(config: RunConfig, dump_shots: str | None = None) -> str:
    """Run the shot sampler at the one-step grid's efficiency and report agreement."""
    if config.eta_steps > 1:
        raise UsageError(f"montecarlo takes a one-step eta grid, got {config.eta_steps} steps")
    eta = float(config.eta_start)
    scenario = optimize.SCENARIO_TABLE[config.scenario]
    params = optimize.scenario_params(scenario, eta, config.overrides)
    # the furthest-propagated state the scenario's own columns read
    stage = max((spec[0] for spec in scenario.columns.values() if spec), key=STAGES.index)
    analytic = build_network_state(params, stage)
    if config.shots <= 2 * analytic.n_modes:  # fewer leave the sample covariance singular
        raise UsageError(f"--shots must be at least {2 * analytic.n_modes + 1} for {stage}")
    # the dump file opens before the first block is drawn
    with _open_out(dump_shots) if dump_shots else contextlib.nullcontext() as fh:
        labels, blocks = sampler.shot_blocks(params, stage, config.shots, config.seed)
        if fh is not None:
            blocks = _dumped(blocks, fh, labels)
        estimated = sampler.estimate_covariance(blocks)
    comparison = sampler.compare_covariance(estimated, analytic.cov, config.shots)

    lines = [
        "monte carlo validation",
        f"scenario: {config.scenario}",
        f"stage: {stage}",
        f"eta: {_fmt(eta)}",
        f"shots: {config.shots}",
        f"seed: {config.seed}",
        f"max abs deviation: {_fmt(comparison.max_abs_deviation)}",
        f"max z-score: {_fmt(float(comparison.z_scores.max()))}",
    ]
    pairs = " ".join(f"({i},{j})" for i, j in comparison.flagged) or "none"
    lines.append(f"flagged elements (> {comparison.z_threshold:g} SE): {pairs}")

    # default (one-mode-versus-rest) reports: every split's PPT value, then the first two
    # steering directions, which are those of the first mode's split; zip stops there
    est, ana = full_report(GaussianState(labels, estimated)), full_report(analytic)
    names = [f"PPT {label}|rest" for label in labels] + ["G first->rest", "G rest->first"]
    values = zip([*est.ppt_by_split.values(), *est.steer_by_direction.values()],
                 [*ana.ppt_by_split.values(), *ana.steer_by_direction.values()])
    lines.append("certification, estimated vs analytic:")
    for name, (e, a) in zip(names, values):
        lines.append(f"  {name}: estimated {_fmt(e)} analytic {_fmt(a)} diff {_fmt(abs(e - a))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_run_flags(sub: argparse.ArgumentParser, *, grid_default: str | None) -> None:
    sub.add_argument("--scenario", choices=SCENARIOS, default=None,
                     help="network scenario (default two_user)")
    sub.add_argument("--eta-grid", default=grid_default, metavar="A:B:N",
                     help="efficiency grid start:stop:steps")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a protocol parameter (repeatable)")
    sub.add_argument("--config", help="key=value configuration file (flags win)")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsteer",
        description="Gaussian entanglement/steering distribution over lossy networks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    scan = subs.add_parser("scan", help="PPT / steering table over an efficiency grid")
    _add_run_flags(scan, grid_default=None)
    scan.add_argument("--format", choices=("csv", "json"), default=None,
                      help="output format (default csv)")

    certify = subs.add_parser("certify", help="certify a covariance-matrix file")
    certify.add_argument("file", help="plain-text covariance matrix")
    certify.add_argument("--split", action="append", metavar="N|M",
                         help='bipartition such as "A|B0,C1" (repeatable; '
                              "default: every mode versus the rest)")
    certify.add_argument("--out", help="write the JSON report to this path")

    table = subs.add_parser("table-a1", help="optimal displacement coefficients")
    table.add_argument("--out", help="write the table to this path")

    mc = subs.add_parser("montecarlo", help="validate covariances by sampling")
    _add_run_flags(mc, grid_default="1:1:1")
    mc.add_argument("--seed", type=int, default=None, help="random seed")
    mc.add_argument("--shots", type=int, default=None, help="Monte Carlo shot count")
    mc.add_argument("--dump-shots", metavar="PATH",
                    help="also write the raw shot records as CSV")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept for the process: it reads no input."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = build_run_config(args) if args.command in ("scan", "montecarlo") else None
        out = config.out if config else args.out
        # opened before the run: an unwritable path costs no work, a failed run leaves it empty
        with _open_out(out) if out else contextlib.nullcontext(sys.stdout) as fh:
            if args.command == "scan":
                result = cmd_scan(config)
                fh.write(format_scan_csv(result) if config.fmt == "csv"
                         else format_scan_json(result))
            elif args.command == "certify":
                fh.write(format_report_json(cmd_certify(args.file, args.split)))
            elif args.command == "table-a1":
                fh.write(cmd_table_a1())
            else:
                fh.write(cmd_montecarlo(config, dump_shots=args.dump_shots))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
