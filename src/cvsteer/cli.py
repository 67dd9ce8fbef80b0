"""Command-line surface: scans, certification, coefficient tables, Monte Carlo.

Scenarios and scans are ``optimize``'s (``SCENARIO_TABLE``, ``scan``); this
module parses run settings, reads and writes files, and formats the results.

Subcommands
-----------
``scan``        grid of channel efficiencies -> PPT / steering table (CSV or JSON)
``certify``     PPT + steering certification of a covariance-matrix file
``table-a1``    optimal displacement coefficients versus channel efficiency
``montecarlo``  shot-level validation of the analytic covariances

A ``--config`` file's entries are parsed as the command's flags, ahead of the command
line's; a ``certify --split`` is checked as a ``Partition``.  All output is deterministic
given the inputs (including RNG seeds).  The output path (``--out`` or a config file's
``out``) is opened before the command runs, so an unwritable one fails before any work;
``montecarlo`` refuses an output path that names its ``--dump-shots`` file.
Exit codes: 0 success, 2 usage or configuration error, 3 input-data error,
4 numerical failure (e.g. a covariance that is not positive definite).  ``main`` is the
one place that maps an exception to its exit code, by kind: ``InputDataError`` -> 3,
``ArithmeticError`` or ``numpy.linalg.LinAlgError`` -> 4, any other ``ValueError`` -> 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from . import optimize, sampler
from .core import GaussianState
from .criteria import Partition, SteeringReport, full_report, symplectic_eigenvalues
from .optimize import SCENARIO_TABLE, ScanResult
from .protocol import STAGES, ProtocolParams, build_network_state

__all__ = [
    "InputDataError",
    "RunConfig",
    "cmd_certify",
    "cmd_montecarlo",
    "cmd_scan",
    "cmd_table_a1",
    "main",
    "read_cov_matrix_file",
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

#: Config keys read as the ``--key`` flag of that dest, if the command has one.
_RUN_KEYS = ("scenario", "eta_grid", "format", "out", "seed", "shots")


class InputDataError(Exception):
    """A matrix file or ``--split`` unfit to certify (exit 3); no ``ValueError`` handler
    catches it."""


@dataclass(frozen=True)
class RunConfig:
    """What a scan or Monte Carlo run computes; ``main`` owns where and how it is written."""

    scenario: str = "two_user"
    eta_start: float = 0.1
    eta_stop: float = 1.0
    eta_steps: int = 10
    overrides: dict[str, float] = field(default_factory=dict)
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
        raise ValueError(f"eta grid must look like start:stop:steps, got {spec!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad eta grid {spec!r}: {exc}") from None
    if steps < 1:
        raise ValueError("eta grid needs at least one step")
    if steps == 1 and start != stop:
        raise ValueError(f"a one-step eta grid needs start = stop, got {spec!r}")
    for v in (start, stop):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"eta grid bounds must lie in [0, 1], got {v}")
    return start, stop, steps


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key=value`` configuration file; '#' starts a comment line."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is given twice")
        entries[key] = value.strip()
    return entries


def _config_flags(args: argparse.Namespace) -> list[str]:
    """``args.config``'s entries as ``--set=key=value`` or ``--key=value`` flags (the ``=``
    form keeps a value such as ``-0.1:1:3`` from reading as an option)."""
    run_keys = [key for key in _RUN_KEYS if hasattr(args, key)]
    flags = []
    for key, value in load_config_file(args.config).items():
        if key not in run_keys and key not in _PARAM_FIELDS:
            raise ValueError(f"unknown config key {key!r} for {args.command}; "
                             f"known: {sorted({*run_keys, *_PARAM_FIELDS})}")
        flags.append(f"--set={key}={value}" if key in _PARAM_FIELDS
                     else f"--{key.replace('_', '-')}={value}")
    return flags


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """The ``RunConfig`` of a parsed ``scan`` or ``montecarlo`` command line; argparse has
    checked its scenario, seed and shots."""
    overrides: dict[str, float] = {}
    for item in args.set or []:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"override must look like key=value, got {item!r}")
        if key not in _PARAM_FIELDS:
            raise ValueError(f"unknown parameter {key!r}; settable: {sorted(_PARAM_FIELDS)}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise ValueError(f"value for {key!r} is not a number: {value!r}") from None
    start, stop, steps = parse_eta_grid(args.eta_grid)
    settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
                if hasattr(args, f.name)}
    return RunConfig(eta_start=start, eta_stop=stop, eta_steps=steps, overrides=overrides,
                     **settings)


def cmd_scan(config: RunConfig) -> ScanResult:
    """One table row per grid efficiency for the configured scenario."""
    return optimize.scan(SCENARIO_TABLE[config.scenario], config.etas(), config.overrides)


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


def read_cov_matrix_file(path: str) -> GaussianState:
    """Parse a whitespace-separated square matrix with optional label header.

    The one header line, before the rows, looks like ``# labels: A B0 C1``.  The matrix must
    be finite, square and symmetric within ``INPUT_SYMMETRY_TOL`` (published
    matrices are rounded, so mild asymmetry is tolerated and symmetrized away);
    ``GaussianState`` checks the rest, and its errors are ``InputDataError`` too.
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
                if labels is not None or rows:
                    raise InputDataError(f"{path}:{lineno}: second or late '# labels:' line")
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
    cov = np.array(rows)
    if not np.isfinite(cov).all():  # before the subtraction, where inf - inf would warn
        raise InputDataError(f"{path}: non-finite matrix entry")
    asym = float(np.abs(cov - cov.T).max())
    if asym > INPUT_SYMMETRY_TOL:
        raise InputDataError(
            f"{path}: matrix asymmetric by {asym:.3g} (tolerance {INPUT_SYMMETRY_TOL:g})")
    if labels is None:
        labels = tuple(f"M{i + 1}" for i in range(width // 2))
    try:
        return GaussianState(labels, (cov + cov.T) / 2.0)
    except ValueError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def parse_split_spec(spec: str, state: GaussianState) -> Partition:
    """The ``Partition`` of ``state`` that ``"A|B0,C1"`` names (whitespace is ignored); an
    ``InputDataError`` if it breaks the ``N|M`` syntax or ``Partition``'s rules."""
    parties = [[tok.strip() for tok in party.split(",") if tok.strip()]
               for party in spec.split("|")]
    if len(parties) != 2:
        raise InputDataError(f"split {spec!r} must have exactly two parties separated by '|'")
    try:
        return Partition.from_labels(state, *parties)
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"split {spec!r}: {exc.args[0]}") from None


def cmd_certify(path: str, splits: Sequence[str] | None = None) -> SteeringReport:
    """Certify a covariance-matrix file across the requested splits.

    Without explicit splits, every one-mode-versus-rest bipartition is
    certified.  Raises ``InputDataError`` for a one-mode or unphysical file
    (smallest symplectic eigenvalue below ``MIN_SYMPLECTIC_EIGENVALUE``) or a bad split, and
    ``ArithmeticError`` if the matrix is not positive definite or certification
    fails numerically, e.g. on an ill-conditioned steering block.
    """
    state = read_cov_matrix_file(path)
    if state.n_modes < 2:
        raise InputDataError(f"{path}: one mode; need at least two modes to certify")
    partitions = [parse_split_spec(s, state) for s in splits] if splits else None
    try:
        nu_min = symplectic_eigenvalues(state.cov)[0]
        if nu_min < MIN_SYMPLECTIC_EIGENVALUE:
            raise InputDataError(f"{path}: unphysical covariance: smallest symplectic "
                                 f"eigenvalue {nu_min:.4g} is below {MIN_SYMPLECTIC_EIGENVALUE:g}")
        return full_report(state, partitions)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise ArithmeticError(f"{path}: {exc}") from None
    except ValueError as exc:  # a split given twice
        raise InputDataError(f"{path}: {exc}") from None


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
        params = optimize.scenario_params(SCENARIO_TABLE["three_user"], eta, {})
        lines.append(f"{eta:<6.1f} {params.f_b:<8.3f} {params.f_d:<8.3f}".rstrip())
    return "\n".join(lines) + "\n"


def _open_out(path: str) -> TextIO:
    """``path`` opened for writing; a ``ValueError`` (a usage error) if it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file: one existing file, or one resolved path."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return Path(a).resolve() == Path(b).resolve()


def cmd_montecarlo(config: RunConfig, dump_shots: str | None = None) -> str:
    """Run the shot sampler at the one-step grid's efficiency and report agreement."""
    if config.eta_steps > 1:
        raise ValueError(f"montecarlo takes a one-step eta grid, got {config.eta_steps} steps")
    eta = float(config.eta_start)
    scenario = SCENARIO_TABLE[config.scenario]
    optimize._check_overrides(scenario, config.overrides)
    params = optimize.scenario_params(scenario, eta, config.overrides)
    # the furthest-propagated state the scenario's own columns read
    stage = max((spec[0] for spec in scenario.columns.values() if spec), key=STAGES.index)
    analytic = build_network_state(params, stage)
    if config.shots <= 2 * analytic.n_modes:  # fewer leave the sample covariance singular
        raise ValueError(f"--shots must be at least {2 * analytic.n_modes + 1} for {stage}")
    # the dump file opens before the first block is drawn
    with _open_out(dump_shots) if dump_shots else contextlib.nullcontext() as fh:
        labels, estimated = sampler._sampled_covariance(params, stage, config.shots,
                                                        config.seed, fh)
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


def _add_run_flags(sub: argparse.ArgumentParser, *, grid_default: str) -> None:
    sub.add_argument("--scenario", choices=SCENARIO_TABLE, default=RunConfig.scenario,
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
    _add_run_flags(scan, grid_default="0.1:1:10")
    scan.add_argument("--format", choices=("csv", "json"), default="csv",
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
    mc.add_argument("--seed", type=int, default=RunConfig.seed, help="random seed")
    mc.add_argument("--shots", type=int, default=RunConfig.shots, help="Monte Carlo shot count")
    mc.add_argument("--dump-shots", metavar="PATH",
                    help="also write the raw shot records as CSV")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept for the process: it reads no input."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's flags go ahead of the command line's, which therefore win
            args = _parser().parse_args([argv[0], *_config_flags(args), *argv[1:]])
        config = build_run_config(args) if args.command in ("scan", "montecarlo") else None
        dump = getattr(args, "dump_shots", None)
        if dump and args.out and _same_file(args.out, dump):  # the report would overwrite it
            raise ValueError(f"--out and --dump-shots name the same file: {args.out}")
        # opened before the run: an unwritable path costs no work, a failed run leaves it empty
        with _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout) as fh:
            if args.command == "scan":
                result = cmd_scan(config)
                fh.write(format_scan_csv(result) if args.format == "csv"
                         else format_scan_json(result))
            elif args.command == "certify":
                fh.write(format_report_json(cmd_certify(args.file, args.split)))
            elif args.command == "table-a1":
                fh.write(cmd_table_a1())
            else:
                fh.write(cmd_montecarlo(config, dump_shots=args.dump_shots))
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
