"""cvsteer benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 benchmarks/run.py --workload scan_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is the result; the line before it records the environment,
per-request-kind latencies and any failures.  Timing uses plain
``time.perf_counter`` around each request (see ``LAYERS.md`` for why not
pytest-benchmark).
"""

from __future__ import annotations

import os

#: BLAS threads for this process and its children, set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zipfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REQUIRED = ("src/cvsteer/__init__.py", "tests/golden/scan_two_user.csv", "tests/conftest.py",
            "BENCHMARK.json")

#: Fresh interpreters timed for ``setup_s``, spread over the run so the
#: median samples the machine the way the rounds do.
SETUP_STARTS = 9
SETUP_CODE = ("import time\nt = time.perf_counter()\nimport cvsteer.cli\n"
              "cvsteer.cli.build_parser()\nprint(repr(time.perf_counter() - t))")


#: Percentile of each request kind's latencies that the end-to-end metrics
#: use.  On a shared host, contention only ever slows a request down (CPU
#: time tracks wall time, and slow phases of up to 1.7x last seconds to
#: minutes), so the lower quartile tracks the program's own cost more
#: steadily than the median.
LATENCY_QUANTILE = 25


@dataclass
class Round:
    traced: bool
    complete: bool
    samples: list


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class SetupTimer:
    """Times a fresh interpreter importing cvsteer.cli and building its parser."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.samples: list[float] = []
        self._start()  # untimed: compiles the bytecode cache

    def _start(self) -> float:
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip())

    def sample_until(self, share: float) -> None:
        """Take samples until ``share`` of the ``SETUP_STARTS`` starts are done."""
        while len(self.samples) < min(SETUP_STARTS, SETUP_STARTS * share):
            self.samples.append(self._start())


def environment(nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "nproc": nproc, "blas_threads": BLAS_THREADS, "os_threads": threads,
            "processes": "1, plus one set-up interpreter at a time",
            "timer": "time.perf_counter"}


def run_rounds(workload, ctx, seconds: float, traced: bool, totals, archive,
               setup: SetupTimer | None) -> list[Round]:
    """Repeat rounds for ``seconds``; traced runs alternate untraced and traced.

    Once time is up, an untraced round stops after its current request, so
    a run overshoots by at most one request; traced rounds always finish.
    Between rounds, ``setup`` gets its share of interpreter starts.
    """
    rounds: list[Round] = []
    t0 = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - t0

    while elapsed() < seconds or len(rounds) < (2 if traced else 1):
        trace_this = traced and len(rounds) % 2 == 1
        if trace_this:
            ctx.tracer.install()
            ctx.tracing = True
        samples, complete = [], True
        for sample in workload.round():
            if sample is not None:
                samples.append(sample)
            if rounds and not trace_this and elapsed() >= seconds:
                complete = False
                break
        if trace_this:
            ctx.tracing = False
            ctx.tracer.uninstall()
            totals.add_round(ctx.tracer, sum(s.points for s in samples))
            ctx.tracer.dump(archive, totals.rounds, t0)
            ctx.tracer.reset()
        rounds.append(Round(trace_this, complete, samples))
        if setup:
            setup.sample_until(elapsed() / seconds)
    if setup:
        setup.sample_until(1.0)
    return rounds


def end_to_end(workload, rounds: list[Round]) -> tuple[dict, dict]:
    """Throughput and latency at each request kind's lower-quartile latency.

    ``work_per_s`` is the work of one request of each throughput kind over
    the sum of their ``LATENCY_QUANTILE`` latencies; ``calls_p25_ms`` sums
    those latencies over the latency kinds, i.e. one round of the workload's
    main calls.  The detail adds each kind's p25, p50, p90 and sample count.
    """
    seconds: dict[str, list[float]] = {}
    units: dict[str, float] = {}
    for r in rounds:
        if not r.traced:
            for s in r.samples:
                seconds.setdefault(s.kind, []).append(s.seconds)
                units[s.kind] = s.units
    typical = {k: float(np.percentile(v, LATENCY_QUANTILE)) for k, v in seconds.items()}
    tk = [k for k in typical if k.startswith(workload.throughput_kind)]
    lk = [k for k in typical if k.startswith(workload.latency_kind)]
    work_per_s = sum(units[k] for k in tk) / sum(typical[k] for k in tk) if tk else 0.0
    metrics = {"work_per_s": work_per_s, "calls_p25_ms": 1e3 * sum(typical[k] for k in lk)}
    detail = {
        workload.throughput_name: work_per_s,
        **{f"{k}_ms": {f"p{q}": 1e3 * float(np.percentile(v, q)) for q in (25, 50, 90)}
           | {"n": len(v)} for k, v in sorted(seconds.items())},
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a cvsteer checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from layers import LayerTotals
    from tracer import Tracer
    from workloads import WORKLOADS, Context, Ledger, tracer_self_check

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        print(f"error: {BLAS_THREADS} BLAS threads exceed {nproc} CPUs", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    setup = None if args.trace else SetupTimer(env)

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    ctx = Context(root=ROOT, work=work, rng=np.random.default_rng(args.seed), ledger=ledger,
                  tracer=Tracer())
    workload = WORKLOADS[args.workload](ctx)
    totals = LayerTotals()
    try:
        ledger.run("gate.tracer_self_check", lambda: tracer_self_check(ctx))
        workload.gates()
        if args.trace:
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            span_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            with zipfile.ZipFile(span_path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
                rounds = run_rounds(workload, ctx, args.seconds, True, totals, archive, None)
                ctx.tracer.dump_names(archive)
        else:
            rounds = run_rounds(workload, ctx, args.seconds, False, totals, None, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass

    metrics, detail = end_to_end(workload, rounds)
    if args.trace:
        traced = [sum(s.seconds for s in r.samples) for r in rounds if r.traced]
        plain = [sum(s.seconds for s in r.samples) for r in rounds
                 if r.complete and not r.traced]
        values = totals.metrics(statistics.median(traced) - statistics.median(plain))
        detail["traced_rounds"] = totals.rounds
        detail["spans_per_round"] = totals.spans / totals.rounds
        detail["span_file"] = str(span_path.relative_to(ROOT))
        section = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setup.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": 1.0 - ledger.failed / ledger.attempted,
            **metrics,
        }
        section = "end_to_end"
        detail["setup_s_samples"] = setup.samples
    detail["error_rate"] = ledger.failed / ledger.attempted

    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        print(f"error: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(nproc), "detail": detail,
                      "failures": ledger.reasons[:20]}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
