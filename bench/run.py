"""specflow benchmark: one workload per process, single-client closed loop.

    python3 bench/run.py --workload path_census --seed 1 --seconds 30 --trace 0

Generates the workload's problems from ``--seed``, warms up, then runs whole
rounds over the problem list until ``--seconds`` of solving have passed,
checking every answer against ``checks.py``. ``setup_s`` is the median wall
time of a fresh interpreter importing ``specflow.cli``, sampled before the
first round and after each round. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of one extra traced round (see ``tracing.py``).
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread (no more than nproc) keeps dense
# eigen-solves from varying with the other load on the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from checks import Mismatch, check_outcome  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Cold starts for ``setup_s`` before the first round and after each round.
SETUP_STARTS_FIRST = 3
SETUP_STARTS_PER_ROUND = 2

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_p90", "s"),
    ("problems_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Outcome:
    """What one problem produced: the CLI's exit code, report and trace text,
    or the value (or error) of ``galerkin_sf``."""

    rc: int | None = None
    report: str | None = None
    trace: str | None = None
    config_bytes: bytes | None = None
    value: tuple | None = None
    error: str | None = None


class ColdStarts:
    """Wall times of a fresh interpreter running ``import specflow.cli``.

    The first start fills the bytecode and page caches and is not kept.
    Starts are spread over the run so that one busy moment of the shared
    machine does not set the median.
    """

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self._start()

    def _start(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import specflow.cli"], env=self.env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    def sample(self, count: int) -> None:
        self.times.extend(self._start() for _ in range(count))


class Runner:
    """Calls the program: ``specflow.cli.run`` for CLI problems (report and
    trace files under ``work``), ``specflow.hamsys.galerkin_sf`` otherwise."""

    def __init__(self, work: Path) -> None:
        import specflow.cli
        import specflow.hamsys

        self.cli = specflow.cli
        self.hamsys = specflow.hamsys
        self.report_path = work / "report.json"
        self.trace_path = work / "trace.csv"
        self.config_bytes: dict[str, bytes] = {}

    def solve(self, problem) -> tuple[float, Outcome]:
        """Run one problem; only the program call is timed."""
        if problem.command is None:
            t0 = time.perf_counter()
            try:
                value = self.hamsys.galerkin_sf(problem.hpath)
            except (ArithmeticError, ValueError, RuntimeError) as err:
                return time.perf_counter() - t0, Outcome(error=repr(err))
            return time.perf_counter() - t0, Outcome(value=value)
        for p in (self.report_path, self.trace_path):
            p.unlink(missing_ok=True)
        argv = [problem.command, "--config", problem.config_path, "--out", str(self.report_path)]
        if problem.trace_csv:
            argv += ["--trace", str(self.trace_path)]
        t0 = time.perf_counter()
        rc = self.cli.run(argv)
        elapsed = time.perf_counter() - t0
        if problem.config_path not in self.config_bytes:
            self.config_bytes[problem.config_path] = Path(problem.config_path).read_bytes()
        return elapsed, Outcome(
            rc=rc,
            report=self.report_path.read_text(encoding="utf-8") if self.report_path.exists() else None,
            trace=self.trace_path.read_text(encoding="utf-8") if self.trace_path.exists() else None,
            config_bytes=self.config_bytes[problem.config_path],
        )


class Tally:
    """Attempted/failed counts and the times of each problem."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported: set[str] = set()

    def record(self, problem, elapsed: float, outcome: Outcome) -> None:
        try:
            check_outcome(problem, outcome)
            ok = True
        except (Mismatch, KeyError, TypeError, ValueError) as err:
            ok = False
            if not problem.known_fault:
                self.correct = False
            if problem.pid not in self.reported:
                self.reported.add(problem.pid)
                tag = "known fault" if problem.known_fault else "WRONG"
                print(f"{tag}: {problem.pid}: {type(err).__name__}: {err}", file=sys.stderr)
        self.times.setdefault(problem.pid, []).append(elapsed)
        self.attempted += 1
        self.failed += not ok

    def solve_times(self) -> dict[str, float]:
        """Per problem, the fastest of its rounds: other tenants of the
        machine slow single runs by up to 1.9x in bursts of seconds, and the
        fastest round is the one they disturbed least."""
        best = sorted(min(ts) for ts in self.times.values())
        return {
            "solve_s_p50": statistics.median(best),
            "solve_s_p90": statistics.quantiles(best, n=10, method="inclusive")[-1],
            "problems_per_s": len(best) / sum(best),
        }


def run_rounds(runner: Runner, problems: list, tally: Tally, seconds: float, between=None) -> int:
    """Whole rounds (at least two) over the problem list until ``seconds``
    have passed; ``between()`` runs after each round, off the clock."""
    rounds = 0
    elapsed = 0.0
    while rounds < 2 or elapsed < seconds:
        t0 = time.perf_counter()
        for p in problems:
            tally.record(p, *runner.solve(p))
        elapsed += time.perf_counter() - t0
        rounds += 1
        if between is not None:
            between()
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "specflow" / "cli.py").is_file():
        print(f"specflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        problems = workloads.build(args.workload, args.seed, work, ROOT)
        starts = ColdStarts()
        starts.sample(SETUP_STARTS_FIRST)
        runner = Runner(work)
        for p in problems:
            if p.warmup:
                runner.solve(p)
        tally = Tally()
        rounds = run_rounds(runner, problems, tally, args.seconds, lambda: starts.sample(SETUP_STARTS_PER_ROUND))
        e2e = {"setup_s": statistics.median(starts.times), **tally.solve_times()}
        print(
            f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} problems={len(problems)} "
            f"rounds={rounds} cold_starts={len(starts.times)} attempted={tally.attempted} failed={tally.failed}"
        )
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            traced = Tally()
            try:
                for p in problems:
                    tracer.problem = p.pid
                    elapsed, outcome = runner.solve(p)
                    traced.record(p, elapsed, outcome)
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-s{args.seed}.csv"
            tracer.write(spans_path)
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["trace_overhead_s"] = traced.solve_times()["solve_s_p50"] - e2e["solve_s_p50"]
            units = dict(tracing.METRICS, trace_overhead_s="s")
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.correct &= traced.correct
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = e2e
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
