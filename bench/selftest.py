"""Self-test of the correctness checks.

    python3 bench/selftest.py

Runs one generated problem of every check kind through the program, confirms
that the check accepts the real answer, then confirms that it rejects each of
a set of perturbed copies (a flow off by one, a crossing moved or dropped, a
wrong kernel dimension, a wrong node label, ...). The shipped configs and a
known-fault close pair are run as they are. Exits 1 if any perturbed answer
is accepted or any real answer is rejected.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
from checks import Mismatch, check_outcome
from workloads import CurvePath, Lattice, PeriodicFamily, ScalarBlocks, Spectrum, build


def _edit(**changes):
    """Perturbation that applies ``path=value_fn`` edits to the results dict;
    a path is ``key`` or ``key.index.key``."""

    def apply(results):
        for path, fn in changes.items():
            *parents, last = path.split(".")
            node = results
            for key in parents:
                node = node[int(key)] if isinstance(node, list) else node[key]
            if isinstance(node, list):
                last = int(last)
            node[last] = fn(node[last])

    return apply


def _drop_last_crossing(results):
    results["crossings"].pop()


def perturbations(problem) -> list[tuple[str, object]]:
    truth = problem.truth
    inc = lambda x: x + 1  # noqa: E731
    if problem.command is None:
        return [("flow +2n", lambda v: (v[0] + 2 * truth.n, v[1])), ("N doubled", lambda v: (v[0], 2 * v[1]))]
    out = [("config hash", "hash")]
    if isinstance(truth, CurvePath):
        span = float(truth.lambdas[-1] - truth.lambdas[0])
        out += [
            ("total_sf +1", _edit(total_sf=inc)),
            ("crossing moved", _edit(**{"crossings.0.lambda_est": lambda x: x + 1e-4 * span})),
            ("kernel_dim +1", _edit(**{"crossings.0.kernel_dim": inc})),
            ("local_sf flipped", _edit(**{"crossings.0.local_sf": lambda x: -x if x else 1})),
            ("crossing dropped", _drop_last_crossing),
        ]
        if problem.command == "bifurcate":
            out += [
                ("lower_bound +1", _edit(lower_bound=inc)),
                ("component index +1", _edit(**{"components.cumulative_index.1": inc})),
            ]
            if truth.smooth:
                out.append(("signature +1", _edit(**{"crossings.0.crossing_form_signature": inc})))
        if problem.trace_csv:
            out += [("trace eigenvalue moved", "trace_value"), ("trace row dropped", "trace_row")]
    elif isinstance(truth, ScalarBlocks):
        out += [
            ("index +1", _edit(value=inc)),
            ("k_max +1", _edit(k_max=inc)),
            ("signature +4", _edit(**{"per_k_signatures.0": lambda x: x + 4})),
        ]
    elif isinstance(truth, Spectrum):
        out += [
            ("crossing moved", _edit(**{"crossings.0.lambda_est": lambda x: x + 1e-6})),
            ("multiplicity +1", _edit(**{"crossings.0.local_sf": inc})),
            ("total_sf +1", _edit(total_sf=inc)),
            ("crossing dropped", _drop_last_crossing),
        ]
    elif isinstance(truth, PeriodicFamily):
        key = "total_sf" if problem.command == "sf" else "sf"
        out += [
            ("flow +2n", _edit(**{key: lambda x: x + 2 * truth.n})),
            ("N doubled", _edit(n_used=lambda x: 2 * x)),
            ("crossing at an endpoint", _edit(**{"crossings.0.lambda_est": lambda x: truth.lambdas[0]})),
        ]
        if problem.command == "bifurcate":
            out += [
                ("bound +1", _edit(bound=inc)),
                ("alpha_start -1", _edit(alpha_start=lambda x: x - 1.0)),
                ("case flipped", _edit(case=lambda x: "decreasing" if x == "increasing" else "increasing")),
            ]
    elif isinstance(truth, Lattice):
        i, j = truth.base
        out += [
            ("base label +1", _edit(**{f"index.{i}.{j}": inc})),
            ("singular flag flipped", _edit(**{f"singular_mask.{i}.{j}": lambda x: not x})),
            ("loop defect", _edit(loop_defects=lambda x: [[0, 0]])),
        ]
    return out


def _perturbed(outcome, how):
    bad = copy.copy(outcome)
    if how == "hash":
        bad.config_bytes = outcome.config_bytes + b" "
    elif how == "trace_value":
        lines = outcome.trace.splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        lines[1] = ",".join(cells)
        bad.trace = "\n".join(lines)
    elif how == "trace_row":
        bad.trace = "\n".join(outcome.trace.splitlines()[:-1])
    elif bad.value is not None:
        bad.value = how(outcome.value)
    else:
        report = json.loads(outcome.report)
        results = copy.deepcopy(report["results"])
        how(results)
        report["results"] = results
        bad.report = json.dumps(report)
    return bad


def main() -> int:
    work = run.OUT / "selftest"
    sys.path.insert(0, str(run.SRC))
    try:
        return _selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _selftest(work) -> int:
    problems = build("many_small", 0, work, run.ROOT)
    problems += [p for p in build("path_census", 0, work, run.ROOT) if p.warmup or p.known_fault][:2]
    problems += [p for p in build("periodic_truncation", 0, work, run.ROOT) if p.warmup]
    runner = run.Runner(work)
    seen: set[tuple] = set()
    bad = 0
    for p in problems:
        # shipped configs are only checked as they are: the shipped periodic
        # family straddles a resonance, so its sandwich does not pin the flow
        kind = (p.pid if p.pid.startswith("shipped_") else type(p.truth).__name__, p.command,
                p.trace_csv, getattr(p.truth, "smooth", None), p.known_fault)
        if kind in seen:
            continue
        seen.add(kind)
        _, outcome = runner.solve(p)
        try:
            check_outcome(p, outcome)
            verdict = "rejected" if p.known_fault else "accepted"
        except Mismatch as err:
            verdict = f"rejected ({err})"
            if not p.known_fault:
                bad += 1
        print(f"{p.pid}: real answer {verdict}")
        if p.known_fault or p.pid.startswith("shipped_"):
            continue
        for label, how in perturbations(p):
            try:
                perturbed = _perturbed(outcome, how)
            except (IndexError, KeyError):
                print(f"  {label}: not applicable")
                continue
            try:
                check_outcome(p, perturbed)
                print(f"  {label}: ACCEPTED")
                bad += 1
            except Mismatch:
                print(f"  {label}: rejected")
    print("selftest", "FAILED" if bad else "passed", f"({bad} problems)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
