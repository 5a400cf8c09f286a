"""Command-line front end: JSON problem configs in, JSON reports out.

Subcommands: ``sf`` (flow of a matrix path or a periodic coefficient family),
``index`` (constant-coefficient index), ``bifurcate`` (crossing census and
bounds), ``sweep`` (two-parameter component map), ``verify`` (randomized flow
property suite). Configs are strict JSON with a ``kind`` discriminator and
matrices as row-major nested arrays; reports echo a hash of the config and
are byte-stable for a fixed config and seed apart from the wall-time field.
Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .symlin import EigenSolverError
from .sfpath import (
    AxiomViolation,
    EndpointCrossingError,
    OperatorPath,
    scan_path,
    verify_axioms,
)
from .hamsys import (
    HamiltonianPath,
    ResonanceError,
    StabilizationError,
    TimePeriodicCoeff,
    _stabilized_flow,
    coefficient_bounds,
    hamiltonian_index,
    scan_crossings_trimmed,
)
from .bifurcate import _krasnoselskii_census, analyze_path, sweep2d, trace_components

__all__ = ["ConfigError", "ProblemConfig", "parse_config", "serialize_config", "run", "main"]

TOOL_NAME = "specflow"
_SYM_TOL = 1e-9

KINDS = ("matrix_path", "hamiltonian_const", "hamiltonian_periodic", "sweep2d", "krasnoselskii", "verify")

_COMMAND_KINDS = {
    "sf": ("matrix_path", "hamiltonian_periodic"),
    "index": ("hamiltonian_const",),
    "bifurcate": ("matrix_path", "krasnoselskii", "hamiltonian_periodic"),
    "sweep": ("sweep2d",),
    "verify": ("verify",),
}


class ConfigError(ValueError):
    """The problem configuration failed to parse or validate."""


@dataclass(frozen=True)
class ProblemConfig:
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.payload}


def serialize_config(config: ProblemConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=2)


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number_problem(value) -> str | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    return None if finite else "must be finite"


def _as_number(value, where: str) -> float:
    problem = _number_problem(value)
    if problem:
        raise ConfigError(f"{where} {problem}")
    return float(value)


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}")
    return value


def _matrix_problem(rows: list, where: str) -> str | None:
    # the first ragged row or bad entry in row-major order, located by name
    d = len(rows)
    for i, row in enumerate(rows):
        if len(row) != d:
            return f"{where} is not square: row {i} has length {len(row)}, expected {d}"
        for j, x in enumerate(row):
            problem = _number_problem(x)
            if problem:
                return f"{where}[{i}][{j}] {problem}"
    return None


def _as_matrix(value, where: str, even_dim: bool = False) -> list[list[float]]:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise ConfigError(f"{where} must be a non-empty nested array")
    d = len(value)
    plain = all(len(row) == d for row in value) and {type(x) for row in value for x in row} <= {int, float}
    try:
        arr = np.array(value, dtype=float) if plain else None
    except OverflowError:  # an integer beyond the float range
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        problem = _matrix_problem(value, where)
        if problem:
            raise ConfigError(problem)
        # only number subclasses (such as numpy scalars) get here
        arr = np.array(value, dtype=float)
    scale = max(1.0, float(np.max(np.abs(arr))))
    asym = float(np.max(np.abs(arr - arr.T)))
    if asym > _SYM_TOL * scale:
        raise ConfigError(f"{where} is not symmetric within 1e-9 (max deviation {asym:.3e})")
    if even_dim and d % 2 != 0:
        raise ConfigError(f"{where} must have even dimension, got {d}")
    # float() hands back the parsed float objects themselves: no second copy
    return [list(map(float, row)) for row in value]


def _as_optional_number(data: dict, key: str, where: str):
    value = data.get(key)
    if value is None:
        return None
    return _as_number(value, f"{where}.{key}")


def _parse_lambda_samples(samples, where: str):
    if not isinstance(samples, list) or len(samples) < 2:
        raise ConfigError(f"{where} must be a list of at least two samples")
    lambdas = []
    for i, s in enumerate(samples):
        if not isinstance(s, dict):
            raise ConfigError(f"{where}[{i}] must be an object")
        if "lambda" not in s:
            raise ConfigError(f"{where}[{i}] is missing 'lambda'")
        lambdas.append(_as_number(s["lambda"], f"{where}[{i}].lambda"))
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ConfigError(f"{where} lambdas must be strictly increasing")
    return lambdas


def _parse_matrix_path(data: dict) -> dict:
    _require_keys(data, {"kind", "samples", "smooth", "grid", "zero_tol", "eps_lambda"}, "matrix_path config")
    samples = data.get("samples")
    lambdas = _parse_lambda_samples(samples, "samples")
    mats = []
    for i, s in enumerate(samples):
        _require_keys(s, {"lambda", "matrix"}, f"samples[{i}]")
        if "matrix" not in s:
            raise ConfigError(f"samples[{i}] is missing 'matrix'")
        mats.append(_as_matrix(s["matrix"], f"samples[{i}].matrix"))
    dims = {len(m) for m in mats}
    if len(dims) != 1:
        raise ConfigError(f"samples carry mixed dimensions {sorted(dims)}")
    smooth = data.get("smooth", False)
    if not isinstance(smooth, bool):
        raise ConfigError("smooth must be a boolean")
    return {
        "samples": [{"lambda": l, "matrix": m} for l, m in zip(lambdas, mats)],
        "smooth": smooth,
        "grid": _as_int(data.get("grid", 256), "grid", minimum=2),
        "zero_tol": _as_optional_number(data, "zero_tol", "config"),
        "eps_lambda": _as_optional_number(data, "eps_lambda", "config"),
    }


def _parse_hamiltonian_const(data: dict) -> dict:
    _require_keys(data, {"kind", "matrix", "zero_tol"}, "hamiltonian_const config")
    if "matrix" not in data:
        raise ConfigError("hamiltonian_const config is missing 'matrix'")
    return {
        "matrix": _as_matrix(data["matrix"], "matrix", even_dim=True),
        "zero_tol": _as_optional_number(data, "zero_tol", "config"),
    }


def _parse_hamiltonian_periodic(data: dict, on_warning) -> dict:
    _require_keys(
        data, {"kind", "samples", "n0", "n_cap", "t_samples", "grid"}, "hamiltonian_periodic config"
    )
    samples = data.get("samples")
    lambdas = _parse_lambda_samples(samples, "samples")
    parsed = []
    bandwidth = 0
    dims = set()
    for i, s in enumerate(samples):
        _require_keys(s, {"lambda", "a0", "cos", "sin"}, f"samples[{i}]")
        if "a0" not in s:
            raise ConfigError(f"samples[{i}] is missing 'a0'")
        a0 = _as_matrix(s["a0"], f"samples[{i}].a0", even_dim=True)
        dims.add(len(a0))
        terms = {}
        for key in ("cos", "sin"):
            mats = s.get(key, [])
            if not isinstance(mats, list):
                raise ConfigError(f"samples[{i}].{key} must be a list")
            terms[key] = [_as_matrix(mat, f"samples[{i}].{key}[{m}]") for m, mat in enumerate(mats)]
        cos_terms, sin_terms = terms["cos"], terms["sin"]
        for mat in cos_terms + sin_terms:
            if len(mat) != len(a0):
                raise ConfigError(f"samples[{i}] harmonic matrices must match the dimension of a0")
        bandwidth = max(bandwidth, len(cos_terms), len(sin_terms))
        parsed.append({"lambda": lambdas[i], "a0": a0, "cos": cos_terms, "sin": sin_terms})
    if len(dims) != 1:
        raise ConfigError(f"samples carry mixed dimensions {sorted(dims)}")
    n0 = data.get("n0")
    if n0 is not None:
        n0 = _as_int(n0, "n0", minimum=1)
        if n0 < bandwidth:
            on_warning(f"n0={n0} is below the coefficient bandwidth M={bandwidth}; raised to {bandwidth}")
            n0 = bandwidth
    return {
        "samples": parsed,
        "n0": n0,
        "n_cap": _as_int(data.get("n_cap", 512), "n_cap", minimum=1),
        "t_samples": _as_int(data.get("t_samples", 1024), "t_samples", minimum=4),
        "grid": _as_int(data.get("grid", 256), "grid", minimum=2),
    }


def _lattice_rows(lattice: list) -> list | None:
    # the rectangular lattice checked as one (ns, nt, d, d) array by the
    # rules of _as_matrix, node by node; None if a node fails them
    try:
        types = {type(x) for row in lattice for node in row for r in node for x in r}
        arr = np.array(lattice, dtype=float) if types <= {int, float} else None
    except (TypeError, ValueError, OverflowError):  # a non-list node or node row; ragged nodes; huge integers
        return None
    d = len(lattice[0][0])
    if arr is None or arr.shape != (len(lattice), len(lattice[0]), d, d) or not np.all(np.isfinite(arr)):
        return None
    scale = np.maximum(1.0, np.max(np.abs(arr), axis=(2, 3)))
    asym = np.max(np.abs(arr - arr.swapaxes(2, 3)), axis=(2, 3))
    if np.any(asym > _SYM_TOL * scale):
        return None
    # an all-float lattice is its own payload: no second copy of its entries
    return lattice if types == {float} else arr.tolist()


def _parse_sweep2d(data: dict) -> dict:
    _require_keys(data, {"kind", "lattice", "base", "zero_tol"}, "sweep2d config")
    lattice = data.get("lattice")
    if not isinstance(lattice, list) or len(lattice) < 2 or not all(isinstance(r, list) for r in lattice):
        raise ConfigError("lattice must be a nested list with at least two rows")
    n_cols = len(lattice[0])
    if n_cols < 2 or any(len(r) != n_cols for r in lattice):
        raise ConfigError("lattice must be rectangular with at least two columns")
    rows = _lattice_rows(lattice)
    if rows is None:
        # a node fails a check: walk the nodes for the first one in row-major order
        rows = [
            [_as_matrix(m, f"lattice[{i}][{j}]") for j, m in enumerate(row)]
            for i, row in enumerate(lattice)
        ]
    base = data.get("base")
    if not (isinstance(base, list) and len(base) == 2):
        raise ConfigError("base must be a pair of node indices")
    bi = _as_int(base[0], "base[0]", minimum=0)
    bj = _as_int(base[1], "base[1]", minimum=0)
    if bi >= len(rows) or bj >= n_cols:
        raise ConfigError(f"base {base} outside the {len(rows)}x{n_cols} lattice")
    return {
        "lattice": rows,
        "base": [bi, bj],
        "zero_tol": _as_optional_number(data, "zero_tol", "config"),
    }


def _parse_krasnoselskii(data: dict) -> dict:
    _require_keys(data, {"kind", "matrix", "interval", "grid", "eps_lambda"}, "krasnoselskii config")
    if "matrix" not in data:
        raise ConfigError("krasnoselskii config is missing 'matrix'")
    interval = data.get("interval")
    if not (isinstance(interval, list) and len(interval) == 2):
        raise ConfigError("interval must be a pair [c, d]")
    c = _as_number(interval[0], "interval[0]")
    d = _as_number(interval[1], "interval[1]")
    if not d > c:
        raise ConfigError("interval must satisfy c < d")
    return {
        "matrix": _as_matrix(data["matrix"], "matrix"),
        "interval": [c, d],
        "grid": _as_int(data.get("grid", 256), "grid", minimum=2),
        "eps_lambda": _as_number(data.get("eps_lambda", 1e-8), "eps_lambda"),
    }


def _parse_verify(data: dict) -> dict:
    _require_keys(data, {"kind", "seed", "trials"}, "verify config")
    return {
        "seed": _as_int(data.get("seed", 0), "seed", minimum=0),
        "trials": _as_int(data.get("trials", 500), "trials", minimum=1),
    }


def parse_config(text: str, on_warning=None) -> ProblemConfig:
    """Parse and validate a problem config; unknown keys are rejected and
    defaults are filled."""
    on_warning = on_warning or (lambda msg: None)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"config 'kind' must be one of {', '.join(KINDS)}; got {kind!r}")
    if kind == "matrix_path":
        payload = _parse_matrix_path(data)
    elif kind == "hamiltonian_const":
        payload = _parse_hamiltonian_const(data)
    elif kind == "hamiltonian_periodic":
        payload = _parse_hamiltonian_periodic(data, on_warning)
    elif kind == "sweep2d":
        payload = _parse_sweep2d(data)
    elif kind == "krasnoselskii":
        payload = _parse_krasnoselskii(data)
    else:
        payload = _parse_verify(data)
    return ProblemConfig(kind=kind, payload=payload)


def _operator_path(payload: dict) -> OperatorPath:
    return OperatorPath.from_samples(
        [s["lambda"] for s in payload["samples"]],
        [np.array(s["matrix"]) for s in payload["samples"]],
        smooth=payload["smooth"],
    )


def _hamiltonian_path(payload: dict) -> HamiltonianPath:
    coeffs = []
    for s in payload["samples"]:
        coeffs.append(
            TimePeriodicCoeff(
                a0=np.array(s["a0"]),
                cos_terms=tuple(np.array(m) for m in s["cos"]),
                sin_terms=tuple(np.array(m) for m in s["sin"]),
            )
        )
    return HamiltonianPath(lambdas=tuple(s["lambda"] for s in payload["samples"]), coeffs=tuple(coeffs))


def _write_trace(path: OperatorPath, n_grid: int, out_path: str) -> None:
    # the eigenvalues on the path's n_grid-point scan grid, solved here
    lams = np.linspace(path.a, path.b, n_grid)
    row = ",".join(["%.17g"] * (path.dim + 1)) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("lambda," + ",".join(f"eig_{i + 1}" for i in range(path.dim)) + "\n")
        for lam, w in zip(lams.tolist(), path.eigvals(lams)):
            fh.write(row % (lam, *w.tolist()))


def _run_sf(config: ProblemConfig, grid_override: int | None):
    p = config.payload
    n_grid = p["grid"] if grid_override is None else grid_override
    if config.kind == "matrix_path":
        path = _operator_path(p)
        result = scan_path(path, n_grid=n_grid, zero_tol=p["zero_tol"], eps_lambda=p["eps_lambda"])
        return result.to_dict(), (path, n_grid)
    hpath = _hamiltonian_path(p)
    base, n_used, gpath = _stabilized_flow(hpath, p["n0"], p["n_cap"], p["t_samples"])
    crossings, notes = scan_crossings_trimmed(gpath, n_grid=n_grid)
    results = {
        "total_sf": base.total_sf,
        "n_used": n_used,
        "admissible": [base.admissible_start, base.admissible_end],
        "shift_delta": base.shift_delta,
        "crossings": [c.to_dict() for c in crossings],
        "notes": list(notes),
    }
    return results, (gpath, n_grid)


def _run_index(config: ProblemConfig):
    p = config.payload
    res = hamiltonian_index(np.array(p["matrix"]), zero_tol=p["zero_tol"])
    return res.to_dict(), None


def _run_bifurcate(config: ProblemConfig, grid_override: int | None):
    p = config.payload
    n_grid = p["grid"] if grid_override is None else grid_override
    if config.kind == "matrix_path":
        path = _operator_path(p)
        report = analyze_path(path, n_grid=n_grid, zero_tol=p["zero_tol"], eps_lambda=p["eps_lambda"])
        components = trace_components(
            path, crossings=report.crossings, n_grid=n_grid, zero_tol=p["zero_tol"], eps_lambda=p["eps_lambda"]
        )
        results = report.to_dict()
        results["components"] = components.to_dict()
        return results, (path, n_grid)
    if config.kind == "krasnoselskii":
        # the census hands back the lambda * Id - K path it located, for --trace
        report, path = _krasnoselskii_census(np.array(p["matrix"]), tuple(p["interval"]), n_grid, p["eps_lambda"])
        return report.to_dict(), (path, n_grid)
    hpath = _hamiltonian_path(p)
    report = coefficient_bounds(hpath, n_grid=n_grid, N0=p["n0"], N_cap=p["n_cap"], t_samples=p["t_samples"])
    return report.to_dict(), None


def _run_sweep(config: ProblemConfig):
    p = config.payload
    cmap = sweep2d(p["lattice"], base=tuple(p["base"]), zero_tol=p["zero_tol"])
    return cmap.to_dict(), None


def _run_verify(payload: dict):
    report = verify_axioms(seed=payload["seed"], trials=payload["trials"])
    return report.to_dict(), None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run, not at import; parse_args hands every call a
    # fresh namespace
    parser = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sf", "spectral flow of a configured path"),
        ("index", "index of a constant coefficient"),
        ("bifurcate", "crossing census and bifurcation bounds"),
        ("sweep", "two-parameter component map"),
        ("verify", "randomized flow property suite"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a JSON problem config")
        cmd.add_argument("--out", help="write the JSON report here instead of stdout")
        cmd.add_argument("--trace", help="write a lambda/eigenvalue CSV here (path problems)")
        cmd.add_argument("--seed", type=int, help="seed for the verify suite")
        cmd.add_argument("--trials", type=int, help="trial count for the verify suite")
        cmd.add_argument("--grid", type=int, help="override the scan grid size")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)

    started = time.perf_counter()
    try:
        if args.grid is not None and args.grid < 2:
            raise ConfigError("--grid must be at least 2")
        if args.command == "verify":
            if args.config:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
                config = parse_config(text, on_warning=_warn)
                if config.kind != "verify":
                    raise ConfigError(f"subcommand 'verify' expects a verify config, got kind '{config.kind}'")
                payload = dict(config.payload)
            else:
                payload = {"seed": 0, "trials": 500}
            if args.seed is not None:
                payload["seed"] = args.seed
            if args.trials is not None:
                payload["trials"] = args.trials
            config_bytes = json.dumps({"kind": "verify", **payload}, sort_keys=True).encode()
            results, trace = _run_verify(payload)
        else:
            if not args.config:
                raise ConfigError(f"subcommand '{args.command}' requires --config")
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
            config_bytes = text.encode("utf-8")
            config = parse_config(text, on_warning=_warn)
            if config.kind not in _COMMAND_KINDS[args.command]:
                raise ConfigError(
                    f"subcommand '{args.command}' expects kind in "
                    f"{{{', '.join(_COMMAND_KINDS[args.command])}}}, got '{config.kind}'"
                )
            if args.command == "sf":
                results, trace = _run_sf(config, args.grid)
            elif args.command == "index":
                results, trace = _run_index(config)
            elif args.command == "bifurcate":
                results, trace = _run_bifurcate(config, args.grid)
            else:
                results, trace = _run_sweep(config)
        if args.trace:
            if trace is not None:
                _write_trace(*trace, args.trace)
            else:
                print(f"{TOOL_NAME}: note: --trace is not applicable to this problem kind", file=sys.stderr)
    except (ConfigError, FileNotFoundError) as err:
        print(f"{TOOL_NAME}: config error: {err}", file=sys.stderr)
        return 2
    except (StabilizationError, EndpointCrossingError, ResonanceError, EigenSolverError, AxiomViolation) as err:
        print(f"{TOOL_NAME}: numerical failure: {err}", file=sys.stderr)
        return 3
    except RuntimeError as err:
        print(f"{TOOL_NAME}: numerical failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        # invalid problem data that slipped past schema validation
        print(f"{TOOL_NAME}: config error: {err}", file=sys.stderr)
        return 2

    report = {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": args.command,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "results": results,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    text_out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text_out)
    else:
        sys.stdout.write(text_out)
    if args.command == "verify" and not results.get("all_passed", False):
        print(f"{TOOL_NAME}: verify suite reported failures", file=sys.stderr)
        return 3
    return 0


def _warn(message: str) -> None:
    print(f"{TOOL_NAME}: warning: {message}", file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
