"""Correctness checks computed apart from the program.

Each check compares one program answer with what the generated construction
implies (eigenvalue curves, spectra, closed forms, coefficient ranges) and
raises :class:`Mismatch` on the first disagreement. Nothing here imports
``specflow``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from workloads import CurvePath, Lattice, PeriodicFamily, ScalarBlocks, Spectrum, curve_roots


class Mismatch(AssertionError):
    """The program's answer disagrees with the construction."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# --------------------------------------------------------------------------
# matrix paths


def path_events(truth: CurvePath) -> list[dict]:
    """Crossings implied by the eigenvalue curves: roots closer than 1e-9 of
    the span are one event with the summed multiplicity and slope signs."""
    span = truth.lambdas[-1] - truth.lambdas[0]
    events: list[dict] = []
    for lam, sign in curve_roots(truth.lambdas, truth.mu):
        if events and lam - events[-1]["last"] <= 1e-9 * span:
            ev = events[-1]
            ev["lams"].append(lam)
            ev["last"] = lam
            ev["kernel_dim"] += 1
            ev["local_sf"] += sign
        else:
            events.append({"lams": [lam], "last": lam, "kernel_dim": 1, "local_sf": sign})
    for ev in events:
        ev["lam"] = float(np.mean(ev.pop("lams")))
        del ev["last"]
    return events


def _neg(mu_row: np.ndarray) -> int:
    return int(np.sum(mu_row < 0))


def _curves_at(truth: CurvePath, xs: np.ndarray) -> np.ndarray:
    return np.stack([np.interp(xs, truth.lambdas, truth.mu[:, i]) for i in range(truth.dim)], axis=1)


def check_crossings(crossings: list, events: list[dict], span: float, eps: float, classified: bool) -> None:
    expect(len(crossings) == len(events), f"{len(crossings)} crossings reported, {len(events)} expected")
    tol = 10.0 * eps + 1e-12 * span
    for c, ev in zip(crossings, events):
        lam = ev["lam"]
        expect(abs(c["lambda_est"] - lam) <= tol, f"crossing at {c['lambda_est']!r}, expected {lam!r}")
        lo, hi = c["bracket"]
        expect(lo - tol <= lam <= hi + tol, f"bracket [{lo!r}, {hi!r}] misses {lam!r}")
        expect(
            c["kernel_dim"] == ev["kernel_dim"],
            f"kernel_dim {c['kernel_dim']} at {lam:.9g}, expected {ev['kernel_dim']}",
        )
        expect(c["local_sf"] == ev["local_sf"], f"local_sf {c['local_sf']} at {lam:.9g}, expected {ev['local_sf']}")
        if classified:
            expect(
                c["crossing_form_signature"] == ev["local_sf"] and c["regular"] is True,
                f"crossing form at {lam:.9g}: signature {c['crossing_form_signature']}, regular {c['regular']}; "
                f"expected {ev['local_sf']}, True",
            )
        else:
            expect(c["crossing_form_signature"] is None and c["regular"] is None, "unexpected crossing-form data")


def check_path_sf(results: dict, truth: CurvePath, n_grid: int = 256) -> None:
    """``specflow sf`` on a matrix path."""
    span = truth.lambdas[-1] - truth.lambdas[0]
    expect(results["total_sf"] == _neg(truth.mu[0]) - _neg(truth.mu[-1]), f"total_sf {results['total_sf']}")
    expect(results["admissible"] == [True, True], f"admissible {results['admissible']}")
    expect(results["shift_delta"] == 0.0, f"shift_delta {results['shift_delta']}")
    expect(results["grid_points_used"] == n_grid, f"grid_points_used {results['grid_points_used']}")
    check_crossings(results["crossings"], path_events(truth), span, 1e-8 * span, classified=False)


def check_path_bifurcate(results: dict, truth: CurvePath) -> None:
    """``specflow bifurcate`` on a matrix path, components included."""
    span = truth.lambdas[-1] - truth.lambdas[0]
    events = path_events(truth)
    total = _neg(truth.mu[0]) - _neg(truth.mu[-1])
    m = max((ev["kernel_dim"] for ev in events), default=0)
    expect(results["total_sf"] == total, f"total_sf {results['total_sf']}, expected {total}")
    expect(results["max_kernel_dim"] == m, f"max_kernel_dim {results['max_kernel_dim']}, expected {m}")
    expect(
        results["lower_bound"] == (math.ceil(abs(total) / m) if m else 0),
        f"lower_bound {results['lower_bound']}",
    )
    expect(results["admissible"] == [True, True], f"admissible {results['admissible']}")
    check_crossings(results["crossings"], events, span, 1e-8 * span, classified=truth.smooth)
    zero_notes = sum("zero local flow" in n for n in results["notes"])
    expect(zero_notes == sum(ev["local_sf"] == 0 for ev in events), f"{zero_notes} zero-flow notes")
    expect(any("certified" in n for n in results["notes"]) == (total != 0), "certification note")

    comp = results["components"]
    cumulative = [0]
    for ev in events:
        cumulative.append(cumulative[-1] + ev["local_sf"])
    segs = comp["segments"]
    expect(len(segs) == len(events) + 1, f"{len(segs)} segments, expected {len(events) + 1}")
    expect(segs[0][0] == truth.lambdas[0] and segs[-1][1] == truth.lambdas[-1], "segments do not cover the domain")
    for seg, ev in zip(segs[1:], events):
        expect(seg[0] > ev["lam"], f"segment {seg} starts before the crossing at {ev['lam']:.9g}")
    expect(comp["cumulative_index"] == cumulative, f"cumulative_index {comp['cumulative_index']}, expected {cumulative}")
    expect(comp["distinct_count"] == len(set(cumulative)), f"distinct_count {comp['distinct_count']}")


def check_trace_csv(text: str, truth: CurvePath, n_grid: int = 256) -> None:
    """``--trace`` rows: lambda grid and ascending eigenvalues of the curves."""
    lines = text.splitlines()
    d = truth.dim
    expect(lines[0] == "lambda," + ",".join(f"eig_{i + 1}" for i in range(d)), "trace header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expect(rows.shape == (n_grid, d + 1), f"trace shape {rows.shape}")
    xs = np.linspace(truth.lambdas[0], truth.lambdas[-1], n_grid)
    expect(np.array_equal(rows[:, 0], xs), "trace lambda column")
    want = np.sort(_curves_at(truth, xs), axis=1)
    err = float(np.max(np.abs(rows[:, 1:] - want)))
    expect(err <= 1e-9 * max(1.0, float(np.max(np.abs(truth.mu)))), f"trace eigenvalues off by {err:.3e}")


# --------------------------------------------------------------------------
# constant coefficients and spectra


def check_index(results: dict, truth: ScalarBlocks) -> None:
    """Closed form for a direct sum of scalar blocks ``a_i Id``: the frequency-k
    matrix restricted to one block has eigenvalues ``a_i/k +- 1`` (twice each),
    so its signature is ``4 sign(a_i)`` while ``k < |a_i|`` and 0 after, and
    the index is ``sum_i sign(a_i) (2 ceil|a_i| - 1)``."""
    a = truth.a
    k_max = math.ceil(float(np.max(np.abs(a)))) + 1
    per_k = [int(4 * np.sum(np.sign(a)))] + [int(4 * np.sum(np.sign(a) * (np.abs(a) > k))) for k in range(1, k_max + 1)]
    value = int(sum(np.sign(x) * (2 * math.ceil(abs(x)) - 1) for x in a))
    expect(results["resonant"] is False, "resonant")
    expect(results["k_max"] == k_max, f"k_max {results['k_max']}, expected {k_max}")
    expect(results["per_k_signatures"] == per_k, f"per_k {results['per_k_signatures']}, expected {per_k}")
    expect(results["value"] == value, f"index {results['value']}, expected {value}")


def check_krasnoselskii(results: dict, truth: Spectrum) -> None:
    """One crossing per distinct eigenvalue of K inside the interval, with
    local flow, kernel dimension and crossing-form signature all equal to its
    multiplicity."""
    c, d = truth.interval
    inside = np.sort(truth.eigs[(truth.eigs > c) & (truth.eigs < d)])
    values, mults = np.unique(inside, return_counts=True)
    cr = results["crossings"]
    expect(len(cr) == len(values), f"{len(cr)} crossings, {len(values)} eigenvalues of K inside")
    for x, v, m in zip(cr, values, mults):
        expect(abs(x["lambda_est"] - v) <= 2e-8, f"crossing at {x['lambda_est']!r}, eigenvalue {v!r}")
        expect(
            x["local_sf"] == m and x["kernel_dim"] == m and x["crossing_form_signature"] == m and x["regular"] is True,
            f"crossing at {v:.9g}: {x['local_sf']}/{x['kernel_dim']}/{x['crossing_form_signature']}, multiplicity {m}",
        )
    total = int(inside.size)
    expect(results["total_sf"] == total, f"total_sf {results['total_sf']}, expected {total}")
    m = int(max(mults, default=0))
    expect(results["max_kernel_dim"] == m, f"max_kernel_dim {results['max_kernel_dim']}")
    expect(results["lower_bound"] == (math.ceil(total / m) if m else 0), f"lower_bound {results['lower_bound']}")
    expect(sum("matched" in n for n in results["notes"]) == len(values), "one matched note per eigenvalue")


# --------------------------------------------------------------------------
# periodic families


def periodic_bounds(truth: PeriodicFamily) -> dict:
    """Comparison sandwich from the construction ranges ``[a -+ radius]``:
    ``2n delta(beta_start, alpha_end) <= sf <= 2n delta(alpha_start, beta_end)``,
    plus the starting truncation ``ceil(2 sup ||A||)`` as an interval."""
    r = truth.radius
    a_s, a_e = truth.a[0], truth.a[-1]
    two_n = 2 * truth.n
    lower = two_n * (math.ceil(a_e - r) - math.ceil(a_s + r))
    upper = two_n * (math.ceil(a_e + r) - math.ceil(a_s - r))
    sup_lo = max(max(abs(a) - r, 0.0) for a in truth.a)
    sup_hi = max(abs(a) + r for a in truth.a)
    n0 = (max(truth.bandwidth, math.ceil(2 * sup_lo), 1), max(truth.bandwidth, math.ceil(2 * sup_hi), 1))
    return {"sf": (min(lower, upper), max(lower, upper)), "n0": n0}


def check_galerkin(sf: int, n_used: int, truth: PeriodicFamily) -> None:
    """``galerkin_sf``: flow inside (here pinned by) the sandwich, truncation
    doubled once from the starting value."""
    b = periodic_bounds(truth)
    lo, hi = b["sf"]
    expect(lo <= sf <= hi, f"sf {sf} outside the sandwich [{lo}, {hi}]")
    expect(n_used in {2 * n for n in range(b["n0"][0], b["n0"][1] + 1)}, f"N used {n_used}, N0 range {b['n0']}")


def check_crossing_windows(results: dict, truth: PeriodicFamily) -> None:
    """The truncated form can only be singular where ``[a - r, a + r]`` holds
    an integer k with ``|k| <= N`` (comparison with the constant families
    ``a -+ r``), so every reported crossing must lie there."""
    r = truth.radius + 1e-6
    for c in results["crossings"]:
        a = float(np.interp(c["lambda_est"], truth.lambdas, truth.a))
        k = math.ceil(a - r)
        expect(
            k <= a + r and abs(k) <= results["n_used"],
            f"crossing at {c['lambda_est']!r} outside every resonance window",
        )


def check_periodic_sf(results: dict, truth: PeriodicFamily) -> None:
    check_galerkin(results["total_sf"], results["n_used"], truth)
    r = truth.radius
    ends_regular = all(math.ceil(a - r) == math.ceil(a + r) for a in (truth.a[0], truth.a[-1]))
    if ends_regular:
        expect(results["admissible"] == [True, True], f"admissible {results['admissible']}")
    check_crossing_windows(results, truth)


def check_periodic_bifurcate(results: dict, truth: PeriodicFamily) -> None:
    check_galerkin(results["sf"], results["n_used"], truth)
    r = truth.radius
    ends = {"start": truth.a[0], "end": truth.a[-1]}
    for key, a in ((f"{ab}_{side}", a) for side, a in ends.items() for ab in ("alpha", "beta")):
        expect(a - r - 1e-12 <= results[key] <= a + r + 1e-12, f"{key} {results[key]!r} outside [{a - r}, {a + r}]")
    b = periodic_bounds(truth)
    expect(results["sf_lower"] <= results["sf"] <= results["sf_upper"] and results["sandwich_holds"] is True, "sandwich")
    expect(
        b["sf"][0] <= results["sf_lower"] and results["sf_upper"] <= b["sf"][1],
        "program sandwich wider than the construction",
    )
    a_s, a_e = truth.a[0], truth.a[-1]
    if a_s + r < a_e - r:
        expect(results["case"] == "increasing", f"case {results['case']}")
        lo, hi = math.ceil(a_e - r) - math.ceil(a_s + r), math.ceil(a_e + r) - math.ceil(a_s - r)
    else:
        expect(results["case"] == "decreasing", f"case {results['case']}")
        lo, hi = math.ceil(a_s - r) - math.ceil(a_e + r), math.ceil(a_s + r) - math.ceil(a_e - r)
    expect(lo <= results["bound"] <= hi, f"bound {results['bound']} outside [{lo}, {hi}]")
    check_crossing_windows(results, truth)


# --------------------------------------------------------------------------
# lattices


def check_sweep(results: dict, truth: Lattice) -> None:
    """Labels ``neg(base) - neg(node)`` from the node eigenvalues; exact zeros
    mark singular nodes; elementary loops carry no flow."""
    mu = truth.mu
    ns, nt, _ = mu.shape
    singular = np.any(mu == 0.0, axis=2)
    neg = np.sum(mu < 0, axis=2)
    bi, bj = truth.base
    want = [[None if singular[i, j] else int(neg[bi, bj] - neg[i, j]) for j in range(nt)] for i in range(ns)]
    expect(results["s_coords"] == np.linspace(0.0, 1.0, ns).tolist(), "s_coords")
    expect(results["t_coords"] == np.linspace(0.0, 1.0, nt).tolist(), "t_coords")
    expect(results["singular_mask"] == singular.tolist(), "singular_mask")
    expect(results["base"] == [bi, bj], f"base {results['base']}")
    expect(results["index"] == want, "node labels")
    expect(results["loop_defects"] == [], f"loop defects {results['loop_defects']}")


# --------------------------------------------------------------------------
# dispatch


def check_report(problem, config_bytes: bytes, report: dict, trace_text: str | None) -> None:
    """Check one CLI report (and its ``--trace`` CSV) against the truth."""
    expect(report["tool"] == "specflow" and report["command"] == problem.command, "report header")
    expect(report["config_sha256"] == hashlib.sha256(config_bytes).hexdigest(), "config_sha256")
    results, truth = report["results"], problem.truth
    if isinstance(truth, CurvePath):
        if problem.command == "sf":
            check_path_sf(results, truth)
        else:
            check_path_bifurcate(results, truth)
        if problem.trace_csv:
            expect(trace_text is not None, "no trace written")
            check_trace_csv(trace_text, truth)
    elif isinstance(truth, ScalarBlocks):
        check_index(results, truth)
    elif isinstance(truth, Spectrum):
        check_krasnoselskii(results, truth)
    elif isinstance(truth, PeriodicFamily):
        if problem.command == "sf":
            check_periodic_sf(results, truth)
        else:
            check_periodic_bifurcate(results, truth)
    elif isinstance(truth, Lattice):
        check_sweep(results, truth)
    else:
        raise TypeError(f"no check for {type(truth).__name__}")


def check_outcome(problem, outcome) -> None:
    """Check what one problem produced; see ``run.Outcome``."""
    if problem.command is None:
        expect(outcome.error is None, f"galerkin_sf raised {outcome.error}")
        sf, n_used = outcome.value
        check_galerkin(sf, n_used, problem.truth)
        return
    expect(outcome.rc == 0, f"exit code {outcome.rc}")
    check_report(problem, outcome.config_bytes, json.loads(outcome.report), outcome.trace)
