"""Bifurcation-point counting and parameter-space component maps.

For a path of symmetric matrices with isolated crossings, a nonzero total
flow certifies bifurcation for any twice-differentiable family whose second
derivatives realize the path, and the number of such parameters is at least
``ceil(|sf| / m)`` with ``m`` the largest kernel dimension met along the way.
Crossings with zero local flow are reported as candidates without a
conclusion. On two-parameter rectangles, nodes of a lattice are labeled by
the flow along lattice paths from a base node; edge flows are differences of
negative eigenvalue counts, so every elementary loop carries zero flow and
the labels are well defined by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symlin import _family_tol, _lapack, as_sym, default_zero_tol
from .sfpath import (
    Crossing,
    OperatorPath,
    classify_crossings,
    extended_sf,
    is_admissible,
    locate_crossings,
)

__all__ = [
    "BifurcationReport",
    "PathComponentTrace",
    "ComponentMap2D",
    "analyze_path",
    "trace_components",
    "sweep2d",
    "krasnoselskii",
]


@dataclass(frozen=True)
class BifurcationReport:
    """Crossing census of a path with the derived bifurcation lower bound."""

    crossings: tuple[Crossing, ...]
    total_sf: int
    m: int
    lower_bound: int
    admissible: tuple[bool, bool]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "crossings": [c.to_dict() for c in self.crossings],
            "total_sf": self.total_sf,
            "max_kernel_dim": self.m,
            "lower_bound": self.lower_bound,
            "admissible": list(self.admissible),
            "notes": list(self.notes),
        }


def analyze_path(
    path: OperatorPath,
    n_grid: int = 256,
    zero_tol: float | None = None,
    eps_lambda: float | None = None,
) -> BifurcationReport:
    """Locate crossings, total the flow, and bound the bifurcation count.

    The bound ``ceil(|sf| / m)`` uses the largest kernel dimension among the
    detected crossings; when the flow is nonzero and the endpoints are
    invertible, at least one interior bifurcation parameter is certified.
    """
    base = extended_sf(path, zero_tol=zero_tol)
    crossings = locate_crossings(path, n_grid=n_grid, zero_tol=zero_tol, eps_lambda=eps_lambda)
    if path.smooth and crossings:
        try:
            crossings = classify_crossings(path, crossings, eps_lambda=eps_lambda)
        except ValueError:
            pass  # kernel can evaporate at the estimate for borderline events
    total = base.total_sf
    m = max((c.kernel_dim for c in crossings), default=0)
    lower = 0 if m == 0 else math.ceil(abs(total) / m)
    notes = []
    if total != 0 and base.admissible_start and base.admissible_end:
        notes.append(
            f"nonzero flow across an admissible path: at least {max(lower, 1)} interior "
            "bifurcation parameter(s) certified for families with these second derivatives"
        )
    if total != 0 and not crossings:
        notes.append("nonzero flow but no crossing localized; refine the scan grid")
    for c in crossings:
        if c.local_sf == 0:
            notes.append(
                f"crossing near {c.lambda_est:.12g} carries zero local flow: "
                "candidate only, no conclusion"
            )
    return BifurcationReport(
        crossings=crossings,
        total_sf=total,
        m=m,
        lower_bound=lower,
        admissible=(base.admissible_start, base.admissible_end),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class PathComponentTrace:
    """Invertible segments between crossing brackets with cumulative flow.

    ``cumulative_index[j]`` is the flow from the start of the path to any
    point of segment ``j``; when the total flow is nonzero the number of
    distinct values is at least ``ceil(|sf| / m) + 1``. Interpreting segments
    as connected components of the regular set assumes every singular
    parameter is a genuine bifurcation parameter, which holds in particular
    when all crossings carry nonzero local flow.
    """

    segments: tuple[tuple[float, float], ...]
    cumulative_index: tuple[int, ...]
    distinct_count: int

    def to_dict(self) -> dict:
        return {
            "segments": [list(s) for s in self.segments],
            "cumulative_index": list(self.cumulative_index),
            "distinct_count": self.distinct_count,
        }


def trace_components(
    path: OperatorPath,
    crossings: Sequence[Crossing] | None = None,
    n_grid: int = 256,
    zero_tol: float | None = None,
    eps_lambda: float | None = None,
) -> PathComponentTrace:
    """Cumulative flow over the maximal intervals between crossing brackets."""
    if crossings is None:
        crossings = locate_crossings(path, n_grid=n_grid, zero_tol=zero_tol, eps_lambda=eps_lambda)
    crossings = sorted(crossings, key=lambda c: c.bracket[0])
    for left, right in zip(crossings, crossings[1:]):
        if left.bracket[1] >= right.bracket[0]:
            raise ValueError(
                f"overlapping crossing brackets near {left.lambda_est:.12g} and "
                f"{right.lambda_est:.12g}; refine the scan grid"
            )
    cuts = [path.a]
    for c in crossings:
        cuts.extend(c.bracket)
    cuts.append(path.b)
    segments = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(len(crossings) + 1)]
    w = path.eigvals([path.a] + [0.5 * (lo + hi) for lo, hi in segments])
    neg = np.sum(w < -default_zero_tol(eigvals=w, zero_tol=zero_tol), axis=1)
    indices = tuple(int(neg[0] - n) for n in neg[1:])
    return PathComponentTrace(
        segments=tuple(segments),
        cumulative_index=indices,
        distinct_count=len(set(indices)),
    )


@dataclass(frozen=True, eq=False)
class ComponentMap2D:
    """Flow-based labels over a two-parameter lattice.

    ``index`` holds, per node, the flow along a lattice path from the base
    node (``None`` on singular nodes); edges are affine interpolations of the
    node matrices, so labels are exact integers. ``loop_defects`` is always
    empty: edge flows are differences of node counts, so the flow around
    every elementary cell vanishes; the field stays in the report.
    """

    s_coords: tuple[float, ...]
    t_coords: tuple[float, ...]
    singular_mask: np.ndarray
    index: np.ndarray
    base: tuple[int, int]
    loop_defects: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "s_coords": list(self.s_coords),
            "t_coords": list(self.t_coords),
            "singular_mask": self.singular_mask.tolist(),
            "index": [[None if v is None else int(v) for v in row] for row in self.index],
            "base": list(self.base),
            "loop_defects": [list(d) for d in self.loop_defects],
        }


def _lattice_array(matrices) -> np.ndarray:
    """The lattice as one ``(ns, nt, d, d)`` float array. Bad input raises
    what checking the nodes one by one in row-major order, then the
    lattice's shape, meets first."""
    try:
        s = np.asarray(matrices, dtype=float)
    except ValueError:  # ragged rows or nodes
        s = None
    good = s is not None and s.ndim == 4 and 0 < s.shape[2] == s.shape[3] and bool(np.all(np.isfinite(s)))
    if good:
        widths = [s.shape[1]] * s.shape[0]
    else:  # the first bad node in row-major order raises here, as in SymMatrix
        widths = [len([as_sym(m) for m in row]) for row in matrices]
    if len(widths) < 2 or any(n != widths[0] for n in widths):
        raise ValueError("expected a rectangular lattice with at least two rows")
    if widths[0] < 2:
        raise ValueError("expected at least two columns")
    if not good:
        raise ValueError("all lattice matrices must share one dimension")
    return s


def sweep2d(matrices: Sequence[Sequence], base: tuple[int, int], zero_tol: float | None = None) -> ComponentMap2D:
    """Label a lattice of symmetric matrices by flow relative to a base node.

    ``matrices[i][j]`` sits at lattice node ``(s_i, t_j)`` of the unit square.
    The flow along a lattice edge is the drop of the negative eigenvalue count
    (the extended convention keeps edge flows additive, also through singular
    nodes), so the flow along any lattice path from the base node to a node
    is ``neg[base] - neg[node]``. Labels are reported only at non-singular
    nodes, against one band for the whole lattice.

    ``matrices`` is a real ``(ns, nt, d, d)`` array or anything that
    ``np.asarray`` turns into one, such as nested lists, or lists of arrays,
    of square nodes of one dimension; ``ns, nt >= 2``. All nodes are
    symmetrized at once, bit for bit as :class:`SymMatrix` does, and solved
    in one stacked eigen-solve. A non-square, empty or non-finite node raises
    ``ValueError`` as ``SymMatrix`` would, the first in row-major order.
    """
    s = _lattice_array(matrices)
    ns, nt, dim, _ = s.shape
    # (s + s^T) * 0.5, the symmetrization of SymMatrix, on all nodes at once
    sym = np.add(s, s.swapaxes(2, 3), order="C")
    sym *= 0.5
    evals = _lapack(np.linalg.eigvalsh, sym.reshape(ns * nt, dim, dim))
    tol = _family_tol(evals, zero_tol)
    neg = np.sum(evals < -tol, axis=1).reshape(ns, nt)
    singular = np.any(np.abs(evals) <= tol, axis=1).reshape(ns, nt)

    bi, bj = base
    if not (0 <= bi < ns and 0 <= bj < nt):
        raise ValueError(f"base node {base} outside the {ns}x{nt} lattice")
    if singular[bi, bj]:
        raise ValueError("base node is singular")

    # edge flows neg[u] - neg[v] telescope along any lattice path, so the
    # flow from the base node to a node is the difference of their counts
    index = (neg[bi, bj] - neg).astype(object)
    index[singular] = None

    s_coords = tuple(np.linspace(0.0, 1.0, ns))
    t_coords = tuple(np.linspace(0.0, 1.0, nt))
    return ComponentMap2D(
        s_coords=s_coords,
        t_coords=t_coords,
        singular_mask=singular,
        index=index,
        base=(bi, bj),
        loop_defects=(),
    )


def krasnoselskii(
    K,
    interval: tuple[float, float],
    n_grid: int = 256,
    eps_lambda: float = 1e-8,
) -> BifurcationReport:
    """Crossing census of ``lambda -> lambda * Id - K`` over an interval.

    Every eigenvalue of ``K`` inside the interval produces one crossing whose
    local flow equals its multiplicity and whose crossing form is positive
    definite. Before the report is returned the census is matched to the
    spectrum of ``K``: every eigenvalue inside the interval must lie in
    exactly one crossing's bracket +- ``eps_lambda``, and each crossing's
    ``local_sf`` and ``kernel_dim`` must equal the number it holds.
    """
    return _krasnoselskii_census(K, interval, n_grid, eps_lambda)[0]


def _krasnoselskii_census(K, interval, n_grid: int, eps_lambda: float) -> tuple[BifurcationReport, OperatorPath]:
    """:func:`krasnoselskii` and the ``lambda * Id - K`` path it located the
    crossings of."""
    K = as_sym(K)
    c, d = float(interval[0]), float(interval[1])
    if not d > c:
        raise ValueError("interval must satisfy c < d")
    path = OperatorPath.from_samples(
        [c, d], [c * np.eye(K.dim) - K.entries, d * np.eye(K.dim) - K.entries], smooth=True
    )
    if not all(is_admissible(path)):
        raise ValueError("an interval endpoint lies in the spectrum of K")
    eigs = _lapack(np.linalg.eigvalsh, K.entries)
    report = analyze_path(path, n_grid=n_grid, eps_lambda=eps_lambda)

    inside = eigs[(eigs > c) & (eigs < d)]
    lo = np.array([cr.bracket[0] for cr in report.crossings]) - eps_lambda
    hi = np.array([cr.bracket[1] for cr in report.crossings]) + eps_lambda
    member = (inside[:, None] >= lo) & (inside[:, None] <= hi)
    for e, hits in zip(inside, member.sum(axis=1)):
        if hits != 1:
            raise RuntimeError(
                f"eigenvalue {e!r} of K lies in {hits} crossing brackets +- eps_lambda, expected 1"
            )
    notes = list(report.notes)
    for crossing, held in zip(report.crossings, member.T):
        mult = int(held.sum())
        if crossing.local_sf != mult or crossing.kernel_dim != mult:
            raise RuntimeError(
                f"crossing at {crossing.lambda_est!r}: local flow {crossing.local_sf} and kernel "
                f"{crossing.kernel_dim} should both equal the {mult} eigenvalue(s) of K in its bracket"
            )
        center = float(np.mean(inside[held]))
        if crossing.regular is not None and (
            not crossing.regular or crossing.crossing_form_signature != mult
        ):
            raise RuntimeError(f"crossing form at {center!r} is not positive definite")
        notes.append(f"eigenvalue {center:.12g} (multiplicity {mult}) matched at {crossing.lambda_est:.12g}")
    census = BifurcationReport(
        crossings=report.crossings,
        total_sf=report.total_sf,
        m=report.m,
        lower_bound=report.lower_bound,
        admissible=report.admissible,
        notes=tuple(notes),
    )
    return census, path
