"""Spectral flow of paths of symmetric matrices.

A path is a continuous family ``lambda -> S(lambda)`` of symmetric matrices
over a closed interval, given either by a sample grid with entrywise affine
interpolation or by an evaluation rule. The extended spectral flow counts
eigenvalues moving from negative to positive minus the reverse, with endpoint
kernels pushed to the positive side (equivalent to translating the path by
``+delta * Id`` for a small ``delta``), so it is defined even when endpoints
are singular. In finite dimensions the total equals the difference of endpoint
Morse indices.

Crossings of a grid path come from one pencil solve per affine segment:
on ``S(t) = S_c + (t - c) B`` the singular parameters are ``t = c - 1/mu``
for the real eigenvalues ``mu`` of ``S_c^-1 B``. Real counts certify them,
and the scan-grid bisection is replayed from them, so a crossing with flow
is reported exactly as the scan reports it; a path the pencil cannot
resolve falls back to the scan. Paths given by an evaluation rule are
scanned: a uniform grid is solved, and its sign changes are bisected and
its dips searched. Either way the crossings partition the domain into
cells with clear ends (no eigenvalue near zero), counted by real solves, so
the local flows over that partition sum to ``total_sf`` by construction
(:func:`locate_crossings`). Many parameters are evaluated at once with
:meth:`OperatorPath.eigvals`.

All paths are immutable after construction and every operation is pure, so
grid evaluations may run in parallel and merge deterministically in lambda
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .symlin import (
    _CLEAR_FACTOR,
    SymMatrix,
    _drift_tol,
    _family_tol,
    _lapack,
    as_sym,
    default_zero_tol,
    inertia,
    kernel_basis,
)

__all__ = [
    "OperatorPath",
    "Crossing",
    "SpectralFlowResult",
    "CrossingForm",
    "ComparisonReport",
    "AxiomReport",
    "AxiomViolation",
    "EndpointCrossingError",
    "concat",
    "reverse",
    "direct_sum",
    "is_admissible",
    "extended_sf",
    "locate_crossings",
    "scan_path",
    "crossing_form",
    "classify_crossings",
    "sf_regular_sum",
    "is_nondecreasing",
    "compare_paths",
    "verify_axioms",
]

#: Default number of scan points for crossing localization.
DEFAULT_N_GRID = 256

#: Bisection / golden-section iteration cap per crossing candidate.
REFINE_CAP = 60

_JUNCTION_TOL = 1e-12

#: Byte budget of one stacked eigen-solve in :meth:`OperatorPath.eigvals`, so
#: peak memory does not grow with the number of parameters. Small matrices
#: still share one solve by the hundred; from dimension 128 on a chunk is one
#: matrix, where the solve itself dominates.
_CHUNK_BYTES = 1 << 17


class EndpointCrossingError(RuntimeError):
    """A singular parameter was detected within eps_lambda of a domain endpoint."""


@dataclass(frozen=True, eq=False)
class OperatorPath:
    """A parametrized family of symmetric matrices over ``[a, b]``.

    ``smooth`` enables derivative-based operations (crossing forms via central
    differences); grid paths are piecewise affine and may opt in.
    """

    a: float
    b: float
    dim: int
    smooth: bool
    _lambdas: np.ndarray | None
    _matrices: tuple[np.ndarray, ...] | None
    _fn: Callable[[float], object] | None

    @classmethod
    def from_samples(cls, lambdas: Sequence[float], matrices: Sequence, smooth: bool = False) -> "OperatorPath":
        lams = np.asarray(lambdas, dtype=float)
        if lams.ndim != 1 or lams.size < 2:
            raise ValueError("grid paths need at least two samples")
        if not np.all(np.diff(lams) > 0):
            raise ValueError("sample parameters must be strictly increasing")
        mats = tuple(as_sym(m).entries for m in matrices)
        if len(mats) != lams.size:
            raise ValueError("number of samples must match number of parameters")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValueError("all samples must share one dimension")
        lams.flags.writeable = False
        return cls(float(lams[0]), float(lams[-1]), dim, smooth, lams, mats, None)

    @classmethod
    def from_callable(cls, a: float, b: float, dim: int, fn: Callable[[float], object], smooth: bool = True) -> "OperatorPath":
        if not b > a:
            raise ValueError("domain must satisfy a < b")
        return cls(float(a), float(b), int(dim), smooth, None, None, fn)

    @property
    def is_grid(self) -> bool:
        return self._fn is None

    def _domain(self, lams) -> np.ndarray:
        lams = np.asarray(lams, dtype=float).reshape(-1)
        slack = 1e-12 * max(1.0, self.b - self.a)
        inside = (lams >= self.a - slack) & (lams <= self.b + slack)
        if not inside.all():
            raise ValueError(f"parameter {float(lams[~inside][0])} outside domain [{self.a}, {self.b}]")
        return np.minimum(np.maximum(lams, self.a), self.b)

    def _rule(self, lam: float) -> SymMatrix:
        m = as_sym(self._fn(lam))
        if m.dim != self.dim:
            raise ValueError(f"evaluation rule returned dimension {m.dim}, expected {self.dim}")
        return m

    def _bracket(self, lams):
        # per parameter: the right bracketing sample j >= 1, the weight t of
        # sample j, and the sample the parameter equals (-1 for none)
        grid = self._lambdas
        right = np.searchsorted(grid, lams)
        j = np.minimum(np.maximum(right, 1), grid.size - 1)
        hit = np.where(grid[right] == lams, right, -1)
        return j, (lams - grid[j - 1]) / (grid[j] - grid[j - 1]), hit

    def _mix(self, j: int, t):
        # (1 - t) * sample[j - 1] + t * sample[j], for a scalar t or an
        # (n, 1, 1) column of weights
        out = t * self._matrices[j]
        out += (1.0 - t) * self._matrices[j - 1]
        return out

    def _values(self, lams) -> np.ndarray:
        # stacked (n, dim, dim) matrices at the parameters lams
        lams = self._domain(lams)
        out = np.empty((lams.size, self.dim, self.dim))
        if self._fn is not None:
            for i, lam in enumerate(lams.tolist()):
                out[i] = self._rule(lam).entries
            return out
        j, t, hit = self._bracket(lams)
        for k in set(j[hit < 0].tolist()):
            sel = np.flatnonzero((j == k) & (hit < 0))
            out[sel] = self._mix(k, t[sel, None, None])
        for i in np.flatnonzero(hit >= 0):
            out[i] = self._matrices[hit[i]]
        return out

    def evaluate(self, lam: float) -> SymMatrix:
        """Matrix at ``lam``; affine interpolation between bracketing samples
        for grid paths, exact sample values at sample points."""
        (lam,) = self._domain(lam)
        if self._fn is not None:
            return self._rule(float(lam))
        j, t, hit = self._bracket(lam)
        return SymMatrix(self._matrices[hit] if hit >= 0 else self._mix(j, t))

    def __call__(self, lam: float) -> SymMatrix:
        return self.evaluate(lam)

    def eigvals(self, lams) -> np.ndarray:
        """Ascending eigenvalues at each parameter of ``lams`` as an
        ``(n, dim)`` array, equal to ``eigvalsh(self(lam).entries)`` row by
        row. The matrices are solved in stacks of bounded size."""
        lams = np.asarray(lams, dtype=float).reshape(-1)
        step = max(1, _CHUNK_BYTES // (8 * self.dim * self.dim))
        out = np.empty((lams.size, self.dim))
        for i in range(0, lams.size, step):
            out[i : i + step] = _lapack(np.linalg.eigvalsh, self._values(lams[i : i + step]))
        return out


def _paths_junction_match(p: OperatorPath, q: OperatorPath) -> bool:
    mp, mq = p(p.b).entries, q(q.a).entries
    scale = max(1.0, float(np.max(np.abs(mp))), float(np.max(np.abs(mq))))
    return bool(np.max(np.abs(mp - mq)) <= _JUNCTION_TOL * scale)


def concat(p: OperatorPath, q: OperatorPath) -> OperatorPath:
    """Concatenate two paths sharing the junction parameter and value."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch at concatenation")
    if abs(p.b - q.a) > _JUNCTION_TOL * max(1.0, abs(p.b), abs(q.a)):
        raise ValueError(f"junction mismatch: first path ends at {p.b}, second starts at {q.a}")
    if not _paths_junction_match(p, q):
        raise ValueError("paths disagree at the junction parameter")
    if p.is_grid and q.is_grid:
        lams = np.concatenate([p._lambdas, q._lambdas[1:]])
        mats = list(p._matrices) + list(q._matrices[1:])
        return OperatorPath.from_samples(lams, mats, smooth=p.smooth and q.smooth)
    junction = p.b

    def fn(lam: float):
        return p(lam) if lam <= junction else q(lam)

    return OperatorPath.from_callable(p.a, q.b, p.dim, fn, smooth=p.smooth and q.smooth)


def reverse(p: OperatorPath) -> OperatorPath:
    """Traverse the path backwards over the same domain."""
    if p.is_grid:
        lams = (p.a + p.b) - p._lambdas[::-1]
        return OperatorPath.from_samples(lams, p._matrices[::-1], smooth=p.smooth)
    return OperatorPath.from_callable(p.a, p.b, p.dim, lambda lam: p(p.a + p.b - lam), smooth=p.smooth)


def direct_sum(p: OperatorPath, q: OperatorPath) -> OperatorPath:
    """Block-diagonal sum of two paths over the same domain. Two grid paths
    sum to a grid path on the union of their sample parameters, which is
    exact: both parts are affine between any two neighbouring ones."""
    if abs(p.a - q.a) > _JUNCTION_TOL * max(1.0, abs(p.a)) or abs(p.b - q.b) > _JUNCTION_TOL * max(1.0, abs(p.b)):
        raise ValueError("domain mismatch in direct sum")
    dp, dq = p.dim, q.dim
    if p.is_grid and q.is_grid:
        lams = np.union1d(p._lambdas, q._lambdas[(q._lambdas > p.a) & (q._lambdas < p.b)])
        mats = np.zeros((lams.size, dp + dq, dp + dq))
        mats[:, :dp, :dp] = p._values(lams)
        mats[:, dp:, dp:] = q._values(np.clip(lams, q.a, q.b))
        return OperatorPath.from_samples(lams, mats, smooth=p.smooth and q.smooth)

    def fn(lam: float):
        out = np.zeros((dp + dq, dp + dq))
        out[:dp, :dp] = p(lam).entries
        out[dp:, dp:] = q(lam).entries
        return out

    return OperatorPath.from_callable(p.a, p.b, dp + dq, fn, smooth=p.smooth and q.smooth)


@dataclass(frozen=True)
class Crossing:
    """A localized singular parameter of a path.

    ``bracket`` encloses the singular set of the event; for isolated crossings
    its width is at most the eps_lambda used during refinement. ``local_sf``
    is the extended spectral flow across a bracket enlarged by eps_lambda on
    each side, and always satisfies ``|local_sf| <= kernel_dim``.
    """

    lambda_est: float
    bracket: tuple[float, float]
    kernel_dim: int
    local_sf: int
    crossing_form_signature: int | None = None
    regular: bool | None = None

    def to_dict(self) -> dict:
        return {
            "lambda_est": self.lambda_est,
            "bracket": [self.bracket[0], self.bracket[1]],
            "kernel_dim": self.kernel_dim,
            "local_sf": self.local_sf,
            "crossing_form_signature": self.crossing_form_signature,
            "regular": self.regular,
        }


@dataclass(frozen=True)
class SpectralFlowResult:
    total_sf: int
    crossings: tuple[Crossing, ...]
    admissible_start: bool
    admissible_end: bool
    shift_delta: float
    grid_points_used: int

    def to_dict(self) -> dict:
        return {
            "total_sf": self.total_sf,
            "crossings": [c.to_dict() for c in self.crossings],
            "admissible": [self.admissible_start, self.admissible_end],
            "shift_delta": self.shift_delta,
            "grid_points_used": self.grid_points_used,
        }


def _neg_count(w: np.ndarray, tol: float) -> int:
    return int(np.sum(w < -tol))


def _zero_count(w: np.ndarray, tol: float) -> int:
    return int(np.sum(np.abs(w) <= tol))


def is_admissible(path: OperatorPath, zero_tol: float | None = None) -> tuple[bool, bool]:
    """Whether each endpoint matrix is invertible (no eigenvalue inside the
    tolerance band)."""
    w = path.eigvals([path.a, path.b])
    clear = np.all(np.abs(w) > default_zero_tol(eigvals=w, zero_tol=zero_tol), axis=1)
    return bool(clear[0]), bool(clear[1])


def extended_sf(path: OperatorPath, zero_tol: float | None = None) -> SpectralFlowResult:
    """Extended spectral flow from endpoint data.

    Singular endpoints are handled by translating the path with ``+delta*Id``,
    which pushes endpoint kernels to the positive side; with the reported
    ``shift_delta`` the total equals ``mu(S_a + delta) - mu(S_b + delta)`` and
    reduces to the plain Morse-index difference on admissible paths.
    """
    ma, mb = path(path.a), path(path.b)
    wa, wb = _lapack(np.linalg.eigvalsh, ma.entries), _lapack(np.linalg.eigvalsh, mb.entries)
    tol_a, tol_b = default_zero_tol(ma, zero_tol), default_zero_tol(mb, zero_tol)
    adm_a = _zero_count(wa, tol_a) == 0
    adm_b = _zero_count(wb, tol_b) == 0
    delta = 0.0
    if not (adm_a and adm_b):
        nonzero = np.concatenate([np.abs(wa)[np.abs(wa) > tol_a], np.abs(wb)[np.abs(wb) > tol_b]])
        scale = max(1.0, ma.norm_fro() / math.sqrt(ma.dim), mb.norm_fro() / math.sqrt(mb.dim))
        delta = 1e-6 * scale
        if nonzero.size:
            delta = min(delta, 0.5 * float(np.min(nonzero)))
    # counting strictly negative eigenvalues realizes the +delta translation
    total = _neg_count(wa, tol_a) - _neg_count(wb, tol_b)
    return SpectralFlowResult(
        total_sf=total,
        crossings=(),
        admissible_start=adm_a,
        admissible_end=adm_b,
        shift_delta=delta,
        grid_points_used=2,
    )


def _golden_min(path: OperatorPath, lo, hi, eps: float) -> tuple[np.ndarray, np.ndarray]:
    # golden-section minimization of the smallest |eigenvalue| on every
    # [lo, hi] at once, assuming one relevant dip inside each interval
    def f(x):
        return np.min(np.abs(path.eigvals(x)), axis=1)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = np.split(f(np.concatenate([x1, x2])), 2)
    for _ in range(REFINE_CAP):
        live = hi - lo > eps
        if not np.any(live):
            break
        left, right = live & (f1 <= f2), live & ~(f1 <= f2)
        hi[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = hi[left] - invphi * (hi[left] - lo[left])
        lo[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = lo[right] + invphi * (hi[right] - lo[right])
        fnew = f(np.where(left, x1, x2)[live])
        f1[left], f2[right] = fnew[left[live]], fnew[right[live]]
    f_lo, f_hi = np.split(f(np.concatenate([lo, hi])), 2)
    xs, fs = np.stack([lo, x1, x2, hi]), np.stack([f_lo, f1, f2, f_hi])
    best = np.argmin(fs, axis=0), np.arange(lo.size)
    return xs[best], fs[best]


def _neg_counts(path: OperatorPath, lams) -> np.ndarray:
    # the number of eigenvalues below 0 at each parameter, from real solves
    return np.sum(path.eigvals(lams) < 0.0, axis=1)


def _bisect(count: Callable, lo, hi, nlo, nhi, eps: float) -> list[tuple]:
    # refine every change of the strict negative count over the cells
    # [lo, hi], all open cells in one call of count(midpoints) per round; the
    # count of eigenvalues below 0 flips exactly at eigenvalue zeros, so
    # brackets are not biased by the tolerance band. Halves whose counts
    # agree are dropped (their net flow is zero at this resolution).
    events = []
    for depth in range(REFINE_CAP + 1):
        keep = nlo != nhi
        lo, hi, nlo, nhi = lo[keep], hi[keep], nlo[keep], nhi[keep]
        mid = 0.5 * (lo + hi)
        done = (hi - lo <= eps) | (depth >= REFINE_CAP)
        events += [(x, y, m, 0.5 * (y - x)) for x, y, m in zip(lo[done], hi[done], mid[done])]
        lo, hi, nlo, nhi, mid = lo[~done], hi[~done], nlo[~done], nhi[~done], mid[~done]
        if not lo.size:
            break
        nmid = count(mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        nlo, nhi = np.concatenate([nlo, nmid]), np.concatenate([nmid, nhi])
    return events


def _clear_points(path: OperatorPath, lo: np.ndarray, hi: np.ndarray, tol: float, eps: float) -> list[np.ndarray]:
    # walk away from every bracket, doubling the step from eps, to the first
    # point with no eigenvalue within _CLEAR_FACTOR * tol of zero; a walk
    # ends at 0.4 of the room to the neighbouring bracket or endpoint
    x0 = np.concatenate([lo, hi])
    step = np.repeat([-1.0, 1.0], lo.size)
    max_ext = 0.4 * np.concatenate([lo - np.append(path.a, hi[:-1]), np.append(lo[1:], path.b) - hi])
    out = x0 + step * max_ext
    ext, walking = eps, eps <= max_ext
    while np.any(walking):
        idx = np.flatnonzero(walking)
        x = x0[idx] + step[idx] * ext
        clear = np.min(np.abs(path.eigvals(x)), axis=1) > _CLEAR_FACTOR * tol
        out[idx[clear]] = x[clear]
        walking[idx[clear]] = False
        ext *= 2.0
        walking &= ext <= max_ext
    return np.split(out, 2)


def _kernel_tol(path: OperatorPath, x: float, bracket: tuple[float, float], eps: float, zero_tol: float | None) -> float:
    # the drift band of the crossing estimate x over its bracket +- eps
    lo, hi = max(path.a, bracket[0] - eps), min(path.b, bracket[1] + eps)
    return _drift_tol(path._values([x, lo, hi]), zero_tol)


def locate_crossings(
    path: OperatorPath,
    n_grid: int = DEFAULT_N_GRID,
    zero_tol: float | None = None,
    eps_lambda: float | None = None,
) -> tuple[Crossing, ...]:
    """Locate and refine the singular parameters of a path.

    Events come from one of two detectors; events within ``2 * eps_lambda``
    of each other form one crossing.

    *Pencil (grid paths).* On the segment ``S(t) = S_c + (t - c) B`` between
    two samples the singular parameters are exactly ``t = c - 1/mu`` for the
    real eigenvalues ``mu`` of ``S_c^-1 B``: one solve per segment, by
    ``eigvalsh`` of ``S_c`` reduced by the eigenvectors of ``B`` when
    ``+-B`` is positive definite, and otherwise by ``eigvals`` at a clear
    point ``c`` with a kernel vector per root from one step of inverse
    iteration. A root moves the count of negative eigenvalues by the sign
    of its crossing form ``v^T B v`` (the signature of that form on the
    span of roots closer than ``2 * eps_lambda``; a near-real complex pair
    counts as two roots at its real part). The roots are not trusted alone.
    Every cell of the ``n_grid``-point scan grid that holds one gets real
    counts at its ends; a cell whose counts change is bisected exactly as
    the scan bisects it, reading each midpoint's count from the roots' step
    function, or from a real solve where a midpoint lies within a root's
    error bound or the step function disagrees with the cell's end counts.
    A cluster of roots with zero flow, or another complex pair on the
    segment (a possible touch), gives an event at its estimate only when a
    real solve there shows an eigenvalue in the drift band. A cluster with nonzero flow in a cell whose end counts agree (a
    close pair) is met as the scan meets it, by the scan's dip test on the
    four grid points around the cell. The path is scanned instead when a
    segment has no clear point, a root is not resolved within a quarter of
    a grid cell, a cell holding a root has an end within ``_CLEAR_FACTOR *
    tol`` of zero, or a dip-test point is singular. The scan grid is never
    solved on this route; its band is the widest band at the grid points
    next to the samples, where ``||S(t)||_F``, convex on each segment, peaks.

    *Scan (rule paths, and the fallback).* Scans a uniform grid of
    ``n_grid`` points and chases three kinds of events: cells whose negative
    eigenvalue count changes (bisection), singular samples, and dips of the
    smallest absolute eigenvalue that may touch zero between samples
    (golden-section; rejected dips are re-scanned at 16x resolution for
    cancelling pairs).

    Either way the crossings partition the domain, ``a = p0 < p1 < ... < pk
    = b``: each bracket gets a cell whose ends are clear points, walked out
    from the bracket until no eigenvalue is near zero. A crossing's
    ``local_sf`` is ``neg(p_i) - neg(p_(i+1))`` over its cell, from real
    solves, and every cell between crossings must show no change of
    ``neg``; one that does is bisected with real solves for the missed
    crossing and the partition is rebuilt. So the local flows sum to the
    extended flow ``total_sf`` by construction, whichever detector ran; a
    census that does not close within ``REFINE_CAP`` rounds raises
    ``RuntimeError``. ``kernel_dim`` counts the eigenvalues at the estimate
    that lie within the drift over the bracket +- eps_lambda (or within the
    band, when that is wider), and is at least ``|local_sf|``.

    Raises :class:`EndpointCrossingError` when a singularity is detected
    within ``eps_lambda`` of either endpoint.
    """
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    eps = 1e-8 * (path.b - path.a) if eps_lambda is None else float(eps_lambda)
    grid = np.linspace(path.a, path.b, n_grid)
    found = _pencil_events(path, grid, zero_tol, eps) if path.is_grid else None
    tol, events = _scan_events(path, grid, zero_tol, eps) if found is None else found
    return _census(path, events, tol, eps)


#: Safety factor on the first-order error bound of a pencil root.
_PENCIL_SAFETY = 32.0


def _segment_roots(path: OperatorPath, k: int, B: np.ndarray, scale: float, tol: float, eps: float):
    # The pencil solve of segment k with slope B: real roots t, their flows
    # and error bounds, and the real parts of the complex roots that may be
    # touches; None when no clear point is found. A root's error is at most
    # ``scale`` (32 d u max ||S||_F over the segment) over its crossing
    # slope, times cond(S_c) on the eigvals route: that bounds both the
    # solve's error and how close to the root a real count stops being exact.
    lo, hi = path._lambdas[k], path._lambdas[k + 1]
    for side in (1.0, -1.0):
        try:  # a cheap test first: most slopes of matrix paths are indefinite
            np.linalg.cholesky(side * B)
        except np.linalg.LinAlgError:
            continue
        wb, u = _lapack(np.linalg.eigh, side * B)
        if wb[0] > 1e-6 * wb[-1]:
            # side B = U W U^T: with R = U W^(-1/2), R^T S(t) R = M + side (t -
            # c) Id for M = R^T S_c R, so every curve moves with the sign of
            # B, at a slope of at least wb[0]
            c = 0.5 * (lo + hi)
            r = u / np.sqrt(wb)
            t = c - side * _lapack(np.linalg.eigvalsh, as_sym(r.T @ path._values([c])[0] @ r).entries)
            return t, np.full(t.size, side), np.full(t.size, scale / wb[0]), np.empty(0)
    for frac in (0.5, 0.25, 0.75, 0.125, 0.875):
        c = lo + frac * (hi - lo)
        sc = path._values([c])[0]
        wc = np.abs(_lapack(np.linalg.eigvalsh, sc))
        if wc.min() > _CLEAR_FACTOR * tol:
            break
    else:
        return None
    scale *= wc.max() / wc.min()
    span, rng = hi - lo, np.random.default_rng(0)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            tc = c - 1.0 / np.linalg.eigvals(np.linalg.solve(sc, B))
        # the real roots on the segment, and near-real complex pairs, which
        # may be perturbed real pairs, as two roots at their real part; the
        # other complex pairs on it may be touches
        width = np.abs(tc.imag)
        on = (tc.imag >= 0.0) & (tc.real >= lo - 1e-6 * span) & (tc.real <= hi + 1e-6 * span) & (width <= span)
        real, pair = on & (width == 0.0), on & (width > 0.0) & (width <= 1e-4 * span)
        t = np.concatenate([tc.real[real], tc.real[pair], tc.real[pair]])
        # a kernel vector at each root by one step of inverse iteration from
        # its own random start, a hair beside the root, where S is not
        # exactly singular: the roots of a multiple root span its kernel
        starts = rng.normal(size=(t.size, path.dim))
        vr = np.reshape([np.linalg.solve(sc + (x + 1e-9 * span - c) * B, y) for x, y in zip(t, starts)], starts.shape).T
    except np.linalg.LinAlgError:
        return None
    form = np.einsum("ij,ij->j", vr, B @ vr) / np.einsum("ij,ij->j", vr, vr)
    with np.errstate(divide="ignore"):
        err = scale / np.abs(form) + 2.0 * np.concatenate([np.zeros(int(real.sum())), width[pair], width[pair]])
    flow = np.sign(form)
    # roots closer than 2 eps share their flow: the signature of the crossing
    # form on their span
    order, top = np.argsort(t), np.linalg.norm(B)
    for idx in np.split(order, np.flatnonzero(np.diff(t[order]) > 2 * eps) + 1):
        if idx.size > 1:
            q = vr[:, idx] / np.linalg.norm(vr[:, idx], axis=0)
            g = _lapack(np.linalg.eigvalsh, as_sym(q.T @ B @ q).entries)
            up, down = int(np.sum(g > 1e-10 * top)), int(np.sum(g < -1e-10 * top))
            flow[idx] = [1.0] * up + [-1.0] * down + [0.0] * (idx.size - up - down)
    return t, flow, err, tc.real[on & ~real & ~pair]


def _pencil_roots(path: OperatorPath, tol: float, eps: float):
    # the roots of all segments of a grid path as arrays (t, flow, err,
    # touches), or None when a segment has no clear point
    lams, mats = path._lambdas, path._matrices
    scale = [_PENCIL_SAFETY * path.dim * np.finfo(float).eps * np.linalg.norm(m) for m in mats]
    parts = []
    for k in range(lams.size - 1):
        B = (mats[k + 1] - mats[k]) / (lams[k + 1] - lams[k])
        part = _segment_roots(path, k, B, max(scale[k], scale[k + 1]), tol, eps)
        if part is None:
            return None
        t, flow, err, touch = part
        # a root at an interior sample is seen from both of its segments,
        # each with its one-sided flow: each counts half
        lo, hi = lams[k], lams[k + 1]
        keep = (t >= lo - err) & (t <= hi + err)
        half = ((k > 0) & (t - lo <= err)) | ((k < lams.size - 2) & (hi - t <= err))
        parts.append((t[keep], np.where(half, 0.5, 1.0)[keep] * flow[keep], err[keep], touch))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _pencil_events(path: OperatorPath, grid: np.ndarray, zero_tol: float | None, eps: float):
    # (tol, events) of a grid path from its pencil roots, or None when the
    # path is to be scanned (see locate_crossings)
    a, b = path.a, path.b
    # the band of the scan grid without solving it: ||S(t)||_F is convex on
    # each segment, so on the grid it peaks at a grid point next to a sample
    lams = path._lambdas
    near = np.concatenate([np.searchsorted(grid, lams), np.searchsorted(grid, lams, "right") - 1])
    near = grid[np.unique(np.clip(near, 0, grid.size - 1))]
    tol = max(float(default_zero_tol(path._values([x])[0], zero_tol)) for x in near)
    if np.min(np.abs(path.eigvals([a, b]))) <= tol:
        raise EndpointCrossingError(f"singular endpoint matrix on [{a:.12g}, {b:.12g}]")
    roots = _pencil_roots(path, tol, eps)
    if roots is None:
        return None
    t, flow, err, touch = roots
    keep = (t > a) & (t < b)
    order = np.argsort(t[keep])
    t, flow, err = t[keep][order], flow[keep][order], err[keep][order]
    if not np.all(err <= 0.25 * (grid[1] - grid[0])):
        return None
    # clusters of roots within 2 eps, each with its flow and its zone, the
    # span of its roots widened by their error
    cid = np.cumsum(np.diff(t, prepend=t[:1]) > 2 * eps)
    first = np.flatnonzero(np.diff(cid, prepend=-1))
    last = np.append(first[1:], t.size)[: first.size] - 1
    cflow = np.bincount(cid, flow, first.size)
    cerr = np.zeros(first.size)
    np.maximum.at(cerr, cid, err)
    zlo, zhi = t[first] - cerr, t[last] + cerr
    # the scan cells holding roots, with real counts at their ends
    cell = np.clip(np.searchsorted(grid, t, "right") - 1, 0, grid.size - 2)
    cells = np.unique(cell)
    ends = np.unique(np.concatenate([cells, cells + 1]))
    w = path.eigvals(grid[ends])
    if ends.size and np.min(np.abs(w)) <= _CLEAR_FACTOR * tol:
        return None
    base = np.zeros(grid.size, dtype=int)
    base[ends] = np.sum(w < 0.0, axis=1)
    nlo, nhi = base[cells], base[cells + 1]
    below = np.concatenate([[0.0], np.cumsum(flow)])  # flow of the roots below a parameter

    def step(x):
        # counts read off the roots, real ones in a zone or off the integers
        i = np.searchsorted(grid, x, "right") - 1
        n = base[i] - (below[np.searchsorted(t, x)] - below[np.searchsorted(t, grid[i])])
        real = np.any((x[:, None] >= zlo) & (x[:, None] <= zhi), axis=1) | (n != np.rint(n))
        n = np.rint(n).astype(int)
        if np.any(real):
            n[real] = _neg_counts(path, x[real])
        return n

    flat = nlo == nhi
    # a cluster with nonzero flow in a cell whose end counts agree is reached
    # by the scan only through a dip next to the cell: the dip test runs on
    # the four grid points around each such cell, as the scan runs it
    hidden = np.unique(cell[flat[np.searchsorted(cells, cell)] & (cflow[cid] != 0)])
    win = np.clip(hidden[:, None] + np.arange(-1, 3), 0, grid.size - 1)
    around = path.eigvals(grid[win.ravel()]).reshape(win.shape + (path.dim,))
    if win.size and np.min(np.abs(around)) <= tol:
        return None
    dips = _dips(np.sum(around < -tol, axis=2), np.min(np.abs(around), axis=2))
    centers = win[:, 1:3][dips & (win[:, 1:3] > 0) & (win[:, 1:3] < grid.size - 1)]
    events = _dip_events(path, grid, np.unique(centers), tol, eps)
    # cells whose end counts the step function reproduces are replayed with
    # it, the others bisected by real solves
    fits = nlo - (below[np.searchsorted(t, grid[cells + 1])] - below[np.searchsorted(t, grid[cells])]) == nhi
    for count, sel in ((step, ~flat & fits), (partial(_neg_counts, path), ~flat & ~fits)):
        events += _bisect(count, grid[cells[sel]], grid[cells[sel] + 1], nlo[sel], nhi[sel], eps)
    # zero-flow clusters and touches: kept where an eigenvalue is in the
    # drift band at the estimate
    mean = np.bincount(cid, t, first.size) / np.bincount(cid, minlength=first.size)
    est = np.concatenate([mean[cflow == 0], touch])
    est = est[(est > a) & (est < b)]
    for x, w_x in zip(est, path.eigvals(est)):
        lo, hi = max(x - eps / 2, a), min(x + eps / 2, b)
        if _zero_count(w_x, _kernel_tol(path, x, (lo, hi), eps, tol)):
            events.append((lo, hi, x, eps / 2))
    return tol, events


def _scan_events(path: OperatorPath, grid: np.ndarray, zero_tol: float | None, eps: float):
    # (tol, events) of a path from its scan grid (see locate_crossings)
    a, b, n_grid = path.a, path.b, grid.size
    w = path.eigvals(grid)
    tol = _family_tol(w, zero_tol)
    neg, neg0 = np.sum(w < -tol, axis=1), np.sum(w < 0.0, axis=1)
    minabs = np.min(np.abs(w), axis=1)
    singular = minabs <= tol

    # singular samples, grouped into maximal runs [i, j]
    flips = np.flatnonzero(np.diff(np.concatenate([[0], singular, [0]])))
    runs = list(zip(flips[::2], flips[1::2] - 1))
    for i, j in runs:
        if grid[i] - a <= eps or b - grid[j] <= eps:
            raise EndpointCrossingError(
                f"singular parameter within eps_lambda of an endpoint (samples "
                f"{grid[i]:.12g}..{grid[j]:.12g} on [{a:.12g}, {b:.12g}])"
            )
    # events are (lo, hi, estimate, accuracy of the estimate); non-isolated
    # singular runs keep their full extent
    events = [(grid[i], grid[j], 0.5 * (grid[i] + grid[j]), 0.5 * (grid[j] - grid[i])) for i, j in runs if i < j]
    isolated = np.array([i for i, j in runs if i == j], dtype=int)
    x0, f0 = _golden_min(path, grid[np.maximum(isolated - 1, 0)], grid[np.minimum(isolated + 1, n_grid - 1)], eps)
    for i, x, f in zip(isolated, x0, f0):
        est = x if f <= minabs[i] else grid[i]
        events.append((max(est - eps / 2, a), min(est + eps / 2, b), est, eps / 2))
    dips = 1 + np.flatnonzero(_dips(neg, minabs) & ~(singular[:-2] | singular[1:-1] | singular[2:]))
    sign = np.flatnonzero(neg[:-1] != neg[1:])
    events += _dip_events(path, grid, dips, tol, eps)
    events += _bisect(partial(_neg_counts, path), grid[sign], grid[sign + 1], neg0[sign], neg0[sign + 1], eps)
    return tol, events


def _dips(neg: np.ndarray, minabs: np.ndarray) -> np.ndarray:
    # whether the smallest |eigenvalue| at each inner point of the last axis
    # dips low enough between its neighbours, with no count change, to touch
    # zero between samples
    return (
        (neg[..., :-2] == neg[..., 1:-1])
        & (neg[..., 1:-1] == neg[..., 2:])
        & (minabs[..., 1:-1] <= np.minimum(minabs[..., :-2], minabs[..., 2:]))
        & (minabs[..., 1:-1] <= 0.6 * np.maximum(minabs[..., :-2], minabs[..., 2:]))
    )


def _dip_events(path: OperatorPath, grid: np.ndarray, centers: np.ndarray, tol: float, eps: float):
    # golden-section search of the smallest |eigenvalue| on [grid[j - 1],
    # grid[j + 1]] for each dip center j: an event where it reaches the
    # band; elsewhere a cancelling pair may hide, so the interval is
    # re-scanned 16x finer and bisected
    a, b = path.a, path.b
    x0, f0 = _golden_min(path, grid[centers - 1], grid[centers + 1], eps)
    events = [(max(x - eps / 2, a), min(x + eps / 2, b), x, eps / 2) for x in x0[f0 <= tol]]
    sub = np.linspace(grid[centers - 1][f0 > tol], grid[centers + 1][f0 > tol], 33, axis=1)
    sneg = _neg_counts(path, sub.ravel()).reshape(sub.shape)
    cells = (sub[:, :-1], sub[:, 1:], sneg[:, :-1], sneg[:, 1:])
    return events + _bisect(partial(_neg_counts, path), *(x.ravel() for x in cells), eps)


def _census(path: OperatorPath, events: list[tuple], tol: float, eps: float) -> tuple[Crossing, ...]:
    # group the events, close the partition with real counts, and build the
    # crossings (see locate_crossings)
    a, b = path.a, path.b
    for _ in range(REFINE_CAP):
        events.sort(key=lambda e: e[:2])
        groups: list[list[tuple]] = []
        for e in events:
            if groups and e[0] - groups[-1][-1][1] <= 2 * eps:
                groups[-1].append(e)
            else:
                groups.append([e])
        lo = np.array([min(e[0] for e in g) for g in groups])
        hi = np.array([max(e[1] for e in g) for g in groups])
        for x, y in zip(lo, hi):
            if x - eps <= a or y + eps >= b:
                raise EndpointCrossingError(
                    f"crossing bracket [{x:.12g}, {y:.12g}] reaches an endpoint of [{a:.12g}, {b:.12g}]"
                )
        left, right = _clear_points(path, lo, hi, tol, eps)
        # partition a, left_0, right_0, left_1, ..., b: crossing cells at odd
        # positions, the cells between crossings at even ones
        pts = np.concatenate([[a], np.column_stack([left, right]).ravel(), [b]])
        npts = _neg_counts(path, pts)
        gaps = np.flatnonzero(npts[0::2] != npts[1::2])
        if not gaps.size:
            break
        events += _bisect(
            partial(_neg_counts, path), pts[2 * gaps], pts[2 * gaps + 1], npts[2 * gaps], npts[2 * gaps + 1], eps
        )
    else:
        raise RuntimeError(f"crossing census did not close within {REFINE_CAP} refinement rounds")

    est = np.array([min(g, key=lambda e: e[3])[2] for g in groups])
    crossings = []
    for x, w_x, x_lo, x_hi, n_lo, n_hi in zip(est, path.eigvals(est), lo, hi, npts[1:-1:2], npts[2:-1:2]):
        kdim = _zero_count(w_x, _kernel_tol(path, x, (x_lo, x_hi), eps, tol))
        crossings.append(
            Crossing(
                lambda_est=float(x),
                bracket=(float(x_lo), float(x_hi)),
                kernel_dim=max(kdim, abs(int(n_lo - n_hi)), 1),
                local_sf=int(n_lo - n_hi),
            )
        )
    return tuple(crossings)


def scan_path(
    path: OperatorPath,
    n_grid: int = DEFAULT_N_GRID,
    zero_tol: float | None = None,
    eps_lambda: float | None = None,
) -> SpectralFlowResult:
    """Extended spectral flow together with located crossings."""
    base = extended_sf(path, zero_tol=zero_tol)
    crossings = locate_crossings(path, n_grid=n_grid, zero_tol=zero_tol, eps_lambda=eps_lambda)
    return replace(base, crossings=crossings, grid_points_used=n_grid)


@dataclass(frozen=True)
class CrossingForm:
    matrix: np.ndarray
    signature: int
    regular: bool


def crossing_form(
    path: OperatorPath,
    lambda0: float,
    h: float | None = None,
    zero_tol: float | None = None,
) -> CrossingForm:
    """Derivative quadratic form on the kernel at a crossing.

    With ``K`` an orthonormal kernel basis of ``S(lambda0)`` and ``D`` the
    central difference ``(S(lambda0+h) - S(lambda0-h)) / (2h)``, returns
    ``K.T D K``, its signature, and whether the form is non-degenerate.
    """
    if not path.smooth:
        raise ValueError("crossing_form requires a smooth path")
    if h is None:
        h = max(1e-5 * (path.b - path.a), 1e-7)
    if lambda0 - h < path.a or lambda0 + h > path.b:
        raise ValueError(f"lambda0 +- h = {lambda0} +- {h} leaves the domain [{path.a}, {path.b}]")
    k = kernel_basis(path(lambda0), zero_tol=zero_tol)
    if k.shape[1] == 0:
        raise ValueError(f"not a crossing: kernel is trivial at lambda0 = {lambda0}")
    d = (path(lambda0 + h).entries - path(lambda0 - h).entries) / (2.0 * h)
    form = as_sym(k.T @ d @ k)
    q = inertia(form)
    return CrossingForm(matrix=form.entries, signature=q.signature, regular=q.zero == 0)


def classify_crossings(
    path: OperatorPath,
    crossings: Sequence[Crossing],
    h: float | None = None,
    eps_lambda: float | None = None,
) -> tuple[Crossing, ...]:
    """Attach crossing-form signatures and regularity flags to crossings."""
    eps = 1e-8 * (path.b - path.a) if eps_lambda is None else eps_lambda
    out = []
    for c in crossings:
        form = crossing_form(path, c.lambda_est, h=h, zero_tol=_kernel_tol(path, c.lambda_est, c.bracket, eps, None))
        out.append(replace(c, crossing_form_signature=form.signature, regular=form.regular))
    return tuple(out)


def sf_regular_sum(
    path: OperatorPath,
    crossings: Sequence[Crossing] | None = None,
    h: float | None = None,
    n_grid: int = DEFAULT_N_GRID,
) -> int:
    """Sum of crossing-form signatures over regular crossings.

    Refuses when any crossing form is degenerate; for paths with only regular
    crossings the sum equals the extended spectral flow.
    """
    if crossings is None:
        crossings = locate_crossings(path, n_grid=n_grid)
    classified = classify_crossings(path, crossings, h=h)
    bad = [c for c in classified if not c.regular]
    if bad:
        where = ", ".join(f"{c.lambda_est:.12g}" for c in bad)
        raise ValueError(f"degenerate crossing form at lambda = {where}; the signature sum does not apply")
    return sum(c.crossing_form_signature for c in classified)


def is_nondecreasing(path: OperatorPath, n_grid: int = DEFAULT_N_GRID, zero_tol: float | None = None) -> bool:
    """True when no increment has an eigenvalue below its tolerance band:
    exactly, from the sample differences, on a grid path (``n_grid`` is then
    not used), and on the increments of an ``n_grid``-point grid otherwise."""
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    mats = np.stack(path._matrices) if path.is_grid else path._values(np.linspace(path.a, path.b, n_grid))
    w = _lapack(np.linalg.eigvalsh, np.diff(mats, axis=0))
    return bool(np.all(w[:, :1] >= -default_zero_tol(eigvals=w, zero_tol=zero_tol)))


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the endpoint-ordering comparison between two paths.

    When ``hypothesis`` holds (left path below the right at the start, above
    at the end), the flow of the right path cannot exceed the left one's.
    """

    start_ordered: bool
    end_ordered: bool
    hypothesis: bool
    sf_left: int
    sf_right: int
    comparison_holds: bool

    def to_dict(self) -> dict:
        return {
            "start_ordered": self.start_ordered,
            "end_ordered": self.end_ordered,
            "hypothesis": self.hypothesis,
            "sf_left": self.sf_left,
            "sf_right": self.sf_right,
            "comparison_holds": self.comparison_holds,
        }


def compare_paths(left: OperatorPath, right: OperatorPath, zero_tol: float | None = None) -> ComparisonReport:
    """Check ``left_a <= right_a`` and ``right_b <= left_b`` (positive
    semidefinite differences) and report both flows; under the hypothesis the
    conclusion ``sf(right) <= sf(left)`` is asserted by ``comparison_holds``."""
    if left.dim != right.dim:
        raise ValueError("dimension mismatch")
    if abs(left.a - right.a) > _JUNCTION_TOL * max(1.0, abs(left.a)) or abs(left.b - right.b) > _JUNCTION_TOL * max(1.0, abs(left.b)):
        raise ValueError("domain mismatch")
    start_ordered = inertia(right(right.a).entries - left(left.a).entries, zero_tol).neg == 0
    end_ordered = inertia(left(left.b).entries - right(right.b).entries, zero_tol).neg == 0
    sf_left = extended_sf(left, zero_tol=zero_tol).total_sf
    sf_right = extended_sf(right, zero_tol=zero_tol).total_sf
    return ComparisonReport(
        start_ordered=start_ordered,
        end_ordered=end_ordered,
        hypothesis=start_ordered and end_ordered,
        sf_left=sf_left,
        sf_right=sf_right,
        comparison_holds=sf_right <= sf_left,
    )


class AxiomViolation(AssertionError):
    """A randomized flow-property check found a counterexample.

    The offending instance is serialized on ``payload`` (JSON-compatible).
    """

    def __init__(self, message: str, payload: dict):
        super().__init__(message + "\n" + json.dumps(payload, sort_keys=True, default=_np_default))
        self.payload = payload


def _np_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj)}")


@dataclass(frozen=True)
class AxiomReport:
    seed: int
    trials: int
    passed: dict

    @property
    def all_passed(self) -> bool:
        return all(v == self.trials for v in self.passed.values())

    def to_dict(self) -> dict:
        return {"seed": self.seed, "trials": self.trials, "passed": dict(self.passed), "all_passed": self.all_passed}


def _rand_sym(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return (m + m.T) / 2.0


def _rand_orth(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _rand_invertible_sym(rng, d):
    q = _rand_orth(rng, d)
    w = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    return (q * w) @ q.T


def _rand_grid_path(rng, d, n_samples=4, invertible_ends=True, singular_middle=False):
    lams = np.sort(rng.uniform(-1.0, 1.0, size=n_samples))
    lams[0], lams[-1] = -1.0, 1.0
    while np.any(np.diff(lams) <= 1e-3):
        lams = np.sort(rng.uniform(-1.0, 1.0, size=n_samples))
        lams[0], lams[-1] = -1.0, 1.0
    mats = [_rand_sym(rng, d) for _ in range(n_samples)]
    if invertible_ends:
        mats[0] = _rand_invertible_sym(rng, d)
        mats[-1] = _rand_invertible_sym(rng, d)
    if singular_middle:
        q = _rand_orth(rng, d)
        w = np.concatenate([[0.0], rng.uniform(0.3, 2.0, size=d - 1) * rng.choice([-1.0, 1.0], size=d - 1)])
        mats[n_samples // 2] = (q * w) @ q.T
    return OperatorPath.from_samples(lams, mats)


def verify_axioms(seed: int = 0, trials: int = 100, dims: Sequence[int] = (2, 3, 4, 5, 6, 7, 8)) -> AxiomReport:
    """Randomized exact-integer checks of the defining flow properties.

    Runs ``trials`` independent instances of each check: normalization on
    invertible families, the endpoint Morse-index formula, direct-sum and
    concatenation additivity (including singular junctions), homotopy
    invariance with fixed invertible endpoints, monotone non-negativity, and
    reversal antisymmetry on admissible paths. The first counterexample raises
    :class:`AxiomViolation` with the instance serialized.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in dims)
    passed = {
        "normalization": 0,
        "morse_index_formula": 0,
        "direct_sum": 0,
        "homotopy_invariance": 0,
        "concatenation": 0,
        "monotone_nonnegative": 0,
        "reversal_antisymmetry": 0,
    }

    def fail(name, trial, message, **payload):
        raise AxiomViolation(
            f"{name} failed at trial {trial}: {message}",
            {"check": name, "seed": seed, "trial": trial, **payload},
        )

    for t in range(trials):
        d = int(rng.choice(dims))

        # normalization: paths of invertible matrices have zero flow; the
        # family is affine in lambda, so its two endpoints give it exactly
        q = _rand_orth(rng, d)
        signs = rng.choice([-1.0, 1.0], size=d)
        base = rng.uniform(0.4, 1.4, size=d)
        drift = rng.uniform(-0.3, 0.3, size=d)
        p = OperatorPath.from_samples([0.0, 1.0], [(q * (signs * (base + drift * lam))) @ q.T for lam in (0.0, 1.0)])
        sf = extended_sf(p).total_sf
        if sf != 0:
            fail("normalization", t, f"sf = {sf}", matrix_start=p(0.0).entries, matrix_end=p(1.0).entries)
        passed["normalization"] += 1

        # endpoint Morse-index formula on admissible paths
        p = _rand_grid_path(rng, d)
        mu_a = int(np.sum(_lapack(np.linalg.eigvalsh, p(p.a).entries) < 0.0))
        mu_b = int(np.sum(_lapack(np.linalg.eigvalsh, p(p.b).entries) < 0.0))
        sf = extended_sf(p).total_sf
        if sf != mu_a - mu_b:
            fail("morse_index_formula", t, f"sf = {sf}, mu_a - mu_b = {mu_a - mu_b}",
                 matrix_start=p(p.a).entries, matrix_end=p(p.b).entries)
        passed["morse_index_formula"] += 1

        # direct-sum additivity
        d2 = int(rng.choice(dims))
        p1, p2 = _rand_grid_path(rng, d), _rand_grid_path(rng, d2)
        lhs = extended_sf(direct_sum(p1, p2)).total_sf
        rhs = extended_sf(p1).total_sf + extended_sf(p2).total_sf
        if lhs != rhs:
            fail("direct_sum", t, f"sf(sum) = {lhs}, sf parts = {rhs}",
                 start_1=p1(p1.a).entries, start_2=p2(p2.a).entries)
        passed["direct_sum"] += 1

        # homotopy invariance with s-independent invertible endpoints
        a_mat = _rand_invertible_sym(rng, d)
        b_mat = _rand_invertible_sym(rng, d)
        w0, w1 = _rand_sym(rng, d), _rand_sym(rng, d)
        lams = np.linspace(0.0, 1.0, 5)
        values = []
        for s in np.linspace(0.0, 1.0, 10):
            mats = [
                (1 - x) * a_mat + x * b_mat + math.sin(math.pi * x) * (w0 + s * w1)
                for x in lams
            ]
            values.append(extended_sf(OperatorPath.from_samples(lams, mats)).total_sf)
        if len(set(values)) != 1:
            fail("homotopy_invariance", t, f"sf over slices = {values}", endpoint_a=a_mat, endpoint_b=b_mat)
        passed["homotopy_invariance"] += 1

        # concatenation additivity, singular junction in half the trials
        p = _rand_grid_path(rng, d, n_samples=5, singular_middle=(t % 2 == 0))
        lams_full = p._lambdas
        mid_idx = len(lams_full) // 2
        left = OperatorPath.from_samples(lams_full[: mid_idx + 1], p._matrices[: mid_idx + 1])
        right_part = OperatorPath.from_samples(lams_full[mid_idx:], p._matrices[mid_idx:])
        whole = extended_sf(p).total_sf
        pieces = extended_sf(left).total_sf + extended_sf(right_part).total_sf
        glued = extended_sf(concat(left, right_part)).total_sf
        if whole != pieces or glued != whole:
            fail("concatenation", t, f"whole = {whole}, pieces = {pieces}, glued = {glued}",
                 junction=p._matrices[mid_idx])
        passed["concatenation"] += 1

        # monotone non-decreasing paths have non-negative flow
        l0 = _rand_sym(rng, d)
        rank = int(rng.integers(0, d + 1))
        if rank == 0:
            psd = np.zeros((d, d))
        else:
            g = rng.normal(size=(d, rank))
            psd = g @ g.T
        p = OperatorPath.from_samples([0.0, 1.0], [l0, l0 + psd])
        sf = extended_sf(p).total_sf
        if sf < 0:
            fail("monotone_nonnegative", t, f"sf = {sf}", base=l0, increment=psd)
        if rank == 0 and sf != 0:
            fail("monotone_nonnegative", t, f"constant path gave sf = {sf}", base=l0)
        passed["monotone_nonnegative"] += 1

        # reversal antisymmetry on admissible paths
        p = _rand_grid_path(rng, d)
        sf_fwd = extended_sf(p).total_sf
        sf_rev = extended_sf(reverse(p)).total_sf
        if sf_rev != -sf_fwd:
            fail("reversal_antisymmetry", t, f"forward {sf_fwd}, reverse {sf_rev}",
                 matrix_start=p(p.a).entries, matrix_end=p(p.b).entries)
        passed["reversal_antisymmetry"] += 1

    return AxiomReport(seed=seed, trials=trials, passed=passed)
