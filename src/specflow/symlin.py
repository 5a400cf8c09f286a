"""Dense symmetric linear algebra: eigendecomposition, inertia, kernel bases,
and relative Morse indices.

Everything in this module is pure: inputs are never mutated, stored arrays are
read-only, and results are deterministic for fixed inputs, so callers may
evaluate over collections in parallel and merge results in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "REL_ZERO_TOL",
    "RANK_TOL",
    "EigenSolverError",
    "SymMatrix",
    "EigenDecomposition",
    "Inertia",
    "as_sym",
    "default_zero_tol",
    "eigensym",
    "inertia",
    "kernel_basis",
    "rel_morse",
]

#: Relative eigenvalue tolerance used whenever no explicit zero_tol is given.
REL_ZERO_TOL = 1e-8

# Every zero decision uses the band of default_zero_tol or one of the
# widenings below it, each with its reason.

#: Cell ends of a crossing census have no eigenvalue within ``_CLEAR_FACTOR
#: * tol`` of zero, a band's width clear of the band, so counts below 0 and
#: below ``-tol`` agree there with room to spare.
_CLEAR_FACTOR = 2.0

#: Relative width ``eta`` of the margin around the band that an inertia
#: sweep's count needs before it replaces a dense solve.
_MARGIN = 0.5

#: Rank tolerance for spectral-subspace intersections in :func:`rel_morse`.
RANK_TOL = 1e-8

_RECON_TOL = 1e-10
_ORTH_TOL = 1e-10


class EigenSolverError(RuntimeError):
    """The symmetric eigensolver failed to converge or produced bad factors."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A dense real symmetric matrix.

    The constructor symmetrizes its input via ``(S + S.T) / 2``, so ``entries``
    is exactly symmetric afterwards and never aliases the input; non-finite
    or non-square input is rejected.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.entries, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {s.shape}")
        if s.shape[0] == 0:
            raise ValueError("matrix must have positive dimension")
        if not np.all(np.isfinite(s)):
            raise ValueError("matrix entries must be finite")
        # halving in place is exact, so this equals (s + s.T) / 2.0 bit for
        # bit without a second full-size temporary
        out = np.add(s, s.T, order="C")
        out *= 0.5
        out.flags.writeable = False
        object.__setattr__(self, "entries", out)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm_fro(self) -> float:
        return float(np.linalg.norm(self.entries))

    def shifted(self, delta: float) -> "SymMatrix":
        """Return ``S + delta * Id``."""
        return SymMatrix(self.entries + delta * np.eye(self.dim))


def as_sym(value) -> SymMatrix:
    """Coerce an array-like (or pass through a SymMatrix) to a SymMatrix."""
    if isinstance(value, SymMatrix):
        return value
    return SymMatrix(np.asarray(value, dtype=float))


def default_zero_tol(S=None, zero_tol: float | None = None, *, eigvals: np.ndarray | None = None):
    """Half-width of the zero band: ``zero_tol`` when given (it must be
    non-negative), else ``REL_ZERO_TOL * max(1, ||S||_F / sqrt(dim))``.

    Given eigenvalue rows ``eigvals`` of shape ``(n, dim)`` instead of ``S``,
    the default is the same rule per row (``||w||_2 = ||S||_F``), returned as
    an ``(n, 1)`` column.
    """
    if zero_tol is not None:
        if zero_tol < 0:
            raise ValueError("zero_tol must be non-negative")
        return float(zero_tol)
    if eigvals is None:
        S = as_sym(S)
        norm, dim = S.norm_fro(), S.dim
    else:
        norm, dim = np.linalg.norm(eigvals, axis=1, keepdims=True), eigvals.shape[1]
    return REL_ZERO_TOL * np.maximum(1.0, norm / math.sqrt(dim))


def _family_tol(eigvals: np.ndarray, zero_tol: float | None = None) -> float:
    """The widest band over the eigenvalue rows of a scan grid or lattice, so
    a count or a singularity test means the same all over the family."""
    return float(np.max(default_zero_tol(eigvals=eigvals, zero_tol=zero_tol)))


def _drift_tol(mats: np.ndarray, zero_tol: float | None = None) -> float:
    """Band for the kernel at a crossing estimate ``mats[0]``, widened to its
    largest Frobenius distance to the path at the bracket ends ``mats[1:]``,
    which bounds how far an eigenvalue moves in between (Weyl)."""
    drift = max(float(np.linalg.norm(mats[0] - x)) for x in mats[1:])
    return max(default_zero_tol(mats[0], zero_tol), drift)


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral factors of a symmetric matrix.

    ``eigenvalues`` is sorted ascending and ``eigenvectors`` holds the matching
    orthonormal columns, with ``S = V diag(w) V.T`` up to the reconstruction
    tolerance enforced by :func:`eigensym`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v, w = self.eigenvectors, self.eigenvalues
        return (v * w) @ v.T


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue counts below, inside, and above the band ``[-zero_tol, zero_tol]``."""

    neg: int
    zero: int
    pos: int
    zero_tol: float

    @property
    def dim(self) -> int:
        return self.neg + self.zero + self.pos

    @property
    def morse_index(self) -> int:
        return self.neg

    @property
    def signature(self) -> int:
        return self.pos - self.neg

    @property
    def kernel_dim(self) -> int:
        return self.zero


def _lapack(solver, entries: np.ndarray):
    """Run a numpy.linalg symmetric solver on a matrix or a stack of
    matrices, reporting non-convergence as :class:`EigenSolverError`."""
    try:
        return solver(entries)
    except np.linalg.LinAlgError as err:
        off = float(np.linalg.norm(entries * (1.0 - np.eye(entries.shape[-1]))))
        raise EigenSolverError(
            f"symmetric eigensolver did not converge "
            f"(off-diagonal residual {off:.3e})"
        ) from err


def eigensym(S) -> EigenDecomposition:
    """Full spectral decomposition of a symmetric matrix.

    Raises :class:`EigenSolverError` when the solver fails to converge or the
    factors violate the reconstruction / orthonormality tolerances.
    """
    S = as_sym(S)
    w, v = _lapack(np.linalg.eigh, S.entries)
    scale = max(1.0, S.norm_fro())
    resid = float(np.linalg.norm(S.entries - (v * w) @ v.T))
    orth = float(np.linalg.norm(v.T @ v - np.eye(S.dim)))
    if resid > _RECON_TOL * scale or orth > _ORTH_TOL * S.dim:
        raise EigenSolverError(
            f"eigendecomposition failed validation: reconstruction residual "
            f"{resid:.3e}, orthonormality defect {orth:.3e}"
        )
    return EigenDecomposition(_readonly(w), _readonly(v))


def inertia(S, zero_tol: float | None = None) -> Inertia:
    """Count eigenvalues of ``S`` below ``-zero_tol``, within the tolerance
    band, and above ``+zero_tol``.

    ``zero_tol=None`` selects the scale-relative default.
    """
    S = as_sym(S)
    zero_tol = default_zero_tol(S, zero_tol)
    w = _lapack(np.linalg.eigvalsh, S.entries)
    neg = int(np.sum(w < -zero_tol))
    pos = int(np.sum(w > zero_tol))
    return Inertia(neg=neg, zero=S.dim - neg - pos, pos=pos, zero_tol=zero_tol)


def _shift_counts(q: np.ndarray, cuts, shifts, margin: float) -> np.ndarray | None:
    """Number of eigenvalues of ``q`` below each of ``shifts``, from one block
    LDL^T sweep, or ``None`` when the counts are not certified.

    ``q`` is symmetric and block tridiagonal over the diagonal blocks ending
    at the increasing positions ``cuts`` (the last one is ``dim``); entries
    outside the three block diagonals are not read. By Sylvester's law and
    Haynsworth's inertia additivity, the inertia of ``T = q - s Id`` is the
    sum of the inertias of the pivots ``D_0 = A_0 - s Id`` and ``D_(i+1) =
    A_(i+1) - s Id - W^T Lambda^-1 W``, with ``D_i = V Lambda V^T`` and ``W =
    V^T B_i`` (``A_i``, ``B_i`` the diagonal and superdiagonal blocks). All
    shifts go through each pivot in one stacked ``eigh``. The work is
    ``O(sum of cubed block sizes)`` instead of the ``O(dim^3)`` of a dense
    solve.

    Certification. The sweep is an exact factorization ``T + E = L J L^T``
    with ``J`` the signs of the pivot eigenvalues, where to first order in
    the unit roundoff ``u`` and with ``m`` the largest block size: the
    eigensolves perturb ``D_i`` by ``O(m u ||D_i||)``; forming ``W`` perturbs
    ``B_i`` by ``O(m u ||B_i||)``, and ``||B_i||^2 <= ||D_i|| phi_i`` with
    ``phi_i = trace(B_i^T |D_i|^-1 B_i)``; the Schur update is accurate to
    ``O(m u) |W|^T |Lambda|^-1 |W|``, whose norm is at most ``m u phi_i``;
    and forming ``D_(i+1)`` costs ``O(m u (||D_(i+1)|| + phi_i + |s|))``.
    With the pivot growth ``rho = max_i (||D_i||, phi_i) + max |s|`` this
    gives ``||E|| <= 4 m eps rho`` (``eps = 2u``), independent of the
    dimension, since ``E`` is block tridiagonal too. The counts are returned
    only when that bound is at most ``margin``, so each count is exact for a
    matrix within ``margin`` of ``q`` in the 2-norm: a count at ``s`` is
    then exact for ``q`` itself when no eigenvalue of ``q`` lies within
    ``margin`` of ``s``. A pivot eigenvalue that is zero or not finite gives
    ``None`` as well: ``q`` may still be invertible (``[[0, I], [I, 0]]``
    at shift 0), but this sweep cannot tell.
    """
    shifts = np.asarray(shifts, dtype=float)
    m = int(np.max(np.diff(cuts, prepend=0)))
    unit = 4.0 * m * np.finfo(float).eps
    lams, phi = [], 0.0
    start, carry = 0, np.zeros((shifts.size, cuts[0], cuts[0]))
    # a zero or tiny pivot shows as an infinite or NaN phi and stops the sweep
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for stop, nxt in zip(cuts, [*cuts[1:], None]):
            k = stop - start
            d = q[start:stop, start:stop] - carry
            d.reshape(-1, k * k)[:, :: k + 1] -= shifts[:, None]
            lam, v = _lapack(np.linalg.eigh, d)
            lams.append(lam)
            if nxt is not None:
                w = np.swapaxes(v, 1, 2) @ q[start:stop, stop:nxt]
                g = w / lam[:, :, None]
                carry = np.swapaxes(w, 1, 2) @ g
                growth = float(np.max(np.einsum("pjk,pjk->p", w, np.abs(g))))
                if not unit * growth <= margin:
                    return None
                phi = max(phi, growth)
            start = stop
    lam = np.concatenate(lams, axis=1)
    size = np.abs(lam)
    rho = max(float(np.max(size)), phi) + float(np.max(np.abs(shifts)))
    if not (np.min(size) > 0.0 and unit * rho <= margin):
        return None
    return np.sum(lam < 0.0, axis=1)


def _clear_neg_count(S: SymMatrix, cuts) -> int | None:
    """Number of eigenvalues of the block-tridiagonal ``S`` below ``-tol``
    from one sweep at the shifts ``-+tol * (1 + eta)``, or ``None`` when a
    dense solve must decide. Equal counts mean ``S`` is clear of the band,
    and its count below ``-tol`` is that count. Half of the ``eta * tol``
    margin bounds the sweep's backward error, leaving the other half for the
    dense solve it stands in for, so both give the same integer."""
    tol = default_zero_tol(S)
    shift = tol * (1.0 + _MARGIN)
    counts = _shift_counts(S.entries, cuts, (-shift, shift), 0.5 * _MARGIN * tol)
    if counts is None or counts[0] != counts[1]:
        return None
    return int(counts[0])


def kernel_basis(S, zero_tol: float | None = None) -> np.ndarray:
    """Orthonormal eigenvectors for eigenvalues with ``|w| <= zero_tol``.

    Returns a ``dim x k`` read-only array; ``k`` equals ``inertia(S).zero``.
    """
    S = as_sym(S)
    zero_tol = default_zero_tol(S, zero_tol)
    dec = eigensym(S)
    keep = np.abs(dec.eigenvalues) <= zero_tol
    return _readonly(dec.eigenvectors[:, keep])


def _intersection_dim(bu: np.ndarray, bv: np.ndarray) -> int:
    # dim(U ∩ V) = dim U - rank((Id - P_V) restricted to U), with orthonormal
    # bases bu, bv of U, V.
    if bu.shape[1] == 0 or bv.shape[1] == 0:
        return 0
    resid = bu - bv @ (bv.T @ bu)
    sv = np.linalg.svd(resid, compute_uv=False)
    return bu.shape[1] - int(np.sum(sv > RANK_TOL))


def rel_morse(S, T, kernel_side: str = "positive") -> int:
    """Relative Morse index dim(E-(S) ∩ E+(T)) - dim(E-(T) ∩ E+(S)).

    ``kernel_side`` chooses where eigenvalues inside the tolerance band land:
    ``"negative"`` puts them in E- (spectrum in (-inf, 0]), ``"positive"`` puts
    them in E+ (the convention matching the positive shift used by the
    extended spectral flow). Computed from spectral projectors with rank
    tolerance :data:`RANK_TOL`, not from Morse-index differences, so the
    finite-dimensional identity against the latter is a genuine cross-check.
    """
    S = as_sym(S)
    T = as_sym(T)
    if S.dim != T.dim:
        raise ValueError(f"dimension mismatch: {S.dim} vs {T.dim}")
    if kernel_side not in ("negative", "positive"):
        raise ValueError("kernel_side must be 'negative' or 'positive'")
    dec_s = eigensym(S)
    dec_t = eigensym(T)
    tol_s = default_zero_tol(S)
    tol_t = default_zero_tol(T)
    if kernel_side == "negative":
        in_neg_s = dec_s.eigenvalues <= tol_s
        in_neg_t = dec_t.eigenvalues <= tol_t
    else:
        in_neg_s = dec_s.eigenvalues < -tol_s
        in_neg_t = dec_t.eigenvalues < -tol_t
    em_s = dec_s.eigenvectors[:, in_neg_s]
    ep_s = dec_s.eigenvectors[:, ~in_neg_s]
    em_t = dec_t.eigenvectors[:, in_neg_t]
    ep_t = dec_t.eigenvectors[:, ~in_neg_t]
    return _intersection_dim(em_s, ep_t) - _intersection_dim(em_t, ep_s)
