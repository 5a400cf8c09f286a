"""Time-periodic linear Hamiltonian systems on the 2*pi circle.

Supports matrix coefficients ``A(t) = A0 + sum_m cos(m t) C_m + sin(m t) S_m``
(m = 1..M) acting on phase space R^(2n). The quadratic form of the associated
periodic-solution problem is assembled in closed form on the truncated
trigonometric basis: 2n x 2n blocks numbered 0 (constant), 2k - 1 (sin-k)
and 2k (cos-k) for k = 1..N. The rotation term contributes ``pi * k *
[[0, sigma^T], [sigma, 0]]`` inside each frequency block and the coefficient
term couples blocks through product-to-sum identities, only within the band
``|j - k| <= M``; assembly writes those O(N*M) blocks into a dense matrix of
dimension 2n(2N+1). For constant coefficients the form is block diagonal
with blocks congruent to positive multiples of the frequency matrices
``L^k(A)``, whose signatures define an integer index whose differences
compute the spectral flow of coefficient paths.

Grouping the basis as {constant, frequencies 1..g}, the next g frequencies,
and so on, with g = max(M, 1), makes the form block tridiagonal. The
truncated flow is the difference of the endpoint Morse indices, and these
are counted by one block LDL^T sweep over the groups (Sylvester's law and
Schur complements, ``symlin._shift_counts``) in O((N / g) * (4ng)^3) work
instead of a dense eigen-solve. The counts are used when the sweep is
certified and no eigenvalue lies near the tolerance band of either
endpoint; otherwise, for instance at a resonant endpoint, the dense
:func:`~specflow.sfpath.extended_sf` computes the flow and its shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symlin import SymMatrix, _clear_neg_count, _lapack, as_sym, inertia
from .sfpath import (
    EndpointCrossingError,
    OperatorPath,
    SpectralFlowResult,
    extended_sf,
    locate_crossings,
)

__all__ = [
    "symplectic_matrix",
    "lk_matrix",
    "IndexResult",
    "hamiltonian_index",
    "is_nonresonant",
    "ResonanceError",
    "StabilizationError",
    "TimePeriodicCoeff",
    "HamiltonianPath",
    "GalerkinHessian",
    "assemble_hessian",
    "galerkin_path",
    "galerkin_sf",
    "index_difference",
    "eig_range",
    "delta",
    "CoefficientBoundsReport",
    "coefficient_bounds",
    "scan_crossings_trimmed",
]

DEFAULT_N_CAP = 512
DEFAULT_T_SAMPLES = 1024


class ResonanceError(ValueError):
    """An operation requiring non-resonant matrices received a resonant one."""


class StabilizationError(RuntimeError):
    """Truncation doubling hit the cap without two consecutive flows agreeing."""

    def __init__(self, trace: Sequence[tuple[int, int]]):
        self.trace = tuple(trace)
        super().__init__(
            "truncated flow did not stabilize below the cap; trace "
            + ", ".join(f"N={n}: sf={s}" for n, s in self.trace)
        )


def symplectic_matrix(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be positive")
    sig = np.zeros((2 * n, 2 * n))
    sig[:n, n:] = -np.eye(n)
    sig[n:, :n] = np.eye(n)
    return sig


def _check_even_dim(A: SymMatrix) -> int:
    if A.dim % 2 != 0:
        raise ValueError(f"phase-space matrices must have even dimension, got {A.dim}")
    return A.dim // 2


def lk_matrix(A, k: int) -> SymMatrix:
    """Frequency-k block matrix: diag(A, A) for k = 0, else
    [[A/k, sigma], [-sigma, A/k]]."""
    A = as_sym(A)
    n = _check_even_dim(A)
    if k < 0:
        raise ValueError("k must be non-negative")
    two_n = 2 * n
    out = np.zeros((4 * n, 4 * n))
    if k == 0:
        out[:two_n, :two_n] = A.entries
        out[two_n:, two_n:] = A.entries
    else:
        sig = symplectic_matrix(n)
        out[:two_n, :two_n] = A.entries / k
        out[two_n:, two_n:] = A.entries / k
        out[:two_n, two_n:] = sig
        out[two_n:, :two_n] = -sig
    return SymMatrix(out)


@dataclass(frozen=True)
class IndexResult:
    """Signature data of the frequency matrices of a constant coefficient.

    ``value`` is ``sgn(A)/2 + sum_{k>=1} sgn(L^k(A))/2`` and is withheld
    (``None``) when any frequency matrix up to ``k_max`` is singular, which is
    exactly the resonant case.
    """

    value: int | None
    k_max: int
    per_k: tuple[int, ...]
    resonant: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "k_max": self.k_max,
            "per_k_signatures": list(self.per_k),
            "resonant": self.resonant,
        }


def _spectral_norm(A: SymMatrix) -> float:
    return float(np.max(np.abs(_lapack(np.linalg.eigvalsh, A.entries))))


def _k_max_for(A: SymMatrix) -> int:
    # beyond ||A||_2 every L^k(A) is a norm-<1 perturbation of an involution
    # with zero signature, hence invertible with zero signature
    return int(math.ceil(_spectral_norm(A))) + 1


def hamiltonian_index(A, zero_tol: float | None = None) -> IndexResult:
    """Integer index of a constant symmetric coefficient on R^(2n).

    Sums half-signatures of the frequency matrices k = 0..k_max with
    ``k_max = ceil(||A||_2) + 1``; the tail vanishes beyond the spectral norm.
    """
    A = as_sym(A)
    k_max = _k_max_for(A)
    inrs = [inertia(lk_matrix(A, k), zero_tol=zero_tol) for k in range(k_max + 1)]
    per_k = [inr.signature for inr in inrs]
    resonant = any(inr.zero > 0 for inr in inrs)
    value = None
    if not resonant:
        half_sgn_a = per_k[0] // 2  # sgn L^0 = 2 sgn(A), and sgn(A) is even here
        tail = sum(per_k[1:])
        value = half_sgn_a // 2 + tail // 2
    return IndexResult(value=value, k_max=k_max, per_k=tuple(per_k), resonant=resonant)


def is_nonresonant(A, zero_tol: float | None = None) -> bool:
    """True when no frequency matrix k = 0..k_max is singular; equivalently
    the spectrum of sigma*A avoids the integer multiples of the imaginary
    unit."""
    return not hamiltonian_index(A, zero_tol=zero_tol).resonant


@dataclass(frozen=True, eq=False)
class TimePeriodicCoeff:
    """Symmetric matrix coefficient ``A(t)`` as a trigonometric polynomial
    with period 2*pi: ``A0 + sum_m cos(m t) cos_terms[m-1] + sin(m t)
    sin_terms[m-1]``."""

    a0: np.ndarray
    cos_terms: tuple[np.ndarray, ...]
    sin_terms: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        a0 = as_sym(self.a0)
        n = _check_even_dim(a0)
        cos_terms = tuple(as_sym(m).entries for m in self.cos_terms)
        sin_terms = tuple(as_sym(m).entries for m in self.sin_terms)
        m_band = max(len(cos_terms), len(sin_terms))
        zero = np.zeros((2 * n, 2 * n))
        cos_terms += (zero,) * (m_band - len(cos_terms))
        sin_terms += (zero,) * (m_band - len(sin_terms))
        for mat in cos_terms + sin_terms:
            if mat.shape[0] != 2 * n:
                raise ValueError("all harmonic matrices must share the dimension of the constant term")
        object.__setattr__(self, "a0", a0.entries)
        object.__setattr__(self, "cos_terms", cos_terms)
        object.__setattr__(self, "sin_terms", sin_terms)

    @classmethod
    def constant(cls, A) -> "TimePeriodicCoeff":
        return cls(a0=as_sym(A).entries, cos_terms=(), sin_terms=())

    @property
    def dim(self) -> int:
        return self.a0.shape[0]

    @property
    def n(self) -> int:
        return self.dim // 2

    @property
    def bandwidth(self) -> int:
        return len(self.cos_terms)

    def evaluate(self, t: float) -> np.ndarray:
        out = self.a0.copy()
        for m, (c, s) in enumerate(zip(self.cos_terms, self.sin_terms), start=1):
            out = out + math.cos(m * t) * c + math.sin(m * t) * s
        return out

    def values_on_grid(self, ts: np.ndarray) -> np.ndarray:
        out = np.broadcast_to(self.a0, (ts.size,) + self.a0.shape).copy()
        for m, (c, s) in enumerate(zip(self.cos_terms, self.sin_terms), start=1):
            out += np.cos(m * ts)[:, None, None] * c + np.sin(m * ts)[:, None, None] * s
        return out


@dataclass(frozen=True, eq=False)
class HamiltonianPath:
    """A family ``lambda -> A_lambda(t)`` sampled on a lambda grid, with all
    Fourier coefficient matrices interpolated entrywise affinely."""

    lambdas: tuple[float, ...]
    coeffs: tuple[TimePeriodicCoeff, ...]

    def __post_init__(self) -> None:
        lams = tuple(float(x) for x in self.lambdas)
        if len(lams) < 2 or len(lams) != len(self.coeffs):
            raise ValueError("need at least two (lambda, coefficient) samples")
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda samples must be strictly increasing")
        n = self.coeffs[0].n
        if any(c.n != n for c in self.coeffs):
            raise ValueError("all samples must share the phase-space dimension")
        m_band = max(c.bandwidth for c in self.coeffs)
        coeffs = tuple(
            TimePeriodicCoeff(
                a0=c.a0,
                cos_terms=c.cos_terms + (np.zeros((2 * n, 2 * n)),) * (m_band - c.bandwidth),
                sin_terms=c.sin_terms + (np.zeros((2 * n, 2 * n)),) * (m_band - c.bandwidth),
            )
            for c in self.coeffs
        )
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def a(self) -> float:
        return self.lambdas[0]

    @property
    def b(self) -> float:
        return self.lambdas[-1]

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    @property
    def bandwidth(self) -> int:
        return self.coeffs[0].bandwidth

    def coeff_at(self, lam: float) -> TimePeriodicCoeff:
        lams = np.asarray(self.lambdas)
        if lam < lams[0] or lam > lams[-1]:
            raise ValueError(f"parameter {lam} outside [{lams[0]}, {lams[-1]}]")
        j = int(np.searchsorted(lams, lam))
        if j < lams.size and lams[j] == lam:
            return self.coeffs[j]
        j = max(1, min(j, lams.size - 1))
        t = (lam - lams[j - 1]) / (lams[j] - lams[j - 1])
        left, right = self.coeffs[j - 1], self.coeffs[j]
        mix = lambda x, y: (1.0 - t) * x + t * y
        return TimePeriodicCoeff(
            a0=mix(left.a0, right.a0),
            cos_terms=tuple(mix(x, y) for x, y in zip(left.cos_terms, right.cos_terms)),
            sin_terms=tuple(mix(x, y) for x, y in zip(left.sin_terms, right.sin_terms)),
        )


@dataclass(frozen=True, eq=False)
class GalerkinHessian:
    """Quadratic-form matrix on the truncated trigonometric basis.

    Basis order: constant block (2n columns), then for k = 1..N the sin-k
    block followed by the cos-k block, for a total dimension 2n(2N+1).
    Blocks couple only within the coefficient bandwidth, ``|j - k| <= M``
    and the constant block with frequencies up to M, so the groups of
    :attr:`cuts` make the matrix block tridiagonal.
    """

    N: int
    n: int
    bandwidth: int
    matrix: SymMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def cuts(self) -> tuple[int, ...]:
        """Ends of the frequency groups {constant, 1..g}, {g+1..2g}, ...
        with ``g = max(M, 1)``: the positions ``2n(1 + 2k)`` for k = g, 2g,
        ... below N, and N. Only neighbouring groups couple."""
        g = max(self.bandwidth, 1)
        return tuple(2 * self.n * (1 + 2 * k) for k in [*range(g, self.N, g), self.N])

    def block(self, row: tuple[str, int], col: tuple[str, int]) -> np.ndarray:
        for kind, k in (row, col):
            if kind != "const" and not 1 <= k <= self.N:
                raise ValueError(f"frequency {k} outside 1..{self.N}")
            if kind not in ("const", "sin", "cos"):
                raise ValueError(f"unknown block kind {kind!r}")
        return _blocks(self.matrix.entries, 2 * self.n)[_block_index(*row), :, _block_index(*col), :]


def _block_index(kind: str, k):
    # basis position of the constant block (0), the sin-k block (2k - 1) or
    # the cos-k block (2k); k may be an integer array
    if kind == "const":
        return 0
    return 2 * k - 1 if kind == "sin" else 2 * k


def _blocks(q: np.ndarray, two_n: int) -> np.ndarray:
    # view of a basis-ordered form as q4[row block, :, column block, :]
    n_blocks = q.shape[0] // two_n
    return q.reshape(n_blocks, two_n, n_blocks, two_n)


def assemble_hessian(coeff: TimePeriodicCoeff, N: int) -> GalerkinHessian:
    """Closed-form assembly of the truncated quadratic form, as a dense matrix
    in the block layout of :class:`GalerkinHessian`.

    The rotation part lives inside each frequency block; the coefficient part
    couples the constant block to frequencies m <= M (the bandwidth) and the
    blocks (j, k) in the band ``|j - k| <= M``, which holds every pair with
    ``j + k <= M``. Entries follow from the product-to-sum integrals of
    sin/cos pairs against the harmonics of ``A(t)`` over one period. Only the
    O(N*M) band blocks are written, one vectorized update per block kind.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if N < coeff.bandwidth:
        raise ValueError(f"truncation N={N} below coefficient bandwidth M={coeff.bandwidth}")
    n, m_band, pi = coeff.n, coeff.bandwidth, math.pi
    two_n = 2 * n
    q = np.zeros((two_n * (2 * N + 1),) * 2)
    q4 = _blocks(q, two_n)
    # harmonics by frequency 0..2N, zero outside 1..M
    c_of, s_of = np.zeros((2, 2 * N + 1, two_n, two_n))
    for m, (c, s) in enumerate(zip(coeff.cos_terms, coeff.sin_terms), start=1):
        c_of[m], s_of[m] = c, s

    # constant block and its couplings to the harmonics of A
    q4[0, :, 0, :] = 2.0 * pi * coeff.a0
    m = np.arange(1, m_band + 1)
    for kind, terms in (("sin", s_of), ("cos", c_of)):
        q4[0, :, _block_index(kind, m), :] = pi * terms[m]
        q4[_block_index(kind, m), :, 0, :] = pi * terms[m]

    # rotation term: sin-j / cos-j coupling with weight j*pi
    j = np.arange(1, N + 1)
    sig = symplectic_matrix(n)
    q4[_block_index("sin", j), :, _block_index("cos", j), :] += (-j * pi)[:, None, None] * sig
    q4[_block_index("cos", j), :, _block_index("sin", j), :] += (j * pi)[:, None, None] * sig

    # coefficient term on the band pairs 1 <= j, k <= N, |j - k| <= M
    j, k = np.meshgrid(j, np.arange(-m_band, m_band + 1), indexing="ij")
    inside = (j + k >= 1) & (j + k <= N)
    j, k = j[inside], (j + k)[inside]
    diff, total = np.abs(j - k), j + k
    ss = 0.5 * pi * (c_of[diff] - c_of[total])
    cc = 0.5 * pi * (c_of[diff] + c_of[total])
    sc = 0.5 * pi * (s_of[total] + np.sign(j - k)[:, None, None] * s_of[diff])
    ss[j == k] += pi * coeff.a0
    cc[j == k] += pi * coeff.a0
    q4[_block_index("sin", j), :, _block_index("sin", k), :] += ss
    q4[_block_index("cos", j), :, _block_index("cos", k), :] += cc
    q4[_block_index("sin", j), :, _block_index("cos", k), :] += sc
    q4[_block_index("cos", k), :, _block_index("sin", j), :] += sc
    return GalerkinHessian(N=N, n=n, bandwidth=m_band, matrix=SymMatrix(q))


def galerkin_path(hpath: HamiltonianPath, N: int) -> OperatorPath:
    """Operator path ``lambda -> Q_N(lambda)``.

    Assembly is linear in the Fourier coefficient matrices, so sampling the
    assembled forms at the lambda grid and interpolating affinely reproduces
    the form of the interpolated coefficients exactly.
    """
    mats = [assemble_hessian(c, N).matrix for c in hpath.coeffs]
    return OperatorPath.from_samples(hpath.lambdas, mats, smooth=True)


def _sup_spectral_norm(hpath: HamiltonianPath, t_samples: int) -> float:
    worst = 0.0
    for c in hpath.coeffs:
        lo, hi = eig_range(c, t_samples=t_samples)
        worst = max(worst, abs(lo), abs(hi))
    return worst


def galerkin_sf(
    hpath: HamiltonianPath,
    N0: int | None = None,
    N_cap: int = DEFAULT_N_CAP,
    t_samples: int = DEFAULT_T_SAMPLES,
) -> tuple[int, int]:
    """Extended spectral flow of the truncated forms, stabilized in N.

    Starts at ``N0 = max(bandwidth, ceil(2 * sup ||A_lambda(t)||), 1)`` and
    doubles the truncation until two consecutive flows agree, returning
    ``(sf, N_used)``. Raises :class:`StabilizationError` (with the trace of
    attempted values) when the cap is reached first.
    """
    result, n_used, _ = _stabilized_flow(hpath, N0, N_cap, t_samples)
    return result.total_sf, n_used


def _stabilized_flow(
    hpath: HamiltonianPath, N0: int | None, N_cap: int, t_samples: int
) -> tuple[SpectralFlowResult, int, OperatorPath]:
    # the doubling loop of galerkin_sf; also returns the last flow result and
    # the galerkin path it came from, for callers that go on to use them.
    # Only the endpoint forms are assembled until the flow is stable.
    if N0 is None:
        N0 = max(hpath.bandwidth, int(math.ceil(2.0 * _sup_spectral_norm(hpath, t_samples))), 1)
    N = max(int(N0), hpath.bandwidth, 1)
    if N > N_cap:
        raise ValueError(f"N0={N} exceeds N_cap={N_cap}")
    trace: list[tuple[int, int]] = []
    prev: int | None = None
    while True:
        ends = (assemble_hessian(hpath.coeffs[0], N), assemble_hessian(hpath.coeffs[-1], N))
        result = _endpoint_flow(hpath, ends)
        trace.append((N, result.total_sf))
        if prev is not None and result.total_sf == prev:
            inner = [assemble_hessian(c, N).matrix for c in hpath.coeffs[1:-1]]
            mats = [ends[0].matrix, *inner, ends[1].matrix]
            return result, N, OperatorPath.from_samples(hpath.lambdas, mats, smooth=True)
        prev = result.total_sf
        if N == N_cap:
            raise StabilizationError(trace)
        N = min(2 * N, N_cap)


def _endpoint_flow(hpath: HamiltonianPath, ends: tuple[GalerkinHessian, GalerkinHessian]) -> SpectralFlowResult:
    # What extended_sf returns for the path between the two endpoint forms,
    # with the endpoint Morse indices counted by the inertia sweep; when it
    # cannot count both, the dense extended_sf decides (and shifts).
    neg = [_clear_neg_count(form.matrix, form.cuts) for form in ends]
    if None in neg:
        return extended_sf(OperatorPath.from_samples((hpath.a, hpath.b), [f.matrix for f in ends], smooth=True))
    return SpectralFlowResult(
        total_sf=neg[0] - neg[1],
        crossings=(),
        admissible_start=True,
        admissible_end=True,
        shift_delta=0.0,
        grid_points_used=2,
    )


def index_difference(A_start, A_end) -> int:
    """Index of the end coefficient minus the index of the start coefficient;
    equals the truncated flow of the affine path between them. Requires both
    to be non-resonant."""
    res_a = hamiltonian_index(A_start)
    res_b = hamiltonian_index(A_end)
    if res_a.resonant:
        raise ResonanceError("start coefficient is resonant; index undefined")
    if res_b.resonant:
        raise ResonanceError("end coefficient is resonant; index undefined")
    return res_b.value - res_a.value


def eig_range(coeff: TimePeriodicCoeff, t_samples: int = DEFAULT_T_SAMPLES) -> tuple[float, float]:
    """Smallest and largest eigenvalue of ``A(t)`` over a uniform t grid.

    The returned bounds are grid minima/maxima; the coefficients are
    band-limited, so the grid error is controlled by the sample count, which
    must be at least ``4 * bandwidth + 4``.
    """
    if t_samples < 4 * coeff.bandwidth + 4:
        raise ValueError(f"t_samples must be at least 4*M+4 = {4 * coeff.bandwidth + 4}")
    ts = np.linspace(0.0, 2.0 * math.pi, t_samples, endpoint=False)
    values = coeff.values_on_grid(ts)
    values = (values + np.transpose(values, (0, 2, 1))) / 2.0
    w = _lapack(np.linalg.eigvalsh, values)
    return float(np.min(w[:, 0])), float(np.max(w[:, -1]))


def delta(mu: float, nu: float) -> int:
    """Signed count of integers in the half-open interval between mu and nu:
    ``#{i: mu <= i < nu}`` when mu <= nu, minus the mirrored count otherwise."""
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise ValueError("delta requires finite arguments")
    return int(math.ceil(nu) - math.ceil(mu))


@dataclass(frozen=True)
class CoefficientBoundsReport:
    """Bifurcation-count bounds read off the endpoint coefficient ranges.

    ``bound`` is a lower bound for the number of parameters where the
    periodic problem admits nontrivial solutions, derived from the integer
    count between the endpoint eigenvalue ranges; ``sf_lower``/``sf_upper``
    sandwich the computed flow by comparison with constant-coefficient
    families.
    """

    alpha_start: float
    beta_start: float
    alpha_end: float
    beta_end: float
    case: str
    bound: int
    sf: int
    n_used: int
    sf_lower: int
    sf_upper: int
    sandwich_holds: bool
    crossings: tuple
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "alpha_start": self.alpha_start,
            "beta_start": self.beta_start,
            "alpha_end": self.alpha_end,
            "beta_end": self.beta_end,
            "case": self.case,
            "bound": self.bound,
            "sf": self.sf,
            "n_used": self.n_used,
            "sf_lower": self.sf_lower,
            "sf_upper": self.sf_upper,
            "sandwich_holds": self.sandwich_holds,
            "crossings": [c.to_dict() for c in self.crossings],
            "notes": list(self.notes),
        }


def _near_integer(x: float, tol: float = 1e-9) -> bool:
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


def coefficient_bounds(
    hpath: HamiltonianPath,
    n_grid: int = 256,
    N0: int | None = None,
    N_cap: int = DEFAULT_N_CAP,
    t_samples: int = DEFAULT_T_SAMPLES,
) -> CoefficientBoundsReport:
    """Coefficient-range bifurcation bounds with a truncated-flow cross-check.

    Computes the endpoint eigenvalue ranges (alpha, beta), the applicable
    integer-count lower bound, and the truncated flow together with its
    comparison sandwich ``2n * delta(beta_start, alpha_end) <= sf <=
    2n * delta(alpha_start, beta_end)``. The truncation starts at ``N0`` as
    in :func:`galerkin_sf`. Crossing localization trims the lambda interval
    slightly when an endpoint itself is singular.
    """
    two_n = 2 * hpath.n
    alpha0, beta0 = eig_range(hpath.coeffs[0], t_samples=t_samples)
    alpha1, beta1 = eig_range(hpath.coeffs[-1], t_samples=t_samples)
    notes: list[str] = []
    if beta0 < alpha1:
        case = "increasing"
        bound = delta(beta0, alpha1)
    elif beta1 < alpha0:
        case = "decreasing"
        bound = -delta(alpha0, beta1)
    else:
        case = "none"
        bound = 0
        notes.append("endpoint eigenvalue ranges overlap; no coefficient-range bound applies")
    for label, mu, nu in (("(beta_start, alpha_end)", beta0, alpha1), ("(alpha_start, beta_end)", alpha0, beta1)):
        if _near_integer(mu) or _near_integer(nu):
            lower_closed = delta(mu, nu)
            upper_closed = int(math.floor(nu) - math.floor(mu))
            if lower_closed != upper_closed:
                notes.append(
                    f"integer count over {label} is boundary-sensitive: "
                    f"{lower_closed} counting the lower endpoint, {upper_closed} counting the upper"
                )
    sf_lower = two_n * delta(beta0, alpha1)
    sf_upper = two_n * delta(alpha0, beta1)
    flow, n_used, gpath = _stabilized_flow(hpath, N0, N_cap, t_samples)
    sf = flow.total_sf
    sandwich = sf_lower <= sf <= sf_upper

    crossings, scan_notes = scan_crossings_trimmed(gpath, n_grid=n_grid)
    notes.extend(scan_notes)
    return CoefficientBoundsReport(
        alpha_start=alpha0,
        beta_start=beta0,
        alpha_end=alpha1,
        beta_end=beta1,
        case=case,
        bound=bound,
        sf=sf,
        n_used=n_used,
        sf_lower=sf_lower,
        sf_upper=sf_upper,
        sandwich_holds=sandwich,
        crossings=crossings,
        notes=tuple(notes),
    )


def _restrict(path: OperatorPath, a: float, b: float) -> OperatorPath:
    # a grid path stays a grid path: its samples strictly inside (a, b) and
    # its own interpolated values at a and b
    if a == path.a and b == path.b:
        return path
    if not path.is_grid:
        return OperatorPath.from_callable(a, b, path.dim, path, smooth=path.smooth)
    inside = (path._lambdas > a) & (path._lambdas < b)
    lams = np.concatenate([[a], path._lambdas[inside], [b]])
    ends = path._values([a, b])
    mats = [ends[0], *(m for m, keep in zip(path._matrices, inside) if keep), ends[1]]
    return OperatorPath.from_samples(lams, mats, smooth=path.smooth)


def scan_crossings_trimmed(path: OperatorPath, n_grid: int = 256) -> tuple[tuple, tuple[str, ...]]:
    """Locate crossings, shrinking the interval slightly when an endpoint is
    singular (resonant endpoints leave the flow well defined but block the
    scan at the boundary)."""
    notes: list[str] = []
    lo, hi = path.a, path.b
    span = hi - lo
    for trim in (0.0, 1e-3, 1e-2):
        try:
            crossings = locate_crossings(_restrict(path, lo + trim * span, hi - trim * span), n_grid=n_grid)
            if trim > 0:
                notes.append(
                    f"crossing scan trimmed to [{lo + trim * span:.6g}, {hi - trim * span:.6g}] "
                    "because an endpoint is singular"
                )
            return crossings, tuple(notes)
        except EndpointCrossingError:
            continue
    notes.append("crossing scan skipped: singular parameters persist near the endpoints")
    return (), tuple(notes)
