import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specflow import hamsys
from specflow.hamsys import (
    DEFAULT_N_CAP,
    DEFAULT_T_SAMPLES,
    HamiltonianPath,
    ResonanceError,
    StabilizationError,
    TimePeriodicCoeff,
    assemble_hessian,
    coefficient_bounds,
    delta,
    eig_range,
    galerkin_path,
    galerkin_sf,
    hamiltonian_index,
    index_difference,
    is_nonresonant,
    lk_matrix,
    symplectic_matrix,
)
from specflow.sfpath import OperatorPath, extended_sf
from specflow.symlin import _MARGIN, SymMatrix, _shift_counts, default_zero_tol, inertia


def quadrature_hessian(coeff, N, intervals=4096):
    """Composite-Simpson oracle for the truncated quadratic form.

    Integrates the defining rotation and coefficient integrals numerically
    against the trigonometric basis; independent of the closed-form assembly.
    """
    two_n = coeff.dim
    t = np.linspace(0.0, 2.0 * np.pi, intervals + 1)
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (t[1] - t[0]) / 3.0
    n_waves = 2 * N + 1
    waves = np.empty((n_waves, t.size))
    dwaves = np.empty((n_waves, t.size))
    waves[0] = 1.0
    dwaves[0] = 0.0
    for k in range(1, N + 1):
        waves[2 * k - 1] = np.sin(k * t)
        dwaves[2 * k - 1] = k * np.cos(k * t)
        waves[2 * k] = np.cos(k * t)
        dwaves[2 * k] = -k * np.sin(k * t)
    a_vals = coeff.values_on_grid(t)
    qa = np.einsum("it,jt,t,tpq->ipjq", waves, waves, w, a_vals, optimize=True)
    size = two_n * n_waves
    g = np.einsum("it,jt,t->ij", dwaves, waves, w)
    sig = symplectic_matrix(two_n // 2)
    return qa.reshape(size, size) + np.kron(g, sig.T)


def loop_hessian(coeff, N):
    """Reference assembly: the frequency-pair loop over all (j, k) <= N.

    Same arithmetic per block as ``assemble_hessian``, so the two must agree
    bit for bit, signs of zero included.
    """
    two_n = coeff.dim
    m_band = coeff.bandwidth
    q = np.zeros((two_n * (2 * N + 1),) * 2)
    sig = symplectic_matrix(coeff.n)
    pi = math.pi
    zero = np.zeros((two_n, two_n))

    def sl(kind, k):
        if kind == "const":
            return slice(0, two_n)
        base = two_n * (2 * k - 1)
        return slice(base, base + two_n) if kind == "sin" else slice(base + two_n, base + 2 * two_n)

    def c_of(m):
        return coeff.cos_terms[m - 1] if 1 <= m <= m_band else zero

    def s_of(m):
        return coeff.sin_terms[m - 1] if 1 <= m <= m_band else zero

    q[sl("const", 0), sl("const", 0)] = 2.0 * pi * coeff.a0
    for k in range(1, N + 1):
        q[sl("const", 0), sl("sin", k)] = pi * s_of(k)
        q[sl("sin", k), sl("const", 0)] = pi * s_of(k)
        q[sl("const", 0), sl("cos", k)] = pi * c_of(k)
        q[sl("cos", k), sl("const", 0)] = pi * c_of(k)
    for j in range(1, N + 1):
        q[sl("sin", j), sl("cos", j)] += -j * pi * sig
        q[sl("cos", j), sl("sin", j)] += j * pi * sig
        for k in range(1, N + 1):
            ss = 0.5 * pi * ((c_of(abs(j - k)) if j != k else zero) - c_of(j + k))
            cc = 0.5 * pi * ((c_of(abs(j - k)) if j != k else zero) + c_of(j + k))
            sc = 0.5 * pi * (s_of(j + k) + float(np.sign(j - k)) * s_of(abs(j - k)))
            if j == k:
                ss = ss + pi * coeff.a0
                cc = cc + pi * coeff.a0
            q[sl("sin", j), sl("sin", k)] += ss
            q[sl("cos", j), sl("cos", k)] += cc
            q[sl("sin", j), sl("cos", k)] += sc
            q[sl("cos", k), sl("sin", j)] += sc
    return SymMatrix(q).entries


def rand_sym(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) * scale
    return (m + m.T) / 2.0


class TestSymplectic:
    def test_shape_and_identities(self):
        for n in (1, 2, 3):
            sig = symplectic_matrix(n)
            np.testing.assert_array_equal(sig.T, -sig)
            np.testing.assert_allclose(sig @ sig, -np.eye(2 * n))

    def test_explicit_n1(self):
        np.testing.assert_array_equal(symplectic_matrix(1), [[0.0, -1.0], [1.0, 0.0]])


class TestLkMatrix:
    def test_k0_doubles_the_coefficient(self):
        lk = lk_matrix(np.diag([1.0, 2.0]), 0)
        np.testing.assert_array_equal(lk.entries, np.diag([1.0, 2.0, 1.0, 2.0]))

    def test_zero_coefficient_is_involution(self):
        lk = lk_matrix(np.zeros((2, 2)), 1)
        np.testing.assert_allclose(lk.entries @ lk.entries, np.eye(4))
        np.testing.assert_allclose(np.linalg.eigvalsh(lk.entries), [-1.0, -1.0, 1.0, 1.0])

    def test_scalar_coefficient_eigenvalues(self):
        # c*Id/k +- 1 with multiplicity two each
        lk = lk_matrix(2.0 * np.eye(2), 2)
        np.testing.assert_allclose(np.linalg.eigvalsh(lk.entries), [0.0, 0.0, 2.0, 2.0], atol=1e-12)

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even dimension"):
            lk_matrix(np.eye(3), 1)


class TestHamiltonianIndex:
    def test_small_positive_scalar(self):
        res = hamiltonian_index(0.5 * np.eye(2))
        assert res.value == 1 and not res.resonant

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_scalar_closed_form(self, m):
        c = m + 0.5
        assert hamiltonian_index(c * np.eye(2)).value == 1 + 2 * m
        assert hamiltonian_index(-c * np.eye(2)).value == -(1 + 2 * m)

    def test_per_k_signatures_even_with_vanishing_tail(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            a = rand_sym(rng, 2 * n)
            res = hamiltonian_index(a)
            assert all(s % 2 == 0 for s in res.per_k)
            norm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
            for k in range(int(math.floor(norm)) + 1, res.k_max + 4):
                if k <= norm:
                    continue
                assert inertia(lk_matrix(a, k)).signature == 0

    def test_resonant_value_withheld(self):
        res = hamiltonian_index(np.eye(2))
        assert res.resonant and res.value is None


class TestNonResonance:
    def test_small_scalar(self):
        assert is_nonresonant(0.5 * np.eye(2))

    def test_unit_scalar_resonant(self):
        assert not is_nonresonant(np.eye(2))

    def test_zero_resonant(self):
        assert not is_nonresonant(np.zeros((2, 2)))

    def test_matches_sigma_spectrum(self):
        # spec(sigma A) meets i*Z exactly when some frequency matrix is singular
        rng = np.random.default_rng(22)
        sig = symplectic_matrix(1)
        for _ in range(50):
            a = rand_sym(rng, 2, scale=1.5)
            eigs = np.linalg.eigvals(sig @ a)
            hits = any(
                abs(e.real) < 1e-9 and abs(e.imag - round(e.imag)) < 1e-9
                for e in eigs
            ) or any(abs(e) < 1e-9 for e in eigs)
            assert is_nonresonant(a) == (not hits)

    def test_kernel_of_truncation_detects_resonance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rand_sym(rng, 2, scale=1.5)
            res = hamiltonian_index(a)
            q = assemble_hessian(TimePeriodicCoeff.constant(a), max(res.k_max, 1))
            assert is_nonresonant(a) == (inertia(q.matrix).zero == 0)
        # explicit resonant instance: integer scalar coefficient
        q = assemble_hessian(TimePeriodicCoeff.constant(np.eye(2)), 3)
        assert inertia(q.matrix).zero > 0


class TestAssembly:
    def test_constant_block_structure(self):
        rng = np.random.default_rng(24)
        a = rand_sym(rng, 4)
        gh = assemble_hessian(TimePeriodicCoeff.constant(a), 3)
        sig = symplectic_matrix(2)
        np.testing.assert_allclose(gh.block(("const", 0), ("const", 0)), 2 * np.pi * a, atol=1e-12)
        for k in range(1, 4):
            np.testing.assert_allclose(gh.block(("sin", k), ("sin", k)), np.pi * a, atol=1e-12)
            np.testing.assert_allclose(gh.block(("cos", k), ("cos", k)), np.pi * a, atol=1e-12)
            np.testing.assert_allclose(gh.block(("sin", k), ("cos", k)), -k * np.pi * sig, atol=1e-12)
            # off-frequency blocks vanish for constant coefficients
            for j in range(1, 4):
                if j != k:
                    assert np.max(np.abs(gh.block(("sin", j), ("sin", k)))) == 0.0
                    assert np.max(np.abs(gh.block(("sin", j), ("cos", k)))) == 0.0

    def test_constant_blocks_congruent_to_frequency_matrices(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            a = rand_sym(rng, 2 * n)
            gh = assemble_hessian(TimePeriodicCoeff.constant(a), 4)
            for k in range(1, 5):
                two_n = 2 * n
                block = np.zeros((4 * n, 4 * n))
                block[:two_n, :two_n] = gh.block(("sin", k), ("sin", k))
                block[two_n:, two_n:] = gh.block(("cos", k), ("cos", k))
                block[:two_n, two_n:] = gh.block(("sin", k), ("cos", k))
                block[two_n:, :two_n] = gh.block(("cos", k), ("sin", k))
                got = inertia(block)
                want = inertia(lk_matrix(a, k))
                assert (got.neg, got.zero, got.pos) == (want.neg, want.zero, want.pos)
                if want.zero == 0:
                    assert got.neg == (4 * n - want.signature) // 2

    def test_single_cosine_harmonic_couplings(self):
        coeff = TimePeriodicCoeff(a0=np.zeros((2, 2)), cos_terms=(np.eye(2),), sin_terms=())
        gh = assemble_hessian(coeff, 2)
        eye = np.eye(2)
        np.testing.assert_allclose(gh.block(("const", 0), ("cos", 1)), np.pi * eye, atol=1e-12)
        np.testing.assert_allclose(gh.block(("const", 0), ("sin", 1)), 0 * eye, atol=1e-12)
        np.testing.assert_allclose(gh.block(("sin", 1), ("sin", 2)), 0.5 * np.pi * eye, atol=1e-12)
        np.testing.assert_allclose(gh.block(("cos", 1), ("cos", 2)), 0.5 * np.pi * eye, atol=1e-12)
        np.testing.assert_allclose(gh.block(("sin", 1), ("cos", 2)), 0 * eye, atol=1e-12)
        # coefficient part of the frequency-1 diagonal vanishes
        np.testing.assert_allclose(gh.block(("sin", 1), ("sin", 1)), 0 * eye, atol=1e-12)
        np.testing.assert_allclose(gh.block(("sin", 1), ("cos", 1)), -np.pi * symplectic_matrix(1), atol=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(6):
            n = int(rng.integers(1, 3))
            m_band = int(rng.integers(0, 4))
            coeff = TimePeriodicCoeff(
                a0=rand_sym(rng, 2 * n),
                cos_terms=tuple(rand_sym(rng, 2 * n) for _ in range(m_band)),
                sin_terms=tuple(rand_sym(rng, 2 * n) for _ in range(m_band)),
            )
            N = int(rng.integers(max(m_band, 1), 9))
            gh = assemble_hessian(coeff, N)
            oracle = quadrature_hessian(coeff, N)
            assert np.max(np.abs(gh.matrix.entries - oracle)) <= 1e-9

    def test_rejects_truncation_below_bandwidth(self):
        coeff = TimePeriodicCoeff(a0=np.zeros((2, 2)), cos_terms=(np.eye(2),) * 3, sin_terms=())
        with pytest.raises(ValueError, match="bandwidth"):
            assemble_hessian(coeff, 2)

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError, match="non-negative"):
            assemble_hessian(TimePeriodicCoeff.constant(np.eye(2)), -1)

    @staticmethod
    def signed_zero_sym(rng, d):
        # random symmetric entries with some set to +0.0 or -0.0, so that a
        # changed order of additions shows in the sign bits
        m = rand_sym(rng, d)
        mask = np.triu(rng.random((d, d)) < 0.3)
        m[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
        return np.where(mask.T, m.T, m)

    @pytest.mark.parametrize(
        "n, n_cos, n_sin, N",
        [(1, 0, 0, 0), (2, 0, 0, 5), (3, 0, 0, 2)]
        + [(1, 2, 2, 3), (2, 3, 3, 4), (1, 4, 4, 7), (3, 2, 1, 2)]
        + [(1, 3, 1, 8), (2, 1, 4, 6), (2, 0, 3, 11), (3, 2, 0, 9)]
        + [(2, 3, 3, 136)],
    )
    def test_bit_identical_to_loop_reference(self, n, n_cos, n_sin, N):
        rng = np.random.default_rng([27, n, n_cos, n_sin, N])
        coeff = TimePeriodicCoeff(
            a0=self.signed_zero_sym(rng, 2 * n),
            cos_terms=tuple(self.signed_zero_sym(rng, 2 * n) for _ in range(n_cos)),
            sin_terms=tuple(self.signed_zero_sym(rng, 2 * n) for _ in range(n_sin)),
        )
        got = assemble_hessian(coeff, N).matrix.entries
        want = loop_hessian(coeff, N)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestGalerkinFlow:
    def test_constant_path_zero(self):
        coeff = TimePeriodicCoeff.constant(0.5 * np.eye(2))
        hpath = HamiltonianPath(lambdas=(0.0, 1.0), coeffs=(coeff, coeff))
        sf, n_used = galerkin_sf(hpath)
        assert sf == 0 and n_used >= 1

    def test_scalar_family_one_resonance(self):
        hpath = HamiltonianPath(
            lambdas=(0.5, 1.5),
            coeffs=(TimePeriodicCoeff.constant(0.5 * np.eye(2)), TimePeriodicCoeff.constant(1.5 * np.eye(2))),
        )
        sf, _ = galerkin_sf(hpath)
        assert sf == 2

    def test_scalar_family_two_resonances(self):
        # brute-force block Morse indices: only the k = 1 and k = 2 blocks
        # change inertia on [0.5, 2.5], contributing 2 each
        hpath = HamiltonianPath(
            lambdas=(0.5, 2.5),
            coeffs=(TimePeriodicCoeff.constant(0.5 * np.eye(2)), TimePeriodicCoeff.constant(2.5 * np.eye(2))),
        )
        sf, _ = galerkin_sf(hpath)
        assert sf == 4
        assert sf == index_difference(0.5 * np.eye(2), 2.5 * np.eye(2))

    def test_index_difference_examples(self):
        assert index_difference(0.5 * np.eye(2), 1.5 * np.eye(2)) == 2
        a = np.array([[0.3, 0.1], [0.1, -0.4]])
        assert index_difference(a, a) == 0

    def test_index_difference_matches_galerkin_random(self):
        rng = np.random.default_rng(27)
        done = 0
        while done < 12:
            two_n = int(rng.choice([2, 4]))
            a = rand_sym(rng, two_n, scale=1.5)
            b = rand_sym(rng, two_n, scale=1.5)
            if not (is_nonresonant(a) and is_nonresonant(b)):
                continue
            hpath = HamiltonianPath(
                lambdas=(0.0, 1.0),
                coeffs=(TimePeriodicCoeff.constant(a), TimePeriodicCoeff.constant(b)),
            )
            sf, _ = galerkin_sf(hpath)
            assert sf == index_difference(a, b)
            done += 1

    def test_resonant_endpoint_rejected(self):
        with pytest.raises(ResonanceError):
            index_difference(np.eye(2), 0.5 * np.eye(2))

    def test_stabilization_error_carries_trace(self):
        hpath = HamiltonianPath(
            lambdas=(0.5, 1.5),
            coeffs=(TimePeriodicCoeff.constant(0.5 * np.eye(2)), TimePeriodicCoeff.constant(1.5 * np.eye(2))),
        )
        with pytest.raises(ValueError, match="exceeds N_cap"):
            galerkin_sf(hpath, N0=64, N_cap=32)
        try:
            galerkin_sf(hpath, N0=1, N_cap=1)
        except StabilizationError as err:
            assert err.trace and err.trace[0][0] == 1
        else:  # pragma: no cover
            pytest.fail("expected StabilizationError")

def sym(x):
    return (x + x.T) / 2.0


def truncation_family(rng, n, m_band, n0, radius=0.2):
    """Two-sample family ``a(lambda) Id + harmonics`` whose flow stabilizes at
    ``N = 2 * n0``: the high end ``n0 / 2 - 0.25`` sets ``ceil(2 sup ||A||)``
    to ``n0``, the low end is ``k + 0.5``, and the harmonics have norms
    summing to ``radius``; the direction is random."""
    a_low = float(rng.integers(0, n0 // 4)) + 0.5
    a_high = n0 / 2.0 - 0.25
    d = 2 * n
    harmonics = []
    for _ in range(2):
        mats = [sym(rng.standard_normal((d, d))) for _ in range(2 * m_band)]
        total = sum(float(np.linalg.norm(x, 2)) for x in mats)
        harmonics.append([x * (radius / total) for x in mats])
    ends = (a_low, a_high) if rng.random() < 0.5 else (a_high, a_low)
    coeffs = tuple(
        TimePeriodicCoeff(a0=a * np.eye(d), cos_terms=tuple(h[:m_band]), sin_terms=tuple(h[m_band:]))
        for a, h in zip(ends, harmonics)
    )
    return HamiltonianPath(lambdas=(0.0, 1.0), coeffs=coeffs)


def random_family(rng, n=2, m_band=2):
    """Three samples with random non-scalar constant terms and harmonics."""
    d = 2 * n
    coeffs = tuple(
        TimePeriodicCoeff(
            a0=sym(rng.standard_normal((d, d))) + shift * np.eye(d),
            cos_terms=tuple(0.5 * sym(rng.standard_normal((d, d))) for _ in range(m_band)),
            sin_terms=tuple(0.5 * sym(rng.standard_normal((d, d))) for _ in range(m_band)),
        )
        for shift in (-1.0, 0.5, 3.0)
    )
    return HamiltonianPath(lambdas=(0.0, 0.4, 1.0), coeffs=coeffs)


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(hamsys, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(hamsys, name, counted)
    return calls


#: The shifts -+tol * (1 -+ eta) around both ends of the tolerance band.
BAND_SHIFTS = np.array([-1.0 - _MARGIN, -1.0 + _MARGIN, 1.0 - _MARGIN, 1.0 + _MARGIN])


class TestInertiaSweep:
    @pytest.mark.parametrize("n, m_band, N", [(1, 0, 0), (1, 0, 5), (2, 1, 7), (2, 3, 3), (3, 3, 11), (1, 4, 13)])
    def test_cuts_make_the_form_block_tridiagonal(self, n, m_band, N):
        rng = np.random.default_rng([52, n, m_band, N])
        d = 2 * n
        coeff = TimePeriodicCoeff(
            a0=rand_sym(rng, d),
            cos_terms=tuple(rand_sym(rng, d) for _ in range(m_band)),
            sin_terms=tuple(rand_sym(rng, d) for _ in range(m_band)),
        )
        form = assemble_hessian(coeff, N)
        cuts = np.array(form.cuts)
        assert cuts[-1] == form.dim and np.all(np.diff(cuts) > 0)
        group = np.searchsorted(cuts, np.arange(form.dim), side="right")
        far = np.abs(group[:, None] - group[None, :]) > 1
        assert np.all(form.matrix.entries[far] == 0.0)

    def test_counts_match_dense_solves(self):
        # 400 forms: n 1..3, M 0..4, N from max(M, 1) to 40 (every seventh at
        # its smallest value, so N = M), amplitudes 0.1..20
        rng = np.random.default_rng(51)
        for i in range(400):
            n, m_band, amp = 1 + i % 3, i % 5, (0.1, 1.0, 5.0, 20.0)[i % 4]
            N = max(m_band, 1) if i % 7 == 0 else int(rng.integers(max(m_band, 1), 41))
            d = 2 * n
            coeff = TimePeriodicCoeff(
                a0=rand_sym(rng, d, amp),
                cos_terms=tuple(rand_sym(rng, d, amp) for _ in range(m_band)),
                sin_terms=tuple(rand_sym(rng, d, amp) for _ in range(m_band)),
            )
            form = assemble_hessian(coeff, N)
            tol = default_zero_tol(form.matrix)
            shifts = tol * BAND_SHIFTS
            got = _shift_counts(form.matrix.entries, form.cuts, shifts, 0.5 * _MARGIN * tol)
            want = np.sum(np.linalg.eigvalsh(form.matrix.entries) < shifts[:, None], axis=1)
            assert got is not None, (n, m_band, N, amp)
            assert np.array_equal(got, want), (n, m_band, N, amp)

    def test_zero_pivot_is_not_certified(self):
        # [[0, I], [I, 0]] is invertible, but its leading pivot block is zero
        swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        assert _shift_counts(swap, (2, 4), (0.0,), 1.0) is None
        # a tiny shift makes the pivot invertible but the growth unbounded
        assert _shift_counts(swap, (2, 4), (-1e-12, 1e-12), 1e-6) is None
        assert np.array_equal(_shift_counts(swap, (2, 4), (-0.5, 0.5), 1e-6), [2, 2])


class TestStabilizedFlow:
    SHAPES = ((1, 1, 24), (2, 2, 32), (1, 3, 48), (2, 1, 56), (1, 2, 64), (2, 3, 136))

    def test_pinned_flows(self):
        # (sf, N) as computed with dense endpoint solves
        rng = np.random.default_rng([1, 2])
        families = [truncation_family(rng, *shape) for shape in self.SHAPES]
        families.append(random_family(np.random.default_rng(41)))
        got = [galerkin_sf(f) for f in families]
        assert got == [(16, 48), (-48, 64), (26, 96), (64, 112), (-48, 128), (220, 272), (11, 28)]

    def test_certified_counts_match_dense_flow(self, monkeypatch):
        hpath = random_family(np.random.default_rng(41))
        dense = count_calls(monkeypatch, "extended_sf")
        result, n_used, _ = hamsys._stabilized_flow(hpath, None, DEFAULT_N_CAP, DEFAULT_T_SAMPLES)
        assert not dense
        assert result == extended_sf(galerkin_path(hpath, n_used))

    def test_resonant_endpoint_uses_dense_flow(self, monkeypatch):
        # L^1(Id) is singular, so the end form has a kernel and needs a shift
        hpath = HamiltonianPath(
            lambdas=(0.0, 1.0),
            coeffs=(TimePeriodicCoeff.constant(0.5 * np.eye(2)), TimePeriodicCoeff.constant(np.eye(2))),
        )
        dense = count_calls(monkeypatch, "extended_sf")
        result, n_used, _ = hamsys._stabilized_flow(hpath, None, DEFAULT_N_CAP, DEFAULT_T_SAMPLES)
        assert dense
        assert result == extended_sf(galerkin_path(hpath, n_used))
        assert not result.admissible_end and result.shift_delta > 0.0

    def test_eigenvalue_in_margin_uses_dense_flow(self, monkeypatch):
        # A = a Id puts the eigenvalue pi * (a - 1) in the form; place it at
        # 1.25 tol at N = 4, outside the tolerance band but inside the margin
        a = 1.0
        for _ in range(3):
            tol = default_zero_tol(assemble_hessian(TimePeriodicCoeff.constant(a * np.eye(2)), 4).matrix)
            a = 1.0 + 1.25 * tol / math.pi
        hpath = HamiltonianPath(
            lambdas=(0.0, 1.0),
            coeffs=(TimePeriodicCoeff.constant(0.5 * np.eye(2)), TimePeriodicCoeff.constant(a * np.eye(2))),
        )
        dense = count_calls(monkeypatch, "extended_sf")
        result, n_used, _ = hamsys._stabilized_flow(hpath, 2, DEFAULT_N_CAP, DEFAULT_T_SAMPLES)
        assert n_used == 4 and len(dense) == 1
        assert result == extended_sf(galerkin_path(hpath, n_used))
        assert result.admissible_end and result.shift_delta == 0.0 and result.total_sf == 2

    def test_interior_samples_assembled_once(self, monkeypatch):
        rng = np.random.default_rng(53)
        lambdas = (0.0, 0.3, 0.7, 1.0)
        hpath = HamiltonianPath(
            lambdas=lambdas,
            coeffs=tuple(
                TimePeriodicCoeff(a0=rand_sym(rng, 4) + 2.0 * lam * np.eye(4), cos_terms=(0.3 * rand_sym(rng, 4),), sin_terms=())
                for lam in lambdas
            ),
        )
        assembled = count_calls(monkeypatch, "assemble_hessian")
        _, n_used, gpath = hamsys._stabilized_flow(hpath, 2, DEFAULT_N_CAP, DEFAULT_T_SAMPLES)
        tried = int(math.log2(n_used // 2)) + 1
        assert tried >= 2 and len(assembled) == 2 * tried + 2
        want = galerkin_path(hpath, n_used)
        assert np.array_equal(gpath._lambdas, want._lambdas)
        assert all(np.array_equal(x, y) for x, y in zip(gpath._matrices, want._matrices, strict=True))


class TestEigRange:
    def test_constant(self):
        lo, hi = eig_range(TimePeriodicCoeff.constant(np.diag([1.0, 3.0])))
        assert (lo, hi) == (1.0, 3.0)

    def test_sine_scalar(self):
        coeff = TimePeriodicCoeff(a0=np.zeros((2, 2)), cos_terms=(), sin_terms=(np.eye(2),))
        lo, hi = eig_range(coeff)
        assert abs(lo + 1.0) < 1e-3 and abs(hi - 1.0) < 1e-3

    def test_shifted_sine(self):
        coeff = TimePeriodicCoeff(a0=2.5 * np.eye(2), cos_terms=(), sin_terms=(0.2 * np.eye(2),))
        lo, hi = eig_range(coeff)
        assert abs(lo - 2.3) < 1e-3 and abs(hi - 2.7) < 1e-3

    def test_sample_count_guard(self):
        coeff = TimePeriodicCoeff(a0=np.zeros((2, 2)), cos_terms=(np.eye(2),), sin_terms=())
        with pytest.raises(ValueError, match="4\\*M\\+4"):
            eig_range(coeff, t_samples=6)


class TestDelta:
    def test_examples(self):
        assert delta(0.5, 2.5) == 2
        assert delta(2.5, 0.5) == -2
        assert delta(0.0, 1.0) == 1
        assert delta(1.0, 1.0) == 0

    def test_properties_random(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            mu, nu, rho = rng.uniform(-7, 7, size=3)
            assert delta(mu, nu) + delta(nu, rho) == delta(mu, rho)
            assert delta(mu + 1.0, nu + 1.0) == delta(mu, nu)
            assert delta(mu, nu) == -delta(nu, mu)

    @given(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    )
    def test_cocycle_and_antisymmetry(self, mu, nu, rho):
        assert delta(mu, nu) + delta(nu, rho) == delta(mu, rho)
        assert delta(mu, nu) == -delta(nu, mu)

    @given(
        st.integers(-51200, 51200).map(lambda k: k / 1024.0),
        st.integers(-51200, 51200).map(lambda k: k / 1024.0),
    )
    def test_integer_shift(self, mu, nu):
        # dyadic inputs keep mu + 1.0 exact, so the identity is about the
        # count itself rather than float rounding
        assert delta(mu + 1.0, nu + 1.0) == delta(mu, nu)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            delta(float("nan"), 1.0)


def worked_family():
    # A_lambda(t) = 2.5 lambda Id + 0.2 sin(t) Id on lambda in [0, 1]
    sin_term = (0.2 * np.eye(2),)
    return HamiltonianPath(
        lambdas=(0.0, 1.0),
        coeffs=(
            TimePeriodicCoeff(a0=np.zeros((2, 2)), cos_terms=(), sin_terms=sin_term),
            TimePeriodicCoeff(a0=2.5 * np.eye(2), cos_terms=(), sin_terms=sin_term),
        ),
    )


class TestCoefficientBounds:
    def test_worked_family(self):
        rep = coefficient_bounds(worked_family())
        assert abs(rep.beta_start - 0.2) < 1e-3 and abs(rep.alpha_end - 2.3) < 1e-3
        assert rep.case == "increasing" and rep.bound == 2
        assert rep.sf == 4 and rep.sandwich_holds
        assert rep.sf_lower == 4 and rep.sf_upper == 6
        assert len(rep.crossings) >= 2
        ests = sorted(c.lambda_est for c in rep.crossings)
        assert abs(ests[0] - 0.4) < 1e-4 and abs(ests[-1] - 0.8) < 1e-4

    def test_reversed_family_case_two(self):
        fam = worked_family()
        rev = HamiltonianPath(lambdas=(0.0, 1.0), coeffs=(fam.coeffs[1], fam.coeffs[0]))
        rep = coefficient_bounds(rev)
        assert rep.case == "decreasing" and rep.bound == 2
        assert rep.sf == -4 and rep.sandwich_holds

    def test_constant_family_no_bound(self):
        coeff = TimePeriodicCoeff.constant(0.5 * np.eye(2))
        rep = coefficient_bounds(HamiltonianPath(lambdas=(0.0, 1.0), coeffs=(coeff, coeff)))
        assert rep.case == "none" and rep.sf == 0 and rep.sandwich_holds


class TestCoeffAndPathTypes:
    def test_evaluate_and_padding(self):
        coeff = TimePeriodicCoeff(a0=np.eye(2), cos_terms=(0.5 * np.eye(2),), sin_terms=())
        assert coeff.bandwidth == 1
        np.testing.assert_allclose(coeff.evaluate(0.0), 1.5 * np.eye(2))
        np.testing.assert_allclose(coeff.evaluate(np.pi), 0.5 * np.eye(2))

    def test_path_interpolation(self):
        p = HamiltonianPath(
            lambdas=(0.0, 1.0),
            coeffs=(TimePeriodicCoeff.constant(np.zeros((2, 2))), TimePeriodicCoeff.constant(np.eye(2))),
        )
        np.testing.assert_allclose(p.coeff_at(0.25).a0, 0.25 * np.eye(2))

    def test_mixed_bandwidths_align(self):
        c1 = TimePeriodicCoeff(a0=np.eye(2), cos_terms=(np.eye(2),), sin_terms=())
        c2 = TimePeriodicCoeff.constant(np.eye(2))
        p = HamiltonianPath(lambdas=(0.0, 1.0), coeffs=(c1, c2))
        assert p.bandwidth == 1
        mid = p.coeff_at(0.5)
        np.testing.assert_allclose(mid.cos_terms[0], 0.5 * np.eye(2))

    def test_restrict_keeps_grid_paths(self):
        rng = np.random.default_rng(54)
        lams = (0.0, 0.3, 0.7, 1.0)
        path = OperatorPath.from_samples(lams, [rand_sym(rng, 4) for _ in lams], smooth=True)
        part = hamsys._restrict(path, 0.1, 0.7)
        assert part.is_grid and part.smooth and (part.a, part.b) == (0.1, 0.7)
        x = np.linspace(0.1, 0.7, 13)
        np.testing.assert_allclose(part.eigvals(x), path.eigvals(x), rtol=0.0, atol=1e-13)

    def test_galerkin_path_interpolates_exactly(self):
        p = HamiltonianPath(
            lambdas=(0.0, 1.0),
            coeffs=(TimePeriodicCoeff.constant(0.3 * np.eye(2)), TimePeriodicCoeff.constant(0.7 * np.eye(2))),
        )
        op = galerkin_path(p, 3)
        direct = assemble_hessian(p.coeff_at(0.5), 3).matrix.entries
        np.testing.assert_allclose(op(0.5).entries, direct, atol=1e-14)
