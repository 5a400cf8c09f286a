import numpy as np
import pytest

from specflow.bifurcate import krasnoselskii, sweep2d
from specflow.hamsys import TimePeriodicCoeff, eig_range, hamiltonian_index
from specflow.sfpath import OperatorPath, compare_paths, extended_sf, is_nondecreasing
from specflow.symlin import (
    EigenSolverError,
    SymMatrix,
    as_sym,
    default_zero_tol,
    eigensym,
    inertia,
    kernel_basis,
    rel_morse,
)


def rand_sym(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) * scale
    return (a + a.T) / 2.0


class TestSymMatrix:
    def test_symmetrizes_input(self):
        s = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_array_equal(s.entries, [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            SymMatrix([[np.inf]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix(np.zeros((2, 3)))

    def test_entries_readonly(self):
        s = as_sym(np.eye(2))
        with pytest.raises(ValueError):
            s.entries[0, 0] = 5.0

    def test_symmetrization_bit_identical_to_halved_sum(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 5, 17):
            x = rng.normal(size=(d, d))
            x[rng.random((d, d)) < 0.3] = 0.0
            x[rng.random((d, d)) < 0.3] = -0.0
            for src in (x, x.T, np.asfortranarray(x)):
                keep = src.copy()
                s = SymMatrix(src)
                want = (src + src.T) / 2.0
                assert np.array_equal(s.entries, want)
                assert np.array_equal(np.signbit(s.entries), np.signbit(want))
                assert s.entries.flags.c_contiguous and not s.entries.flags.writeable
                assert not np.shares_memory(s.entries, src)
                assert np.array_equal(src, keep) and src.flags.writeable


class TestSolverErrors:
    def test_non_convergence_is_reported(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        path = OperatorPath.from_samples([0.0, 1.0], [np.eye(2), -np.eye(2)])
        for solve in (
            eigensym,
            inertia,
            lambda m: path.eigvals([0.0, 0.5]),
            lambda m: extended_sf(path),
            lambda m: is_nondecreasing(path),
            lambda m: compare_paths(path, path),
            lambda m: sweep2d([[m, m], [m, m]], base=(0, 0)),
            lambda m: krasnoselskii(m, (0.0, 3.0)),
            lambda m: eig_range(TimePeriodicCoeff.constant(m)),
            hamiltonian_index,
        ):
            with pytest.raises(EigenSolverError, match="did not converge"):
                solve(np.diag([1.0, 2.0]))


class TestEigensym:
    def test_diagonal(self):
        dec = eigensym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_reflection(self):
        dec = eigensym([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_identity(self, d):
        dec = eigensym(np.eye(d))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(d))
        np.testing.assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(d), atol=1e-12)

    def test_factor_invariants_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            s = as_sym(rand_sym(rng, d, scale=10.0 ** rng.integers(-3, 4)))
            dec = eigensym(s)
            scale = max(1.0, s.norm_fro())
            assert np.linalg.norm(s.entries - dec.reconstruct()) <= 1e-10 * scale
            assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(d)) <= 1e-10 * d
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        s = rand_sym(rng, 6)
        d1, d2 = eigensym(s), eigensym(s)
        np.testing.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)


class TestInertia:
    def test_mixed_signs(self):
        i = inertia(np.diag([-1.0, 2.0, 3.0]), zero_tol=1e-8)
        assert (i.neg, i.zero, i.pos) == (1, 0, 2)

    def test_kernel_counted(self):
        i = inertia(np.diag([0.0, -2.0]), zero_tol=1e-8)
        assert (i.neg, i.zero, i.pos) == (1, 1, 0)

    def test_below_tolerance(self):
        i = inertia(np.diag([1e-12, 5.0]), zero_tol=1e-8)
        assert (i.neg, i.zero, i.pos) == (0, 1, 1)

    def test_counts_and_signature_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(1, 10))
            i = inertia(rand_sym(rng, d))
            assert i.neg + i.zero + i.pos == d
            assert i.signature == i.pos - i.neg
            assert i.morse_index == i.neg and i.kernel_dim == i.zero

    def test_sylvester_congruence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 8))
            s = rand_sym(rng, d)
            # well-conditioned invertible congruence
            q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
            q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
            m = q1 @ np.diag(rng.uniform(0.5, 2.0, size=d)) @ q2
            a, b = inertia(s), inertia(m.T @ s @ m)
            assert (a.neg, a.zero, a.pos) == (b.neg, b.zero, b.pos)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            inertia(np.eye(2), zero_tol=-1.0)


class TestKernelBasis:
    def test_single_kernel_vector(self):
        k = kernel_basis(np.diag([0.0, 1.0]))
        assert k.shape == (2, 1)
        assert abs(abs(k[0, 0]) - 1.0) < 1e-12 and abs(k[1, 0]) < 1e-12

    def test_trivial_kernel(self):
        assert kernel_basis(np.eye(3)).shape == (3, 0)

    def test_two_dimensional_kernel(self):
        k = kernel_basis(np.diag([0.0, 0.0, 3.0]))
        assert k.shape == (3, 2)
        np.testing.assert_allclose(k.T @ k, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(k[2, :], [0.0, 0.0], atol=1e-12)

    def test_cardinality_matches_inertia(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            r = int(rng.integers(0, d + 1))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            w = np.concatenate([np.zeros(r), rng.uniform(0.5, 3.0, size=d - r) * rng.choice([-1, 1], size=d - r)])
            s = as_sym((q * w) @ q.T)
            assert kernel_basis(s).shape[1] == inertia(s).zero == r


class TestRelMorse:
    def test_symmetric_swap(self):
        for side in ("negative", "positive"):
            assert rel_morse(np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]), side) == 0

    def test_full_flip(self):
        for side in ("negative", "positive"):
            assert rel_morse(-np.eye(2), np.eye(2), side) == 2

    def test_kernel_side_convention(self):
        s, t = np.diag([0.0, 1.0]), np.diag([1.0, 1.0])
        assert rel_morse(s, t, "negative") == 1
        assert rel_morse(s, t, "positive") == 0

    def test_identity_against_morse_counts(self):
        # rel_morse(S, T) == mu*(S) - mu*(T) with mu* counting <= 0 for the
        # "negative" convention and < 0 for "positive"; the left side uses
        # projector ranks, so this is a genuine cross-check.
        rng = np.random.default_rng(5)
        for trial in range(1000):
            d = int(rng.integers(1, 7))
            s, t = rand_sym(rng, d), rand_sym(rng, d)
            if trial % 3 == 0:
                # exercise kernels: project out a random eigenvalue
                w, v = np.linalg.eigh(s)
                w[int(rng.integers(0, d))] = 0.0
                s = (v * w) @ v.T
            ws, wt = np.linalg.eigvalsh(as_sym(s).entries), np.linalg.eigvalsh(as_sym(t).entries)
            tol_s, tol_t = default_zero_tol(s), default_zero_tol(t)
            mu_neg = int(np.sum(ws <= tol_s)) - int(np.sum(wt <= tol_t))
            mu_pos = int(np.sum(ws < -tol_s)) - int(np.sum(wt < -tol_t))
            assert rel_morse(s, t, "negative") == mu_neg
            assert rel_morse(s, t, "positive") == mu_pos

    def test_antisymmetry_and_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            s, t = rand_sym(rng, d), rand_sym(rng, d)
            for side in ("negative", "positive"):
                assert rel_morse(s, s, side) == 0
                assert rel_morse(s, t, side) == -rel_morse(t, s, side)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            rel_morse(np.eye(2), np.eye(3))

    def test_bad_side(self):
        with pytest.raises(ValueError, match="kernel_side"):
            rel_morse(np.eye(2), np.eye(2), "middle")
