"""Shared generators for randomized path tests.

Paths built here have a fixed orthogonal eigenbasis and affine eigenvalue
curves, so every crossing parameter, kernel dimension, and local flow is known
in closed form and can serve as an independent oracle.
"""

import numpy as np
import pytest

from specflow.sfpath import OperatorPath


@pytest.fixture
def solved(monkeypatch):
    """Number of matrices in each numpy.linalg.eigvalsh call, in call order."""
    solve = np.linalg.eigvalsh
    calls = []

    def counting(a):
        calls.append(len(a) if a.ndim == 3 else 1)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def rand_orth(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def make_diag_path(rng, d, max_roots=3, positive_slopes=False, domain=(-1.0, 1.0)):
    """Random path Q diag(affine curves) Q^T with prescribed crossings.

    Returns ``(path, oracle)`` where oracle is a list of
    ``(root, kernel_dim, local_sf)`` sorted by root. Every eigenvalue curve is
    affine, so the path itself is affine and exactly represented by its two
    endpoint samples.
    """
    a, b = domain
    n_roots = int(rng.integers(1, max_roots + 1))
    width = b - a
    while True:
        roots = np.sort(rng.uniform(a + 0.15 * width, b - 0.15 * width, size=n_roots))
        if n_roots == 1 or np.min(np.diff(roots)) > 0.08 * width:
            break
    # each curve either crosses at one of the roots or stays uniformly signed
    assignment = [int(rng.integers(0, n_roots)) for _ in range(d)]
    for r in range(n_roots):
        if r not in assignment:
            assignment[int(rng.integers(0, d))] = r
    slopes = rng.uniform(0.4, 1.5, size=d)
    if not positive_slopes:
        slopes *= rng.choice([-1.0, 1.0], size=d)
    n_flat = int(rng.integers(0, max(1, d - n_roots) + 1))
    flat_idx = rng.choice(d, size=n_flat, replace=False) if n_flat else []
    curves = []
    for i in range(d):
        if i in flat_idx and assignment.count(assignment[i]) > 1:
            level = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            curves.append((0.0, level))  # constant, never crosses
        else:
            s = slopes[i]
            r = roots[assignment[i]]
            curves.append((s, -s * r))
    q = rand_orth(rng, d)

    def eig_at(lam):
        return np.array([s * lam + c for s, c in curves])

    sample = lambda lam: (q * eig_at(lam)) @ q.T
    path = OperatorPath.from_samples([a, b], [sample(a), sample(b)], smooth=True)

    oracle = []
    for r_idx, root in enumerate(roots):
        members = [i for i in range(d) if assignment[i] == r_idx and curves[i][0] != 0.0]
        if not members:
            continue
        kdim = len(members)
        local = int(sum(np.sign(curves[i][0]) for i in members))
        oracle.append((float(root), kdim, local))
    oracle.sort()
    return path, oracle
