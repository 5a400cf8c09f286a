"""Seeded problem generators for the three benchmark workloads.

Every problem keeps the construction it was generated from (its "truth"), so
``checks.py`` can verify the program's answer without calling the program.
The size mix of each workload is fixed; the seed only moves eigenbases,
crossing positions, slopes and coefficients, so two seeds cost about the
same.

Regenerate the inputs of one run (configs as the CLI reads them):

    python3 bench/workloads.py --workload path_census --seed 3 --out inputs/
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("path_census", "periodic_truncation", "many_small")

#: The CLI's default scan grid. Generated crossings sit inside its cells, at
#: least a few cells apart and away from sample points.
N_GRID = 256

#: Seed of the close-pair family, fixed so the problems that fail today fail
#: the same way on every run whatever ``--seed`` is.
CLOSE_PAIR_SEED = 1
CLOSE_PAIR_FAMILY = 200
CLOSE_PAIRS_PER_ROUND = 4

# path_census: (dimension, sample count) per generated path. Rounds stay short
# (about 4 s) so a run holds several and each problem's fastest round is
# little disturbed by other load on the machine.
CENSUS_SHAPES = ((40, 3), (64, 9), (88, 5), (112, 7), (136, 4), (160, 6))

# periodic_truncation: (n, M, N0) per family; galerkin_sf stabilizes at 2*N0.
# Several mid-size families keep the median off any single problem.
TRUNCATION_SHAPES = ((1, 1, 24), (2, 2, 32), (1, 3, 48), (2, 1, 56), (1, 2, 64), (2, 3, 136))

SHIPPED = (
    ("sf", "configs/path_basic.json"),
    ("index", "configs/constant_index.json"),
    ("bifurcate", "configs/krasnoselskii_cluster.json"),
    ("bifurcate", "configs/periodic_family.json"),
)


# --------------------------------------------------------------------------
# truths


@dataclass
class CurvePath:
    """``S(lam) = Q diag(mu(lam)) Q^T`` with ``mu`` affine between samples, so
    the eigenvalues along the path are exactly the interpolated curves."""

    lambdas: np.ndarray  # (s,)
    mu: np.ndarray  # (s, d)
    q: np.ndarray | None  # (d, d) orthogonal; None is the identity
    smooth: bool

    @property
    def dim(self) -> int:
        return self.mu.shape[1]

    def matrix(self, k: int) -> np.ndarray:
        if self.q is None:
            return np.diag(self.mu[k])
        m = (self.q * self.mu[k]) @ self.q.T
        return (m + m.T) / 2.0

    def config(self) -> dict:
        return {
            "kind": "matrix_path",
            "samples": [
                {"lambda": float(lam), "matrix": self.matrix(k).tolist()} for k, lam in enumerate(self.lambdas)
            ],
            "smooth": self.smooth,
        }


def curve_roots(lambdas: np.ndarray, mu: np.ndarray) -> list[tuple[float, int]]:
    """Zeros of the piecewise-affine curves, sorted, each with the sign of its
    slope (+1 where the curve turns from negative to positive)."""
    roots = []
    for k in range(len(lambdas) - 1):
        m0, m1 = mu[k], mu[k + 1]
        for i in np.nonzero((m0 < 0) != (m1 < 0))[0]:
            t = m0[i] / (m0[i] - m1[i])
            roots.append((float(lambdas[k] + t * (lambdas[k + 1] - lambdas[k])), 1 if m1[i] > m0[i] else -1))
    return sorted(roots)


@dataclass
class PeriodicFamily:
    """``A_lam(t) = a(lam) Id + harmonics`` on R^(2n), with ``a`` affine between
    samples. At every sample ``sup_t ||harmonics(t)|| <= radius`` by
    construction, so the eigenvalues of ``A_lam(t)`` stay in
    ``[a - radius, a + radius]``."""

    n: int
    lambdas: tuple[float, ...]
    a: tuple[float, ...]
    cos: tuple[tuple[np.ndarray, ...], ...]  # per sample
    sin: tuple[tuple[np.ndarray, ...], ...]
    radius: float

    @property
    def bandwidth(self) -> int:
        return max(len(self.cos[0]), len(self.sin[0]))

    def config(self) -> dict:
        d = 2 * self.n
        return {
            "kind": "hamiltonian_periodic",
            "samples": [
                {
                    "lambda": lam,
                    "a0": (a * np.eye(d)).tolist(),
                    "cos": [m.tolist() for m in cs],
                    "sin": [m.tolist() for m in ss],
                }
                for lam, a, cs, ss in zip(self.lambdas, self.a, self.cos, self.sin)
            ],
        }

    def hamiltonian_path(self):
        from specflow.hamsys import HamiltonianPath, TimePeriodicCoeff

        d = 2 * self.n
        coeffs = tuple(
            TimePeriodicCoeff(a0=a * np.eye(d), cos_terms=cs, sin_terms=ss)
            for a, cs, ss in zip(self.a, self.cos, self.sin)
        )
        return HamiltonianPath(lambdas=self.lambdas, coeffs=coeffs)


@dataclass
class ScalarBlocks:
    """``A = U diag(a, a) U^T`` with ``U`` orthogonal and symplectic: a direct
    sum of scalar blocks ``a_i Id`` on symplectic pairs."""

    a: np.ndarray
    u: np.ndarray | None

    def matrix(self) -> np.ndarray:
        m = np.diag(np.concatenate([self.a, self.a]))
        if self.u is not None:
            m = self.u @ m @ self.u.T
        return (m + m.T) / 2.0


@dataclass
class Spectrum:
    """``K = Q diag(eigs) Q^T`` with exactly repeated eigenvalues for clusters."""

    eigs: np.ndarray
    q: np.ndarray | None
    interval: tuple[float, float]

    def matrix(self) -> np.ndarray:
        if self.q is None:
            return np.diag(self.eigs)
        m = (self.q * self.eigs) @ self.q.T
        return (m + m.T) / 2.0


@dataclass
class Lattice:
    """Node ``(i, j)`` carries ``Q diag(mu[i, j]) Q^T``; an exact zero in
    ``mu[i, j]`` makes that node singular."""

    mu: np.ndarray  # (ns, nt, d)
    q: np.ndarray
    base: tuple[int, int]

    def config(self) -> dict:
        ns, nt, _ = self.mu.shape
        lattice = []
        for i in range(ns):
            row = []
            for j in range(nt):
                m = (self.q * self.mu[i, j]) @ self.q.T
                row.append(((m + m.T) / 2.0).tolist())
            lattice.append(row)
        return {"kind": "sweep2d", "lattice": lattice, "base": list(self.base)}


@dataclass
class Problem:
    """One operation of a workload: a CLI call on a config file, or a direct
    ``galerkin_sf`` call on a built ``HamiltonianPath``."""

    pid: str
    truth: object
    command: str | None = None  # CLI subcommand; None for galerkin_sf
    config_path: str | None = None
    trace_csv: bool = False
    known_fault: bool = False
    hpath: object = None
    warmup: bool = False


# --------------------------------------------------------------------------
# random pieces


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_symplectic_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    # a unitary X + iY on C^n is the orthogonal symplectic [[X, -Y], [Y, X]]
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, r = np.linalg.qr(z)
    w = w * (np.diag(r) / np.abs(np.diag(r))).conj()
    x, y = w.real, w.imag
    return np.block([[x, -y], [y, x]])


def _grid(a: float, b: float) -> np.ndarray:
    return np.linspace(a, b, N_GRID)


def _pick_cells(rng, count: int, lo: int, hi: int, gap: int, avoid=()) -> list[int]:
    """``count`` scan cells in ``[lo, hi)`` pairwise ``gap`` apart and ``gap``
    away from the cells in ``avoid``."""
    taken = list(avoid)
    out: list[int] = []
    for _ in range(1000):
        if len(out) == count:
            break
        c = int(rng.integers(lo, hi))
        if all(abs(c - t) >= gap for t in taken):
            taken.append(c)
            out.append(c)
    if len(out) != count:
        raise RuntimeError("could not place crossings; widen the domain")
    return sorted(out)


def curve_path(rng, d: int, n_samples: int, events: tuple[str, ...], smooth: bool = True) -> CurvePath:
    """Piecewise-affine eigenvalue curves with one crossing event per entry of
    ``events``: ``up``/``down`` (simple), ``double`` (two curves with slopes
    of one sign) or ``cancel`` (two curves with opposite slopes, local flow 0).

    Crossings lie inside scan cells (offset 0.3..0.7 of a cell), 8 cells apart
    and 8 cells from every sample. Slopes are 0.5..1.5 per span, so the dip
    detector's golden-section search lands within the default zero tolerance
    of a cancelling pair. Curves without a crossing keep ``|mu| >= 0.5``.
    """
    width = sum(2 if e in ("double", "cancel") else 1 for e in events)
    if width > d:
        raise ValueError("more crossing curves than the dimension")
    a = float(rng.uniform(-1.0, 0.0))
    span = float(rng.uniform(1.0, 3.0))
    b = a + span
    grid = _grid(a, b)
    h = grid[1] - grid[0]
    sample_cells = _pick_cells(rng, n_samples - 2, 20, N_GRID - 21, 12)
    lambdas = np.concatenate([[a], grid[sample_cells] + 0.5 * h, [b]])
    cells = _pick_cells(rng, len(events), 8, N_GRID - 9, 8, avoid=[0, N_GRID - 1, *sample_cells])
    mu = np.empty((n_samples, d))
    for i in range(d):
        mu[:, i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0, n_samples)
    col = 0
    for kind, cell in zip(events, cells):
        root = grid[cell] + rng.uniform(0.3, 0.7) * h
        if kind in ("up", "down"):
            signs = [1.0 if kind == "up" else -1.0]
        elif kind == "double":
            s = rng.choice([-1.0, 1.0])
            signs = [s, s]
        else:
            signs = [1.0, -1.0]
        for s in signs:
            slope = s * rng.uniform(0.5, 1.5) / span
            k = int(np.searchsorted(lambdas, root))  # root lies in (lambdas[k-1], lambdas[k])
            for j, lam in enumerate(lambdas):
                if j in (k - 1, k):
                    mu[j, col] = slope * (lam - root)
                else:
                    side = 1.0 if lam > root else -1.0
                    mu[j, col] = side * s * rng.uniform(0.5, 1.5)
            col += 1
    perm = rng.permutation(d)
    return CurvePath(lambdas=lambdas, mu=mu[:, perm], q=random_orthogonal(rng, d), smooth=smooth)


def close_pair_family(count: int = CLOSE_PAIR_FAMILY) -> list[CurvePath]:
    """Paths on [0, 1] whose V-shaped curve dips below zero at a sample point
    and has its two roots 2e-3..0.2 apart (log-uniform); the other curves
    keep ``|mu| >= 0.5``. Seeded by :data:`CLOSE_PAIR_SEED` alone."""
    rng = np.random.default_rng(CLOSE_PAIR_SEED)
    out = []
    for _ in range(count):
        d = int(rng.integers(40, 81))
        sep = float(np.exp(rng.uniform(math.log(2e-3), math.log(0.2))))
        c = float(rng.uniform(0.3, 0.7))
        w = float(rng.uniform(0.3, 0.7))
        g_left = float(rng.uniform(0.5, 1.5))
        depth = g_left * w * sep
        g_right = depth / ((1.0 - w) * sep)
        lambdas = np.array([0.0, c, 1.0])
        mu = np.empty((3, d))
        for i in range(d):
            mu[:, i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0, 3)
        mu[:, 0] = [g_left * c - depth, -depth, g_right * (1.0 - c) - depth]
        perm = rng.permutation(d)
        out.append(CurvePath(lambdas=lambdas, mu=mu[:, perm], q=random_orthogonal(rng, d), smooth=True))
    return out


def close_pairs_between_scan_points() -> list[CurvePath]:
    """The first close pairs of the family with no point of the default scan
    grid between their two roots, the input shape on which crossing
    localization loses one root of the pair."""
    grid = _grid(0.0, 1.0)
    out = []
    for p in close_pair_family():
        (lo, _), (hi, _) = curve_roots(p.lambdas, p.mu)
        if not np.any((grid > lo) & (grid < hi)):
            out.append(p)
        if len(out) == CLOSE_PAIRS_PER_ROUND:
            break
    return out


def periodic_family(rng, n: int, m_band: int, n0: int, a_low: float, radius: float = 0.2) -> PeriodicFamily:
    """A two-sample family whose high end puts ``ceil(2 sup ||A||)`` at ``n0``.

    Both endpoint ranges ``[a - radius, a + radius]`` avoid the integers, so
    the comparison sandwich pins the flow; the direction is random.
    """
    a_high = n0 / 2.0 - 0.25
    if not (radius < 0.25 and a_low + radius < a_high - radius):
        raise ValueError("endpoint ranges must be disjoint and below the truncation threshold")
    d = 2 * n
    harmonics = []
    for _ in range(2):
        mats = [rng.standard_normal((d, d)) for _ in range(2 * m_band)]
        mats = [(x + x.T) / 2.0 for x in mats]
        total = sum(float(np.linalg.norm(x, 2)) for x in mats)
        mats = [x * (radius / total) for x in mats]
        harmonics.append((tuple(mats[:m_band]), tuple(mats[m_band:])))
    ends = (a_low, a_high) if rng.random() < 0.5 else (a_high, a_low)
    return PeriodicFamily(
        n=n,
        lambdas=(0.0, 1.0),
        a=ends,
        cos=(harmonics[0][0], harmonics[1][0]),
        sin=(harmonics[0][1], harmonics[1][1]),
        radius=radius,
    )


def scalar_blocks(rng, n: int) -> ScalarBlocks:
    a = rng.choice([-1.0, 1.0], n) * (rng.integers(0, 6, n) + rng.uniform(0.2, 0.8, n))
    return ScalarBlocks(a=a, u=random_symplectic_orthogonal(rng, n))


def clustered_spectrum(rng, d: int) -> Spectrum:
    c = float(rng.uniform(-2.0, 0.0))
    dd = c + float(rng.uniform(2.0, 4.0))
    grid = np.linspace(c, dd, N_GRID)
    h = grid[1] - grid[0]
    n_inside = max(1, d // 2)
    mults = []
    while sum(mults) < n_inside:
        mults.append(int(min(rng.integers(1, 4), n_inside - sum(mults))))
    cells = _pick_cells(rng, len(mults), 4, N_GRID - 5, 4)
    eigs = []
    for cell, mult in zip(cells, mults):
        eigs += [grid[cell] + rng.uniform(0.3, 0.7) * h] * mult
    while len(eigs) < d:
        eigs.append(c - rng.uniform(0.5, 2.0) if rng.random() < 0.5 else dd + rng.uniform(0.5, 2.0))
    return Spectrum(eigs=np.array(eigs), q=random_orthogonal(rng, d), interval=(c, dd))


def lattice(rng, ns: int, nt: int, d: int, n_singular: int = 3) -> Lattice:
    s = np.linspace(0.0, 1.0, ns)[:, None, None]
    t = np.linspace(0.0, 1.0, nt)[None, :, None]
    mu = rng.uniform(-1.0, 1.0, d) + rng.uniform(-2.0, 2.0, d) * s + rng.uniform(-2.0, 2.0, d) * t
    mu = np.where(np.abs(mu) < 0.02, np.copysign(0.02, mu), mu)
    base = (int(rng.integers(0, ns)), int(rng.integers(0, nt)))
    placed = 0
    while placed < n_singular:
        i, j = int(rng.integers(0, ns)), int(rng.integers(0, nt))
        if (i, j) != base and not np.any(mu[i, j] == 0.0):
            mu[i, j, int(rng.integers(0, d))] = 0.0
            placed += 1
    return Lattice(mu=mu, q=random_orthogonal(rng, d), base=base)


# --------------------------------------------------------------------------
# shipped configs: truths read off their structure


def shipped_truth(command: str, cfg: dict):
    """Truth of a shipped config, derived from its matrices without calling
    the program; raises ValueError when the config lost the structure the
    derivation relies on."""
    kind = cfg["kind"]
    if kind == "matrix_path":
        mats = [np.array(s["matrix"], dtype=float) for s in cfg["samples"]]
        if any(np.count_nonzero(m - np.diag(np.diag(m))) for m in mats):
            raise ValueError("shipped matrix path is no longer diagonal")
        return CurvePath(
            lambdas=np.array([s["lambda"] for s in cfg["samples"]], dtype=float),
            mu=np.array([np.diag(m) for m in mats]),
            q=None,
            smooth=bool(cfg.get("smooth", False)),
        )
    if kind == "hamiltonian_const":
        m = np.array(cfg["matrix"], dtype=float)
        n = m.shape[0] // 2
        a = np.diag(m)[:n]
        if np.count_nonzero(m - np.diag(np.diag(m))) or not np.array_equal(a, np.diag(m)[n:]):
            raise ValueError("shipped constant coefficient is no longer a sum of scalar blocks")
        return ScalarBlocks(a=a, u=None)
    if kind == "krasnoselskii":
        m = np.array(cfg["matrix"], dtype=float)
        if np.count_nonzero(m - np.diag(np.diag(m))):
            raise ValueError("shipped Krasnoselskii matrix is no longer diagonal")
        return Spectrum(eigs=np.diag(m).copy(), q=None, interval=tuple(cfg["interval"]))
    if kind == "hamiltonian_periodic":
        samples = cfg["samples"]
        d = len(samples[0]["a0"])
        a, cos, sin, radius = [], [], [], 0.0
        for s in samples:
            a0 = np.array(s["a0"], dtype=float)
            if not np.array_equal(a0, a0[0, 0] * np.eye(d)):
                raise ValueError("shipped periodic family no longer has a scalar constant term")
            cs = tuple(np.array(x, dtype=float) for x in s.get("cos", []))
            ss = tuple(np.array(x, dtype=float) for x in s.get("sin", []))
            radius = max(radius, sum(float(np.linalg.norm(x, 2)) for x in cs + ss))
            a.append(float(a0[0, 0]))
            cos.append(cs)
            sin.append(ss)
        return PeriodicFamily(
            n=d // 2,
            lambdas=tuple(float(s["lambda"]) for s in samples),
            a=tuple(a),
            cos=tuple(cos),
            sin=tuple(sin),
            radius=radius,
        )
    raise ValueError(f"no truth for shipped kind {kind!r}")


# --------------------------------------------------------------------------
# workloads


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _krasnoselskii_config(sp: Spectrum) -> dict:
    return {"kind": "krasnoselskii", "matrix": sp.matrix().tolist(), "interval": list(sp.interval)}


def _index_config(sb: ScalarBlocks) -> dict:
    return {"kind": "hamiltonian_const", "matrix": sb.matrix().tolist()}


def build_path_census(seed: int, out: Path) -> list[Problem]:
    rng = np.random.default_rng([seed, 1])
    problems = []
    kinds = ("up", "down", "double", "cancel")
    for i, (d, n_samples) in enumerate(CENSUS_SHAPES):
        events = tuple(kinds[(i + k) % 4] for k in range(4))
        truth = curve_path(rng, d, n_samples, events)
        cfg = _write(out / f"census_{i:02d}.json", truth.config())
        problems.append(Problem(f"census_{i:02d}_d{d}", truth, "bifurcate", cfg, trace_csv=True, warmup=i == 0))
    for i, truth in enumerate(close_pairs_between_scan_points()):
        cfg = _write(out / f"close_pair_{i}.json", truth.config())
        problems.append(Problem(f"close_pair_{i}_d{truth.dim}", truth, "bifurcate", cfg, trace_csv=True, known_fault=True))
    return problems


def build_periodic_truncation(seed: int, out: Path) -> list[Problem]:
    """One round solves every family below the largest twice and the largest
    once, so the mid-size families that set the median get twice the
    samples for the same run length."""
    rng = np.random.default_rng([seed, 2])
    problems = []
    for i, (n, m_band, n0) in enumerate(TRUNCATION_SHAPES):
        a_low = float(rng.integers(0, n0 // 4)) + 0.5
        fam = periodic_family(rng, n, m_band, n0, a_low)
        problems.append(
            Problem(f"galerkin_{i}_n{n}_M{m_band}_N{2 * n0}", fam, hpath=fam.hamiltonian_path(), warmup=i == 0)
        )
    return problems + problems[:-1]


def build_many_small(seed: int, out: Path, root: Path) -> list[Problem]:
    """The shipped configs plus three variants of 35 small generated
    problems: 109 problems, enough for ten beyond the 90th percentile."""
    rng = np.random.default_rng([seed, 3])
    problems = []
    for command, rel in SHIPPED:
        path = root / rel
        truth = shipped_truth(command, json.loads(path.read_text(encoding="utf-8")))
        problems.append(Problem(f"shipped_{Path(rel).stem}", truth, command, str(path), warmup=True))
    kinds = ("up", "down", "double", "cancel")
    for v in range(3):
        for i in range(16):
            command = "sf" if i % 2 == 0 else "bifurcate"
            d = 2 + i % 11
            events = tuple(kinds[(i + k) % 4] for k in range(1 + i % 3))
            if sum(2 if e in ("double", "cancel") else 1 for e in events) > d:
                events = ("up",)
            truth = curve_path(rng, d, 2 + i % 3, events, smooth=i % 4 < 2)
            cfg = _write(out / f"path_{v}_{i:02d}.json", truth.config())
            problems.append(Problem(f"{command}_path_{v}_{i:02d}_d{d}", truth, command, cfg))
        for i in range(5):
            truth = scalar_blocks(rng, 1 + i)
            cfg = _write(out / f"index_{v}_{i}.json", _index_config(truth))
            problems.append(Problem(f"index_{v}_{i}_n{1 + i}", truth, "index", cfg))
        for i in range(5):
            truth = clustered_spectrum(rng, 3 + 2 * i)
            cfg = _write(out / f"krasnoselskii_{v}_{i}.json", _krasnoselskii_config(truth))
            problems.append(Problem(f"krasnoselskii_{v}_{i}_d{3 + 2 * i}", truth, "bifurcate", cfg))
        for i in range(4):
            command = "sf" if i < 2 else "bifurcate"
            truth = periodic_family(rng, 1, 1, 6, 0.5)
            cfg = _write(out / f"periodic_{v}_{i}.json", truth.config())
            problems.append(Problem(f"{command}_periodic_{v}_{i}_n{truth.n}", truth, command, cfg))
        for i, (ns, nt, d) in enumerate(((8, 8, 3), (16, 12, 4), (24, 24, 3), (32, 30, 4), (40, 40, 3))):
            truth = lattice(rng, ns, nt, d)
            cfg = _write(out / f"sweep_{v}_{i}.json", truth.config())
            problems.append(Problem(f"sweep_{v}_{i}_{ns}x{nt}", truth, "sweep", cfg))
    return problems


def build(workload: str, seed: int, out: Path, root: Path) -> list[Problem]:
    """Generate the problem list of one workload; configs go under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "path_census":
        return build_path_census(seed, out)
    if workload == "periodic_truncation":
        return build_periodic_truncation(seed, out)
    if workload == "many_small":
        return build_many_small(seed, out, root)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


def main() -> None:
    parser = argparse.ArgumentParser(description="write the generated inputs of one benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated configs")
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    out = Path(args.out)
    problems = {p.pid: p for p in build(args.workload, args.seed, out, root)}
    for p in problems.values():
        if p.hpath is not None:
            _write(out / f"{p.pid}.json", p.truth.config())
    print(f"{len(problems)} problems written to {out}")


if __name__ == "__main__":
    main()
