import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_diag_path
from specflow.bifurcate import analyze_path, krasnoselskii, sweep2d, trace_components
from specflow.sfpath import OperatorPath, extended_sf


def diag_path(a, b, *entries_fns):
    d = len(entries_fns)
    return OperatorPath.from_callable(a, b, d, lambda lam: np.diag([g(lam) for g in entries_fns]), smooth=True)


class TestAnalyzePath:
    def test_double_kernel_single_crossing(self):
        p = diag_path(0.0, 2.0, lambda l: l - 1.0, lambda l: l - 1.0)
        rep = analyze_path(p)
        assert len(rep.crossings) == 1
        assert rep.total_sf == 2 and rep.m == 2 and rep.lower_bound == 1
        assert rep.admissible == (True, True)

    def test_two_simple_crossings(self):
        p = diag_path(-1.0, 1.0, lambda l: l - 0.25, lambda l: l + 0.25)
        rep = analyze_path(p)
        assert len(rep.crossings) == 2
        assert rep.total_sf == 2 and rep.m == 1 and rep.lower_bound == 2

    def test_zero_flow_no_conclusion(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: -l)
        rep = analyze_path(p)
        assert rep.total_sf == 0 and rep.lower_bound == 0
        assert any("candidate" in n for n in rep.notes)

    def test_kernel_dim_ignores_parked_branches(self):
        # branches parked at 1.5e-8 and 0.01 are not kernel: the first sits
        # just outside the band, the second far outside the drift over the
        # brackets, though within the drift out to the cells' clear points
        p = diag_path(0.0, 1.0, lambda l: 0.1 * (l - 0.3), lambda l: 0.1 * (l - 0.7), lambda l: 1.5e-8, lambda l: 0.01)
        rep = analyze_path(p)
        assert [c.kernel_dim for c in rep.crossings] == [1, 1]
        assert rep.total_sf == 2 and rep.m == 1 and rep.lower_bound == 2

    def test_lower_bound_never_exceeds_crossing_count(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            path, oracle = make_diag_path(rng, d)
            rep = analyze_path(path)
            assert rep.lower_bound <= len(rep.crossings)
            assert rep.m == max(k for _, k, _ in oracle)
            if rep.total_sf != 0:
                assert rep.m >= 1


class TestTraceComponents:
    def test_three_segments(self):
        p = diag_path(-1.0, 1.0, lambda l: l - 0.25, lambda l: l + 0.25)
        tr = trace_components(p)
        assert len(tr.segments) == 3
        assert tr.cumulative_index == (0, 1, 2)
        assert tr.distinct_count == 3 >= math.ceil(2 / 1) + 1

    def test_double_crossing_two_segments(self):
        p = diag_path(0.0, 2.0, lambda l: l - 1.0, lambda l: l - 1.0)
        tr = trace_components(p)
        assert len(tr.segments) == 2
        assert tr.cumulative_index == (0, 2)
        assert tr.distinct_count == 2 == math.ceil(2 / 2) + 1

    def test_invertible_path_single_segment(self):
        p = OperatorPath.from_callable(0.0, 1.0, 2, lambda l: np.eye(2), smooth=True)
        tr = trace_components(p)
        assert tr.segments == ((0.0, 1.0),) and tr.cumulative_index == (0,)

    def test_distinct_count_bound_random(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 40:
            d = int(rng.integers(2, 7))
            path, _ = make_diag_path(rng, d)
            sf = extended_sf(path).total_sf
            if sf == 0:
                continue
            rep = analyze_path(path)
            tr = trace_components(path, crossings=rep.crossings)
            assert tr.distinct_count >= math.ceil(abs(sf) / rep.m) + 1
            checked += 1


class TestSweep2D:
    @staticmethod
    def quadrant_lattice(n_nodes=21):
        ss = np.linspace(0.0, 1.0, n_nodes)
        return [[np.diag([2.0 * s - 1.0, 2.0 * t - 1.0]) for t in ss] for s in ss]

    def test_four_quadrant_family(self):
        lattice = self.quadrant_lattice()
        cmap = sweep2d(lattice, base=(2, 2))
        assert cmap.index[2, 2] == 0
        # singular lines sit at s = 0.5 and t = 0.5 (node index 10)
        assert all(cmap.singular_mask[10, j] for j in range(21))
        assert all(cmap.singular_mask[i, 10] for i in range(21))
        assert not cmap.loop_defects
        # labels by quadrant: 0 at (-,-), 1 on mixed quadrants, 2 at (+,+)
        assert cmap.index[5, 5] == 0
        assert cmap.index[5, 15] == 1
        assert cmap.index[15, 5] == 1
        assert cmap.index[15, 15] == 2
        values = {cmap.index[i, j] for i in (5, 15) for j in (5, 15)}
        assert values == {0, 1, 2}

    def test_constant_invertible_family(self):
        lattice = [[np.eye(2) for _ in range(6)] for _ in range(6)]
        cmap = sweep2d(lattice, base=(0, 0))
        assert not cmap.singular_mask.any()
        assert all(cmap.index[i, j] == 0 for i in range(6) for j in range(6))
        assert not cmap.loop_defects

    def test_all_elementary_loops_vanish_random(self):
        rng = np.random.default_rng(33)
        base_mat = rng.normal(size=(3, 3))
        base_mat = (base_mat + base_mat.T) / 2
        ws, wt = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        ws, wt = (ws + ws.T) / 2, (wt + wt.T) / 2
        ss = np.linspace(0.0, 1.0, 9)
        lattice = [[base_mat + s * ws + t * wt for t in ss] for s in ss]
        cmap = sweep2d(lattice, base=(0, 0))
        assert not cmap.loop_defects

    def test_singular_base_rejected(self):
        lattice = self.quadrant_lattice()
        with pytest.raises(ValueError, match="singular"):
            sweep2d(lattice, base=(10, 3))

    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="rectangular"):
            sweep2d([[np.eye(2)], [np.eye(2), np.eye(2)]], base=(0, 0))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda L: L[:1], "expected a rectangular lattice with at least two rows"),
            (lambda L: [r[:1] for r in L], "expected at least two columns"),
            (lambda L: L[:1] + [L[1][:2]], "expected a rectangular lattice with at least two rows"),
            (lambda L: L[:1] + [[np.eye(3)] + L[1][1:]], "all lattice matrices must share one dimension"),
            (lambda L: L[:1] + [[np.eye(2)[:1]] + L[1][1:]], r"expected a square matrix, got shape \(1, 2\)"),
            (lambda L: [[np.eye(2)[:1]] * 3] * 2, r"expected a square matrix, got shape \(1, 2\)"),
            (lambda L: [[np.zeros((0, 0))] * 3] * 2, "matrix must have positive dimension"),
            (lambda L: L[:1] + [[np.full((2, 2), np.nan)] + L[1][1:]], "matrix entries must be finite"),
            # node checks come first, in row-major order, then the lattice's shape
            (lambda L: [L[0][:2] + [np.eye(3)], [np.eye(2), np.diag([1.0, np.inf])]], "must be finite"),
            (lambda L: [L[0][:2], [np.eye(2), np.diag([1.0, np.inf]), np.eye(2)]], "must be finite"),
        ],
    )
    def test_lattice_errors(self, edit, message):
        lattice = edit([[np.eye(2)] * 3, [np.eye(2)] * 3])
        with pytest.raises(ValueError, match=message):
            sweep2d(lattice, base=(0, 0))

    def test_lattice_input_forms(self):
        nodes = np.stack([np.diag([s - 0.5, t + 1.0]) for s in (0.0, 1.0, 2.0) for t in (0.0, 1.0)]).reshape(3, 2, 2, 2)
        maps = [
            sweep2d(nodes, base=(0, 0)),
            sweep2d(nodes.tolist(), base=(0, 0)),
            sweep2d([list(row) for row in nodes], base=(0, 0)),
        ]
        for cmap in maps:
            assert cmap.to_dict() == maps[0].to_dict()
        assert maps[0].index.tolist() == [[0, 0], [1, 1], [1, 1]]
        with pytest.raises(ValueError, match=r"base node \(3, 0\) outside the 3x2 lattice"):
            sweep2d(nodes, base=(3, 0))


class TestKrasnoselskii:
    def test_clustered_spectrum(self):
        rep = krasnoselskii(np.diag([3.0, 3.0, 5.0]), (2.5, 5.5))
        assert rep.total_sf == 3
        assert len(rep.crossings) == 2
        first, second = rep.crossings
        assert abs(first.lambda_est - 3.0) <= 1e-8 and first.local_sf == 2
        assert abs(second.lambda_est - 5.0) <= 1e-8 and second.local_sf == 1
        assert first.regular and first.crossing_form_signature == 2

    def test_empty_window(self):
        rep = krasnoselskii(np.diag([3.0, 5.0]), (6.0, 7.0))
        assert rep.total_sf == 0 and rep.crossings == ()

    def test_full_window_transfers_everything(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            k = rng.normal(size=(d, d))
            k = (k + k.T) / 2
            eigs = np.linalg.eigvalsh(k)
            rep = krasnoselskii(k, (eigs[0] - 1.0, eigs[-1] + 1.0))
            assert rep.total_sf == d
            assert sum(c.local_sf for c in rep.crossings) == d

    @pytest.mark.parametrize("gap", [3e-8, 5e-8, 9e-8])
    def test_close_eigenvalues_are_separate_crossings(self, gap):
        # the census separates crossings down to 2 * eps_lambda; the spectrum
        # check must accept every split it makes
        rep = krasnoselskii(np.diag([0.5, 0.5 + gap, 3.0]), (0.0, 1.0))
        assert rep.total_sf == 2
        assert [(c.local_sf, c.kernel_dim) for c in rep.crossings] == [(1, 1), (1, 1)]

    @pytest.mark.parametrize(
        "alter,message",
        [
            (lambda c: replace(c, bracket=(c.bracket[0] + 1e-6, c.bracket[1] + 1e-6)), "lies in 0 crossing"),
            (lambda c: replace(c, local_sf=2, kernel_dim=2), "should both equal the 1 eigenvalue"),
        ],
    )
    def test_spectrum_check_can_fail(self, monkeypatch, alter, message):
        import specflow.bifurcate as bifurcate

        analyze = bifurcate.analyze_path

        def altered(*args, **kwargs):
            rep = analyze(*args, **kwargs)
            return replace(rep, crossings=(alter(rep.crossings[0]), *rep.crossings[1:]))

        monkeypatch.setattr(bifurcate, "analyze_path", altered)
        with pytest.raises(RuntimeError, match=message):
            krasnoselskii(np.diag([0.5, 0.7, 3.0]), (0.0, 1.0))

    def test_endpoint_in_spectrum_rejected(self):
        with pytest.raises(ValueError, match="spectrum"):
            krasnoselskii(np.diag([1.0, 2.0]), (2.0, 3.0))
