import numpy as np
import pytest

from conftest import make_diag_path, rand_orth
from specflow import sfpath
from specflow.sfpath import (
    EndpointCrossingError,
    OperatorPath,
    compare_paths,
    concat,
    crossing_form,
    classify_crossings,
    direct_sum,
    extended_sf,
    is_admissible,
    is_nondecreasing,
    locate_crossings,
    reverse,
    scan_path,
    sf_regular_sum,
    verify_axioms,
)


def diag_path(a, b, *entries_fns, smooth=True):
    d = len(entries_fns)

    def fn(lam):
        return np.diag([g(lam) for g in entries_fns])

    return OperatorPath.from_callable(a, b, d, fn, smooth=smooth)


class TestEvaluate:
    def test_affine_interpolation(self):
        p = OperatorPath.from_samples([0.0, 1.0], [np.diag([0.0, 0.0]), np.diag([2.0, 4.0])])
        np.testing.assert_allclose(p(0.5).entries, np.diag([1.0, 2.0]))

    def test_analytic_rule(self):
        p = OperatorPath.from_callable(0.0, 5.0, 2, lambda lam: lam * np.eye(2))
        np.testing.assert_allclose(p(3.0).entries, 3.0 * np.eye(2))

    def test_sample_point_exact(self):
        m = np.array([[1.0, 0.5], [0.5, -2.0]])
        p = OperatorPath.from_samples([0.0, 0.3, 1.0], [np.zeros((2, 2)), m, np.eye(2)])
        np.testing.assert_array_equal(p(0.3).entries, m)

    def test_outside_domain(self):
        p = OperatorPath.from_callable(0.0, 1.0, 1, lambda lam: np.array([[lam]]))
        with pytest.raises(ValueError, match="outside domain"):
            p(2.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            OperatorPath.from_samples([0.0, 0.0], [np.eye(1), np.eye(1)])
        with pytest.raises(ValueError, match="at least two"):
            OperatorPath.from_samples([0.0], [np.eye(1)])
        with pytest.raises(ValueError, match="one dimension"):
            OperatorPath.from_samples([0.0, 1.0], [np.eye(1), np.eye(2)])


def rand_sym(rng, d):
    m = rng.normal(size=(d, d))
    return (m + m.T) / 2.0


class TestEigvals:
    def test_matches_pointwise_eigvalsh(self):
        rng = np.random.default_rng(5)
        for d in (4, 12, 160):
            lams = [-1.0, -0.3, 0.25, 1.0]
            grid_path = OperatorPath.from_samples(lams, [rand_sym(rng, d) for _ in lams])
            k, u = rand_sym(rng, d), np.triu(rng.normal(size=(d, d)))
            rule_path = OperatorPath.from_callable(-1.0, 1.0, d, lambda x, k=k, u=u: np.cos(x) * k + x * u)
            # sample points, both endpoints, a scan grid and off-grid points;
            # at d = 160 the parameters span several stacked solves
            xs = np.concatenate([lams, np.linspace(-1.0, 1.0, 45), rng.uniform(-1.0, 1.0, 10)])
            for p in (grid_path, rule_path):
                want = np.array([np.linalg.eigvalsh(p(x).entries) for x in xs])
                assert np.array_equal(p.eigvals(xs), want)

    def test_rule_outputs_are_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            OperatorPath.from_callable(0.0, 1.0, 3, lambda x: np.eye(2)).eigvals([0.5])
        with pytest.raises(ValueError, match="finite"):
            OperatorPath.from_callable(0.0, 1.0, 1, lambda x: [[np.inf]]).eigvals([0.5])
        with pytest.raises(ValueError, match="outside domain"):
            OperatorPath.from_samples([0.0, 1.0], [np.eye(1), np.eye(1)]).eigvals([0.5, 1.5])


class TestAdmissible:
    def test_both_invertible(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        assert is_admissible(p) == (True, True)

    def test_singular_start(self):
        p = diag_path(0.0, 1.0, lambda l: l, lambda l: 1.0)
        assert is_admissible(p) == (False, True)

    def test_constant_identity(self):
        p = OperatorPath.from_callable(0.0, 1.0, 2, lambda l: np.eye(2))
        assert is_admissible(p) == (True, True)


class TestExtendedSf:
    def test_single_crossing(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        assert extended_sf(p).total_sf == 1

    def test_cancelling_pair(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: -l)
        assert extended_sf(p).total_sf == 0

    def test_constant_singular_endpoint(self):
        p = OperatorPath.from_callable(0.0, 1.0, 2, lambda l: np.diag([0.0, 1.0]))
        res = extended_sf(p)
        assert res.total_sf == 0
        assert res.admissible_start is False and res.admissible_end is False
        assert res.shift_delta > 0

    def test_eigenvalue_counting_oracle(self):
        # flow of lam*Id - K equals the multiplicity count of spec(K) in (c, d)
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            k = rng.normal(size=(m, m))
            k = (k + k.T) / 2
            eigs = np.linalg.eigvalsh(k)
            c, d = -4.0, 4.0
            assert np.all(np.abs(eigs - c) > 1e-6) and np.all(np.abs(eigs - d) > 1e-6)
            p = OperatorPath.from_samples([c, d], [c * np.eye(m) - k, d * np.eye(m) - k], smooth=True)
            expected = int(np.sum((eigs > c) & (eigs < d)))
            assert extended_sf(p).total_sf == expected


class TestLocateCrossings:
    def test_single_crossing_odd_grid(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        cr = locate_crossings(p, n_grid=101)
        assert len(cr) == 1
        assert abs(cr[0].lambda_est) < 1e-7
        assert cr[0].kernel_dim == 1 and cr[0].local_sf == 1

    def test_two_crossings(self):
        p = diag_path(-1.0, 1.0, lambda l: l - 0.25, lambda l: l + 0.25)
        cr = locate_crossings(p)
        assert len(cr) == 2
        assert abs(cr[0].lambda_est + 0.25) < 1e-7 and abs(cr[1].lambda_est - 0.25) < 1e-7
        assert [c.local_sf for c in cr] == [1, 1]
        assert sum(c.local_sf for c in cr) == extended_sf(p).total_sf == 2

    def test_constant_invertible_path(self):
        p = OperatorPath.from_callable(0.0, 1.0, 2, lambda l: np.eye(2))
        assert locate_crossings(p) == ()

    def test_zero_flow_crossing_between_samples(self):
        # crossing with cancelling branches, not on any sample of an even grid
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: -l)
        cr = locate_crossings(p, n_grid=256)
        assert len(cr) == 1
        assert abs(cr[0].lambda_est) < 1e-7
        assert cr[0].kernel_dim == 2 and cr[0].local_sf == 0

    def test_tangential_touch(self):
        p = diag_path(-1.0, 1.0, lambda l: l * l, lambda l: 1.0)
        cr = locate_crossings(p)
        assert len(cr) == 1
        assert cr[0].kernel_dim == 1 and cr[0].local_sf == 0

    def test_endpoint_singularity_rejected(self):
        p = diag_path(0.0, 1.0, lambda l: l, lambda l: 1.0)
        with pytest.raises(EndpointCrossingError):
            locate_crossings(p)

    def test_brackets_disjoint_and_consistent_random(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            path, oracle = make_diag_path(rng, d)
            cr = locate_crossings(path)
            assert len(cr) == len(oracle)
            for got, (root, kdim, local) in zip(cr, oracle):
                assert abs(got.lambda_est - root) <= 1e-7
                assert got.kernel_dim == kdim
                assert got.local_sf == local
            for left, right in zip(cr, cr[1:]):
                assert left.bracket[1] < right.bracket[0]
            assert sum(c.local_sf for c in cr) == extended_sf(path).total_sf


def close_pair_path(rng):
    """A V-shaped eigenvalue curve with its kink at a sample and its two
    roots 2e-3..0.2 apart; the other curves keep ``|mu| >= 0.5``. Returns the
    path in a random orthogonal basis and the roots (down, then up)."""
    d = int(rng.integers(3, 9))
    sep = float(np.exp(rng.uniform(np.log(2e-3), np.log(0.2))))
    c, w, g_left = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(0.5, 1.5)
    depth = g_left * w * sep
    g_right = depth / ((1.0 - w) * sep)
    mu = rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.5, 3.0, size=(3, d))
    mu[:, 0] = [g_left * c - depth, -depth, g_right * (1.0 - c) - depth]
    q = rand_orth(rng, d)
    path = OperatorPath.from_samples([0.0, c, 1.0], [(q * row) @ q.T for row in mu], smooth=True)
    return path, (c - w * sep, c + (1.0 - w) * sep)


class TestCensusAdditivity:
    """Local flows over the crossing partition sum to the total flow."""

    @pytest.mark.parametrize("n_grid", [256, 32, 8])
    def test_random_piecewise_affine_paths(self, n_grid):
        rng = np.random.default_rng(1)
        for _ in range(150):
            d, s = int(rng.integers(2, 16)), int(rng.integers(2, 7))
            lams = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, s - 2)), [1.0]])
            p = OperatorPath.from_samples(lams, [rand_sym(rng, d) for _ in lams])
            cr = locate_crossings(p, n_grid=n_grid)
            assert sum(c.local_sf for c in cr) == extended_sf(p).total_sf

    def test_close_pairs_between_scan_points(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 256)
        checked = 0
        while checked < 10:
            path, (down, up) = close_pair_path(rng)
            if np.any((grid > down) & (grid < up)):
                continue
            cr = locate_crossings(path)
            assert [c.local_sf for c in cr] == [-1, 1]
            assert [c.kernel_dim for c in cr] == [1, 1]
            assert abs(cr[0].lambda_est - down) < 1e-7 and abs(cr[1].lambda_est - up) < 1e-7
            checked += 1


def rule_copy(path):
    """The same matrices as ``path``, behind an evaluation rule: its census
    takes the scan, the grid path's the pencil."""
    return OperatorPath.from_callable(path.a, path.b, path.dim, path)


def random_family(count=150):
    rng = np.random.default_rng(1)
    for _ in range(count):
        d, s = int(rng.integers(2, 16)), int(rng.integers(2, 7))
        lams = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, s - 2)), [1.0]])
        yield OperatorPath.from_samples(lams, [rand_sym(rng, d) for _ in lams])


def close_pairs(count=10):
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 256)
    while count:
        path, (down, up) = close_pair_path(rng)
        if not np.any((grid > down) & (grid < up)):
            count -= 1
            yield path, (down, up)


class TestPencilCensus:
    """Grid paths take the pencil route, rule paths the scan; both must give
    the same census."""

    @pytest.fixture
    def routes(self, monkeypatch):
        # how many grid paths took the pencil route and how many the scan
        taken = {"pencil": 0, "scan": 0}
        pencil = sfpath._pencil_events

        def counted(*args):
            out = pencil(*args)
            taken["scan" if out is None else "pencil"] += 1
            return out

        monkeypatch.setattr(sfpath, "_pencil_events", counted)
        return taken

    @staticmethod
    def assert_same_census(path, n_grid=256):
        got, want = locate_crossings(path, n_grid=n_grid), locate_crossings(rule_copy(path), n_grid=n_grid)
        # crossings with flow: byte for byte; zero-flow ones: same integers,
        # estimates within eps_lambda
        assert [c.to_dict() for c in got if c.local_sf] == [c.to_dict() for c in want if c.local_sf]
        zero = lambda cr: [(c.local_sf, c.kernel_dim) for c in cr if not c.local_sf]
        assert zero(got) == zero(want)
        est = lambda cr: np.array([c.lambda_est for c in cr if not c.local_sf])
        assert np.all(np.abs(est(got) - est(want)) <= 1e-8 * (path.b - path.a))

    def test_same_census_as_scan_random(self, routes):
        for p in random_family():
            self.assert_same_census(p)
        assert routes == {"pencil": 150, "scan": 0}

    def test_same_census_as_scan_close_pairs(self, routes):
        # both roots of each pair in one scan cell: found through the dip
        # test the scan runs, on the pencil route too
        for path, _ in close_pairs():
            self.assert_same_census(path)
        assert routes == {"pencil": 10, "scan": 0}

    def test_root_signatures_sum_to_total_flow(self):
        # sign(v^T B v) over the pencil's roots against the endpoint counts
        for p in random_family():
            t, flow, _, _ = sfpath._pencil_roots(p, 1e-8, 2e-8)
            inside = (t > p.a) & (t < p.b)
            assert np.all(np.abs(flow) == 1.0)
            assert flow[inside].sum() == extended_sf(p).total_sf

    def test_cancelling_pairs_and_kinks_take_no_detour(self, solved):
        # a pair of roots at one parameter whose crossing form is indefinite
        # has zero flow, and a root at an interior sample is seen from both
        # of its segments at half its one-sided flow: neither needs the dip
        # test or a bisection by real solves
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = rand_orth(rng, 6)
            slopes, root = rng.uniform(0.5, 1.5, 2), 0.3 + 0.01 * rng.uniform()
            other = rng.uniform(1.0, 2.0, 4) * rng.choice([-1.0, 1.0], 4)
            at = lambda x: (q * np.concatenate([[1.0, -1.0] * slopes * (x - root), other])) @ q.T
            kink = lambda x: (q * np.concatenate([[slopes[int(x > root)] * (x - root)], other, [1.0]])) @ q.T
            for p, flow in (
                (OperatorPath.from_samples([-1.0, 1.0], [at(-1.0), at(1.0)]), 0),
                (OperatorPath.from_samples([-1.0, root, 1.0], [kink(-1.0), kink(root), kink(1.0)]), 1),
            ):
                solved.clear()
                (cr,) = locate_crossings(p)
                assert cr.local_sf == flow and abs(cr.lambda_est - root) < 1e-8
                assert sum(solved) <= 25

    @pytest.mark.parametrize("fault", ["drop", "add", "touch"])
    def test_faulty_pencil_still_gives_the_crossings(self, monkeypatch, fault):
        rng = np.random.default_rng(3)
        segment_roots = sfpath._segment_roots

        def faulty(path, k, *args):
            t, flow, err, touch = segment_roots(path, k, *args)
            if fault == "drop":
                keep = np.arange(t.size) != rng.integers(t.size)
                return t[keep], flow[keep], err[keep], touch
            x = rng.uniform(path._lambdas[k], path._lambdas[k + 1])
            if fault == "touch":
                return t, flow, err, np.append(touch, x)
            return np.append(t, x), np.append(flow, rng.choice([-1.0, 1.0])), np.append(err, 1e-12), touch

        monkeypatch.setattr(sfpath, "_segment_roots", faulty)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            path, oracle = make_diag_path(rng, d, positive_slopes=bool(rng.integers(2)))
            cr = locate_crossings(path)
            assert [(c.kernel_dim, c.local_sf) for c in cr] == [(k, s) for _, k, s in oracle]
            assert np.allclose([c.lambda_est for c in cr], [r for r, _, _ in oracle], atol=1e-7)

    def test_singular_endpoint_rejected(self):
        p = OperatorPath.from_samples([0.0, 0.5, 1.0], [np.diag([0.0, 1.0]), np.diag([0.5, 1.0]), np.eye(2)])
        with pytest.raises(EndpointCrossingError):
            locate_crossings(p)
        # a root within eps_lambda of a clear endpoint
        p = OperatorPath.from_samples([0.0, 1.0], [np.diag([-5e-4, 1.0]), np.diag([1.0, 1.0])])
        with pytest.raises(EndpointCrossingError, match="reaches an endpoint"):
            locate_crossings(p, eps_lambda=1e-3)


class TestCrossingForm:
    def test_simple_positive(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        f = crossing_form(p, 0.0)
        np.testing.assert_allclose(f.matrix, [[1.0]], atol=1e-9)
        assert f.signature == 1 and f.regular

    def test_indefinite(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: -l)
        f = crossing_form(p, 0.0)
        assert f.signature == 0 and f.regular
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(f.matrix)), [-1.0, 1.0], atol=1e-9)

    def test_degenerate_touch(self):
        p = diag_path(-1.0, 1.0, lambda l: l * l, lambda l: 1.0)
        f = crossing_form(p, 0.0)
        assert not f.regular

    def test_requires_kernel(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        with pytest.raises(ValueError, match="not a crossing"):
            crossing_form(p, 0.5)

    def test_requires_smooth(self):
        p = OperatorPath.from_samples([-1.0, 1.0], [-np.eye(1), np.eye(1)], smooth=False)
        with pytest.raises(ValueError, match="smooth"):
            crossing_form(p, 0.0)


class TestRegularSum:
    def test_single(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        assert sf_regular_sum(p) == 1

    def test_cancelling(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: -l)
        assert sf_regular_sum(p) == 0

    def test_positive_path_counts_kernels(self):
        p = diag_path(0.0, 2.0, lambda l: l - 1.0, lambda l: l - 1.0)
        cr = locate_crossings(p)
        assert len(cr) == 1 and cr[0].kernel_dim == 2
        assert sf_regular_sum(p, cr) == 2 == sum(c.kernel_dim for c in cr)

    def test_refuses_degenerate(self):
        p = diag_path(-1.0, 1.0, lambda l: l * l, lambda l: 1.0)
        with pytest.raises(ValueError, match="degenerate crossing form"):
            sf_regular_sum(p)


class TestPathAlgebra:
    def test_concat_additivity(self):
        left = diag_path(-1.0, 0.0, lambda l: l, lambda l: 1.0)
        right = diag_path(0.0, 1.0, lambda l: l, lambda l: 1.0)
        whole = concat(left, right)
        assert extended_sf(left).total_sf + extended_sf(right).total_sf == extended_sf(whole).total_sf == 1

    def test_concat_grid_merge(self):
        p = OperatorPath.from_samples([0.0, 1.0], [np.eye(2), 2 * np.eye(2)])
        q = OperatorPath.from_samples([1.0, 2.0], [2 * np.eye(2), 3 * np.eye(2)])
        merged = concat(p, q)
        assert merged.is_grid and (merged.a, merged.b) == (0.0, 2.0)
        np.testing.assert_allclose(merged(1.5).entries, 2.5 * np.eye(2))

    def test_concat_junction_mismatch(self):
        p = OperatorPath.from_samples([0.0, 1.0], [np.eye(2), 2 * np.eye(2)])
        q = OperatorPath.from_samples([2.0, 3.0], [2 * np.eye(2), 3 * np.eye(2)])
        with pytest.raises(ValueError, match="junction mismatch"):
            concat(p, q)
        q2 = OperatorPath.from_samples([1.0, 2.0], [5 * np.eye(2), 3 * np.eye(2)])
        with pytest.raises(ValueError, match="disagree at the junction"):
            concat(p, q2)

    def test_reverse_flips_sign(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        assert extended_sf(reverse(p)).total_sf == -1

    def test_direct_sum(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        both = direct_sum(p, p)
        assert both.dim == 4
        assert extended_sf(both).total_sf == 2

    def test_direct_sum_of_grid_paths(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p, q = (
                OperatorPath.from_samples(np.sort(np.append(rng.uniform(-1, 1, n), [-1.0, 1.0])),
                                          [rand_sym(rng, d) for _ in range(n + 2)])
                for n, d in ((int(rng.integers(0, 4)), int(rng.integers(1, 5))) for _ in range(2))
            )
            both = direct_sum(p, q)
            assert both.is_grid and both.dim == p.dim + q.dim
            for x in rng.uniform(-1.0, 1.0, 8):
                blocks = np.zeros((both.dim, both.dim))
                blocks[: p.dim, : p.dim], blocks[p.dim :, p.dim :] = p(x).entries, q(x).entries
                np.testing.assert_allclose(both(x).entries, blocks, atol=1e-12)
            rule = OperatorPath.from_callable(
                -1.0, 1.0, both.dim,
                lambda x: np.block([[p(x).entries, np.zeros((p.dim, q.dim))], [np.zeros((q.dim, p.dim)), q(x).entries]]),
            )
            got, want = locate_crossings(both), locate_crossings(rule)
            assert [(c.local_sf, c.kernel_dim) for c in got] == [(c.local_sf, c.kernel_dim) for c in want]
            assert np.allclose([c.lambda_est for c in got], [c.lambda_est for c in want], atol=1e-7)
            TestPencilCensus.assert_same_census(both)

    def test_direct_sum_domain_mismatch(self):
        p = diag_path(-1.0, 1.0, lambda l: l)
        q = diag_path(0.0, 1.0, lambda l: l)
        with pytest.raises(ValueError, match="domain mismatch"):
            direct_sum(p, q)


class TestMonotone:
    def test_increasing_scalar(self):
        p = OperatorPath.from_callable(0.0, 1.0, 2, lambda l: l * np.eye(2))
        assert is_nondecreasing(p)

    def test_indefinite_direction(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: -l)
        assert not is_nondecreasing(p)

    def test_constant(self):
        p = OperatorPath.from_callable(0.0, 1.0, 2, lambda l: np.eye(2))
        assert is_nondecreasing(p)

    def test_short_decreasing_segment_between_grid_points(self):
        # the middle segment has the eigenvalue -1e-4, between scan points
        p = OperatorPath.from_samples(
            [0.0, 0.5001, 0.5002, 1.0],
            [np.zeros((2, 2)), 0.5001 * np.eye(2), np.diag([0.5001 - 1e-4, 0.5001]), np.eye(2)],
        )
        assert not is_nondecreasing(p)

    def test_monotone_implies_nonnegative_flow(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            l0 = rng.normal(size=(d, d))
            l0 = (l0 + l0.T) / 2
            g = rng.normal(size=(d, int(rng.integers(1, d + 1))))
            p = OperatorPath.from_samples([0.0, 1.0], [l0, l0 + g @ g.T])
            assert is_nondecreasing(p)
            assert extended_sf(p).total_sf >= 0


class TestComparePaths:
    def test_hypothesis_fails(self):
        left = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        right = diag_path(-1.0, 1.0, lambda l: l + 0.1, lambda l: 1.0)
        rep = compare_paths(left, right)
        assert rep.start_ordered and not rep.end_ordered and not rep.hypothesis

    def test_equal_paths(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        rep = compare_paths(p, p)
        assert rep.hypothesis and rep.sf_left == rep.sf_right and rep.comparison_holds

    def test_interior_dip(self):
        left = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        right = diag_path(
            -1.0, 1.0,
            lambda l: l - 0.05 * (1.0 - l) * (l + 1.0),
            lambda l: 1.0 - 0.05 * (1.0 - l) * (l + 1.0),
        )
        rep = compare_paths(left, right)
        assert rep.hypothesis
        # equal endpoints force equal endpoint Morse indices
        assert rep.sf_left == rep.sf_right and rep.comparison_holds


class TestVerifyAxioms:
    def test_small_run_passes(self):
        report = verify_axioms(seed=7, trials=40)
        assert report.all_passed
        assert set(report.passed) == {
            "normalization",
            "morse_index_formula",
            "direct_sum",
            "homotopy_invariance",
            "concatenation",
            "monotone_nonnegative",
            "reversal_antisymmetry",
        }

    def test_deterministic(self):
        r1 = verify_axioms(seed=3, trials=10)
        r2 = verify_axioms(seed=3, trials=10)
        assert r1.to_dict() == r2.to_dict()

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            verify_axioms(seed=0, trials=0)

    def test_builds_only_grid_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify_axioms built a path from an evaluation rule")

        monkeypatch.setattr(OperatorPath, "from_callable", refuse)
        assert verify_axioms(seed=0, trials=20).all_passed


class TestScanPath:
    def test_combines_total_and_crossings(self):
        p = diag_path(-1.0, 1.0, lambda l: l - 0.25, lambda l: l + 0.25)
        res = scan_path(p)
        assert res.total_sf == 2
        assert len(res.crossings) == 2
        assert res.grid_points_used == 256

    def test_classify_enriches(self):
        p = diag_path(-1.0, 1.0, lambda l: l, lambda l: 1.0)
        cr = classify_crossings(p, locate_crossings(p))
        assert cr[0].crossing_form_signature == 1 and cr[0].regular
