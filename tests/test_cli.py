import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specflow.bifurcate import sweep2d
from specflow.cli import ConfigError, parse_config, run, serialize_config
from specflow.symlin import SymMatrix, _family_tol

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def normalize(report_text: str) -> str:
    return re.sub(r'"wall_time_s": [-0-9.e+]+', '"wall_time_s": 0', report_text)


def run_to_text(args, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = run([*args, "--out", str(out)])
    return rc, out.read_text() if out.exists() else ""


MINIMAL_PATH_CONFIG = """
{
  "kind": "matrix_path",
  "samples": [
    {"lambda": 0.0, "matrix": [[1.0]]},
    {"lambda": 1.0, "matrix": [[2.0]]}
  ]
}
"""


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL_PATH_CONFIG)
        assert cfg.kind == "matrix_path"
        assert cfg.payload["grid"] == 256
        assert cfg.payload["smooth"] is False
        assert cfg.payload["zero_tol"] is None
        assert cfg.payload["eps_lambda"] is None

    def test_round_trip(self):
        for path in CONFIGS.glob("*.json"):
            cfg = parse_config(path.read_text())
            assert parse_config(serialize_config(cfg)) == cfg

    def test_rejects_nonsymmetric_matrix_naming_entry(self):
        text = json.dumps(
            {
                "kind": "matrix_path",
                "samples": [
                    {"lambda": 0.0, "matrix": [[0.0, 1.0], [0.0, 0.0]]},
                    {"lambda": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                ],
            }
        )
        with pytest.raises(ConfigError, match=r"samples\[0\].matrix is not symmetric"):
            parse_config(text)

    @pytest.mark.parametrize(
        "entry, message",
        [("true", "must be a number"), ('"1.0"', "must be a number"), ("NaN", "must be finite")],
    )
    def test_rejects_bad_entry_naming_first_location(self, entry, message):
        rows = "[[1.0, 0.0, 0.0], [0.0, 1.0, %s], [0.0, NaN, 1.0]]" % entry
        text = (
            '{"kind": "matrix_path", "samples": ['
            '{"lambda": 0.0, "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, '
            '{"lambda": 1.0, "matrix": %s}]}' % rows
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"samples[1].matrix[1][2] {message}"

    def test_rejects_unknown_keys(self):
        text = json.dumps(
            {
                "kind": "verify",
                "seed": 1,
                "trials": 3,
                "bogus": True,
            }
        )
        with pytest.raises(ConfigError, match="unknown key.*bogus"):
            parse_config(text)

    def test_parse_error_carries_line_and_column(self):
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            parse_config('{"kind": "verify",\n  "seed": }')

    def test_low_truncation_request_raised_to_bandwidth(self):
        text = json.dumps(
            {
                "kind": "hamiltonian_periodic",
                "n0": 1,
                "samples": [
                    {"lambda": 0.0, "a0": [[0.0, 0.0], [0.0, 0.0]], "cos": [], "sin": [[[0.1, 0.0], [0.0, 0.1]]] * 3},
                    {"lambda": 1.0, "a0": [[1.0, 0.0], [0.0, 1.0]], "cos": [], "sin": [[[0.1, 0.0], [0.0, 0.1]]] * 3},
                ],
            }
        )
        warnings = []
        cfg = parse_config(text, on_warning=warnings.append)
        assert cfg.payload["n0"] == 3
        assert warnings and "raised to 3" in warnings[0]

    def test_rejects_bad_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config('{"kind": "mystery"}')

    def test_rejects_nonincreasing_lambdas(self):
        text = json.dumps(
            {
                "kind": "matrix_path",
                "samples": [
                    {"lambda": 1.0, "matrix": [[1.0]]},
                    {"lambda": 0.0, "matrix": [[2.0]]},
                ],
            }
        )
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config(text)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nope"}')
        assert run(["sf", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_2(self):
        assert run(["sf", "--config", "/nonexistent/x.json"]) == 2

    def test_kind_command_mismatch_is_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text((CONFIGS / "constant_index.json").read_text())
        assert run(["sf", "--config", str(cfg)]) == 2

    def test_negative_zero_tol_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**json.loads((CONFIGS / "path_basic.json").read_text()), "zero_tol": -1.0}))
        for command in ("sf", "bifurcate"):
            assert run([command, "--config", str(cfg)]) == 2
            assert "zero_tol must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config,entry",
        [
            (
                "sf",
                {"kind": "matrix_path", "samples": [
                    {"lambda": 0.0, "matrix": [[-1.0, 0.0], [0.0, 10**400]]},
                    {"lambda": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                ]},
                "samples[0].matrix[1][1] must be finite",
            ),
            (
                "sf",
                {"kind": "hamiltonian_periodic", "samples": [
                    {"lambda": 0.0, "a0": [[0.5, 0.0], [0.0, 0.5]], "cos": [], "sin": []},
                    {"lambda": 1.0, "a0": [[1.5, 0.0], [0.0, 1.5]], "cos": [[[10**400, 0], [0, 0]]], "sin": []},
                ]},
                "samples[1].cos[0][0][0] must be finite",
            ),
            (
                "sweep",
                {"kind": "sweep2d", "base": [0, 0], "lattice": [
                    [[[1.0]], [[2.0]]],
                    [[[3.0]], [[-(10**400)]]],
                ]},
                "lattice[1][1][0][0] must be finite",
            ),
        ],
    )
    def test_integer_beyond_float_range_is_2(self, tmp_path, capsys, command, config, entry):
        # json writes the integer literal out in full: 1 followed by 400 zeros
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert "0" * 400 in cfg.read_text()
        assert run([command, "--config", str(cfg)]) == 2
        assert f"config error: {entry}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["cos", "sin"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_harmonics_not_a_list_is_2(self, tmp_path, capsys, key, value):
        config = json.loads((CONFIGS / "periodic_family.json").read_text())
        config["samples"][1][key] = value
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run(["sf", "--config", str(cfg)]) == 2
        assert f"config error: samples[1].{key} must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_grid_below_two_is_2(self, capsys, grid):
        for command in ("sf", "bifurcate"):
            assert run([command, "--config", str(CONFIGS / "path_basic.json"), "--grid", grid]) == 2
            assert "config error: --grid must be at least 2" in capsys.readouterr().err

    def test_nonstabilization_is_3(self, tmp_path, capsys):
        text = json.dumps(
            {
                "kind": "hamiltonian_periodic",
                "n0": 1,
                "n_cap": 1,
                "samples": [
                    {"lambda": 0.0, "a0": [[0.5, 0.0], [0.0, 0.5]], "cos": [], "sin": []},
                    {"lambda": 1.0, "a0": [[1.5, 0.0], [0.0, 1.5]], "cos": [], "sin": []},
                ],
            }
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run(["sf", "--config", str(cfg)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_spectrum_endpoint_is_2(self, tmp_path, capsys):
        text = json.dumps(
            {
                "kind": "krasnoselskii",
                "matrix": [[1.0, 0.0], [0.0, 2.0]],
                "interval": [2.0, 3.0],
            }
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run(["bifurcate", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_endpoint_crossing_is_3(self, tmp_path, capsys):
        text = json.dumps(
            {
                "kind": "matrix_path",
                "samples": [
                    {"lambda": 0.0, "matrix": [[0.0, 0.0], [0.0, 1.0]]},
                    {"lambda": 1.0, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                ],
            }
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert run(["bifurcate", "--config", str(cfg)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_solver_failure_is_3(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert run(["sf", "--config", str(CONFIGS / "periodic_family.json")]) == 3
        assert "did not converge" in capsys.readouterr().err


class TestReports:
    def test_deterministic_modulo_wall_time(self, tmp_path):
        args = ["sf", "--config", str(CONFIGS / "path_basic.json")]
        rc1, text1 = run_to_text(args, tmp_path, "a.json")
        rc2, text2 = run_to_text(args, tmp_path, "b.json")
        assert rc1 == rc2 == 0
        assert normalize(text1) == normalize(text2)

    @pytest.mark.parametrize(
        "command,config,golden",
        [
            ("sf", "path_basic.json", "sf_path_basic.json"),
            ("index", "constant_index.json", "index_constant.json"),
            ("bifurcate", "krasnoselskii_cluster.json", "bifurcate_krasnoselskii.json"),
            ("sf", "periodic_family.json", "sf_periodic_family.json"),
            ("bifurcate", "periodic_family.json", "bifurcate_periodic_family.json"),
            ("sweep", "sweep_lattice.json", "sweep_lattice.json"),
        ],
    )
    def test_golden_reports(self, tmp_path, command, config, golden):
        rc, text = run_to_text([command, "--config", str(CONFIGS / config)], tmp_path)
        assert rc == 0
        assert normalize(text) == normalize((GOLDEN / golden).read_text())

    def test_integer_fields_are_integers(self, tmp_path):
        rc, text = run_to_text(["sf", "--config", str(CONFIGS / "path_basic.json")], tmp_path)
        report = json.loads(text)
        assert report["results"]["total_sf"] == 1
        assert isinstance(report["results"]["total_sf"], int)
        assert isinstance(report["results"]["crossings"][0]["local_sf"], int)

    def test_trace_csv_schema(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rc = run(
            [
                "sf",
                "--config",
                str(CONFIGS / "path_basic.json"),
                "--out",
                str(tmp_path / "r.json"),
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "lambda,eig_1,eig_2"
        assert len(lines) == 257
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == -1.0 and first[1] <= first[2]

    def test_trace_csv_golden(self, tmp_path):
        trace = tmp_path / "trace.csv"
        args = ["sf", "--config", str(CONFIGS / "path_basic.json"), "--trace", str(trace)]
        rc, _ = run_to_text(args, tmp_path)
        assert rc == 0
        assert trace.read_bytes() == (GOLDEN / "trace_sf_path_basic.csv").read_bytes()

    def test_krasnoselskii_trace_csv_golden(self, tmp_path):
        trace = tmp_path / "trace.csv"
        args = ["bifurcate", "--config", str(CONFIGS / "krasnoselskii_cluster.json"), "--trace", str(trace)]
        rc, _ = run_to_text(args, tmp_path)
        assert rc == 0
        assert trace.read_bytes() == (GOLDEN / "trace_bifurcate_krasnoselskii.csv").read_bytes()

    @pytest.mark.parametrize(
        "command,config,solves",
        [
            ("bifurcate", "path_basic.json", 20),
            ("sf", "path_basic.json", 16),
            # 2048 of these solve the 2x2 coefficients at 1024 times per
            # sample for the starting truncation; the census solves 37
            ("sf", "periodic_family.json", 2085),
            ("bifurcate", "periodic_family.json", 4133),
            ("bifurcate", "krasnoselskii_cluster.json", 38),
        ],
    )
    def test_trace_adds_the_grid_solves(self, tmp_path, solved, command, config, solves):
        # the census solves no scan grid (the counts are eigvalsh matrices;
        # each segment's pencil solve, by eigh or eigvals, comes on top);
        # --trace solves its 256 rows once, where it applies
        args = [command, "--config", str(CONFIGS / config)]
        traced = 0 if (command, config) == ("bifurcate", "periodic_family.json") else 256
        for extra, added in (([], 0), (["--trace", str(tmp_path / "trace.csv")], traced)):
            solved.clear()
            rc, _ = run_to_text(args + extra, tmp_path)
            assert rc == 0
            assert sum(solved) == solves + added

    def test_no_trace_work_without_trace(self, tmp_path, monkeypatch):
        import specflow.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("trace data built without --trace")

        # the trace rows are solved where they are written
        monkeypatch.setattr(cli, "_write_trace", refuse)
        for command, config in (
            ("sf", "path_basic.json"),
            ("bifurcate", "path_basic.json"),
            ("bifurcate", "krasnoselskii_cluster.json"),
            ("sf", "periodic_family.json"),
        ):
            rc, _ = run_to_text([command, "--config", str(CONFIGS / config)], tmp_path)
            assert rc == 0

    def test_verify_command(self, tmp_path):
        rc, text = run_to_text(["verify", "--seed", "7", "--trials", "500"], tmp_path)
        assert rc == 0
        report = json.loads(text)
        assert report["results"]["all_passed"] is True
        assert report["results"]["trials"] == 500

    def test_sweep_command(self, tmp_path):
        import numpy as np

        ss = np.linspace(0.0, 1.0, 5)
        lattice = [[[[2.0 * s - 1.0, 0.0], [0.0, 2.0 * t - 1.0]] for t in ss] for s in ss]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kind": "sweep2d", "lattice": lattice, "base": [0, 0]}))
        rc, text = run_to_text(["sweep", "--config", str(cfg)], tmp_path)
        assert rc == 0
        report = json.loads(text)
        idx = report["results"]["index"]
        assert idx[0][0] == 0 and idx[4][4] == 2
        assert report["results"]["loop_defects"] == []

    def test_grid_override(self, tmp_path):
        rc, text = run_to_text(
            ["sf", "--config", str(CONFIGS / "path_basic.json"), "--grid", "64"], tmp_path
        )
        assert rc == 0
        assert json.loads(text)["results"]["grid_points_used"] == 64

    def test_n0_reaches_sf_and_bifurcate(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**json.loads((CONFIGS / "periodic_family.json").read_text()), "n0": 40}))
        used = []
        for command in ("sf", "bifurcate"):
            rc, text = run_to_text([command, "--config", str(cfg)], tmp_path, f"{command}.json")
            assert rc == 0
            used.append(json.loads(text)["results"]["n_used"])
        assert used == [80, 80]

    def test_periodic_family_report(self, tmp_path):
        rc, text = run_to_text(["bifurcate", "--config", str(CONFIGS / "periodic_family.json")], tmp_path)
        assert rc == 0
        res = json.loads(text)["results"]
        assert res["case"] == "increasing" and res["bound"] == 2
        assert res["sf"] == 4 and res["sandwich_holds"]


def identity_lattice():
    return [[np.eye(2).tolist() for _ in range(3)] for _ in range(2)]


class TestSweepLatticeErrors:
    """Each bad lattice exits 2 naming its first bad node in row-major order."""

    @staticmethod
    def run_sweep(tmp_path, capsys, lattice):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kind": "sweep2d", "lattice": lattice, "base": [0, 0]}))
        rc = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize(
        "node, message",
        [
            ([[1.0, 0.0], [0.0]], "lattice[1][1] is not square: row 1 has length 1, expected 2"),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "lattice[1][1] is not square: row 0 has length 3, expected 2"),
            ([[1.0, True], [0.0, 1.0]], "lattice[1][1][0][1] must be a number"),
            ([[1.0, "0.0"], [0.0, 1.0]], "lattice[1][1][0][1] must be a number"),
            ([[1.0, None], [0.0, 1.0]], "lattice[1][1][0][1] must be a number"),
            ([[1.0, 0.0], [float("nan"), 1.0]], "lattice[1][1][1][0] must be finite"),
            ([[1.0, 0.0], [float("inf"), 1.0]], "lattice[1][1][1][0] must be finite"),
            ([[1.0, 1e-6], [0.0, 1.0]], "lattice[1][1] is not symmetric within 1e-9 (max deviation 1.000e-06)"),
            (np.eye(3).tolist(), "all lattice matrices must share one dimension"),
        ],
        ids=["ragged", "non_square", "true", "string", "null", "nan", "infinity", "asymmetric", "mixed_dims"],
    )
    def test_bad_node(self, tmp_path, capsys, node, message):
        lattice = identity_lattice()
        lattice[1][1] = node
        rc, err = self.run_sweep(tmp_path, capsys, lattice)
        assert rc == 2
        assert err == f"specflow: config error: {message}\n"

    def test_first_bad_node_in_row_major_order(self, tmp_path, capsys):
        lattice = identity_lattice()
        lattice[1][0] = [[1.0, True], [0.0, 1.0]]
        lattice[0][2] = [[1.0, 0.0], [0.0, float("nan")]]
        rc, err = self.run_sweep(tmp_path, capsys, lattice)
        assert rc == 2
        assert err == "specflow: config error: lattice[0][2][1][1] must be finite\n"


def random_lattice(rng, mix_ints):
    """A lattice of symmetric nodes as parsed JSON, with ints among the floats
    if ``mix_ints``, each node off symmetry by up to 0.5e-9 of its scale,
    some nodes singular."""
    ns, nt = (int(x) for x in rng.integers(2, 7, size=2))
    d = int(rng.integers(1, 5))
    lattice = []
    for _ in range(ns):
        row = []
        for _ in range(nt):
            if rng.random() < 0.5:
                m = rng.integers(-3, 4, size=(d, d)).astype(float)
                m = np.triu(m) + np.triu(m, 1).T
            else:
                m = rng.normal(size=(d, d)) * 10.0 ** rng.integers(-2, 3)
                m = (m + m.T) / 2.0
            if d > 1 and rng.random() < 0.7:
                scale = max(1.0, float(np.max(np.abs(m))))
                i, j = rng.choice(d, size=2, replace=False)
                m[i, j] += rng.uniform(-0.5e-9, 0.5e-9) * scale
            node = m.tolist()
            for r in node:
                for k, x in enumerate(r):
                    if mix_ints and x.is_integer() and rng.random() < 0.5:
                        r[k] = int(x)
            row.append(node)
        lattice.append(row)
    return lattice


def test_lattice_parse_and_sweep_match_per_node_route(monkeypatch):
    solve = np.linalg.eigvalsh
    seen = []

    def recording(a):
        seen.append(np.array(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rng = np.random.default_rng(2024)
    for trial in range(60):
        lattice = random_lattice(rng, mix_ints=trial % 4 > 0)
        ns, nt = len(lattice), len(lattice[0])
        # the route of one SymMatrix per node
        stack = np.stack([SymMatrix(np.array(m, dtype=float)).entries for row in lattice for m in row])
        w = solve(stack)
        zero_tol = None if trial % 3 else float(rng.uniform(0.0, 1e-3))
        tol = _family_tol(w, zero_tol)
        neg = np.sum(w < -tol, axis=1).reshape(ns, nt)
        singular = np.any(np.abs(w) <= tol, axis=1).reshape(ns, nt)
        if singular.all():
            continue
        bi, bj = (int(x) for x in np.argwhere(~singular)[rng.integers(0, int(np.sum(~singular)))])
        text = json.dumps({"kind": "sweep2d", "lattice": lattice, "base": [bi, bj], "zero_tol": zero_tol})
        payload = parse_config(text).payload
        assert {type(x) for row in payload["lattice"] for m in row for r in m for x in r} == {float}
        seen.clear()
        cmap = sweep2d(payload["lattice"], base=tuple(payload["base"]), zero_tol=payload["zero_tol"])
        assert len(seen) == 1
        assert seen[0].dtype == stack.dtype and seen[0].shape == stack.shape
        assert seen[0].tobytes() == stack.tobytes()
        np.testing.assert_array_equal(cmap.singular_mask, singular)
        want = [[None if singular[i, j] else int(neg[bi, bj] - neg[i, j]) for j in range(nt)] for i in range(ns)]
        assert cmap.index.tolist() == want


class TestParserReuse:
    def test_grid_override_does_not_stick(self, tmp_path):
        config = str(CONFIGS / "path_basic.json")
        rc, text = run_to_text(["sf", "--config", config, "--grid", "64"], tmp_path, "a.json")
        assert rc == 0 and json.loads(text)["results"]["grid_points_used"] == 64
        rc, text = run_to_text(["sf", "--config", config], tmp_path, "b.json")
        assert rc == 0
        assert normalize(text) == normalize((GOLDEN / "sf_path_basic.json").read_text())

    def test_verify_seed_does_not_stick(self, tmp_path):
        rc, text = run_to_text(["verify", "--seed", "3", "--trials", "2"], tmp_path, "a.json")
        assert rc == 0 and json.loads(text)["results"]["seed"] == 3
        rc, text = run_to_text(["verify", "--trials", "2"], tmp_path, "b.json")
        assert rc == 0 and json.loads(text)["results"]["seed"] == 0

    def test_usage_exits(self, capsys):
        for argv, code in ((["bogus"], 2), (["--help"], 0), (["sf", "--help"], 0), (["bogus"], 2)):
            with pytest.raises(SystemExit) as stop:
                run(argv)
            assert stop.value.code == code
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import specflow.cli\n"
            "assert not built, built\n"
            "specflow.cli.run(['verify', '--trials', '1', '--out', __import__('os').devnull])\n"
            "assert built, 'the probe saw no parser built'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
