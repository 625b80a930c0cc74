"""Command-line interface: config handling, outputs, exit codes, reproducibility."""

import hashlib
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from polylap import blocks, cli
from polylap import experiments as xp
from polylap.blocks import BLOCK
from polylap.experiments import NoiseSpec, derive_seed, gen_labels, make_operator
from polylap.geometry import INDICATOR, UNIFORM, sample_cloud
from polylap.graph import build_graph
from polylap.solver import solve_resolvent


def run_cli(*argv):
    return cli.main(list(argv))


class TestParsing:
    def test_parse_modes(self):
        f = cli.parse_modes("1:1.0:0.0;2:0.0:0.5", 1)
        assert f.modes == {(1,): (1.0, 0.0), (2,): (0.0, 0.5)}

    def test_parse_modes_vector(self):
        f = cli.parse_modes("1,2:0.5:0.0", 2)
        assert f.modes == {(1, 2): (0.5, 0.0)}

    def test_parse_modes_errors(self):
        with pytest.raises(cli.ValidationError):
            cli.parse_modes("1:1.0", 1)
        with pytest.raises(cli.ValidationError):
            cli.parse_modes("", 1)


class TestDryRun:
    def test_prints_resolved_parameters(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "denoise", "--dry-run", "--out", str(out), "--eps=0.2", "--n=50",
            "--modes=1:1.0:0.0",
        )
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["eps"] == 0.2
        assert not out.exists()  # no computation, no output files

    def test_sweep_dry_run_echoes_schedule(self, capsys):
        code = run_cli("sweep", "--dry-run", "--n-grid=1024,2048")
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n_grid"] == [1024, 2048]
        assert len(resolved["eps"]) == 2

    def test_spectrum_dry_run_samples_no_cloud(self, refuse, capsys):
        refuse("sample_cloud")
        assert run_cli("spectrum", "--dry-run", "--eps=0.2", "--n=50") == 0
        assert json.loads(capsys.readouterr().out)["n"] == 50

    @pytest.mark.parametrize("argv, key", [
        (["denoise", "--n=abc", "--modes=garbage", "--noise=bogus"], "n"),
        (["spectrum", "--density=cosine_bump"], "density"),
    ], ids=["denoise", "spectrum"])
    def test_input_csv_rejects_cloud_keys(self, tmp_path, capsys, argv, key):
        # with input_csv the run reads no n, modes, noise or density: a cloud
        # key there is as much a mistake as a typo, and this exited 0
        argv = [*argv, "--eps=0.2", f"--input-csv={tmp_path / 'absent.csv'}", "--dry-run"]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == (
            f"validation error: {argv[0]} does not read parameter {key!r} with input_csv\n"
        )


D1_DENOISE = ["denoise", "--d=1", "--s=1", "--eps=0.001", "--tau=1e-6", "--modes=1:1.0:0.0"]


class TestDenoise:
    def test_blocked_records_match_one_pass(self, tmp_path, monkeypatch):
        # a row on each side of every block boundary: records.csv holds the
        # bytes of one unblocked pass over the columns the run wrote
        n, seen = 2 * BLOCK + 7, []
        write_csv = xp.write_csv
        monkeypatch.setattr(xp, "write_csv", lambda *a: (seen.append(a), write_csv(*a)))
        assert run_cli(*D1_DENOISE, f"--n={n}", "--out", str(tmp_path)) == 0
        [(_, header, columns)] = seen
        assert header == ["x1", "y", "u"] and [len(c) for c in columns] == [n] * 3
        rows = zip(*(c.tolist() for c in columns))
        want = "x1,y,u\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
        assert (tmp_path / "records.csv").read_bytes() == want.encode()

    def test_d1_memory_budget(self, tmp_path, traced_peak):
        # the run peaks in the solve at about 110 B/pt: the cloud, the labels
        # in input and operator order and the order (32), the operator (20),
        # CG's buffers (48) and an apply's prefix sums (8).  The writer holds
        # one block of rows as Python objects (114 B/pt in all here), never
        # whole columns of them (about 180 B/pt)
        n = 4 * BLOCK
        code, peak = traced_peak(run_cli, *D1_DENOISE, f"--n={n}", "--out", str(tmp_path))
        assert code == 0
        assert peak <= 126 * n, f"{peak / n:.2f} B/pt"

    def test_tau_zero_returns_labels(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "denoise", "--out", str(out), "--seed", "3", "--eps=0.2", "--tau=0.0",
            "--n=40", "--modes=1:1.0:0.0",
        )
        assert code == 0
        rows = np.loadtxt(out / "records.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1], rows[:, 2])  # u == y
        assert (out / "summary.json").exists()
        assert (out / "config.echo").exists()

    def test_constant_labels_fixed_point(self, tmp_path):
        csv = tmp_path / "input.csv"
        pts = sample_cloud(UNIFORM, 30, 1, 5)[:, 0]
        csv.write_text("x1,y\n" + "".join(f"{float(p)!r},2.5\n" for p in pts))
        out = tmp_path / "out"
        code = run_cli(
            "denoise", "--out", str(out), "--eps=0.2", "--tau=0.5",
            f"--input-csv={csv}",
        )
        assert code == 0
        rows = np.loadtxt(out / "records.csv", delimiter=",", skiprows=1)
        assert np.allclose(rows[:, 2], 2.5, atol=1e-8)

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x1,y\n0.1,1.0\n0.2,oops\n")
        code = run_cli("denoise", "--eps=0.2", f"--input-csv={csv}")
        assert code == 1
        assert ":3:" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        csv = tmp_path / "in.csv"
        csv.write_text("x1,y\n0.1,1.0\n\n0.2,0.5\n0.4,0.0\n\n")
        out = tmp_path / "out"
        assert run_cli("denoise", "--eps=0.2", f"--input-csv={csv}", "--out", str(out)) == 0
        assert len((out / "records.csv").read_text().splitlines()) == 4
        csv.write_text("x1,y\n0.1,1.0\n\n0.2,oops\n")
        assert run_cli("denoise", "--eps=0.2", f"--input-csv={csv}") == 1
        assert ":4:" in capsys.readouterr().err  # the file's line, blank ones counted

    def test_eps_validation(self, capsys):
        assert run_cli("denoise", "--eps=0.7", "--n=10", "--modes=1:1.0:0.0") == 1

    def test_pipeline_matches_library(self, tmp_path):
        # the CLI path (generated cloud -> labels -> solve) reproduces the
        # library's make_operator composition byte-for-byte through the CSV,
        # and the explicit graph up to rounding
        out = tmp_path / "out"
        seed, n, d, eps, tau, s = 9, 60, 1, 0.2, 0.05, 1
        code = run_cli(
            "denoise", "--out", str(out), "--seed", str(seed), f"--eps={eps}",
            f"--tau={tau}", f"--s={s}", f"--n={n}", "--modes=1:1.0:0.0;2:0.0:0.5",
            "--noise=gaussian", "--noise-scale=0.1",
        )
        assert code == 0
        rows = np.loadtxt(out / "records.csv", delimiter=",", skiprows=1)

        g = cli.parse_modes("1:1.0:0.0;2:0.0:0.5", d)
        cloud = sample_cloud(UNIFORM, n, d, seed)
        y = gen_labels(g, cloud, NoiseSpec("gaussian", 0.1), derive_seed(seed, 1))
        op, _, order = make_operator(cloud, eps, INDICATOR, want_order=True)
        u = np.empty(n)
        u[order] = solve_resolvent(op, y[order], tau, s).solution
        assert np.array_equal(rows[:, 0], cloud[:, 0])
        assert np.array_equal(rows[:, 1], y)
        assert np.array_equal(rows[:, 2], u)

        graph = build_graph(cloud, eps)
        u_explicit = solve_resolvent(graph, y, tau, s).solution
        assert rows[:, 2] == pytest.approx(u_explicit, rel=1e-9)

    def test_d1_indicator_builds_no_explicit_graph(self, tmp_path, refuse):
        refuse("build_graph")
        code = run_cli(
            "denoise", "--out", str(tmp_path / "out"), "--d=1", "--eps=0.05",
            "--n=2000", "--modes=1:1.0:0.0",
        )
        assert code == 0

    def test_input_points_wrap_into_unit_torus(self, tmp_path):
        # -1e-18 % 1.0 rounds to 1.0; the point must land on 0.0 instead
        outs = []
        for x in ("-1e-18", "0.0"):
            csv = tmp_path / f"in{len(outs)}.csv"
            csv.write_text(f"x1,x2,y\n{x},0.5,1.0\n0.95,0.5,0.0\n0.3,0.3,2.0\n")
            out = tmp_path / f"out{len(outs)}"
            code = run_cli(
                "denoise", "--out", str(out), "--d=2", "--eps=0.2", "--tau=0.1",
                f"--input-csv={csv}",
            )
            assert code == 0
            outs.append((out / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("row", ["0.1,nan", "0.1,inf", "nan,1.0", "inf,1.0"])
    def test_non_finite_input_is_validation_error(self, tmp_path, capsys, row):
        csv = tmp_path / "in.csv"
        csv.write_text(f"x1,y\n0.2,1.0\n{row}\n0.4,0.0\n")
        code = run_cli("denoise", "--out", str(tmp_path / "o"), "--eps=0.2",
                       f"--input-csv={csv}")
        assert code == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("arg", ["--tau=nan", "--tau=inf", "--tol=nan", "--tol=inf"])
    def test_non_finite_tau_or_tol_is_validation_error(self, tmp_path, capsys, arg):
        code = run_cli("denoise", "--out", str(tmp_path), "--eps=0.2", "--n=40",
                       "--modes=1:1.0:0.0", arg)
        assert code == 1
        err = capsys.readouterr().err
        assert "validation error" in err and "finite" in err


class TestInputCsv:
    """The input_csv path of denoise and spectrum: a header line, then one
    row of d coordinates and a label per point."""

    @pytest.fixture
    def csv_400(self, tmp_path):
        # 400 unsorted d=1 points, the first at -1e-17 (x % 1.0 rounds it to 1.0)
        rng = np.random.default_rng(7)
        x = rng.random(400)
        x[0] = -1e-17
        y = np.sin(2.0 * np.pi * x) + 0.1 * rng.standard_normal(400)
        path = tmp_path / "in.csv"
        rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
        path.write_text("x1,y\n" + rows)
        return path, x, y

    def test_denoise_keeps_row_order(self, tmp_path, csv_400):
        path, x, y = csv_400
        out = tmp_path / "out"
        assert run_cli("denoise", "--eps=0.05", "--tau=0.01", f"--input-csv={path}",
                       "--out", str(out)) == 0
        rows = [line.split(",") for line in (out / "records.csv").read_text().splitlines()]
        assert rows[0] == ["x1", "y", "u"]
        assert [float(r[0]) for r in rows[2:]] == x[1:].tolist()
        assert [float(r[1]) for r in rows[1:]] == y.tolist()
        assert json.loads((out / "summary.json").read_text())["solver_iterations"] > 0

    def test_tiny_negative_point_wraps_to_zero(self, tmp_path, csv_400):
        path, _, _ = csv_400
        out = tmp_path / "out"
        assert run_cli("denoise", "--eps=0.05", f"--input-csv={path}", "--out", str(out)) == 0
        assert (out / "records.csv").read_text().splitlines()[1].split(",")[0] == "0.0"

    def test_spectrum(self, tmp_path, csv_400):
        path, _, _ = csv_400
        out = tmp_path / "out"
        assert run_cli("spectrum", "--eps=0.05", f"--input-csv={path}", "--out", str(out)) == 0
        vals = json.loads((out / "summary.json").read_text())["eigenvalues"]
        assert len(vals) == 400
        assert abs(vals[0]) < 1e-8 and all(v > -1e-8 for v in vals)

    def test_nan_label(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("x1,y\n0.1,1.0\n0.2,nan\n0.4,0.0\n")
        assert run_cli("denoise", "--eps=0.2", f"--input-csv={path}",
                       "--out", str(tmp_path / "out")) == 1
        # named like every other CSV error: by file and line
        assert capsys.readouterr().err == f"validation error: {path}:3: non-finite label\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_spectrum_stops_reading_past_threshold(self, tmp_path, capsys, dry_run):
        # the whole file was read before its row count met the threshold,
        # so the malformed last row was named instead
        path = tmp_path / "big.csv"
        rows = "".join(f"{k / 1000!r},0.0\n" for k in range(cli.DENSE_THRESHOLD + 1))
        path.write_text("x1,y\n" + rows + "abc,0.0\n")
        argv = ["spectrum", *dry_run, "--eps=0.2", f"--input-csv={path}"]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (
            f"validation error: {str(path)!r} has more data rows than the dense spectrum"
            f" threshold {cli.DENSE_THRESHOLD}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_denoise_dry_run_lists_row_count(self, capsys, csv_400):
        path, _, _ = csv_400
        assert run_cli("denoise", "--dry-run", "--eps=0.05", f"--input-csv={path}") == 0
        assert json.loads(capsys.readouterr().out)["n"] == 400

    @pytest.mark.parametrize("body, code", [(None, 3), ("x1,y\n0.1,1.0\n0.2,0.5,9\n", 1)],
                             ids=["missing", "ragged"])
    @pytest.mark.parametrize("command", ["denoise", "spectrum"])
    def test_dry_run_reads_the_file(self, tmp_path, capsys, command, body, code):
        # the denoise dry run exited 0 on either file without reading it
        path = tmp_path / "in.csv"
        if body is not None:
            path.write_text(body)
        argv = [command, "--eps=0.2", f"--input-csv={path}", "--out", str(tmp_path / "out")]
        errors = []
        for dry_run in ([], ["--dry-run"]):
            assert run_cli(*argv, *dry_run) == code
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and str(path) in errors[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, where", [
        ("x1,y\n0.1,1.0\n0.2,0.5,9\n", ":3: expected 2 fields"),
        ("x1,y\n0.1,1.0\n0.2,0.5\nabc,0.1\n", ":4: non-numeric field"),
        ("x1,y\n", " contains no data rows"),
    ], ids=["ragged", "non-numeric", "header-only"])
    @pytest.mark.parametrize("command", ["denoise", "spectrum"])
    def test_malformed_file_named(self, tmp_path, capsys, body, where, command):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        assert run_cli(command, "--eps=0.2", f"--input-csv={path}",
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and str(path) in err and where in err


class TestSweepCommand:
    CONFIG = """
[sweep]
n_grid = 256,512,1024
trials = 2
seed = 0
modes = 1:1.0:0.0;2:0.0:0.5
"""

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "out"
        code = run_cli("sweep", "--config", str(cfg), "--out", str(out), "--trials=1")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["predicted"] == pytest.approx(0.2)
        assert summary["failures"] == 0
        echo = (out / "config.echo").read_text()
        assert "trials=1" in echo  # flag override wins over the config file

    def test_reproducible_records(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(self.CONFIG)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
            outs.append((out / "records.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_empty_n_grid_validation(self, tmp_path):
        assert run_cli("sweep", "--n-grid=") == 1


class TestOtherCommands:
    def test_spectrum_two_point_oracle(self, tmp_path):
        csv = tmp_path / "pts.csv"
        csv.write_text("x1,y\n0.0,0.0\n0.1,0.0\n")
        out = tmp_path / "out"
        code = run_cli("spectrum", "--out", str(out), "--eps=0.2", f"--input-csv={csv}")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["eigenvalues"][0] == pytest.approx(0.0, abs=1e-9)
        assert summary["eigenvalues"][1] == pytest.approx(250.0, rel=1e-9)

    def test_spectrum_threshold_error(self):
        assert run_cli("spectrum", "--eps=0.2", "--n=600") == 1

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
    def test_spectrum_size_checked_before_any_build(self, refuse, dry_run):
        refuse("sample_cloud", "make_operator", "build_graph")
        assert run_cli("spectrum", *dry_run, "--d=2", "--eps=0.2", "--n=600") == 1

    def test_degrees(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "degrees", "--out", str(out), "--n=2000", "--eps=0.05", "--trials=2"
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["within_cap"] is True

    def test_degrees_d1_indicator_builds_no_explicit_graph(self, tmp_path, refuse):
        refuse("build_graph")
        code = run_cli(
            "degrees", "--out", str(tmp_path / "out"), "--d=1", "--n=10000", "--eps=0.05",
            "--trials=1",
        )
        assert code == 0

    def test_degrees_explicit_size_guard(self, refuse):
        refuse("build_graph")
        assert run_cli("degrees", "--kernel=plateau", "--n=100000", "--eps=0.05") == 1

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["consistency", "--trials=0", "--eps_grid=0.3,0.2", "--k_mult=0.5"], "trials"),
            (["degrees", "--trials=0"], "trials"),
            (["consistency", "--eps_grid=0.3,0"], "eps=0.0"),
            (["consistency", "--eps_grid=-0.1"], "eps=-0.1"),
            (["consistency", "--eps_grid=0.6"], "eps=0.6"),
            (["consistency", "--dry-run", "--eps_grid=0"], "eps=0.0"),
        ],
    )
    def test_bad_trials_or_eps(self, tmp_path, capsys, argv, named):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, slopes",
        [
            (["sweep", "--n_grid=64", "--trials=1", "--threads=1"],
             ["slope", "stderr", "slope_vs_n", "slope_vs_n_stderr"]),
            (["consistency", "--eps_grid=0.3", "--trials=1", "--k_mult=0.5"],
             ["slope", "stderr", "stochastic_slope", "stochastic_stderr"]),
        ],
    )
    def test_undefined_slopes_are_strict_json_null(self, tmp_path, capsys, argv, slopes):
        def reject(name):
            raise AssertionError(f"non-JSON constant {name}")

        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        for text in ((tmp_path / "summary.json").read_text(), capsys.readouterr().out):
            summary = json.loads(text, parse_constant=reject)
            assert all(summary[key] is None for key in slopes)

    def test_consistency_summary_splits_the_total(self, tmp_path):
        # the total's slope sits near 2; the O(eps) part and the nonlocal
        # bias per eps are reported beside it, as the library computes them
        argv = ["consistency", "--eps_grid=0.3,0.2", "--trials=2", "--k_mult=0.5"]
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        res = xp.consistency_sweep(
            cli.parse_modes("1:0.0:1.0", 1), 1, [0.3, 0.2], xp.default_n_rule(0.5, 1, 1), 2, 0
        )
        assert summary["config"]["eps_grid"] == [0.3, 0.2]
        assert summary["nonlocal_bias"] == [res.nonlocal_bias[0.3], res.nonlocal_bias[0.2]]
        assert summary["stochastic_slope"] == res.stochastic_slope
        assert summary["stochastic_stderr"] == res.stochastic_slope_stderr
        assert summary["slope"] == res.slope

    def test_consistency_constant_modes(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "consistency", "--out", str(out), "--modes=0:1.0:0.0",
            "--eps-grid=0.2,0.1", "--k-mult=1", "--trials=1",
        )
        assert code == 0
        text = (out / "records.csv").read_text()
        errs = [float(line.split(",")[11]) for line in text.splitlines()[1:]]
        assert all(e < 1e-10 for e in errs)


class TestRecordsBytes:
    """records.csv of small sweep, consistency and denoise runs, pinned by sha256.

    Criterion 8 compares two runs of one build; these hashes pin the bytes
    themselves, so a change that moves the arithmetic of a trial (the label
    and reference evaluation, the operator order, the interval apply, CG,
    the CSV writer) fails here.  They assume the cos/sin of this NumPy build, as
    perfbench/golden.json does.
    """

    CASES = {
        "sweep_d1_s1": (
            ["sweep", "--d=1", "--s=1", "--n_grid=256,512,1024", "--trials=2", "--threads=1"],
            "5946e5e0a9191f9e46ccebe2c786e9486849b1810b5acb4833bd0d8b8514597d",
        ),
        "sweep_d1_s2_modes": (
            ["sweep", "--d=1", "--s=2", "--n_grid=300,600", "--trials=2", "--threads=1",
             "--modes=0:0.5:0.0;1:1.0:-0.3;3:0.0:0.25", "--seed=4"],
            "2e2b5dab55824e030816fcee5333096f05a24a5093b2dacf624f29bfe3d1609e",
        ),
        "sweep_d2": (
            ["sweep", "--d=2", "--s=1", "--n_grid=200,400", "--trials=1", "--threads=1",
             "--modes=1,0:1.0:0.0;0,2:0.0:0.5"],
            "132e8343913442b3bcf433ede3dd0e26fab3a2933d1617888f5cf52fc6adeac9",
        ),
        "consistency_d1_s1": (
            ["consistency", "--eps_grid=0.3,0.2", "--trials=2", "--k_mult=0.5"],
            "f846f0f68141a5cc1be38c404b96787191243d252e694b6062b824d55f8fe219",
        ),
        "consistency_d1_s2_modes": (
            ["consistency", "--eps_grid=0.4,0.3", "--trials=1", "--k_mult=0.5", "--s=2",
             "--modes=0:0.5:0.0;1:1.0:-0.3;2:0.0:0.25", "--seed=3"],
            "03cecc165990be418e407678d82c5d408b68d8a64aa6c55cfad56a708bc7846e",
        ),
        # n = 91753 at eps = 0.3: in-place applies over more than one block
        "consistency_d1_s2_blocks": (
            ["consistency", "--eps_grid=0.35,0.3", "--trials=1", "--k_mult=1.5", "--s=2",
             "--modes=0:0.5:0.0;1:1.0:-0.3;2:0.0:0.25", "--seed=5"],
            "eef6f5b52b78e03eca01ac4d0318b8262f0a6c0f3c5fac3c45fec89dc31a3511",
        ),
        # the explicit-graph path, where the references are evaluated at the cloud
        "consistency_d2": (
            ["consistency", "--d=2", "--eps_grid=0.3,0.25", "--trials=2", "--k_mult=0.3",
             "--modes=0,0:0.5:0.0;1,0:1.0:-0.3;0,2:0.0:0.5", "--seed=2"],
            "85d3d0387d4dad780d520caa4a0b6e289e313b38dd600fa430a0560335806406",
        ),
        "denoise_d1": (
            ["denoise", "--d=1", "--n=500", "--eps=0.05", "--tau=0.01",
             "--modes=1:1.0:0.0;3:0.0:0.4", "--seed=2"],
            "466d9e005b825cb7718b062c2dc8608741d216e54368b788a5004f8a1cc8980b",
        ),
        "denoise_d2": (
            ["denoise", "--d=2", "--n=400", "--eps=0.15", "--tau=0.01",
             "--modes=1,0:1.0:0.0;0,2:0.0:0.5", "--seed=1"],
            "40e03215507bfe9ef9f038fde2e6e19d76f56cf1a0307f683cb926cc49ef16b6",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sha256(self, tmp_path, case):
        argv, digest = self.CASES[case]
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert hashlib.sha256((tmp_path / "records.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_sha256_any_worker_count(self, tmp_path, monkeypatch, workers):
        # the block loops split the references' spans among the workers
        monkeypatch.setattr(blocks, "WORKERS", workers)
        self.test_sha256(tmp_path, "consistency_d1_s2_blocks")


# one small run of each command
EVERY_COMMAND = [
    ["sweep", "--n_grid=64,128", "--trials=1"],
    ["denoise", "--eps=0.2", "--n=50", "--modes=1:1:0"],
    ["consistency", "--eps_grid=0.3,0.2", "--k_mult=0.5", "--trials=1"],
    ["degrees", "--n=200", "--eps=0.2", "--trials=1"],
    ["spectrum", "--eps=0.2", "--n=50"],
]


class TestExitCodes:
    def test_missing_required_key(self, capsys):
        assert run_cli("denoise") == 1  # no eps anywhere
        assert "missing parameter 'eps'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["denoise", "--eps=0.2"], "missing parameter 'n'"),
        (["denoise", "--eps=0.2", "--n=50"], "missing parameter 'modes'"),
        (["spectrum", "--n=50"], "missing parameter 'eps'"),
        # a given key is converted before a missing one is named
        (["denoise", "--n=abc"], "parameter 'n' must be an integer, got 'abc'"),
    ], ids=["denoise-n", "denoise-modes", "spectrum-eps", "converted-first"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_missing_key_named(self, tmp_path, capsys, argv, message, dry_run):
        argv = [*argv, "--out", str(tmp_path / "out")]
        assert run_cli(*argv, *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_key_error_in_a_command_propagates(self, tmp_path, monkeypatch):
        # a bug inside a command is no missing parameter: this printed
        # "validation error: missing parameter 'internal_table'" and exited 1
        def fail(*args, **kwargs):
            raise KeyError("internal_table")

        monkeypatch.setattr(xp, "consistency_sweep", fail)
        with pytest.raises(KeyError, match="internal_table"):
            run_cli("consistency", "--eps_grid=0.3", "--k_mult=0.5", "--trials=1",
                    "--out", str(tmp_path))

    def test_bad_override_format(self):
        assert run_cli("denoise", "--eps", "0.2", "oops") == 1

    def test_missing_config_file(self):
        assert run_cli("sweep", "--config", "/nonexistent.ini") == 1

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--trials=abc"], "parameter 'trials' must be an integer, got 'abc'"),
        (["denoise", "--n=1.5", "--eps=0.2", "--modes=1:1:0"],
         "parameter 'n' must be an integer, got '1.5'"),
        (["denoise", "--eps=abc"], "parameter 'eps' must be a number, got 'abc'"),
        (["consistency", "--eps_grid=0.2,x"], "parameter 'eps_grid' must be a number, got 'x'"),
        (["denoise", "--n=40", "--eps=0.2", "--modes=1:one:0"],
         "parameter 'modes' must be a number, got 'one'"),
        (["sweep", "--seed", "x", "--dry-run"], "parameter 'seed' must be an integer, got 'x'"),
        (["sweep", "--threads=2.5", "--dry-run"],
         "parameter 'threads' must be an integer, got '2.5'"),
    ], ids=["trials", "n", "eps", "eps-grid", "modes", "seed-flag", "threads-flag"])
    def test_non_numeric_value_named(self, tmp_path, capsys, argv, message):
        assert run_cli(*argv, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_negative_seed_named(self, tmp_path, capsys, argv, from_config, dry_run):
        # the dry run exited 0 and the run exited 1 with "expected
        # non-negative integer", which named no key
        out = tmp_path / "out"
        argv = [*argv, "--out", str(out), *(["--dry-run"] if dry_run else [])]
        if from_config:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[{argv[0]}]\nseed = -1\n")
            argv += ["--config", str(ini)]
        else:
            argv.append("--seed=-1")
        assert run_cli(*argv) == 1
        message = "parameter 'seed' must be >= 0, got '-1'"
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize("d", ["0", "-1"])
    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_nonpositive_d_named(self, tmp_path, capsys, argv, d, from_config, dry_run):
        # d = 0 failed in factorial() or on the mode vector length, and
        # d = -1 on the column count of an input_csv, naming no key
        out = tmp_path / "out"
        argv = [*argv, "--out", str(out), *(["--dry-run"] if dry_run else [])]
        if from_config:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[{argv[0]}]\nd = {d}\n")
            argv += ["--config", str(ini)]
        else:
            argv.append(f"--d={d}")
        assert run_cli(*argv) == 1
        message = f"parameter 'd' must be >= 1, got '{d}'"
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()

    def test_non_numeric_config_key_named(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[sweep]\nthreads = two\n")
        assert run_cli(*SMALL_SWEEP, "--config", str(config), "--out", str(tmp_path)) == 1
        assert "parameter 'threads' must be an integer, got 'two'" in capsys.readouterr().err

    def test_memory_cap_maps_to_validation(self):
        # n(0.05) = 383453732 is above CONSISTENCY_N_CAP
        assert run_cli("consistency", "--eps-grid=0.05", "--k-mult=40", "--trials=1") == 1

    @pytest.mark.parametrize("argv, key", [
        (["denoise", "--eps=0.2", "--n=50", "--modes=1:1:0", "--tua=5"], "tua"),
        (["sweep", "--n_grid=64,128", "--trails=1"], "trails"),
        (["consistency", "--eps_grid=0.3,0.2", "--k-mul=0.5"], "k_mul"),
        (["degrees", "--n=200", "--esp=0.2"], "esp"),
        (["spectrum", "--eps=0.2", "--n=50", "--kernal=plateau"], "kernal"),
        (["degrees", "--cap_mult=5"], "cap_mult"),
        (["denoise", "--eps=0.2", "--n=50", "--modes=1:1:0", "--threads=2"], "threads"),
        (["denoise", "--eps=0.2", "--n=50", "--modes=1:1:0", "--threads", "2"], "threads"),
        (["consistency", "--n_cap=200000000"], "n_cap"),
    ], ids=["denoise", "sweep", "consistency", "degrees", "spectrum", "degrees-cap-mult",
            "denoise-threads", "denoise-threads-flag", "consistency-n-cap"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_unread_key_named(self, tmp_path, capsys, argv, key, dry_run):
        # each of these exited 0 with the key unread
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out), *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == (
            f"validation error: {argv[0]} does not read parameter {key!r}\n"
        )
        assert not out.exists()

    def test_unread_config_key_named(self, tmp_path, capsys):
        # a section is checked against its own command only
        config = tmp_path / "run.ini"
        config.write_text("[denoise]\neps = 0.2\n[sweep]\nn_grid = 64,128\ntrails = 1\n")
        assert run_cli("sweep", "--config", str(config), "--dry-run") == 1
        assert capsys.readouterr().err == (
            "validation error: sweep does not read parameter 'trails'\n"
        )
        config.write_text("[denoise]\neps = 0.2\n[sweep]\nn_grid = 64,128\ntrials = 1\n")
        assert run_cli("sweep", "--config", str(config), "--dry-run") == 0

    @pytest.mark.parametrize("argv, key", [
        (["degrees", "--density_amplitude=0.9"], "density_amplitude"),
        (["degrees", "--density=uniform", "--density_mode=2"], "density_mode"),
        (["denoise", "--eps=0.2", "--n=50", "--modes=1:1:0", "--density_mode=2"],
         "density_mode"),
        (["spectrum", "--eps=0.2", "--n=50", "--density_amplitude=0.3"], "density_amplitude"),
    ], ids=["degrees", "degrees-uniform", "denoise", "spectrum"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_bump_keys_need_cosine_bump(self, tmp_path, capsys, argv, key, dry_run):
        # the uniform density reads neither key: these exited 0 and echoed it
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out), *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == (
            f"validation error: {argv[0]} does not read parameter {key!r}"
            " unless density=cosine_bump\n"
        )
        assert not out.exists()

    def test_bump_keys_in_config(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[degrees]\nn = 200\neps = 0.2\ndensity_amplitude = 0.9\n")
        assert run_cli("degrees", "--config", str(config), "--dry-run") == 1
        assert capsys.readouterr().err == (
            "validation error: degrees does not read parameter 'density_amplitude'"
            " unless density=cosine_bump\n"
        )
        # the bump reads both keys, given or not; the uniform density lists neither
        assert run_cli("degrees", "--config", str(config), "--density=cosine_bump",
                       "--dry-run") == 0
        resolved = json.loads(capsys.readouterr().out)
        assert (resolved["density_amplitude"], resolved["density_mode"]) == (0.9, [1])
        config.write_text("[degrees]\nn = 200\neps = 0.2\n")
        assert run_cli("degrees", "--config", str(config), "--dry-run") == 0
        assert not {"density_amplitude", "density_mode"} & set(json.loads(capsys.readouterr().out))

    def test_solver_failure(self, tmp_path):
        # an unreachable tolerance exhausts the iteration cap
        code = run_cli(
            "denoise", "--out", str(tmp_path / "o"), "--eps=0.1", "--tau=50.0",
            "--n=30", "--modes=1:1.0:0.0", "--tol=1e-300",
        )
        assert code == 2

    def test_true_residual_above_tol(self, tmp_path, capsys):
        # CG converges on its recurrence, but the recomputed true residual of
        # this stiff s = 2 solve (tau / eps^4 = 2e6, N(1, 1) labels) is above tol
        code = run_cli(
            "denoise", "--out", str(tmp_path / "o"), "--d=2", "--n=400", "--eps=0.1",
            "--s=2", "--tau=200", "--modes=0,0:1.0:0.0", "--noise_scale=1.0",
        )
        assert code == 2
        assert "true residual" in capsys.readouterr().err

    def test_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run_cli(
            "denoise", "--out", str(blocker / "sub"), "--eps=0.2", "--n=20",
            "--modes=1:1.0:0.0",
        )
        assert code == 3

    def test_benchmark_tracer_installs(self):
        # perfbench/spans.py wraps names bound in the polylap modules; one that
        # goes missing must fail here, not only in the benchmark's smoke run
        root = pathlib.Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
        proc = subprocess.run(
            [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr

    def test_benchmark_tracer_reads_every_layer(self, tmp_path):
        # a call that bypasses a name perfbench/spans.py wraps reads 0 here;
        # no tiny run fails a solve, so solver.failed stays 0
        root = pathlib.Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
        runs = [
            ["denoise", "--d=2", "--n=400", "--eps=0.15", "--s=2", "--tau=0.01",
             "--modes=1,0:1.0:0.0;0,2:0.0:0.5"],
            ["sweep", "--d=1", "--n_grid=256,512", "--trials=2", "--threads=1"],
            ["consistency", "--eps_grid=0.3,0.2", "--trials=2", "--k_mult=0.5"],
        ]
        script = (
            "import json, sys, spans, polylap.cli as cli\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv + ['--out', sys.argv[2]]) == 0, argv\n"
            "print(json.dumps(spans.summary(tracer)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout.splitlines()[-1])
        assert summary.pop("solver.failed") == 0
        assert [name for name, value in summary.items() if not value > 0] == []

    def test_benchmark_tiny_outputs_match_golden(self, tmp_path):
        # every --tiny benchmark op for every pool seed against
        # perfbench/golden.json, as perfbench/run.py gates a full-size op;
        # importing run first pins one BLAS thread, which the bytes need
        root = pathlib.Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
        script = (
            "import json, sys, run, polylap.cli as cli\n"
            "bad = []\n"
            "for workload, sizes in run.WORKLOADS.items():\n"
            "    golden = run.load_golden(workload, 'tiny')\n"
            "    for seed in range(run.SEED_POOL):\n"
            "        argv = sizes['tiny'] + [f'--seed={seed}']\n"
            "        try:\n"
            "            assert cli.main(argv + ['--out', sys.argv[1]]) == 0, 'nonzero exit'\n"
            "            run.check(run.observe(argv, sys.argv[1]), golden[str(seed)])\n"
            "        except (AssertionError, run.GateError) as err:\n"
            "            bad.append(f'{workload} seed {seed}: {err}')\n"
            "print(json.dumps(bad))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_benchmark_command_lines_pass_the_key_check(self, tmp_path):
        # every full and tiny benchmark op as perfbench/run.py calls it; a key
        # the CLI rejects would fail every op of its workload
        root = pathlib.Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
        script = (
            "import json, sys, run, polylap.cli as cli\n"
            "print(json.dumps([f'{workload} {size}'\n"
            "                  for workload, sizes in run.WORKLOADS.items()\n"
            "                  for size, argv in sizes.items()\n"
            "                  if cli.main(argv + ['--seed=0', '--dry-run',\n"
            "                                      '--out', sys.argv[1]]) != 0]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [], proc.stdout

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polylap.cli", "sweep", "--dry-run"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    @staticmethod
    def fresh_interpreter(script, *args):
        """Run script in a fresh interpreter and return, as printed, the
        sorted names of the modules it has loaded that start with scipy."""
        root = pathlib.Path(__file__).resolve().parents[1]
        script += "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        proc = subprocess.run(
            [sys.executable, "-c", script, *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_import_loads_no_scipy(self):
        # scipy.special and scipy.sparse each pull in scipy._lib, and with it
        # numpy.testing and numpy.f2py: about 0.3 s of start-up in all
        assert self.fresh_interpreter("import sys, polylap, polylap.cli\n") == "[]"

    def test_import_leaves_out_scipy_integrate(self):
        # scipy.integrate pulls in scipy.optimize and scipy.sparse.linalg,
        # about 180 modules and 0.2 s of start-up that nothing here needs
        loaded = self.fresh_interpreter("import sys, polylap, polylap.cli\n")
        assert "scipy.integrate" not in loaded and "scipy.optimize" not in loaded, loaded

    def test_import_leaves_out_scipy_spatial(self):
        # the graph build finds pairs on its own cell grid; scipy.spatial,
        # and scipy.linalg through it, cost about 0.13 s and 10 MB of RSS
        loaded = self.fresh_interpreter("import sys, polylap, polylap.cli\n")
        assert "scipy.spatial" not in loaded and "scipy.linalg" not in loaded, loaded

    def test_d1_runs_load_no_scipy(self, tmp_path):
        # only the explicit graph build (d >= 2, or the plateau kernel) needs
        # scipy.sparse; the continuum references need no SciPy at all
        runs = [
            ["sweep", "--d=1", "--n_grid=256,512", "--trials=1"],
            ["consistency", "--eps_grid=0.3,0.2", "--trials=1", "--k_mult=0.5"],
            ["denoise", "--d=1", "--n=300", "--eps=0.1", "--modes=1:1.0:0.0"],
        ]
        script = (
            "import json, sys, polylap.cli as cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv + ['--out', sys.argv[2]]) == 0, argv\n"
        )
        assert self.fresh_interpreter(script, json.dumps(runs), str(tmp_path)) == "[]"

    def test_d2_denoise_in_fresh_interpreter(self, tmp_path):
        # the explicit build imports scipy.sparse itself; in a process that
        # has not loaded it before, the run writes the in-process bytes
        argv = TestRecordsBytes.CASES["denoise_d2"][0]
        script = "import sys, polylap.cli as cli\nassert cli.main(sys.argv[1:]) == 0\n"
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        assert "scipy.sparse" in self.fresh_interpreter(script, *argv, "--out", str(fresh))
        assert run_cli(*argv, "--out", str(here)) == 0
        assert (fresh / "records.csv").read_bytes() == (here / "records.csv").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["sweep", "--dry-run", "--threads"], "argument --threads: expected one argument"),
    ], ids=["command", "flag-value"])
    def test_usage_error_is_validation(self, capsys, argv, message):
        # exit 2 is a solver failure; argparse's own usage exit would collide
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith(f"validation error: {message}")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert "usage: polylap" in capsys.readouterr().out

    @pytest.mark.parametrize("n_grid", ["1", "1,64"])
    def test_n_grid_below_two_named(self, capsys, n_grid):
        # eps(n) divides by log n, which is 0 at n = 1
        assert run_cli("sweep", f"--n_grid={n_grid}", "--dry-run") == 1
        assert capsys.readouterr().err == "validation error: n_grid entries must be >= 2, got 1\n"

    @pytest.mark.parametrize("s", ["0", "-1"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_consistency_power_below_one(self, tmp_path, capsys, s, dry_run):
        # s = 0 compared u with itself (error 0.0), s = -1 with its inverse
        argv = ["consistency", f"--s={s}", "--eps_grid=0.3,0.2", "--trials=1",
                "--k_mult=0.5", "--out", str(tmp_path)]
        assert run_cli(*argv, *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == f"validation error: s must be >= 1, got {s}\n"
        assert not (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n_grid=64,128", "--trials=1"],
        ["denoise", "--n=40", "--eps=0.2", "--modes=1:1:0"],
    ], ids=["sweep", "denoise"])
    @pytest.mark.parametrize("s", ["0", "-1"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_power_below_one(self, tmp_path, capsys, argv, s, dry_run):
        # s = 0 passed the dry run and then failed inside the solver
        argv = [*argv, f"--s={s}", "--out", str(tmp_path)]
        assert run_cli(*argv, *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == f"validation error: s must be >= 1, got {s}\n"
        assert not (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--eps_mult=nan", "--n_grid=64,128"],
         "eps_mult must be finite and > 0, got nan"),
        (["sweep", "--eps_mult=inf", "--n_grid=64,128"],
         "eps_mult must be finite and > 0, got inf"),
        (["sweep", "--tau_mult=inf", "--n_grid=64,128"],
         "tau_mult must be finite and > 0, got inf"),
        (["consistency", "--k_mult=inf"], "k_mult must be finite and > 0, got inf"),
        (["consistency", "--k_mult=inf", "--dry-run"], "k_mult must be finite and > 0, got inf"),
        (["consistency", "--k_mult=0"], "k_mult must be finite and > 0, got 0.0"),
    ], ids=["eps-nan", "eps-inf", "tau-inf", "k-inf", "k-inf-dry-run", "k-zero"])
    def test_bad_multiplier_named(self, tmp_path, capsys, argv, message):
        # these once failed with a message about tau or n, an uncaught
        # OverflowError, or exited 0 with eps capped
        assert run_cli(*argv, "--trials=1", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["denoise", "--n=40", "--modes=1:1:0"],
        ["degrees", "--n=200"],
        ["spectrum", "--n=50"],
    ], ids=["denoise", "degrees", "spectrum"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_nan_eps_named(self, tmp_path, capsys, argv, dry_run):
        # NaN passed every hand-written range check: denoise failed as a
        # solver stagnation, degrees exited 0 and spectrum failed in eigh;
        # the dry runs of degrees and spectrum did not check eps at all
        argv = [*argv, "--eps=nan", "--out", str(tmp_path)]
        assert run_cli(*argv, *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == "validation error: eps=nan must lie in (0, 1/2]\n"


    @pytest.mark.parametrize("argv, message", [
        (["denoise", "--eps=0.2", "--n=abc", "--modes=1:1:0"],
         "parameter 'n' must be an integer, got 'abc'"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=garbage"],
         "bad mode entry 'garbage' (want k:a:b)"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--noise=bogus"],
         "unknown noise kind 'bogus'"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--density=bogus"],
         "unknown density 'bogus'"),
        (["degrees", "--eps=0.2", "--n=200", "--density=bogus"], "unknown density 'bogus'"),
        (["degrees", "--eps=0.2", "--n=200", "--density=bogus", "--density_mode=2"],
         "unknown density 'bogus'"),
        (["degrees", "--eps=0.2", "--n=200", "--kernel=bogus"], "unknown kernel profile 'bogus'"),
        (["spectrum", "--eps=0.2", "--n=50", "--density=bogus"], "unknown density 'bogus'"),
        (["spectrum", "--eps=0.2", "--n=50", "--kernel=bogus"], "unknown kernel profile 'bogus'"),
        # checks of the library: sample_cloud's and degree_concentration_check's
        (["denoise", "--eps=0.2", "--n=0", "--modes=1:1:0"], "need n >= 1 and d >= 1"),
        (["spectrum", "--eps=0.2", "--n=0"], "need n >= 1 and d >= 1"),
        (["denoise", "--eps=0.2", "--d=1", "--n=10", "--modes=1:1:0", "--density=cosine_bump",
          "--density_mode=1,1"], "mode vector length must equal d"),
        (["degrees", "--eps=0.2", "--trials=0"], "trials must be >= 1"),
        (["degrees", "--eps=0.2", "--n=10", "--d=2"], "need n * eps^d >= 1"),
        # the solver's, rate_sweep's, consistency_sweep's and make_operator's
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--tau=-1"],
         "tau must be finite and >= 0"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--tau=inf"],
         "tau must be finite and >= 0"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--tau=nan"],
         "tau must be finite and >= 0"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--s=1.5"],
         "parameter 's' must be an integer, got '1.5'"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--noise_scale=inf"],
         "noise_scale must be finite and >= 0, got inf"),
        (["sweep", "--noise_scale=nan"], "noise_scale must be finite and >= 0, got nan"),
        (["denoise", "--eps=0.2", "--n=40", "--modes=1:1:0", "--tol=-1"],
         "tol must be positive and finite"),
        (["sweep", "--tol=-1"], "tol must be positive and finite"),
        (["sweep", "--trials=0"], "trials must be >= 1"),
        (["consistency", "--trials=0"], "trials must be >= 1"),
        (["consistency", "--eps_grid=0.05"], "n(eps=0.05) = 383453732 exceeds the cap 100000000"),
        (["denoise", "--eps=0.2", "--d=3", "--n=100000", "--modes=1,0,0:1:0"],
         "explicit graph of ~1.68e+08 edges exceeds 20000000"),
        # the run did the n=1024 trial before the n=8192 graph failed the cap
        (["sweep", "--d=2", "--modes=1,0:1:0", "--n_grid=1024,8192", "--trials=1"],
         "explicit graph of ~2.45e+07 edges exceeds 20000000"),
        (["consistency", "--d=2", "--modes=1,0:0:1", "--eps_grid=0.2", "--trials=1"],
         "explicit graph of ~6.36e+10 edges exceeds 20000000"),
        (["degrees", "--d=3", "--n=200000", "--eps=0.2", "--trials=1"],
         "explicit graph of ~6.7e+08 edges exceeds 20000000"),
        # an empty file has no header of d + 1 columns
        (["denoise", "--eps=0.2", f"--input_csv={os.devnull}"],
         f"expected 2 columns in {os.devnull!r}"),
    ], ids=["denoise-n", "denoise-modes", "denoise-noise", "denoise-density",
            "degrees-density", "degrees-density-mode", "degrees-kernel", "spectrum-density",
            "spectrum-kernel", "denoise-n-zero", "spectrum-n-zero", "denoise-density-mode",
            "degrees-trials", "degrees-regime", "denoise-tau-negative", "denoise-tau-inf",
            "denoise-tau-nan", "denoise-s-fraction", "denoise-noise-inf", "sweep-noise-nan",
            "denoise-tol", "sweep-tol", "sweep-trials", "consistency-trials",
            "consistency-n-cap", "denoise-edge-cap", "sweep-edge-cap",
            "consistency-edge-cap", "degrees-edge-cap", "denoise-input-csv"])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_dry_run_checks_what_the_run_checks(
        self, tmp_path, capsys, refuse, argv, message, dry_run
    ):
        # each of these dry runs exited 0 although the real run exits 1,
        # and the run fails before it samples a cloud
        refuse("sample_cloud")
        argv = [*argv, "--out", str(tmp_path / "out")]
        assert run_cli(*argv, *(["--dry-run"] if dry_run else [])) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not (tmp_path / "out").exists()


def fake_pool(monkeypatch, cpus):
    """Sizes of the pools the CLI opens, with cpus available to the process
    (None: the platform reports neither an affinity mask nor a CPU count);
    the fake pool maps in this process."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(cli, "available_cpus", lambda: cpus)
    return sizes


SMALL_SWEEP = ["sweep", "--n-grid=256,512", "--trials=1", "--modes=1:1.0:0.0"]


class TestThreads:
    def test_serial_by_default(self, tmp_path, monkeypatch):
        # a pool with the default BLAS threads was slower than serial
        sizes = fake_pool(monkeypatch, 8)
        assert run_cli(*SMALL_SWEEP, "--out", str(tmp_path)) == 0
        assert sizes == []
        assert run_cli(*SMALL_SWEEP, "--out", str(tmp_path), "--threads=2") == 0
        assert sizes == [2]

    def test_flag_wins(self, tmp_path, monkeypatch):
        # the flag over the config key
        sizes = fake_pool(monkeypatch, 8)
        config = tmp_path / "run.ini"
        config.write_text("[sweep]\nthreads = 5\n")
        out = tmp_path / "out"
        args = [*SMALL_SWEEP, "--config", str(config), "--out", str(out)]
        assert run_cli(*args) == 0
        assert run_cli(*args, "--threads=2") == 0
        assert sizes == [5, 2]
        assert "threads=2\n" in (out / "config.echo").read_text()

    @pytest.mark.parametrize("flag, config, message", [
        ("--threads=0", None, "parameter 'threads' must be >= 1, got '0'"),
        ("--threads=-2", None, "parameter 'threads' must be >= 1, got '-2'"),
        (None, "0", "parameter 'threads' must be >= 1, got '0'"),
    ], ids=["flag-zero", "flag-negative", "config-zero"])
    def test_workers_below_one_named(self, tmp_path, monkeypatch, capsys, flag, config, message):
        # these once ran serially and exited 0
        sizes = fake_pool(monkeypatch, 8)
        argv = [*SMALL_SWEEP, "--out", str(tmp_path / "out")]
        if flag is not None:
            argv.append(flag)
        if config is not None:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[sweep]\nthreads = {config}\n")
            argv += ["--config", str(ini)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert sizes == [] and not (tmp_path / "out").exists()

    def test_sweep_parallel_matches_serial(self, tmp_path):
        args = ["sweep", "--n-grid=256,512", "--trials=2", "--modes=1:1.0:0.0"]
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert run_cli(*args, "--out", str(a), "--threads", "1") == 0
        assert run_cli(*args, "--out", str(b), "--threads", "2") == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    @pytest.mark.parametrize(
        "threads, cpus, pool_sizes",
        [(64, 4, [4]), (2, 4, [2]), (64, None, [])],
    )
    def test_pool_clamped_to_cpu_count(self, tmp_path, monkeypatch, threads, cpus, pool_sizes):
        sizes = fake_pool(monkeypatch, cpus)
        assert run_cli(*SMALL_SWEEP, "--out", str(tmp_path), f"--threads={threads}") == 0
        assert sizes == pool_sizes
