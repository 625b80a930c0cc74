"""Command-line interface: config handling, outputs, exit codes, reproducibility."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from polylap import cli
from polylap.experiments import NoiseSpec, derive_seed, gen_labels, make_operator
from polylap.geometry import INDICATOR, UNIFORM, sample_cloud
from polylap.graph import build_graph
from polylap.solver import ResolventProblem, solve_resolvent


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


class TestDenoise:
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
        u[order] = solve_resolvent(ResolventProblem(op, y[order], tau, s)).solution
        assert np.array_equal(rows[:, 0], cloud[:, 0])
        assert np.array_equal(rows[:, 1], y)
        assert np.array_equal(rows[:, 2], u)

        graph = build_graph(cloud, eps)
        u_explicit = solve_resolvent(ResolventProblem(graph, y, tau, s)).solution
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
             ["slope", "stderr"]),
        ],
    )
    def test_undefined_slopes_are_strict_json_null(self, tmp_path, capsys, argv, slopes):
        def reject(name):
            raise AssertionError(f"non-JSON constant {name}")

        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        for text in ((tmp_path / "summary.json").read_text(), capsys.readouterr().out):
            summary = json.loads(text, parse_constant=reject)
            assert all(summary[key] is None for key in slopes)

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


class TestExitCodes:
    def test_missing_required_key(self, capsys):
        assert run_cli("denoise") == 1  # no eps anywhere
        assert "missing parameter 'eps'" in capsys.readouterr().err

    def test_bad_override_format(self):
        assert run_cli("denoise", "--eps", "0.2", "oops") == 1

    def test_missing_config_file(self):
        assert run_cli("sweep", "--config", "/nonexistent.ini") == 1

    def test_memory_cap_maps_to_validation(self):
        assert run_cli(
            "consistency", "--eps-grid=0.05", "--k-mult=40", "--n-cap=1000", "--trials=1"
        ) == 1

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

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "polylap.cli", "sweep", "--dry-run"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


def fake_pool(monkeypatch, cpus):
    """Sizes of the pools the CLI opens, with os.cpu_count() = cpus; the
    fake pool maps in this process."""
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

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return sizes


SMALL_SWEEP = ["sweep", "--n-grid=256,512", "--trials=1", "--modes=1:1.0:0.0"]


class TestThreads:
    def test_env_fallback(self, tmp_path, monkeypatch):
        sizes = fake_pool(monkeypatch, 8)
        monkeypatch.setenv("POLYLAP_THREADS", "3")
        assert run_cli(*SMALL_SWEEP, "--out", str(tmp_path)) == 0
        assert sizes == [3]

    def test_flag_wins(self, tmp_path, monkeypatch):
        # the flag over the config key over POLYLAP_THREADS
        sizes = fake_pool(monkeypatch, 8)
        monkeypatch.setenv("POLYLAP_THREADS", "3")
        config = tmp_path / "run.ini"
        config.write_text("[sweep]\nthreads = 5\n")
        out = tmp_path / "out"
        args = [*SMALL_SWEEP, "--config", str(config), "--out", str(out)]
        assert run_cli(*args) == 0
        assert run_cli(*args, "--threads=2") == 0
        assert sizes == [5, 2]
        assert "threads=2\n" in (out / "config.echo").read_text()

    @pytest.mark.parametrize("argv", [
        ["denoise", "--n=50", "--eps=0.2", "--modes=1:1:0"],
        ["spectrum", "--n=50", "--eps=0.2"],
    ])
    def test_env_read_by_sweep_only(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("POLYLAP_THREADS", "abc")
        assert run_cli(*argv, "--out", str(tmp_path)) == 0
        assert run_cli(*SMALL_SWEEP, "--dry-run") == 1

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
