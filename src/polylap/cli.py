"""Command-line entry point.

Subcommands: denoise, sweep, consistency, degrees, spectrum.  Parameters
live in an INI-style config file with one section per command; any key can
be overridden on the command line with --key=value (flags win).  Outputs go
to a fixed layout under the output directory: records.csv, summary.json,
config.echo.

Exit codes: 0 success, 1 validation error, 2 solver failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import asdict
from multiprocessing import Pool

import numpy as np

from . import experiments as xp
from .continuum import FourierFunction
from .geometry import UNIFORM, DensitySpec, KernelProfile, sample_cloud
from .graph import build_graph  # noqa: F401  unused; perfbench/spans.py wraps it here
from .graph import DENSE_THRESHOLD, dense_spectrum, dirichlet_energy, l2_mu_n
from .solver import ResolventProblem, SolverError, check_residual, solve_resolvent

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class ValidationError(Exception):
    pass


def parse_modes(text, d):
    """Fourier modes from 'k:a:b;k:a:b' with k a comma-joined integer vector."""
    entries = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ValidationError(f"bad mode entry {part!r} (want k:a:b)")
        k = tuple(int(c) for c in pieces[0].split(","))
        entries.append((k, float(pieces[1]), float(pieces[2])))
    if not entries:
        raise ValidationError("empty mode list")
    return FourierFunction.from_modes(d, entries)


def parse_density(params):
    kind = params.get("density", "uniform")
    if kind == "uniform":
        return UNIFORM
    if kind == "cosine_bump":
        amp = float(params.get("density_amplitude", "0.5"))
        mode = tuple(int(c) for c in params.get("density_mode", "1").split(","))
        return DensitySpec("cosine_bump", amp, mode)
    raise ValidationError(f"unknown density {kind!r}")


def parse_noise(params):
    return xp.NoiseSpec(
        **_given(params, str, kind="noise"), **_given(params, float, scale="noise_scale")
    )


def parse_kernel(params):
    return KernelProfile(params.get("kernel", "indicator"))


def _given(params, conv, *keys, **renamed):
    """{arg: conv(params[key])} for each key the user set (a key named like
    its argument, or arg=key); the library default applies to the rest."""
    names = {**{key: key for key in keys}, **renamed}
    return {arg: conv(params[key]) for arg, key in names.items() if key in params}


def _collect_params(args, extras):
    cfg = configparser.ConfigParser()
    if args.config:
        if not os.path.exists(args.config):
            raise ValidationError(f"config file {args.config!r} not found")
        cfg.read(args.config)
    params = {}
    if cfg.has_section(args.command):
        params.update(dict(cfg.items(args.command)))
    errors = []
    for extra in extras:
        if not extra.startswith("--") or "=" not in extra:
            errors.append(f"cannot parse override {extra!r} (want --key=value)")
            continue
        key, _, value = extra[2:].partition("=")
        params[key.replace("-", "_")] = value
    if errors:
        raise ValidationError("; ".join(errors))
    if args.out is not None:
        params["out"] = args.out
    if args.seed is not None:
        params["seed"] = str(args.seed)
    if args.threads is not None:
        params["threads"] = str(args.threads)
    return params


def _outdir(params):
    out = params.get("out", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(out, params):
    with open(os.path.join(out, "config.echo"), "w", encoding="utf-8") as f:
        for key in sorted(params):
            f.write(f"{key}={params[key]}\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _load_points_csv(path, d):
    points, labels = [], []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if len(header) != d + 1:
            raise ValidationError(f"expected {d + 1} columns in {path!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            vals = line.strip().split(",")
            if len(vals) != d + 1:
                raise ValidationError(f"{path}:{lineno}: expected {d + 1} fields")
            try:
                nums = [float(v) for v in vals]
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric field")
            points.append(nums[:d])
            labels.append(nums[d])
    if not points:
        raise ValidationError(f"{path!r} contains no data rows")
    points = np.array(points)
    if not np.all(np.isfinite(points)):
        raise ValidationError(f"{path!r} has a non-finite coordinate")
    # wrap onto the torus; x % 1.0 rounds to 1.0 for tiny negative x
    points %= 1.0
    points[points == 1.0] = 0.0
    return points, np.array(labels)


def cmd_denoise(params, dry_run):
    d = int(params.get("d", "1"))
    s = int(params.get("s", "1"))
    eps = float(params["eps"])
    tau = float(params.get("tau", "0.01"))
    tol_kw = _given(params, float, "tol")
    kernel = parse_kernel(params)
    seed = int(params.get("seed", "0"))
    if eps <= 0 or eps > 0.5:
        raise ValidationError("eps must lie in (0, 1/2]")
    if dry_run:
        return {"command": "denoise", "d": d, "s": s, "eps": eps, "tau": tau}

    if "input_csv" in params:
        points, y = _load_points_csv(params["input_csv"], d)
    else:
        n = int(params["n"])
        g = parse_modes(params["modes"], d)
        noise = parse_noise(params)
        points = sample_cloud(parse_density(params), n, d, seed)
        y = xp.gen_labels(g, points, noise, xp.derive_seed(seed, 1))

    op, _, order = xp.make_operator(points, eps, kernel, want_order=True)
    y_op = y if order is None else y[order]
    report = solve_resolvent(ResolventProblem(op, y_op, tau, s), **tol_kw)
    check_residual(report, **tol_kw)
    reg = dirichlet_energy(op, report.solution, s)
    u = report.solution
    if order is not None:  # records.csv keeps the input row order
        u = np.empty_like(u)
        u[order] = report.solution

    with open(os.path.join(_outdir(params), "records.csv"), "w", encoding="utf-8") as f:
        f.write(",".join([f"x{i + 1}" for i in range(d)] + ["y", "u"]) + "\n")
        # column-wise to Python floats once; repr is the shortest round-trip form
        columns = [*points.T.tolist(), y.tolist(), u.tolist()]
        f.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))
    return {
        "energy": l2_mu_n(u - y) ** 2 + tau * reg,
        "regularizer": reg,
        "solver_iterations": report.iterations,
        "solver_residual": report.final_relative_residual,
        "total_err_vs_labels": l2_mu_n(u - y),
    }


def cmd_sweep(params, dry_run):
    d = int(params.get("d", "1"))
    s = int(params.get("s", "1"))
    n_grid = tuple(int(v) for v in params.get(
        "n_grid", "1024,2048,4096,8192,16384,32768").split(","))
    schedule = xp.Schedule(
        d=d, s=s, n_grid=n_grid, **_given(params, float, "eps_mult", "tau_mult")
    )
    g = parse_modes(params.get("modes", "1:1.0:0.0;2:0.0:0.5"), d)
    noise = parse_noise(params)
    trials = int(params.get("trials", "10"))
    seed = int(params.get("seed", "0"))
    tol_kw = _given(params, float, "tol")
    # worker processes: --threads, the config key, POLYLAP_THREADS, the CPU
    # count, in that order, and never more than the CPU count
    cpus = os.cpu_count() or 1
    threads = params.get("threads") or os.environ.get("POLYLAP_THREADS") or cpus
    workers = min(int(threads), cpus)
    resolved = {
        "command": "sweep", "d": d, "s": s, "n_grid": list(n_grid),
        "eps": [schedule.eps_of(n) for n in n_grid],
        "tau": [schedule.tau_of(n) for n in n_grid],
        "trials": trials, "seed": seed,
    }
    if dry_run:
        return resolved

    if workers > 1:
        with Pool(workers) as pool:
            result = xp.rate_sweep(schedule, g, noise, trials, seed, map_fn=pool.map, **tol_kw)
    else:
        result = xp.rate_sweep(schedule, g, noise, trials, seed, **tol_kw)
    if result.failure_count == len(result.records):
        raise SolverError("every trial failed", None)

    xp.write_records_csv(result.records, os.path.join(_outdir(params), "records.csv"))
    return {
        "slope": result.slope_vs_rate,
        "stderr": result.slope_vs_rate_stderr,
        "predicted": result.predicted_exponent,
        "slope_vs_n": result.slope_vs_n,
        "slope_vs_n_stderr": result.slope_vs_n_stderr,
        "failures": result.failure_count,
        "config": resolved,
    }


def cmd_consistency(params, dry_run):
    d = int(params.get("d", "1"))
    s = int(params.get("s", "1"))
    u = parse_modes(params.get("modes", "1:0.0:1.0"), d)
    eps_grid = [float(v) for v in params.get("eps_grid", "0.2,0.14,0.1,0.07").split(",")]
    k_mult = float(params.get("k_mult", "40"))
    trials = int(params.get("trials", "5"))
    seed = int(params.get("seed", "0"))
    rule = xp.default_n_rule(k_mult, d, s)
    resolved = {
        "command": "consistency", "d": d, "s": s, "eps_grid": eps_grid,
        "n": [rule(e) for e in eps_grid], "trials": trials, "seed": seed,
    }
    if dry_run:
        return resolved

    result = xp.consistency_sweep(
        u, s, eps_grid, rule, trials, seed, **_given(params, int, "n_cap")
    )
    xp.write_records_csv(result.records, os.path.join(_outdir(params), "records.csv"))
    return {"slope": result.slope, "stderr": result.slope_stderr, "config": resolved}


def cmd_degrees(params, dry_run):
    n = int(params.get("n", "10000"))
    d = int(params.get("d", "1"))
    eps = float(params.get("eps", "0.05"))
    trials = int(params.get("trials", "10"))
    seed = int(params.get("seed", "0"))
    resolved = {"command": "degrees", "n": n, "d": d, "eps": eps, "trials": trials}
    if dry_run:
        return resolved
    summary = xp.degree_concentration_check(
        n, d, eps, parse_density(params), parse_kernel(params), trials, seed,
        **_given(params, float, "cap_mult"),
    )
    return {**asdict(summary), "config": resolved}


def cmd_spectrum(params, dry_run):
    d = int(params.get("d", "1"))
    eps = float(params["eps"])
    seed = int(params.get("seed", "0"))
    if "input_csv" in params:
        points, _ = _load_points_csv(params["input_csv"], d)
        n = len(points)
    else:
        points, n = None, int(params.get("n", "100"))
    if n > DENSE_THRESHOLD:  # before any cloud is sampled or operator built
        raise ValidationError(f"n={n} exceeds the dense spectrum threshold {DENSE_THRESHOLD}")
    if points is None:
        points = sample_cloud(parse_density(params), n, d, seed)
    resolved = {"command": "spectrum", "d": d, "eps": eps, "n": n}
    if dry_run:
        return resolved
    op, _, _ = xp.make_operator(points, eps, parse_kernel(params))
    vals, _ = dense_spectrum(op)
    return {"eigenvalues": [float(v) for v in vals], "config": resolved}


COMMANDS = {
    "denoise": cmd_denoise,
    "sweep": cmd_sweep,
    "consistency": cmd_consistency,
    "degrees": cmd_degrees,
    "spectrum": cmd_spectrum,
}


def main(argv=None):
    # allow_abbrev off: unknown --key=value pairs must reach the override
    # parser instead of being prefix-matched onto the built-in flags
    parser = argparse.ArgumentParser(prog="polylap", description=__doc__, allow_abbrev=False)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI config file with one section per command")
    parser.add_argument("--out", help="output directory (default: 'out')")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int,
                        help="sweep worker processes (default: POLYLAP_THREADS or CPU count)")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate and print the resolved parameters only")
    args, extras = parser.parse_known_args(argv)

    try:
        params = _collect_params(args, extras)
        result = COMMANDS[args.command](params, args.dry_run)
        # NaN and Infinity are not JSON: write an undefined value as null
        result = json.loads(json.dumps(result), parse_constant=lambda _: None)
        if not args.dry_run:
            out = _outdir(params)
            _write_json(os.path.join(out, "summary.json"), result)
            _echo_config(out, params)
    except KeyError as err:  # a required key that no config or flag set
        print(f"validation error: missing parameter {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValidationError, ValueError, MemoryError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO

    if args.dry_run:
        print(json.dumps(result, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(json.dumps({k: v for k, v in result.items() if k != "config"},
                         indent=2, sort_keys=True, allow_nan=False))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
