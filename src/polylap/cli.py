"""Command-line entry point.

Subcommands: denoise, sweep, consistency, degrees, spectrum.  Parameters
live in an INI-style config file with one section per command; any key can
be overridden on the command line with --key=value (flags win).  Outputs go
to a fixed layout under the output directory: records.csv, summary.json,
config.echo.

Exit codes: 0 success, 1 validation or usage error, 2 solver failure, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict
from multiprocessing import Pool

import numpy as np

from . import experiments as xp
from .blocks import available_cpus
from .continuum import FourierFunction
from .geometry import UNIFORM, DensitySpec, KernelProfile, check_cloud, check_eps, sample_cloud
from .graph import build_graph  # noqa: F401  unused; perfbench/spans.py wraps it here
from .graph import DENSE_THRESHOLD, check_power, dense_spectrum, dirichlet_energy, l2_mu_n
from .solver import (
    DEFAULT_TOL,
    ResolventProblem,
    SolverError,
    check_residual,
    check_tau,
    check_tol,
    solve_resolvent,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


class ValidationError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a validation error (exit 1); argparse would exit 2,
    the code of a solver failure.  --help still exits 0."""

    def error(self, message):
        raise ValidationError(message)


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
        k = tuple(_number(int, c, "parameter 'modes'") for c in pieces[0].split(","))
        a, b = (_number(float, v, "parameter 'modes'") for v in pieces[1:])
        entries.append((k, a, b))
    if not entries:
        raise ValidationError("empty mode list")
    return FourierFunction.from_modes(d, entries)


def parse_density(params):
    kind = params.get("density", UNIFORM.kind)
    if kind == UNIFORM.kind:
        return UNIFORM
    if kind == "cosine_bump":
        amp = _param(params, "density_amplitude", float, 0.5)
        mode = tuple(_param_list(params, "density_mode", int, "1"))
        return DensitySpec("cosine_bump", amp, mode)
    raise ValidationError(f"unknown density {kind!r}")


def parse_noise(params):
    kind = _param(params, "noise", str, xp.NoiseSpec.kind)
    return xp.NoiseSpec(kind, _param(params, "noise_scale", float, xp.NoiseSpec.scale))


def parse_kernel(params):
    return KernelProfile(params.get("kernel", KernelProfile.kind))


def _number(conv, text, name):
    """conv(text) for conv int or float, or a ValidationError that names
    the parameter the text came from."""
    try:
        return conv(text)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ValidationError(f"{name} must be {kind}, got {text!r}") from None


def _param(params, key, conv, default=None):
    """Key as conv, or default (a library constant by name) if it is unset;
    without a default an unset key is a missing parameter (KeyError)."""
    text = params[key] if default is None else params.get(key, default)
    return _number(conv, text, f"parameter {key!r}")


def _param_list(params, key, conv, default):
    """Comma-separated numeric key as a list of conv."""
    return [_number(conv, v, f"parameter {key!r}") for v in params.get(key, default).split(",")]


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
    # the built-in flags win; --seed and --threads are parsed as numbers with
    # the other keys, so a bad value is named like any other
    for key in ("out", "seed", "threads"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
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
            if not math.isfinite(nums[d]):
                raise ValidationError(f"{path}:{lineno}: non-finite label")
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
    d = _param(params, "d", int, 1)
    s = _param(params, "s", int, 1)
    eps = _param(params, "eps", float)
    tau = _param(params, "tau", float, 0.01)
    tol = _param(params, "tol", float, DEFAULT_TOL)
    kernel = parse_kernel(params)
    seed = _param(params, "seed", int, 0)
    check_eps(eps)
    check_power(s)
    csv = params.get("input_csv")
    if csv is None:  # the generated cloud's keys, checked by the dry run too
        n = _param(params, "n", int)
        g = parse_modes(params["modes"], d)
        noise = parse_noise(params)
        density = parse_density(params)
        check_cloud(density, n, d)
        xp.check_operator_size(n, d, eps, kernel)
    check_tau(tau)
    check_tol(tol)
    if dry_run:
        return {"command": "denoise", "d": d, "s": s, "eps": eps, "tau": tau}

    if csv is None:
        points = sample_cloud(density, n, d, seed)
        y = xp.gen_labels(g, points, noise, xp.derive_seed(seed, 1))
    else:
        points, y = _load_points_csv(csv, d)

    op, _, order = xp.make_operator(points, eps, kernel, want_order=True)
    y_op = y if order is None else y[order]
    report = solve_resolvent(ResolventProblem(op, y_op, tau, s), tol)
    check_residual(report, tol)
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
    d = _param(params, "d", int, 1)
    s = _param(params, "s", int, 1)
    n_grid = tuple(_param_list(params, "n_grid", int, "1024,2048,4096,8192,16384,32768"))
    eps_mult = _param(params, "eps_mult", float, xp.Schedule.eps_mult)
    tau_mult = _param(params, "tau_mult", float, xp.Schedule.tau_mult)
    schedule = xp.Schedule(d, s, n_grid, eps_mult, tau_mult)
    g = parse_modes(params.get("modes", "1:1.0:0.0;2:0.0:0.5"), d)
    noise = parse_noise(params)
    trials = _param(params, "trials", int, 10)
    seed = _param(params, "seed", int, 0)
    tol = _param(params, "tol", float, DEFAULT_TOL)
    # worker processes, serial by default: with the default BLAS threads
    # each worker starts its own and a pool is slower than serial
    workers = _param(params, "threads", int, 1)
    if workers < 1:
        raise ValidationError(f"parameter 'threads' must be >= 1, got {params['threads']!r}")
    workers = min(workers, available_cpus())
    xp.check_sweep_inputs(trials, tol)
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
            result = xp.rate_sweep(schedule, g, noise, trials, seed, tol, map_fn=pool.map)
    else:
        result = xp.rate_sweep(schedule, g, noise, trials, seed, tol)
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
    d = _param(params, "d", int, 1)
    s = _param(params, "s", int, 1)
    u = parse_modes(params.get("modes", "1:0.0:1.0"), d)
    eps_grid = _param_list(params, "eps_grid", float, "0.2,0.14,0.1,0.07")
    k_mult = _param(params, "k_mult", float, 40.0)
    trials = _param(params, "trials", int, 5)
    seed = _param(params, "seed", int, 0)
    rule = xp.default_n_rule(k_mult, d, s)
    resolved = {
        "command": "consistency", "d": d, "s": s, "eps_grid": eps_grid,
        "n": [rule(e) for e in eps_grid], "trials": trials, "seed": seed,
    }
    n_cap = _param(params, "n_cap", int, xp.CONSISTENCY_N_CAP)
    xp.check_consistency_inputs(s, eps_grid, rule, trials, n_cap)
    if dry_run:
        return resolved

    result = xp.consistency_sweep(u, s, eps_grid, rule, trials, seed, n_cap)
    xp.write_records_csv(result.records, os.path.join(_outdir(params), "records.csv"))
    # the total's slope sits near 2 (the O(eps^2) nonlocal bias dominates);
    # the O(eps) operator consistency is the stochastic part's slope
    return {
        "slope": result.slope,
        "stderr": result.slope_stderr,
        "stochastic_slope": result.stochastic_slope,
        "stochastic_stderr": result.stochastic_slope_stderr,
        "nonlocal_bias": [result.nonlocal_bias[e] for e in eps_grid],
        "config": resolved,
    }


def cmd_degrees(params, dry_run):
    n = _param(params, "n", int, 10000)
    d = _param(params, "d", int, 1)
    eps = _param(params, "eps", float, 0.05)
    check_eps(eps)
    trials = _param(params, "trials", int, 10)
    seed = _param(params, "seed", int, 0)
    density, kernel = parse_density(params), parse_kernel(params)
    xp.check_degree_inputs(n, d, eps, density, trials)
    resolved = {"command": "degrees", "n": n, "d": d, "eps": eps, "trials": trials}
    if dry_run:
        return resolved
    summary = xp.degree_concentration_check(n, d, eps, density, kernel, trials, seed)
    return {**asdict(summary), "config": resolved}


def cmd_spectrum(params, dry_run):
    d = _param(params, "d", int, 1)
    eps = _param(params, "eps", float)
    check_eps(eps)
    seed = _param(params, "seed", int, 0)
    kernel = parse_kernel(params)
    if "input_csv" in params:
        points, _ = _load_points_csv(params["input_csv"], d)
        n = len(points)
    else:
        points, n = None, _param(params, "n", int, 100)
        density = parse_density(params)
    if n > DENSE_THRESHOLD:  # before any cloud is sampled or operator built
        raise ValidationError(f"n={n} exceeds the dense spectrum threshold {DENSE_THRESHOLD}")
    if points is None:
        check_cloud(density, n, d)
    resolved = {"command": "spectrum", "d": d, "eps": eps, "n": n}
    if dry_run:
        return resolved
    if points is None:
        points = sample_cloud(density, n, d, seed)
    op, _, _ = xp.make_operator(points, eps, kernel)
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
    parser = _ArgumentParser(prog="polylap", description=__doc__, allow_abbrev=False)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI config file with one section per command")
    parser.add_argument("--out", help="output directory (default: 'out')")
    parser.add_argument("--seed")
    parser.add_argument("--threads",
                        help="sweep worker processes (default: 1, at most the CPU count)")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate and print the resolved parameters only")
    try:
        args, extras = parser.parse_known_args(argv)
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
