"""Command-line entry point.

Subcommands: denoise, sweep, consistency, degrees, spectrum.  Parameters
live in an INI-style config file with one section per command; any key can
be overridden on the command line with --key=value (flags win).  KEYS
declares the keys each command reads; any other key is a validation error.
Outputs go to a fixed layout under the output directory: records.csv,
summary.json, config.echo.

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

import numpy as np

from . import experiments as xp
from .blocks import available_cpus
from .continuum import FourierFunction
from .geometry import (
    UNIFORM, DensitySpec, KernelProfile, check_cloud, check_eps, check_tau, sample_cloud,
)
from .graph import build_graph  # noqa: F401  unused; perfbench/spans.py wraps it here
from .graph import DENSE_THRESHOLD, check_power, dense_spectrum, dirichlet_energy, l2_mu_n
from .solver import (
    DEFAULT_TOL,
    SolverError,
    check_residual,
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
        k = tuple(_convert([int], pieces[0], "modes"))
        a, b = (_convert(float, v, "modes") for v in pieces[1:])
        entries.append((k, a, b))
    if not entries:
        raise ValidationError("empty mode list")
    return FourierFunction.from_modes(d, entries)


def _density(p):
    """The density p names; p has no bump keys under the uniform density."""
    return DensitySpec(p["density"], p.get("density_amplitude", 0.0),
                       tuple(p.get("density_mode", ())))


# Every key a command reads, as key: (converter, default).  The converter is
# int, float, str, or [int] / [float] for a comma-separated list; a default
# is converted like a given value, and a key with default None is required,
# except input_csv, which stays unset until given.
_COMMON = {"d": (int, 1), "seed": (int, 0), "out": (str, "out")}
_NOISE = {"noise": (str, xp.NoiseSpec.kind), "noise_scale": (float, xp.NoiseSpec.scale)}
_DENSITY = {
    "density": (str, UNIFORM.kind), "density_amplitude": (float, 0.5),
    "density_mode": ([int], "1"),
}
_KERNEL = {"kernel": (str, KernelProfile.kind)}
KEYS = {
    "denoise": {
        **_COMMON, "s": (int, 1), "eps": (float, None), "tau": (float, 0.01),
        "tol": (float, DEFAULT_TOL), **_KERNEL, "input_csv": (str, None),
        "n": (int, None), "modes": (str, None), **_NOISE, **_DENSITY,
    },
    "sweep": {
        **_COMMON, "s": (int, 1), "n_grid": ([int], "1024,2048,4096,8192,16384,32768"),
        "eps_mult": (float, xp.Schedule.eps_mult), "tau_mult": (float, xp.Schedule.tau_mult),
        "modes": (str, "1:1.0:0.0;2:0.0:0.5"), **_NOISE, "trials": (int, 10),
        "tol": (float, DEFAULT_TOL), "threads": (int, 1),
    },
    "consistency": {
        **_COMMON, "s": (int, 1), "modes": (str, "1:0.0:1.0"),
        "eps_grid": ([float], "0.2,0.14,0.1,0.07"), "k_mult": (float, 40.0), "trials": (int, 5),
    },
    "degrees": {
        **_COMMON, "n": (int, 10000), "eps": (float, 0.05), "trials": (int, 10),
        **_DENSITY, **_KERNEL,
    },
    "spectrum": {
        **_COMMON, "eps": (float, None), **_KERNEL, "input_csv": (str, None),
        "n": (int, 100), **_DENSITY,
    },
}
# the keys of a sampled cloud: with input_csv they would have no effect
_CLOUD_KEYS = {"n", "modes", *_NOISE, *_DENSITY}
# the keys of the cosine bump: under the uniform density they would have no effect
_BUMP_KEYS = {"density_amplitude", "density_mode"}
# the least value of an integer key; threads defaults to 1 (serial): with the
# default BLAS threads each pool worker starts its own and is slower than serial
_LEAST = {"d": 1, "seed": 0, "threads": 1}


def _convert(conv, text, key):
    """text converted as KEYS declares, or a ValidationError that names key."""
    if isinstance(conv, list):
        return [_convert(conv[0], v, key) for v in text.split(",")]
    if conv is str:
        return text
    try:
        return conv(text)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ValidationError(f"parameter {key!r} must be {kind}, got {text!r}") from None


def _collect_params(args, extras):
    """The command's parameters, resolved once against KEYS: the config
    section, then the --key=value overrides, then the built-in flags."""
    cfg = configparser.ConfigParser()
    if args.config:
        if not os.path.exists(args.config):
            raise ValidationError(f"config file {args.config!r} not found")
        cfg.read(args.config)
    given = {}
    if cfg.has_section(args.command):
        given.update(dict(cfg.items(args.command)))
    errors = []
    for extra in extras:
        if not extra.startswith("--") or "=" not in extra:
            errors.append(f"cannot parse override {extra!r} (want --key=value)")
            continue
        key, _, value = extra[2:].partition("=")
        given[key.replace("-", "_")] = value
    if errors:
        raise ValidationError("; ".join(errors))
    # the built-in flags win; --seed and --threads are converted with the
    # other keys, so a bad value is named like any other
    for key in ("out", "seed", "threads"):
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    keys, unread, why = KEYS[args.command], set(), ""
    if "input_csv" in keys and "input_csv" in given:
        unread, why = _CLOUD_KEYS, " with input_csv"
    elif "density" in keys and given.get("density", UNIFORM.kind) == UNIFORM.kind:
        unread, why = _BUMP_KEYS, " unless density=cosine_bump"
    for key in given:
        if key not in keys or key in unread:
            reason = why if key in keys else ""
            raise ValidationError(f"{args.command} does not read parameter {key!r}{reason}")
    keys = {k: v for k, v in keys.items() if k not in unread}
    params = {}
    for key, (conv, default) in keys.items():
        text = given.get(key, default)
        if text is not None:
            params[key] = _convert(conv, text, key)
        if key in _LEAST and params[key] < _LEAST[key]:
            least, got = _LEAST[key], params[key]
            raise ValidationError(f"parameter {key!r} must be >= {least}, got '{got}'")
    missing = [key for key in keys if key not in params and key != "input_csv"]
    if missing:
        raise ValidationError(f"missing parameter {missing[0]!r}")
    return params


def _outdir(p):
    os.makedirs(p["out"], exist_ok=True)
    return p["out"]


def _echo_config(out, config):
    """One key=value line per key, a list comma-joined as it is given."""
    with open(os.path.join(out, "config.echo"), "w", encoding="utf-8") as f:
        for key, value in sorted(config.items()):
            value = ",".join(map(str, value)) if isinstance(value, list) else value
            f.write(f"{key}={value}\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def _load_points_csv(path, d, max_rows=None):
    """Points and labels of the file; past max_rows data rows (the dense
    spectrum threshold) it stops reading and raises."""
    points, labels = [], []
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if len(header) != d + 1:
            raise ValidationError(f"expected {d + 1} columns in {path!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            if len(points) == max_rows:
                raise ValidationError(
                    f"{path!r} has more data rows than the dense spectrum threshold {max_rows}"
                )
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


def _input_cloud(p, max_rows=None):
    """input_csv's points and labels, read and checked (at most max_rows data
    rows), its row count written into p as n; without it, (None, None) once
    the sampled cloud passes check_cloud."""
    if "input_csv" in p:
        points, labels = _load_points_csv(p["input_csv"], p["d"], max_rows)
        p["n"] = len(points)
        return points, labels
    check_cloud(_density(p), p["n"], p["d"])
    return None, None


def cmd_denoise(p, dry_run):
    d, s, eps, tau, tol = p["d"], p["s"], p["eps"], p["tau"], p["tol"]
    kernel = KernelProfile(p["kernel"])
    check_eps(eps)
    check_power(s)
    points, y = _input_cloud(p)
    if points is None:  # the label keys of a sampled cloud
        g, noise = parse_modes(p["modes"], d), xp.NoiseSpec(p["noise"], p["noise_scale"])
    xp.check_operator_size(p["n"], d, eps, kernel)
    check_tau(tau)
    check_tol(tol)
    if dry_run:
        return {}

    if points is None:
        points = sample_cloud(_density(p), p["n"], d, p["seed"])
        y = xp.gen_labels(g, points, noise, xp.derive_seed(p["seed"], 1))

    op, _, order = xp.make_operator(points, eps, kernel, want_order=True)
    y_op = y if order is None else y[order]
    report = solve_resolvent(op, y_op, tau, s, tol=tol)
    check_residual(report, tol)
    reg = dirichlet_energy(op, report.solution, s)
    u = report.solution
    if order is not None:  # records.csv keeps the input row order
        u = np.empty_like(u)
        u[order] = report.solution

    header = [f"x{i + 1}" for i in range(d)] + ["y", "u"]
    xp.write_csv(os.path.join(_outdir(p), "records.csv"), header, [*points.T, y, u])
    err = l2_mu_n(u - y)
    return {
        "energy": err**2 + tau * reg,
        "regularizer": reg,
        "solver_iterations": report.iterations,
        "solver_residual": report.final_relative_residual,
        "total_err_vs_labels": err,
    }


def cmd_sweep(p, dry_run):
    schedule = xp.Schedule(p["d"], p["s"], tuple(p["n_grid"]), p["eps_mult"], p["tau_mult"])
    g = parse_modes(p["modes"], p["d"])
    noise = xp.NoiseSpec(p["noise"], p["noise_scale"])
    xp.check_sweep_inputs(schedule, p["trials"], p["tol"])
    p["eps"] = [schedule.eps_of(n) for n in p["n_grid"]]
    p["tau"] = [schedule.tau_of(n) for n in p["n_grid"]]
    if dry_run:
        return {}

    args = (schedule, g, noise, p["trials"], p["seed"], p["tol"])
    workers = min(p["threads"], available_cpus())
    if workers > 1:
        from multiprocessing import Pool  # here, so that a serial sweep skips its import

        with Pool(workers) as pool:
            result = xp.rate_sweep(*args, map_fn=pool.map)
    else:
        result = xp.rate_sweep(*args)
    if result.failure_count == len(result.records):
        raise SolverError("every trial failed", None)

    xp.write_records_csv(result.records, os.path.join(_outdir(p), "records.csv"))
    return {
        "slope": result.slope_vs_rate,
        "stderr": result.slope_vs_rate_stderr,
        "predicted": result.predicted_exponent,
        "slope_vs_n": result.slope_vs_n,
        "slope_vs_n_stderr": result.slope_vs_n_stderr,
        "failures": result.failure_count,
    }


def cmd_consistency(p, dry_run):
    s, eps_grid = p["s"], p["eps_grid"]
    u = parse_modes(p["modes"], p["d"])
    rule = xp.default_n_rule(p["k_mult"], p["d"], s)
    p["n"] = [rule(e) for e in eps_grid]
    xp.check_consistency_inputs(p["d"], s, eps_grid, rule, p["trials"])
    if dry_run:
        return {}

    result = xp.consistency_sweep(u, s, eps_grid, rule, p["trials"], p["seed"])
    xp.write_records_csv(result.records, os.path.join(_outdir(p), "records.csv"))
    # the total's slope sits near 2 (the O(eps^2) nonlocal bias dominates);
    # the O(eps) operator consistency is the stochastic part's slope
    return {
        "slope": result.slope,
        "stderr": result.slope_stderr,
        "stochastic_slope": result.stochastic_slope,
        "stochastic_stderr": result.stochastic_slope_stderr,
        "nonlocal_bias": [result.nonlocal_bias[e] for e in eps_grid],
    }


def cmd_degrees(p, dry_run):
    n, d, eps, trials = p["n"], p["d"], p["eps"], p["trials"]
    density, kernel = _density(p), KernelProfile(p["kernel"])
    xp.check_degree_inputs(n, d, eps, density, kernel, trials)
    if dry_run:
        return {}
    return asdict(xp.degree_concentration_check(n, d, eps, density, kernel, trials, p["seed"]))


def cmd_spectrum(p, dry_run):
    check_eps(p["eps"])
    kernel = KernelProfile(p["kernel"])
    points, _ = _input_cloud(p, DENSE_THRESHOLD)
    n = p["n"]
    if n > DENSE_THRESHOLD:  # before any cloud is sampled or operator built
        raise ValidationError(f"n={n} exceeds the dense spectrum threshold {DENSE_THRESHOLD}")
    if dry_run:
        return {}
    if points is None:
        points = sample_cloud(_density(p), n, p["d"], p["seed"])
    op, _, _ = xp.make_operator(points, p["eps"], kernel)
    vals, _ = dense_spectrum(op)
    return {"eigenvalues": [float(v) for v in vals]}


# Each command reads its resolved parameters from p and adds to p what it
# derives from them, so that the dry run, summary.json's "config" and
# config.echo show one mapping; a dry run returns {} after the run's checks.
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
        summary = COMMANDS[args.command](params, args.dry_run)
        summary["config"] = {"command": args.command, **params}
        # NaN and Infinity are not JSON: write an undefined value as null
        summary = json.loads(json.dumps(summary), parse_constant=lambda _: None)
        if not args.dry_run:
            out = _outdir(params)
            _write_json(os.path.join(out, "summary.json"), summary)
            _echo_config(out, summary["config"])
    except (ValidationError, ValueError, MemoryError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO

    config = summary.pop("config")
    print(json.dumps(config if args.dry_run else summary, indent=2, sort_keys=True,
                     allow_nan=False))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
