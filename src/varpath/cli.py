"""Command-line entry point.

Subcommands: path, variability, integrate, solve, validate, sweep.  Each
reads an optional JSON config (--config), applies CLI overrides, runs the
matching harness runner, and writes artifacts plus a manifest to --out-dir.

Exit codes: 0 ok, 2 config error, 3 numerical refusal (a precondition of
the mathematics failed, e.g. the variability classifier returned
"diverging", or a gradient measure would exceed its atom budget),
4 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (EXIT_CONFIG, EXIT_REFUSAL, REFUSALS, ConfigError, run_integrate,
                      run_path, run_solve, run_sweep, run_validate,
                      run_variability)


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub.add_argument("--out-dir", default=".", help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varpath",
        description="pathwise Stieltjes integration experiments")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("path", help="generate and describe a sampled path")
    _add_common(p)
    p.add_argument("--path", dest="path_kind", choices=["fbm", "power", "linear", "constant"])
    p.add_argument("--hurst", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--dim", type=int)

    p = subs.add_parser("variability", help="run the (s,p)-variability classifier")
    _add_common(p)
    p.add_argument("--coefficient")
    p.add_argument("--s", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--path", dest="path_kind")
    p.add_argument("--hurst", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--dim", type=int)

    p = subs.add_parser("integrate", help="duality-pairing integral and rate study")
    _add_common(p)
    p.add_argument("--coefficient")
    p.add_argument("--theta", type=float)
    p.add_argument("--rate", action="store_true")
    p.add_argument("--mesh", help="mesh range like 2^8..2^13")
    p.add_argument("--path", dest="path_kind")
    p.add_argument("--hurst", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--dim", type=int)

    p = subs.add_parser("solve", help="build a Doss solution and verify it")
    _add_common(p)
    p.add_argument("--example", help="coefficient family name")
    p.add_argument("--hurst", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--x0", help="comma-separated start point")

    p = subs.add_parser("validate", help="run a self-check suite")
    _add_common(p)
    p.add_argument("--suite", default="trivial")

    p = subs.add_parser("sweep", help="parameter-grid study")
    _add_common(p)
    p.add_argument("--threads", type=int, default=1, help="configurations run at once")
    return parser


def _parse_mesh(spec: str) -> list:
    """'2^8..2^13' or '256..8192' -> [256, 512, ..., 8192]; plain comma lists
    also accepted.  A range bound that is not a power of two is refused."""
    try:
        if ".." in spec:
            lo, hi = (2 ** int(b[2:]) if b.startswith("2^") else int(b) for b in spec.split(".."))
            if not all(isinstance(n, int) and n > 0 and n & (n - 1) == 0 for n in (lo, hi)):
                raise ValueError(spec)
            return [2 ** k for k in range(lo.bit_length() - 1, hi.bit_length())]
        return [int(tok) for tok in spec.split(",")]
    except ValueError:
        raise ConfigError(f"--mesh (config field 'meshes') must be like 2^8..2^13, with "
                          f"powers of two as range bounds, got {spec!r}")


def _build_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("top-level config must be a JSON object")
    overrides = {
        "path_kind": "path", "hurst": "hurst", "N": "N", "dim": "dim",
        "coefficient": "coefficient", "s": "s", "p": "p", "theta": "theta",
        "suite": "suite", "example": "coefficient",
    }
    for attr, key in overrides.items():
        val = getattr(args, attr, None)
        if val is not None:
            config[key] = val
    if getattr(args, "rate", False):
        config["rate"] = True
    if getattr(args, "mesh", None):
        config["meshes"] = _parse_mesh(args.mesh)
    if getattr(args, "x0", None):
        try:
            config["x0"] = [float(tok) for tok in args.x0.split(",")]
        except ValueError:
            raise ConfigError(f"--x0 (config field 'x0') must list numbers, got {args.x0!r}")
    # solve/variability default path kind: fbm driver
    if args.subcommand in ("variability", "integrate", "solve") and "path" not in config:
        config["path"] = "fbm"
    return config


RUNNERS = {
    "path": run_path,
    "variability": run_variability,
    "integrate": run_integrate,
    "solve": run_solve,
    "validate": run_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        os.makedirs(args.out_dir, exist_ok=True)
        if args.subcommand == "sweep":
            return run_sweep(config, args.seed, args.out_dir, threads=args.threads)
        return RUNNERS[args.subcommand](config, args.seed, args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except REFUSALS as exc:
        print(f"refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REFUSAL


if __name__ == "__main__":
    sys.exit(main())
