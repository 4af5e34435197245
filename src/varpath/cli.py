"""Command-line entry point.

Subcommands: path, variability, integrate, solve, validate, sweep.  Each
reads an optional JSON config (--config), sets the config field of each
flag given, runs the harness runner of the same name, and writes artifacts
plus a manifest to --out-dir.

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

from .harness import (EXIT_CONFIG, EXIT_REFUSAL, PATH_FIELDS, REFUSALS, RUNNERS,
                      ConfigError, run_sweep)

#: every flag beyond --config, --seed and --out-dir, declared once; a flag's
#: dest is the config field it sets, except --threads, a sweep option
FLAGS = {
    "--path": dict(help=f"path kind: {', '.join(PATH_FIELDS)}"),
    "--hurst": dict(type=float),
    "--N": dict(type=int),
    "--dim": dict(type=int),
    "--coefficient": dict(),
    "--s": dict(type=float),
    "--p": dict(type=float),
    "--theta": dict(type=float),
    "--rate": dict(action="store_true"),
    "--mesh": dict(dest="meshes", help="mesh range like 2^8..2^13"),
    "--example": dict(dest="coefficient", help="coefficient family name"),
    "--x0": dict(help="comma-separated start point"),
    "--suite": dict(),
    "--threads": dict(type=int, default=1, help="configurations run at once"),
}

PATH_FLAGS = ("--path", "--hurst", "--N", "--dim")
SUBCOMMANDS = {
    "path": ("generate and describe a sampled path", PATH_FLAGS),
    "variability": ("run the (s,p)-variability classifier",
                    ("--coefficient", "--s", "--p") + PATH_FLAGS),
    "integrate": ("duality-pairing integral and rate study",
                  ("--coefficient", "--theta", "--rate", "--mesh") + PATH_FLAGS),
    "solve": ("build a Doss solution and verify it",
              ("--example", "--hurst", "--N", "--theta", "--x0")),
    "validate": ("run a self-check suite", ("--suite",)),
    "sweep": ("parameter-grid study", ("--threads",)),
}

# namespace entries that are not config fields
RUN_OPTIONS = ("subcommand", "config", "seed", "out_dir", "threads")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varpath",
        description="pathwise Stieltjes integration experiments")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        # a flag left out sets no field, so the config file's value stands
        p = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=0, help="master RNG seed")
        p.add_argument("--out-dir", default=".", help="artifact directory")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
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
    flags = {k: v for k, v in vars(args).items() if k not in RUN_OPTIONS}
    if "meshes" in flags:
        flags["meshes"] = _parse_mesh(flags["meshes"])
    if "x0" in flags:
        try:
            flags["x0"] = [float(tok) for tok in flags["x0"].split(",")]
        except ValueError:
            raise ConfigError(f"--x0 (config field 'x0') must list numbers, got {args.x0!r}")
    config.update(flags)
    # variability, integrate and solve drive an fBm path unless told otherwise,
    # and validate runs the trivial suite
    if args.subcommand in ("variability", "integrate", "solve") and "path" not in config:
        config["path"] = "fbm"
    if args.subcommand == "validate" and "suite" not in config:
        config["suite"] = "trivial"
    return config


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
