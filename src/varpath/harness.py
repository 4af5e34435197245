"""Experiment orchestration: configs, manifests, and the study runners.

Every runner takes a plain dict (parsed JSON config plus CLI overrides),
writes its artifacts under an output directory, and drops a ``manifest.json``
beside them recording the config hash, the master seed, and the package
versions — enough to reproduce the run bit-for-bit.  Runners return exit
codes: 0 ok, 2 config error, 3 numerical refusal, 4 acceptance failure.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__
from .bv_library import (AtomBudgetRefusal, MatrixBV, ScalarBV, cantor_coefficient,
                         cantor_matrix, cone_matrix, constant_scalar, jump_line_matrix)
from .doss import (SolveRefusal, build_solution, closed_form_maps, residual,
                   uniqueness_check)
from .gls_integral import NormOverflowError, gls_integrate, rate_study
from .grid_paths import (TimeGrid, make_constant_path, make_fbm,
                         make_linear_path, make_power_path)
from .gridfun import GridFunction
from .variability import VariabilityParams, VariabilityRefusal, classify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSAL = 3
EXIT_FAILURE = 4

MAX_STEPS = 2 ** 22  # most grid steps N one path may take (see path_from_config)

# principled refusals: a precondition of the mathematics or of the budget failed
REFUSALS = (VariabilityRefusal, SolveRefusal, NormOverflowError, AtomBudgetRefusal)


class ConfigError(ValueError):
    """A config field is missing or out of range; message names the field."""


def _check_seed(seed) -> None:
    """Refuse a master seed that is not a non-negative integer, which
    numpy's SeedSequence would end in a bare ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed (--seed, the master RNG seed) must be a non-negative "
                          f"integer, got {seed!r}")


def _runner(run: Callable) -> Callable:
    """A study runner, run(config, seed, out_dir, ...): its seed is checked
    before any work."""
    @functools.wraps(run)
    def checked(config: dict, seed: int, out_dir: str, *args, **kwargs) -> int:
        _check_seed(seed)
        return run(config, seed, out_dir, *args, **kwargs)
    return checked


# ---------------------------------------------------------------------------
# configs and manifests


def config_digest(config: dict) -> str:
    """sha256 of the canonical (sorted-key) JSON encoding of the config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Manifest:
    """Reproducibility record written beside every artifact set."""

    subcommand: str
    config: dict
    seed: int
    outputs: list = field(default_factory=list)

    def write(self, out_dir: str) -> str:
        payload = {
            "subcommand": self.subcommand,
            "config": self.config,
            "config_sha256": config_digest(self.config),
            "seed": self.seed,
            "versions": {
                "varpath": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "outputs": sorted(self.outputs),
        }
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


JSON_TYPES = {str: "a string", bool: "true or false", list: "an array", dict: "an object"}


def _need(config: dict, key: str, kind=None, low=None, high=None, default=None,
          finite=True):
    """Field ``key`` (or a given ``default``) as ``kind`` within [low, high];
    a float must be finite, or with ``finite=False`` not NaN.  A number
    field must be a JSON number, not a string or true/false, and an int
    field refuses a fractional number rather than truncate it; a str, bool,
    list or dict field must already be a JSON string, true/false, array or
    object."""
    if key not in config and default is None:
        raise ConfigError(f"missing config field {key!r}")
    val = config.get(key, default)
    if kind in (int, float):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"config field {key!r} must be a number, got {val!r}")
        if kind is int and isinstance(val, float) and not val.is_integer():
            raise ConfigError(f"config field {key!r} must be an integer, got {val!r}")
        try:
            val = kind(val)
        except OverflowError:  # an integer beyond the double range
            raise ConfigError(f"config field {key!r} must be {kind.__name__}, got {val!r}")
    elif kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field {key!r} must be {JSON_TYPES[kind]}, got {val!r}")
    if isinstance(val, float) and (np.isnan(val) or (finite and np.isinf(val))):
        raise ConfigError(f"config field {key!r} must be {'finite' if finite else 'a number'}, "
                          f"got {val}")
    if low is not None and val < low:
        raise ConfigError(f"config field {key!r} must be >= {low}, got {val}")
    if high is not None and val > high:
        raise ConfigError(f"config field {key!r} must be <= {high}, got {val}")
    return val


def _unit_open(config: dict, key: str, default=None) -> float:
    """A float field that must lie in the open interval (0, 1)."""
    val = _need(config, key, float, default=default)
    if not 0.0 < val < 1.0:
        raise ConfigError(f"config field {key!r} must lie in (0, 1), got {val}")
    return val


def _levels(config: dict) -> tuple:
    """At least two distinct resolution levels, integers >= 1 (default 5, 7,
    9): a repeated level would fit the growth exponent through one point."""
    levels = config.get("levels", (5, 7, 9))
    if not isinstance(levels, (list, tuple)) or len(levels) < 2:
        raise ConfigError(f"config field 'levels' must list at least 2 levels, got {levels!r}")
    levels = tuple(_need({"levels": L}, "levels", int, low=1) for L in levels)
    if len(set(levels)) < len(levels):
        raise ConfigError(f"config field 'levels' must list distinct levels, got {list(levels)}")
    return levels


def _vector(config: dict, key: str, default: list) -> np.ndarray:
    """A point or direction field: an array of finite numbers."""
    return np.array([_need({key: v}, key, float) for v in
                     _need(config, key, list, default=default)])


def _write_json(out_dir: str, name: str, payload: dict, manifest: Manifest) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")
    manifest.outputs.append(name)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# coefficient registry


#: each coefficient family's builder, and the config fields of its
#: parameters as (kind, default, lower bound); the closed-form maps of a
#: matrix family take the same parameters
FAMILIES = {
    "constant": (constant_scalar, {"value": (float, 1.0, None), "dim": (int, 2, 1)}),
    "cantor": (cantor_coefficient, {"dim": (int, 2, 1)}),
    "jump_line": (jump_line_matrix, {"c": (float, 2.0, None)}),
    "cone": (cone_matrix, {"a": (float, 1.0, None), "b": (float, 2.0, None)}),
    "cantor_shear": (cantor_matrix, {}),
}


def family_from_config(config: dict):
    """The builder of the family named by config['coefficient'], and its
    parameters read from the config."""
    name = _need(config, "coefficient", str)
    if name not in FAMILIES:
        raise ConfigError(f"unknown coefficient {name!r}")
    build, fields = FAMILIES[name]
    return build, {key: _need(config, key, kind, default=default, low=low)
                   for key, (kind, default, low) in fields.items()}


def coefficient_from_config(config: dict):
    """Build a ScalarBV/MatrixBV from {'coefficient': name, ...params}."""
    build, params = family_from_config(config)
    try:
        return build(**params)
    except ValueError as exc:  # a parameter outside the family's range
        raise ConfigError(f"coefficient {config['coefficient']!r}: {exc}") from exc


# the config fields, besides 'N', that each path kind's values depend on
PATH_FIELDS = {"fbm": ("hurst", "horizon", "dim"), "power": ("d", "horizon"),
               "linear": ("velocity", "start", "horizon"), "constant": ("point",)}


def path_from_config(config: dict, seed: int):
    """Build a SampledPath from {'path': kind, ...params}.  'N' is at most
    MAX_STEPS: make_fbm's peak memory grows linearly in N, and with dim 2
    it reached 261 MiB at N = 2**20, so about 1 GiB at the bound."""
    _check_seed(seed)
    kind = _need(config, "path", str)
    if kind not in PATH_FIELDS:
        raise ConfigError(f"unknown path kind {kind!r}")
    horizon = _need(config, "horizon", float, default=1.0)
    if not horizon > 0:
        raise ConfigError(f"config field 'horizon' must be positive, got {horizon}")
    grid = TimeGrid(horizon, _need(config, "N", int, low=2, high=MAX_STEPS))
    dim = _need(config, "dim", int, default=2, low=1)
    if kind == "fbm":
        hurst = _need(config, "hurst", float, low=0.01, high=0.99)
        try:
            return make_fbm(hurst, dim, grid, seed=seed)
        except ValueError as exc:  # the embedding guard, which names H and N
            raise ConfigError(f"path 'fbm' cannot be sampled: {exc}") from exc
    try:  # values that overflow, or a parameter outside the family's range
        if kind == "power":
            return make_power_path(_need(config, "d", float, low=0.01), grid)
        if kind == "linear":
            return make_linear_path(_vector(config, "velocity", [1.0] * dim),
                                    _vector(config, "start", [0.0] * dim), grid)
        return make_constant_path(_vector(config, "point", [0.0] * dim), grid)
    except ConfigError:
        raise
    except ValueError as exc:
        fields = ", ".join(repr(k) for k in PATH_FIELDS[kind])
        raise ConfigError(f"config fields {fields} of path {kind!r}: {exc}") from exc


def inputs_from_config(config: dict, seed: int):
    """The run's path and coefficient, refused unless their dimensions agree."""
    path = path_from_config(config, seed)
    phi = coefficient_from_config(config)
    if phi.dim != path.dim:
        raise ConfigError(f"coefficient {config['coefficient']!r} has dimension {phi.dim}, "
                          f"the path has dimension {path.dim}")
    return path, phi


# ---------------------------------------------------------------------------
# runners


@_runner
def run_path(config: dict, seed: int, out_dir: str) -> int:
    _need(config, "N", int, low=4)  # Holder estimation needs 4 steps
    path = path_from_config(config, seed)
    manifest = Manifest("path", config, seed)
    csv_name = "path.csv"
    path.to_csv(os.path.join(out_dir, csv_name))
    manifest.outputs.append(csv_name)
    from .grid_paths import estimate_holder
    est = estimate_holder(path)
    _write_json(out_dir, "path_report.json", {
        "dim": path.dim, "N": path.grid.N, "horizon": path.grid.T,
        "holder_exponent": est.exponent, "holder_seminorm": est.seminorm,
        "sup_norm": float(np.abs(path.values).max()),
    }, manifest)
    manifest.write(out_dir)
    return EXIT_OK


@_runner
def run_variability(config: dict, seed: int, out_dir: str) -> int:
    path, phi = inputs_from_config(config, seed)
    params = VariabilityParams(
        s=_unit_open(config, "s"),
        p=_need(config, "p", float, default=1.0, low=1.0, finite=False),
        levels=_levels(config),
    )
    manifest = Manifest("variability", config, seed)
    report = classify(path, phi, params)
    _write_json(out_dir, "variability_report.json", report.to_dict(), manifest)
    manifest.write(out_dir)
    return EXIT_OK


@_runner
def run_integrate(config: dict, seed: int, out_dir: str) -> int:
    path, phi = inputs_from_config(config, seed)
    theta = _unit_open(config, "theta", default=0.3)
    if isinstance(phi, MatrixBV):
        raise ConfigError("integrate needs a scalar coefficient")
    from .variability import compose
    f = compose(phi, path)
    g = GridFunction(path.grid, path.values[:, 0].copy())
    manifest = Manifest("integrate", config, seed)
    payload = {"theta": theta, "value": gls_integrate(f, g, theta)}
    if _need(config, "rate", bool, default=False):
        meshes = [_need({"meshes": m}, "meshes", int) for m in
                  _need(config, "meshes", list, default=[2 ** k for k in range(4, 9)])]
        try:
            rep = rate_study(f, g, theta, meshes)
        except ValueError as exc:  # too few meshes, or one not dividing N
            raise ConfigError(f"config field 'meshes': {exc}") from exc
        payload["rate"] = {"exponent": rep.exponent, "errors": rep.errors,
                           "meshes": rep.meshes, "reference": rep.reference}
    _write_json(out_dir, "integrate_report.json", payload, manifest)
    manifest.write(out_dir)
    return EXIT_OK


@_runner
def run_solve(config: dict, seed: int, out_dir: str) -> int:
    _need(config, "N", int, low=4)  # the residual estimates Holder exponents
    driver, sigma = inputs_from_config(config, seed)
    if isinstance(sigma, ScalarBV):
        raise ConfigError("solve needs a matrix coefficient")
    maps = closed_form_maps(config["coefficient"], **family_from_config(config)[1])
    x0 = _vector(config, "x0", [1.0, 1.0])
    if x0.shape != (sigma.dim,):
        raise ConfigError(f"config field 'x0' must have {sigma.dim} entries, got {x0.tolist()}")
    theta = _unit_open(config, "theta", default=0.3)
    manifest = Manifest("solve", config, seed)
    X = build_solution(maps, driver, x0)
    csv_name = "solution.csv"
    X.to_csv(os.path.join(out_dir, csv_name))
    manifest.outputs.append(csv_name)
    rep = residual(X, sigma, driver, x0, theta,
                   s=None if config.get("s") is None else _unit_open(config, "s"),
                   n_checkpoints=_need(config, "n_checkpoints", int, default=32, low=2))
    uniq = uniqueness_check(X, maps, driver, x0)
    _write_json(out_dir, "solve_report.json", {
        "residual": rep.to_dict(), "uniqueness_sup": uniq,
        "x0": x0, "theta": theta,
    }, manifest)
    manifest.write(out_dir)
    return EXIT_OK


def _validate_trivial() -> list:
    """Cheap self-checks with closed-form answers; returns failure strings."""
    failures = []
    grid = TimeGrid(1.0, 2 ** 10)
    t = GridFunction(grid, grid.times.copy())
    val = gls_integrate(t, t, 0.4)
    if abs(val - 0.5) > 1e-3:
        failures.append(f"int t dt = {val}, expected 0.5")
    maps = closed_form_maps("jump_line", c=2.0)
    rng = np.random.default_rng(0)
    probes = rng.uniform(-3, 3, size=(200, 2))
    err = float(np.abs(maps.g(maps.f(probes)) - probes).max())
    if err > 1e-9:
        failures.append(f"g(f(x)) roundtrip error {err}")
    mu_path = make_constant_path(np.zeros(2), grid)
    from .measures import occupation_measure
    mu = occupation_measure(mu_path)
    if abs(mu.total_mass - grid.T) > 1e-12:
        failures.append("occupation measure mass mismatch")
    return failures


@_runner
def run_validate(config: dict, seed: int, out_dir: str) -> int:
    suite = config.get("suite", "trivial")
    manifest = Manifest("validate", config, seed)
    if suite != "trivial":
        raise ConfigError(f"unknown validation suite {suite!r}")
    failures = _validate_trivial()
    _write_json(out_dir, "validate_report.json",
                {"suite": suite, "failures": failures,
                 "passed": not failures}, manifest)
    manifest.write(out_dir)
    return EXIT_OK if not failures else EXIT_FAILURE


RUNNERS = {"path": run_path, "variability": run_variability, "integrate": run_integrate,
           "solve": run_solve, "validate": run_validate}


# ---------------------------------------------------------------------------
# sweep


def _sweep_cell(runner: Callable, base: dict, cell: dict, master_seed: int,
                index: int, out_dir: str) -> dict:
    config = dict(base)
    config.update(cell)
    cell_seed = int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])
    cell_dir = os.path.join(out_dir, f"cell_{index:04d}")
    os.makedirs(cell_dir, exist_ok=True)
    row = {"index": index, "cell": cell, "seed": cell_seed}
    try:
        row["exit"] = runner(config, cell_seed, cell_dir)
    except REFUSALS as exc:
        row["exit"] = EXIT_REFUSAL
        row["error"] = f"{type(exc).__name__}: {exc}"
    except ConfigError as exc:
        row["exit"] = EXIT_CONFIG
        row["error"] = str(exc)
    except Exception as exc:  # partial failures recorded, sweep continues
        row["exit"] = EXIT_FAILURE
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


@_runner
def run_sweep(config: dict, seed: int, out_dir: str, threads: int = 1) -> int:
    """Cartesian product over config['grid'] = {field: [values...]}, running
    config['study'] per cell with a per-cell derived seed.  Cell failures
    are captured in the table; the sweep always completes."""
    if threads < 1:
        raise ConfigError(f"--threads (sweep option 'threads') must be at least 1, got {threads}")
    grid_spec = _need(config, "grid", dict)
    keys = sorted(grid_spec)
    values = [_need(grid_spec, k, list) for k in keys]
    if not values or not all(values):
        raise ConfigError(f"config field 'grid' must map fields to nonempty arrays, "
                          f"got {grid_spec!r}")
    study = _need(config, "study", str, default="variability")
    if study not in RUNNERS or study == "validate":
        raise ConfigError(f"config field 'study' must name a runner other than validate, "
                          f"got {study!r}")
    runner = RUNNERS[study]
    base = {k: v for k, v in config.items() if k not in ("grid", "study")}
    cells = [dict(zip(keys, combo)) for combo in product(*values)]
    manifest = Manifest("sweep", config, seed)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda pair: _sweep_cell(runner, base, pair[1], seed, pair[0], out_dir),
                enumerate(cells)))
    else:
        rows = [_sweep_cell(runner, base, cell, seed, i, out_dir)
                for i, cell in enumerate(cells)]
    rows.sort(key=lambda r: r["index"])
    _write_json(out_dir, "sweep_table.json", {"study": study, "rows": rows}, manifest)
    manifest.write(out_dir)
    return EXIT_OK
