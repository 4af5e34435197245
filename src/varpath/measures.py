"""Discrete measures, Riesz potentials, mutual energies, occupation measures.

All kernels use the convention k_gamma(x) = max(|x|, h)^(gamma - n) with the
normalizing constant fixed to 1; h >= 0 is a cap radius tied to the
discretization scale of the measure.  Growth of capped potentials as h -> 0
is the divergence signal used by the variability classifier.

The capped-potential engine, riesz_potential_many, splits its query points
into distance blocks of a fixed size and evaluates them on a shared thread
pool with one worker per usable CPU.  Block boundaries do not depend on the
worker count and every block writes only its own entries, so the results
are bit-identical for any number of threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid_paths import SampledPath

#: query-atom pairs per distance block of riesz_potential_many: 2 MiB of
#: doubles, so a block and its kernel values stay in cache
KERNEL_BLOCK_PAIRS = 2 ** 18

#: scipy.spatial.distance.cdist, bound by the first riesz_potential_many call:
#: importing scipy.spatial costs about 0.5 s, which a process that never
#: evaluates a potential should not pay
cdist = None

CONVOLUTION_Y_REF = 1.0  # calibration point of convolution_identity_check
CONVOLUTION_HALF_WIDTH = 2e4  # R of its quadrature over [-R, R + y]


# threads that evaluate distance blocks: one per CPU this process may run on
try:
    KERNEL_WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity masks on this platform
    KERNEL_WORKERS = os.cpu_count() or 1

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _kernel_pool() -> ThreadPoolExecutor:
    """The block pool, created on first use and shared by every caller."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(KERNEL_WORKERS, thread_name_prefix="varpath-kernel")
        return _pool


def _drop_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms in R^n: locations (m, n), nonnegative weights (m,)."""

    dim: int
    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float).reshape(-1, self.dim)
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(loc) != len(w):
            raise ValueError("locations and weights must have equal length")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(w))):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    def to_csv(self, path: str) -> None:
        header = ",".join(f"x{k + 1}" for k in range(self.dim)) + ",weight"
        data = np.column_stack([self.locations, self.weights])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def measure_from_csv(filename: str) -> DiscreteMeasure:
    data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2)
    return DiscreteMeasure(dim=data.shape[1] - 1, locations=data[:, :-1], weights=data[:, -1])


@dataclass(frozen=True)
class KernelPolicy:
    """Riesz order gamma in (0, n) and cap radius h >= 0."""

    gamma: float
    cap_radius: float = 0.0

    def validate(self, dim: int) -> None:
        if not (0.0 < self.gamma < dim):
            raise ValueError(f"gamma must lie in (0, n)=(0,{dim}), got {self.gamma}")
        if self.cap_radius < 0:
            raise ValueError("cap_radius must be nonnegative")


def occupation_measure(path: SampledPath) -> DiscreteMeasure:
    """Left-endpoint discretization of the occupation measure: an atom at
    X_{t_i} with weight dt for i = 0..N-1.  Total mass is the horizon T."""
    N = path.grid.N
    w = np.full(N, path.grid.dt)
    return DiscreteMeasure(path.dim, path.values[:N], w)


def riesz_potential(mu: DiscreteMeasure, policy: KernelPolicy, x: np.ndarray) -> float:
    """Capped Riesz potential sum_j w_j * max(|x - y_j|, h)^(gamma - n).

    With h = 0 and x on an atom the result is +inf.
    """
    policy.validate(mu.dim)
    x = np.asarray(x, dtype=float).reshape(mu.dim)
    d = np.linalg.norm(mu.locations - x, axis=1)
    with np.errstate(divide="ignore"):  # h = 0 on an atom: +inf
        k = np.maximum(d, policy.cap_radius) ** (policy.gamma - mu.dim)
    return float(np.dot(mu.weights, k))


def riesz_potential_many(mu: DiscreteMeasure, policy, xs: np.ndarray) -> np.ndarray:
    """Vectorized riesz_potential over rows of xs (m, n).

    ``policy`` is one KernelPolicy, giving shape (m,), or a sequence of
    policies that share one cap radius, giving (k, m): every order is then
    evaluated on the same block of pairwise distances.  Each block takes its
    log once and one exp per order, so an order's values do not depend on
    which other orders share the call.

    A block holds KERNEL_BLOCK_PAIRS // n_atoms query rows.  With two or
    more blocks, they run on the shared pool of KERNEL_WORKERS threads
    (numpy and cdist release the interpreter lock); each block writes only
    its own columns of the result, with the same operations as inline, so
    the result does not depend on the number of threads.
    """
    global cdist
    policies = [policy] if isinstance(policy, KernelPolicy) else list(policy)
    for pol in policies:
        pol.validate(mu.dim)
    h = policies[0].cap_radius
    if any(pol.cap_radius != h for pol in policies):
        raise ValueError("policies must share one cap radius")
    xs = np.asarray(xs, dtype=float).reshape(-1, mu.dim)
    out = np.zeros((len(policies), len(xs)))
    if mu.n_atoms:
        if cdist is None:  # on the caller's thread: a worker never imports
            from scipy.spatial.distance import cdist
        expo = [pol.gamma - mu.dim for pol in policies]
        chunk = max(1, KERNEL_BLOCK_PAIRS // mu.n_atoms)

        def block(lo):
            # numpy and scipy only: a worker thread never calls into varpath
            with np.errstate(divide="ignore"):  # h = 0 on an atom: +inf
                d = cdist(xs[lo:lo + chunk], mu.locations)
                np.maximum(d, h, out=d)
                logd = np.log(d, out=d)
                k = np.empty_like(logd)
                for j, e in enumerate(expo):
                    out[j, lo:lo + chunk] = np.exp(np.multiply(logd, e, out=k), out=k) @ mu.weights

        starts = range(0, len(xs), chunk)
        if len(starts) > 1 and KERNEL_WORKERS > 1:
            list(_kernel_pool().map(block, starts))  # re-raises a block's error
        else:
            for lo in starts:
                block(lo)
    return out[0] if isinstance(policy, KernelPolicy) else out


def mutual_energy(mu: DiscreteMeasure, nu: DiscreteMeasure, policy: KernelPolicy) -> float:
    """Mutual Riesz energy: double sum of the capped kernel against both
    atom sets.  Symmetric in (mu, nu); equals the nu-integral of the
    mu-potential."""
    if mu.dim != nu.dim:
        raise ValueError("measures must share a dimension")
    pots = riesz_potential_many(mu, policy, nu.locations)
    return float(np.dot(nu.weights, pots))


def fractional_maximal(mu: DiscreteMeasure, gamma: float, R: float, x: np.ndarray,
                       n_radii: int = 40) -> float:
    """Truncated fractional maximal function sup_{0<r<R} r^(gamma-n) mu(B(x,r)),
    the sup taken over a geometric radius grid ending at R."""
    if R <= 0:
        raise ValueError("truncation radius must be positive")
    x = np.asarray(x, dtype=float).reshape(mu.dim)
    if mu.n_atoms == 0:
        return 0.0
    dists = np.linalg.norm(mu.locations - x, axis=1)
    r_min = max(dists[dists > 0].min() if np.any(dists > 0) else R / 2 ** n_radii,
                R / 2 ** n_radii)
    radii = np.geomspace(min(r_min, R), R, n_radii)
    best = 0.0
    for r in radii:
        m = mu.weights[dists <= r].sum()
        best = max(best, r ** (gamma - mu.dim) * m)
    return float(best)


@dataclass(frozen=True)
class RegularityEstimate:
    exponent: float
    residual: float
    radii: np.ndarray
    sup_masses: np.ndarray


def upper_regularity_exponent(mu: DiscreteMeasure, radii: Sequence[float]) -> RegularityEstimate:
    """Fit d in sup_x mu(B(x, r)) ~ r^d over the given radius sweep, the sup
    over atom locations.  Returns the slope and the max log-residual."""
    radii = np.asarray(sorted(radii), dtype=float)
    if len(radii) < 3:
        raise ValueError("need at least 3 radii")
    if mu.n_atoms == 0:
        raise ValueError("empty measure")
    from scipy.spatial import cKDTree  # loaded here: see cdist

    tree = cKDTree(mu.locations)
    sups = np.empty(len(radii))
    uniform = np.allclose(mu.weights, mu.weights[0])
    for j, r in enumerate(radii):
        # sup over atoms of ball mass; query in bulk
        if uniform:
            counts = tree.query_ball_point(mu.locations, r, return_length=True)
            sups[j] = counts.max() * mu.weights[0]
        else:
            neighbors = tree.query_ball_point(mu.locations, r)
            sups[j] = max(mu.weights[idx].sum() for idx in neighbors)
    usable = sups > 0
    if usable.sum() < 3:
        raise ValueError("fewer than 3 usable radii (zero masses)")
    lr, ls = np.log(radii[usable]), np.log(sups[usable])
    slope, intercept = np.polyfit(lr, ls, 1)
    resid = float(np.abs(ls - (slope * lr + intercept)).max())
    return RegularityEstimate(float(slope), resid, radii, sups)


@dataclass(frozen=True)
class HistogramDensity:
    edges: list
    density: np.ndarray
    cell: float


def local_time_density(mu: DiscreteMeasure, cell: float) -> HistogramDensity:
    """Histogram estimate of the density of mu with respect to volume, on an
    axis-aligned grid of the given cell width."""
    if cell <= 0:
        raise ValueError("cell width must be positive")
    loc = mu.locations
    edges = []
    for k in range(mu.dim):
        lo, hi = loc[:, k].min(), loc[:, k].max()
        nbins = max(1, int(np.ceil((hi - lo) / cell)))
        edges.append(np.linspace(lo, lo + nbins * cell, nbins + 1))
    hist, edges = np.histogramdd(loc, bins=edges, weights=mu.weights)
    return HistogramDensity(edges=list(edges), density=hist / cell ** mu.dim, cell=cell)


def _riesz_convolution_raw(gamma1: float, gamma2: float, y: float) -> float:
    """1D quadrature of int |x|^(g1-1) |x-y|^(g2-1) dx over [-R, R+y]
    (R = CONVOLUTION_HALF_WIDTH), splitting at the two singular points."""
    from scipy import integrate  # loaded here: it pulls in most of scipy

    def integrand(x):
        return np.abs(x) ** (gamma1 - 1.0) * np.abs(x - y) ** (gamma2 - 1.0)

    val, _ = integrate.quad(integrand, -CONVOLUTION_HALF_WIDTH, CONVOLUTION_HALF_WIDTH + y,
                            points=[0.0, y], limit=200)
    return val


def convolution_identity_check(gamma1: float, gamma2: float, y: float) -> float:
    """Scaling check for the composition of two Riesz kernels in one
    dimension: the convolution evaluated at y and at the reference point
    CONVOLUTION_Y_REF must scale like |y|^(gamma1+gamma2-1).  The unknown
    constant ratio is calibrated at the reference point and divided out;
    the return value is the relative error of the scaling law."""
    n = 1
    if gamma1 + gamma2 >= n:
        raise ValueError("gamma1 + gamma2 must be < n for a convergent convolution")
    if y == 0:
        raise ValueError("y must be nonzero")
    ref = _riesz_convolution_raw(gamma1, gamma2, CONVOLUTION_Y_REF)
    cal = ref / CONVOLUTION_Y_REF ** (gamma1 + gamma2 - n)  # calibrated constant ratio
    val = _riesz_convolution_raw(gamma1, gamma2, y)
    predicted = cal * abs(y) ** (gamma1 + gamma2 - n)
    return abs(val - predicted) / abs(predicted)
