"""The three benchmark workloads: inputs, ops and output checks.

Each workload is a closed loop driven by one client: the next op starts
when the previous one returns.  Ops come in fixed rounds (one op of every
kind, in a fixed order) and rounds in cycles, and a run always measures
whole cycles, so every run sees the same mix of op kinds and input sizes
whatever its length.  The seed draws every random input (fBm seeds, query
probes), all of it during set-up.  Output checks run after the timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from varpath.bv_library import (cantor_coefficient, cantor_matrix, cone_matrix,
                                jump_line_matrix)
from varpath.doss import (SolveRefusal, build_solution, closed_form_maps,
                          residual, solve_nd, uniqueness_check)
from varpath.gls_integral import NormOverflowError
from varpath.grid_paths import TimeGrid, make_fbm
from varpath.variability import (VariabilityParams, VariabilityRefusal, classify,
                                 classify_sweep)


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=n)]


def _spread_rank(r: int, i: int, n_strata: int, m: int) -> int:
    """Rank, among m candidates sorted by size, of the input for kind i in
    round r.  The sizes split into n_strata strata of equal count, and kind
    i takes stratum (i + r) mod n_strata, so each cycle of n_strata rounds
    visits every pair of kind and stratum once.  Each cycle takes a new
    point inside the strata (a van der Corput sequence, starting at their
    centres)."""
    c, v, f = r // n_strata, 0.0, 0.5
    while c:
        v += f * (c & 1)
        c >>= 1
        f /= 2
    return min(m - 1, int(((i + r) % n_strata + (v + 0.5) % 1.0) / n_strata * m))


class Workload:
    name = ""
    # the library's principled refusals (its command line exits 3 on them)
    refusals = (SolveRefusal, VariabilityRefusal, NormOverflowError)
    # rounds per cycle: a run measures whole cycles, and a traced run one cycle
    cycle = 1

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.t = tracer

    def fbm(self, hurst, grid, seed):
        return self.t.call("grid_paths.make_fbm", make_fbm, hurst, 2, grid, seed)

    def setup(self):
        """Build coefficients and inputs, then warm up; may run several times."""
        raise NotImplementedError

    def instrument(self, tracer):
        """Route later ops through the tracer (traced coefficients included)."""
        self.t = tracer

    def round(self, r: int) -> list:
        """The ops of round r, as (label, zero-argument callable)."""
        raise NotImplementedError

    def check(self, records) -> dict:
        """Output checks: op index -> reason, for every op whose output is wrong."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# phase_sweep: classify_sweep of fBm paths against the Cantor coefficient
# ---------------------------------------------------------------------------

H_SWEEP = (0.5, 0.6, 0.7, 0.8, 0.9)
S_VALUES = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
SWEEP_BASE = VariabilityParams(s=0.5, p=1.0, levels=(4, 6, 8))
SWEEP_N = 512
SWEEP_BINS = 512  # classify_sweep's default histogram size
SWEEP_CANDIDATES = 128
SWEEP_STRATA = 5
EXACT_CHECKS = len(S_VALUES)


def _cantor_points(depth):
    """Left endpoints of the 2^depth Cantor intervals of length 3^-depth."""
    pts = np.zeros(1)
    for _ in range(depth):
        pts = np.concatenate([pts / 3.0, pts / 3.0 + 2.0 / 3.0])
    return pts


CANTOR_DEPTH7 = _cantor_points(7)


def _sweep_size(path):
    """Atoms of the level-8 gradient measure of the Cantor coefficient on
    the path's inflated box: Cantor points of depth 7 in the box's x1-span
    times lateral cells of width 2^-8 across it.  The op's work and memory
    grow with it."""
    lo = path.values.min(axis=0) - SWEEP_BASE.margin
    hi = path.values.max(axis=0) + SWEEP_BASE.margin
    nx = np.count_nonzero((CANTOR_DEPTH7 >= lo[0] - 3.0 ** -7) & (CANTOR_DEPTH7 <= hi[0]))
    return nx * np.ceil((hi[1] - lo[1]) * 2 ** 8)


class PhaseSweep(Workload):
    """One op: classify_sweep of one N=512, 2-D fBm path against
    cantor_coefficient(2), levels (4, 6, 8), p = 1, seven s-values.  A round
    runs H = 0.5, 0.6, 0.7, 0.8, 0.9 in turn.

    The seed draws SWEEP_CANDIDATES paths per H.  An op's cost and memory
    follow the size of the path's range (_sweep_size), which varies several
    fold between draws, so the candidates are sorted by it and visited at
    spread ranks (_spread_rank): every run sees the same spread of sizes."""

    name = "phase_sweep"
    cycle = SWEEP_STRATA

    def setup(self):
        rng = np.random.default_rng(self.seed)
        grid = TimeGrid(1.0, SWEEP_N)
        self.phi = cantor_coefficient(2)
        self.phi_op = self.phi
        self.paths = [sorted((self.fbm(H, grid, s) for s in _seeds(rng, SWEEP_CANDIDATES)),
                             key=_sweep_size) for H in H_SWEEP]
        self.n_unique = [[len(np.unique(p.values, axis=0)) for p in row] for row in self.paths]
        # a fixed small warm-up input: its cost must not depend on the seed
        warm = self.fbm(0.7, TimeGrid(1.0, 64), 0)
        classify_sweep(warm, self.phi, S_VALUES, SWEEP_BASE)

    def instrument(self, tracer):
        super().instrument(tracer)
        self.phi_op = tracer.coefficient(self.phi)

    def _op(self, path, n_unique):
        reports = self.t.call("variability.classify_sweep", classify_sweep,
                              path, self.phi_op, S_VALUES, SWEEP_BASE)
        self.t.count("variability.sweep_pairs", n_unique * self.t.op_count("bv_library.atoms"))
        self.t.count("variability.diverging", sum(r.verdict == "diverging" for r in reports))
        return path, reports

    def round(self, r):
        ops = []
        for i, H in enumerate(H_SWEEP):
            j = _spread_rank(r, i, SWEEP_STRATA, SWEEP_CANDIDATES)
            p, n = self.paths[i][j], self.n_unique[i][j]
            ops.append((f"sweep H={H}", lambda p=p, n=n: self._op(p, n)))
        return ops

    def check(self, records):
        bad = {}
        for i, rec in enumerate(records):
            if rec.error is None:
                reason = _sweep_malformed(rec.output[1])
                if reason:
                    bad[i] = reason
        # exact classify at one s-value per drawn op; the histogram kernel
        # differs from the exact one by at most half a log-bin per distance
        ok = [i for i in range(len(records)) if records[i].error is None and i not in bad]
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(ok, size=min(EXACT_CHECKS, len(ok)), replace=False) if ok else []
        for k, i in enumerate(picks):
            path, reports = records[i].output
            j = k % len(S_VALUES)
            s = S_VALUES[j]
            exact = classify(path, self.phi, VariabilityParams(s=s, p=1.0, levels=SWEEP_BASE.levels))
            approx = reports[j]
            diag = float(np.linalg.norm(np.ptp(path.values, axis=0) + 2 * SWEEP_BASE.margin))
            for L, a, e in zip(exact.levels, approx.lp_norms, exact.lp_norms):
                width = (np.log(diag + 1.0) - np.log(self.phi.scale(L))) / SWEEP_BINS
                tol = np.expm1((1.0 + s) * width / 2) + 1e-9
                if abs(a - e) > tol * e:
                    bad[i] = (f"s={s} level {L}: sweep norm {a:.6g} vs exact {e:.6g} "
                              f"(relative gap {abs(a - e) / e:.2e} > {tol:.2e})")
                    break
            else:
                if approx.verdict != exact.verdict:
                    bad[i] = f"s={s}: sweep verdict {approx.verdict} vs exact {exact.verdict}"
        return bad


def _sweep_malformed(reports):
    if len(reports) != len(S_VALUES):
        return f"{len(reports)} reports for {len(S_VALUES)} s-values"
    for s, r in zip(S_VALUES, reports):
        if r.s != s or tuple(r.levels) != SWEEP_BASE.levels or r.p != SWEEP_BASE.p:
            return f"report for s={s} has s={r.s}, levels={r.levels}, p={r.p}"
        norms = np.asarray(r.lp_norms, dtype=float)
        if len(norms) != len(SWEEP_BASE.levels) or not np.all(np.isfinite(norms)) \
                or np.any(norms < 0):
            return f"s={s}: bad norms {r.lp_norms}"
        if r.verdict not in ("finite", "diverging", "inconclusive") \
                or not np.isfinite(r.growth_exponent):
            return f"s={s}: bad verdict {r.verdict} / exponent {r.growth_exponent}"
    return None


# ---------------------------------------------------------------------------
# residual_decay: build_solution, residual and uniqueness_check
# ---------------------------------------------------------------------------

RESIDUAL_N = (2 ** 10, 2 ** 12, 2 ** 14)
RESIDUAL_CANDIDATES = 24
RESIDUAL_STRATA = 2


@dataclass(frozen=True)
class Family:
    name: str
    hurst: float
    x0: tuple
    params: dict
    sigma: object


def _box_area(path, margin=0.5):
    """Area of the path's range inflated by the classifier's default margin:
    the gradient measures the classifier builds grow with it."""
    return float(np.prod(np.ptp(path.values, axis=0) + 2 * margin))


class ResidualDecay(Workload):
    """One op: build_solution from closed_form_maps, residual (theta 0.3,
    s 0.45, 32 checkpoints, refine 4), uniqueness_check.  A round runs
    jump_line (c 2, H 0.75, x0 (1,1)) and cantor_shear (H 0.8, x0 (0.3,0.4))
    alternately at N = 2^10, 2^12, 2^14.  The seed draws RESIDUAL_CANDIDATES
    drivers per kind, visited at spread ranks of their range (_box_area),
    as in phase_sweep."""

    name = "residual_decay"
    cycle = RESIDUAL_STRATA

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.families = (
            Family("jump_line", 0.75, (1.0, 1.0), {"c": 2.0}, jump_line_matrix(2.0)),
            Family("cantor_shear", 0.8, (0.3, 0.4), {}, cantor_matrix()),
        )
        self.sigma_op = {f.name: f.sigma for f in self.families}
        self.maps = {f.name: closed_form_maps(f.name, **f.params) for f in self.families}
        self.kinds = [(f, N) for N in RESIDUAL_N for f in self.families]
        self.drivers = [sorted((self.fbm(f.hurst, TimeGrid(1.0, N), s)
                                for s in _seeds(rng, RESIDUAL_CANDIDATES)), key=_box_area)
                        for f, N in self.kinds]
        # a fixed warm-up input: its cost must not depend on the seed
        fam = self.families[0]
        self._op(fam, self.fbm(fam.hurst, TimeGrid(1.0, RESIDUAL_N[0]), 0))

    def instrument(self, tracer):
        super().instrument(tracer)
        self.sigma_op = {f.name: tracer.coefficient(f.sigma) for f in self.families}

    def _op(self, fam, Y):
        x0 = np.asarray(fam.x0)
        maps = self.maps[fam.name]
        X = self.t.call("doss.build_solution", build_solution, maps, Y, x0)
        rep = self.t.call("doss.residual", residual, X, self.sigma_op[fam.name], Y, x0, 0.3,
                          s=0.45, n_checkpoints=32, refine=4)
        dev = self.t.call("doss.uniqueness_check", uniqueness_check, X, maps, Y, x0)
        return rep.sup, dev, float(np.abs(Y.values).max())

    def round(self, r):
        ops = []
        for i, (f, N) in enumerate(self.kinds):
            Y = self.drivers[i][_spread_rank(r, i, RESIDUAL_STRATA, RESIDUAL_CANDIDATES)]
            ops.append((f"{f.name} N={N}", lambda f=f, Y=Y: self._op(f, Y)))
        return ops

    def check(self, records):
        bad = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            sup, dev, ymax = rec.output
            if not np.isfinite(sup):
                bad[i] = f"residual sup {sup} is not finite"
            elif not dev <= 1e-9 * (1.0 + ymax):
                bad[i] = f"uniqueness deviation {dev:.3g} > 1e-9 (1 + {ymax:.3g})"
        return bad


# ---------------------------------------------------------------------------
# solve_map: solve_nd for jump_line, queries, and cone refusals
# ---------------------------------------------------------------------------

POOL_ROUNDS = 16     # solve_map inputs; a longer run reuses them in order
# Newton inversion refuses at some query points (see DESIGN.md), and each
# refusal costs seconds of restarts, so seeded probes made a run's time swing
# with the number of refusals.  The probes and drivers are fixed instead:
# every run meets the same refusals.
SOLVE_INPUT_SEED = 0
C_VALUES = (1.5, 2.0, 3.0)
HALF_WIDTHS = (0.5, 1.0, 2.0)
N_PROBES = 32
DRIVER_N = 32
DRIVER_H = 0.75
MAP_TOL = 1e-3        # criterion 9's tolerance
LOCUS_GAP = 0.05      # criterion 9's distance from the jump locus
CONE = (1.0, 2.0)


@dataclass(frozen=True)
class MapQueries:
    g_points: np.ndarray     # probes of g (see _off_locus)
    f_sources: np.ndarray    # f's exact answers (see _off_locus)
    f_points: np.ndarray     # closed-form g of f_sources, offset to the base
    driver: object           # short fBm driver for build_solution


def _off_locus(rng, c, w):
    """N_PROBES points uniform in the inner box [-0.75w, 0.75w]^2 and at
    least LOCUS_GAP from the jump line x2 = c x1, as in criterion 9."""
    pts = rng.uniform(-0.75 * w, 0.75 * w, size=(8 * N_PROBES, 2))
    pts = pts[np.abs(pts[:, 1] - c * pts[:, 0]) > LOCUS_GAP]
    if len(pts) < N_PROBES:
        raise RuntimeError("too few probes off the jump locus")
    return pts[:N_PROBES]


class SolveMap(Workload):
    """Jump op: solve_nd (checks on) for jump_line_matrix(c) on the square of
    half-width w, base (-0.75w, -0.75w); then g on 32 probes, f on 32 image
    points, and build_solution on a 32-step fBm driver from x0 (0.4w, -0.4w).
    Cone op: solve_nd for cone_matrix(1, 2) on the same square, which must
    refuse.  A round runs w = 0.5, 1, 2, each as a jump op then a cone op,
    with c rotating over 1.5, 2, 3 from round to round."""

    name = "solve_map"

    def setup(self):
        rng = np.random.default_rng(SOLVE_INPUT_SEED)
        self.sigmas = {c: jump_line_matrix(c) for c in C_VALUES}
        self.cone = cone_matrix(*CONE)
        self.closed = {c: closed_form_maps("jump_line", c=c) for c in C_VALUES}
        self.queries = []
        for r in range(POOL_ROUNDS):
            row = []
            for i, w in enumerate(HALF_WIDTHS):
                c = self._c(r, i)
                base, _ = self._square(w)
                gp = _off_locus(rng, c, w)
                src = _off_locus(rng, c, w)
                fp = self.closed[c].g(src) - self.closed[c].g(base)
                # a horizon whose fBm scale is 3% of the half-width keeps X in the square
                T = (0.03 * w) ** (1.0 / DRIVER_H)
                Y = self.fbm(DRIVER_H, TimeGrid(T, DRIVER_N), _seeds(rng, 1)[0])
                row.append(MapQueries(gp, src, fp, Y))
            self.queries.append(row)
        self._cone_op(HALF_WIDTHS[0])

    @staticmethod
    def _c(r, i):
        return C_VALUES[(r + i) % len(C_VALUES)]

    @staticmethod
    def _square(w):
        return np.array([-0.75 * w, -0.75 * w]), np.array([[-w, w], [-w, w]])

    def _jump_op(self, c, w, q):
        base, region = self._square(w)
        maps = self.t.call("doss.solve_nd", solve_nd, self.sigmas[c], base, region)
        g_vals = self.t.call("doss.g_query", maps.g, q.g_points)
        f_vals = self.t.call("doss.f_query", maps.f, q.f_points)
        x0 = np.array([0.4 * w, -0.4 * w])
        X = self.t.call("doss.build_solution", build_solution, maps, q.driver, x0)
        # build_solution queries g at x0 and f at every driver sample
        self.t.count("doss.query_points", len(q.g_points) + len(q.f_points) + DRIVER_N + 2)
        return g_vals, f_vals, X.values

    def _cone_op(self, w):
        base, region = self._square(w)
        t0 = perf_counter()
        try:
            self.t.call("doss.solve_nd", solve_nd, self.cone, base, region)
        except SolveRefusal as exc:
            self.t.count("doss.refusals")
            self.t.count("doss.refusal_s", perf_counter() - t0)
            return exc
        return None

    def round(self, r):
        k = r % POOL_ROUNDS
        ops = []
        for i, w in enumerate(HALF_WIDTHS):
            c = self._c(r, i)
            q = self.queries[k][i]
            ops.append((f"jump_line w={w}", lambda c=c, w=w, q=q: self._jump_op(c, w, q)))
            ops.append((f"cone w={w}", lambda w=w: self._cone_op(w)))
        return ops

    def check(self, records):
        bad = {}
        n_kinds = 2 * len(HALF_WIDTHS)
        for i, rec in enumerate(records):
            if rec.error is not None:
                continue
            r, pos = divmod(i, n_kinds)
            w = HALF_WIDTHS[pos // 2]
            if pos % 2:
                exc = rec.output
                if exc is None:
                    bad[i] = "cone construction did not refuse"
                elif "cross-derivative" not in str(exc) or "max_residual" not in exc.report:
                    bad[i] = f"cone refused at another stage: {exc}"
                continue
            reason = self._check_jump(self._c(r, pos // 2), w,
                                      self.queries[r % POOL_ROUNDS][pos // 2], rec.output)
            if reason:
                bad[i] = reason
        return bad

    def _check_jump(self, c, w, q, output):
        g_vals, f_vals, X = output
        cf = self.closed[c]
        base, _ = self._square(w)
        off = cf.g(base)
        g_err = np.abs(g_vals - (cf.g(q.g_points) - off)).max()
        f_err = np.abs(f_vals - q.f_sources).max()
        x0 = np.array([0.4 * w, -0.4 * w])
        y = q.driver.values + cf.g(x0)
        far = np.abs(y[:, 0]) > LOCUS_GAP   # the jump locus maps to y1 = 0
        x_err = np.abs(X - cf.f(y))[far].max(initial=0.0)
        if not max(g_err, f_err, x_err) < MAP_TOL:
            return (f"c={c} w={w}: g err {g_err:.2e}, f err {f_err:.2e}, "
                    f"solution err {x_err:.2e} (tolerance {MAP_TOL:g})")
        return None


WORKLOADS = {w.name: w for w in (PhaseSweep, ResidualDecay, SolveMap)}
