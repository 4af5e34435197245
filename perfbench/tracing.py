"""Spans and counters recorded around calls into the varpath modules.

The benchmark measures each layer (one varpath module) from outside: it
replaces the module attributes the library looks its callees up by with
wrappers that record a span (name, start, end, parent, op id) and the work
counts of the call.  Nothing in the library changes; an untraced run
installs no wrapper at all.  Spans stay in memory and are summarised when
the run ends.

Two hot callees get a counter and no span: their caller is a span of the
same module, so their time is already in that module's self time, and they
run up to hundreds of thousands of times per op.  They are
``bv_library.cayley_inverse`` (one 2x2 inverse per curl-grid point) and
``gls_integral.gls_integrate`` (one pairing per checkpoint of a series).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

import numpy as np


class NullTracer:
    """Pass-through used by untraced runs: no span, no counter."""

    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass

    def op_count(self, name):
        return 0

    def coefficient(self, coef):
        return coef


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        # each span is [name, start, end, parent index or -1, op id]
        self.spans: list = []
        self._stack: list = []
        # (op id, name) -> exact count, or summed seconds for names ending in _s
        self.counts = defaultdict(int)
        self.op_id = None

    def call(self, name, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counts[(self.op_id, name)] += amount

    def op_count(self, name):
        """The count recorded so far under the current op id."""
        return self.counts.get((self.op_id, name), 0)

    def coefficient(self, coef):
        """A copy of a ScalarBV or MatrixBV whose gradient-measure generators
        record a span and the atoms they return."""
        from varpath.bv_library import MatrixBV

        if isinstance(coef, MatrixBV):
            entries = tuple(tuple(self.coefficient(e) for e in row) for row in coef.entries)
            return dataclasses.replace(coef, entries=entries)
        gm = coef.gradient_measure
        if gm is None:
            return coef

        def gradient_measure(box, level):
            mu = self.call("bv_library.gradient_measure", gm, box, level)
            self.count("bv_library.atoms", mu.n_atoms)
            return mu

        return dataclasses.replace(coef, gradient_measure=gradient_measure)

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def totals(self, op_ids) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, counts) by name, over the given op ids."""
        op_ids = set(op_ids)
        incl, excl = defaultdict(float), defaultdict(float)
        for (name, t0, t1, _, op), s in zip(self.spans, self.self_times()):
            if op in op_ids:
                incl[name] += t1 - t0
                excl[name] += s
        counts = defaultdict(int)
        for (op, name), n in self.counts.items():
            if op in op_ids:
                counts[name] += n
        return incl, excl, counts


def _npoints(pts) -> int:
    return 1 if np.ndim(pts) == 1 else len(pts)


def install(tracer: Tracer):
    """Place wrappers on the module attributes the library calls through.
    Returns a function that restores the originals."""
    import varpath.bv_library as bv
    import varpath.doss as doss
    import varpath.gls_integral as gls
    import varpath.variability as var

    saved = []

    def patch(owner, attr, wrapper_for):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper_for(orig))

    def spanned(name):
        def wrapper_for(orig):
            def wrapped(*args, **kwargs):
                return tracer.call(name, orig, *args, **kwargs)
            return wrapped
        return wrapper_for

    def counted(name):
        def wrapper_for(orig):
            def wrapped(*args, **kwargs):
                tracer.count(name)
                return orig(*args, **kwargs)
            return wrapped
        return wrapper_for

    def classify_wrapper(orig):
        def require_finite(*args, **kwargs):
            try:
                return tracer.call("variability.classify", orig, *args, **kwargs)
            except var.VariabilityRefusal:
                tracer.count("variability.diverging")
                raise
        return require_finite

    def wm_wrapper(name):
        def wrapper_for(orig):
            def wrapped(f, *args, **kwargs):
                tracer.count(name + ".calls")
                tracer.count("frac_calc.points", f.grid.N + 1)
                return tracer.call(name, orig, f, *args, **kwargs)
            return wrapped
        return wrapper_for

    def riesz_wrapper(orig):
        def riesz_potential_many(mu, policy, xs, *args, **kwargs):
            tracer.count("measures.kernel_pairs", _npoints(xs) * mu.n_atoms)
            return tracer.call("measures.riesz_potential_many", orig, mu, policy, xs,
                               *args, **kwargs)
        return riesz_potential_many

    def evaluate_wrapper(orig):
        def evaluate(self, pts):
            tracer.count("bv_library.matrices", _npoints(pts))
            return tracer.call("bv_library.matrix_evaluate", orig, self, pts)
        return evaluate

    patch(doss, "require_finite", classify_wrapper)
    patch(doss, "gls_integrate_series", spanned("gls_integral.series"))
    patch(doss, "estimate_holder", spanned("grid_paths.estimate_holder"))
    patch(doss, "curl_check", spanned("bv_library.curl_check"))
    patch(doss, "distortion_check", spanned("bv_library.distortion_check"))
    patch(gls, "wm_derivative_left", wm_wrapper("frac_calc.wm_left"))
    patch(gls, "wm_derivative_right_adjusted", wm_wrapper("frac_calc.wm_right"))
    patch(gls, "gls_integrate", counted("gls_integral.pairings"))
    patch(var, "riesz_potential_many", riesz_wrapper)
    patch(bv, "cayley_inverse", counted("bv_library.cayley_inverse.calls"))
    patch(bv.MatrixBV, "evaluate", evaluate_wrapper)

    def uninstall():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return uninstall
