#!/usr/bin/env python3
"""Benchmark of the varpath library: one closed-loop workload per run.

    python3 perfbench/run.py --workload phase_sweep --seed 1 --seconds 20 --trace 0

Runs from any working directory: the package is imported from the ``src``
directory next to this file's parent, with no install.  BLAS and OpenMP
pools are capped at one thread before numpy loads.

Order of a run: imports, SETUP_REPEATS set-ups (inputs from the seed, then
a warm-up op), the timed loop of whole rounds until ``--seconds`` have
passed, then the output checks.  A failing op is counted and the loop goes
on.  The last line of standard output is the JSON result; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced loop of a fixed number of rounds (see
tracing.py).  The lines before it
give the op table, the tail latency where a run has at least 20 ops, the
failure ratio and the environment.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAPS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

# per-layer metrics of a traced loop: (name, unit, kind); kind "s" is the
# inclusive time of the spans of that name, "self_s" their self time,
# "count" a counter (exact, or summed seconds for a name ending in _s)
LAYER_METRICS = (
    ("grid_paths.make_fbm.s", "s", "setup"),
    ("grid_paths.estimate_holder.s", "s", "s"),
    ("bv_library.gradient_measure.s", "s", "s"),
    ("bv_library.atoms", "count", "count"),
    ("bv_library.matrix_evaluate.s", "s", "s"),
    ("bv_library.matrices", "count", "count"),
    ("bv_library.curl_check.s", "s", "s"),
    ("bv_library.distortion_check.s", "s", "s"),
    ("bv_library.cayley_inverse.calls", "count", "count"),
    ("measures.riesz_potential_many.s", "s", "s"),
    ("measures.kernel_pairs", "count", "count"),
    ("variability.classify_sweep.self_s", "s", "self_s"),
    ("variability.sweep_pairs", "count", "count"),
    ("variability.classify.self_s", "s", "self_s"),
    ("variability.diverging", "count", "count"),
    ("frac_calc.wm_left.s", "s", "s"),
    ("frac_calc.wm_left.calls", "count", "count"),
    ("frac_calc.wm_right.s", "s", "s"),
    ("frac_calc.wm_right.calls", "count", "count"),
    ("frac_calc.points", "count", "count"),
    ("gls_integral.series.self_s", "s", "self_s"),
    ("gls_integral.pairings", "count", "count"),
    ("doss.solve_nd.self_s", "s", "self_s"),
    ("doss.g_query.s", "s", "s"),
    ("doss.f_query.s", "s", "s"),
    ("doss.query_points", "count", "count"),
    ("doss.residual.self_s", "s", "self_s"),
    ("doss.build_solution.s", "s", "s"),
    ("doss.uniqueness_check.s", "s", "s"),
    ("doss.refusals", "count", "count"),
    ("doss.refusal_s", "s", "count"),
)
LAYERS = ("grid_paths", "measures", "bv_library", "variability", "frac_calc",
          "gls_integral", "doss")


class OpRecord:
    """One op of the loop; `error` is set when it raised, and `refused` when
    what it raised is one of the library's refusals (an answer withheld,
    not a wrong answer)."""

    __slots__ = ("label", "latency", "output", "error", "refused")

    def __init__(self, label, latency, output, error, refused):
        self.label, self.latency, self.output = label, latency, output
        self.error, self.refused = error, refused


def run_ops(workload, tracer, seconds=None, rounds=None):
    """Closed loop over whole rounds: whole cycles until `seconds` have
    passed, or a fixed number of rounds."""
    records = []
    start = perf_counter()
    r = 0
    while True:
        for label, fn in workload.round(r):
            tracer.op_id = len(records)
            t0 = perf_counter()
            out, err, refused = None, None, False
            try:
                out = tracer.call("op", fn)
            except Exception as exc:  # a failing op is counted; the loop goes on
                err = f"{type(exc).__name__}: {exc}"
                refused = isinstance(exc, workload.refusals)
                print(f"op {len(records)} ({label}) failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            records.append(OpRecord(label, perf_counter() - t0, out, err, refused))
        r += 1
        if r == rounds or (rounds is None and r % workload.cycle == 0
                           and perf_counter() - start >= seconds):
            return records, perf_counter() - start, r


median = statistics.median


def kind_p50(by_kind):
    """Geometric mean over op kinds of each kind's median latency.  The
    kinds of a workload differ up to 20-fold in latency, so the median of
    the whole mix falls in the gap between two kinds and jumps between
    them from run to run; each kind's median does not."""
    return math.exp(statistics.fmean(math.log(median(v)) for v in by_kind.values()))


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND ops
    beyond it, or None below 2 * TAIL_BEYOND ops."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(latencies)[n - TAIL_BEYOND - 1]


def layer_metrics(tracer, n_ops, setup_make_fbm, overhead):
    incl, excl, counts = tracer.totals(range(n_ops))
    out = {}
    for name, unit, kind in LAYER_METRICS:
        if kind == "setup":
            value = setup_make_fbm
        elif kind == "s":
            value = incl.get(name[:-2], 0.0)
        elif kind == "self_s":
            value = excl.get(name[:-7], 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    for layer in LAYERS:
        value = sum((v for k, v in excl.items() if k.split(".", 1)[0] == layer), 0.0)
        out[f"{layer}.self_s"] = {"value": value, "unit": "s"}
    out["trace.spans"] = {"value": sum(1 for sp in tracer.spans if sp[4] in range(n_ops)),
                          "unit": "count"}
    out["trace.op_s"] = {"value": incl.get("op", 0.0), "unit": "s"}
    out["trace.glue_s"] = {"value": excl.get("op", 0.0), "unit": "s"}
    out["trace.overhead"] = {"value": overhead, "unit": "1"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="varpath benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "varpath", "__init__.py")):
        print(f"varpath sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import resource
    import platform

    import numpy as np
    import scipy

    import tracing
    import workloads
    import_s = perf_counter() - _T0

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)

    setup_times, make_fbm_times = [], []
    for k in range(SETUP_REPEATS):
        tracer.op_id = f"setup{k}"
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
        if args.trace:
            make_fbm_times.append(tracer.totals([tracer.op_id])[0].get("grid_paths.make_fbm", 0.0))
    setup_s = import_s + median(setup_times)

    if args.trace:
        # the traced loop runs one cycle, so that its counts repeat exactly;
        # round 0 also runs untraced before and after it, and the overhead
        # compares the traced round 0 with the mean of the two
        untraced = tracing.NullTracer()
        wl.instrument(untraced)
        before, _, _ = run_ops(wl, untraced, rounds=1)
        uninstall = tracing.install(tracer)
        wl.instrument(tracer)
        records, loop_s, rounds = run_ops(wl, tracer, rounds=wl.cycle)
    else:
        records, loop_s, rounds = run_ops(wl, tracer, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    overhead = None
    if args.trace:
        uninstall()
        wl.instrument(untraced)
        after, _, _ = run_ops(wl, untraced, rounds=1)
        traced_round = sum(r.latency for r in records[:len(before)])
        untraced_round = sum(r.latency for r in before + after) / 2
        overhead = 1.0 - untraced_round / traced_round

    tracer.op_id = "check"
    t0 = perf_counter()
    bad = wl.check(records)
    check_s = perf_counter() - t0
    # every failed op counts in `failed`; `correct` is false when an output
    # was wrong, an expected refusal was missing, or an op crashed, but not
    # for a refusal, which withholds an answer rather than giving a wrong one
    crashed = {i for i, rec in enumerate(records) if rec.error is not None and not rec.refused}
    failed = {i: rec.error for i, rec in enumerate(records) if rec.error is not None}
    failed.update(bad)
    correct = not bad and not crashed

    # latencies of failed ops are left out; for the tail they count as
    # missing every limit
    n = len(records)
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds, {n} ops in {loop_s:.3f} s "
          f"(trace {args.trace}); set-up {setup_s:.3f} s; checks {check_s:.3f} s")
    kinds = {}
    for i, r in enumerate(records):
        if i not in failed:
            kinds.setdefault(r.label, []).append(r.latency)
    for label, lat in kinds.items():
        print(f"  {label:<28} n={len(lat):<3} median {median(lat):.4f} s")
    tl = tail([math.inf if i in failed else r.latency for i, r in enumerate(records)])
    if tl:
        print(f"  op_tail_s: p{tl[0]:.1f} of {n} ops = {tl[1]:.4f} s")
    else:
        print(f"  op_tail_s: not reported ({n} ops < {2 * TAIL_BEYOND})")
    print(f"  fail_ratio: {len(failed)}/{n} = {len(failed) / n:.4f}")
    for i, reason in sorted(failed.items()):
        print(f"  FAILED op {i} ({records[i].label}): {reason}")
    if overhead is not None:
        print(f"  tracing overhead: {100 * overhead:.1f}% of untraced ops_per_s "
              f"(round 0, against untraced runs of it before and after)")
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "thread_caps": THREAD_CAPS,
           "rounds": rounds, "ops": n,
           "op_tail": None if tl is None else {"percentile": tl[0], "ops": n, "value_s": tl[1]},
           "fail_ratio": len(failed) / n}
    print("env " + json.dumps(env))

    if args.trace:
        make_fbm_s = median(make_fbm_times)
        metrics = layer_metrics(tracer, n, make_fbm_s, overhead)
        layer_sum = sum(metrics[f"{x}.self_s"]["value"] for x in LAYERS)
        print(f"  layer self times {layer_sum:.4f} s + glue "
              f"{metrics['trace.glue_s']['value']:.4f} s = traced op time "
              f"{metrics['trace.op_s']['value']:.4f} s")
    else:
        metrics = {
            "ops_per_s": {"value": n / loop_s, "unit": "op/s"},
            "op_p50_s": {"value": kind_p50(kinds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
