"""Run one workload in a fresh interpreter and write its raw measurements.

Started by run.py; not meant to be called by hand.  With --seconds 0 it only
measures set-up: numpy import, cavsqueeze import and the warm-up call.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Only the standard library is imported above: numpy and cavsqueeze imports
# are timed in main().
SETUP_REF_REPEATS = 9  # reference-kernel runs after set-up; their median calibrates setup_s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def quiet_call(func):
    """Call func with stdout and stderr captured; returns (value, exc, stderr, wall, cpu)."""
    out, err = io.StringIO(), io.StringIO()
    value = exc = None
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = func()
    except Exception as e:  # a raise out of the program is a counted failure, not a crash
        exc = e
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return value, exc, err.getvalue(), wall, cpu


def raised_where(exc):
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} raised in {Path(frame.filename).stem}.{frame.name}"


def new_tally():
    """Labels of one run's invocations: attempted, failed (raised or wrong output), incorrect (wrong output).

    Counting invocations rather than calls makes the counts a function of the
    seed alone: every pass repeats the same list, however many passes fit in
    the run.  An invocation counts as failed if any of its calls failed.
    """
    return {"attempted": set(), "failed": set(), "incorrect": set(), "failures": {}, "problems": [],
            "digests": {}, "last_wall": {}}


def summarize(tally):
    """JSON-able counts of a tally; failures maps each kind to its number of invocations."""
    return {
        "attempted": len(tally["attempted"]),
        "failed": len(tally["failed"]),
        "incorrect": len(tally["incorrect"]),
        "failures": {kind: len(labels) for kind, labels in tally["failures"].items()},
        "problems": tally["problems"],
        "digests": tally["digests"],
    }


def run_pass(invocations, tally, digest, scale_for=None):
    """One pass over the invocation list; returns its times in a dict.

    wall_s and cpu_s cover the calls alone: checks run outside the timing.
    With scale_for, the reference kernel is timed before the first call and
    after every call: scale_for(expected wall time) runs it and returns the
    factor that turns measured seconds into calibrated ones (calibrate.py).
    cal_wall_s and cal_cpu_s sum the calibrated times.
    digest(outdir) records the output files of each invocation's first pass.
    """
    times = {"wall_s": 0.0, "cpu_s": 0.0, "cal_wall_s": 0.0, "cal_cpu_s": 0.0, "call_cal_wall_s": []}
    last = tally["last_wall"]
    scale_before = scale_for(last.get(invocations[0].label, 0.0)) if scale_for else 1.0
    for i, inv in enumerate(invocations):
        if inv.outdir is not None:
            for path in inv.outdir.iterdir():
                path.unlink()
        value, exc, stderr, w, c = quiet_call(inv.call)
        last[inv.label] = w
        scale = 1.0
        if scale_for:
            # one reference measurement after each call, which also serves
            # as the one before the next call; the mean of the reference
            # times before and after a call calibrates it
            following = last.get(invocations[i + 1].label, 0.0) if i + 1 < len(invocations) else 0.0
            scale_after = scale_for(max(w, following))
            scale = 2.0 / (1.0 / scale_before + 1.0 / scale_after)
            scale_before = scale_after
        times["wall_s"] += w
        times["cpu_s"] += c
        times["cal_wall_s"] += w * scale
        times["cal_cpu_s"] += c * scale
        times["call_cal_wall_s"].append(w * scale)
        tally["attempted"].add(inv.label)
        if exc is not None:
            category = f"{inv.kind}: {raised_where(exc)}"
            problems = [f"{inv.label}: {category}: {exc}"]
        else:
            problems = [f"{inv.label}: {p}" for p in inv.check(value, stderr)]
            category = f"{inv.kind}: wrong output" if problems else None
            if problems:
                tally["incorrect"].add(inv.label)
        value = None  # drop large results (dense operators) before the next call
        if category:
            tally["failed"].add(inv.label)
            tally["failures"].setdefault(category, set()).add(inv.label)
            for problem in problems:
                if problem not in tally["problems"] and len(tally["problems"]) < 20:
                    tally["problems"].append(problem)
        if inv.outdir is not None and inv.label not in tally["digests"]:
            tally["digests"][inv.label] = digest(inv.outdir)
    return times


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()

    t0 = time.perf_counter()
    import numpy

    t1 = time.perf_counter()
    import cavsqueeze

    t2 = time.perf_counter()
    src = Path("src").resolve()
    if Path(cavsqueeze.__file__).resolve().parent != src / "cavsqueeze":
        sys.exit(f"cavsqueeze imported from {cavsqueeze.__file__}, not from {src}")

    import calibrate
    import checks
    import spans
    import workloads

    workdir = Path(args.workdir)
    observed = {}
    spec = workloads.generate(args.workload, args.seed)
    invocations, warmup = workloads.materialize(args.workload, spec, workdir, observed)
    code, exc, stderr, warm_wall, _ = quiet_call(lambda: cavsqueeze.cli.run(warmup))
    if exc is not None or code != 0:
        sys.exit(f"warm-up {warmup} failed: {exc or stderr}")
    calibrate.reference_s()  # the first run pays for allocation; not counted
    setup_ref = statistics.median(calibrate.reference_s() for _ in range(SETUP_REF_REPEATS))
    result = {
        "setup": {
            "numpy_s": t1 - t0,
            "cavsqueeze_s": t2 - t1,
            "warmup_s": warm_wall,
            "setup_s": (t2 - t0) + warm_wall,
            "ref_s": setup_ref,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        },
        "inputs": spec,
        "observed": observed,
    }

    if args.seconds > 0:
        tally = new_tally()
        tracer = spans.Tracer()
        targets = spans.cavsqueeze_targets() if args.trace else None
        passes = []
        first_traced = None
        deadline = time.perf_counter() + args.seconds
        while True:
            cycle_start = time.perf_counter()
            # a traced run alternates which of its untraced/traced pair goes first
            modes = ((False, True) if len(passes) % 4 == 0 else (True, False)) if args.trace else (False,)
            for traced in modes:
                if traced:
                    tracer.install(targets)
                try:
                    times = run_pass(invocations, tally, checks.digests, calibrate.scale_for)
                finally:
                    tracer.uninstall()
                if traced and first_traced is None:
                    first_traced = len(tracer.spans)
                passes.append(dict(times, traced=traced))
            cycle = time.perf_counter() - cycle_start
            if time.perf_counter() + cycle > deadline:
                break
        result.update(summarize(tally))
        result["passes"] = passes
        if args.trace:
            n_traced = sum(ps["traced"] for ps in passes)
            result["layers"] = spans.layer_metrics(tracer.recorded(), n_traced)
            untraced = statistics.median(ps["cal_wall_s"] for ps in passes if not ps["traced"])
            traced = statistics.median(ps["cal_wall_s"] for ps in passes if ps["traced"])
            result["trace_overhead_frac"] = (traced - untraced) / untraced
            result["traced_passes"] = n_traced
            if args.spans:
                first = tracer.recorded(stop=first_traced)
                own = spans.self_times(first)
                with open(args.spans, "w", encoding="utf-8") as fh:
                    for sp in first:
                        fh.write(json.dumps(dict(sp._asdict(), self=own[sp.id])) + "\n")
        shutil.rmtree(workdir / "out", ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
