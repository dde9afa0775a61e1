"""In-memory span tracer for the benchmark's traced run.

Spans are recorded by wrapping public cavsqueeze functions from outside the
package.  ``from x import f`` copies the binding, so every module of the
package that holds the original function object (``cli.sample_trajectories``,
``design.modified_min_variance``, ``oracle.build_operators``, ...) is patched,
not only the defining module.  The benchmark is single-threaded, so one stack
gives each span its parent.
"""

import inspect
import itertools
import os
import statistics
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field


# parent is -1 for a root span.  The tracer stores plain tuples, which the
# garbage collector stops tracking, so a long traced run does not slow the
# collector; analysis reads them as Span.
Span = namedtuple("Span", "id parent name start end attrs")


def self_times(spans):
    """Map span id -> duration minus the part covered by its direct children."""
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for lo, hi in sorted(children.get(sp.id, ())):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


@dataclass
class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _ids: object = field(default_factory=itertools.count)

    def recorded(self, stop=None):
        """The recorded spans (the first stop of them) as Span tuples."""
        return [Span._make(t) for t in self.spans[:stop]]

    def wrap(self, func, name, label=None, after=None):
        """Wrapper recording one span per call.

        label(args, kwargs) -> (name, attrs) refines the span; after(args,
        kwargs) -> attrs replaces them once the call has returned.
        """
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_name, attrs = label(args, kwargs) if label else (name, None)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                if ok and after:
                    attrs = after(args, kwargs)
                spans.append((sid, parent, span_name, start, end, attrs))
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, targets):
        """Patch each (module, attribute, name, label, after) target everywhere it is bound."""
        for module_name, attr, name, label, after in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, label, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cavsqueeze" or mod_name.startswith("cavsqueeze.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def _bound(func, args, kwargs):
    return inspect.signature(func).bind_partial(*args, **kwargs).arguments


def cavsqueeze_targets():
    """The layer boundaries the traced run records, with their attribute rules."""
    from cavsqueeze import dicke, oracle, raman

    def cli_label(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.{argv[0] if argv else 'none'}", None

    def mc_label(args, kwargs):
        a = _bound(raman.sample_trajectories, args, kwargs)
        process, n_traj = a["process"], a["n_traj"]
        mode = a.get("mode", "exact")
        attrs = {"traj": n_traj, "traj_steps": n_traj * a["time_steps"],
                 "events_computed": n_traj * process.r * process.n_atoms}
        return f"raman.sample_trajectories.{mode}", attrs

    def oracle_label(args, kwargs):
        s = _bound(oracle.oracle_moments_sum, args, kwargs)["total_spin"]
        return "oracle.oracle_moments_sum." + ("small" if round(2.0 * s) <= 400 else "large"), None

    def ops_label(args, kwargs):
        spec = _bound(dicke.build_operators, args, kwargs)["spec"]
        return "dicke.build_operators", {"bytes_computed": 5 * spec.dicke_dim ** 2 * 16}

    def file_size(args, kwargs):
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}

    return [
        ("cavsqueeze.cli", "run", "cli", cli_label, None),
        ("cavsqueeze.raman", "sample_trajectories", "raman.sample_trajectories", mc_label, None),
        ("cavsqueeze.raman", "modified_min_variance", "raman.modified_min_variance", None, None),
        ("cavsqueeze.raman", "fig2_curve", "raman.fig2_curve", None, None),
        ("cavsqueeze.design", "full_curve_minimum", "design.full_curve_minimum", None, None),
        ("cavsqueeze.design", "design_report", "design.design_report", None, None),
        ("cavsqueeze.feedback", "analytic_moments", "feedback.analytic_moments", None, None),
        ("cavsqueeze.oracle", "oracle_moments_sum", "oracle.oracle_moments_sum", oracle_label, None),
        ("cavsqueeze.oracle", "channel_moments", "oracle.channel_moments", None, None),
        ("cavsqueeze.dicke", "build_operators", "dicke.build_operators", ops_label, None),
        ("cavsqueeze.dicke", "make_css", "dicke.make_css", None, None),
        ("cavsqueeze.serialize", "write_csv", "serialize.write_csv", None, file_size),
        ("cavsqueeze.serialize", "write_json", "serialize.write_json", None, file_size),
    ]


CLI_SUBCOMMANDS = ("fig2", "validate-oracle", "raman-mc", "design", "sweep")

# Per-layer metrics of the traced run: (name, unit, better).  Timings come
# with a ".n" sample count; ".calls" and bytes_written are per pass.
PER_LAYER = [
    ("raman.sample_trajectories.exact.traj_per_s", "1/s", "higher"),
    ("raman.sample_trajectories.exact.events_per_s", "1/s", "higher"),
    ("raman.sample_trajectories.exact.n", "count", "higher"),
    ("raman.sample_trajectories.gaussian.traj_steps_per_s", "1/s", "higher"),
    ("raman.sample_trajectories.gaussian.n", "count", "higher"),
    ("raman.mc_max_z", "se", "lower"),
    ("raman.modified_min_variance.p50_us", "us", "lower"),
    ("raman.modified_min_variance.p90_us", "us", "lower"),
    ("raman.modified_min_variance.calls", "count", "lower"),
    ("raman.modified_min_variance.n", "count", "higher"),
    ("raman.fig2_curve.p50_ms", "ms", "lower"),
    ("raman.fig2_curve.n", "count", "higher"),
    ("design.full_curve_minimum.p50_ms", "ms", "lower"),
    ("design.full_curve_minimum.f_evals_per_call", "count", "lower"),
    ("design.full_curve_minimum.n", "count", "higher"),
    ("design.design_report.p50_ms", "ms", "lower"),
    ("design.design_report.n", "count", "higher"),
    ("feedback.analytic_moments.p50_us", "us", "lower"),
    ("feedback.analytic_moments.calls", "count", "lower"),
    ("feedback.analytic_moments.n", "count", "higher"),
    ("oracle.oracle_moments_sum.small.p50_ms", "ms", "lower"),
    ("oracle.oracle_moments_sum.small.n", "count", "higher"),
    ("oracle.oracle_moments_sum.large.p50_ms", "ms", "lower"),
    ("oracle.oracle_moments_sum.large.n", "count", "higher"),
    ("oracle.channel_moments.p50_ms", "ms", "lower"),
    ("oracle.channel_moments.n", "count", "higher"),
    ("dicke.build_operators.p50_ms", "ms", "lower"),
    ("dicke.build_operators.bytes", "B", "lower"),
    ("dicke.build_operators.n", "count", "higher"),
    ("dicke.make_css.p50_ms", "ms", "lower"),
    ("dicke.make_css.n", "count", "higher"),
    ("serialize.write_csv.p50_ms", "ms", "lower"),
    ("serialize.write_csv.n", "count", "higher"),
    ("serialize.write_json.p50_ms", "ms", "lower"),
    ("serialize.write_json.n", "count", "higher"),
    ("serialize.bytes_written", "B", "lower"),
] + [
    (f"cli.{sub}.{suffix}", unit, better)
    for sub in CLI_SUBCOMMANDS
    for suffix, unit, better in (("self_ms", "ms", "lower"), ("n", "count", "higher"))
] + [
    ("import.numpy_s", "s", "lower"),
    ("import.cavsqueeze_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.passes", "count", "higher"),
]


def percentile(values, p):
    """Inclusive p-th percentile; 0.0 for no samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(spans, n_passes):
    """Per-layer metrics from the spans of n_passes traced passes.

    Returns every PER_LAYER name except those measured outside the spans
    (raman.mc_max_z, import.*, trace.*).  A layer the workload does not
    reach reports 0 with a sample count of 0.
    """
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def durations(name):
        return [sp.end - sp.start for sp in by_name.get(name, ())]

    def attr_sum(name, key):
        return sum(sp.attrs[key] for sp in by_name.get(name, ()))

    m = {}

    def timing(name, unit_scale, suffix, pcts=(50,)):
        d = durations(name)
        for p in pcts:
            m[f"{name}.p{p}_{suffix}"] = percentile(d, p) * unit_scale
        m[f"{name}.n"] = len(d)
        return d

    def rate(name, key):
        busy = sum(durations(name))
        return attr_sum(name, key) / busy if busy > 0.0 else 0.0

    exact = "raman.sample_trajectories.exact"
    gauss = "raman.sample_trajectories.gaussian"
    m[f"{exact}.traj_per_s"] = rate(exact, "traj")
    m[f"{exact}.events_per_s"] = rate(exact, "events_computed")
    m[f"{exact}.n"] = len(durations(exact))
    m[f"{gauss}.traj_steps_per_s"] = rate(gauss, "traj_steps")
    m[f"{gauss}.n"] = len(durations(gauss))

    mmv = timing("raman.modified_min_variance", 1e6, "us", (50, 90))
    m["raman.modified_min_variance.calls"] = len(mmv) / n_passes
    timing("raman.fig2_curve", 1e3, "ms")
    fcm = by_name.get("design.full_curve_minimum", ())
    timing("design.full_curve_minimum", 1e3, "ms")
    fcm_ids = {sp.id for sp in fcm}
    f_evals = sum(1 for sp in by_name.get("raman.modified_min_variance", ()) if sp.parent in fcm_ids)
    m["design.full_curve_minimum.f_evals_per_call"] = f_evals / len(fcm) if fcm else 0.0
    timing("design.design_report", 1e3, "ms")
    am = timing("feedback.analytic_moments", 1e6, "us")
    m["feedback.analytic_moments.calls"] = len(am) / n_passes
    timing("oracle.oracle_moments_sum.small", 1e3, "ms")
    timing("oracle.oracle_moments_sum.large", 1e3, "ms")
    timing("oracle.channel_moments", 1e3, "ms")
    timing("dicke.build_operators", 1e3, "ms")
    m["dicke.build_operators.bytes"] = max(
        (sp.attrs["bytes_computed"] for sp in by_name.get("dicke.build_operators", ())), default=0)
    timing("dicke.make_css", 1e3, "ms")
    timing("serialize.write_csv", 1e3, "ms")
    timing("serialize.write_json", 1e3, "ms")
    m["serialize.bytes_written"] = (
        attr_sum("serialize.write_csv", "bytes") + attr_sum("serialize.write_json", "bytes")) / n_passes

    own = self_times(spans)
    for sub in CLI_SUBCOMMANDS:
        selfs = [own[sp.id] for sp in by_name.get(f"cli.{sub}", ())]
        m[f"cli.{sub}.self_ms"] = percentile(selfs, 50) * 1e3
        m[f"cli.{sub}.n"] = len(selfs)
    return m
