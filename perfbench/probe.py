"""Per-layer timing for the traced benchmark run.

The probe replaces public vcspkit functions, in the modules that call them,
by wrappers that record a span (name, start, end, parent) and optional work
counts.  Nothing inside ``src/`` is edited; ``uninstall`` restores the
originals.  A layer's self time is its span's duration minus the durations
of its direct child spans.  A metric read from a function that no longer
exists, or from a work counter that no longer applies to its arguments, is
absent: it is left out of the result, so that it cannot read as a gain.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from math import comb
from time import perf_counter

from cases import ROUTES


def _triangles(args, kwargs, result):
    inst = args[0]
    return {"triangles.triangles_scanned": comb(inst.n, 3) * inst.max_domain ** 3}


def _pairs(args, kwargs, result):
    r = len(args[0])
    return {"cfc.family_pairs": r * (r - 1) // 2}


def _rewritten(args, kwargs, result):
    return {"cfc.sets_after_rewrite": len(result.sets)}


def _network(args, kwargs, result):
    net = args[0]
    return {"flow.nodes": net.num_nodes, "flow.arcs": len(net.arcs)}


def _clauses(args, kwargs, result):
    return {"renaming.clauses": len(args[0].clauses)}


# (module, attribute, span name, work counter).  A module-level function is
# wrapped where the calling module binds it; a dict attribute wraps each
# value, naming the span after its key.
WRAPS = (
    ("vcspkit.binary_solvers", "dispatch", "binary_solvers.dispatch", None),
    ("vcspkit.binary_solvers", "SOLVERS", "binary_solvers.solver", None),
    ("vcspkit.binary_solvers", "profile", "triangles.profile", _triangles),
    ("vcspkit.binary_solvers", "verdict", "triangles.verdict", None),
    ("vcspkit.binary_solvers", "max_weight_matching", "matching.max_weight_matching", None),
    ("vcspkit.binary_solvers", "evaluate_binary", "instances.evaluate_binary", None),
    ("vcspkit.cfc", "solve_cfc", "cfc.solve_cfc", None),
    ("vcspkit.cfc", "check_convexity", "cfc.check_convexity", None),
    ("vcspkit.cfc", "check_family", "cfc.check_family", _pairs),
    ("vcspkit.cfc", "crossfree_to_laminar", "cfc.crossfree_to_laminar", _rewritten),
    ("vcspkit.cfc", "build_laminar_forest", "cfc.build_laminar_forest", None),
    ("vcspkit.cfc", "build_network", "cfc.build_network", None),
    ("vcspkit.cfc", "min_convex_cost_flow", "flow.min_convex_cost_flow", _network),
    ("vcspkit.cfc", "evaluate_count", "instances.evaluate_count", None),
    ("vcspkit.renaming", "solve_renamable", "renaming.solve_renamable", None),
    ("vcspkit.renaming", "recognize_renamable", "renaming.recognize_renamable", None),
    ("vcspkit.renaming", "check_convexity", "cfc.check_convexity", None),
    ("vcspkit.renaming", "check_family", "cfc.check_family", _pairs),
    ("vcspkit.renaming", "solve_2sat", "renaming.solve_2sat", _clauses),
    ("vcspkit.renaming", "solve_cfc", "cfc.solve_cfc", None),
    ("vcspkit.renaming", "evaluate_count", "instances.evaluate_count", None),
)

_BINARY = "binary-dispatch: wall_s, call_s.p50"
_CROSSFREE = "cfc-crossfree: wall_s (cfc-laminar: wall_s, in part)"
_LAMINAR = "cfc-laminar: wall_s"
_RENAMING = "cfc-crossfree: wall_s"
_CLI = "cli-small: call_s.p50, call_s.p90; other workloads: setup_s"
_TRACE = "every workload: validity of the trace itself"

# (metric, unit, better, source, the end-to-end metric and workload it
# should move).  A source is (statistic, span) with statistic "total" or
# "self" seconds or "calls", or ("count", span, counter); None marks a
# metric the runner measures itself.  "Computed" counts derive from input
# sizes, not from work observed inside the program.
METRICS = (
    ("triangles.profile_s", "s", "lower", ("total", "triangles.profile"), _BINARY),
    ("triangles.profile_calls", "count", "lower", ("calls", "triangles.profile"), _BINARY),
    ("triangles.triangles_scanned", "count", "lower",
     ("count", "triangles.profile", "triangles.triangles_scanned"),
     _BINARY + " (computed: C(n,3)*d^3 per profile)"),
    ("triangles.verdict_s", "s", "lower", ("total", "triangles.verdict"), _BINARY),
    ("binary_solvers.dispatch_self_s", "s", "lower", ("self", "binary_solvers.dispatch"), _BINARY),
    *((f"binary_solvers.solver_self_s.{sid}", "s", "lower",
       ("self", f"binary_solvers.solver.{sid}"), _BINARY) for sid in ROUTES),
    ("matching.max_weight_matching_s", "s", "lower",
     ("total", "matching.max_weight_matching"), _BINARY + " (matching routes only)"),
    ("matching.calls", "count", "lower",
     ("calls", "matching.max_weight_matching"), _BINARY + " (matching routes only)"),
    ("instances.evaluate_binary_s", "s", "lower", ("total", "instances.evaluate_binary"), _BINARY),
    ("cfc.check_family_s", "s", "lower", ("total", "cfc.check_family"), _CROSSFREE),
    ("cfc.check_family_calls", "count", "lower", ("calls", "cfc.check_family"), _CROSSFREE),
    ("cfc.family_pairs", "count", "lower",
     ("count", "cfc.check_family", "cfc.family_pairs"),
     _CROSSFREE + " (computed: r(r-1)/2 per check)"),
    ("cfc.crossfree_to_laminar_self_s", "s", "lower",
     ("self", "cfc.crossfree_to_laminar"), _CROSSFREE + " (near 0 on cfc-laminar)"),
    ("cfc.sets_after_rewrite", "count", "lower",
     ("count", "cfc.crossfree_to_laminar", "cfc.sets_after_rewrite"), _CROSSFREE),
    ("cfc.check_convexity_s", "s", "lower", ("total", "cfc.check_convexity"), _LAMINAR),
    ("cfc.build_laminar_forest_s", "s", "lower", ("total", "cfc.build_laminar_forest"), _LAMINAR),
    ("cfc.build_network_s", "s", "lower", ("total", "cfc.build_network"), _LAMINAR),
    ("cfc.solve_cfc_self_s", "s", "lower", ("self", "cfc.solve_cfc"), _LAMINAR),
    ("flow.min_convex_cost_flow_s", "s", "lower", ("total", "flow.min_convex_cost_flow"), _LAMINAR),
    ("flow.nodes", "count", "lower",
     ("count", "flow.min_convex_cost_flow", "flow.nodes"), _LAMINAR),
    ("flow.arcs", "count", "lower",
     ("count", "flow.min_convex_cost_flow", "flow.arcs"), _LAMINAR),
    ("instances.evaluate_count_s", "s", "lower", ("total", "instances.evaluate_count"), _LAMINAR),
    ("renaming.recognize_renamable_self_s", "s", "lower",
     ("self", "renaming.recognize_renamable"), _RENAMING),
    ("renaming.solve_2sat_s", "s", "lower", ("total", "renaming.solve_2sat"), _RENAMING),
    ("renaming.clauses", "count", "lower",
     ("count", "renaming.solve_2sat", "renaming.clauses"), _RENAMING),
    ("cli.interpreter_s", "s", "lower", None, _CLI + " (bare interpreter start)"),
    ("cli.import_s", "s", "lower", None, _CLI + " (import vcspkit.cli minus a bare start)"),
    ("cli.command_s", "s", "lower", ("total", "cli.command"),
     "cli-small: call_s.p50 (vcspkit.cli.main inside each traced process, per pass)"),
    ("cli.exit_s", "s", "lower", ("total", "cli.exit"),
     "cli-small: call_s.p50 (interpreter teardown of each traced process, per pass)"),
    ("formats.parse_instance_s", "s", "lower", None, _CLI + " (in-process, all inputs)"),
    ("formats.dumps_s", "s", "lower", None, _CLI + " (in-process, all inputs)"),
    ("trace.coverage", "ratio", "higher", None,
     _TRACE + " (share of the top-level spans' time inside named layer spans)"),
    ("trace.overhead", "ratio", "lower", None, _TRACE + " (traced / untraced wall_s - 1)"),
)


# Spans the benchmark records itself, around work in CLI processes, rather
# than by wrapping a function; they are never absent.
OWN_SPANS = frozenset({"cli.command", "cli.exit"})


class Probe:
    """Span recorder installed over the WRAPS call sites.

    Spans accumulate in memory; ``end_pass`` folds them into per-name
    calls, total and self time for one pass of the workload.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        # (per-name stats, counts, top-level seconds, seconds of those
        # inside child spans)
        self.passes = []
        self.installed = set()
        self.broken = set()  # spans whose work counter raised
        self._restore = []

    def install(self):
        for module_name, attr, name, counter in WRAPS:
            try:
                module = importlib.import_module(module_name)
                target = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            if isinstance(target, dict):
                for key, fn in list(target.items()):
                    target[key] = self._wrap(f"{name}.{key}", fn, counter)
                    self._restore.append((target, key, fn))
            else:
                setattr(module, attr, self._wrap(name, target, counter))
                self._restore.append((module, attr, target))
        return self

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn, counter):
        self.installed.add(name)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None and name not in self.broken:
                try:
                    for key, k in counter(args, kwargs, result).items():
                        self.counts[key] += k
                except Exception:  # the program changed shape; not a failed call
                    self.broken.add(name)
            return result

        return wrapper

    def span(self, name):
        return _Span(self, name)

    def record(self, name, start, end):
        """A finished span, inside the open one."""
        self.spans.append([name, start, end, self.stack[-1] if self.stack else None])

    def end_pass(self):
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        top = covered = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[k]
            if parent is None:
                top += end - start
                covered += child_time[k]
        self.passes.append((dict(stats), dict(self.counts), top, covered))
        self.spans.clear()
        self.counts.clear()

    def absent(self):
        """METRICS read from a function that no longer exists, or from a
        work counter that raised."""
        gone = {m for m, _, _, source, _ in METRICS
                if source is not None and source[1] not in self.installed | OWN_SPANS}
        broken = {m for m, _, _, source, _ in METRICS
                  if source is not None and source[0] == "count" and source[1] in self.broken}
        return [m for m, *_ in METRICS if m in gone | broken]


def pass_metrics(stats, counts):
    """Per-layer values of one folded pass, for the METRICS with a source."""
    out = {}
    for metric, _, _, source, _ in METRICS:
        if source is None:
            continue
        if source[0] == "count":
            out[metric] = counts.get(source[2], 0)
        else:
            calls, total, self_time = stats.get(source[1], (0, 0.0, 0.0))
            out[metric] = {"calls": calls, "total": total, "self": self_time}[source[0]]
    return out


class _Span:
    __slots__ = ("probe", "name", "index")

    def __init__(self, probe, name):
        self.probe = probe
        self.name = name

    def __enter__(self):
        probe = self.probe
        self.index = len(probe.spans)
        parent = probe.stack[-1] if probe.stack else None
        probe.spans.append([self.name, perf_counter(), None, parent])
        probe.stack.append(self.index)

    def __exit__(self, *exc):
        probe = self.probe
        probe.spans[self.index][2] = perf_counter()
        probe.stack.pop()
