"""In-memory spans and counts around the package's layer functions.

A Tracer replaces each traced function, in every module namespace of the
package that binds it, by a wrapper that records a span (name, start,
end, parent span, run id) and optional counts taken from the call's
arguments and return value.  Nothing in the package itself is edited:
``uninstall`` puts the original objects back.

Self time of a span is its duration minus the durations of its direct
children; spans nest on one thread, so the children never overlap.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "spectral_vms"


# --- counts taken from arguments and return values ---------------------


def _count_series(counts, args, kwargs, result):
    """Modes summed and capped cells of one sum_series_multi call.

    modes is the sum of the stopping mode indices over every entry and S
    value; capped is the number of (family, S) cells whose series hit the
    j_max cap in any of the family's entries.
    """
    _, stops, overflowed = result
    counts["kernels.sum_series_multi.modes"] += int(
        sum(int(np.sum(c)) for c in stops.values()))
    per_family = {}
    for (family, _, _), mask in overflowed.items():
        prev = per_family.get(family)
        per_family[family] = mask if prev is None else prev | mask
    counts["kernels.sum_series_multi.capped"] += int(
        sum(int(np.sum(m)) for m in per_family.values()))


def _count_unknowns(counts, args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    counts["mesh_fem.solve_tridiag.unknowns"] += system.matrix.n


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs["path"]


def _count_saved(counts, args, kwargs, result):
    counts["table.save_table.bytes"] += os.path.getsize(
        _path_arg(args, kwargs, 1))


def _count_loaded(counts, args, kwargs, result):
    counts["table.load_table.bytes"] += os.path.getsize(
        _path_arg(args, kwargs, 0))
    # clamps are read off the tables when a pass ends
    counts.tables.append(result)


def _counter(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


class Counts(defaultdict):
    """Counts of one run, plus the tables it loaded."""

    def __init__(self):
        super().__init__(int)
        self.tables = []


# --- what is traced -----------------------------------------------------
#
# (module, attribute, span name or None for count-only, count hook)

TARGETS = [
    ("kernels", "source_mode_projection",
     "kernels.source_mode_projection", None),
    ("kernels", "element_mode_arrays", "kernels.element_mode_arrays", None),
    ("kernels", "sum_series_multi", "kernels.sum_series_multi",
     _count_series),
    ("kernels", "sum_series_batch", None,
     _counter("kernels.sum_series_batch.calls")),
    ("vms_full", "init_state", "vms_full.init_state", None),
    ("vms_full", "step_full", "vms_full.step_full", None),
    ("mesh_fem", "assemble_mass", "mesh_fem.assemble_mass", None),
    ("mesh_fem", "assemble_stiffness", "mesh_fem.assemble_stiffness", None),
    ("mesh_fem", "solve_tridiag", "mesh_fem.solve_tridiag", _count_unknowns),
    ("baselines", "step_galerkin", "baselines.step_galerkin", None),
    ("baselines", "step_stabilized", "baselines.step_stabilized", None),
    ("table", "save_table", "table.save_table", _count_saved),
    ("table", "load_table", "table.load_table", _count_loaded),
    ("table", "interpolate", "table.interpolate", None),
    ("vms_feasible", "assemble_matrices", "vms_feasible.assemble_matrices",
     None),
    ("vms_feasible", "step_feasible", "vms_feasible.step_feasible", None),
    ("vms_feasible", "DirectKernelProvider.kernel", None,
     _counter("vms_feasible.provider.direct_kernel_calls")),
    ("vms_feasible", "TableKernelProvider.kernel", None,
     _counter("vms_feasible.provider.table_kernel_calls")),
    ("analysis", "reference_solution", "analysis.reference_solution", None),
    ("analysis", "error_norms", "analysis.error_norms", None),
    ("analysis", "write_report_csv", "analysis.write_csv", None),
    ("analysis", "write_solutions_csv", "analysis.write_csv", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Spans and counts of traced passes, kept in memory."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id)
        self.counts = {}  # run id -> Counts
        self._stack = []
        self._run = None
        self._patches = []  # (namespace, attribute, original)

    # -- wrapping --

    def _wrap(self, fn, span_name, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        if span_name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self.counts[self._run], args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self._run)
            if count is not None:
                count(self.counts[self._run], args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every target in each package namespace that binds it."""
        modules = {name: importlib.import_module("%s.%s" % (PACKAGE, name))
                   for name, _, _, _ in TARGETS}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, attr, span_name, count in TARGETS:
            module = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, span_name, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, count)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- runs --

    def run(self, run_id, fn):
        """Call fn() as traced run run_id under a root span 'bench.pass'."""
        self._run = run_id
        self.counts[run_id] = Counts()
        root = self._wrap(fn, "bench.pass", None)
        try:
            return root()
        finally:
            self._run = None

    def _under(self, index, ancestor):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_stats(self, run_id, under=None):
        """{span name: {"calls", "self_s", "total_s"}} of one run.

        With under set, only spans nested in a span of that name count.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run != run_id or (under and not self._under(i, under)):
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(stats)

    def run_counts(self, run_id):
        """Exact counts of one run: span calls plus argument/return counts."""
        counts = self.counts[run_id]
        out = {"%s.calls" % name: s["calls"]
               for name, s in self.layer_stats(run_id).items()}
        out.update((k, v) for k, v in counts.items())
        out["table.interpolate.clamps"] = sum(t.clamp_count
                                              for t in counts.tables)
        return out

    def dump(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent, "run": run}
                for name, start, end, parent, run in self.spans]
