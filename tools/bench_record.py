"""Record the benchmark in BENCH_<N>.json at the root of the checkout.

    python3 tools/bench_record.py N

Runs perfbench/run.py on every workload of BENCHMARK.json, first
untraced for the benchmark's run_seconds, then traced for TRACED_SECONDS,
and writes the machine, the commit, each end-to-end metric's median and
quartiles, and the per-layer metrics of the traced run.  wall_s is
summarised over the untraced passes, setup_s over perfbench's set-ups
and peak_rss_mb is the one value of the untraced run.  Traced runs are
short because perfbench's post-processing of a traced run grows with
the square of its number of passes times the spans of one pass.  So
that a full-length traced run's risk shows without making one, each
workload also gets spans_per_pass, the spans of the short traced run's
first pass, projected_traced_passes, the benchmark's run_seconds over
the median traced pass, and projected_trace_load, the square of the
second times the first, which that post-processing grows with, and
projected_trace_seconds, an estimate in seconds of that post-processing
in a full-length traced run: the short traced run's elapsed time, less
its set-ups and timed passes (traced_post_s), times (projected passes /
traced passes)^2.  A full-length traced run adds twice the run seconds
and the set-ups.  The estimate runs high where per-pass work, such as a
workload's checks, outweighs the tracer's quadratic walk: scaled to
the traced passes of a full-length run, a 3 s run's post-processing
projected 89 s for offline (3 spans a pass) where the full run took
23.5 s, and 76 s for online where it took about 81 s.

Each workload also gets a layer split that perfbench's profile does not
give: the inclusive time of each function of SPLIT, timed by a wrapper
around every binding of it in the package, over one pass run in this
process after one warm-up pass.  The workloads come from
perfbench/workloads.py, compiled from its text, so nothing is written
under perfbench/.
"""

import contextlib
import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
TRACED_SECONDS = 3.0
# (module of spectral_vms, function) of the layer split
SPLIT = [("mesh_fem", "factor_tridiag"), ("mesh_fem", "solve_tridiag"),
         ("analysis", "reference_solution"),
         ("analysis", "write_solutions_csv"), ("vms_full", "step_full"),
         ("vms_full", "init_state"), ("vms_feasible", "assemble_matrices"),
         ("kernels", "green_blocks"), ("table", "generate_table"),
         ("table", "save_table")]


def perfbench(workload, seconds, trace):
    """The full record of one perfbench/run.py run, and its elapsed
    seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                    "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    path = os.path.join(ROOT, ".perfbench", "%s-seed%d-trace%d.json"
                        % (workload, SEED, trace))
    with open(path) as fh:
        return json.load(fh), elapsed


def spans_per_pass(traced):
    """The spans of the first pass of a traced run, from its spans file."""
    with open(os.path.join(ROOT, traced["spans_file"])) as fh:
        return sum(span["run"] == 0 for span in json.load(fh))


def quartiles(samples):
    """Median and quartiles of the samples, and their number."""
    samples = sorted(samples)
    q1, q3 = (statistics.quantiles(samples, n=4)[::2] if len(samples) > 1
              else samples * 2)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": len(samples)}


def load_workloads():
    """perfbench/workloads.py as a module, compiled from its source text
    so that no bytecode cache is written beside it; the package comes
    from src/ of this checkout."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


@contextlib.contextmanager
def timed_bindings(totals):
    """Within the block, every package binding of each SPLIT function
    adds its inclusive seconds to totals["module.function"]."""
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n.startswith("spectral_vms")]
    patches = []  # (namespace, attribute, original)
    for module, function in SPLIT:
        name = "%s.%s" % (module, function)
        original = getattr(importlib.import_module("spectral_vms." + module),
                           function)

        @functools.wraps(original)
        def timed(*args, _original=original, _name=name, **kwargs):
            start = time.perf_counter()
            try:
                return _original(*args, **kwargs)
            finally:
                totals[_name] += time.perf_counter() - start
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patches.append((ns, attr, original))
                    setattr(ns, attr, timed)
    try:
        yield
    finally:
        for ns, attr, original in reversed(patches):
            setattr(ns, attr, original)


def layer_split(workloads, name):
    """Inclusive ms of each SPLIT function over one in-process pass of
    the workload, after one warm-up pass, with the pass's own ms."""
    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as workdir:
        ctx = workloads.Context(workdir=workdir, table_path=os.path.join(
            workdir, "kernels.bin"))
        if workload.builds_table:
            workloads.prepare(name, workdir)
            ctx.velocity, _ = workloads.online_velocity(SEED)
        workload.run_pass(ctx)
        totals = dict.fromkeys(("%s.%s" % key for key in SPLIT), 0.0)
        with timed_bindings(totals):
            start = time.perf_counter()
            ops = workload.run_pass(ctx)
            wall = time.perf_counter() - start
    return {"pass_ms": 1e3 * wall,
            "inclusive_ms": {k: 1e3 * v for k, v in totals.items()},
            "failed": [op.name for op in ops if op.error]}


def record(spec):
    env = None
    workloads = {}
    split_source = load_workloads()
    for w in spec["workloads"]:
        name = w["name"]
        untraced, _ = perfbench(name, spec["run_seconds"], 0)
        traced, traced_elapsed = perfbench(name, TRACED_SECONDS, 1)
        env = untraced["environment"]
        spans = spans_per_pass(traced)
        passes = (spec["run_seconds"]
                  / statistics.median(traced["traced_wall_s"]))
        traced_passes = len(traced["traced_wall_s"])
        # a traced run also makes untraced passes and set-ups first
        post_s = traced_elapsed - sum(traced["setup_s"]["samples"]) \
            - sum(traced["wall_s"]["all"]) - sum(traced["traced_wall_s"])
        samples = {"wall_s": untraced["wall_s"]["all"],
                   "setup_s": untraced["setup_s"]["samples"],
                   "peak_rss_mb": [untraced["peak_rss_mb"]]}
        workloads[name] = {
            "seed": SEED,
            "seconds": spec["run_seconds"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failures": untraced["failures"] + traced["failures"],
            "end_to_end": {m["name"]: dict(quartiles(samples[m["name"]]),
                                           unit=m["unit"])
                           for m in spec["end_to_end"]},
            "traced_seconds": TRACED_SECONDS,
            "traced_passes": traced_passes,
            "spans_per_pass": spans,
            "projected_traced_passes": passes,
            "projected_trace_load": passes ** 2 * spans,
            "traced_post_s": post_s,
            "projected_trace_seconds": post_s * (passes / traced_passes) ** 2,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "layer_split": layer_split(split_source, name),
        }
    return {
        "environment": {
            "nproc": env["nproc"],
            "cpu_model": env["cpu_model"],
            "python": env["python"],
            "numpy": env["numpy"],
            "commit": env["git_commit"],
            # files that differed from the commit when the runs were made
            "uncommitted": subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                check=True).stdout.splitlines(),
        },
        "workloads": workloads,
    }


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit():
        raise SystemExit("usage: python3 tools/bench_record.py N")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = os.path.join(ROOT, "BENCH_%s.json" % argv[0])
    with open(out, "w") as fh:
        json.dump(record(spec), fh, indent=1)
        fh.write("\n")
    print("wrote %s" % os.path.relpath(out, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
