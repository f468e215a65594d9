"""Benchmark of the spectral_vms package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see BENCHMARK.json for why each was chosen):

  studies  cli convergence (criterion-4 h-study, criterion-5 dt-study)
  presets  cli compare for all seven presets, direct kernel provider
  offline  cli offline on the reduced grid (delta 0.2, m 100, 1 worker)
  online   load the reduced table, then spectral-feasible with the table
           and the direct provider on a seeded time-dependent velocity

With --trace 0 the run repeats untraced passes for about S seconds and
reports the end-to-end metrics.  With --trace 1 it runs untraced passes,
then at least two traced passes, and reports the per-layer metrics of
BENCHMARK.json.  Every pass's outputs are checked outside the timed
section.  The last stdout line is the JSON result; the full record goes
to .perfbench/ in the checkout, spans of a traced run beside it.
"""

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported, here and in set-up
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
# A seed kept out of tuning, for confirming a later claim on fresh inputs.
CONFIRM_SEED = 104729


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="WORKDIR",
                        help=argparse.SUPPRESS)  # set-up child mode
    return parser.parse_args(argv)


def import_package():
    """Import spectral_vms from ./src of this checkout, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "spectral_vms", "__init__.py")):
        raise SystemExit("error: no package source under %s" % SRC)
    sys.path.insert(0, SRC)
    import spectral_vms
    if os.path.dirname(os.path.dirname(spectral_vms.__file__)) != SRC:
        raise SystemExit("error: spectral_vms imported from %s"
                         % spectral_vms.__file__)


def setup_times(workload, workdir):
    """Wall time of SETUP_REPEATS fresh-interpreter set-ups.

    Each set-up starts python, imports the package and builds the
    workload's inputs; returns the times and the last set-up's directory.
    """
    times = []
    for i in range(SETUP_REPEATS):
        target = os.path.join(workdir, "setup-%d" % i)
        os.makedirs(target)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--prepare", target],
            capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit("error: set-up failed:\n" + proc.stderr)
    return times, target


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workers": "offline and the online set-up run `offline --workers 1`,"
                   " so no pool processes compete with the benchmark "
                   "process",
    }


class Tally:
    """Attempted and failed operations, with the reasons for failures.

    run_errors hold checks of the whole run, such as counts that differ
    between traced passes; they fail the run but no operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.run_errors = []

    def add(self, workload, ctx, ops):
        self.attempted += len(ops)
        found = {op.name: [op.error] for op in ops if op.error}
        ok = [op for op in ops if not op.error]
        try:
            checked = workload.check(ctx, ok) if ok else {}
        except Exception as exc:  # a check that cannot run fails its ops
            checked = {op.name: ["check raised %s: %s"
                                 % (type(exc).__name__, exc)] for op in ok}
        for name, problems in checked.items():
            if problems:
                found.setdefault(name, []).extend(problems)
        self.failures += ["%s: %s" % (name, "; ".join(p))
                          for name, p in found.items()]

    @property
    def failed(self):
        return len(self.failures)


def timed_passes(run_one, seconds, min_passes=1):
    """Call run_one() until about `seconds` of pass time is spent.

    A pass starts only while the time spent plus the median pass so far
    fits in the budget; returns the pass durations.
    """
    durations = []
    while len(durations) < min_passes or \
            sum(durations) + statistics.median(durations) <= seconds:
        durations.append(run_one())
    return durations


def high_percentile(samples):
    """Highest order statistic with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11], "rank": n - 10, "of": n,
            "percentile": 100.0 * (n - 10) / n}


def traced_metrics(tracer, spec, n_runs):
    """Per-layer metrics of BENCHMARK.json from the traced passes."""
    stats = [tracer.layer_stats(i) for i in range(n_runs)]
    counts = tracer.run_counts(0)

    def seconds(layer, stat):
        return statistics.median(s.get(layer, {}).get(stat, 0.0)
                                 for s in stats)

    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        layer, stat = name.rsplit(".", 1)
        if stat == "self_s":
            values[name] = seconds(layer, "self_s")
        elif stat == "s":
            values[name] = seconds(layer, "total_s")
        elif name == "vms_feasible.provider.kernel_calls":
            values[name] = (
                counts.get("vms_feasible.provider.direct_kernel_calls", 0)
                + counts.get("vms_feasible.provider.table_kernel_calls", 0))
        elif name == "vms_feasible.provider.hit_ratio":
            direct = counts.get("vms_feasible.provider.direct_kernel_calls",
                                0)
            batch = counts.get("kernels.sum_series_batch.calls", 0)
            values[name] = 1.0 - batch / direct if direct else 0.0
        elif stat in ("calls", "modes", "capped", "unknowns", "clamps",
                      "bytes"):
            values[name] = counts.get(name, 0)
    return values


# Layers whose nested self time is reported on its own, as in "assembly
# under the fine-mesh reference".
ANCESTORS = ("analysis.reference_solution", "vms_full.init_state",
             "vms_feasible.assemble_matrices")


def profile_shares(tracer, n_runs, under=None):
    """Median self-time share of each span name in a traced pass."""
    passes = [tracer.layer_stats(i)["bench.pass"]["total_s"]
              for i in range(n_runs)]
    stats = [tracer.layer_stats(i, under) for i in range(n_runs)]
    shares = {}
    for name in set().union(*stats):
        shares[name] = statistics.median(
            s.get(name, {}).get("self_s", 0.0) / wall
            for s, wall in zip(stats, passes))
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_benchmark(args, spec, record):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setups, last_setup = setup_times(args.workload, workdir)
        ctx = workloads.Context(workdir=workdir)
        if workload.builds_table:
            ctx.table_path = os.path.join(last_setup, "kernels.bin")
            ctx.velocity, record["velocity"] = workloads.online_velocity(
                args.seed)
        else:
            ctx.table_path = os.path.join(workdir, "kernels.bin")
        tally = Tally()

        def untraced():
            start = time.perf_counter()
            ops = workload.run_pass(ctx)
            elapsed = time.perf_counter() - start
            tally.add(workload, ctx, ops)
            return elapsed

        walls = timed_passes(untraced, args.seconds)
        record["wall_s"] = {"median": statistics.median(walls),
                            "samples": len(walls),
                            "high_percentile": high_percentile(walls),
                            "all": walls}
        record["setup_s"] = {"median": statistics.median(setups),
                             "samples": setups}
        metrics = {"wall_s": record["wall_s"]["median"],
                   "setup_s": record["setup_s"]["median"]}

        if args.trace:
            tracer = tracing.Tracer()

            def traced():
                run_id = len(tracer.counts)
                tracer.install()
                try:
                    start = time.perf_counter()
                    ops = tracer.run(run_id, lambda: workload.run_pass(ctx))
                    elapsed = time.perf_counter() - start
                finally:
                    tracer.uninstall()
                tally.add(workload, ctx, ops)
                return elapsed

            traced_walls = timed_passes(traced, args.seconds, min_passes=2)
            n_runs = len(traced_walls)
            counts = [tracer.run_counts(i) for i in range(n_runs)]
            if any(c != counts[0] for c in counts[1:]):
                tally.run_errors.append("trace counts differ between "
                                        "traced passes: %s" % counts)
            metrics = traced_metrics(tracer, spec, n_runs)
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - record["wall_s"]["median"])
            record["traced_wall_s"] = traced_walls
            record["counts"] = counts[0]
            record["profile_shares"] = profile_shares(tracer, n_runs)
            record["profile_shares_under"] = {
                a: profile_shares(tracer, n_runs, under=a)
                for a in ANCESTORS}
            spans_path = os.path.join(OUT, "spans-%s-seed%d.json"
                                      % (args.workload, args.seed))
            with open(spans_path, "w") as fh:
                json.dump(tracer.dump(), fh)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.trace:
        metrics["peak_rss_mb"] = rss_kb / 1024.0
    record["peak_rss_mb"] = rss_kb / 1024.0
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["fail_rate"] = tally.failed / tally.attempted
    record["failures"] = tally.failures + tally.run_errors
    return metrics, tally


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, HERE)
    if args.prepare:
        import_package()
        import workloads
        workloads.prepare(args.workload, args.prepare)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit("error: unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(names)))
    import_package()

    record = {"workload": args.workload, "seed": args.seed,
              "confirm_seed": CONFIRM_SEED, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}
    metrics, tally = run_benchmark(args, spec, record)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit("error: metrics not measured: %s" % missing)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    record["metrics"] = result
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s, seed %d, %d passes, record %s"
          % (args.workload, args.seed, record["wall_s"]["samples"],
             os.path.relpath(record_path, ROOT)))
    for name, m in result.items():
        print("%-44s %.6g %s" % (name, m["value"], m["unit"]))
    high = record["wall_s"]["high_percentile"]
    print("%-44s %s" % ("wall_s samples", record["wall_s"]["samples"]))
    print("%-44s %s" % ("wall_s high percentile",
                        "n/a (needs 11 passes)" if high is None else
                        "p%.0f %.6g s" % (high["percentile"], high["value"])))
    print("%-44s %.6g (%d of %d operations failed)"
          % ("fail_rate", record["fail_rate"], tally.failed,
             tally.attempted))
    for failure in record["failures"]:
        print("FAILED " + failure)
    print(json.dumps({"correct": not record["failures"],
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
