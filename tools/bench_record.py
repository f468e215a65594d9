"""Record the benchmark in BENCH_<N>.json at the root of the checkout.

    python3 tools/bench_record.py N

Runs perfbench/run.py on every workload of BENCHMARK.json, first
untraced for the benchmark's run_seconds, then traced for TRACED_SECONDS,
and writes the machine, the commit, each end-to-end metric's median and
quartiles, and the per-layer metrics of the traced run.  wall_s is
summarised over the untraced passes, setup_s over perfbench's set-ups
and peak_rss_mb is the one value of the untraced run.  Traced runs are
short because perfbench's post-processing of a traced run grows with
the square of its number of passes.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
TRACED_SECONDS = 3.0


def perfbench(workload, seconds, trace):
    """The full record of one perfbench/run.py run."""
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                    "--workload", workload, "--seed", str(SEED),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(ROOT, ".perfbench", "%s-seed%d-trace%d.json"
                        % (workload, SEED, trace))
    with open(path) as fh:
        return json.load(fh)


def quartiles(samples):
    """Median and quartiles of the samples, and their number."""
    samples = sorted(samples)
    q1, q3 = (statistics.quantiles(samples, n=4)[::2] if len(samples) > 1
              else samples * 2)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": len(samples)}


def record(spec):
    env = None
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        untraced = perfbench(name, spec["run_seconds"], 0)
        traced = perfbench(name, TRACED_SECONDS, 1)
        env = untraced["environment"]
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
            "traced_passes": len(traced["traced_wall_s"]),
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
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
