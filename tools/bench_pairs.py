"""Alternating benchmark pairs: a git revision against the working tree.

    python3 tools/bench_pairs.py REV [--pairs N] [--workloads W ...]
                                     [--seconds S] [--seed K]

Makes two fresh `git archive` copies under one temporary directory
outside the checkout, "base" from REV and "head" from the working tree
(tracked and untracked files that .gitignore does not exclude), and runs
perfbench/run.py untraced in each copy, N pairs per workload, the order
of the two runs alternating from pair to pair.  Both copies sit at paths
of the same length and depth, because a run's wall_s also moves with the
directory it runs in.  Prints, per workload and end-to-end metric, the
median and quartiles of each side's per-run medians and the pairs that
the working tree won (all three metrics are better lower), then deletes
the copies.  Nothing is written to the working tree or its index; the
working tree's files are stored in .git as objects, to be archived.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def git(*args, env=None):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def working_tree_id(scratch):
    """A tree object of the working tree, written through a throwaway
    index so that the checkout's own index stays as it is."""
    env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def archive(tree_ish, dest, scratch):
    """Unpack `git archive tree_ish` into dest."""
    tar_path = os.path.join(scratch, "src.tar")
    with open(tar_path, "wb") as fh:
        subprocess.run(["git", "archive", tree_ish], cwd=ROOT, stdout=fh,
                       check=True)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest)
    os.remove(tar_path)


def run_once(copy, workload, seconds, seed):
    """The end-to-end metrics of one untraced perfbench run in copy."""
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"],
                   cwd=copy, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(copy, ".perfbench", "%s-seed%d-trace0.json"
                        % (workload, seed))
    with open(path) as fh:
        record = json.load(fh)
    return {"wall_s": record["wall_s"]["median"],
            "setup_s": record["setup_s"]["median"],
            "peak_rss_mb": record["peak_rss_mb"],
            "failed": record["failed"]}


def summary(values):
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def report(workload, pairs):
    print("%s: %d pairs, median [q1, q3] of the per-run medians"
          % (workload, len(pairs)))
    for metric in METRICS:
        base = [p["base"][metric] for p in pairs]
        head = [p["head"][metric] for p in pairs]
        won = sum(h < b for b, h in zip(base, head))
        change = statistics.median(head) / statistics.median(base) - 1.0
        print("  %-12s base %-28s head %-28s %+6.1f%%  head won %d/%d"
              % (metric, summary(base), summary(head), 100 * change, won,
                 len(pairs)))
    failed = sum(p[side]["failed"] for p in pairs for side in p)
    if failed:
        print("  failed operations: %d" % failed)


def parse_args(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv):
    args = parse_args(argv)
    base_id = git("rev-parse", "--verify", args.rev + "^{tree}")
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        copies = {"base": os.path.join(scratch, "base"),
                  "head": os.path.join(scratch, "head")}
        archive(base_id, copies["base"], scratch)
        archive(working_tree_id(scratch), copies["head"], scratch)
        for workload in args.workloads:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pairs.append({side: run_once(copies[side], workload,
                                             args.seconds, args.seed)
                              for side in order})
            report(workload, pairs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
