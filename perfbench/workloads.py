"""The benchmark's four workloads: set-up, one timed pass, output checks.

Every workload drives the package through its public entry points:
``spectral_vms.cli.main`` in-process, and ``analysis.run_method`` for the
time-dependent velocity the CLI cannot express.  A pass returns one
Op per operation (one CLI call or one solver run); ``check`` turns the
ops of a pass into failure messages per op, outside the timed section.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

# Reduced table grid of the README, built with one worker so that no pool
# processes compete with the benchmark process.
OFFLINE_ARGS = ["offline", "--delta", "0.2", "--m", "100", "--workers", "1"]

# Values the criterion-4/5 studies print in the reference acceptance run.
STUDY_SLOPE_H1 = "1.015"
STUDY_SLOPE_L2 = "0.977"
STUDY_SPREAD_PCT = 0.01

# Criterion 6: published error levels (linf_l2, l2_h1) of the test3 presets;
# every method must stay within 3x of them, and spectral-feasible must beat
# the best stabilized method by at least 1:10 in linf_l2.
PAPER_ERRORS = {
    "test3-a": {"galerkin": (1.1784e-02, 4.7505e-02),
                "spectral-feasible": (8.7889e-06, 5.4716e-05),
                "stab-codina": (3.2285e-03, 1.4329e-02),
                "stab-1d": (1.3805e-03, 1.3446e-03),
                "stab-hauke": (2.1713e-03, 1.1124e-02),
                "stab-franca": (9.9020e-03, 5.0380e-02)},
    "test3-b": {"galerkin": (9.6551e-03, 7.7424e-02),
                "spectral-feasible": (7.2887e-05, 5.2396e-04),
                "stab-codina": (1.3580e-02, 6.4992e-02),
                "stab-1d": (3.7524e-03, 5.3902e-03),
                "stab-hauke": (4.2353e-03, 3.3330e-02),
                "stab-franca": (4.4200e-02, 3.1419e-01)},
    "test3-c": {"galerkin": (4.5006e-03, 3.3305e-02),
                "spectral-feasible": (1.6381e-06, 2.0138e-05),
                "stab-codina": (8.752e-04, 8.4455e-03),
                "stab-1d": (3.3968e-04, 4.5556e-04),
                "stab-hauke": (5.6656e-04, 5.6930e-03),
                "stab-franca": (3.0238e-03, 3.0336e-02)},
}

# online: 100 elements (h = 0.01), mu = 1, dt = 1e-3, 10 steps, so
# S = 10 and P = |a| / 200 stays within [1.5, 4.5], inside the reduced
# grid's [0.2, 20] x [0.2, 20].
ONLINE_ELEMS = 100
ONLINE_MU = 1.0
ONLINE_DT = 1e-3
ONLINE_STEPS = 10
ONLINE_A0 = 600.0
ONLINE_RTOL = 1e-3


@dataclass
class Op:
    """Outcome of one operation of a pass."""

    name: str
    error: str = ""  # exception or non-zero exit code, if any
    stdout: str = ""
    value: object = None


@dataclass
class Context:
    """Everything a workload's passes and checks need."""

    workdir: str
    table_path: str = ""
    velocity: object = None
    digests: dict = field(default_factory=dict)  # op name -> first digest


def cli_op(name, argv):
    """Run cli.main(argv) in-process, capturing what it prints."""
    from spectral_vms import cli
    out, err = io.StringIO(), io.StringIO()
    op = Op(name)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            op.error = "exit code %s: %s" % (code, err.getvalue().strip())
    except Exception as exc:  # an op that raises counts as failed
        op.error = "%s: %s" % (type(exc).__name__, exc)
    op.stdout = out.getvalue()
    return op


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_floats(path, skip_cols=()):
    """Every numeric cell of a CSV, as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows, [float(v) for row in rows[1:] for i, v in enumerate(row)
                  if i not in skip_cols]


def _check_repeat(ctx, name, digest):
    """Outputs must be byte-identical across the passes of a run."""
    first = ctx.digests.setdefault(name, digest)
    return [] if first == digest else ["%s differs from the first pass"
                                       % name]


# --- studies ----------------------------------------------------------


def studies_pass(ctx):
    return [cli_op("convergence", ["convergence", "--out",
                                   os.path.join(ctx.workdir, "studies")])]


def studies_check(ctx, ops):
    (op,) = ops
    out = os.path.join(ctx.workdir, "studies")
    csvs = [os.path.join(out, n) for n in ("dt_study.csv", "h_study.csv")]
    problems = []
    slopes = spread = None
    for line in op.stdout.splitlines():
        if line.startswith("dt study:"):
            words = line.replace(",", "").split()
            slopes = words[4], words[7]
        elif line.startswith("h study:"):
            spread = float(line.split()[-1].rstrip("%"))
    if slopes is None or spread is None:
        return {op.name: ["study summary lines missing"]}
    if not 0.7 <= float(slopes[0]) <= 1.3:
        problems.append("dt-study l2_h1 slope %s outside [0.7, 1.3]"
                        % slopes[0])
    if slopes != (STUDY_SLOPE_H1, STUDY_SLOPE_L2):
        problems.append("slopes %s/%s differ from the reference %s/%s"
                        % (slopes + (STUDY_SLOPE_H1, STUDY_SLOPE_L2)))
    if not spread < 5.0:
        problems.append("h-study spread %g%% not below 5%%" % spread)
    if round(spread, 2) != STUDY_SPREAD_PCT:
        problems.append("h-study spread %g%% differs from the reference "
                        "%.2f%%" % (spread, STUDY_SPREAD_PCT))
    for path in csvs:
        if not all(map(math.isfinite, _read_floats(path)[1])):
            problems.append("non-finite value in %s" % path)
    problems += _check_repeat(ctx, op.name, _digest(*csvs))
    return {op.name: problems}


# --- presets ----------------------------------------------------------


def _presets():
    from spectral_vms.analysis import PRESETS
    return sorted(PRESETS)


def presets_pass(ctx):
    return [cli_op(p, ["compare", "--preset", p, "--provider", "direct",
                       "--out", os.path.join(ctx.workdir, p)])
            for p in _presets()]


def presets_check(ctx, ops):
    found = {}
    for op in ops:
        out = os.path.join(ctx.workdir, op.name)
        report = os.path.join(out, "report.csv")
        solutions = os.path.join(out, "solutions.csv")
        problems = []
        rows, values = _read_floats(report, skip_cols=(0,))
        _, sol_values = _read_floats(solutions, skip_cols=(3,))
        if not all(map(math.isfinite, values + sol_values)):
            problems.append("non-finite value in %s" % out)
        errors = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
        paper = PAPER_ERRORS.get(op.name, {})
        for method, (ref_l2, ref_h1) in paper.items():
            l2, h1 = errors[method]
            if not (l2 <= 3.0 * ref_l2 and h1 <= 3.0 * ref_h1):
                problems.append("%s %s errors %.3e/%.3e exceed 3x %.3e/%.3e"
                                % (op.name, method, l2, h1, ref_l2, ref_h1))
        if paper:
            best_stab = min(v[0] for m, v in errors.items()
                            if m.startswith("stab-"))
            if not errors["spectral-feasible"][0] <= best_stab / 10.0:
                problems.append("%s: spectral-feasible does not beat the "
                                "best stabilized method by 1:10" % op.name)
        problems += _check_repeat(ctx, op.name, _digest(report, solutions))
        found[op.name] = problems
    return found


# --- offline ----------------------------------------------------------


def offline_pass(ctx):
    return [cli_op("offline", OFFLINE_ARGS + ["--out", ctx.table_path])]


def offline_check(ctx, ops):
    from spectral_vms import table
    (op,) = ops
    problems = []
    loaded = table.load_table(ctx.table_path)
    if not all(np.isfinite(v).all() for v in loaded.values.values()):
        problems.append("non-finite table value")
    copy = ctx.table_path + ".resaved"
    table.save_table(loaded, copy)
    written = _digest(ctx.table_path)
    if _digest(copy) != written:
        problems.append("table does not load back bit-exactly")
    os.remove(copy)
    problems += _check_repeat(ctx, op.name, written)
    return {op.name: problems}


# --- online -----------------------------------------------------------


def online_velocity(seed):
    """a(x, t) = a0 (1 + 0.5 sin(2 pi (x - c t) + phi)), c and phi from seed.

    The seed moves the phase and the wave speed only, so every seed does
    the same amount of work: each element sees a new (P, S) every step.
    """
    rng = random.Random(seed)
    c = rng.uniform(5.0, 15.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)

    def a(x, t):
        return ONLINE_A0 * (1.0 + 0.5 * math.sin(
            2.0 * math.pi * (x - c * t) + phi))
    return a, {"a0": ONLINE_A0, "c": c, "phi": phi}


def _feasible(ctx, provider):
    from spectral_vms import analysis, mesh_fem
    mesh = mesh_fem.build_uniform_mesh(0.0, 1.0, ONLINE_ELEMS)
    tgrid = mesh_fem.TimeGrid.from_dt(ONLINE_DT, ONLINE_STEPS)
    return analysis.run_method("spectral-feasible", mesh, tgrid,
                               ctx.velocity, ONLINE_MU,
                               initial=analysis.hat_profile,
                               provider=provider)


def online_pass(ctx):
    from spectral_vms import kernels, table, vms_feasible
    ops = [Op("feasible-table"), Op("feasible-direct")]
    try:
        tab = table.load_table(ctx.table_path)
    except Exception as exc:  # without the table neither run counts
        for op in ops:
            op.error = "load_table: %s: %s" % (type(exc).__name__, exc)
        return ops
    providers = [vms_feasible.TableKernelProvider(tab),
                 vms_feasible.DirectKernelProvider(
                     policy=kernels.TruncationPolicy())]
    for op, provider in zip(ops, providers):
        try:
            op.value = _feasible(ctx, provider)
        except Exception as exc:  # an op that raises counts as failed
            op.error = "%s: %s" % (type(exc).__name__, exc)
    return ops


def online_check(ctx, ops):
    found = {}
    for op in ops:
        problems = []
        if not np.isfinite(op.value).all():
            problems.append("non-finite value")
        problems += _check_repeat(ctx, op.name,
                                  hashlib.sha256(op.value.tobytes())
                                  .hexdigest())
        found[op.name] = problems
    runs = {op.name: op.value for op in ops}
    if len(runs) == 2:
        tab, direct = runs["feasible-table"], runs["feasible-direct"]
        gap = np.max(np.abs(tab - direct)) / np.max(np.abs(direct))
        if not gap <= ONLINE_RTOL:
            found["feasible-table"].append(
                "table run differs from the direct run by %.3g (relative)"
                % gap)
    return found


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object
    check: object
    builds_table: bool = False  # set-up writes the reduced table


WORKLOADS = {w.name: w for w in [
    Workload("studies", studies_pass, studies_check),
    Workload("presets", presets_pass, presets_check),
    Workload("offline", offline_pass, offline_check),
    Workload("online", online_pass, online_check, builds_table=True),
]}


def prepare(workload, workdir):
    """Set-up of one workload in a fresh interpreter: import, build inputs."""
    from spectral_vms import cli  # noqa: F401  (the import is set-up work)
    if WORKLOADS[workload].builds_table:
        op = cli_op("offline", OFFLINE_ARGS + [
            "--out", os.path.join(workdir, "kernels.bin")])
        if op.error:
            raise RuntimeError("set-up table build failed: " + op.error)
