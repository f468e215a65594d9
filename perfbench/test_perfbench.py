"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The counts of a traced pass (calls, modes, capped cells, unknowns,
clamps, bytes) must repeat exactly between two traced passes of every
workload; this runs each workload twice and takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import spectral_vms  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectral_vms import baselines, mesh_fem, table  # noqa: E402
from spectral_vms import vms_feasible, vms_full  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        ("outer", 0.0, 10.0, -1, 0),
        ("inner", 1.0, 4.0, 0, 0),
        ("leaf", 2.0, 3.0, 1, 0),
        ("inner", 5.0, 6.0, 0, 0),
        ("outer", 0.0, 1.0, -1, 1),
    ])
    stats = tracer.layer_stats(0)
    assert stats["outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0}
    assert stats["inner"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert stats["leaf"]["self_s"] == 1.0
    assert tracer.layer_stats(1)["outer"]["calls"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    original = mesh_fem.solve_tridiag
    holders = [mesh_fem, baselines, vms_full, vms_feasible, spectral_vms]
    assert all(h.solve_tridiag is original for h in holders)
    series = table.sum_series_multi
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = mesh_fem.solve_tridiag
        assert wrapped is not original
        assert all(h.solve_tridiag is wrapped for h in holders)
        assert table.sum_series_multi is not series
    finally:
        tracer.uninstall()
    assert all(h.solve_tridiag is original for h in holders)
    assert table.sum_series_multi is series


def _context(name, tmp_path):
    ctx = workloads.Context(workdir=str(tmp_path))
    ctx.table_path = str(tmp_path / "kernels.bin")
    if workloads.WORKLOADS[name].builds_table:
        workloads.prepare(name, str(tmp_path))
        ctx.velocity, _ = workloads.online_velocity(1)
    return ctx


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = _context(name, tmp_path)
    tracer = tracing.Tracer()
    for run_id in (0, 1):
        tracer.install()
        try:
            ops = tracer.run(run_id, lambda: workload.run_pass(ctx))
        finally:
            tracer.uninstall()
        assert not [op.error for op in ops if op.error]
        assert all(not p for p in workload.check(ctx, ops).values())
    first, second = tracer.run_counts(0), tracer.run_counts(1)
    assert first == second
    assert first["bench.pass.calls"] == 1
    expected = {"studies": "kernels.source_mode_projection.calls",
                "presets": "baselines.step_galerkin.calls",
                "offline": "kernels.sum_series_multi.capped",
                "online": "table.interpolate.calls"}[name]
    assert first[expected] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "presets",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_spec_names_every_workload():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
