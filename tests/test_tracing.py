"""The benchmark's tracer against the package.

perfbench/tracing.py wraps package functions by module and name, and
`perfbench/run.py --trace 1` reads per-step call counts off them.  The
tracer module is loaded here from its file, read-only, so that a rename
or a per-step call lost in a refactor fails the test suite and not only
the benchmark.
"""

import importlib
import os
import types

import numpy as np
import pytest

from spectral_vms import analysis, baselines, vms_feasible, vms_full
from spectral_vms.mesh_fem import TimeGrid, build_uniform_mesh

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    # compiled from the source text, so no bytecode cache is written
    # beside it
    module = types.ModuleType("perfbench_tracing")
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


def _targets(tracing):
    """(owner, attribute) of every traced function, and its original."""
    out = []
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module("%s.%s" % (tracing.PACKAGE,
                                                   module_name))
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            out.append((owner, attr, vars(owner)[attr]))
        else:
            out.append((owner, attr, getattr(owner, attr)))
    return out


def test_install_wraps_every_target_and_uninstall_restores(tracing):
    targets = _targets(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in targets:
            assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, attr


def test_traced_runs_count_one_step_call_per_step(tracing):
    mesh = build_uniform_mesh(0.0, 1.0, 8)
    tgrid = TimeGrid(0.03, 3)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    runs = [
        lambda: baselines.run_galerkin(mesh, tgrid, 5.0, 1.0, initial=hat),
        lambda: baselines.run_stabilized("Codina", mesh, tgrid, 5.0, 1.0,
                                         initial=hat),
        lambda: vms_full.run_full(vms_full.FullVmsConfig(
            mesh=mesh, tgrid=tgrid, mu=1.0, velocity=5.0, initial=hat,
            n_modes=4)),
        lambda: vms_feasible.run_feasible(vms_feasible.FeasibleConfig(
            mesh=mesh, tgrid=tgrid, mu=1.0, velocity=5.0, initial=hat)),
        lambda: vms_full.run_full(vms_full.FullVmsConfig(
            mesh=mesh, tgrid=tgrid, mu=1.0, velocity=5.0, initial=np.sin,
            n_modes=4, project_initial_subgrid=True)),
        lambda: vms_feasible.run_feasible(vms_feasible.FeasibleConfig(
            mesh=mesh, tgrid=tgrid, mu=1.0,
            velocity=lambda x, t: 5.0 + np.sin(x + 20.0 * t), initial=hat)),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for run_id, run in enumerate(runs):
            tracer.run(run_id, run)
    finally:
        tracer.uninstall()
    per_run = [tracer.run_counts(run_id) for run_id in range(len(runs))]
    expected = ["baselines.step_galerkin.calls",
                "baselines.step_stabilized.calls",
                "vms_full.step_full.calls",
                "vms_feasible.step_feasible.calls",
                "vms_full.step_full.calls",
                "vms_feasible.step_feasible.calls"]
    for counts, name in zip(per_run, expected):
        assert counts[name] == tgrid.n_steps, name
        assert counts["mesh_fem.solve_tridiag.calls"] == tgrid.n_steps
        assert counts["mesh_fem.solve_tridiag.unknowns"] \
            == tgrid.n_steps * mesh.n_nodes
    # a constant velocity is projected and assembled once per run
    assert per_run[3]["vms_feasible.assemble_matrices.calls"] == 1
    assert per_run[2]["vms_full.init_state.calls"] == 1
    assert per_run[2]["kernels.element_mode_arrays.calls"] == 1
    # the projected initial subgrid and every step share the t = 0
    # snapshot: one element_mode_arrays call, and one projection
    assert per_run[4]["vms_full.init_state.calls"] == 1
    assert per_run[4]["kernels.element_mode_arrays.calls"] == 1
    assert per_run[4]["kernels.source_mode_projection.calls"] == 1
    # a velocity that moves every step is assembled every step, but the
    # mass matrix depends on the mesh alone: the six runs share one mesh,
    # so they share one assemble_mass
    assert per_run[5]["vms_feasible.assemble_matrices.calls"] \
        == tgrid.n_steps
    assert sum(counts.get("mesh_fem.assemble_mass.calls", 0)
               for counts in per_run) == 1


def test_traced_experiment_assembles_one_mass_matrix_per_mesh(tracing):
    # every method of the preset runs on its mesh and the reference on a
    # finer one: two meshes, two mass matrices
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run(0, lambda: analysis.run_experiment(
            analysis.PRESETS["test3-a"]))
    finally:
        tracer.uninstall()
    counts = tracer.run_counts(0)
    assert counts["mesh_fem.assemble_mass.calls"] == 2
