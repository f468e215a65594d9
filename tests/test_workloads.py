"""The benchmark's workloads against the package.

perfbench/workloads.py drives the package through the names, options and
outputs that the benchmark pins: CLI subcommands and flags, the
providers' constructor arguments, the online workload's scalar velocity.
The module is loaded here from its file, read-only, and every workload
runs one pass and its checks, so that a refactor which breaks the
benchmark fails the test suite and not only the benchmark run.
"""

import os
import types

import pytest

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    # compiled from the source text, so no bytecode cache is written
    # beside it
    module = types.ModuleType("perfbench_workloads")
    with open(WORKLOADS) as fh:
        exec(compile(fh.read(), WORKLOADS, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["studies", "presets", "offline",
                                  "online"])
def test_workload_pass_has_no_failed_operation(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    ctx = workloads.Context(workdir=str(tmp_path),
                            table_path=str(tmp_path / "kernels.bin"))
    if workload.builds_table:
        workloads.prepare(name, str(tmp_path))
        ctx.velocity, _ = workloads.online_velocity(1)
    ops = workload.run_pass(ctx)
    assert ops
    assert [(op.name, op.error) for op in ops if op.error] == []
    found = workload.check(ctx, ops)
    assert sorted(found) == sorted(op.name for op in ops)
    assert {k: v for k, v in found.items() if v} == {}
