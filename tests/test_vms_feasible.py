import gc
import weakref

import numpy as np
import pytest

from oracles import brute_series

from spectral_vms import kernels as K
from spectral_vms import vms_feasible as F
from spectral_vms import vms_full as V
from spectral_vms.baselines import run_galerkin
from spectral_vms.mesh_fem import (DirichletBC, TimeGrid,
                                   build_uniform_mesh, project_velocity)


def test_zero_dynamics():
    mesh = build_uniform_mesh(0.0, 1.0, 6)
    config = F.FeasibleConfig(mesh=mesh, tgrid=TimeGrid(0.05, 4), mu=1.0,
                              velocity=200.0)
    hist = F.run_feasible(config)
    np.testing.assert_array_equal(hist, 0.0)


def test_zero_velocity_kills_advective_families():
    mesh = build_uniform_mesh(0.0, 1.0, 5)
    provider = F.DirectKernelProvider()
    mats = F.assemble_matrices(mesh, np.zeros(5), 1.0, 0.01, provider)
    for name in ("A2", "A3", "A4", "B2", "B3", "B4"):
        m = getattr(mats, name)
        assert m.max_abs() == 0.0, name
    assert mats.A1.max_abs() > 0.0
    assert mats.B1.max_abs() > 0.0


def test_direct_provider_rejects_policy_with_n_modes():
    with pytest.raises(ValueError, match="at most one"):
        F.DirectKernelProvider(policy=K.TruncationPolicy(), n_modes=10)


def test_entry_level_equivalence_brute_force():
    # every assembled entry equals the quadrature-plus-long-summation
    # double sum of the defining series
    mesh = build_uniform_mesh(0.0, 0.08, 2)  # h = 0.04
    a, mu, dt = 120.0, 1.0, 4e-4  # P = 2.4, S = 0.25
    provider = F.DirectKernelProvider()
    mats = F.assemble_matrices(mesh, [a, a], mu, dt, provider)
    h = 0.04
    P, S = 2.4, 0.25
    for prefix in ("A", "B"):
        ref_k1 = np.array([[brute_series(prefix + "1", m, l, P, S)
                            for l in (0, 1)] for m in (0, 1)])
        ref_k2 = np.array([brute_series(prefix + "2", 0, l, P, S)
                           for l in (0, 1)])
        ref_k3 = np.array([brute_series(prefix + "3", m, 0, P, S)
                           for m in (0, 1)])
        ref_k4 = brute_series(prefix + "4", 0, 0, P, S)
        sgn = np.array([-1.0, 1.0])
        blocks = {
            "1": 2.0 * h * ref_k1.T,
            "2": 2.0 * a * sgn[None, :] * ref_k2[:, None],
            "3": -2.0 * a * sgn[:, None] * ref_k3[None, :],
            "4": -(2.0 * a ** 2 / h) * np.outer(sgn, sgn) * ref_k4,
        }
        for idx, block in blocks.items():
            got = getattr(mats, prefix + idx)
            dense = np.zeros((3, 3))
            for k in (0, 1):
                dense[k:k + 2, k:k + 2] += block
            np.testing.assert_allclose(got.to_dense(), dense, rtol=1e-8,
                                       atol=1e-12)


def _full_equiv_config(mesh, tgrid, a, mu, f, bc, J):
    return V.FullVmsConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                           bc=bc, source=f, initial=None, n_modes=J)


@pytest.mark.parametrize("a", [35.0, -35.0])
def test_one_level_history_matches_full_method(a):
    # feasible stepping == full stepping whose subgrid state is rebuilt
    # from the two-level residual each step
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    mu, dt, J, steps = 0.8, 0.01, 4, 4
    tgrid = TimeGrid(dt * steps, steps)
    bc = DirichletBC(lambda t: 0.1 * np.sin(t), lambda t: 0.2 + t)

    def f(x, t):
        return 0.7  # element-constant source keeps both paths exact

    def ic(x):
        return np.sin(np.pi * x) + 0.3 * x

    fcfg = F.FeasibleConfig(
        mesh=mesh, tgrid=tgrid, mu=mu, velocity=a, bc=bc, source=f,
        initial=ic, provider=F.DirectKernelProvider(n_modes=J))
    hist = F.run_feasible(fcfg)

    vcfg = _full_equiv_config(mesh, tgrid, a, mu, f, bc, J)
    # the velocity is constant, so one snapshot serves every time level
    ctx = V._Snapshot(vcfg, project_velocity(vcfg.velocity, mesh))
    u = mesh.interpolate(ic)
    ref = [u.copy()]
    state = V.SubgridState.zeros(mesh.n_elems, J)
    for n in range(steps):
        if n > 0:
            state = V.approximate_subgrid_state(ref[n - 1], ref[n], n, vcfg,
                                                ctx)
        u, _ = V.step_full(ref[n], state, n, vcfg, ctx)
        ref.append(u)
    ref = np.array(ref)
    assert np.max(np.abs(hist - ref)) < 1e-10


def test_first_step_matches_full_method():
    # with a zero initial subgrid both methods solve the same first system
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    a, mu, dt, J = 1000.0, 1.0, 1e-3, 60
    tgrid = TimeGrid(dt, 1)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    fcfg = F.FeasibleConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                            initial=hat,
                            provider=F.DirectKernelProvider(n_modes=J))
    hist = F.run_feasible(fcfg)
    vcfg = V.FullVmsConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                           initial=hat, n_modes=J)
    res = V.run_full(vcfg)
    assert np.max(np.abs(hist[1] - res.history[1])) < 1e-10


def test_null_provider_reduces_to_galerkin():
    mesh = build_uniform_mesh(0.0, 1.0, 20)
    a, mu, dt = 300.0, 1.0, 1e-2
    tgrid = TimeGrid(3 * dt, 3)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    fcfg = F.FeasibleConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                            initial=hat, provider=F.NullKernelProvider())
    hist = F.run_feasible(fcfg)
    ref = run_galerkin(mesh, tgrid, a, mu, initial=hat)
    np.testing.assert_array_equal(hist, ref)


def test_g_pairing_flag_changes_result_only_slightly():
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    a, mu, dt = 300.0, 1.0, 1e-2
    tgrid = TimeGrid(3 * dt, 3)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    hists = {}
    for pairing in ("main", "appendix"):
        cfg = F.FeasibleConfig(
            mesh=mesh, tgrid=tgrid, mu=mu, velocity=a, initial=hat,
            provider=F.DirectKernelProvider(),
            g_pairing=pairing)
        hists[pairing] = F.run_feasible(cfg)
    diff = np.max(np.abs(hists["main"] - hists["appendix"]))
    assert 0.0 < diff < 0.05  # the readings differ, but not wildly


def test_matrices_cached_for_constant_velocity(monkeypatch):
    mesh = build_uniform_mesh(0.0, 1.0, 10)
    calls = {"n": 0}
    orig = F.assemble_matrices

    def counting(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(F, "assemble_matrices", counting)
    cfg = F.FeasibleConfig(mesh=mesh, tgrid=TimeGrid(0.05, 5), mu=1.0,
                           velocity=10.0,
                           initial=lambda x: x * (1 - x),
                           provider=F.DirectKernelProvider(n_modes=10))
    F.run_feasible(cfg)
    assert calls["n"] == 1


def test_run_keeps_only_the_current_snapshots(monkeypatch):
    # a time-dependent velocity gives a new snapshot every step (none at
    # t = 0: the first step reads no old level); a step needs the new and
    # old levels only, so no more than the previous snapshot may be alive
    # when the next one is assembled
    mesh = build_uniform_mesh(0.0, 1.0, 10)
    alive_before = []
    snapshots = []
    orig = F.assemble_matrices

    def tracking(*args, **kwargs):
        gc.collect()
        alive_before.append(sum(ref() is not None for ref in snapshots))
        mats = orig(*args, **kwargs)
        snapshots.append(weakref.ref(mats))
        return mats

    monkeypatch.setattr(F, "assemble_matrices", tracking)
    n_steps = 30
    cfg = F.FeasibleConfig(mesh=mesh, tgrid=TimeGrid(0.03, n_steps),
                           mu=1.0, velocity=lambda x, t: 10.0 + 100.0 * t,
                           initial=lambda x: x * (1 - x),
                           provider=F.DirectKernelProvider(n_modes=10))
    F.run_feasible(cfg)
    assert len(snapshots) == n_steps
    assert max(alive_before) == 1


def test_step_feasible_rejects_bad_pairing():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        F.FeasibleConfig(mesh=mesh, tgrid=TimeGrid(0.01, 1), mu=1.0,
                         velocity=1.0, g_pairing="nonsense")


def test_force_vectors_validate_the_source():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    mats = F.assemble_matrices(mesh, 2.0, 1.0, 0.01,
                               F.DirectKernelProvider())
    forces = F._force_vectors(mesh, mats, lambda x, t: 0.7, 0.0)
    assert all(np.all(np.isfinite(v)) for v in forces.values())
    with pytest.raises(ValueError, match="non-finite"):
        F._force_vectors(mesh, mats,
                         lambda x, t: np.where(x > 0.5, np.inf, 1.0), 0.0)


def test_source_evaluated_once_per_time_level(monkeypatch):
    # step n + 1 reuses the force vectors that step n formed at t_{n+1},
    # so a run calls the source once for the load and once at the
    # element midpoints per step; the carried vectors are, bit for bit,
    # those of the old snapshot at t_n
    mesh = build_uniform_mesh(0.0, 1.0, 10)
    times = []

    def source(x, t):
        times.append(t)
        return np.cos(3.0 * x) + x * t

    cfg = F.FeasibleConfig(mesh=mesh, tgrid=TimeGrid(0.05, 5), mu=0.1,
                           velocity=lambda x, t: 2.0 + np.sin(x + 20.0 * t),
                           source=source, initial=lambda x: x * (1 - x))
    F.run_feasible(cfg)
    assert len(times) == 10
    assert sorted(set(times)) == [0.01 * (n + 1) for n in range(5)]

    original = F.step_feasible
    checked = []

    def checking(n, u, sys_new, sys_old, carry, config):
        if sys_old is not None:
            fresh = F._force_vectors(config.mesh, sys_old, config.source,
                                     n * config.tgrid.dt)
            assert sorted(carry[1]) == sorted(fresh)
            for name, vec in fresh.items():
                assert carry[1][name].tobytes() == vec.tobytes(), name
            checked.append(n)
        return original(n, u, sys_new, sys_old, carry, config)

    monkeypatch.setattr(F, "step_feasible", checking)
    F.run_feasible(cfg)
    assert checked == [1, 2, 3, 4]
