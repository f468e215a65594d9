import dataclasses
import inspect

import numpy as np
import pytest

from oracles import gauss01, monolithic_step_oracle

from spectral_vms import kernels as K
from spectral_vms.analysis import mesh_independence_study
from spectral_vms import vms_full as V
from spectral_vms.mesh_fem import (DirichletBC, Mesh1D, build_uniform_mesh,
                                   project_velocity)


def _snapshot(config, n):
    """A fresh _Snapshot of the velocity at time level n."""
    return V._Snapshot(config, project_velocity(
        config.velocity, config.mesh, n * config.tgrid.dt))


@pytest.mark.parametrize("case", ["uniform", "nonuniform_negative",
                                  "nonuniform_mixed_sign_source"])
def test_step_matches_monolithic_oracle(case):
    if case == "uniform":
        mesh = build_uniform_mesh(0.0, 1.0, 6)
        a, mu, dt, J = 2.7, 0.3, 0.05, 4
        bc = DirichletBC.homogeneous()

        def f(x, t):
            return np.sin(2.0 * x) + t

        def u_init(x):
            return np.sin(np.pi * x)
    elif case == "nonuniform_negative":
        mesh = Mesh1D([0.0, 0.17, 0.31, 0.55, 0.8, 1.0])
        a, mu, dt, J = -1.4, 0.2, 0.02, 5
        bc = DirichletBC(lambda t: 0.3 * t, lambda t: 1.0 + t)
        f = None

        def u_init(x):
            return x * (1.0 - x) + 0.5
    else:
        # the velocity changes sign across elements and repeats on the
        # two elements of width 0.25, so the step mixes distinct and
        # shared (P, S) with both mirror branches and a source
        mesh = Mesh1D([0.0, 0.125, 0.375, 0.625, 0.7, 0.875, 1.0])
        mu, dt, J = 0.25, 0.03, 4
        speeds = [(0.125, 2.2), (0.625, -1.7), (0.875, 3.1), (1.0, -0.6)]

        def a(x, t):
            return next(v for right, v in speeds if x <= right)

        bc = DirichletBC(lambda t: 0.2, lambda t: -0.1 + t)

        def f(x, t):
            return np.cos(3.0 * x) - 2.0 * t

        def u_init(x):
            return np.exp(-x) * (1.0 + x)

    config = V.FullVmsConfig(
        mesh=mesh, tgrid=type("T", (), {"dt": dt, "n_steps": 1,
                                        "t_final": dt})(),
        mu=mu, velocity=a, bc=bc, source=f, initial=u_init, n_modes=J)
    u0, state = V.init_state(config)
    rng = np.random.default_rng(5)
    state[:] = 0.1 * rng.standard_normal(state.shape)

    a_elem = project_velocity(config.velocity, mesh, dt)
    u1, state1 = V.step_full(u0, state, 0, config, V._Snapshot(config, a_elem))
    u_ref, c_ref = monolithic_step_oracle(
        mesh, a_elem, mu, dt, f, bc, dt, u0, state, J)
    assert np.max(np.abs(u1 - u_ref)) < 1e-10
    assert np.max(np.abs(state1 - c_ref)) < 1e-10


def test_zero_dynamics():
    mesh = build_uniform_mesh(0.0, 1.0, 8)
    from spectral_vms.mesh_fem import TimeGrid
    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(0.1, 5), mu=1.0,
                             velocity=100.0, n_modes=6)
    res = V.run_full(config)
    assert res.history.shape == (6, 9)
    np.testing.assert_array_equal(res.history, 0.0)
    np.testing.assert_array_equal(res.amplitudes, 0.0)


def test_init_state_piecewise_linear_no_subgrid():
    mesh = build_uniform_mesh(0.0, 1.0, 5)
    from spectral_vms.mesh_fem import TimeGrid

    def lin(x):
        return 2.0 * x - 0.3

    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(0.1, 2), mu=1.0,
                             velocity=3.0, initial=lin, n_modes=8,
                             project_initial_subgrid=True)
    u0, state = V.init_state(config)
    np.testing.assert_allclose(u0, 2.0 * mesh.nodes - 0.3)
    np.testing.assert_allclose(state, 0.0, atol=1e-15)


def test_init_state_hat_ic():
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    from spectral_vms.mesh_fem import TimeGrid

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(9e-3, 9), mu=1.0,
                             velocity=1000.0, initial=hat, n_modes=10)
    u0, state = V.init_state(config)
    want = np.array([hat(x) for x in mesh.nodes])
    np.testing.assert_array_equal(u0, want)
    np.testing.assert_array_equal(state, 0.0)


# Largest gap, per element, between the initial amplitudes and a
# 128-point quadrature of the bubble u0 - I_h(u0) against p z_j, relative
# to that element's largest amplitude.  The amplitudes subtract the
# closed-form pairing of I_h(u0) from a quadrature of u0; at large P the
# weight p concentrates where the bubble vanishes, so both terms exceed
# their difference by about 1e4 and their 1e-14 relative accuracy leaves
# a gap of up to 1.6e-10 (at P = 29 below; 2.5e-13 at P = 0.5).
INIT_PROJECTION_RTOL = 1e-9
INIT_PROJECTION_CASES = [  # (nodes, velocity, mu, n_modes)
    (np.linspace(0.0, 1.0, 5), 2.0, 0.5, 6),
    (np.linspace(0.0, 1.0, 5), -2.0, 0.5, 6),
    ([0.0, 0.05, 0.17, 0.2, 0.42, 0.6, 0.61, 1.0], 75.0, 0.5, 6),
    ([0.0, 0.05, 0.17, 0.2, 0.42, 0.6, 0.61, 1.0], -75.0, 0.5, 20),
    ([-1.0, -0.62, -0.5, -0.13, 0.3, 0.34, 0.71, 1.0],
     lambda x, t: 80.0 * np.sin(3.0 * x), 0.5, 12),
]


def test_init_state_projection_matches_quadrature_oracle():
    # nonuniform meshes, both velocity signs, element Peclet numbers up to
    # about 30; the mixed-sign velocity puts elements of either sign on
    # one mesh
    from spectral_vms.mesh_fem import TimeGrid
    x, w = gauss01(128)
    for case, (nodes, a, mu, n_modes) in enumerate(INIT_PROJECTION_CASES):
        mesh = Mesh1D(nodes)
        config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(0.01, 1), mu=mu,
                                 velocity=a, initial=np.exp,
                                 n_modes=n_modes,
                                 project_initial_subgrid=True)
        u0, state = V.init_state(config)
        a_elem = project_velocity(config.velocity, mesh)
        j = np.arange(1, n_modes + 1)[:, None]
        for k in range(mesh.n_elems):
            h = mesh.h[k]
            p = K.element_params(a_elem[k], h, mu, config.tgrid.dt)
            assert p.P <= 30.0
            xq = mesh.nodes[k] + h * x
            bubble = np.exp(xq) - (u0[k] * (1 - x) + u0[k + 1] * x)
            pz = np.sqrt(2.0 / h) * np.exp(-p.sign_a * p.P * x) \
                * np.sin(j * np.pi * x)
            want = h * (pz * (w * bubble)).sum(axis=1)
            np.testing.assert_allclose(
                state[k], want, rtol=0.0,
                atol=INIT_PROJECTION_RTOL * np.max(np.abs(want)),
                err_msg="case %d, element %d" % (case, k))


def test_nodal_h_independence_constant_velocity():
    # constant a: nodal solution independent of the mesh at shared nodes
    from spectral_vms.mesh_fem import TimeGrid
    mu, a = 20.0, 1.0
    bc = DirichletBC(lambda t: np.exp((mu - a) * t),
                     lambda t: np.exp(1.0 + (mu - a) * t))
    sols = []
    for n_elems in (8, 32):
        mesh = build_uniform_mesh(0.0, 1.0, n_elems)
        config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(0.05, 5), mu=mu,
                                 velocity=a, bc=bc, initial=np.exp,
                                 n_modes=10, project_initial_subgrid=True)
        res = V.run_full(config)
        sols.append(res.history[-1])
    coarse, fine = sols
    shared = fine[::4]
    np.testing.assert_allclose(coarse, shared, rtol=1e-6)


def test_pure_diffusion_matches_semidiscrete_reference():
    # a = 0, smooth sine IC with projected subgrid start: nodal values
    # follow the implicit-Euler semi-discretisation exactly in space
    from spectral_vms.mesh_fem import TimeGrid
    mesh = build_uniform_mesh(0.0, 1.0, 8)
    mu, dt, steps = 1.3, 0.02, 3
    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(dt * steps, steps),
                             mu=mu, velocity=0.0,
                             initial=lambda x: np.sin(np.pi * x),
                             n_modes=200, project_initial_subgrid=True)
    res = V.run_full(config)
    for n in range(steps + 1):
        want = np.sin(np.pi * mesh.nodes) / (1.0 + dt * mu * np.pi ** 2) ** n
        assert np.max(np.abs(res.history[n] - want)) < 1e-8


def test_amplitude_decay_bound():
    from spectral_vms.mesh_fem import TimeGrid
    mesh = build_uniform_mesh(0.0, 1.0, 10)
    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(0.02, 2), mu=1.0,
                             velocity=50.0,
                             initial=lambda x: np.exp(-x) * np.sin(np.pi * x),
                             n_modes=40, project_initial_subgrid=True)
    res = V.run_full(config)
    amps = res.amplitudes
    p = K.element_params(50.0, 0.1, 1.0, 0.01)
    b = K.beta(np.arange(1, 41), p)
    # amplitudes decay at least as fast as beta_j times a fixed residual
    scale = np.max(np.abs(amps) / b)
    assert np.all(np.abs(amps) <= scale * b + 1e-15)


def test_sample_reconstruction_endpoints():
    from spectral_vms.mesh_fem import TimeGrid
    mesh = build_uniform_mesh(0.0, 1.0, 6)
    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(0.01, 1), mu=1.0,
                             velocity=10.0, initial=lambda x: x * (1 - x),
                             n_modes=5)
    res = V.run_full(config)
    xs, vals = res.sample(points_per_elem=5)
    assert xs.size == 30
    # at the element endpoints the sampled field equals the nodal values
    np.testing.assert_allclose(vals[0], res.history[1][0], atol=1e-12)
    np.testing.assert_allclose(vals[-1], res.history[1][-1], atol=1e-12)


def test_test2_max_principle_tight():
    # 9 steps at P=10, S=2.5 stay within [-1e-6, 1+1e-6] nodally
    from spectral_vms.mesh_fem import TimeGrid

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    mesh = build_uniform_mesh(0.0, 1.0, 50)
    config = V.FullVmsConfig(mesh=mesh, tgrid=TimeGrid(9e-3, 9), mu=1.0,
                             velocity=1000.0, initial=hat, n_modes=150)
    hist = V.run_full(config).history
    assert hist.min() >= -1e-6
    assert hist.max() <= 1.0 + 1e-6


def test_small_dt_first_step_coincides_with_semidiscrete():
    # dt = 1e-5 at P = 10: the first step lands on the implicit-Euler
    # semi-discretisation of the interpolated data at the grid nodes
    # (400 modes; the 150-mode run stays within ~4e-6)
    from spectral_vms.analysis import PRESETS, reference_solution
    pre = PRESETS["test2-small-dt"]
    mesh, tg = pre.mesh(), pre.tgrid()
    config = V.FullVmsConfig(mesh=mesh, tgrid=tg, mu=pre.mu,
                             velocity=pre.a, initial=pre.initial(),
                             n_modes=400)
    hist = V.run_full(config).history
    ref = reference_solution(pre, refine=512)
    assert np.max(np.abs(hist[1] - ref[1])) < 1e-6


def test_concurrent_runs_are_independent():
    from concurrent.futures import ThreadPoolExecutor

    from spectral_vms.mesh_fem import TimeGrid

    def make_config(a):
        return V.FullVmsConfig(
            mesh=build_uniform_mesh(0.0, 1.0, 12),
            tgrid=TimeGrid(0.05, 5), mu=1.0, velocity=a,
            initial=lambda x: np.sin(np.pi * x), n_modes=8)

    serial = [V.run_full(make_config(a)).history for a in (3.0, -7.0)]
    with ThreadPoolExecutor(2) as pool:
        futs = [pool.submit(V.run_full, make_config(a))
                for a in (3.0, -7.0)]
        parallel = [f.result().history for f in futs]
    for s, p in zip(serial, parallel):
        np.testing.assert_array_equal(s, p)


def test_gauss_rule_built_once_per_layout(monkeypatch):
    # the projected initial subgrid makes one source projection per run;
    # its Gauss rule must be built once per layout, not once per call
    K._composite_gauss01.cache_clear()
    built = []
    projections = []
    leggauss = np.polynomial.legendre.leggauss
    project = K.source_mode_projection

    def counting_leggauss(n):
        built.append(n)
        return leggauss(n)

    def counting_project(*args, **kwargs):
        call = inspect.signature(project).bind(*args, **kwargs)
        call.apply_defaults()
        n_modes, n_gauss = call.arguments["n_modes"], call.arguments["n_gauss"]
        projections.append((n_gauss, max(1, int(np.ceil(n_modes / 8.0)))))
        return project(*args, **kwargs)

    monkeypatch.setattr(K.np.polynomial.legendre, "leggauss",
                        counting_leggauss)
    monkeypatch.setattr(K, "source_mode_projection", counting_project)
    mesh_independence_study(h_values=[0.05 / 8, 0.05 / 16])
    layouts = set(projections)
    assert len(projections) > len(layouts)
    assert sorted(built) == sorted(n_gauss for n_gauss, _ in layouts)


def test_initial_called_once_per_projection_block(monkeypatch):
    # the initial data is evaluated once for the nodal interpolant and
    # once per element block of the subgrid projection, not per point
    from spectral_vms import analysis as A
    calls = []
    make_config = A.FullVmsConfig

    def counting_config(**kwargs):
        initial = kwargs["initial"]
        calls.append([0, kwargs["mesh"].n_elems, kwargs["n_modes"]])

        def counted(x):
            calls[-1][0] += 1
            return initial(x)

        kwargs["initial"] = counted
        return make_config(**kwargs)

    monkeypatch.setattr(A, "FullVmsConfig", counting_config)
    mesh_independence_study(h_values=[0.05 / 8, 0.05 / 16])
    assert len(calls) == 2
    for n_calls, n_elems, n_modes in calls:
        panels = max(1, int(np.ceil(n_modes / 8.0)))
        block = max(1, K._PROJECTION_BLOCK_FLOATS // (n_modes * panels * 64))
        blocks = -(-n_elems // block)
        assert n_calls <= blocks + 1


def test_non_finite_source_fails_in_the_projection():
    from spectral_vms.mesh_fem import TimeGrid
    config = V.FullVmsConfig(
        mesh=build_uniform_mesh(0.0, 1.0, 6), tgrid=TimeGrid(0.02, 2),
        mu=0.5, velocity=2.0, n_modes=4,
        source=lambda x, t: np.where(x > 0.7, np.nan, 1.0))
    u0, state = V.init_state(config)
    with pytest.raises(ValueError, match="projected function produced "
                                         "non-finite values"):
        V.step_full(u0, state, 0, config, _snapshot(config, 1))


def test_run_full_time_dependent_velocity_matches_fresh_steps():
    # every step of a time-dependent run must use the matrices of its own
    # velocity snapshot, not a left-hand side cached from an earlier one
    from spectral_vms.mesh_fem import TimeGrid
    mesh = Mesh1D([0.0, 0.1, 0.25, 0.45, 0.6, 0.8, 1.0])
    config = V.FullVmsConfig(
        mesh=mesh, tgrid=TimeGrid(0.08, 4), mu=0.3,
        velocity=lambda x, t: (1.0 + 25.0 * t) * np.cos(4.0 * x),
        initial=lambda x: np.sin(np.pi * x) + x, n_modes=5,
        bc=DirichletBC(0.0, 1.0), project_initial_subgrid=True)
    res = V.run_full(config)
    dt = config.tgrid.dt
    u, state = V.init_state(config)
    for n in range(config.tgrid.n_steps):
        u, state = V.step_full(u, state, n, config, _snapshot(config, n + 1))
        np.testing.assert_array_equal(res.history[n + 1], u)
        # a run keeps only its final amplitudes: march the prefix of
        # n + 1 steps to check those of step n + 1
        prefix = dataclasses.replace(config, tgrid=TimeGrid((n + 1) * dt,
                                                            n + 1))
        assert prefix.tgrid.dt == dt
        np.testing.assert_array_equal(V.run_full(prefix).amplitudes,
                                      state)


def test_constant_velocity_assembles_once(monkeypatch):
    calls = []
    assemble = V.assemble_stiffness

    def counting(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(V, "assemble_stiffness", counting)
    from spectral_vms.mesh_fem import TimeGrid
    config = V.FullVmsConfig(mesh=build_uniform_mesh(0.0, 1.0, 10),
                             tgrid=TimeGrid(0.05, 5), mu=1.0, velocity=-4.0,
                             initial=lambda x: x * (1.0 - x), n_modes=6)
    V.run_full(config)
    assert len(calls) == 1
