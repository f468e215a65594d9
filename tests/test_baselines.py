import numpy as np
import pytest

from spectral_vms.baselines import (StabChoice, assemble_stab_matrix,
                                    cfl_bound, run_galerkin, run_stabilized,
                                    step_galerkin, step_matrices,
                                    step_stabilized, tau)
from spectral_vms.mesh_fem import TimeGrid, build_uniform_mesh


def test_tau_codina_zero_velocity():
    h, mu = 0.1, 2.0
    assert tau(StabChoice("Codina"), 0.0, mu, h, 1.0) == pytest.approx(
        h ** 2 / (4.0 * mu))


def test_tau_oned_small_peclet_limit():
    h, mu = 0.05, 1.0
    want = h ** 2 / (12.0 * mu)
    got = tau(StabChoice("OneD"), 1e-5 * 2 * mu / h, mu, h, 1.0)
    assert abs(got - want) / want <= 1e-6
    # smooth across the series switch
    a_lo = 0.99e-4 * 2 * mu / h
    a_hi = 1.01e-4 * 2 * mu / h
    lo = tau(StabChoice("OneD"), a_lo, mu, h, 1.0)
    hi = tau(StabChoice("OneD"), a_hi, mu, h, 1.0)
    assert lo == pytest.approx(hi, rel=1e-6)


def test_tau_oned_formula():
    a, mu, h = 300.0, 1.0, 0.02
    P = a * h / (2 * mu)
    want = mu / a ** 2 * (P / np.tanh(P) - 1.0)
    assert tau(StabChoice("OneD"), a, mu, h, 1.0) == pytest.approx(want)


def test_tau_hauke_branches():
    got = tau(StabChoice("Hauke"), 1000.0, 1.0, 0.02, 1e-3)
    assert got == pytest.approx(0.02 / (np.sqrt(3.0) * 1000.0), rel=1e-12)
    assert got == pytest.approx(1.1547e-5, rel=1e-4)
    # dt branch
    assert tau(StabChoice("Hauke"), 1.0, 1.0, 1.0, 1e-9) == 1e-9


def test_tau_franca_threshold_and_continuity():
    h, mu = 0.01, 1.0
    # diffusion-dominated branch: (h/|a|) P = h^2 / (2 mu)
    assert tau(StabChoice("Franca"), 10.0, mu, h, 1.0) == pytest.approx(
        h ** 2 / (2 * mu))
    # advection-dominated branch
    a = 1000.0
    assert tau(StabChoice("Franca", franca_threshold=1.0), a, mu, h, 1.0) \
        == pytest.approx(h / a)
    assert tau(StabChoice("Franca"), 0.0, mu, h, 1.0) == pytest.approx(
        h ** 2 / (2 * mu))


def test_cfl_bound_values():
    assert cfl_bound(0.1) == pytest.approx(0.1 / 2.7)
    assert cfl_bound(0.5) == pytest.approx(1.0 / 3.0)
    assert cfl_bound(1e-9) == pytest.approx(1e-9 / 3.0)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            cfl_bound(bad)


def test_stab_matrix_stencil():
    mesh = build_uniform_mesh(0.0, 1.0, 4)  # h = 0.25
    ms = assemble_stab_matrix(mesh)
    assert ms.diag[1] == pytest.approx(2.0 / 0.25)
    assert ms.sub[0] == pytest.approx(-1.0 / 0.25)
    assert ms.sup[2] == pytest.approx(-1.0 / 0.25)
    # h * M_s equals the dimensionless Laplacian stencil
    np.testing.assert_allclose(0.25 * ms.to_dense()[1, :3], [-1.0, 2.0, -1.0])


def test_zero_velocity_stabilized_equals_galerkin_bitwise():
    mesh = build_uniform_mesh(0.0, 1.0, 12)
    u0 = np.sin(np.pi * mesh.nodes)
    ref = step_galerkin(u0, step_matrices(mesh, np.zeros(12), 1.0, 0.01),
                        mesh, 0.01)
    for kind in ("OneD", "Codina", "Hauke", "Franca"):
        got = step_stabilized(u0, step_matrices(mesh, np.zeros(12), 1.0,
                                                0.01, StabChoice(kind)),
                              mesh, 0.01)
        np.testing.assert_array_equal(got, ref)


def test_galerkin_decay_homogeneous():
    mesh = build_uniform_mesh(0.0, 1.0, 16)
    tgrid = TimeGrid(0.1, 10)
    hist = run_galerkin(mesh, tgrid, 0.7, 1.0,
                        initial=lambda x: np.sin(np.pi * x))
    norms = np.linalg.norm(hist, axis=1)
    assert np.all(np.diff(norms) < 0.0)


def test_galerkin_oscillates_big_peclet():
    # hat profile, P = 10: nodal values leave [0, 1] quickly
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    tgrid = TimeGrid(9e-3, 9)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    hist = run_galerkin(mesh, tgrid, 1000.0, 1.0, initial=hat)
    assert hist.min() < -1e-3 or hist.max() > 1.0 + 1e-3


def test_stabilized_solvable_table_cases():
    # OneD / Codina / Franca give strictly diagonally dominant matrices
    # on all three comparison cases; Hauke's smaller tau loses dominance
    # at P >= 3 but the systems remain well solvable
    from spectral_vms.mesh_fem import (TriDiagSystem, assemble_mass,
                                       assemble_stiffness, combine,
                                       solve_tridiag)
    rng = np.random.default_rng(9)
    for (a, mu, h, dt) in [(300.0, 1.0, 0.02, 1e-2),
                           (100.0, 0.5, 1e-2, 1e-3),
                           (700.0, 1.0, 1e-2, 1e-2)]:
        mesh = build_uniform_mesh(0.0, 1.0, int(round(1.0 / h)))
        for kind in ("OneD", "Codina", "Hauke", "Franca"):
            t = tau(StabChoice(kind), a, mu, h, dt)
            m = combine(lambda m, r, s: m + dt * r + (dt * a * a * t) * s,
                        assemble_mass(mesh), assemble_stiffness(mesh, a, mu),
                        assemble_stab_matrix(mesh))
            if kind != "Hauke":
                dom = np.abs(m.diag[1:-1]) - np.abs(m.sub[:-1]) \
                    - np.abs(m.sup[1:])
                assert np.all(dom > 0.0), kind
            rhs = rng.standard_normal(mesh.n_nodes)
            x = solve_tridiag(TriDiagSystem(m, rhs))
            res = np.max(np.abs(m.matvec(x) - rhs))
            assert res <= 1e-10 * (m.max_abs() * np.max(np.abs(x)) + 1.0)


def test_run_stabilized_smoke():
    mesh = build_uniform_mesh(0.0, 1.0, 20)
    tgrid = TimeGrid(0.03, 3)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    hist = run_stabilized(StabChoice("Codina"), mesh, tgrid, 300.0, 1.0,
                          initial=hat)
    assert hist.shape == (4, 21)
    assert np.all(np.isfinite(hist))
