import math

import numpy as np
import pytest

from oracles import thomas_solve, to_dense

from spectral_vms import mesh_fem
from spectral_vms.mesh_fem import (
    DirichletBC, Mesh1D, SingularSystemError, TimeGrid, TriDiag,
    TriDiagSystem, apply_dirichlet, assemble_load, assemble_mass,
    assemble_stiffness, build_uniform_mesh, combine, point_values,
    project_velocity, solve_tridiag)


def test_uniform_mesh_basics():
    mesh = build_uniform_mesh(0.0, 1.0, 2)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0])
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    assert mesh.n_nodes == 51
    np.testing.assert_allclose(mesh.h, 0.02)
    mesh = build_uniform_mesh(0.0, 1.0, 100)
    assert mesh.n_nodes == 101
    np.testing.assert_allclose(mesh.h, 0.01)


def test_mesh_validation():
    with pytest.raises(ValueError):
        build_uniform_mesh(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        build_uniform_mesh(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Mesh1D([0.0, 0.5, 0.5, 1.0])


def test_mesh_keeps_its_own_read_only_nodes():
    # the mesh validated its nodes and assembles M from its widths, so a
    # later write to the caller's array must reach neither
    x = np.linspace(0.0, 1.0, 5)
    mesh = Mesh1D(x)
    x[2] = 0.9
    np.testing.assert_array_equal(mesh.nodes, np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(mesh.h, np.full(4, 0.25))
    for values in (mesh.nodes, mesh.h):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.5
    assert mesh.mass is mesh.mass
    assert mesh.mass.diag.tobytes() == assemble_mass(mesh).diag.tobytes()


@pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                                   [-np.inf, 0.0, 1.0]])
def test_mesh_rejects_non_finite_nodes(nodes):
    # a NaN width is not <= 0 and an infinite one is positive; solving on
    # either mesh raised a numerical-failure error instead
    with pytest.raises(ValueError, match="finite"):
        Mesh1D(nodes)


def test_time_grid_rejects_a_fractional_step_count():
    # TimeGrid(1.0, 2.5) ran 2 steps of 0.4
    with pytest.raises(ValueError, match="whole number"):
        TimeGrid(1.0, 2.5)
    with pytest.raises(ValueError, match="whole number"):
        TimeGrid.from_dt(0.1, 2.5)
    assert TimeGrid(1.0, 4.0).n_steps == 4


def test_project_velocity_constant_and_midpoint():
    mesh = Mesh1D([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(project_velocity(1000.0, mesh),
                                  [1000.0, 1000.0])
    vals = project_velocity(lambda x, t: x + t, mesh, 0.5)
    np.testing.assert_allclose(vals, [0.75, 1.25])


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf,
                               lambda x, t: np.nan if x > 0.5 else x])
def test_project_velocity_rejects_non_finite(a):
    # a constant goes through the same finiteness check as a callable
    with pytest.raises(ValueError, match="velocity projection"):
        project_velocity(a, build_uniform_mesh(0.0, 1.0, 4))


def test_project_velocity_midpoint_first_order():
    def a(x, t):
        return math.sin(math.pi * x)
    errs = []
    for n in (16, 32):
        mesh = build_uniform_mesh(0.0, 1.0, n)
        vals = project_velocity(a, mesh)
        # dense sampling of the max deviation from the cell values
        worst = 0.0
        for k in range(mesh.n_elems):
            xs = np.linspace(mesh.nodes[k], mesh.nodes[k + 1], 50)
            worst = max(worst, np.max(np.abs(np.sin(np.pi * xs) - vals[k])))
        errs.append(worst)
    assert errs[1] < 0.65 * errs[0]  # first order: roughly halves


def test_mass_matrix_uniform_row():
    mesh = build_uniform_mesh(0.0, 1.0, 2)  # h = 0.5
    m = assemble_mass(mesh)
    assert m.diag[1] == pytest.approx(1.0 / 3.0)
    assert m.sub[0] == pytest.approx(1.0 / 12.0)
    assert m.sup[1] == pytest.approx(1.0 / 12.0)
    # interior row sums equal h
    row_sum = m.sub[0] + m.diag[1] + m.sup[1]
    assert row_sum == pytest.approx(0.5)


def test_mass_matrix_nonuniform_diag():
    m = assemble_mass(Mesh1D([0.0, 0.3, 1.0]))
    assert m.diag[1] == pytest.approx((0.3 + 0.7) / 3.0)


def test_mass_matrix_spd():
    rng = np.random.default_rng(7)
    mesh = Mesh1D(np.sort(rng.uniform(0.0, 1.0, 9)))
    m = assemble_mass(mesh)
    for _ in range(50):
        x = rng.standard_normal(mesh.n_nodes)
        assert x @ m.matvec(x) > 0.0


def test_stiffness_rows():
    mesh = build_uniform_mesh(0.0, 1.0, 2)  # h = 0.5
    r = assemble_stiffness(mesh, 0.0, 1.0)
    np.testing.assert_allclose([r.sub[0], r.diag[1], r.sup[1]], [-2, 4, -2])
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    r = assemble_stiffness(mesh, 300.0, 1.0)
    np.testing.assert_allclose([r.sub[10], r.diag[11], r.sup[11]],
                               [-200.0, 100.0, 100.0])


def test_stiffness_advection_skew_and_diffusion_rowsum():
    mesh = build_uniform_mesh(0.0, 1.0, 10)
    adv = combine(np.subtract, assemble_stiffness(mesh, 3.0, 1.0),
                  assemble_stiffness(mesh, 0.0, 1.0))
    dense = to_dense(adv)
    skew = dense + dense.T
    assert np.all(skew[1:-1, :] == 0.0)
    dif = to_dense(assemble_stiffness(mesh, 0.0, 2.5))
    np.testing.assert_allclose(dif[1:-1].sum(axis=1), 0.0, atol=1e-14)


def test_stiffness_requires_positive_mu():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        assemble_stiffness(mesh, 1.0, 0.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_mu_dt_and_t_final_must_be_finite_and_positive(bad):
    # NaN compares false, so a plain `<= 0` check would let it through
    from spectral_vms.baselines import tau
    from spectral_vms.kernels import element_params
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        assemble_stiffness(mesh, 1.0, bad)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        element_params(1.0, 0.25, bad, 0.1)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        element_params(1.0, 0.25, 1.0, bad)
    with pytest.raises(ValueError, match="mu must be finite and positive"):
        tau("Codina", 1.0, bad, 0.25, 0.1)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        tau("Hauke", 1.0, 1.0, 0.25, bad)
    with pytest.raises(ValueError, match="t_final must be finite"):
        TimeGrid(bad, 3)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        TimeGrid.from_dt(bad, 3)


def test_solve_identity_and_2x2():
    rhs = np.array([3.0, -1.0, 2.0])
    sys = TriDiagSystem(TriDiag([0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0]), rhs)
    np.testing.assert_array_equal(solve_tridiag(sys), rhs)
    sys = TriDiagSystem(TriDiag([-1.0], [2.0, 2.0], [-1.0]), [1.0, 1.0])
    np.testing.assert_allclose(solve_tridiag(sys), [1.0, 1.0])


def test_solve_against_dense_lu():
    rng = np.random.default_rng(42)
    n = 100
    sub = rng.standard_normal(n - 1)
    sup = rng.standard_normal(n - 1)
    diag = np.abs(sub.sum()) + 3.0 + np.abs(rng.standard_normal(n))
    diag[1:] += np.abs(sub)
    diag[:-1] += np.abs(sup)
    rhs = rng.standard_normal(n)
    m = TriDiag(sub, diag, sup)
    x = solve_tridiag(TriDiagSystem(m, rhs))
    x_ref = np.linalg.solve(to_dense(m), rhs)
    assert np.max(np.abs(x - x_ref)) < 1e-10
    # residual bound from the solver contract
    res = np.max(np.abs(m.matvec(x) - rhs))
    bound = 1e-12 * (m.max_abs() * np.max(np.abs(x)) + np.max(np.abs(rhs)))
    assert res <= bound


def test_solve_roundtrip_property():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = rng.integers(3, 40)
        sub = rng.standard_normal(n - 1)
        sup = rng.standard_normal(n - 1)
        diag = 4.0 + np.abs(rng.standard_normal(n))
        diag[1:] += np.abs(sub)
        diag[:-1] += np.abs(sup)
        m = TriDiag(sub, diag, sup)
        x = rng.standard_normal(n)
        sol = solve_tridiag(TriDiagSystem(m, m.matvec(x)))
        assert np.max(np.abs(sol - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


def test_singular_system_detected():
    sys = TriDiagSystem(TriDiag([1.0], [0.0, 1.0], [1.0]), [1.0, 1.0])
    with pytest.raises(SingularSystemError):
        solve_tridiag(sys)


def test_dirichlet_homogeneous_and_test1_values():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    m = combine(lambda m, r: m + 0.1 * r, assemble_mass(mesh),
                assemble_stiffness(mesh, 1.0, 20.0))
    rhs = np.ones(mesh.n_nodes)
    sys = apply_dirichlet(TriDiagSystem(m, rhs), DirichletBC.homogeneous(),
                          0.0)
    u = solve_tridiag(sys)
    assert u[0] == 0.0 and u[-1] == 0.0

    mu, a = 20.0, 1.0
    bc = DirichletBC(lambda t: np.exp((mu - a) * t),
                     lambda t: np.exp(1.0 + (mu - a) * t))
    sys = apply_dirichlet(TriDiagSystem(m, rhs), bc, 0.0)
    u = solve_tridiag(sys)
    assert u[0] == pytest.approx(1.0)
    assert u[-1] == pytest.approx(np.e)


def test_dirichlet_elimination_consistency():
    # solving the reduced interior system equals the modified full solve
    rng = np.random.default_rng(11)
    mesh = build_uniform_mesh(0.0, 1.0, 8)
    m = combine(lambda m, r: m + 0.05 * r, assemble_mass(mesh),
                assemble_stiffness(mesh, 2.0, 1.0))
    rhs = rng.standard_normal(mesh.n_nodes)
    gl, gr = 0.7, -0.2
    sys = apply_dirichlet(TriDiagSystem(m, rhs), DirichletBC(gl, gr), 0.0)
    u_full = solve_tridiag(sys)

    dense = to_dense(m)
    interior = slice(1, mesh.n_nodes - 1)
    rhs_int = rhs[interior] - dense[interior, 0] * gl \
        - dense[interior, -1] * gr
    u_int = np.linalg.solve(dense[1:-1, 1:-1], rhs_int)
    np.testing.assert_allclose(u_full[interior], u_int, rtol=1e-12)
    assert u_full[0] == gl and u_full[-1] == gr


def test_from_blocks_equals_dense_scatter():
    # element blocks of a non-uniform mesh with velocities of both signs,
    # plus random perturbations so that no entry is structured
    rng = np.random.default_rng(21)
    mesh = Mesh1D(np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 10)),
                                  [1.0]]))
    a_elem = rng.uniform(-5.0, 5.0, mesh.n_elems)
    assert (a_elem < 0).any() and (a_elem > 0).any()
    assert np.ptp(mesh.h) > 0.01
    blocks = (a_elem / 2.0)[:, None, None] * np.array([[-1.0, 1.0],
                                                       [-1.0, 1.0]]) \
        + (0.7 / mesh.h)[:, None, None] * np.array([[1.0, -1.0],
                                                    [-1.0, 1.0]]) \
        + rng.standard_normal((mesh.n_elems, 2, 2))
    dense = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for k, block in enumerate(blocks):
        dense[k:k + 2, k:k + 2] += block
    np.testing.assert_array_equal(to_dense(TriDiag.from_blocks(blocks)),
                                  dense)
    # the stiffness matrix is the same scatter of its element blocks
    stiff = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for k, (a, h) in enumerate(zip(a_elem, mesh.h)):
        stiff[k:k + 2, k:k + 2] += (a / 2.0) * np.array(
            [[-1.0, 1.0], [-1.0, 1.0]]) + (0.7 / h) * np.array(
            [[1.0, -1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(
        to_dense(assemble_stiffness(mesh, a_elem, 0.7)), stiff,
        rtol=1e-14, atol=0.0)


def test_non_finite_solution_raises():
    m = TriDiag([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0])
    with pytest.raises(FloatingPointError):
        solve_tridiag(TriDiagSystem(m, [1.0, np.inf, 1.0]))


def test_point_values_array_contract():
    x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    np.testing.assert_array_equal(
        point_values(lambda x, t: 2.0 * x + t, x, 1.0, name="f"),
        2.0 * x + 1.0)
    # a scalar result is broadcast to the points
    vals = point_values(lambda x: 0.5, x, name="f")
    assert vals.shape == x.shape and np.all(vals == 0.5)
    with pytest.raises(ValueError, match="f returned shape .* same shape"):
        point_values(lambda x: x.ravel(), x, name="f")
    with pytest.raises(ValueError, match="f produced non-finite"):
        point_values(lambda x: np.where(x > 0.5, np.nan, x), x, name="f")
    with pytest.raises(ValueError, match="non-finite"):
        point_values(lambda x: np.inf, x, name="f")


def test_interpolate_and_load_validate_user_callables():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    np.testing.assert_array_equal(mesh.interpolate(lambda x: 3.0),
                                  np.full(5, 3.0))
    with pytest.raises(ValueError, match="non-finite"):
        mesh.interpolate(lambda x: np.where(x > 0.6, np.nan, x))
    with pytest.raises(ValueError, match="non-finite"):
        assemble_load(mesh, lambda x, t: np.where(x > 0.9, np.nan, t), 1.0)
    with pytest.raises(ValueError, match="same shape"):
        assemble_load(mesh, lambda x, t: x[:, 0], 1.0)
    # a constant source is broadcast: the load is (f, phi_l)
    np.testing.assert_allclose(assemble_load(mesh, lambda x, t: 2.0, 0.0),
                               2.0 * np.array([0.125, 0.25, 0.25, 0.25,
                                               0.125]))


def test_tridiag_bands_are_read_only_copies():
    sub, diag, sup = np.array([1.0]), np.array([4.0, 4.0]), np.array([1.0])
    m = TriDiag(sub, diag, sup)
    for band in (m.sub, m.diag, m.sup):
        with pytest.raises(ValueError):
            band[0] = 0.0
    # the caller keeps its arrays writable, and writing into them leaves
    # the matrix and its cached factors alone
    x = solve_tridiag(TriDiagSystem(m, [5.0, 5.0]))
    diag[0] = 0.0
    np.testing.assert_array_equal(m.diag, [4.0, 4.0])
    np.testing.assert_array_equal(solve_tridiag(TriDiagSystem(m, [5.0, 5.0])),
                                  x)


def test_singular_system_raises_on_every_solve():
    m = TriDiag([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0])
    for rhs in ([1.0, 2.0, 3.0], [0.0, 1.0, 0.0]):
        with pytest.raises(SingularSystemError, match="pivot 1"):
            solve_tridiag(TriDiagSystem(m, rhs))
    zero = TriDiag([0.0], [0.0, 0.0], [0.0])
    for _ in range(2):
        with pytest.raises(SingularSystemError, match="zero matrix"):
            solve_tridiag(TriDiagSystem(zero, [1.0, 1.0]))


def test_nan_on_the_diagonal_is_a_non_finite_solution():
    # the NaN scale disables every pivot check, so elimination would run
    # into the zero pivot of row 0 and divide by it
    m = TriDiag([1.0], [0.0, np.nan], [1.0])
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve_tridiag(TriDiagSystem(m, [1.0, 1.0]))


def test_dirichlet_rows_are_built_once_per_matrix():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    m = combine(lambda m, r: m + 0.1 * r, assemble_mass(mesh),
                assemble_stiffness(mesh, 1.0, 2.0))
    bc = DirichletBC(lambda t: t, lambda t: 1.0 - t)
    first = apply_dirichlet(TriDiagSystem(m, np.ones(5)), bc, 0.25)
    second = apply_dirichlet(TriDiagSystem(m, np.zeros(5)), bc, 0.5)
    assert second.matrix is first.matrix
    # only the right-hand sides carry the boundary values of their time
    assert (first.rhs[0], first.rhs[-1]) == (0.25, 0.75)
    assert (second.rhs[0], second.rhs[-1]) == (0.5, 0.5)


def _decaying_solution_of_growing_recurrence(n):
    # y_i = r_i - 2 y_{i-1}, with r chosen so that y = 2^-i cos i: the
    # products of a doubling level would reach 2^k, and the sums that
    # carry them would cancel digits the loop keeps
    m = TriDiag(np.full(n - 1, 2.0), np.ones(n), np.zeros(n - 1))
    return m, m.matvec(0.5 ** np.arange(n) * np.cos(np.arange(n)))


def _overflowing_impulse_products(n):
    # multipliers 1e14: the products of the level of stride 32 pass the
    # largest float, and the loop's solution e_{n-1} is finite
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return TriDiag(np.full(n - 1, 1e14), np.ones(n), np.zeros(n - 1)), rhs


@pytest.mark.parametrize("make", [_decaying_solution_of_growing_recurrence,
                                  _overflowing_impulse_products])
def test_growing_impulse_response_keeps_the_one_pass_loop(make):
    m, rhs = make(mesh_fem.DOUBLING_MIN_ROWS)
    system = TriDiagSystem(m, rhs)
    assert isinstance(m.factors(), mesh_fem.ThomasFactors)
    assert solve_tridiag(system).tobytes() == thomas_solve(system).tobytes()


def test_overflowing_blocked_solution_falls_back_to_the_loop():
    # the last two rows of an identity hold [[0.5, 0.5], [0, 1]]: the
    # doubled back sweep forms 1e308 / 0.5 = inf before adding -1 times
    # the next row; the loop divides 1e308 - 0.5e308 and is finite
    n = mesh_fem.DOUBLING_MIN_ROWS
    diag, sup = np.ones(n), np.zeros(n - 1)
    diag[-2] = sup[-1] = 0.5
    m = TriDiag(np.zeros(n - 1), diag, sup)
    assert isinstance(m.factors(), mesh_fem.DoublingFactors)
    rhs = np.zeros(n)
    rhs[-2:] = 1e308
    system = TriDiagSystem(m, rhs)
    with np.errstate(all="raise"):
        x = solve_tridiag(system)
    np.testing.assert_array_equal(x, rhs)
    assert x.tobytes() == thomas_solve(system).tobytes()


def _dirichlet_step_system(lhs, rhs, bc, t):
    system = apply_dirichlet(TriDiagSystem(lhs, rhs), bc, t)
    assert isinstance(system.matrix.factors(), mesh_fem.DoublingFactors)
    return system


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs a long double wider than a double")
@pytest.mark.parametrize("preset", ["test2-big-peclet", "test2-small-dt",
                                    "test2-cfl", "test3-a", "test3-b",
                                    "test3-c"])
def test_blocked_solve_of_the_fine_reference_is_as_accurate_as_the_loop(
        preset):
    # the first step of the 64x finer Galerkin run that stands in for the
    # semi-discrete reference (n = 3201 and 6401), solved by recursive
    # doubling; against the loop in long double, the loop's own float64
    # error reaches 4.8e-12 of max|x| (test3-c) and the doubled solve's
    # stays within 0.88-1.11 times it
    from spectral_vms.analysis import PRESETS
    from spectral_vms.baselines import step_matrices
    p = PRESETS[preset]
    mesh = p.mesh()
    fine = build_uniform_mesh(0.0, 1.0, 64 * p.n_elems)
    lhs = step_matrices(fine, np.full(fine.n_elems, p.a), p.mu, p.dt)
    u0 = np.interp(fine.nodes, mesh.nodes, mesh.interpolate(p.initial()))
    system = _dirichlet_step_system(lhs, fine.mass.matvec(u0), p.dirichlet(),
                                    p.dt)
    exact = thomas_solve(system, np.longdouble)
    scale = float(np.max(np.abs(exact)))

    def error(x):
        return float(np.max(np.abs(x - exact)))

    loop = error(thomas_solve(system))
    assert error(solve_tridiag(system)) \
        <= 2.0 * loop + 4.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n_elems, dt", [(640, 0.01), (640, 0.00125),
                                         (2560, 0.01)])
def test_study_left_hand_sides_take_the_doubling_path(n_elems, dt):
    # the spectral-full systems of the criterion-4 and criterion-5
    # studies (test1, a = 1, mu = 20, 10 modes); a factor above 1 in
    # magnitude would send them to the loop, which is slower but
    # otherwise gives no sign of it
    from spectral_vms.analysis import test1_bc
    from spectral_vms.vms_full import FullVmsConfig, _Snapshot
    mesh = build_uniform_mesh(0.0, 1.0, n_elems)
    config = FullVmsConfig(mesh=mesh, tgrid=TimeGrid.from_dt(dt, 1),
                           mu=20.0, velocity=1.0, bc=test1_bc(1.0, 20.0),
                           n_modes=10)
    lhs, _ = _Snapshot(config, project_velocity(1.0, mesh, dt)).matrices
    _dirichlet_step_system(lhs, np.ones(mesh.n_nodes), config.bc, dt)
