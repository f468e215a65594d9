import gc
import weakref

import numpy as np
import pytest

from oracles import (SeriesProvider, approximate_subgrid_state,
                     brute_series, feasible_step_family_form,
                     lspline_fluxes, to_dense)

from spectral_vms import table as T
from spectral_vms import vms_feasible as F
from spectral_vms import vms_full as V
from spectral_vms.mesh_fem import (DirichletBC, Mesh1D, TimeGrid,
                                   assemble_mass, assemble_stiffness,
                                   build_uniform_mesh, point_values,
                                   project_velocity)


def test_zero_dynamics():
    mesh = build_uniform_mesh(0.0, 1.0, 6)
    config = F.FeasibleConfig(mesh=mesh, tgrid=TimeGrid(0.05, 4), mu=1.0,
                              velocity=200.0)
    hist = F.run_feasible(config)
    np.testing.assert_array_equal(hist, 0.0)


def _bands(mat):
    return [band.tobytes() for band in (mat.sub, mat.diag, mat.sup)]


def test_zero_velocity_kills_advective_families():
    # at a = 0 the dt b parts of both sides vanish: every pairing with a
    # dt side equals its plain pairing bit for bit
    mesh = build_uniform_mesh(0.0, 1.0, 5)
    provider = F.DirectKernelProvider()
    mats = F.assemble_matrices(mesh, np.zeros(5), 1.0, 0.01, provider)
    pairs = mats.pairings
    for key in (("A", "0", "dt"), ("A", "dt", "0")):
        assert _bands(pairs[key]) == _bands(pairs["A", "0", "0"]), key
    assert _bands(pairs["B", "dt", "dt"]) == _bands(pairs["B", "0", "dt"])
    assert pairs["A", "0", "0"].max_abs() > 0.0
    assert pairs["B", "0", "dt"].max_abs() > 0.0


def test_entry_level_equivalence_brute_force():
    # every entry of the five assembled pairings equals the matching
    # combination of the families' quadrature-plus-long-summation double
    # sums of the defining series, and the closed-form left-hand side
    # equals M + dt R minus the A(dt, dt) combination
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
        fam = {
            "1": 2.0 * h * ref_k1.T,
            "2": 2.0 * a * sgn[None, :] * ref_k2[:, None],
            "3": -2.0 * a * sgn[:, None] * ref_k3[None, :],
            "4": -(2.0 * a ** 2 / h) * np.outer(sgn, sgn) * ref_k4,
        }
        combos = {("0", "dt"): fam["1"] + dt * fam["3"]}
        if prefix == "A":
            combos["0", "0"] = fam["1"]
            combos["dt", "0"] = fam["1"] + dt * fam["2"]
        combos["dt", "dt"] = fam["1"] + dt * fam["2"] + dt * fam["3"] \
            + dt * dt * fam["4"]
        for (trial, test), block in combos.items():
            dense = np.zeros((3, 3))
            for k in (0, 1):
                dense[k:k + 2, k:k + 2] += block
            got, atol = mats.pairings.get((prefix, trial, test)), 1e-12
            if (prefix, trial, test) == ("A", "dt", "dt"):
                # M + dt R - A(dt, dt) cancels into its small entries, so
                # the series' error stays relative to A(dt, dt)
                got, atol = mats.lhs, 1e-8 * np.max(np.abs(dense))
                dense = to_dense(assemble_mass(mesh)) + dt * \
                    to_dense(assemble_stiffness(mesh, a, mu)) - dense
            np.testing.assert_allclose(to_dense(got), dense, rtol=1e-8,
                                       atol=atol)


# Each entry of an element block against the 50-digit L-spline fluxes,
# relative to itself.  The worst measured over this grid was 7.9e-14, on
# an entry of 8.5e-271 = e^{-620}: an exponential e^{-x} carries the
# rounding of x, about x ulps.  The worst gap relative to the block's
# largest entry was 3.6e-16.
LSPLINE_RTOL = 1e-12
LSPLINE_PECLETS = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 13)])


@pytest.mark.parametrize("S", np.logspace(-3.0, 4.0, 15))
def test_lhs_blocks_are_the_lspline_fluxes(S):
    # every P of the grid with both signs, at one S, on the elements
    # h = 0.02 and mu = 0.5
    h, mu = 0.02, 0.5
    a = np.concatenate([LSPLINE_PECLETS, -LSPLINE_PECLETS]) * 2.0 * mu / h
    dt = S * h * h / mu
    blocks = F._mirror(F._lspline_blocks(h, np.abs(a), mu, dt), a)
    for got, a_k in zip(blocks, a):
        np.testing.assert_allclose(got, lspline_fluxes(h, a_k, mu, dt),
                                   rtol=LSPLINE_RTOL, atol=0.0)


def test_lhs_does_not_depend_on_the_provider():
    # the left-hand side is the closed-form closure, so the J-mode series
    # and a table give the bands of the direct provider, bit for bit
    mesh = Mesh1D([0.0, 0.13, 0.35, 0.5, 0.78, 1.0])
    a_elem = np.array([3.0, -40.0, 0.0, 150.0, -7.0])
    table = T.generate_table(T.TableGrid(delta=0.5, m=8))
    bands = [_bands(F.assemble_matrices(mesh, a_elem, 0.3, 0.02, p).lhs)
             for p in (F.DirectKernelProvider(),
                       SeriesProvider(8),
                       F.TableKernelProvider(table))]
    assert bands[1] == bands[0]
    assert bands[2] == bands[0]


def _full_equiv_config(mesh, tgrid, a, mu, f, bc, J):
    return V.FullVmsConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                           bc=bc, source=f, initial=None, n_modes=J)


def _full_snapshot_with_feasible_lhs(vcfg):
    """The full method's snapshot of its constant velocity, solving with
    the feasible left-hand side: that is the closure summed over every
    mode, the full method's over J, and the bridge compares the rest of
    the two recursions."""
    a_elem = project_velocity(vcfg.velocity, vcfg.mesh)
    ctx = V._Snapshot(vcfg, a_elem)
    feasible = F.assemble_matrices(vcfg.mesh, a_elem, vcfg.mu,
                                   vcfg.tgrid.dt, F.DirectKernelProvider())
    ctx.__dict__["matrices"] = (feasible.lhs, ctx.matrices[1])
    return ctx


@pytest.mark.parametrize("a, rate", [
    pytest.param(35.0, 0.0, id="35.0"), pytest.param(-35.0, 0.0, id="-35.0"),
    pytest.param(35.0, 3.0, id="35.0-source-linear-in-t"),
    pytest.param(-35.0, 3.0, id="-35.0-source-linear-in-t")])
def test_one_level_history_matches_full_method(a, rate):
    # feasible stepping == full stepping whose subgrid state is rebuilt
    # from the two-level residual each step; a source that moves in time
    # checks that every history term takes the source at its own level
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    mu, dt, J, steps = 0.8, 0.01, 4, 4
    tgrid = TimeGrid(dt * steps, steps)
    bc = DirichletBC(lambda t: 0.1 * np.sin(t), lambda t: 0.2 + t)

    def f(x, t):
        # constant in x: the element-constant source keeps both paths
        # exact
        return 0.7 + rate * t

    def ic(x):
        return np.sin(np.pi * x) + 0.3 * x

    fcfg = F.FeasibleConfig(
        mesh=mesh, tgrid=tgrid, mu=mu, velocity=a, bc=bc, source=f,
        initial=ic, provider=SeriesProvider(J))
    hist = F.run_feasible(fcfg)

    vcfg = _full_equiv_config(mesh, tgrid, a, mu, f, bc, J)
    # the velocity is constant, so one snapshot serves every time level
    ctx = _full_snapshot_with_feasible_lhs(vcfg)
    u = mesh.interpolate(ic)
    ref = [u.copy()]
    state = np.zeros((mesh.n_elems, J))
    for n in range(steps):
        if n > 0:
            state = approximate_subgrid_state(ref[n - 1], ref[n], n, vcfg,
                                              ctx)
        u, _ = V.step_full(ref[n], state, n, vcfg, ctx)
        ref.append(u)
    ref = np.array(ref)
    assert np.max(np.abs(hist - ref)) < 1e-10


def test_first_step_matches_full_method():
    # with a zero initial subgrid and one left-hand side both methods
    # solve the same first system
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    a, mu, dt, J = 1000.0, 1.0, 1e-3, 60
    tgrid = TimeGrid(dt, 1)

    def hat(x):
        return np.where(np.abs(x - 0.45) <= 0.25, 1.0, 0.0)

    fcfg = F.FeasibleConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                            initial=hat,
                            provider=SeriesProvider(J))
    hist = F.run_feasible(fcfg)
    vcfg = V.FullVmsConfig(mesh=mesh, tgrid=tgrid, mu=mu, velocity=a,
                           initial=hat, n_modes=J)
    u0, state, _ = V.init_state(vcfg)
    u1, _ = V.step_full(u0, state, 0, vcfg,
                        _full_snapshot_with_feasible_lhs(vcfg))
    assert np.max(np.abs(hist[1] - u1)) < 1e-10


def test_main_pairing_stays_bounded_on_a_coarse_mesh():
    # on this case the literal reading of the boxed G1 definition reaches
    # max|u| 2.0e10 after 10 steps; the step decays from max|u0| =
    # sin(2 pi / 5)
    mesh = build_uniform_mesh(0.0, 1.0, 5)
    cfg = F.FeasibleConfig(
        mesh=mesh, tgrid=TimeGrid(0.1, 10), mu=0.05, velocity=2.0,
        initial=lambda x: np.sin(np.pi * x))
    hist = F.run_feasible(cfg)
    assert np.all(np.isfinite(hist))
    assert np.all(np.abs(hist) <= 1.0)


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
                           provider=F.DirectKernelProvider())
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
                           provider=F.DirectKernelProvider())
    F.run_feasible(cfg)
    assert len(snapshots) == n_steps
    assert max(alive_before) == 1


def test_force_vectors_validate_the_source():
    # the source is finite at the load's Gauss points, which never hit
    # an element midpoint, and infinite at the midpoints, where the step
    # evaluates it for the subgrid source terms
    mesh = build_uniform_mesh(0.0, 1.0, 4)

    def run(source):
        return F.run_feasible(F.FeasibleConfig(
            mesh=mesh, tgrid=TimeGrid(0.02, 2), mu=1.0, velocity=2.0,
            source=source, initial=lambda x: x * (1 - x)))

    assert np.all(np.isfinite(run(lambda x, t: 0.7)))
    with pytest.raises(ValueError, match="non-finite"):
        run(lambda x, t: np.where(np.isin(x, mesh.midpoints), np.inf, 1.0))


def test_source_evaluated_once_per_time_level(monkeypatch):
    # step n + 1 reuses the midpoint source that step n evaluated at
    # t_{n+1}, so a run calls the source once for the load and once at the
    # element midpoints per step; the carried values are, bit for bit, a
    # fresh evaluation at t_n
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
            fresh = point_values(config.source, config.mesh.midpoints,
                                 n * config.tgrid.dt, name="source")
            assert carry[1].tobytes() == fresh.tobytes()
            checked.append(n)
        return original(n, u, sys_new, sys_old, carry, config)

    monkeypatch.setattr(F, "step_feasible", checking)
    F.run_feasible(cfg)
    assert checked == [1, 2, 3, 4]


# Relative to the oracle's max |u|.  Both sides sum the same kernel
# entries in a different order and solve once per step, so they agree to
# roundoff: the largest gap measured over these cases was 2.9e-16, and
# 1.9e-14 over a wider sweep on this mesh (both signs, mu in [1e-3, 1],
# |a| in [0.5, 500], dt in [5e-3, 0.5]).
FAMILY_FORM_RTOL = 1e-13


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_steps_match_the_family_form_oracle(sign):
    # three sourced steps on a nonuniform mesh against the eight kernel
    # families and the F1-F4 force vectors; the velocity and the source
    # move enough per step that a term taken at the wrong time level or
    # with the wrong sign shows
    mesh = Mesh1D([0.0, 0.13, 0.35, 0.5, 0.78, 1.0])
    tgrid, mu = TimeGrid(0.15, 3), 0.1
    bc = DirichletBC(lambda t: 0.1 * np.sin(t), lambda t: 0.3 + t)

    def velocity(x, t):
        return sign * 5.0 * (1.0 + 0.5 * np.sin(2.0 * x + 30.0 * t))

    def source(x, t):
        return np.cos(3.0 * x) + 40.0 * t * x

    def initial(x):
        return np.sin(np.pi * x) + 0.3 * x

    hist = F.run_feasible(F.FeasibleConfig(
        mesh=mesh, tgrid=tgrid, mu=mu, velocity=velocity, bc=bc,
        source=source, initial=initial))
    ref = feasible_step_family_form(mesh, tgrid, mu, velocity, source, bc,
                                    mesh.interpolate(initial))
    gap = np.max(np.abs(hist - ref)) / np.max(np.abs(ref))
    assert gap <= FAMILY_FORM_RTOL
