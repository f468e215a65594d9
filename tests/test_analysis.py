import numpy as np
import pytest

from spectral_vms import analysis as A
from spectral_vms.mesh_fem import TimeGrid, build_uniform_mesh


def test_error_norms_zero_and_constant():
    mesh = build_uniform_mesh(0.0, 1.0, 10)
    hist = np.random.default_rng(0).standard_normal((4, 11))
    rep = A.error_norms(hist, hist, mesh, 0.1)
    assert rep.linf_l2 == 0.0 and rep.l2_h1 == 0.0
    # constant error 1 on (0,1): L2 norm 1, H1 seminorm 0
    ref = hist + 1.0
    rep = A.error_norms(hist, ref, mesh, 0.1)
    assert rep.linf_l2 == pytest.approx(1.0, rel=1e-12)
    assert rep.l2_h1 == pytest.approx(0.0, abs=1e-7)


def test_error_norms_linear_profile():
    # single step, error e(x) = x: L2 = 1/sqrt(3), H1 = 1
    mesh = build_uniform_mesh(0.0, 1.0, 16)
    dt = 0.05
    hist = np.zeros((2, 17))
    ref = np.vstack([np.zeros(17), mesh.nodes])
    rep = A.error_norms(hist, ref, mesh, dt)
    assert rep.per_step_l2[-1] == pytest.approx(1.0 / np.sqrt(3.0),
                                                rel=1e-12)
    assert rep.per_step_h1[-1] == pytest.approx(1.0, rel=1e-12)
    assert rep.l2_h1 == pytest.approx(np.sqrt(dt), rel=1e-12)
    assert rep.linf_l2 == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)


def test_error_norms_shape_mismatch():
    mesh = build_uniform_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        A.error_norms(np.zeros((3, 5)), np.zeros((2, 5)), mesh, 0.1)


def test_norm_aggregation_duality():
    # max-in-time L2 is bounded by the root-sum aggregation / sqrt(dt)
    rng = np.random.default_rng(4)
    mesh = build_uniform_mesh(0.0, 1.0, 8)
    dt = 0.01
    hist = np.zeros((6, 9))
    ref = rng.standard_normal((6, 9))
    rep = A.error_norms(hist, ref, mesh, dt)
    l2_l2 = np.sqrt(dt * np.sum(rep.per_step_l2 ** 2))
    assert rep.linf_l2 <= l2_l2 / np.sqrt(dt) + 1e-15


def test_presets_consistent_with_parameters():
    for preset in A.PRESETS.values():
        preset.check_parameters()
    p = A.PRESETS["test2-big-peclet"]
    assert (p.a, p.mu, p.h, p.dt, p.n_steps) == (1000.0, 1.0, 0.02, 1e-3, 9)
    p = A.PRESETS["test3-a"]
    assert (p.a, p.mu, p.h, p.dt) == (300.0, 1.0, 0.02, 1e-2)
    p = A.PRESETS["test3-b"]
    assert (p.a, p.mu, p.h, p.dt) == (100.0, 0.5, 1e-2, 1e-3)
    p = A.PRESETS["test3-c"]
    assert (p.a, p.mu, p.h, p.dt) == (700.0, 1.0, 1e-2, 1e-2)
    # CFL preset: CFL / CFL_bound = 1/2
    from oracles import cfl_bound
    p = A.PRESETS["test2-cfl"]
    cfl = p.a * p.dt / p.h
    assert cfl == pytest.approx(0.5 * cfl_bound(p.P), rel=1e-12)
    assert p.dt == pytest.approx(9.259e-6, rel=1e-3)


def test_reference_solution_test1_values():
    pre = A.PRESETS["test1"]
    ref = A.reference_solution(pre)
    mesh = pre.mesh()
    np.testing.assert_allclose(ref[0], np.exp(mesh.nodes), rtol=1e-14)
    # left boundary at final time: exp((mu - a) T) = e^1.9
    assert ref[-1][0] == pytest.approx(np.exp(1.9), rel=1e-12)


def test_reference_self_convergence():
    pre = A.PRESETS["test3-a"]
    r1 = A.reference_solution(pre, refine=128)
    r2 = A.reference_solution(pre, refine=256)
    assert np.max(np.abs(r1 - r2)) < 1e-6


def test_convergence_order_synthetic():
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    assert A.convergence_order(3.0 * dts, dts) == pytest.approx(1.0)
    assert A.convergence_order(3.0 * dts ** 2, dts) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        A.convergence_order([1.0, 0.5], [0.1, 0.05])
    with pytest.raises(ValueError):
        A.convergence_order([1.0, 0.0, 0.1], [0.1, 0.05, 0.025])


def test_time_convergence_study_slopes():
    rows = A.time_convergence_study(h=0.05 / 16)
    dts = [r["dt"] for r in rows]
    slope_h1 = A.convergence_order([r["l2_h1"] for r in rows], dts)
    assert 0.7 <= slope_h1 <= 1.3
    slope_l2 = A.convergence_order([r["linf_l2"] for r in rows], dts)
    assert 0.5 <= slope_l2 <= 2.5  # recorded, order ~1 measured


def test_mesh_independence_study_flat():
    rows = A.mesh_independence_study(h_values=[0.05 / 4, 0.05 / 16])
    vals = [r["linf_l2"] for r in rows]
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


def test_run_experiment_schema_and_ratio():
    results, reference = A.run_experiment(A.PRESETS["test3-a"])
    assert sorted(results) == sorted(A.PRESETS["test3-a"].methods)
    best_stab = min(results[m]["errors"].linf_l2
                    for m in results if m.startswith("stab-"))
    spectral = results["spectral-feasible"]["errors"].linf_l2
    assert spectral <= best_stab / 10.0
    assert reference.shape == results["galerkin"]["history"].shape


def test_write_csvs(tmp_path):
    mesh = build_uniform_mesh(0.0, 1.0, 2)
    tgrid = TimeGrid(0.2, 2)
    hist = np.arange(9.0).reshape(3, 3)
    rep = A.error_norms(hist, hist * 0.0, mesh, tgrid.dt)
    A.write_report_csv(tmp_path / "report.csv", {"galerkin": {
        "history": hist, "errors": rep}})
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "method,linf_l2,l2_h1"
    assert len(lines) == 2 and lines[1].startswith("galerkin,")
    A.write_solutions_csv(tmp_path / "sol.csv", mesh, tgrid,
                          {"galerkin": hist})
    lines = (tmp_path / "sol.csv").read_text().strip().splitlines()
    assert lines[0] == "x,t,step,method,value"
    assert len(lines) == 1 + 3 * 3


def test_reference_self_convergence_small_dt():
    # the kink layer needs deeper refinement at dt = 1e-5
    pre = A.PRESETS["test2-small-dt"]
    r1 = A.reference_solution(pre, refine=512)
    r2 = A.reference_solution(pre, refine=1024)
    assert np.max(np.abs(r1 - r2)) < 1e-6


def test_galerkin_error_magnitude_benchmark():
    results, _ = A.run_experiment(A.PRESETS["test3-a"],
                                  methods=("galerkin",))
    got = results["galerkin"]["errors"].linf_l2
    assert got == pytest.approx(1.1784e-2, rel=1.0)  # within a factor 2


def test_cfl_preset_oscillation_thresholds():
    pre = A.PRESETS["test2-cfl"]
    mesh, tg = pre.mesh(), pre.tgrid()
    spectral = A.run_method("spectral-full", mesh, tg, pre.a, pre.mu,
                        initial=pre.initial(), bc=pre.dirichlet(),
                        n_modes=150)
    gal = A.run_method("galerkin", mesh, tg, pre.a, pre.mu,
                       initial=pre.initial(), bc=pre.dirichlet())
    assert spectral.min() >= -1e-4
    assert gal.min() < -1e-3


@pytest.mark.parametrize("method", ["spectral-full"])
def test_large_peclet_raises_instead_of_non_finite(method):
    # P = 1000, S = 2.5: the J-mode closure overflows; the run must fail
    # loudly rather than return a NaN/inf history
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    a = 2.0 * 1000.0 * 1.0 / 0.02
    with pytest.raises(FloatingPointError), np.errstate(all="ignore"):
        A.run_method(method, mesh, TimeGrid.from_dt(1e-3, 2), a, 1.0,
                     initial=A.hat_profile, n_modes=50)


@pytest.mark.parametrize("P", [64.0, 730.0, 1000.0])
def test_feasible_runs_at_large_peclet(P):
    # the README case (50 elements, dt = 1e-3, mu = 1, so S = 2.5): the
    # closed-form kernels keep spectral-feasible finite and inside the
    # bounds of the initial hat, where the truncated series broke down
    # from P = 64
    mesh = build_uniform_mesh(0.0, 1.0, 50)
    a = 2.0 * P * 1.0 / 0.02
    hist = A.run_method("spectral-feasible", mesh, TimeGrid.from_dt(1e-3, 5),
                        a, 1.0, initial=A.hat_profile)
    assert hist.min() >= -1e-8
    assert hist.max() <= 1.0 + 1e-8


def _count_factorisations(monkeypatch):
    from spectral_vms import mesh_fem
    calls = []
    factor = mesh_fem.factor_tridiag

    def counting(matrix):
        calls.append(1)
        return factor(matrix)

    monkeypatch.setattr(mesh_fem, "factor_tridiag", counting)
    return calls


@pytest.mark.parametrize("method", ["galerkin", "stab-codina",
                                    "spectral-full", "spectral-feasible"])
def test_constant_velocity_factors_once(monkeypatch, method):
    calls = _count_factorisations(monkeypatch)
    hist = A.run_method(method, build_uniform_mesh(0.0, 1.0, 10),
                        TimeGrid(0.05, 5), -4.0, 1.0,
                        initial=lambda x: x * (1.0 - x), n_modes=6)
    assert hist.shape == (6, 11)
    assert len(calls) == 1


@pytest.mark.parametrize("method", ["galerkin", "stab-codina",
                                    "spectral-feasible", "spectral-full"])
def test_time_dependent_velocity_factors_once_per_projection(monkeypatch,
                                                             method):
    # the projected velocity takes two values over the five steps
    def velocity(x, t):
        return (1.0 + x) * (2.0 if t < 0.025 else 5.0)

    calls = _count_factorisations(monkeypatch)
    A.run_method(method, build_uniform_mesh(0.0, 1.0, 10),
                 TimeGrid(0.05, 5), velocity, 1.0,
                 initial=lambda x: x * (1.0 - x))
    assert len(calls) == 2


def test_time_dependent_full_run_factors_once_per_step(monkeypatch):
    # the projected velocity changes on every step, so spectral-full
    # builds a snapshot, and so a left-hand side, per step
    calls = _count_factorisations(monkeypatch)
    A.run_method("spectral-full", build_uniform_mesh(0.0, 1.0, 10),
                 TimeGrid(0.05, 5), lambda x, t: (1.0 + x) * (1.0 + t), 1.0,
                 initial=lambda x: x * (1.0 - x), n_modes=6)
    assert len(calls) == 5
