import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spectral_vms
from spectral_vms import kernels as K
from spectral_vms.mesh_fem import Mesh1D

from oracles import (composite_gauss01, gauss01, green_kernels, key_params,
                     nsum_kernel, per_element_projection, per_key_mode_arrays,
                     quad_base_integrals, reconstruct_subgrid)


def test_element_params_known_values():
    p = K.element_params(1000.0, 0.02, 1.0, 1e-3)
    assert p.P == pytest.approx(10.0)
    assert p.S == pytest.approx(2.5)
    p = K.element_params(20.0, 0.01, 1.0, 1.0 / 108000.0)
    assert p.P == pytest.approx(0.1)
    assert p.S == pytest.approx(0.0926, abs=5e-5)
    assert K.element_params(0.0, 0.1, 1.0, 0.1).P == 0.0
    with pytest.raises(ValueError):
        K.element_params(1.0, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        K.element_params(1.0, 0.1, -1.0, 0.1)


def test_params_consistency():
    p = K.element_params(-37.5, 0.013, 0.7, 2e-4)
    assert p.P == pytest.approx(abs(p.a) * p.h / (2 * p.mu), rel=1e-12)
    assert p.S == pytest.approx(p.dt * p.mu / p.h ** 2, rel=1e-12)
    assert p.sign_a == -1.0


def test_beta_values_and_monotonicity():
    p = K.element_params(0.0, 1.0, 1.0, 1.0)  # P=0, S=1
    assert K.beta(1, p) == pytest.approx(1.0 / (1.0 + np.pi ** 2))
    p = K.element_params(1000.0, 0.02, 1.0, 1e-3)  # P=10, S=2.5
    assert K.beta(1, p) == pytest.approx(
        1.0 / (1.0 + 2.5 * (100.0 + np.pi ** 2)), rel=1e-12)
    b = K.beta(np.arange(1, 80), p)
    assert np.all(np.diff(b) < 0.0) and np.all(b > 0.0) and np.all(b <= 1.0)
    # S -> 0 sends every beta to 1
    p = K.element_params(1.0, 1.0, 1.0, 1e-14)
    assert K.beta(50, p) == pytest.approx(1.0, abs=1e-8)


def test_eigenvalue_and_beta_consistency():
    p = K.element_params(1000.0, 0.02, 1.0, 1e-3)
    assert K.eigenvalue(1, p) == pytest.approx(
        (np.pi / 0.02) ** 2 + 250000.0, rel=1e-12)
    j = np.arange(1, 101)
    np.testing.assert_allclose(K.beta(j, p) * (1.0 + p.dt * K.eigenvalue(j, p)),
                               1.0, rtol=1e-12)
    p0 = K.element_params(0.0, 0.1, 2.0, 1e-3)
    np.testing.assert_allclose(K.eigenvalue(j, p0),
                               2.0 * (j * np.pi / 0.1) ** 2, rtol=1e-14)


def test_mode_value_endpoints_and_peak():
    p = K.element_params(0.0, 0.25, 1.0, 0.1)
    assert K.mode_value(1, p, 0.0) == 0.0
    assert K.mode_value(1, p, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert K.mode_value(1, p, 0.5) == pytest.approx(np.sqrt(2.0))


def test_mode_orthonormality_weighted():
    # weighted inner products of sqrt(h)-normalized modes on [0, 1]
    x, w = gauss01(200)
    for P in (0.0, 1.0, 10.0):
        p = K.element_params(2.0 * P / 0.1, 0.1, 1.0, 0.01)
        modes = np.array([K.mode_value(j, p, x) for j in range(1, 21)])
        weight = np.exp(-2.0 * P * x) * w
        gram = modes @ (weight[None, :] * modes).T
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-10)


def test_mode_eigen_relation_finite_differences():
    # a z' - mu z'' = lambda z checked with 5-point differences
    p = K.element_params(300.0, 0.02, 1.0, 1e-2)
    step = 1e-4
    for j in (1, 3, 7):
        for xh in (0.2, 0.37, 0.81):
            pts = xh + step * np.arange(-2, 3)
            v = K.mode_value(j, p, pts) / np.sqrt(p.h)
            d1 = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * step * p.h)
            d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) \
                / (12 * step ** 2 * p.h ** 2)
            lhs = p.a * d1 - p.mu * d2
            lam = K.eigenvalue(j, p)
            assert lhs == pytest.approx(lam * v[2], rel=1e-6, abs=1e-6)


def test_base_integrals_trivial_values():
    assert K.base_integrals(1, 0.0).d0 == pytest.approx(2.0 / np.pi)
    assert K.base_integrals(2, 0.0).d0 == 0.0
    k = K.base_integrals(3, 4.2)
    assert k.a0 + k.a1 == pytest.approx(k.d0, rel=1e-13)
    assert k.c0 + k.c1 == pytest.approx(k.e0, rel=1e-13)
    # d0(j, P) = e0(j, -P)
    assert K.base_integrals(3, -4.2).e0 == pytest.approx(k.d0, rel=1e-13)


@pytest.mark.parametrize("P", [0.0, 0.5, 3.0, 10.0, 19.98])
def test_base_integrals_match_quadrature(P):
    for j in range(1, 51):
        k = K.base_integrals(j, P)
        ref = quad_base_integrals(j, P)
        for name, val in ref.items():
            got = getattr(k, name)
            assert abs(got - val) <= 1e-12 * max(1.0, abs(val)), (j, P, name)


def test_base_integrals_quadrature_fallback():
    for (j, P) in [(1, 0.7), (4, 3.3), (9, 12.0)]:
        k1 = K.base_integrals(j, P)
        k2 = K.base_integrals(j, P, method="quadrature")
        for name in ("d0", "e0", "a0", "a1", "c0", "c1"):
            assert getattr(k1, name) == pytest.approx(
                getattr(k2, name), rel=1e-11, abs=1e-13)


def test_base_integrals_large_p_finite():
    k = K.base_integrals(2, 500.0)
    assert np.isfinite(k.d0) and np.isfinite(k.a0) and np.isfinite(k.a1)
    assert np.isfinite(k.e0)


def quad_couplings(j, p, n=400):
    """Quadrature oracle for b(phi_m, p z_j) and b(z_j, phi_l)."""
    x, w = gauss01(n)
    h, a, mu, P = p.h, p.a, p.mu, p.P
    sgn = 1.0 if a >= 0 else -1.0
    amp = np.sqrt(2.0 / h)
    zt = amp * np.exp(sgn * P * x) * np.sin(j * np.pi * x)
    zt_p = amp / h * np.exp(sgn * P * x) * (
        sgn * P * np.sin(j * np.pi * x) + j * np.pi * np.cos(j * np.pi * x))
    pz = amp * np.exp(-sgn * P * x) * np.sin(j * np.pi * x)
    pz_p = amp / h * np.exp(-sgn * P * x) * (
        -sgn * P * np.sin(j * np.pi * x) + j * np.pi * np.cos(j * np.pi * x))
    phi = np.array([1.0 - x, x])
    dphi = np.array([-1.0, 1.0]) / h
    b_phi_pz = np.array([
        h * np.sum(w * (a * dphi[m] * pz + mu * dphi[m] * pz_p))
        for m in range(2)])
    b_z_phi = np.array([
        h * np.sum(w * (a * zt_p * phi[l] + mu * zt_p * dphi[l]))
        for l in range(2)])
    return b_phi_pz, b_z_phi


def _couplings(p, n_modes):
    """b(phi_m, p z_j) and b(z_j, phi_l), (2, n_modes) each, of the one
    element with parameters p, from element_mode_arrays."""
    arr = K.element_mode_arrays(
        K.element_params([p.a], p.h, p.mu, p.dt), n_modes)
    return arr["adv_phi_pz"][0], arr["adv_z_phi"][0]


def test_bilinear_couplings_against_quadrature():
    p = K.element_params(300.0, 0.02, 1.0, 1e-2)
    got_pz, got_zp = _couplings(p, 5)
    for j in (1, 2, 5):
        ref_pz, ref_zp = quad_couplings(j, p)
        np.testing.assert_allclose(got_pz[:, j - 1], ref_pz, rtol=1e-10)
        np.testing.assert_allclose(got_zp[:, j - 1], ref_zp, rtol=1e-10)


def test_bilinear_couplings_negative_velocity():
    p = K.element_params(-140.0, 0.05, 2.0, 1e-3)
    got_pz, got_zp = _couplings(p, 3)
    for j in (1, 2, 3):
        ref_pz, ref_zp = quad_couplings(j, p)
        np.testing.assert_allclose(got_pz[:, j - 1], ref_pz, rtol=1e-10)
        np.testing.assert_allclose(got_zp[:, j - 1], ref_zp, rtol=1e-10)


def test_bilinear_couplings_zero_cases():
    p = K.element_params(0.0, 0.1, 1.0, 0.1)
    got_pz, got_zp = _couplings(p, 1)
    np.testing.assert_array_equal(got_pz, 0.0)
    np.testing.assert_array_equal(got_zp, 0.0)
    # even mode at P -> 0 limit: d0(2, 0) = e0(2, 0) = 0
    p = K.element_params(1e-30, 0.1, 1.0, 0.1)
    got_pz, got_zp = _couplings(p, 2)
    np.testing.assert_allclose(got_pz[:, 1], 0.0, atol=1e-40)
    np.testing.assert_allclose(got_zp[:, 1], 0.0, atol=1e-40)


from oracles import brute_series


def _truncated(family, m, l, p, policy):
    """Epsilon-truncated series value at the element's (P, S)."""
    values, _, _ = K.sum_series_batch(family, m, l, p.P, [p.S], policy)
    return float(values[0])


def _required_modes(p, policy):
    """Stopping index of the A1 (0, 0) series at the element's (P, S)."""
    _, counts, _ = K.sum_series_batch("A1", 0, 0, p.P, [p.S], policy)
    return int(counts[0])


def test_sum_series_against_quadrature_summation():
    policy = K.TruncationPolicy(epsilon=1e-14, j_max=20000)
    for family, m, l in [("A1", 0, 0), ("A1", 1, 0), ("A3", 1, 0),
                         ("B2", 0, 1), ("A4", 0, 0)]:
        for (P, S) in [(0.5, 2.0), (3.0, 25.0)]:
            p = K.element_params(2 * P, 1.0, 1.0, S)
            got = _truncated(family, m, l, p, policy)
            ref = brute_series(family, m, l, P, S)
            assert got == pytest.approx(ref, rel=1e-7, abs=1e-10)


def test_sum_series_large_s_bounded():
    # with S large, beta_j ~ 1/(S pi^2 j^2): the policy-truncated value
    # agrees with an explicit 10000-term summation of the same series
    p = K.element_params(2.0, 1.0, 1.0, 500.0)
    policy = K.TruncationPolicy()
    got = _truncated("A1", 0, 0, p, policy)
    ref = K.sum_series_fixed("A1", 0, 0, 1.0, 500.0, 10000)
    # the omitted tail is a small multiple of epsilon (terms decay ~ j^-4)
    assert abs(got - ref) <= 50.0 * policy.epsilon
    bound = sum(1.0 / (500.0 * np.pi ** 2 * j ** 2) for j in range(1, 10001))
    assert abs(got) <= bound


def test_sum_series_scale_invariance():
    policy = K.TruncationPolicy()
    p1 = K.element_params(300.0, 0.02, 1.0, 1e-2)       # P=3, S=25
    p2 = K.element_params(6.0, 1.0, 1.0, 25.0)          # same (P, S)
    for family, m, l in [("A1", 0, 1), ("A2", 0, 0), ("B4", 0, 0)]:
        v1 = _truncated(family, m, l, p1, policy)
        v2 = _truncated(family, m, l, p2, policy)
        assert v1 == pytest.approx(v2, rel=1e-13)


def test_sum_series_stopping_rule():
    # the last summed term and the first omitted one are both below
    # epsilon whenever no overflow fired
    policy = K.TruncationPolicy(epsilon=1e-10, j_max=5000)
    p = K.element_params(40.0, 0.05, 1.0, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, counts, over = K.sum_series_batch("A1", 0, 0, p.P, [p.S],
                                                policy)
    assert not over[0]
    jstop = int(counts[0])
    partial = [K.sum_series_fixed("A1", 0, 0, p.P, p.S, n)
               for n in (jstop - 1, jstop, jstop + 1)]
    assert abs(partial[1] - partial[0]) < policy.epsilon
    assert abs(partial[2] - partial[1]) < policy.epsilon
    # ... and the value includes everything up to the last summed term
    assert vals[0] == pytest.approx(
        K.sum_series_fixed("A1", 0, 0, p.P, p.S, jstop), rel=1e-13)


@pytest.mark.parametrize("P", [0.0, 1e-5, 1e-3])
def test_sum_series_small_p_not_cut_by_parity(P):
    # the d and e sides nearly vanish for every even mode when P is
    # small, so a single sub-epsilon term must not end the series
    policy = K.TruncationPolicy()
    entries = [("A2", 0, 0), ("A3", 0, 0), ("A4", 0, 0), ("B2", 0, 0),
               ("B4", 0, 0)]
    vals, _, over = K.sum_series_multi(entries, P, [10.0], policy)
    for key in entries:
        ref = K.sum_series_fixed(*key, P, 10.0, 20000)
        assert not over[key][0]
        # the omitted tail is a small multiple of epsilon (terms ~ j^-4)
        assert abs(vals[key][0] - ref) <= 50.0 * policy.epsilon, key


def test_sum_series_overflow_warning():
    policy = K.TruncationPolicy(epsilon=1e-30, j_max=50)
    p = K.element_params(10.0, 1.0, 1.0, 0.01)
    with pytest.warns(K.TruncationOverflowWarning):
        _truncated("A1", 0, 0, p, policy)


def test_required_modes_monotone_in_epsilon():
    p = K.element_params(30.0, 0.1, 1.0, 0.05)
    n1 = _required_modes(p, K.TruncationPolicy(epsilon=1e-10))
    n2 = _required_modes(p, K.TruncationPolicy(epsilon=2e-10))
    assert n2 <= n1


def test_required_modes_trends():
    # more terms as P grows, fewer as S grows
    policy = K.TruncationPolicy()
    n_easy = _required_modes(K.element_params(2 * 0.5, 1.0, 1.0, 20.0),
                              policy)
    assert n_easy <= 64
    counts_p = [_required_modes(K.element_params(2 * P, 1.0, 1.0, 1.0),
                                 policy) for P in (1.0, 5.0, 10.0, 19.98)]
    assert counts_p == sorted(counts_p)
    counts_s = [_required_modes(K.element_params(2 * 19.98, 1.0, 1.0, S),
                                 policy) for S in (0.02, 0.5, 5.0, 20.0)]
    assert counts_s == sorted(counts_s, reverse=True)
    # the hardest corner of the parameter box needs by far the most terms
    assert counts_s[0] >= 10 * n_easy


def test_reconstruct_subgrid():
    p = K.element_params(0.0, 0.5, 1.0, 0.1)
    xh = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(
        reconstruct_subgrid(np.zeros(5), p, xh), np.zeros(11))
    vals = reconstruct_subgrid([1.0, 0.0, 0.0], p, xh)
    np.testing.assert_allclose(vals, np.sqrt(2.0 / 0.5) * np.sin(np.pi * xh),
                               atol=1e-13)
    # the package reconstructs with mode_value over all modes at once
    amps = np.array([0.7, -0.2, 0.05])
    modes = K.mode_value(np.arange(1, 4)[:, None], p, xh) / np.sqrt(p.h)
    np.testing.assert_allclose(amps @ modes, reconstruct_subgrid(amps, p, xh),
                               rtol=1e-13, atol=1e-15)


def test_subgrid_projection_roundtrip():
    # project a smooth bubble onto 150 modes; by Parseval the L2_p error
    # of the reconstruction equals the coefficient tail
    mesh = Mesh1D([1.0, 1.25, 1.5])
    params, index = K.distinct_element_params([8.0, 8.0], mesh.h, 1.0, 0.05)
    p = key_params(params, 0)

    def bubble(x, t):
        s = (x - 1.0) / 0.25
        return np.sin(np.pi * s) * np.exp(0.5 * s)

    amps = K.source_mode_projection(bubble, 0.0, mesh, params, index, 300,
                                    n_gauss=64)[0]
    xh, wq = composite_gauss01(40, 16)
    got = reconstruct_subgrid(amps[:150], p, xh)
    want = np.array([bubble(1.0 + 0.25 * s, 0.0) for s in xh])
    weight = np.exp(-2.0 * p.sign_a * p.P * xh)
    err_sq = p.h * np.sum(wq * weight * (got - want) ** 2)
    tail_sq = np.sum(amps[150:] ** 2)
    assert 0.9 * tail_sq <= err_sq <= 1.5 * tail_sq + 1e-18
    # pointwise agreement away from nothing in particular
    assert np.max(np.abs(got - want)) < 1e-4 * np.max(np.abs(want))


@pytest.mark.parametrize("n_modes", [6, 20])
@pytest.mark.parametrize("a", [3.5, -3.5])
def test_source_projection_cached_rule_is_bit_identical(a, n_modes):
    mesh = Mesh1D([0.3, 0.35, 0.4])
    params, index = K.distinct_element_params([a, a], mesh.h, 0.4, 0.01)

    def f(x, t):
        return np.cos(3.0 * x) * np.exp(x) + t

    for n_gauss in (32, 64):
        want = np.array([per_element_projection(f, 0.25,
                                                key_params(params, index[k]),
                                                mesh.nodes[k], n_modes,
                                                n_gauss)
                         for k in range(mesh.n_elems)])
        for _ in range(2):  # the second call reads the cached rule
            got = K.source_mode_projection(f, 0.25, mesh, params, index,
                                           n_modes, n_gauss)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_gauss", [32, 64])
@pytest.mark.parametrize("n_modes", [6, 20, 150])
def test_all_element_projection_matches_per_element_oracle(
        n_modes, n_gauss, monkeypatch):
    # a nonuniform mesh with velocities of both signs, over two full
    # element blocks and a partial one, so a block sliced one element off
    # shows; the floats budget is cut to 4 elements per block to keep the
    # per-point oracle cheap
    panels = max(1, int(np.ceil(n_modes / 8.0)))
    monkeypatch.setattr(K, "_PROJECTION_BLOCK_FLOATS",
                        4 * n_modes * panels * n_gauss)
    n_elems = 11
    rng = np.random.default_rng(n_modes + n_gauss)
    mesh = Mesh1D(np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.5, 1.5, n_elems))]) / n_elems)
    a_elem = rng.uniform(0.5, 40.0, n_elems) * rng.choice([-1.0, 1.0],
                                                           n_elems)
    params, index = K.distinct_element_params(a_elem, mesh.h, 0.3, 0.01)

    def f(x, t):
        return np.cos(3.0 * x) * np.exp(x) + t

    got = K.source_mode_projection(f, 0.25, mesh, params, index, n_modes,
                                   n_gauss)
    want = np.array([per_element_projection(f, 0.25,
                                            key_params(params, index[k]),
                                            mesh.nodes[k], n_modes, n_gauss)
                     for k in range(n_elems)])
    assert got.shape == (n_elems, n_modes)
    assert got.tobytes() == want.tobytes()


def test_cached_gauss_rule_is_read_only():
    for panels in (1, 3):
        xg, wg = K._composite_gauss01(64, panels)
        assert xg.shape == wg.shape == (64 * panels,)
        assert not xg.flags.writeable
        assert not wg.flags.writeable
        with pytest.raises(ValueError):
            xg[0] = 0.5
        with pytest.raises(ValueError):
            wg *= 2.0
        again = K._composite_gauss01(64, panels)
        assert again[0] is xg and again[1] is wg


def test_element_mode_arrays_match_scalar_paths():
    # one call over keys of both velocity signs equals the per-key float
    # arithmetic bit for bit, and its beta equals kernels.beta
    params, _ = K.distinct_element_params([300.0, -140.0, 0.0, -0.0, 7.5],
                                          [0.02, 0.02, 0.05, 0.05, 0.1],
                                          1.0, 1e-2)
    arr = K.element_mode_arrays(params, 6)
    assert arr["mass_phi_pz"].shape == (4, 2, 6)
    assert arr["beta"].shape == (4, 6)
    for k in range(4):
        want = per_key_mode_arrays(key_params(params, k), 6)
        assert sorted(arr) == sorted(want)
        for name in want:
            assert arr[name][k].tobytes() == want[name].tobytes(), (k, name)
    assert arr["beta"].tobytes() == K.beta(np.arange(1, 7), params).tobytes()


def test_element_mode_arrays_mass_pairings_quadrature():
    x, w = gauss01(300)
    params, _ = K.distinct_element_params([120.0, -120.0], [0.04, 0.04],
                                          1.0, 1e-3)
    arr = K.element_mode_arrays(params, 4)
    for k in range(2):
        p = key_params(params, k)
        sgn = 1.0 if p.a >= 0 else -1.0
        for j in (1, 2, 3, 4):
            amp = np.sqrt(2.0 / p.h)
            zt = amp * np.exp(sgn * p.P * x) * np.sin(j * np.pi * x)
            pz = amp * np.exp(-sgn * p.P * x) * np.sin(j * np.pi * x)
            for m, phi in enumerate((1.0 - x, x)):
                want = p.h * np.sum(w * phi * pz)
                assert arr["mass_phi_pz"][k, m, j - 1] == pytest.approx(
                    want, rel=1e-12, abs=1e-15)
                want = p.h * np.sum(w * phi * zt)
                assert arr["mass_z_phi"][k, m, j - 1] == pytest.approx(
                    want, rel=1e-12, abs=1e-15)


def test_mode_value_rejects_outside_reference_element():
    p = K.element_params(1.0, 0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        K.mode_value(1, p, -0.1)
    with pytest.raises(ValueError):
        K.mode_value(1, p, np.array([0.5, 1.2]))


ALL_ENTRIES = [(name, m, l) for name in K.FAMILY_ORDER
               for m, l in K.FAMILIES[name].index_pairs]


@pytest.mark.parametrize("P,S", [(0.5, 1.0), (3.5, 100.0), (0.0, 0.3)])
def test_green_oracle_matches_mode_series(P, S):
    # the high-precision Green's-function oracle against mpmath.nsum of
    # the mode series itself, on the A1 and B1 blocks (the other families
    # are their sums, see test_series_family_sums)
    blocks = [(name, m, l) for name in ("A1", "B1")
              for m, l in K.FAMILIES[name].index_pairs]
    want = [float(nsum_kernel(*entry, P, S)) for entry in blocks]
    got = green_kernels(blocks, P, S)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_series_block_symmetry():
    # A1[0,0] = A1[1,1] and B1[0,0] = B1[1,1] term by term: mirroring the
    # element maps a_0 to -sigma e^P c_1 and a_1 to -sigma e^{-P} c_0
    rng = np.random.default_rng(23)
    P = np.concatenate([[0.0, 1e-5, 1e-3], rng.uniform(0.0, 10.0, 20)])
    S = rng.uniform(0.01, 100.0, P.size)
    for name in ("A1", "B1"):
        for n_modes in (1, 2, 7, 60):
            d00 = K.sum_series_fixed(name, 0, 0, P, S, n_modes)
            d11 = K.sum_series_fixed(name, 1, 1, P, S, n_modes)
            np.testing.assert_allclose(d00, d11, rtol=1e-12, atol=0)


def test_series_family_sums():
    # d0 = a0 + a1 and e0 = c0 + c1 make every family a sum of A1 or B1
    # entries, for any number of modes
    rng = np.random.default_rng(29)
    P = np.concatenate([[0.0, 1e-5, 1e-3], rng.uniform(0.0, 10.0, 20)])
    S = rng.uniform(0.01, 100.0, P.size)
    for n_modes in (1, 3, 40):
        for name, m, l in ALL_ENTRIES:
            fam = K.FAMILIES[name]
            ms = (0, 1) if fam.side1 == "d" else (m,)
            ls = (0, 1) if fam.side2 == "e" else (l,)
            block = name[0] + "1"
            want = sum(K.sum_series_fixed(block, i, j, P, S, n_modes)
                       for i in ms for j in ls)
            got = K.sum_series_fixed(name, m, l, P, S, n_modes)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-300)


def test_closed_form_kernels_agree_with_long_series():
    # at moderate P the series converges; 20,000 modes leave a tail far
    # below the tolerance
    P = np.array([0.0, 0.5, 2.0, 6.0])
    S = np.array([0.5, 3.0, 1.0, 10.0])
    got = K.closed_form_kernels(ALL_ENTRIES, P, S)
    want = np.array([K.sum_series_fixed(*entry, P, S, 20000)
                     for entry in ALL_ENTRIES])
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0)


@pytest.mark.parametrize("P,S", [(300.0, 1e-5), (1000.0, 1e-6),
                                 (3.0, 1e-6), (1e5, 1e-8)])
def test_closed_form_kernels_small_s(P, S):
    # below S = 1e-3 the interior decay rate mu = Q - P can be large
    # while still far below the layer rate P + Q; the panels follow both
    got = K.closed_form_kernels(ALL_ENTRIES, P, S)[:, 0]
    want = green_kernels(ALL_ENTRIES, P, S, dps=120)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_closed_form_kernels_shapes_and_validation():
    got = K.closed_form_kernels([("A4", 0, 0), ("B1", 1, 0)], 2.0,
                                [0.5, 1.0, 4.0])
    assert got.shape == (2, 3)
    assert np.all(got > 0.0)
    for P, S in ((np.nan, 1.0), (1.0, np.inf), (-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            K.closed_form_kernels([("A1", 0, 0)], P, S)


def test_import_loads_no_development_only_packages():
    code = ("import sys, spectral_vms.cli; "
            "print(sorted(m for m in ('sympy', 'mpmath', 'scipy') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(spectral_vms.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
