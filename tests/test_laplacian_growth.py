"""Tests for harmonic moments, trajectory drivers, and threshold detection."""

import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margin_oracle import golden_margin
from moment_oracle import two_pass_moments
from toda_spectra import branch_points, laplacian_growth
from toda_spectra import (Leaf, MomentDriver, MomentMismatch, ParamPoint,
                          QuadratureNotConverged,
                          SliceDriver, TrajectoryState, UnivalenceLost,
                          approach_path, detect_thresholds,
                          harmonic_moments, initial_state, radius_excess,
                          solve_characteristic, univalence_margin)

LEAF2 = Leaf((2,))
LEAF3 = Leaf((3,))


def _brute_moments(r, a, leaf, ks, n=4096):
    """Independent midpoint-rule implementation of the contour moments."""
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    w = np.exp(1j * theta)
    z = r * w + sum(an * w ** (1 - sn) for an, sn in zip(a, leaf.exponents))
    dz = (r * w + sum((1 - sn) * an * w ** (1 - sn)
                      for an, sn in zip(a, leaf.exponents))) * 1j
    zbar = np.conj(z)
    dtheta = 2.0 * np.pi / n
    out = [np.sum(zbar * dz) * dtheta / (2j * np.pi)]
    for k in ks:
        out.append(np.sum(z ** (-k) * zbar * dz) * dtheta / (2j * np.pi * k))
    return np.array(out)


# ---------------------------------------------------------------------------
# harmonic moments


def test_moments_ellipse_closed_forms():
    r, a = 1.3, 0.2
    t = harmonic_moments(r, (a,), LEAF2)
    assert t[0].real == pytest.approx(r * r - a * a, rel=1e-12)
    assert t[1].real == pytest.approx(a / (2.0 * r), rel=1e-12)
    assert abs(t[0].imag) < 1e-14 and abs(t[1].imag) < 1e-14
    # the residue sums the moment Newton solves on
    t0, t2 = laplacian_growth._residue_moments(LEAF2, [r, a])
    assert t0 == pytest.approx(r * r - a * a, rel=1e-15)
    assert t2 == pytest.approx(a / (2.0 * r), rel=1e-15)


def test_moments_match_independent_quadrature():
    r, a = 1.1, (0.12,)
    got = harmonic_moments(r, a, LEAF3)
    want = _brute_moments(r, a, LEAF3, LEAF3.exponents)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got[0].real == pytest.approx(r * r - 2.0 * 0.12**2, rel=1e-12)


def test_moments_quadrature_doubling_guard():
    # a near-cusp boundary at very low node count fails the doubling check
    with pytest.raises(QuadratureNotConverged):
        harmonic_moments(1.0, (0.3329,), LEAF2, n_quad=16)


@pytest.mark.parametrize("exps", [(2,), (3, 6)])
def test_moments_equal_two_evaluation_oracle_to_the_bit(exps):
    # one pass on the doubled grid gives what separate evaluations at n
    # and 2n nodes give, bit for bit, and the same doubling verdict
    leaf = Leaf(exps)
    rng = np.random.default_rng(7)
    crit = np.array([1.0 / (s - 1) for s in exps]) / len(exps)
    for trial in range(40):
        r = rng.uniform(0.5, 2.0)
        a = r * crit * rng.uniform(-0.3, 0.3, len(exps))
        if trial % 2:
            a = a * np.exp(1j * rng.uniform(-np.pi, np.pi, len(exps)))
        coarse, fine = two_pass_moments(r, a, leaf, 512)
        err = np.abs(fine - coarse) / (1.0 + np.abs(fine))
        assert np.max(err) <= laplacian_growth.QUAD_TOL
        got = harmonic_moments(r, a, leaf)
        npt.assert_array_equal(got.view(np.float64), fine.view(np.float64))


# ---------------------------------------------------------------------------
# residue-sum moments and the moment Newton


def _univalent_real_state(exps, rng, reach=0.9):
    # sum (s_n - 1) |a_n| < reach * r keeps f' and f free of zeros on
    # |w| >= 1, so the map is univalent and the residue sums apply
    r = rng.uniform(0.5, 2.0)
    share = np.array([r / (s - 1) for s in exps]) / len(exps)
    return r, share * rng.uniform(-reach, reach, len(exps))


@settings(max_examples=200, deadline=None)
@given(exps=st.sampled_from([(2,), (3,), (2, 3), (3, 6), (4, 8, 12)]),
       seed=st.integers(0, 2**31 - 1))
def test_residue_moments_match_quadrature(exps, seed):
    leaf = Leaf(exps)
    r, a = _univalent_real_state(exps, np.random.default_rng(seed))
    got = np.array(laplacian_growth._residue_moments(leaf, [r, *a]))
    want = harmonic_moments(r, a, leaf)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("exps", [(2,), (3, 6), (4, 8, 12)])
def test_moment_jacobian_matches_quadrature_central_differences(exps):
    leaf = Leaf(exps)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        r, a = _univalent_real_state(exps, rng, reach=0.6)
        v = np.array([r, *a])
        jac = laplacian_growth._moment_jacobian(leaf, v)
        for j in range(v.size):
            vp, vm = v.copy(), v.copy()
            vp[j] += h
            vm[j] -= h
            col = (harmonic_moments(vp[0], vp[1:], leaf).real
                   - harmonic_moments(vm[0], vm[1:], leaf).real) / (2.0 * h)
            npt.assert_allclose(jac[:, j], col, rtol=0, atol=1e-8)


def test_checked_state_rejects_moments_off_the_residue_sums():
    # f = w + 2/w vanishes at w = +-i sqrt(2), outside the unit disk: the
    # residue sum gives t_2 = a/(2r) = 1, the contour integral -1/4
    r, a = 1.0, 2.0
    targets = np.array(laplacian_growth._residue_moments(LEAF2, [r, a]))
    npt.assert_allclose(targets, [-3.0, 1.0], rtol=1e-15)
    assert harmonic_moments(r, (a,), LEAF2)[1].real == pytest.approx(-0.25)
    with pytest.raises(MomentMismatch):
        laplacian_growth._checked_state(LEAF2, 0.5, np.array([r, a]), targets)
    # inside its range the same check passes
    targets = np.array(laplacian_growth._residue_moments(LEAF2, [r, 0.2]))
    st = laplacian_growth._checked_state(LEAF2, 0.5, np.array([r, 0.2]),
                                         targets)
    assert st.moments[1].real == pytest.approx(0.1, rel=1e-14)


@pytest.mark.parametrize("n, powers", [(1024, (-1,)), (2048, (-3, -6))])
def test_cached_circle_grid_is_read_only(n, powers):
    # the moment grid of LEAF2 and the margin grid of {3,6}, shared by
    # every later call
    w, monos = laplacian_growth._circle_powers(n, powers)
    assert laplacian_growth._circle_powers(n, powers)[0] is w
    for arr in (w,) + monos:
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# univalence margin


def test_margin_one_mode_closed_form():
    assert univalence_margin(1.0, (0.3,), LEAF2) == pytest.approx(0.7,
                                                                  abs=1e-8)
    assert univalence_margin(2.0, (0.5,), LEAF2) == pytest.approx(1.5,
                                                                  abs=1e-8)


def test_margin_turns_negative_past_cusp():
    assert univalence_margin(1.0, (1.2,), LEAF2) == pytest.approx(-0.2,
                                                                  abs=1e-8)
    # exactly at the fold the margin value collapses to 0
    assert abs(univalence_margin(1.0, (1.0,), LEAF2)) < 1e-12


@pytest.mark.parametrize("phase", [0.3, 1.1, 2.0])
def test_margin_resolves_a_cusp_between_grid_nodes(phase):
    # |f'| = |r - a e^{-2i theta}| has its minimum r - |a| at theta = arg(a)/2,
    # off the grid; 1e-7 from the cusp, |f'| is V-shaped on the grid scale
    a = 0.9999999 * np.exp(1j * phase)
    assert univalence_margin(1.0, (a,), LEAF2) == pytest.approx(1e-7,
                                                                abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(exps=st.sampled_from([(2,), (3,), (2, 3), (3, 6), (4, 8, 12)]),
       seed=st.integers(0, 2**31 - 1))
def test_margin_matches_golden_section_oracle(exps, seed):
    # each |a_n| is up to 1.5 times its share of the one-mode cusp value
    # r / (s_n - 1), so both univalent and folded maps are drawn
    leaf = Leaf(exps)
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 2.0)
    share = np.array([r / (s - 1) for s in exps]) / len(exps)
    a = share * rng.uniform(0.0, 1.5, len(exps)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, len(exps)))
    got = univalence_margin(r, tuple(a), leaf)
    want = golden_margin(r, tuple(a), leaf)
    scale = r + sum(abs((s - 1) * an) for s, an in zip(exps, a))
    assert abs(abs(got) - abs(want)) <= 1e-13 * scale
    assert np.sign(got) == np.sign(want)


@settings(max_examples=300, deadline=None)
@given(degree=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_schur_cohn_matches_np_roots_on_random_polynomials(degree, seed):
    # the margin's sign test against the moduli of np.roots, on general
    # complex polynomials; draws with a zero within 1e-9 of the circle are
    # left out as ambiguous
    rng = np.random.default_rng(seed)
    # monic, the other coefficients shrunk by a random factor so that a
    # third to a half of the draws at every degree have all zeros inside
    low = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
    coeffs = np.append(1.5 * rng.uniform() ** (degree / 4) * low, 1.0)
    moduli = np.abs(np.roots(coeffs[::-1]))
    if np.min(np.abs(moduli - 1.0)) < 1e-9:
        return
    assert laplacian_growth._zeros_inside(coeffs.tolist()) == bool(
        np.all(moduli < 1.0))


# ---------------------------------------------------------------------------
# injection evolution


def test_initial_state_wires_parameters():
    st = initial_state(ParamPoint(LEAF2, (0.05,), r=1.0))
    assert st.t == 0.0 and st.r == 1.0
    assert st.a == (0.05,)
    assert st.zeta == (0.05,)
    assert st.univalent
    assert st.moments[1].real == pytest.approx(0.025, rel=1e-12)


def _walk(driver, dT, steps):
    """States at T = 0, dT, ..., steps * dT, visited in that order."""
    return [driver.state(i * dT) for i in range(steps + 1)]


def test_evolve_circle_exact_law():
    st = initial_state(ParamPoint(LEAF2, (0.0,), r=1.0))
    states = _walk(MomentDriver(st), 0.25, 8)
    for k, s in enumerate(states):
        assert s.t == pytest.approx(0.25 * k, abs=1e-15)
        assert s.r == pytest.approx(math.sqrt(1.0 + s.t), abs=1e-10)
        assert abs(s.a[0]) < 1e-10


def test_evolve_conserves_contour_moments():
    st = initial_state(ParamPoint(LEAF2, (0.05,), r=1.0))
    states = _walk(MomentDriver(st), 0.5, 4)
    t2_0 = st.moments[1].real
    for s in states:
        assert s.moments[1].real == pytest.approx(t2_0, abs=1e-10)
        assert s.moments[0].real == pytest.approx(st.moments[0].real + s.t,
                                                  abs=1e-9)
    # conserving t_2 = zeta/2 pins the reduced parameter on this leaf,
    # so the coefficient grows in lockstep with the radius
    for s in states:
        assert s.zeta[0] == pytest.approx(0.05, abs=1e-12)
        assert s.a[0].real == pytest.approx(0.05 * s.r, abs=1e-12)
    radii = [s.r for s in states]
    assert radii == sorted(radii)


def test_evolve_flags_nonunivalent_start():
    bad = initial_state(ParamPoint(LEAF2, (1.2,), r=1.0))
    assert not bad.univalent
    with pytest.raises(UnivalenceLost):
        MomentDriver(bad)


# ---------------------------------------------------------------------------
# drivers


def test_moment_driver_random_access_consistency():
    driver = MomentDriver(initial_state(ParamPoint(LEAF2, (0.05,), r=1.0)))
    late = driver.state(1.0)
    early = driver.state(0.4)
    assert early.t == 0.4 and late.t == 1.0
    again = driver.state(1.0)
    assert again is late          # cached, not recomputed
    walked = _walk(MomentDriver(driver.initial), 0.2, 5)[-1]
    assert late.r == pytest.approx(walked.r, abs=1e-10)
    assert driver.state(0.4) is early and driver.state(0.0) is driver.initial


def test_moment_driver_refuses_prehistory():
    driver = MomentDriver(initial_state(ParamPoint(LEAF2, (0.05,), r=1.0)))
    with pytest.raises(ValueError):
        driver.state(-0.5)


def test_slice_driver_scalar_and_radius_laws():
    driver = SliceDriver(LEAF2, lambda t: 0.05 + 0.2 * t)
    st = driver.state(0.5)
    assert st.r == 1.0
    assert st.zeta[0] == pytest.approx(0.15, rel=1e-15)
    assert st.univalence_margin == pytest.approx(0.85, abs=1e-8)


def test_radius_excess_regimes():
    # circle: entire branch
    circ = initial_state(ParamPoint(LEAF2, (0.0,), r=1.0))
    assert math.isinf(radius_excess(circ))
    # deep subcritical: the certified modulus, as near the threshold
    for zeta in (0.01, 0.02):
        st = initial_state(ParamPoint(LEAF2, (zeta,), r=1.0))
        want = 1.0 / (2.0 * math.sqrt(zeta)) - 1.0
        assert radius_excess(st) == pytest.approx(want, rel=1e-10)
    # near threshold: the certified dominant modulus
    st = initial_state(ParamPoint(LEAF2, (0.2,), r=1.0))
    assert radius_excess(st) == pytest.approx(
        1.0 / (2.0 * math.sqrt(0.2)) - 1.0, rel=1e-10)


def test_radius_excess_on_a_gcd_one_leaf():
    # {2,3} at zeta = (0.05, 0.05): the dominant orbit is certified on a
    # leaf whose series has u_1 = 0 structurally
    st = initial_state(ParamPoint(Leaf((2, 3)), (0.05, 0.05), r=1.0))
    assert radius_excess(st) == pytest.approx(0.25, rel=1e-10)


def test_dominant_at_decides_where_two_orbits_share_x_star():
    # at T = 1.5 this {3,6} slice is at zeta = (0.2, 0.002), on the curve
    # zeta_2 = zeta_1^2/20 where two orbits share x_*; the branch meets
    # only the one with lam = 1.4833
    st = SliceDriver(Leaf((3, 6)),
                     lambda t: (0.05 + 0.1 * t, 0.002)).state(1.5)
    dom = laplacian_growth.dominant_at(st)
    assert dom is not None
    assert dom.representative.lam == pytest.approx(1.48328, rel=1e-5)
    assert dom.rho_star == pytest.approx(0.8976811208466182, rel=1e-12)


def test_radius_excess_certifies_far_from_the_threshold():
    # the {4,8,12} point whose least orbit is off the Taylor sheet
    # (test_dominant_data_takes_the_orbit_on_the_taylor_sheet), with
    # zeta_n scaled by c^(s_n): U(x) becomes U(c x), and every modulus is
    # divided by c, here to put the least one at 4.5
    c = 1.053808 / 4.5
    zeta = (0.06031228598119853 - 0.0045747524662346495j,
            0.007960749551171273 - 0.0013335265996104323j,
            -0.00039566520459172064 - 0.000235270918358796j)
    leaf = Leaf((4, 8, 12))
    st = SliceDriver(leaf, lambda t: tuple(
        z * c**k for z, k in zip(zeta, leaf.exponents))).state(0.0)
    moduli = sorted(cp.modulus for cp in solve_characteristic(
        st.param_point()))
    assert moduli[0] == pytest.approx(4.500000007, rel=1e-9)
    assert radius_excess(st) == pytest.approx(3.510055216, rel=1e-9)


# ---------------------------------------------------------------------------
# thresholds


def test_detect_thresholds_on_declared_slice(monkeypatch):
    monkeypatch.setattr(laplacian_growth, "DETECT_STEPS", 16)
    driver = SliceDriver(LEAF2, lambda t: 0.05 + 0.2 * t)
    report = detect_thresholds(driver, 1.2)
    assert report.t_c == pytest.approx(1.0, abs=1e-6)
    assert report.margin_at_tc == pytest.approx(0.75, abs=1e-6)
    assert report.t_univ is None          # zeta stays below 1 on [0, 1.2]
    assert report.separated is True


def test_detect_thresholds_from_zeta_zero():
    # the slice starts at zeta = 0, and t_c = 1.25 lies inside the first
    # of the 64 steps of [0, 100]
    report = detect_thresholds(SliceDriver(LEAF2, lambda t: 0.2 * t), 100.0)
    assert report.t_c == pytest.approx(1.25, abs=1e-6)
    assert report.t_univ == pytest.approx(5.0, abs=1e-6)
    assert report.separated is True


def test_detect_thresholds_none_when_not_reached(monkeypatch):
    monkeypatch.setattr(laplacian_growth, "DETECT_STEPS", 6)
    # the second slice starts past the threshold: no downward crossing
    for zeta0 in (0.05, 0.3):
        driver = SliceDriver(LEAF2, lambda t, z=zeta0: z + 0.01 * t)
        report = detect_thresholds(driver, 1.0)
        assert report.t_c is None and report.t_univ is None
        assert report.margin_at_tc is None and report.separated is None


def test_slice_probe_is_the_state_without_its_moments(monkeypatch):
    driver = SliceDriver(Leaf((3, 6)), lambda t: (0.05 + 0.1 * t, 0.005))
    st = driver.state(0.7)
    monkeypatch.setattr(laplacian_growth, "harmonic_moments",
                        lambda *a, **k: pytest.fail("probe integrated"))
    pr = driver.probe(0.7)
    assert (pr.t, pr.r, pr.a, pr.univalence_margin) \
        == (st.t, st.r, st.a, st.univalence_margin)
    assert len(pr.moments) == 3 and all(cmath.isnan(m) for m in pr.moments)


def test_moment_probe_is_the_cached_state():
    driver = MomentDriver(initial_state(ParamPoint(LEAF2, (0.05,), r=1.0)))
    assert driver.probe(0.5) is driver.state(0.5)


def test_detect_thresholds_inherits_without_changing_the_result(
        monkeypatch):
    # the chained certificates run the rays at the first probe only and
    # give the report of fresh ones, bit for bit
    monkeypatch.setattr(laplacian_growth, "DETECT_STEPS", 16)
    driver = SliceDriver(Leaf((2, 5)), lambda t: (0.05 + 0.1 * t, 0.01))
    rays = []
    ray_value = branch_points._ray_value
    monkeypatch.setattr(branch_points, "_ray_value",
                        lambda p, x: rays.append(x) or ray_value(p, x))
    tracked = detect_thresholds(driver, 1.5)
    assert len(rays) == 1
    # critical_parameter looks dominant_data up in branch_points
    fresh = branch_points.dominant_data
    monkeypatch.setattr(branch_points, "dominant_data",
                        lambda p, near=None: fresh(p))
    rays.clear()
    assert detect_thresholds(driver, 1.5) == tracked
    assert len(rays) > 1                  # the fresh side ran its rays
    assert 0.0 < tracked.t_c < 1.5


def test_geometric_breakdown_after_spectral_threshold():
    # steeper slice: zeta reaches 1 (cusp) at T = 4.75, after T_c = 1
    driver = SliceDriver(LEAF2, lambda t: 0.05 + 0.2 * t)
    margin = driver.state(4.75).univalence_margin
    assert abs(margin) < 1e-8
    assert driver.state(4.8).univalence_margin < 0.0


def test_approach_path_parameterization():
    driver = SliceDriver(LEAF2, lambda t: 0.05 + 0.2 * t)
    path = approach_path(driver, 1.0)
    pt = path(0.25)
    assert pt.leaf == LEAF2
    assert pt.zeta[0] == pytest.approx(0.05 + 0.2 * 0.75, rel=1e-14)
