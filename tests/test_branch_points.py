"""Tests for characteristic solving, radius fitting, and dominance data."""

import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_spectra import (DegenerateSeries, Leaf, NoDominantOrbit,
                          NotBracketed, ParamPoint, amplitude_A,
                          branch_points, critical_parameter, dominant_data,
                          solve_characteristic, taylor_branch)
from toda_spectra._brent import brentq

from char_oracle import characteristic_points
from radius_oracle import radius_estimate, ratio_orbit


def _one_mode(zeta, s=2):
    return ParamPoint(Leaf((s,)), (zeta,))


# ---------------------------------------------------------------------------
# characteristic system


def test_one_mode_closed_form_solutions():
    # s = 2, zeta = 0.2: x_* = +-1/(2 sqrt(zeta)), lambda = 2, one orbit
    # whose representative is the positive point
    pts = solve_characteristic(_one_mode(0.2))
    assert len(pts) == 1
    want = 1.0 / (2.0 * math.sqrt(0.2))
    for cp in pts:
        assert abs(cp.x_star - want) < 1e-12
        assert abs(cp.lam - 2.0) < 1e-12
        assert cp.simple and cp.fold_ok
    moduli = [cp.modulus for cp in pts]
    npt.assert_allclose(moduli, [want], rtol=1e-12)


def test_one_mode_lambda_is_parameter_free():
    for s in (2, 3, 4):
        for zeta in (0.03, 0.1):
            pts = solve_characteristic(_one_mode(zeta, s))
            assert len(pts) == 1
            for cp in pts:
                assert abs(cp.lam - s / (s - 1.0)) < 1e-10


def test_characteristic_sorted_by_modulus_then_phase():
    pts = solve_characteristic(ParamPoint(Leaf((3, 6)), (0.08, 0.01)))
    keys = [(cp.modulus, cmath.phase(cp.x_star) % (2 * math.pi))
            for cp in pts]
    assert keys == sorted(keys)


def test_characteristic_evaluates_each_root_once(monkeypatch):
    # one _char_derivs evaluation per finite orbit, at its representative:
    # its values both filter the root of Q by residual and classify it
    calls = []
    real = branch_points._char_derivs

    def counted(p, x, y):
        calls.append((x, y))
        return real(p, x, y)

    monkeypatch.setattr(branch_points, "_char_derivs", counted)
    pts = solve_characteristic(ParamPoint(Leaf((3, 6)), (0.1, 0.01)))
    assert len(pts) == 2 and len(calls) == 2


def test_characteristic_keeps_an_orbit_near_infinity():
    # the second orbit sits at |x_*| ~ 1.2e5 (lam ~ -1.7e-5), where F_y is
    # a difference of terms of size ~7e5: its residual is read against
    # them, not against 1 + |lam|, and the clean dominant orbit is decided
    point = ParamPoint(Leaf((3, 6)), (0.23991867954375964,
                                      0.014389999008521547))
    pts = solve_characteristic(point)
    assert len(pts) == 2 and pts[1].modulus > 1e5
    assert dominant_data(point).rho_star == pytest.approx(0.82344833,
                                                          rel=1e-8)


def test_characteristic_rejects_zero_point():
    with pytest.raises(ValueError):
        solve_characteristic(_one_mode(0.0))


def test_kappa_branch_convention():
    for cp in solve_characteristic(_one_mode(0.2)):
        assert cp.kappa.real > 0 or (cp.kappa.real == 0
                                     and cp.kappa.imag >= 0)


def test_z_star_is_not_exposed():
    cp = solve_characteristic(_one_mode(0.2))[0]
    with pytest.raises(AttributeError):
        cp.z_star


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       exps=st.sampled_from([(2,), (3,), (3, 6), (4, 8, 12), (2, 3), (2, 5)]),
       phases=st.booleans())
def test_orbits_expand_to_the_per_point_solve(data, exps, phases):
    # each orbit's s rotations of its representative are, as a set, the
    # points the per-point P(u) solve finds one by one, with the same lam,
    # kappa and flags: the members of an orbit share them
    leaf = Leaf(exps)
    point = ParamPoint(leaf, data.draw(_zetas(leaf, 0.02, 0.5,
                                              phases=phases)))
    s = leaf.s
    members = [(cp.x_star * cmath.exp(2j * math.pi * k / s), cp)
               for cp in solve_characteristic(point) for k in range(s)]
    want = characteristic_points(point)
    assert len(members) == len(want)
    for o in want:
        # paired on x_* and lam both: two orbits may share x_*
        x, cp = members.pop(min(
            range(len(members)),
            key=lambda i: abs(members[i][0] - o.x_star) / o.modulus
            + abs(members[i][1].lam - o.lam) / abs(o.lam)))
        assert _close(x, o.x_star) and _close(cp.lam, o.lam)
        # Re kappa >= 0 fixes kappa's sign only where Re kappa is resolved
        assert _close(cp.kappa, o.kappa) or (
            _close(cp.kappa, -o.kappa)
            and abs(o.kappa.real) <= 1e-12 * abs(o.kappa))
        assert (cp.simple, cp.fold_ok) == (o.simple, o.fold_ok)


def test_far_orbit_kappa_is_as_accurate_as_lam():
    # an orbit at |x_*| ~ 565 with |lam| ~ 2.5e-3: summed, x F_x cancels
    # to lam from terms of size ~1 and put ~5e-12 into kappa; lam itself
    # and x_* agree to ~5e-14 between the orbit and per-point solves
    exps = (4, 8, 12)
    rot = cmath.exp(1.5j)
    point = ParamPoint(Leaf(exps), (0.25 * rot, 0.0625, 0.015625 * rot))
    far = solve_characteristic(point)[-1]
    assert far.modulus > 500 and abs(far.lam) < 3e-3
    for o in characteristic_points(point):
        if abs(o.modulus - far.modulus) < 1e-9 * far.modulus:
            assert _close(far.lam, o.lam, rel=1e-13)
            assert _close(far.kappa, o.kappa, rel=2e-13)


# ---------------------------------------------------------------------------
# radius from coefficients


def test_radius_estimate_recovers_known_radius():
    zeta = 0.1
    u = taylor_branch(_one_mode(zeta), 300)
    rho_hat, exponent = radius_estimate(u, 2)
    assert abs(rho_hat - 1.0 / (2.0 * math.sqrt(zeta))) < 2e-4
    assert abs(exponent + 1.5) < 0.05


def test_radius_estimate_two_mode_leaf():
    point = ParamPoint(Leaf((3, 6)), (0.09, 0.01))
    u = taylor_branch(point, 300)
    rho_hat, exponent = radius_estimate(u, 3)
    rho_true = min(cp.modulus for cp in solve_characteristic(point))
    assert abs(rho_hat - rho_true) / rho_true < 1e-3
    assert abs(exponent + 1.5) < 0.1


def test_radius_estimate_needs_enough_orders():
    u = taylor_branch(_one_mode(0.1), 40)
    with pytest.raises(ValueError):
        radius_estimate(u, 2)


def test_radius_estimate_flags_vanishing_coefficients():
    coeffs = np.ones(101)
    coeffs[7] = 0.0
    with pytest.raises(DegenerateSeries) as exc:
        radius_estimate(coeffs, 1)
    assert exc.value.first_zero_index == 7


# ---------------------------------------------------------------------------
# dominance data


def test_dominant_data_one_mode():
    dom = dominant_data(_one_mode(0.2))
    assert dom.s == 2 and len(solve_characteristic(_one_mode(0.2))) == 1
    npt.assert_allclose(dom.rho_star, 1.0 / (2.0 * math.sqrt(0.2)),
                        rtol=1e-12)
    # the Taylor coefficients are positive, so U rises to lam along the
    # positive axis: U = lam - |kappa| sqrt(1 - x/x_*) + ...
    assert dom.representative.kappa.real < 0
    assert abs(dom.phi) < 1e-10          # z_* on the positive axis
    assert math.isinf(dom.separation)    # single orbit
    # representative sits in the fundamental phase sector [0, 2 pi / s)
    assert 0.0 <= cmath.phase(dom.representative.x_star) % (2 * math.pi) \
        < 2 * math.pi / dom.s + 1e-12


def test_dominant_data_two_mode_orbit_size():
    point = ParamPoint(Leaf((3, 6)), (0.08, 0.01))
    dom = dominant_data(point)
    assert len(solve_characteristic(point)) == 2 and dom.s == 3
    assert dom.separation > 0.0


def test_amplitude_formula_hand_value():
    # A_1 = -(s^(-1/2) / (2 sqrt(pi))) * kappa for p = 1, any lambda
    got = amplitude_A(2, 3.0 + 0.0j, 2.0, 1)
    want = -(1.0 / math.sqrt(2.0)) / (2.0 * math.sqrt(math.pi)) * 3.0
    npt.assert_allclose(got, want, rtol=1e-14)
    # the lambda power enters as lambda**(p-1)
    npt.assert_allclose(amplitude_A(2, 3.0, 2.0, 4),
                        amplitude_A(2, 3.0, 2.0, 1) * 4.0 * 2.0**3,
                        rtol=1e-14)


def test_dominant_data_takes_the_orbit_on_the_taylor_sheet():
    # the least orbit, 1.0538080, is 2.2e-3 from the ratio fit's radius,
    # within its 5e-3 window, but the branch continued toward it stays
    # 2.3 |kappa| from its lam: it is off the Taylor sheet.  The fit itself
    # converges to the next orbit (1.0561627278 at order 2000)
    point = ParamPoint(Leaf((4, 8, 12)), (
        0.06031228598119853 - 0.0045747524662346495j,
        0.007960749551171273 - 0.0013335265996104323j,
        -0.00039566520459172064 - 0.000235270918358796j))
    moduli = sorted(cp.modulus for cp in solve_characteristic(point))
    assert moduli[0] == pytest.approx(1.0538080, rel=1e-7)
    dom = dominant_data(point)
    assert dom.rho_star == pytest.approx(1.0561627261, rel=1e-9)
    assert 0.0 < dom.separation


def test_dominant_data_decides_gcd_one_leaves():
    # on {2,3} the series in z = x has u_1 = 0 structurally; the
    # continuation needs no coefficients.  P(u) = 1 - 0.05 u^2 - 0.1 u^3
    # has the root u = 2, so lam = 1.6 and x_* = 1.25
    point = ParamPoint(Leaf((2, 3)), (0.05, 0.05))
    dom = dominant_data(point)
    assert dom.s == 1 and len(solve_characteristic(point)) == 3
    assert dom.rho_star == pytest.approx(1.25, rel=1e-12)
    assert dom.representative.lam == pytest.approx(1.6, rel=1e-12)
    assert dom.representative.kappa.real < 0


def test_dominant_data_refuses_a_tie_on_the_sheet():
    # zeta_1 = 0 makes U a series in x^3: the three points x_* = u/1.5,
    # u^3 = 10, are all on the sheet but, on {2,3}, separate orbits
    with pytest.raises(NoDominantOrbit, match="share the dominant modulus"):
        dominant_data(ParamPoint(Leaf((2, 3)), (0.0, 0.05)))


def test_dominant_data_refuses_when_the_continuation_stalls(monkeypatch):
    # a predictor test no step can pass halves the step to RAY_STEP_MIN
    monkeypatch.setattr(branch_points, "RAY_ALPHA", 0.0)
    with pytest.raises(NoDominantOrbit, match="stalled"):
        dominant_data(_one_mode(0.2))


def _zetas(leaf, lo, hi, phases=True):
    """zeta_n = r_n^(s_n/2) e^{i theta_n}, r_n in [lo, hi]: sizes that put
    rho_* near 1 on every leaf."""
    scale = st.floats(lo, hi)
    phase = (st.floats(-math.pi, math.pi) if phases
             else st.just(0.0))
    return st.tuples(*[st.builds(lambda r, t, e=e: r ** (e / 2)
                                 * cmath.exp(1j * t), scale, phase)
                       for e in leaf.exponents])


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       exps=st.sampled_from([(2,), (3,), (3, 6), (4, 8, 12)]))
def test_dominant_data_agrees_with_the_ratio_fit(data, exps):
    # wherever the ratio fit names one orbit, the continuation picks the
    # same orbit and the same sign of kappa
    leaf = Leaf(exps)
    point = ParamPoint(leaf, data.draw(_zetas(leaf, 0.05, 0.4)))
    want = ratio_orbit(point)
    if want is None:
        return
    dom = dominant_data(point)
    kappa = dom.representative.kappa
    sign = 1 if (kappa.real, kappa.imag) >= (0.0, 0.0) else -1
    assert (dom.rho_star, sign) == want


def test_dominant_data_passes_a_non_simple_orbit_its_ray_misses():
    # the tiny zeta_3 puts a non-simple orbit at x_* = 3.9e-9, lam = 8.0e9
    # below the dominant one: the branch stays near 1 along its ray, so it
    # does not block the orbit at 0.9705123 that the ratio fit names
    point = ParamPoint(Leaf((4, 8, 12)), (0.0625, 0.02520233765244484,
                                          1.7148270359257367e-08))
    least = min(solve_characteristic(point), key=lambda c: c.modulus)
    assert not least.simple and abs(least.lam) > 1e9
    dom = dominant_data(point)
    assert dom.rank == 1
    assert (dom.rho_star, -1) == ratio_orbit(point)
    assert dom.representative.kappa.real < 0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), exps=st.sampled_from([(2, 3), (2, 5)]))
def test_dominant_data_always_decides_gcd_one_leaves(data, exps):
    # positive coefficients put the dominant point alone on the positive
    # axis (Pringsheim), which the ratio fit cannot reach on these leaves
    leaf = Leaf(exps)
    point = ParamPoint(leaf, data.draw(_zetas(leaf, 0.05, 0.4,
                                              phases=False)))
    dom = dominant_data(point)
    x = dom.representative.x_star
    assert abs(x.imag) <= 1e-12 * abs(x) and x.real > 0


def test_dominant_data_splits_orbits_that_share_x_star(monkeypatch):
    # along zeta_2 = zeta_1^2/20 on {3,6} two orbits share x_*, here with
    # lam = 1.4833 and lam = -3.8833: one ray serves both, it meets the
    # first and misses the second by |w| = 373, so the tie is no refusal
    point = ParamPoint(Leaf((3, 6)), (0.2, 0.002))
    orbits = solve_characteristic(point)
    assert len(orbits) == 2
    assert orbits[0].modulus == pytest.approx(orbits[1].modulus, rel=1e-15)
    rays = []
    ray_value = branch_points._ray_value
    monkeypatch.setattr(branch_points, "_ray_value",
                        lambda p, x: rays.append(x) or ray_value(p, x))
    dom = dominant_data(point)
    assert len(rays) == 1
    assert dom.representative.lam == pytest.approx(1.48328, rel=1e-5)
    want = 0.8976811208466182
    assert abs(dom.rho_star - want) <= 4 * np.spacing(want)


def _tracked_and_fresh(path, steps):
    """(fresh, tracked) per point of ``path``: its certification without
    ``near`` and with the previous tracked data as ``near``, each a
    DominantData or the exception raised.  The tracked chain restarts
    after a failure, as callers do."""
    out, near = [], None
    for t in np.linspace(0.0, 1.0, steps):
        point = path(float(t))
        pair = []
        for kwargs in ({}, {"near": near}):
            try:
                pair.append(dominant_data(point, **kwargs))
            except NoDominantOrbit as exc:
                pair.append(exc)
        near = pair[1] if not isinstance(pair[1], Exception) else None
        out.append(tuple(pair))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       exps=st.sampled_from([(2,), (3,), (3, 6), (4, 8, 12), (2, 5)]),
       phases=st.booleans())
def test_dominant_data_near_agrees_with_fresh_certification(data, exps,
                                                             phases):
    # along a straight path between two random points, the inherited
    # certificate gives the fresh one bit for bit, or both refuse
    leaf = Leaf(exps)
    z0, z1 = (data.draw(_zetas(leaf, 0.02, 0.5, phases=phases))
              for _ in range(2))
    path = lambda t: ParamPoint(leaf, tuple(a + t * (b - a)
                                            for a, b in zip(z0, z1)))
    for fresh, tracked in _tracked_and_fresh(path, 24):
        if isinstance(fresh, Exception):
            assert isinstance(tracked, Exception)
        else:
            assert tracked == fresh


def test_dominant_data_near_keeps_the_orbit_on_the_taylor_sheet(
        monkeypatch):
    # the {4,8,12} point whose least orbit is off the sheet, with zeta_n
    # scaled by c^(s_n): U(x) becomes U(c x), every modulus is divided by
    # c and the gaps stay put, so the certificate is inherited all along
    zeta = (0.06031228598119853 - 0.0045747524662346495j,
            0.007960749551171273 - 0.0013335265996104323j,
            -0.00039566520459172064 - 0.000235270918358796j)
    leaf = Leaf((4, 8, 12))
    rays = []
    ray_value = branch_points._ray_value
    monkeypatch.setattr(branch_points, "_ray_value",
                        lambda p, x: rays.append(x) or ray_value(p, x))
    near = None
    for c in np.linspace(0.9, 1.1, 21):
        point = ParamPoint(leaf, tuple(z * c**k for z, k
                                       in zip(zeta, leaf.exponents)))
        near = dominant_data(point, near=near)
        assert near.rank == 1
        assert near.rho_star == pytest.approx(1.0561627261 / c, rel=1e-9)
        if c == 0.9:
            assert len(rays) == 2        # off the sheet, then on it
    assert len(rays) == 2


def test_dominant_data_near_recertifies_where_orbits_cross(monkeypatch):
    # a complex {3,6} path on which the two orbits' moduli cross at
    # t = 0.35 ... 0.375 and dominance passes from one to the other: the
    # gap rule stops the inheritance around the crossing, the rays decide
    # there, and every step agrees with a fresh certification
    leaf = Leaf((3, 6))
    z0, z1 = (0.054 - 0.1389j, 0.0265 + 0.068j), (0.0772 + 0.0422j,
                                                  -0.02 + 0.0224j)
    path = lambda t: ParamPoint(leaf, tuple(a + t * (b - a)
                                            for a, b in zip(z0, z1)))
    steps = list(_tracked_and_fresh(path, 41))
    assert all(tracked == fresh for fresh, tracked in steps)
    before, after = steps[14][0], steps[15][0]
    z_before, z_after = (d.representative.x_star**3 for d in (before, after))
    assert abs(z_after - z_before) > 3 * 0.1 * abs(z_before)
    rays = []
    ray_value = branch_points._ray_value
    monkeypatch.setattr(branch_points, "_ray_value",
                        lambda p, x: rays.append(x) or ray_value(p, x))
    ts = np.linspace(0.0, 1.0, 41)
    assert dominant_data(path(float(ts[15])), near=steps[14][1]) == after
    assert rays
    rays.clear()
    assert dominant_data(path(float(ts[2])), near=steps[1][1]) == steps[2][0]
    assert not rays


def test_radius_estimate_exponent_discriminates():
    # a geometric series has exponent 0, not the square-root value -3/2
    geom = 0.5 ** np.arange(121)
    rho_hat, exponent = radius_estimate(geom, 1)
    assert abs(rho_hat - 2.0) < 1e-6
    assert abs(exponent) < 0.05


# ---------------------------------------------------------------------------
# the critical parameter


@pytest.mark.parametrize("s,zc", [(2, 0.25), (3, 4.0 / 27.0)])
def test_critical_parameter_one_mode(s, zc):
    path = (lambda t: _one_mode(t, s))
    got = critical_parameter(path, 0.5 * zc, 1.4 * zc)
    assert abs(got - zc) < 1e-10


def test_critical_parameter_from_zeta_zero():
    # rho_* - 1 = +inf at zeta = 0, and the crossing at 1/4 lies inside the
    # first step of [0, 5]
    path = lambda t: None if t == 0 else _one_mode(t)
    assert abs(critical_parameter(path, 0.0, 5.0) - 0.25) < 1e-10


def test_critical_parameter_needs_a_bracket():
    # rho_* - 1 > 0 all over the first interval and < 0 all over the
    # second: neither holds a downward crossing, and t_lo is not one
    for lo, hi in ((0.01, 0.05), (0.3, 0.5)):
        with pytest.raises(NotBracketed):
            critical_parameter(lambda t: _one_mode(t), lo, hi)


def test_critical_parameter_takes_the_orbit_that_becomes_dominant():
    # on this {3,6} path dominance passes to the other orbit near t = 0.36;
    # the orbit dominant at t = 0.34 stays above the unit circle, while
    # the certified rho_* falls through 1 between t = 0.95 and 0.975
    leaf = Leaf((3, 6))
    z0, z1 = (0.054 - 0.1389j, 0.0265 + 0.068j), (0.0772 + 0.0422j,
                                                  -0.02 + 0.0224j)
    path = lambda t: ParamPoint(leaf, tuple(a + t * (b - a)
                                            for a, b in zip(z0, z1)))
    t = critical_parameter(path, 0.34, 1.0)
    assert 0.95 < t < 0.975
    assert abs(dominant_data(path(t)).rho_star - 1.0) < 1e-12


def _fresh_excess(point):
    try:
        return dominant_data(point).rho_star - 1.0
    except NoDominantOrbit:
        return None


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       exps=st.sampled_from([(2,), (3,), (3, 6), (4, 8, 12), (2, 5)]),
       phases=st.booleans())
def test_critical_parameter_agrees_with_a_dense_fresh_march(data, exps,
                                                            phases):
    # from a random subcritical point toward a random supercritical one:
    # where fresh certifications on a grid 8 times finer, which holds the
    # routine's grid, fall through 0 once and refuse nowhere, the crossing
    # is theirs to within xtol; where the routine refuses a point, a fresh
    # certification refuses it too
    leaf = Leaf(exps)
    z0 = data.draw(_zetas(leaf, 0.02, 0.15, phases=phases))
    z1 = data.draw(_zetas(leaf, 0.3, 0.6, phases=phases))
    path = lambda t: ParamPoint(leaf, tuple(a + t * (b - a)
                                            for a, b in zip(z0, z1)))
    asked = []
    try:
        got = critical_parameter(lambda t: asked.append(t) or path(t),
                                 0.0, 1.0)
    except NoDominantOrbit:
        assert _fresh_excess(path(asked[-1])) is None
        return
    except NotBracketed:
        got = None
    if got is not None:
        assert abs(_fresh_excess(path(got))) < 1e-9
    ts = np.linspace(0.0, 1.0, 8 * branch_points.CRIT_STEPS + 1)
    fresh = [_fresh_excess(path(float(t))) for t in ts]
    if None in fresh:
        return
    signs = np.sign(fresh)
    if not (signs[0] > 0 > signs[-1]
            and np.count_nonzero(np.diff(signs)) == 1):
        return
    j = int(np.flatnonzero(np.diff(signs))[0])
    try:
        want = brentq(lambda t: dominant_data(path(t)).rho_star - 1.0,
                      ts[j], ts[j + 1], xtol=branch_points.CRIT_XTOL)
    except NoDominantOrbit:
        return
    assert got is not None
    assert abs(got - want) <= 2.0 * (branch_points.CRIT_XTOL
                                     + 4.0 * np.finfo(float).eps)
