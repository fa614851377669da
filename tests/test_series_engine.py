"""Unit tests for the truncated-series engine."""

import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toda_spectra import (CirclePowerTable, GridTooLarge, Leaf, NoConvergence,
                          ParamPoint, RenormConfig, TailNotConverged,
                          WrongSheet, branch_power_rows,
                          check_alpha_admissible, critical_parameter,
                          dominant_data, gram_block, taylor_branch)
from toda_spectra import series_engine
from toda_spectra.series_engine import _branch_values, _circle_nodes

from loop_oracle import horner_values, power_rows_loop
from ramp_oracle import ramp_branch_values
from recursion_oracle import (functional_residual, raney_oracle,
                              recursion_branch, taylor_branch_x_grid)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


# ---------------------------------------------------------------------------
# leaf / point containers


def test_leaf_gcd_and_collapse():
    leaf = Leaf((3, 6))
    assert leaf.s == 3
    assert leaf.collapsed_shifts == (1, 2)
    assert Leaf((2,)).s == 2
    assert Leaf((4, 6)).s == 2
    assert Leaf((4, 6)).collapsed_shifts == (2, 3)


@pytest.mark.parametrize("bad", [(), (1,), (0, 2), (3, 3), (6, 3)])
def test_leaf_rejects_invalid_exponents(bad):
    with pytest.raises(ValueError):
        Leaf(bad)


def test_param_point_arity_check():
    with pytest.raises(ValueError):
        ParamPoint(Leaf((2, 4)), (0.1,))


def test_param_point_is_zero():
    leaf = Leaf((2,))
    assert ParamPoint(leaf, (0.0,)).is_zero()
    assert not ParamPoint(leaf, (1e-3,)).is_zero()


# ---------------------------------------------------------------------------
# Taylor branch


def test_branch_hand_coefficients_one_mode():
    # U = 1 + zeta z U^2 gives the Catalan generating function in zeta*z.
    zeta = 0.3
    u = taylor_branch(ParamPoint(Leaf((2,)), (zeta,)), 9)
    want = np.array([c * zeta**m for m, c in enumerate(CATALAN)])
    npt.assert_allclose(u.real, want, rtol=1e-13)
    assert np.abs(u.imag).max() == 0.0


def test_branch_hand_coefficients_two_mode():
    # {3,6}: u_1 = zeta_1, u_2 = 3 zeta_1^2 + zeta_2.
    z1, z2 = 0.07, 0.01
    u = taylor_branch(ParamPoint(Leaf((3, 6)), (z1, z2)), 2)
    npt.assert_allclose(u.real, [1.0, z1, 3 * z1**2 + z2], rtol=1e-14)


def test_branch_zero_parameters_is_constant_one():
    u = taylor_branch(ParamPoint(Leaf((3, 6)), (0.0, 0.0)), 12)
    npt.assert_array_equal(u, np.eye(13)[0])


def test_branch_rejects_negative_order():
    with pytest.raises(ValueError):
        taylor_branch(ParamPoint(Leaf((2,)), (0.1,)), -1)


def test_branch_order_ceiling():
    p = ParamPoint(Leaf((2,)), (0.1,))
    top = series_engine.MAX_ORDER
    assert len(taylor_branch(p, top)) == top + 1
    with pytest.raises(ValueError, match="order"):
        taylor_branch(p, top + 1)


def test_x_grid_recursion_vanishes_off_lattice():
    """In the x variable, only exponents divisible by s survive."""
    leaf = Leaf((4, 6))  # s = 2
    coeffs = taylor_branch_x_grid(ParamPoint(leaf, (0.1, 0.05)), 20)
    assert np.abs(coeffs[1::2]).max() == 0.0
    collapsed = taylor_branch(ParamPoint(leaf, (0.1, 0.05)), 10)
    npt.assert_allclose(coeffs[::2], collapsed, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    exps=st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_branch_satisfies_functional_equation(exps, seed):
    leaf = Leaf(tuple(sorted(exps)))
    rng = np.random.default_rng(seed)
    zeta = tuple(rng.uniform(-0.2, 0.2, len(exps)))
    u = taylor_branch(ParamPoint(leaf, zeta), 40)
    assert functional_residual(ParamPoint(leaf, zeta), u) < 1e-12


def test_functional_residual_flags_wrong_series():
    p = ParamPoint(Leaf((2,)), (0.2,))
    u = taylor_branch(p, 25)
    wrong = u + 1e-3
    assert functional_residual(p, wrong) > 1e-5


@settings(max_examples=40, deadline=None)
@given(
    exps=st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True),
    orders=st.lists(st.integers(0, 600), min_size=2, max_size=2, unique=True),
    complex_zeta=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_newton_branch_matches_recursion_oracle(exps, orders, complex_zeta,
                                                seed):
    # each |zeta_n| is 0.35..0.6 of the one-mode critical value
    # (k-1)^(k-1)/k^k, so that at order 600 the coefficients neither
    # underflow nor overflow
    leaf = Leaf(tuple(sorted(exps)))
    rng = np.random.default_rng(seed)
    crit = np.array([(k - 1) ** (k - 1) / k**k for k in leaf.exponents])
    zeta = rng.uniform(0.35, 0.6, len(exps)) * crit * rng.choice([-1, 1],
                                                                   len(exps))
    if complex_zeta:
        zeta = zeta * np.exp(1j * rng.uniform(-np.pi, np.pi, len(exps)))
    point = ParamPoint(leaf, tuple(zeta))
    lo, hi = sorted(orders)
    got = taylor_branch(point, hi)
    assert got.dtype == np.complex128 and got.shape == (hi + 1,)
    want = recursion_branch(point, hi)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    npt.assert_array_equal(got == 0, want == 0)
    npt.assert_array_equal(taylor_branch(point, lo), got[: lo + 1])
    if not complex_zeta:
        assert not got.imag.any()
    zero = taylor_branch(ParamPoint(leaf, (0.0,) * len(exps)), hi)
    npt.assert_array_equal(zero, np.eye(hi + 1)[0])


def test_newton_branch_matches_raney_near_criticality():
    zeta = 0.2499
    got = taylor_branch(ParamPoint(Leaf((2,)), (zeta,)), 250)
    want = np.array([float(raney_oracle(2, 1, m) * Fraction(zeta) ** m)
                     for m in range(251)])
    assert not got.imag.any()
    npt.assert_allclose(got.real, want, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# powers and the exact one-mode coefficients


def test_raney_oracle_catalan_row():
    for m, c in enumerate(CATALAN):
        assert raney_oracle(2, 1, m) == c


def test_raney_oracle_closed_form():
    for s in (2, 3, 5):
        for p in (1, 2, 7):
            for m in (0, 1, 4, 11):
                n = s * m + p
                assert raney_oracle(s, p, m) == Fraction(
                    p * math.comb(n, m), n)


def test_raney_oracle_rejects_bad_arguments():
    for args in [(1, 1, 0), (2, 0, 0), (2, 1, -1)]:
        with pytest.raises(ValueError):
            raney_oracle(*args)


def test_powers_table_matches_oracle():
    zeta = 0.12
    rows = branch_power_rows(ParamPoint(Leaf((3,)), (zeta,)), [1, 3, 6], 18)
    for row, p in zip(rows, (1, 3, 6)):
        want = [float(raney_oracle(3, p, m)) * zeta**m for m in range(19)]
        npt.assert_allclose(row.real, want, rtol=1e-12)


def test_deep_power_rows_match_oracle():
    # at this depth an FFT product's absolute rounding would swamp the
    # decaying coefficients (R_2 off by 1e85 relative from m = 76 on)
    zeta, order = 0.2, 1100
    rows = branch_power_rows(ParamPoint(Leaf((2,)), (zeta,)), [1, 2], order)
    for row, p in zip(rows, (1, 2)):
        want = [float(raney_oracle(2, p, m) * Fraction(zeta) ** m)
                for m in range(order + 1)]
        npt.assert_allclose(row.real, want, rtol=1e-12, atol=0)


def test_powers_table_scaling_round_trip():
    point = ParamPoint(Leaf((2,)), (0.2,))
    plain = branch_power_rows(point, [1, 2, 3, 4], 30)
    scaled = branch_power_rows(point, [1, 2, 3, 4], 30, alpha=2.0)
    for i, p in enumerate(range(1, 5)):
        npt.assert_allclose(scaled[i] * 2.0**p, plain[i], rtol=1e-13)


def test_powers_table_is_multiplicative():
    rows = branch_power_rows(ParamPoint(Leaf((2, 6)), (0.1, 0.02)),
                             [2, 3, 5], 24)
    conv = np.convolve(rows[0], rows[1])[:25]
    npt.assert_allclose(rows[2], conv, rtol=1e-12)


# ---------------------------------------------------------------------------
# circle-sampled rows


@pytest.mark.parametrize("zeta", [0.2, 0.2 * np.exp(0.3j)],
                         ids=["real_mirrored", "complex_full"])
@pytest.mark.parametrize("n", [4096, 513])
def test_circle_values_match_one_mode_closed_form(zeta, n):
    # U = 1 + zeta z U^2 on the leaf {2}: U = (1 - sqrt(1 - 4 zeta z))/(2 zeta z)
    point = ParamPoint(Leaf((2,)), (zeta,))
    assert point.is_real() == (np.imag(zeta) == 0)
    z = np.exp(2j * np.pi * np.arange(n) / n)
    want = (1.0 - np.sqrt(1.0 - 4.0 * zeta * z)) / (2.0 * zeta * z)
    got, _ = _branch_values(point, z, taylor_branch(point, 250))
    npt.assert_allclose(got, want, rtol=0, atol=1e-13)
    if point.is_real():
        # node n-k mirrors node k, which is why a real table holds only
        # the closed half-circle
        npt.assert_allclose(got[:0:-1], np.conj(got[1:]), rtol=0, atol=1e-13)


def test_complex_circle_samples_mirror_exactly():
    # U_zeta(conj z) = conj U_conj(zeta)(z): with every angle reduced to
    # (-pi, pi], sample N-k sits at exactly the conjugate angle of sample k
    zeta = 0.2499 * np.exp(0.3j)
    n = 65536
    leaf = Leaf((2,))
    k = np.arange(n)
    point = ParamPoint(leaf, (zeta,))
    dom = dominant_data(point)
    series = taylor_branch(point, 250)
    # the mirror point gets the mirror image of the seeds, so that any
    # difference comes from the nodes
    rep = dom.representative
    mirror = dataclasses.replace(
        dom, phi=-dom.phi,
        representative=dataclasses.replace(
            rep, x_star=np.conj(rep.x_star), lam=np.conj(rep.lam),
            kappa=np.conj(rep.kappa)))
    z = _circle_nodes(k, n)[0]
    u, _ = _branch_values(point, z, series, dom)
    v, _ = _branch_values(ParamPoint(leaf, (np.conj(zeta),)), z,
                          np.conj(series), mirror)
    assert np.abs(u[(n - k) % n] - np.conj(v)).max() <= 1e-15


def test_circle_table_refuses_grid_over_ceiling(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("grid evaluated past the ceiling")

    monkeypatch.setattr(series_engine, "MAX_CIRCLE_GRID", 4096)
    monkeypatch.setattr(series_engine, "_branch_values", never)
    with pytest.raises(GridTooLarge, match="8192"):
        CirclePowerTable(ParamPoint(Leaf((2,)), (0.2,)), 2048)


@pytest.mark.parametrize("z", [1.3, 1.26])
def test_circle_newton_stall_is_no_convergence(z):
    # past z_* = 1/(4 zeta) = 1.25 the one-mode equation
    # y = 1 + zeta z y^2 has no real root, so Newton from the real Taylor
    # seed stays on the real axis and never settles
    point = ParamPoint(Leaf((2,)), (0.2,))
    with pytest.raises(NoConvergence, match="Newton stalled"):
        series_engine._branch_values(point, np.array([complex(z)]),
                                     taylor_branch(point, 250))


# one-mode points 1e-5 below the critical |zeta| = 1/4, whose tables double
# at least once; the singularity of U = (1 - sqrt(1 - 4 zeta z))/(2 zeta z) is
# z_* = 1/(4 zeta), on the positive axis, the negative axis, or rotated off
# both
GRADED = [0.25 * (1.0 - 1e-5) * f for f in (1.0, -1.0, np.exp(0.3j))]
GRADED_IDS = ["real_plus", "real_minus", "complex"]


def _seeded_table(point, accept=None):
    # the scan's table: graded on the dominant point and seeded by the
    # order-250 Taylor series
    return CirclePowerTable(point, 0, dominant_data(point), accept,
                            series=taylor_branch(point, 250))


def _full_circle(table, x):
    # x at the table's held nodes, extended to all n_grid nodes: for real
    # zeta node n-k is the conjugate of node k
    return np.concatenate((x, np.conj(x[-2:0:-1]))) if table.half else x


def _full_circle_table(table):
    # a real-zeta table's rule over all n_grid nodes: nodes and weights
    # |dz/dw|/n of the whole grid, values and z U'/U rebuilt by conjugation
    n = table.n_grid
    full = copy.copy(table)
    full.half = False
    full.z, weight = _circle_nodes(np.arange(n), n, table.depth, table.rot)
    full.weight = weight / n
    full.values = _full_circle(table, table.values)
    full.zdlog = _full_circle(table, table.zdlog)
    return full


@pytest.mark.parametrize("zeta", GRADED, ids=GRADED_IDS)
def test_graded_table_matches_one_mode_closed_form(zeta):
    point = ParamPoint(Leaf((2,)), (zeta,))
    table = _seeded_table(point)
    assert 0.0 < table.depth < 0.2 and table.n_grid > series_engine.N_START
    z = table.z
    npt.assert_allclose(np.abs(z), 1.0, rtol=0, atol=1e-15)
    want = (1.0 - np.sqrt(1.0 - 4.0 * zeta * z)) / (2.0 * zeta * z)
    npt.assert_allclose(table.values, want, rtol=0, atol=1e-12)
    # z U'/U of the closed form, U' = zeta U^2 / (1 - 2 zeta z U)
    zu = zeta * z * want
    npt.assert_allclose(table.zdlog, zu / (1.0 - 2.0 * zu), rtol=1e-10)
    # the nodes crowd toward z_*, and the weights sum to one
    z = _full_circle(table, z)
    assert len(z) == table.n_grid
    near = np.abs(z - z[0]) < 0.1
    assert near.mean() > 0.3
    assert table.weight.sum() == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("zeta, graded", [
    (GRADED[0], True), (GRADED[2], True), (0.1, False),
    (0.1 * np.exp(0.4j), False)],
    ids=["graded_real", "graded_complex", "uniform_real", "uniform_complex"])
def test_table_is_the_trapezoid_rule_in_w(zeta, graded):
    # the held nodes and weights are the n-point trapezoid rule in w,
    # pulled back by the grading map z = rot (w + c)/(1 + c w), c = 1 - d
    # (w = z/rot on a uniform table): sum_k weight_k |dw/dz|_k w_k^m is 1
    # for m = 0 and 0 for 0 < |m| < n/2 (the real part on a half table).
    # On a uniform table that is sum_k weight_k z_k^m.  On a graded one
    # z^m itself spans about 2m/d powers of w, and its sum is off by the
    # rule's quadrature error
    point = ParamPoint(Leaf((2,)), (zeta,))
    if graded:
        table = _seeded_table(point)
        assert table.depth < 1.0
    else:
        table = CirclePowerTable(point, 0)
        assert table.depth == 1.0
    n, c = table.n_grid, 1.0 - table.depth
    assert len(table.z) == (n // 2 + 1 if table.half else n)
    assert table.weight.sum() == pytest.approx(1.0, rel=1e-13)
    x = table.z / table.rot
    w = (x - c) / (1.0 - c * x)
    dwdz = (1.0 - c * c) / np.abs(1.0 - c * x) ** 2
    m = np.arange(1, n // 2)
    sums = np.exp(1j * np.outer(m, np.angle(w))) @ (table.weight * dwdz)
    if table.half:
        sums = sums.real
    assert np.abs(sums).max() <= 1e-12
    if not graded:
        npt.assert_allclose(w, table.z, rtol=0, atol=1e-15)


@pytest.mark.parametrize("zeta", GRADED, ids=GRADED_IDS)
def test_graded_table_doubles_on_nested_nodes(zeta):
    point = ParamPoint(Leaf((2,)), (zeta,))
    levels = []

    def reject_first(table):
        levels.append(table.values.copy())
        if len(levels) == 1:
            raise TailNotConverged("one more doubling")

    first = _seeded_table(point)
    table = _seeded_table(point, reject_first)
    assert table.n_grid == 2 * first.n_grid
    assert table.doublings == first.doublings + 1
    npt.assert_array_equal(levels[0], first.values)
    npt.assert_array_equal(levels[1][0::2], levels[0])


@pytest.fixture(scope="module")
def leaf36_critical():
    """zeta_1 at which the {3,6} leaf with zeta_2 = 0.01 turns critical."""
    ray = lambda t: ParamPoint(LEAF36, (t, 0.01))
    return critical_parameter(ray, 0.05, 0.2)


LEAF36 = Leaf((3, 6))


def _assert_matches_ramp(point, table):
    want = ramp_branch_values(point, table.z)
    assert (np.abs(table.values - want).max()
            <= 1e-13 * (1.0 + np.abs(want).max()))


@pytest.mark.parametrize("zeta", GRADED, ids=GRADED_IDS)
def test_seeded_graded_table_matches_ramp_oracle(zeta):
    point = ParamPoint(Leaf((2,)), (zeta,))
    table = _seeded_table(point)
    assert 1 <= table.newton_iterations <= 8
    _assert_matches_ramp(point, table)


@pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-4])
def test_seeded_table_matches_ramp_oracle_on_leaf36(leaf36_critical, delta):
    point = ParamPoint(LEAF36, (leaf36_critical * (1.0 - delta), 0.01))
    # the grids of the table's own checks, no more than the scan's blocks
    # need (test_sheet_check_does_not_size_the_scan_grid)
    table = _seeded_table(point)
    assert table.n_grid == {1e-1: 1024, 1e-3: 1024, 1e-4: 1024}[delta]
    _assert_matches_ramp(point, table)


def test_sheet_check_does_not_size_the_scan_grid(leaf36_critical):
    # on the shipped ray at delta = 1e-3 the table's own checks pass on a
    # grid that the scan's blocks reject: their aliasing contract, not the
    # sheet checks, sets the node count
    point = ParamPoint(LEAF36, (leaf36_critical * (1.0 - 1e-3), 0.01))
    blocks = [RenormConfig(q=q, s=3, J=70, alpha=2.0, beta=1.0)
              for q in (1, 2)]
    sheet = _seeded_table(point)
    scan = _seeded_table(point, lambda t: [gram_block(t, c) for c in blocks])
    assert (sheet.n_grid, scan.n_grid) == (1024, 2048)


@pytest.mark.parametrize("delta", [1e-3, 1e-4])
@pytest.mark.parametrize("leaf", ["leaf2", "leaf36", "leaf2_complex"])
def test_uniform_table_matches_ramp_oracle_near_criticality(
        leaf36_critical, leaf, delta):
    # without dominant data the samples start from the order-250 Taylor
    # polynomial alone, which near z_* is further off than the two sheets
    # are apart; Newton must still land on the Taylor sheet.  The uniform
    # grid's circle mean converges only algebraically (8192 and 32768
    # nodes here).  For complex zeta z_* falls between two nodes, where the
    # steps around it come closest to the continuity limit (1.23 of the
    # SHEET_JUMP = 2 allowed, on the 4096-node grid at delta = 1e-4)
    point = {
        "leaf2": ParamPoint(Leaf((2,)), (0.25 * (1.0 - delta),)),
        "leaf36": ParamPoint(LEAF36, (leaf36_critical * (1.0 - delta), 0.01)),
        "leaf2_complex": ParamPoint(Leaf((2,)), (
            0.25 * (1.0 - delta) * np.exp(0.3j),)),
    }[leaf]
    table = CirclePowerTable(point, 0)
    assert table.depth == 1.0
    assert table.n_grid == {1e-3: 8192, 1e-4: 32768}[delta]
    _assert_matches_ramp(point, table)


@pytest.mark.parametrize("zeta", [
    (0.11, 0.01), (0.11 * np.exp(0.4j), 0.01 * np.exp(-0.2j)), (0.2,)],
    ids=["leaf36_real", "leaf36_complex", "leaf2"])
def test_table_seeds_from_the_given_series(zeta, monkeypatch):
    # the samples start from the series the scan passes in, kept as given;
    # with none the table runs the recursion to SEED_ORDER itself
    point = ParamPoint(Leaf((3, 6)) if len(zeta) == 2 else Leaf((2,)), zeta)
    dom = dominant_data(point)
    solve = series_engine._branch_values
    seeds = []

    def recorded(p, z, series, *rest):
        seeds.append(series)
        return solve(p, z, series, *rest)

    monkeypatch.setattr(series_engine, "_branch_values", recorded)
    series = taylor_branch(point, 250)
    table = CirclePowerTable(point, 0, dom, series=series)
    assert table.series is series
    assert seeds and all(s is series for s in seeds)
    own = CirclePowerTable(point, 0, dom)
    npt.assert_array_equal(own.series,
                           taylor_branch(point, series_engine.SEED_ORDER))
    npt.assert_array_equal(own.values, table.values)


@pytest.mark.parametrize("delta", [3e-2, 1e-3, 1e-5])
def test_wrong_sheet_sample_near_the_singularity_is_refused(monkeypatch,
                                                           delta):
    # the sample at node 5 of the first grid (1024 nodes, 513 solved)
    # replaced by the other root 1/(zeta z U) of U = 1 + zeta z U^2, below
    # the critical zeta = 1/4, where the grid is graded toward z_*.  The two
    # sheets nearly meet there, yet the jump to that sample is 20 or more
    # times the steps around it: the first grid is refused
    solve = series_engine._branch_values
    calls = []

    def one_wrong(p, z, *seeds):
        u, iters = solve(p, z, *seeds)
        if not calls:
            assert len(z) == 513
            u[5] = 1.0 / (p.zeta[0] * z[5] * u[5])
        calls.append(len(z))
        return u, iters

    monkeypatch.setattr(series_engine, "_branch_values", one_wrong)
    point = ParamPoint(Leaf((2,)), (0.25 * (1.0 - delta),))
    with pytest.raises(WrongSheet, match="between nodes 4 and 5"):
        CirclePowerTable(point, 0, dominant_data(point),
                         series=taylor_branch(point, 250))
    assert calls == [513]


def test_table_wholly_on_the_other_sheet_is_refused(monkeypatch):
    # every sample on the other root 1/(zeta z U): continuous along the
    # circle, so only the circle mean, -1 in place of U(0) = 1, shows it;
    # the uniform table doubles until the ceiling
    solve = series_engine._branch_values

    def all_wrong(p, z, *seeds):
        u, iters = solve(p, z, *seeds)
        return 1.0 / (p.zeta[0] * z * u), iters

    monkeypatch.setattr(series_engine, "_branch_values", all_wrong)
    monkeypatch.setattr(series_engine, "MAX_CIRCLE_GRID", 4096)
    point = ParamPoint(Leaf((2,)), (0.25 * (1.0 - 0.1),))
    with pytest.raises(GridTooLarge, match="circle mean of U is off U.0. = 1 "
                       "by 2.00e.00"):
        CirclePowerTable(point, 0)


def test_continuity_test_spans_chunk_ends(monkeypatch):
    # samples 100..512 of the first grid on the other root leave a single
    # jump, between nodes 99 and 100; with chunks of 100 nodes only the
    # node the chunks share puts that pair in one of them
    monkeypatch.setattr(series_engine, "NODE_CHUNK", 100)
    solve = series_engine._branch_values

    def tail_wrong(p, z, *seeds):
        u, iters = solve(p, z, *seeds)
        u[100:] = 1.0 / (p.zeta[0] * z[100:] * u[100:])
        return u, iters

    monkeypatch.setattr(series_engine, "_branch_values", tail_wrong)
    point = ParamPoint(Leaf((2,)), (0.25 * (1.0 - 3e-2),))
    with pytest.raises(WrongSheet, match="between nodes 99 and 100 of 1024"):
        CirclePowerTable(point, 0, dominant_data(point),
                         series=taylor_branch(point, 250))


def test_admissibility_circle_taylor_seed_matches_ramp_oracle(leaf36_critical):
    # check_alpha_admissible's 512 samples, on |x| = (1 + rho_*)/2 inside
    # the disk of convergence, start from the Taylor polynomial alone
    point = ParamPoint(LEAF36, (leaf36_critical * (1.0 - 1e-4), 0.01))
    dom = dominant_data(point)
    series = taylor_branch(point, 250)
    radius = ((1.0 + dom.rho_star) / 2.0) ** 3
    z = radius * _circle_nodes(np.arange(512), 512)[0]
    got, _ = _branch_values(point, z, series)
    want = ramp_branch_values(point, z)
    assert np.abs(got - want).max() <= 1e-13 * (1.0 + np.abs(want).max())
    assert check_alpha_admissible(point, dom, series, 10.0) == np.abs(got).max()


@pytest.mark.parametrize("count", [1, 2, 71, 129])
def test_power_rows_match_sequential_products(count):
    rng = np.random.default_rng(count)
    first = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    ratio = (rng.uniform(0.9, 1.1, 300)
             * np.exp(1j * rng.uniform(-np.pi, np.pi, 300)))
    got = series_engine._power_rows(first, ratio, count)
    want = power_rows_loop(first, ratio, count)
    assert got.shape == want.shape == (count, 300)
    eps = np.finfo(np.float64).eps
    assert np.all(np.abs(got - want) <= 4 * count * eps * np.abs(want))


def _graded_nodes(point, n):
    # every node of the point's graded table, doubled to n nodes
    def grow(table):
        if table.n_grid < n:
            raise TailNotConverged("one more doubling")

    table = _seeded_table(point, grow)
    assert table.n_grid == n
    return _full_circle(table, table.z)


@pytest.mark.parametrize("length", [129, 251, 100])
def test_taylor_seed_matches_horner(leaf36_critical, monkeypatch, length):
    # chunks that do not divide the node count
    monkeypatch.setattr(series_engine, "NODE_CHUNK", 1500)
    point = ParamPoint(LEAF36, (leaf36_critical * (1.0 - 1e-4), 0.01))
    z = _graded_nodes(point, 4096)
    coeffs = taylor_branch(point, 250)[:length]
    want = horner_values(coeffs, z)
    got = series_engine._taylor_values(coeffs, z)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_folded_half_circle_sums_match_full_circle(leaf36_critical,
                                                   monkeypatch):
    monkeypatch.setattr(series_engine, "NODE_CHUNK", 1500)
    point = ParamPoint(LEAF36, (leaf36_critical * (1.0 - 1e-4), 0.01))
    blocks = [RenormConfig(q=q, s=3, J=70, alpha=2.0, beta=1.0)
              for q in (1, 2)]
    table = _seeded_table(point, lambda t: [gram_block(t, c) for c in blocks])
    assert table.half and table.doublings >= 1
    # the circle mean and the Gram blocks over the held half, folded,
    # against the sums over the whole circle rebuilt by conjugation
    full = _full_circle_table(table)
    mean = (full.weight * full.values).sum()
    assert abs(mean.imag) <= 1e-14
    assert table.check_error == pytest.approx(abs(mean.real - 1.0), abs=1e-14)
    assert table.check_error < 1e-8
    for cfg in blocks:
        want = gram_block(full, cfg)
        assert np.abs(want.imag).max() <= 1e-14 * np.abs(want).max()
        got = gram_block(table, cfg)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_circle_table_agrees_with_convolution():
    # a real table holds the closed half-circle, a complex one every node
    for zeta, held in ((0.1, 513), (0.1 * np.exp(0.4j), 1024)):
        p = ParamPoint(Leaf((2,)), (zeta,))
        direct = branch_power_rows(p, [1, 2, 5], 48)
        table = CirclePowerTable(p, 48)
        assert table.n_grid == 1024 and table.half == p.is_real()
        assert len(table.values) == held
        rows = table.rows([1, 2, 5])
        npt.assert_allclose(rows, direct, rtol=0, atol=1e-12)


def test_circle_table_power_ordering_is_stable():
    p = ParamPoint(Leaf((3, 6)), (0.05, 0.01))
    table = CirclePowerTable(p, 32)
    shuffled = table.rows([5, 1, 2])
    npt.assert_array_equal(shuffled[[1, 2, 0]], table.rows([1, 2, 5]))


def test_branch_power_rows_deep_tail_path():
    """Large-order rows from circle samples stay consistent with the
    convolution chain's prefix."""
    p = ParamPoint(Leaf((2,)), (0.2,))
    deep = CirclePowerTable(p, 3100).rows([1, 2])
    shallow = branch_power_rows(p, [1, 2], 60)
    npt.assert_allclose(deep[:, :61], shallow, rtol=0, atol=1e-11)
    # decays until the coefficients sink below the sampling noise floor
    assert abs(deep[0, 120]) < abs(deep[0, 60]) < abs(deep[0, 20])
    assert np.abs(deep[:, 2000:]).max() < 1e-15


def test_branch_power_rows_requires_powers():
    with pytest.raises(ValueError):
        branch_power_rows(ParamPoint(Leaf((2,)), (0.1,)), [], 10)
