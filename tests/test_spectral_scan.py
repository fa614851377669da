"""Tests for the logarithmic scale, spike vector, and path scans."""

import cmath
import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from toda_spectra import (BlockSpectrum, InsufficientData, Leaf, ParamPoint,
                          RenormConfig, ScanPoint, critical_parameter,
                          dominant_data, fit_log_scaling, log_scale,
                          scan_path, spike_vector)
from toda_spectra import branch_points, series_engine, spectral_scan
from toda_spectra.spectral_scan import BOUNDED_TOL

LEAF2 = Leaf((2,))


# ---------------------------------------------------------------------------
# logarithmic scale


def test_log_scale_closed_form_value():
    eta, L = log_scale(2.0, 2)
    assert eta == pytest.approx(1.0 / 81.0, rel=1e-15)
    assert L == pytest.approx(81.0 * math.log(81.0 / 80.0), rel=1e-14)
    assert L == pytest.approx(1.00622412, abs=5e-9)


def test_log_scale_matches_partial_sums():
    for rho_star, s in [(1.3, 2), (1.05, 3), (2.5, 2)]:
        eta, L = log_scale(rho_star, s)
        m = np.arange(0, 4000)
        npt.assert_allclose(L, np.sum(eta**m / (m + 1)), rtol=1e-13)


def test_log_scale_large_eta_hand_value():
    # choose rho_* so the midpoint product gives eta = 0.9 at s = 2
    target = 0.9 ** -0.25
    rho_star = (-1.0 + math.sqrt(1.0 + 8.0 * target)) / 2.0
    eta, L = log_scale(rho_star, 2)
    assert eta == pytest.approx(0.9, rel=1e-12)
    assert L == pytest.approx(-math.log(0.1) / 0.9, rel=1e-12)
    assert L == pytest.approx(2.558427881, abs=5e-9)


def test_log_scale_diverges_towards_criticality():
    ls = [log_scale(1.0 + eps, 2)[1] for eps in (1e-2, 1e-4, 1e-6)]
    assert ls[0] < ls[1] < ls[2]
    assert ls[2] > 10.0


def test_log_scale_rejects_supercritical():
    with pytest.raises(ValueError):
        log_scale(0.99, 2)


# ---------------------------------------------------------------------------
# spike vector


def _dom_and_cfg(zeta=0.2, J=10, q=1, beta=1.0):
    dom = dominant_data(ParamPoint(LEAF2, (zeta,)))
    cfg = RenormConfig(q=q, s=2, J=J, alpha=2.0, beta=beta)
    return dom, cfg


def test_spike_vector_matches_direct_formula():
    dom, cfg = _dom_and_cfg()
    d, gamma = spike_vector(dom, cfg)
    rep = dom.representative
    pref = -math.sqrt(dom.s) / (2.0 * math.sqrt(math.pi))
    for j in range(cfg.J + 1):
        pj = cfg.q + dom.s * j
        want = (cmath.exp(-1j * j * dom.phi) * pref
                * np.conj(rep.kappa) * pj ** (-1.0 - cfg.beta)
                * np.conj(rep.lam) ** (pj - 1) / cfg.alpha**pj)
        npt.assert_allclose(d[j], want, rtol=1e-12)
    assert gamma == pytest.approx(float(np.vdot(d, d).real), rel=1e-14)


def test_spike_norm_is_phase_invariant():
    # Gamma depends on |kappa|, |lambda| and the weights only, so the two
    # symmetry blocks of a one-mode leaf carry related spike norms.
    dom, _ = _dom_and_cfg()
    cfg1 = RenormConfig(q=1, s=2, J=40, alpha=2.0, beta=1.0)
    cfg2 = RenormConfig(q=2, s=2, J=40, alpha=2.0, beta=1.0)
    _, g1 = spike_vector(dom, cfg1)
    _, g2 = spike_vector(dom, cfg2)
    assert g1 > g2 > 0.0  # odd modes start lower, hence larger weights


def test_spike_vector_checks_symmetry_index():
    dom, _ = _dom_and_cfg()
    with pytest.raises(ValueError):
        spike_vector(dom, RenormConfig(q=1, s=3, J=10, alpha=2.0, beta=1.0))


# ---------------------------------------------------------------------------
# scans


def _critical_path(delta):
    return ParamPoint(LEAF2, (0.25 * (1.0 - float(delta)),))


SCAN_BLOCKS = [RenormConfig(q=q, s=2, J=12, alpha=2.0, beta=1.0)
               for q in (1, 2)]


def test_scan_points_satisfy_sandwich():
    grid = np.geomspace(1e-3, 1e-1, 7)
    scan = scan_path(_critical_path, grid, SCAN_BLOCKS, threads=1)
    assert len(scan) == 14
    assert all(pt.ok for pt in scan)
    for pt in scan:
        b = pt.spectrum
        assert b.epsilon > 0.0
        npt.assert_allclose(b.L, log_scale(1.0 + b.epsilon, 2)[1], rtol=1e-12)
        lg = b.L * b.gamma
        assert lg - b.c_norm - 1e-10 <= b.mu[0] <= lg + b.c_norm + 1e-10
        assert np.all(b.mu[1:] <= b.c_norm + 1e-10)
        assert b.c_hs >= b.c_norm  # Frobenius dominates the operator norm


def test_scan_is_deterministic_and_thread_invariant():
    grid = np.geomspace(1e-3, 1e-1, 5)
    one = scan_path(_critical_path, grid, SCAN_BLOCKS[:1], threads=1)
    two = scan_path(_critical_path, grid, SCAN_BLOCKS[:1], threads=3)
    assert [pt.delta for pt in one] == [pt.delta for pt in two]
    for a, b in zip(one, two):
        npt.assert_array_equal(a.spectrum.mu, b.spectrum.mu)
        assert a.spectrum.gamma == b.spectrum.gamma
        assert a.spectrum.c_norm == b.spectrum.c_norm


def _assert_same_points(one, two):
    assert [(pt.delta, pt.q, pt.status, pt.detail) for pt in one] == [
        (pt.delta, pt.q, pt.status, pt.detail) for pt in two]
    for a, b in zip(one, two):
        assert (a.spectrum is None) == (b.spectrum is None)
        if a.spectrum is None:
            continue
        for name in ("q", "delta", "epsilon", "L", "gamma", "c_norm", "c_hs"):
            assert getattr(a.spectrum, name) == getattr(b.spectrum, name)
        npt.assert_array_equal(a.spectrum.mu, b.spectrum.mu)
        npt.assert_array_equal(a.spectrum.spike, b.spectrum.spike)


def test_scan_runs_deepest_first_in_grid_order():
    grid = [3e-2, 1e-3, 1e-1, 3e-3]
    calls = []

    def path(delta):
        calls.append(delta)
        return _critical_path(delta)

    one = scan_path(_critical_path, grid, SCAN_BLOCKS, threads=1)
    two = scan_path(path, grid, SCAN_BLOCKS, threads=2)
    _assert_same_points(one, two)
    assert [pt.delta for pt in two] == [d for d in grid for _ in (1, 2)]
    # the two deepest points start first, one per thread
    assert sorted(calls[:2]) == [1e-3, 3e-3]


def test_scan_records_supercritical_points():
    def path(delta):
        return ParamPoint(LEAF2, (0.25 * (1.0 + float(delta)),))

    scan = scan_path(path, [0.05, 0.2], SCAN_BLOCKS[:1], threads=1)
    assert all(not pt.ok for pt in scan)
    assert all(pt.status in ("supercritical", "NoDominantOrbit")
               for pt in scan)
    with pytest.raises(InsufficientData):
        fit_log_scaling(scan)


def test_scan_records_undersized_grid_as_failed_cells(monkeypatch):
    # a 1024-node ceiling stops the doubling: the first grid is too coarse
    # at delta = 3e-4 (it needs 2048 nodes) but enough at 3e-2
    monkeypatch.setattr(series_engine, "MAX_CIRCLE_GRID", 1024)
    scan = scan_path(_critical_path, [3e-4, 3e-2], SCAN_BLOCKS, threads=1)
    assert [(pt.delta, pt.q) for pt in scan] == [
        (3e-4, 1), (3e-4, 2), (3e-2, 1), (3e-2, 2)]
    assert [pt.status for pt in scan] == [
        "GridTooLarge", "GridTooLarge", "ok", "ok"]
    # the detail names the check the last grid failed: the blocks'
    # aliasing contract
    assert "circle grid of 2048 points" in scan[0].detail
    assert "half-grid Gram block" in scan[0].detail
    assert [(pt.n_grid, pt.doublings) for pt in scan] == [
        (0, 0), (0, 0), (1024, 0), (1024, 0)]


def test_scan_records_grid_over_ceiling_as_failed_cells(monkeypatch):
    # delta = 1e-4 needs a 4096-node grid; 3e-2 fits in 1024
    monkeypatch.setattr(series_engine, "MAX_CIRCLE_GRID", 2048)
    scan = scan_path(_critical_path, [1e-4, 3e-2], SCAN_BLOCKS, threads=1)
    assert [pt.status for pt in scan] == [
        "GridTooLarge", "GridTooLarge", "ok", "ok"]
    assert "MAX_CIRCLE_GRID = 2048" in scan[0].detail


def test_scan_records_wrong_sheet_sample_as_failed_cells(monkeypatch):
    # one sample of the first grid (1024 nodes, 513 solved) replaced by the
    # other root of U = 1 + zeta z U^2 breaks the samples' continuity, so
    # the point is given up as off the sheet on that grid, long before the
    # ceiling
    solve = series_engine._branch_values
    calls = []

    def one_wrong(p, z, *seeds):
        u, iters = solve(p, z, *seeds)
        if len(z) == 513:
            u[5] = 1.0 / (p.zeta[0] * z[5] * u[5])
        calls.append(len(z))
        return u, iters

    monkeypatch.setattr(series_engine, "_branch_values", one_wrong)
    monkeypatch.setattr(series_engine, "MAX_CIRCLE_GRID", 8192)
    scan = scan_path(_critical_path, [3e-2], SCAN_BLOCKS, threads=1)
    assert [pt.status for pt in scan] == ["WrongSheet", "WrongSheet"]
    assert "jump between nodes 4 and 5 of 1024" in scan[0].detail
    assert "SHEET_JUMP" in scan[0].detail
    # the 513 held nodes of the first grid, rejected with no doubling; the
    # admissibility circle solves by hessian_blocks' own import of
    # _branch_values, which the patch does not reach
    assert calls == [513]
    assert [(pt.n_grid, pt.doublings) for pt in scan] == [(0, 0), (0, 0)]


def test_scan_records_flipped_germ_seed_as_wrong_sheet(monkeypatch):
    # kappa of the opposite sign makes the germ a seed on the other sheet;
    # near z_* it beats the Taylor polynomial, so those samples converge to
    # the wrong root: the samples jump where the seeds change over, and the
    # point is recorded, with no spectrum, instead of ending in a crash or a
    # stale value
    real = spectral_scan.dominant_data

    def flipped(p):
        dom = real(p)
        rep = dom.representative
        return dataclasses.replace(
            dom, representative=dataclasses.replace(rep, kappa=-rep.kappa))

    monkeypatch.setattr(spectral_scan, "dominant_data", flipped)
    scan = scan_path(_critical_path, [1e-3, 1e-1], SCAN_BLOCKS, threads=1)
    assert [pt.status for pt in scan] == ["WrongSheet"] * 2 + ["ok"] * 2
    assert all(pt.spectrum is None for pt in scan[:2])
    assert "jump between nodes" in scan[0].detail
    assert "of 1024:" in scan[0].detail  # the first grid
    # far from criticality the germ never wins and the samples, hence the
    # blocks, are those of the true seeds (the spike only changes sign)
    monkeypatch.undo()
    want = scan_path(_critical_path, [1e-1], SCAN_BLOCKS, threads=1)
    for a, b in zip(scan[2:], want):
        npt.assert_array_equal(a.spectrum.mu, b.spectrum.mu)
        npt.assert_array_equal(a.spectrum.spike, -b.spectrum.spike)


def test_scan_runs_the_taylor_recursion_once_per_point(monkeypatch):
    # the circle table checks and seeds its samples with the series the
    # scan computed for the point, instead of running the recursion again,
    # and dominant_data continues the branch without one
    calls = []
    real = series_engine.taylor_branch

    def counted(p, order):
        calls.append(order)
        return real(p, order)

    monkeypatch.setattr(spectral_scan, "taylor_branch", counted)
    monkeypatch.setattr(branch_points, "taylor_branch", counted)
    monkeypatch.setattr(series_engine, "taylor_branch", counted)
    scan = scan_path(_critical_path, [1e-3, 1e-2, 1e-1], SCAN_BLOCKS,
                     threads=1)
    assert all(pt.ok for pt in scan)
    assert calls == [250, 250, 250]


def test_scan_q_list_order_is_cosmetic():
    grid = np.geomspace(1e-2, 1e-1, 3)
    fwd = scan_path(_critical_path, grid, SCAN_BLOCKS, threads=1)
    rev = scan_path(_critical_path, grid, SCAN_BLOCKS[::-1], threads=1)
    key = lambda pt: (pt.delta, pt.q)
    for a, b in zip(sorted(fwd, key=key), sorted(rev, key=key)):
        assert (a.delta, a.q) == (b.delta, b.q)
        npt.assert_array_equal(a.spectrum.mu, b.spectrum.mu)


def test_scan_blocks_are_all_built_before_the_first_point():
    # alpha = 26.9 overflows only the q = 2 weights on {3,6} (p_J = 212);
    # the caller builds every block, so that surfaces before the path is
    # called once, and the q = 1 block alone scans
    calls = []

    def path(delta):
        calls.append(delta)
        return ParamPoint(Leaf((3, 6)), (0.05 * (1.0 - delta), 0.01))

    with pytest.raises(ValueError, match="p_J=212 overflows"):
        scan_path(path, [0.05, 0.02],
                  [RenormConfig(q=q, s=3, alpha=26.9) for q in (1, 2)],
                  threads=1)
    assert calls == []
    scan = scan_path(path, [0.05], [RenormConfig(q=1, s=3, alpha=26.9)],
                     threads=1)
    assert calls == [0.05] and [pt.status for pt in scan] == ["ok"]


def test_scan_refuses_empty_or_mixed_blocks():
    with pytest.raises(ValueError, match="at least one block"):
        scan_path(_critical_path, [1e-1], [], threads=1)
    # the blocks share one alpha (the deepest point's check) and one J, beta
    mixed = [SCAN_BLOCKS[0], dataclasses.replace(SCAN_BLOCKS[1], alpha=2.5)]
    with pytest.raises(ValueError, match="differ only in q"):
        scan_path(_critical_path, [1e-1], mixed, threads=1)


def test_scan_refuses_blocks_off_the_leaf_before_dominant_data(monkeypatch):
    # a block s that is not the leaf's is a caller error: it raises before
    # the first point's dominant_data, not from inside a point's blocks
    calls = []
    real = spectral_scan.dominant_data

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral_scan, "dominant_data", counted)
    path = lambda d: ParamPoint(LEAF2, (0.25 * (1 - d),))
    with pytest.raises(ValueError, match="s=3.*s=2"):
        scan_path(path, [0.1, 0.05], [RenormConfig(q=1, s=3)], threads=1)
    assert calls == []


def test_real_zeta_scan_point_real_solves_match_complex_eigvalsh(monkeypatch):
    # for real zeta the point solves the real parts of its blocks; complex
    # eigvalsh of the same complex blocks gives the same spectrum
    grams = []
    real_gram = spectral_scan.gram_block

    def kept(table, cfg):
        grams.append(real_gram(table, cfg))
        return grams[-1]

    monkeypatch.setattr(spectral_scan, "gram_block", kept)
    delta = 3e-3
    scan = scan_path(_critical_path, [delta], SCAN_BLOCKS, threads=1)
    dom = dominant_data(_critical_path(delta))
    _, L = log_scale(dom.rho_star, dom.s)
    for pt, cfg, G in zip(scan, SCAN_BLOCKS, grams[-len(SCAN_BLOCKS):]):
        assert G.dtype == np.complex128 and not G.imag.any()
        d, _ = spike_vector(dom, cfg)
        C = G - L * np.outer(d, d.conj())
        mu = np.linalg.eigvalsh(G)[::-1][: spectral_scan.K_MAX]
        c_norm = np.abs(np.linalg.eigvalsh(C)).max()
        tol = 1e-14 * mu[0]
        assert np.abs(pt.spectrum.mu - mu).max() <= tol
        assert abs(pt.spectrum.c_norm - c_norm) <= tol


def test_scan_point_past_the_deep_diagnostic_range_converges():
    # the {3,6} path of scan_deep_diagnostic.ini two decades below its
    # delta_min: next to z_* the derivative F_y of the branch equation is
    # about sqrt(|z_*| - 1) ~ 1e-4, so a Newton step there cannot fall
    # below ulp (1 + |U|) / |F_y|, above the step tolerance; the samples of
    # the admissibility circle and of the table stop at that floor instead
    # of stalling
    leaf = Leaf((3, 6))
    zc = critical_parameter(lambda t: ParamPoint(leaf, (t, 0.01)), 0.05, 0.2)
    blocks = [RenormConfig(q=q, s=3, J=70, alpha=2.0, beta=1.0)
              for q in (1, 2)]
    scan = scan_path(lambda d: ParamPoint(leaf, (zc * (1.0 - d), 0.01)),
                     [1e-8], blocks, threads=1)
    assert [pt.status for pt in scan] == ["ok", "ok"]
    assert {pt.n_grid for pt in scan} == {524288}
    assert scan[0].check_error < 1e-12
    for pt in scan:
        b = pt.spectrum
        assert 0.0 < b.epsilon < 1e-8
        lg = b.L * b.gamma
        assert lg - b.c_norm <= b.mu[0] <= lg + b.c_norm
        assert np.all(b.mu[1:] <= b.c_norm)


# ---------------------------------------------------------------------------
# scaling fits


def _synthetic_scan(n=12, slope=2.0, dmin=1e-4, dmax=1e-1):
    return [ScanPoint(float(d), 1, BlockSpectrum(
        q=1, delta=float(d), epsilon=float(d), L=math.log(1.0 / d),
        mu=np.array([slope * math.log(1.0 / d) + 0.5, 0.7, 0.1]),
        spike=np.zeros(3), gamma=slope, c_norm=1.0, c_hs=2.0))
        for d in np.geomspace(dmin, dmax, n)]


def test_fit_recovers_exact_linear_law():
    reports = fit_log_scaling(_synthetic_scan())
    rep = reports[1]
    assert rep.q == 1
    assert rep.slope == pytest.approx(2.0, rel=1e-12)
    assert rep.intercept == pytest.approx(0.5, abs=1e-10)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    # delta parameterizes epsilon exactly here, so both fits agree
    assert rep.slope_log_delta == pytest.approx(2.0, rel=1e-12)
    assert rep.r_squared_log_delta == pytest.approx(1.0, abs=1e-12)
    assert rep.gamma_limit == 2.0
    assert rep.max_higher == {2: 0.7, 3: 0.1}
    assert rep.bounded == {2: True, 3: True}
    # mu_1 grows by 2 log 10 per decade; the constant levels not at all
    assert rep.decade_ratios[1] == pytest.approx([1.0, 1.0], rel=1e-12)
    assert all(math.isnan(r) for r in rep.decade_ratios[2])


def test_fit_flags_growing_higher_levels():
    scan = _synthetic_scan()
    for pt in scan:
        pt.spectrum.mu[1] = 3.0 * math.log(1.0 / pt.delta)
    rep = fit_log_scaling(scan)[1]
    assert rep.bounded[2] is False
    assert rep.bounded[3] is True


def test_fit_calls_slowly_converging_level_bounded():
    # mu_2 = 1 - 6/log(1/delta) converges, yet still grows by more than
    # BOUNDED_TOL of its size over the last decade; its per-decade growth
    # shrinks, which is what makes it bounded
    scan = _synthetic_scan(dmin=1e-6, dmax=1e-3)
    for pt in scan:
        pt.spectrum.mu[1] = 1.0 - 6.0 / math.log(1.0 / pt.delta)
    mu2 = {pt.delta: pt.spectrum.mu[1] for pt in scan}
    last = [mu2[d] for d in sorted(mu2) if d <= 1e-5]
    assert last[0] - last[-1] > BOUNDED_TOL * last[0]
    rep = fit_log_scaling(scan)[1]
    assert rep.bounded == {2: True, 3: True}


def test_fit_needs_enough_points():
    with pytest.raises(InsufficientData):
        fit_log_scaling(_synthetic_scan(n=5))


def test_fit_needs_two_decades():
    with pytest.raises(InsufficientData):
        fit_log_scaling(_synthetic_scan(n=8, dmin=1e-3, dmax=5e-2))
