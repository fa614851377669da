"""Tests for the logarithmic scale, spike vector, and path scans."""

import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest

from toda_spectra import (BlockSpectrum, InsufficientData, Leaf, ParamPoint,
                          RenormConfig, ScanPoint, default_threads,
                          dominant_data, fit_log_scaling, log_scale,
                          scan_path, spike_vector)
from toda_spectra import spectral_scan
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
    dom = dominant_data(ParamPoint(LEAF2, (zeta,)), 260)
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


SCAN_CFG = RenormConfig(q=1, s=2, J=12, alpha=2.0, beta=1.0)


def test_scan_points_satisfy_sandwich():
    grid = np.geomspace(1e-3, 1e-1, 7)
    scan = scan_path(_critical_path, grid, SCAN_CFG, (1, 2), order=250,
                     threads=1)
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
    one = scan_path(_critical_path, grid, SCAN_CFG, (1,), order=250,
                    threads=1)
    two = scan_path(_critical_path, grid, SCAN_CFG, (1,), order=250,
                    threads=3)
    assert [pt.delta for pt in one] == [pt.delta for pt in two]
    for a, b in zip(one, two):
        npt.assert_array_equal(a.spectrum.mu, b.spectrum.mu)
        assert a.spectrum.gamma == b.spectrum.gamma
        assert a.spectrum.c_norm == b.spectrum.c_norm


def test_scan_records_supercritical_points():
    def path(delta):
        return ParamPoint(LEAF2, (0.25 * (1.0 + float(delta)),))

    scan = scan_path(path, [0.05, 0.2], SCAN_CFG, (1,), order=250, threads=1)
    assert all(not pt.ok for pt in scan)
    assert all(pt.status in ("supercritical", "NoDominantOrbit")
               for pt in scan)
    with pytest.raises(InsufficientData):
        fit_log_scaling(scan)


def test_scan_records_undersized_grid_as_failed_cells(monkeypatch):
    # a 64-term cutoff gives a 4096-point grid, too coarse at delta = 3e-3
    # (the Gram aliasing check fails) but enough at 3e-2
    monkeypatch.setattr(spectral_scan, "tail_cutoff_for",
                        lambda rho_star, s, tail_tol=1e-12: 64)
    scan = scan_path(_critical_path, [3e-3, 3e-2], SCAN_CFG, (1, 2),
                     order=250, threads=1)
    assert [(pt.delta, pt.q) for pt in scan] == [
        (3e-3, 1), (3e-3, 2), (3e-2, 1), (3e-2, 2)]
    assert [pt.status for pt in scan] == [
        "TailNotConverged", "TailNotConverged", "ok", "ok"]
    assert "n_grid=4096" in scan[0].detail


def test_scan_q_list_order_is_cosmetic():
    grid = np.geomspace(1e-2, 1e-1, 3)
    fwd = scan_path(_critical_path, grid, SCAN_CFG, (1, 2), order=250,
                    threads=1)
    rev = scan_path(_critical_path, grid, SCAN_CFG, (2, 1), order=250,
                    threads=1)
    key = lambda pt: (pt.delta, pt.q)
    for a, b in zip(sorted(fwd, key=key), sorted(rev, key=key)):
        assert (a.delta, a.q) == (b.delta, b.q)
        npt.assert_array_equal(a.spectrum.mu, b.spectrum.mu)


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


# ---------------------------------------------------------------------------
# threading default


def test_default_threads_env_override(monkeypatch):
    monkeypatch.setenv("TODA_SPECTRA_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("TODA_SPECTRA_THREADS", "not-a-number")
    assert default_threads() >= 1
    monkeypatch.delenv("TODA_SPECTRA_THREADS")
    assert 1 <= default_threads() <= 4
