"""End-to-end acceptance gate.

Each numbered test covers one release criterion and prints one
machine-greppable verdict line

    [acceptance] NN label: PASS|FAIL (measurements)

in addition to the usual pytest outcome; lettered tests split a criterion
with independently checkable parts.  Runtime budgets are part of the
criteria and are asserted with the measured wall time in the verdict.
"""

import cmath
import math
import time

import numpy as np
import pytest

from conftest import read_csv, read_summary
from toda_spectra import (Leaf, LogLeafPoint, ParamPoint, PoleLeafPoint,
                          RenormConfig, SliceDriver, amplitude_A,
                          approach_path, branch_power_rows, critical_parameter,
                          dominant_data, fit_log_scaling, gamma_c_solve,
                          log_rho_char, log_scale, phase_diagram,
                          pole_rho_char, scan_path, solve_characteristic,
                          taylor_branch)
from toda_spectra.spectral_scan import BOUNDED_TOL

from germ_oracle import pole_germ_radius
from kernel_oracle import kernel_hessian_oracle, mode_gram_vectors
from radius_oracle import radius_estimate
from recursion_oracle import raney_oracle


def _verdict(tag, label, ok, detail=""):
    line = f"[acceptance] {tag} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _linfit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float((resid**2).sum()) / float(((y - y.mean()) ** 2).sum())
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------


def test_criterion_01_exact_one_mode_coefficients():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (2, 3):
        leaf = Leaf((s,))
        for zeta in (0.05, 0.1, 0.2):
            rows = branch_power_rows(ParamPoint(leaf, (zeta,)),
                                     list(range(1, 11)), 30)
            for p in range(1, 11):
                coeffs = rows[p - 1].real
                for m in range(31):
                    want = float(raney_oracle(s, p, m)) * zeta**m
                    worst = max(worst, abs(coeffs[m] - want) / want)
    secs = time.perf_counter() - t0
    _verdict("01", "one-mode coefficients match the closed form",
             worst <= 1e-12 and secs < 1.0,
             f"worst rel err {worst:.2e}, {secs:.2f} s")


def test_criterion_02_kernel_gram_equivalence():
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_vanish = 0.0
    for leaf, zeta in [(Leaf((2,)), (0.2,)), (Leaf((3, 6)), (0.1, 0.01))]:
        point = ParamPoint(leaf, zeta)
        s = leaf.s
        H = kernel_hessian_oracle(point, 20)
        scale = float(np.linalg.norm(H))
        for m in range(1, 21):
            for n in range(1, 21):
                if (m - n) % s:
                    worst_vanish = max(worst_vanish,
                                       abs(H[m - 1, n - 1]) / scale)
        for q in range(1, s + 1):
            j_max = (20 - q) // s
            vecs = mode_gram_vectors(point, q, j_max, j_max)
            gram = sum(np.outer(v, np.conj(v)) for v in vecs)
            pj = q + s * np.arange(j_max + 1)
            sub = H[np.ix_(pj - 1, pj - 1)]
            denom = np.maximum(np.abs(sub), 1e-12 * scale)
            worst_eq = max(worst_eq,
                           float(np.max(np.abs(gram - sub) / denom)))
    secs = time.perf_counter() - t0
    _verdict("02", "kernel oracle equals mode-Gram sums",
             worst_eq <= 1e-10 and worst_vanish <= 1e-12 and secs < 5.0,
             f"worst rel {worst_eq:.2e}, worst off-block {worst_vanish:.2e}, "
             f"{secs:.2f} s")


def test_criterion_03_one_mode_critical_values():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for s, zc in ((2, 0.25), (3, 4.0 / 27.0)):
        leaf = Leaf((s,))
        path = (lambda t, leaf=leaf: ParamPoint(leaf, (t,)))
        got = critical_parameter(path, 0.5 * zc, 1.4 * zc)
        lam = min(solve_characteristic(path(got)),
                  key=lambda c: c.modulus).lam
        err_z = abs(got - zc)
        err_l = abs(lam - s / (s - 1.0))
        ok = ok and err_z <= 1e-10 and err_l <= 1e-10
        parts.append(f"s={s}: dzeta {err_z:.1e}, dlambda {err_l:.1e}")
    secs = time.perf_counter() - t0
    _verdict("03", "one-mode critical parameter and branch value",
             ok and secs < 1.0, "; ".join(parts) + f", {secs:.2f} s")


def test_criterion_04_radius_cross_validation():
    t0 = time.perf_counter()
    points = [ParamPoint(Leaf((2,)), (z,))
              for z in (0.05, 0.09, 0.13, 0.17, 0.21)]
    points += [ParamPoint(Leaf((3, 6)), (z1, 0.01))
               for z1 in (0.03, 0.05, 0.07, 0.09, 0.11)]
    worst_rho = 0.0
    worst_exp = 0.0
    for pt in points:
        rho_star = dominant_data(pt).rho_star
        rho_hat, exponent_hat = radius_estimate(taylor_branch(pt, 320),
                                                pt.leaf.s)
        worst_rho = max(worst_rho, abs(rho_hat - rho_star) / rho_star)
        worst_exp = max(worst_exp, abs(exponent_hat + 1.5))
    secs = time.perf_counter() - t0
    _verdict("04", "series radius matches characteristic radius",
             worst_rho <= 1e-3 and worst_exp <= 0.3 and secs < 10.0,
             f"10 points, worst rel {worst_rho:.2e}, worst exponent dev "
             f"{worst_exp:.3f}, {secs:.2f} s")


def test_criterion_05_uniform_transfer_law():
    t0 = time.perf_counter()
    point = ParamPoint(Leaf((2,)), (0.2,))
    dom = dominant_data(point)
    rep = dom.representative
    z_star = complex(rep.x_star) ** dom.s
    p_list = (1, 2, 5)
    rows = branch_power_rows(point, list(p_list), 400)
    m = np.arange(50, 401)
    err = {}
    for i, p in enumerate(p_list):
        pred = (amplitude_A(dom.s, rep.kappa, rep.lam, p) * m**-1.5
                * z_star ** (-m.astype(float)))
        err[p] = np.abs(rows[i, 50:401] / pred - 1.0)
    C = max(float((err[p] * m / (1 + p * p)).max()) for p in p_list)
    holds = all(bool(np.all(err[p] <= C * (1 + p * p) / m * (1 + 1e-12)))
                for p in p_list)
    secs = time.perf_counter() - t0
    _verdict("05", "transfer-law error bounded by C(1+p^2)/m",
             holds and C < 10.0 and secs < 5.0,
             f"single C {C:.3f} covers p in {p_list}, m in [50, 400], "
             f"{secs:.2f} s")


# ---------------------------------------------------------------------------
# near-critical scan (shape criteria on the shipped configuration)


def _block(csv, q, k):
    sel = (csv["q"] == q) & (csv["k"] == k) & (csv["status"] == "ok")
    order = np.argsort(csv["delta"][sel])
    return csv["delta"][sel][order], csv["mu"][sel][order], sel, order


def test_criterion_06a_leading_eigenvalue_log_growth(scan_runs):
    csv = read_csv(scan_runs[0][0] / "spectra.csv")
    ok = True
    parts = []
    for q in (1, 2):
        delta, mu1, _, _ = _block(csv, q, 1)
        last = delta <= 10.0 * delta[0] * (1.0 + 1e-9)
        slope, _, r2 = _linfit(np.log(1.0 / delta[last]), mu1[last])
        ok = ok and r2 > 0.99 and slope > 0.0
        parts.append(f"q={q}: slope {slope:.4f}, R2 {r2:.6f}")
    secs = scan_runs[0][1]
    ok = ok and secs < 300.0
    _verdict("06a", "leading eigenvalue grows like log(1/delta)",
             ok, "; ".join(parts) + f", scan {secs:.0f} s")


def _decade_increases(delta, mu):
    """Increase of mu over each decade of delta, from the far end inward."""
    exps = np.arange(round(math.log10(delta[-1])),
                     round(math.log10(delta[0])) - 1, -1)
    at = [np.flatnonzero(np.isclose(delta, 10.0**e, rtol=1e-9, atol=0.0))
          for e in exps]
    assert all(len(i) == 1 for i in at), "no grid point on some decade"
    return np.diff(mu[np.concatenate(at)])


def _growth_dies_out(inc):
    """Each decade's increase is <= 0 or <= (1 - tol) x the previous one."""
    return bool(np.all((inc[1:] <= 0.0)
                       | (inc[1:] <= (1.0 - BOUNDED_TOL) * inc[:-1])))


def test_criterion_06b_higher_levels_fall_off_log(scan_runs):
    # The levels below the spike are capped by interlacing and climb toward
    # their caps like A - B/L, so mu_k/log(1/delta) falls like 1/log(1/delta)
    # at best (0.25 of its initial value over these three decades for an
    # exactly constant level).  What separates them from the divergent
    # mu_1 is that their growth per decade dies out while mu_1's does not.
    csv = read_csv(scan_runs[0][0] / "spectra.csv")
    fits = read_summary(scan_runs[0][0], "scan")["fits"]
    ok = True
    parts = []
    for q in (1, 2):
        for k in range(1, 6):
            delta, muk, _, _ = _block(csv, q, k)
            inc = _decade_increases(delta, muk)
            bounded = _growth_dies_out(inc)
            # k = 1 is the control: the rule must reject the divergent level
            ok = ok and bounded == (k > 1)
            if k > 1:
                ok = ok and fits[str(q)]["bounded"][str(k)] is True
            ratios = "/".join(f"{r:.2f}" for r in inc[1:] / inc[:-1])
            parts.append(f"q={q},k={k}: {ratios}")
    _verdict("06b", "growth of mu_k dies out per decade for k=2..5, "
             "not for mu_1", ok, "decade ratios " + ", ".join(parts))


def test_criterion_06c_sandwich_bounds_everywhere(scan_runs):
    csv = read_csv(scan_runs[0][0] / "spectra.csv")
    ok = True
    worst = 0.0
    for q in (1, 2):
        _, mu1, sel, order = _block(csv, q, 1)
        lg = (csv["L"][sel] * csv["gamma"][sel])[order]
        c = csv["c_norm"][sel][order]
        slack = np.maximum(np.abs(lg - mu1) - c, 0.0)
        worst = max(worst, float(slack.max()))
        ok = ok and bool(np.all(np.abs(lg - mu1) <= c + 1e-10))
    _verdict("06c", "L*Gamma - c <= mu_1 <= L*Gamma + c at every point",
             ok, f"worst excess {worst:.2e}")


def test_criterion_06d_stable_constant_growing_scale(scan_runs):
    csv = read_csv(scan_runs[0][0] / "spectra.csv")
    ok = True
    parts = []
    for q in (1, 2):
        _, _, sel, order = _block(csv, q, 1)
        c = csv["c_norm"][sel][order]
        L = csv["L"][sel][order]
        spread = float(c.max() / c.min())
        growth = float(L.max() - L.min())
        ok = ok and spread < 5.0 and growth >= 3.0
        parts.append(f"q={q}: c max/min {spread:.2f}, L growth {growth:.2f}")
    _verdict("06d", "sandwich constant stays put while the scale grows",
             ok, "; ".join(parts))


def test_criterion_07_log_scale_bridge():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (2, 3):
        for eps in np.geomspace(1e-6, 1e-1, 300):
            _, L = log_scale(1.0 + eps, s)
            worst = max(worst, abs(L - math.log(1.0 / eps)))
    secs = time.perf_counter() - t0
    _verdict("07", "logarithmic scale tracks log(1/epsilon) within 3",
             worst < 3.0 and secs < 1.0,
             f"worst |L - log(1/eps)| {worst:.3f}, {secs:.2f} s")


def test_criterion_08a_pole_critical_contour():
    t0 = time.perf_counter()
    b_samples = np.linspace(-0.9, 0.9, 51)[:-1]      # 50 values incl. b = 0
    table = phase_diagram("pole", b_samples, np.linspace(1e-4, 0.4, 41))
    b_apex, c_apex = min(table.contour, key=lambda bc: abs(bc[0]))
    apex_err = max(abs(b_apex), abs(c_apex - 0.25))
    worst = max(abs(abs(b) + 2.0 * math.sqrt(c) - 1.0)
                for b, c in table.contour)
    secs = time.perf_counter() - t0
    _verdict("08a", "unit-radius contour matches the closed curves",
             len(table.contour) == 50 and apex_err <= 1e-6
             and worst <= 1e-6 and secs < 30.0,
             f"apex err {apex_err:.1e}, worst |b|+2sqrt(c)-1 {worst:.1e}, "
             f"{secs:.2f} s")


def test_criterion_08b_pole_series_formula_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for i in range(20):
        if i % 5 == 2:
            mod = 0.15 + 0.45 * rng.random()
            ang = rng.uniform(-1.2, 1.2)
            b = mod * cmath.exp(1j * ang)
        else:
            b = float(rng.choice([-1.0, 1.0])) * (0.15 + 0.6 * rng.random())
        frac = 0.15 + 0.7 * rng.random()
        c = (frac * (1.0 - abs(b)) / 2.0) ** 2
        pt = PoleLeafPoint(b, c)
        rho = pole_rho_char(pt)[0]
        worst = max(worst, abs(pole_germ_radius(pt, 360) - rho) / rho)
    secs = time.perf_counter() - t0
    _verdict("08b", "pole germ radius agrees with the explicit formula",
             worst <= 1e-3 and secs < 30.0,
             f"20 points, worst rel err {worst:.2e}, {secs:.2f} s")


def test_criterion_09a_log_threshold_parameter():
    t0 = time.perf_counter()
    gamma_c = gamma_c_solve(1e-4)
    secs = time.perf_counter() - t0
    _verdict("09a", "recomputed critical gamma lands in [0.2795, 0.2805]",
             0.2795 <= gamma_c <= 0.2805 and secs < 60.0,
             f"gamma_c {gamma_c:.6f}, {secs:.2f} s")


def test_criterion_09b_conjugate_split_across_discriminant():
    t0 = time.perf_counter()
    ok = True
    worst_tie = 0.0
    least_split = math.inf
    for gamma in (0.05, 0.1):
        bdisc = 4.0 * gamma
        for b in np.linspace(0.2 * bdisc, 0.98 * bdisc, 6):
            d = log_rho_char(LogLeafPoint(float(b), gamma))
            rel = abs(abs(d.x_plus) - abs(d.x_minus)) / abs(d.x_plus)
            worst_tie = max(worst_tie, rel)
            ok = ok and d.conjugate_pair
        for b in np.linspace(1.05 * bdisc, 0.95, 6):
            d = log_rho_char(LogLeafPoint(float(b), gamma), on_cut="split")
            rel = abs(abs(d.x_plus) - abs(d.x_minus)) / abs(d.x_plus)
            least_split = min(least_split, rel)
            ok = ok and not d.conjugate_pair
    secs = time.perf_counter() - t0
    _verdict("09b", "conjugate moduli tie below 4*gamma and split above",
             ok and worst_tie <= 1e-10 and least_split > 1e-8
             and secs < 60.0,
             f"worst tie {worst_tie:.1e}, least split {least_split:.1e}, "
             f"{secs:.2f} s")


# ---------------------------------------------------------------------------
# growth trajectories (shipped configurations)


def test_criterion_10a_quadrupole_conserved(lg_onemode_runs):
    csv = read_csv(lg_onemode_runs[0][0] / "trajectory.csv")
    drift = float(np.max(np.abs(csv["t_2"] - csv["t_2"][0])))
    start_ok = abs(csv["t_2"][0] - 0.025) < 1e-12
    _verdict("10a", "contour moment conserved along the injection run",
             drift <= 1e-8 and start_ok,
             f"max |t_2 - t_2(0)| {drift:.2e} over {len(csv['T'])} states")


def test_criterion_10b_circle_baseline(lg_circle_run):
    csv = read_csv(lg_circle_run[0] / "trajectory.csv")
    err = float(np.max(np.abs(csv["r"] - np.sqrt(1.0 + csv["T"]))))
    _verdict("10b", "circle radius follows sqrt(1+T)",
             err <= 1e-9, f"max |r - sqrt(1+T)| {err:.2e}")


def test_criterion_10c_threshold_detection(lg_slice_runs):
    summary = read_summary(lg_slice_runs[0][0], "lg")
    th = summary["thresholds"]
    t_c = th["T_c"]
    ok = t_c is not None
    detail = "T_c not reached"
    if ok:
        zeta_tc = 0.05 + 0.2 * t_c
        rho = min(cp.modulus for cp in solve_characteristic(
            ParamPoint(Leaf((2,)), (zeta_tc,))))
        ok = (abs(rho - 1.0) <= 1e-6 and th["margin_at_Tc"] > 0.0
              and (th["T_univ"] is None or th["T_univ"] > t_c)
              and th["separation_verdict"] is True)
        detail = (f"T_c {t_c:.9f}, rho_*(zeta(T_c))-1 {rho - 1.0:.1e}, "
                  f"margin {th['margin_at_Tc']:.3f}, T_univ {th['T_univ']}")
    _verdict("10c", "spectral threshold hit while still univalent",
             ok, detail)


def test_criterion_10d_approach_scaling(lg_slice_runs):
    t0 = time.perf_counter()
    t_c = read_summary(lg_slice_runs[0][0], "lg")["thresholds"]["T_c"]
    driver = SliceDriver(Leaf((2,)), lambda t: 0.05 + 0.2 * t)
    path = approach_path(driver, t_c)
    blocks = [RenormConfig(q=q, s=2, J=40, alpha=2.0, beta=1.0)
              for q in (1, 2)]
    scan = scan_path(path, np.geomspace(1e-4, 1e-1, 13), blocks, threads=1)
    fits = fit_log_scaling(scan)
    secs = time.perf_counter() - t0
    budget = secs + lg_slice_runs[0][1] + lg_slice_runs[1][1]
    ok = (set(fits) == {1, 2}
          and all(f.r_squared_log_delta > 0.99 for f in fits.values())
          and budget < 300.0)
    detail = "; ".join(
        f"q={q}: R2 {f.r_squared_log_delta:.6f}, slope {f.slope_log_delta:.4f}"
        for q, f in sorted(fits.items()))
    _verdict("10d", "eigenvalue growth scales with log(1/(T_c - T))",
             ok, detail + f", {secs:.1f} s")


def test_criterion_11_byte_identical_reruns(scan_runs, lg_onemode_runs,
                                            lg_slice_runs, lg_circle_run):
    pairs = [
        ("scan spectra", scan_runs[0][0] / "spectra.csv",
         scan_runs[1][0] / "spectra.csv"),
        ("injection trajectory", lg_onemode_runs[0][0] / "trajectory.csv",
         lg_onemode_runs[1][0] / "trajectory.csv"),
        ("slice trajectory", lg_slice_runs[0][0] / "trajectory.csv",
         lg_slice_runs[1][0] / "trajectory.csv"),
    ]
    bad = [name for name, a, b in pairs if a.read_bytes() != b.read_bytes()]
    summaries_equal = (
        (scan_runs[0][0] / "scan_summary.json").read_bytes()
        == (scan_runs[1][0] / "scan_summary.json").read_bytes())
    _verdict("11", "repeat runs byte-identical",
             not bad and summaries_equal,
             f"{len(pairs)} CSV pairs compared"
             + (f"; mismatch: {bad}" if bad else ""))
