"""Output checks made apart from the program.

Each check reads the CSV and summary files one CLI job wrote and compares
them with a closed form or with a property the method must have; none
compares against a stored copy of earlier output.  A check returns a list
of problems (empty when the output is right) and the job's operation
counts: scan cells, trajectory states and phase cells from the summary's
``points``, plus one operation each for the scaling fit, the threshold
solve and the gamma_c solve, with every entry of ``failures`` counted as
failed.  Checks look only at operations that did not fail.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(got - want) <= abs_tol + rel * abs(want)


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi] to machine precision."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# {3,6} leaf: characteristic point in closed form
#
# With v = u^3 the characteristic polynomial is 1 - 2 z1 v - 5 z2 v^2, the
# branch value is lambda = 1 + z1 v + z2 v^2 and rho_* = v^(1/3) / lambda.
# rho_* = 1 gives w = v^(1/3) as the root of 1.5 z2 w^6 + w - 1.5 and then
# z1c = (1 - 5 z2 v^2) / (2 v).


def zeta1_critical(z2: float) -> float:
    w = _bisect(lambda w: 1.5 * z2 * w**6 + w - 1.5, 0.0, 1.5)
    v = w**3
    return (1.0 - 5.0 * z2 * v * v) / (2.0 * v)


def rho_star(z1: float, z2: float) -> float:
    v = 1.0 / (z1 + math.sqrt(z1 * z1 + 5.0 * z2))
    return v ** (1.0 / 3.0) / (1.0 + z1 * v + z2 * v * v)


def _linfit(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares slope and R^2."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    slope = sxy / sxx
    icpt = my - slope * mx
    ss_res = sum((b - slope * a - icpt) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - my) ** 2 for b in y)
    return slope, 1.0 - ss_res / ss_tot


def check_scan(out: Path, summary: dict, params: dict) -> list[str]:
    bad = []
    z2 = params["zeta2"]
    zc = summary["zeta_critical_solved"]
    zc_ref = zeta1_critical(z2)
    if not _close(zc, zc_ref, 1e-10):
        bad.append(f"zeta_critical_solved {zc!r} != closed form {zc_ref!r}")
    cells: dict[tuple[float, int], list[dict]] = {}
    for row in _rows(out / "spectra.csv"):
        if row["status"] == "ok":
            cells.setdefault((float(row["delta"]), int(row["q"])), []).append(row)
    if not cells:
        bad.append("no successful scan cells")
    for (delta, q), rows in sorted(cells.items()):
        rows.sort(key=lambda r: int(r["k"]))
        tag = f"delta={delta:g},q={q}"
        eps_ref = rho_star(zc * (1.0 - delta), z2) - 1.0
        eps = float(rows[0]["epsilon"])
        if not _close(eps, eps_ref, 1e-10, 1e-15):
            bad.append(f"{tag}: epsilon {eps!r} != closed form {eps_ref!r}")
        mu = [float(r["mu"]) for r in rows]
        L, gamma, c_norm = (float(rows[0][k]) for k in ("L", "gamma", "c_norm"))
        # Weyl: G = L d d* + C with ||C|| = c_norm; G is positive semidefinite
        slack = 1e-9 * c_norm + 1e-12 * abs(mu[0])
        if abs(mu[0] - L * gamma) > c_norm + slack:
            bad.append(f"{tag}: |mu_1 - L Gamma| = {abs(mu[0] - L * gamma):.3e}"
                       f" exceeds c_norm {c_norm:.3e}")
        for k, m in enumerate(mu[1:], start=2):
            if m > c_norm + slack or m < -1e-12 * mu[0]:
                bad.append(f"{tag}: mu_{k} = {m:.3e} outside [0, c_norm={c_norm:.3e}]")
    for q in sorted({q for _, q in cells}):
        pts = sorted((d, float(rows[0]["mu"])) for (d, qq), rows in cells.items()
                     if qq == q)
        last = [(d, m) for d, m in pts if d <= 10.0 * pts[0][0]]
        if len(last) < 3:
            bad.append(f"q={q}: only {len(last)} points in the last decade")
            continue
        slope, r2 = _linfit([math.log(1.0 / d) for d, _ in last],
                            [m for _, m in last])
        if not (slope > 0.0 and r2 > 0.99):
            bad.append(f"q={q}: mu_1 vs log(1/delta) slope {slope:.3g}, R^2 {r2:.6f}")
    return bad


def check_lg_moments(out: Path, summary: dict, params: dict) -> list[str]:
    bad = []
    rows = _rows(out / "trajectory.csv")
    t0 = float(rows[0]["t_0"])
    t2 = float(rows[0]["t_2"])
    r0 = params.get("circle_r0")
    for row in rows:
        T = float(row["T"])
        if abs(float(row["t_2"]) - t2) > 1e-8:
            bad.append(f"T={T:g}: t_2 {row['t_2']} drifted from {t2!r}")
        if abs(float(row["t_0"]) - t0 - T) > 1e-8:
            bad.append(f"T={T:g}: t_0(T) - t_0(0) = {float(row['t_0']) - t0!r}")
        if r0 is not None and abs(float(row["r"]) - math.sqrt(r0 * r0 + T)) > 1e-9:
            bad.append(f"T={T:g}: circle radius {row['r']} != sqrt(r0^2 + T)")
    return bad


def check_lg_slice(out: Path, summary: dict, params: dict) -> list[str]:
    # zeta(T) = zeta0 + rate T meets 1/4 at T_c, where f = w + zeta/w has
    # univalence margin min |f'| = 1 - zeta = 3/4
    if "thresholds" not in summary:
        return []  # the failed solve is counted, not checked
    t_c = summary["thresholds"]["T_c"]
    margin = summary["thresholds"]["margin_at_Tc"]
    want = (0.25 - params["zeta0"]) / params["rate"]
    bad = []
    if t_c is None or abs(t_c - want) > params["t_tol"]:
        bad.append(f"T_c {t_c!r} != (1/4 - zeta0)/rate = {want!r}")
    if margin is None or abs(margin - 0.75) > 1e-6:
        bad.append(f"margin_at_Tc {margin!r} != 3/4")
    return bad


def check_pole(out: Path, summary: dict, params: dict) -> list[str]:
    bad = []
    for row in _rows(out / "phase.csv"):
        if row["error_code"]:
            continue
        b, c = float(row["b"]), float(row["c_or_gamma"])
        root = 2.0 * math.sqrt(c)
        want = min(abs(1.0 / (b + root)), abs(1.0 / (b - root)))
        if not _close(float(row["rho_char"]), want, 1e-12):
            bad.append(f"b={b:g},c={c:g}: rho_char {row['rho_char']} != {want!r}")
    contour = summary.get("contour") or []
    if not contour:
        bad.append("pole phase diagram has no unit-level contour")
    for b, c in contour:
        if abs(abs(b) + 2.0 * math.sqrt(c) - 1.0) > 1e-6:
            bad.append(f"contour point ({b!r}, {c!r}) has |b| + 2 sqrt(c) != 1")
    return bad


def check_log(out: Path, summary: dict, params: dict) -> list[str]:
    bad = []
    gamma_c = summary.get("gamma_c", {}).get("value", -math.inf)
    below = 0
    for row in _rows(out / "phase.csv"):
        if row["error_code"]:
            continue
        b, g = float(row["b"]), float(row["c_or_gamma"])
        tag = f"b={b:g},gamma={g:g}"
        pair = row["conjugate_pair"] == "true"
        if pair != (b < 4.0 * g):
            bad.append(f"{tag}: conjugate_pair={pair} on the wrong side of b = 4 gamma")
        xp, xm = float(row["abs_x_plus"]), float(row["abs_x_minus"])
        if pair and not _close(xp, xm, 1e-12):
            bad.append(f"{tag}: conjugate moduli {xp!r} and {xm!r} differ")
        if g < gamma_c:
            below += 1
            if not float(row["rho_char"]) > 1.0:
                bad.append(f"{tag}: rho_char {row['rho_char']} <= 1 below gamma_c")
    if not below and "gamma_c" in summary:
        bad.append("no log cell lies below gamma_c")
    return bad


CHECKS = {"scan": check_scan, "lg_moments": check_lg_moments,
          "lg_slice": check_lg_slice, "pole": check_pole, "log": check_log}

def _extra_ops(summary: dict) -> int:
    """Operations beyond the grid points: fit, threshold or gamma_c solve."""
    cfg = summary["config"]
    if summary["command"] == "scan":
        return 1
    if summary["command"] == "lg":
        return int(cfg["lg"]["detect"] == "true")
    if summary["command"] == "leaves":
        return int(cfg["leaves"]["gamma_c"] == "true")
    return 0


def check_job(job, out: Path, code: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one finished CLI job."""
    summary = json.loads((out / f"{job.command}_summary.json").read_text())
    failures = summary["failures"]
    attempted = summary["points"]["total"] + _extra_ops(summary)
    bad = []
    if code != (2 if failures else 0):
        bad.append(f"exit code {code} with {len(failures)} recorded failures")
    bad += CHECKS[job.check](out, summary, job.params)
    return attempted, len(failures), [f"{job.name}: {msg}" for msg in bad]
