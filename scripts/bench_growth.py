"""Time the growth layer and the phase grids against the code they replaced.

For each growth case (the leaf {2} at r = 1, a = 0.05, and the leaf {3,6}
at r = 1, a = (0.05, 0.005)) this times two calls of
``toda_spectra.laplacian_growth``:

* ``march``: ``MomentDriver.state(1.0)`` on a fresh driver from the case's
  initial state, whose moment Newton runs on the residue sums with their
  complex-step Jacobian; ``previous`` is the Newton on 512-node quadrature
  residuals with a finite-difference Jacobian, one quadrature per unknown
  per iteration;
* ``univalence_margin``: its sign by the Schur-Cohn recursion;
  ``previous`` takes the sign from the moduli of ``np.roots``
  (``tests/margin_oracle.py``).

For the drivers of the two shipped ``lg`` configs (the {2} slice
zeta = 0.05 + 0.2 T of ``configs/lg_demo.ini`` up to T = 1.2, and the
moment trajectory from (r, a) = (1, 0.05) of ``configs/lg_onemode.ini``
up to T = 2, on a fresh driver each call) it times

* ``detect_thresholds``: the probes carry the certified dominant orbit
  from one to the next, and the slice's probes skip the moment
  quadrature; ``previous`` certifies every probe afresh and integrates
  the slice's moments at each.  Both reports must agree to the bit, and
  the calls of ``branch_points._ray_value`` per detection are counted.

For the two shipped phase grids (``configs/pole_phase.ini`` and
``configs/log_phase.ini``) it times

* ``phase_diagram``: ``explicit_leaves.phase_diagram``, one array kernel
  over the grid and one lockstep ``brentq`` over all bracketing columns;
  ``previous`` evaluates the grid cell by cell and solves each column by
  the scalar ``brentq`` (``tests/leaf_oracle.py``);
* ``write_csv``: ``cli.write_csv`` of the table's rows, one cached
  %-template per row type signature; ``previous`` renders every value on
  its own (``tests/csv_oracle.py``).

On the leaves {2}, {3}, {3,6}, {4,8,12}, {2,3} and {2,5}, at 20 random
complex points each with rho_* near 1, it times

* ``solve_characteristic``: ``branch_points.solve_characteristic``, one
  root of Q(w), w = (x lambda)^s, and one classification per s-orbit;
  ``previous`` solves P(u) and classifies every point
  (``tests/char_oracle.py``).  With it go the largest relative
  difference between the orbits' members and the previous points (x_*,
  lambda, kappa) and the number of points whose least modulus agrees to
  the bit.

It times ``explicit_leaves.gamma_c_solve(1e-5)``, one ``brentq`` on
rho_char(1, gamma) - 1; ``previous`` is the bisection it replaced, which
asks at each gamma whether a bounded minimization of rho_char over
interior b, or a Richardson limit toward b = 1, reaches below 1
(``tests/envelope_oracle.py``).  Both values and both counts of rho_char
evaluations are reported.

Each figure is the median over ``--repeats`` runs of the mean time per call
in a batch.  With them go the largest relative change of the marched state,
whether the margins agree to the bit, how far the phase tables and their
contours moved (flags and error codes must agree), whether the CSV bytes
agree, the number of sign disagreements between Schur-Cohn and
``np.roots`` over random states of five leaves, and the machine (nproc,
numpy, BLAS).  The result goes to
BENCH_growth_layer.json at the repository root.  Run from anywhere:

    python3 scripts/bench_growth.py --repeats 7
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import numpy as np

import leaf_oracle
from bench_graded import _blas
from char_oracle import characteristic_points
from csv_oracle import csv_text
from envelope_oracle import unit_level_attained
from margin_oracle import fprime_root_moduli
from toda_spectra import (Leaf, MomentDriver, ParamPoint, SliceDriver, cli,
                          initial_state)
from toda_spectra import branch_points as bp
from toda_spectra import explicit_leaves as el
from toda_spectra import laplacian_growth as lg
from toda_spectra.errors import NotBracketed

CASES = {
    "leaf2": (Leaf((2,)), 1.0, (0.05,)),
    "leaf36": (Leaf((3, 6)), 1.0, (0.05, 0.005)),
}
# (b_min, b_max, b_points), (second_min, second_max, second_points) of the
# shipped configs
GRIDS = {
    "pole": ((-0.9, 0.9, 37), (0.002, 0.6, 60)),
    "log": ((0.05, 0.95, 31), (0.02, 0.45, 44)),
}
# the threshold detections of the shipped lg configs: (fresh driver, t_max)
DETECT = {
    "lg_demo": (lambda: SliceDriver(Leaf((2,)), lambda t: 0.05 + 0.2 * t),
                1.2),
    "lg_onemode": (lambda: MomentDriver(initial_state(
        ParamPoint(Leaf((2,)), (0.05,), r=1.0))), 2.0),
}
BATCH = {"march": 5, "univalence_margin": 200, "phase_diagram": 1,
         "write_csv": 1, "gamma_c_solve": 10, "detect_thresholds": 3,
         "solve_characteristic": 5}
GAMMA_C_TOL = 1e-5
SIGN_LEAVES = [(2,), (3,), (2, 3), (3, 6), (4, 8, 12)]
SIGN_DRAWS = 2000
SOLVE_LEAVES = [(2,), (3,), (3, 6), (4, 8, 12), (2, 3), (2, 5)]
SOLVE_POINTS = 20


def _quadrature_residual(leaf, v, targets):
    rows = lg._integrands(float(v[0]), tuple(v[1:]), leaf, leaf.exponents,
                          lg.N_QUAD_DEFAULT)
    return lg._row_means(rows, leaf.exponents).real - targets


def _previous_newton(leaf, targets, seed, *, max_iter=30):
    # the moment Newton as it was: quadrature residuals and a forward-
    # difference Jacobian
    scale = 1.0 + np.abs(targets)
    v = np.array(seed, dtype=float)
    if v[0] <= 0.0:
        return None
    res = _quadrature_residual(leaf, v, targets)
    for _ in range(max_iter):
        if np.max(np.abs(res) / scale) < 1e-12:
            return v
        jac = np.empty((v.size, v.size))
        for j in range(v.size):
            h = 1e-7 * (1.0 + abs(v[j]))
            vp = v.copy()
            vp[j] += h
            jac[:, j] = (_quadrature_residual(leaf, vp, targets) - res) / h
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return None
        v = v - step
        if not np.all(np.isfinite(v)) or v[0] <= 0.0:
            return None
        res = _quadrature_residual(leaf, v, targets)
    if np.all(np.isfinite(res)) and np.max(np.abs(res) / scale) < lg.CONS_TOL:
        return v
    return None


def _previous_zeros_inside(coeffs):
    return bool(np.all(np.abs(np.roots(coeffs[::-1])) < 1.0))


def _previous_write_csv(path, header, rows):
    # every value rendered on its own
    cli._atomic_write(path, csv_text(header, rows))


def _previous_gamma_c_solve(tol, *, bracket=(0.1, 0.5)):
    # bisection of the attainment question, as gamma_c_solve did it
    lo, hi = bracket
    if unit_level_attained(lo) or not unit_level_attained(hi):
        raise NotBracketed(f"attainment does not change over [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if unit_level_attained(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


_dominant_data = bp.dominant_data


def _previous_dominant_data(p, *, points=None, near=None):
    # every probe certified afresh
    return _dominant_data(p, points=points)


@contextlib.contextmanager
def _previous_code():
    # detect_thresholds certifies through branch_points.critical_parameter,
    # which looks dominant_data up in branch_points
    saved = (lg._newton_moments, lg._zeros_inside, el.phase_diagram,
             cli.write_csv, el.gamma_c_solve, bp.dominant_data,
             SliceDriver.probe)
    lg._newton_moments = _previous_newton
    lg._zeros_inside = _previous_zeros_inside
    el.phase_diagram = leaf_oracle.phase_diagram
    cli.write_csv = _previous_write_csv
    el.gamma_c_solve = _previous_gamma_c_solve
    bp.dominant_data = _previous_dominant_data
    SliceDriver.probe = SliceDriver.state
    try:
        yield
    finally:
        (lg._newton_moments, lg._zeros_inside, el.phase_diagram,
         cli.write_csv, el.gamma_c_solve, bp.dominant_data,
         SliceDriver.probe) = saved


def _per_call(fn, batch, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            out = fn()
        times.append((time.perf_counter() - t0) / batch)
    return out, statistics.median(times)


def _row(calls, batch, repeats):
    """{name: (now, previous)}, each (last result, seconds per call)."""
    now = {name: _per_call(fn, batch[name], repeats)
           for name, fn in calls.items()}
    with _previous_code():
        before = {name: _per_call(fn, batch[name], repeats)
                  for name, fn in calls.items()}
    return {name: (now[name], before[name]) for name in calls}


def _timing(now, before, batch):
    return {"seconds": now[1], "previous": {"seconds": before[1]},
            "speedup": before[1] / now[1], "batch": batch}


def _case(leaf, r, a, repeats):
    init = initial_state(ParamPoint(leaf, tuple(x / r for x in a), r=r))
    calls = {"march": lambda: MomentDriver(init).state(1.0),
             "univalence_margin": lambda: lg.univalence_margin(r, a, leaf)}
    rows = _row(calls, BATCH, repeats)
    st_now, st_before = rows["march"][0][0], rows["march"][1][0]
    v_now = np.array([st_now.r, *np.real(st_now.a)])
    v_before = np.array([st_before.r, *np.real(st_before.a)])
    return {
        "leaf": list(leaf.exponents), "r": r, "a": list(a),
        "calls": {name: _timing(now, before, BATCH[name])
                  for name, (now, before) in rows.items()},
        "march_state_rel_diff": float(np.max(np.abs(v_now - v_before))
                                      / np.max(np.abs(v_before))),
        "margin_bit_identical": (rows["univalence_margin"][0][0]
                                 == rows["univalence_margin"][1][0]),
    }


def _ray_calls(fn):
    # branch_points._ray_value calls made by one call of fn
    count = 0
    inner = bp._ray_value

    def counted(*args):
        nonlocal count
        count += 1
        return inner(*args)

    bp._ray_value = counted
    try:
        fn()
    finally:
        bp._ray_value = inner
    return count


def _detect(name, repeats):
    make, t_max = DETECT[name]
    detect = lambda: lg.detect_thresholds(make(), t_max)
    now, before = _row({"detect_thresholds": detect}, BATCH,
                       repeats)["detect_thresholds"]
    rays = _ray_calls(detect)
    with _previous_code():
        previous_rays = _ray_calls(detect)
    return {"t_max": t_max,
            "calls": {"detect_thresholds": _timing(
                now, before, BATCH["detect_thresholds"])},
            "report": vars(now[0]),
            "reports_bit_identical": now[0] == before[0],
            "ray_calls": rays, "previous": {"ray_calls": previous_rays}}


def _solve(exps, repeats):
    leaf = Leaf(exps)
    rng = np.random.default_rng(0)
    points = [ParamPoint(leaf, tuple(
        rng.uniform(0.05, 0.4) ** (e / 2)
        * np.exp(1j * rng.uniform(-np.pi, np.pi)) for e in exps))
        for _ in range(SOLVE_POINTS)]
    batch = BATCH["solve_characteristic"]
    orbits, now = _per_call(
        lambda: [bp.solve_characteristic(p) for p in points], batch, repeats)
    previous, before = _per_call(
        lambda: [characteristic_points(p) for p in points], batch, repeats)
    worst, same_rho = 0.0, 0
    s = leaf.s
    for got, want in zip(orbits, previous):
        members = [(cp.x_star * np.exp(2j * np.pi * k / s), cp)
                   for cp in got for k in range(s)]
        for o in want:
            x, cp = min(members, key=lambda m: abs(m[0] - o.x_star)
                        + abs(m[1].lam - o.lam))
            # kappa's sign is fixed by Re kappa >= 0, unresolved near 0
            dk = min(abs(cp.kappa - o.kappa), abs(cp.kappa + o.kappa))
            worst = max(worst, abs(x - o.x_star) / o.modulus,
                        abs(cp.lam - o.lam) / abs(o.lam),
                        dk / max(abs(o.kappa), 1e-300))
        same_rho += int(got[0].modulus == want[0].modulus)
    return {"leaf": list(exps), "points": SOLVE_POINTS,
            "calls": {"solve_characteristic": _timing(
                (None, now / SOLVE_POINTS), (None, before / SOLVE_POINTS),
                batch)},
            "max_rel_diff": worst, "least_modulus_bit_identical": same_rho}


def _rel_diff(new, old):
    """Largest |new - old| / |old| over the entries not NaN in both."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    ok = ~(np.isnan(new) & np.isnan(old))
    if not ok.any():
        return 0.0
    return float(np.max(np.abs(new[ok] - old[ok]) / np.abs(old[ok])))


def _phase(kind, repeats, out_dir):
    (b_lo, b_hi, b_n), (s_lo, s_hi, s_n) = GRIDS[kind]
    bs, seconds = np.linspace(b_lo, b_hi, b_n), np.linspace(s_lo, s_hi, s_n)
    table = el.phase_diagram(kind, bs, seconds)
    path = out_dir / f"phase_{kind}.csv"
    rows = _row({"phase_diagram": lambda: el.phase_diagram(kind, bs, seconds),
                 "write_csv": lambda: cli.write_csv(path, cli.PHASE_HEADER,
                                                    table.cells)},
                BATCH, repeats)
    now, before = rows["phase_diagram"][0][0], rows["phase_diagram"][1][0]
    csv_bytes = path.read_bytes()
    _previous_write_csv(path, cli.PHASE_HEADER, table.cells)
    return {"grid": [b_n, s_n],
            "calls": {name: _timing(n, b, BATCH[name])
                      for name, (n, b) in rows.items()},
            "flags_and_codes_identical": (
                [(c.conjugate_pair, c.error_code) for c in now.cells]
                == [(c.conjugate_pair, c.error_code) for c in before.cells]),
            "values_max_rel_diff": _rel_diff([c[2:5] for c in now.cells],
                                             [c[2:5] for c in before.cells]),
            "contour_columns_identical": ([b for b, _ in now.contour]
                                          == [b for b, _ in before.contour]),
            "contour_max_rel_diff": _rel_diff([s for _, s in now.contour],
                                              [s for _, s in before.contour]),
            "csv_bytes_identical": csv_bytes == path.read_bytes()}


def _log_char_calls(fn):
    # rho_char evaluations of the log leaf made by one call of fn: calls
    # of the kernel, or of the scalar closed form the previous code asks
    count = 0

    def counting(inner):
        def counted(*args):
            nonlocal count
            count += 1
            return inner(*args)
        return counted

    saved = el._log_kernel, leaf_oracle.log_char
    el._log_kernel, leaf_oracle.log_char = map(counting, saved)
    try:
        fn()
    finally:
        el._log_kernel, leaf_oracle.log_char = saved
    return count


def _gamma_c(repeats):
    solve = lambda: el.gamma_c_solve(GAMMA_C_TOL)
    now, before = _row({"gamma_c_solve": solve}, BATCH,
                       repeats)["gamma_c_solve"]
    evaluations = _log_char_calls(solve)
    with _previous_code():
        previous_evaluations = _log_char_calls(solve)
    return {"tol": GAMMA_C_TOL,
            "calls": {"gamma_c_solve": _timing(now, before,
                                               BATCH["gamma_c_solve"])},
            "value": now[0], "evaluations": evaluations,
            "previous": {"value": before[0],
                         "evaluations": previous_evaluations}}


def _sign_disagreements(seed=0):
    # univalent and folded states alike: each |a_n| up to twice its share
    # of the one-mode cusp value, with a random phase
    rng = np.random.default_rng(seed)
    bad = 0
    for i in range(SIGN_DRAWS):
        leaf = Leaf(SIGN_LEAVES[i % len(SIGN_LEAVES)])
        exps = leaf.exponents
        r = rng.uniform(0.5, 2.0)
        share = np.array([r / (s - 1) for s in exps]) / len(exps)
        a = tuple(share * rng.uniform(0.0, 2.0, len(exps)) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, len(exps))))
        inside = bool(np.all(fprime_root_moduli(r, a, leaf) < 1.0))
        bad += (lg.univalence_margin(r, a, leaf) > 0.0) != inside
    return {"draws": SIGN_DRAWS, "leaves": SIGN_LEAVES, "disagreements": bad}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=str(ROOT / "BENCH_growth_layer.json"))
    args = parser.parse_args(argv)

    cases = {}
    for name, (leaf, r, a) in CASES.items():
        cases[name] = _case(leaf, r, a, args.repeats)
        print(name, json.dumps(cases[name]), file=sys.stderr)
    for name in DETECT:
        cases[f"detect_{name}"] = _detect(name, args.repeats)
        print(name, json.dumps(cases[f"detect_{name}"]), file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for kind in GRIDS:
            cases[f"phase_{kind}"] = _phase(kind, args.repeats, Path(tmp))
            print(kind, json.dumps(cases[f"phase_{kind}"]), file=sys.stderr)
    for exps in SOLVE_LEAVES:
        name = "solve_" + "_".join(map(str, exps))
        cases[name] = _solve(exps, args.repeats)
        print(name, json.dumps(cases[name]), file=sys.stderr)
    cases["gamma_c"] = _gamma_c(args.repeats)
    print("gamma_c", json.dumps(cases["gamma_c"]), file=sys.stderr)
    result = {
        "benchmark": "growth_layer",
        "what": "median seconds per call of MomentDriver.state(1.0) on a "
                "fresh driver, laplacian_growth.univalence_margin, "
                "laplacian_growth.detect_thresholds on the drivers of the "
                "shipped lg configs, "
                "explicit_leaves.phase_diagram and cli.write_csv of its "
                "rows on the shipped grids, "
                "explicit_leaves.gamma_c_solve(1e-5), and "
                "branch_points.solve_characteristic on six leaves; "
                "previous = moment "
                "Newton on quadrature residuals with a finite-difference "
                "Jacobian, margin sign from np.roots, every detection probe "
                "certified afresh and the slice's moments integrated at "
                "each, the phase grid cell "
                "by cell with a scalar brentq per column, CSV values "
                "rendered one by one, gamma_c by bisecting a bounded "
                "interior minimum plus a Richardson limit toward b = 1, "
                "the characteristic system solved and classified point by "
                "point in u = x lambda",
        "command": f"python3 scripts/bench_growth.py --repeats {args.repeats}",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "blas": _blas(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "cases": cases,
        "margin_sign_vs_np_roots": _sign_disagreements(),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
