"""Time the scan's circle evaluation: graded against uniform quadrature, and
seeded Newton against the radius ramp.

For each delta of the near-critical {3,6} scan (zeta_2 = 0.01, J = 70,
blocks q = 1 and 2, alpha = 2, beta = 1), this times

* the graded table as ``scan_path`` builds it: ``CirclePowerTable`` on nodes
  graded toward z_*, doubled until its coefficient check and both blocks'
  aliasing contracts hold, the blocks included;
* the uniform grid it replaces, sized as the scan sized it before: at
  least 4096 points and twice the order M + J, where the entries' tail
  eta^M, eta = rho_*^(-2s), falls below TAIL_TOL = 1e-12; then the same two
  blocks.  Grids past ``MAX_CIRCLE_GRID`` are recorded as refused, not
  timed.  The uniform table runs this code: the same seeded circle
  evaluation and Gram assembly, but its coefficient check is now a
  weighted sum where it was one FFT (about 10% of its time at 2**20
  points, when the check read 128 coefficients);
* on the nodes the graded table's final grid holds (the closed half
  0..n/2, as zeta is real), the branch values: seeded, by
  ``series_engine._branch_values`` from the order-250 Taylor polynomial or
  the square-root germ of the point's ``DominantData``, against the 36-stage
  radius ramp it replaced, kept as the test oracle ``tests/ramp_oracle.py``.

Each figure is the median of ``--repeats`` runs.  With the first two go
the largest difference of the blocks relative to max|G|, and the result
goes to BENCH_graded_quadrature.json; with the third the largest
difference of the values relative to 1 + max|U| and the Newton iterations
of the seeded solve, to BENCH_seeded_newton.json.  Both files, at the
repository root, record the machine (nproc, numpy, BLAS).  Run from
anywhere:

    python3 scripts/bench_graded.py --repeats 3
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np

from ramp_oracle import ramp_branch_values
from toda_spectra import (CirclePowerTable, Leaf, ParamPoint, RenormConfig,
                          critical_parameter, dominant_data, gram_block,
                          series_engine, taylor_branch)
from toda_spectra.hessian_blocks import TAIL_TOL

LEAF = Leaf((3, 6))
ZETA2 = 0.01
CFG = RenormConfig(q=1, s=3, J=70, alpha=2.0, beta=1.0)
QS = (1, 2)
# the near-critical workload's seven deltas, then the shipped scan's
# deepest point and two decades beyond it
DELTAS = tuple(float(d) for d in np.geomspace(5e-2, 5e-4, 7)) + (1e-4, 1e-5,
                                                                  1e-6)


def _uniform_order(rho_star: float) -> int:
    """Table order of the old uniform grid; 2047 and below gave 4096 points."""
    eta = rho_star ** (-2 * LEAF.s)
    cutoff = max(64, math.ceil(math.log(TAIL_TOL) / math.log(eta)))
    return max(2047, cutoff + CFG.J)


def _graded(p, dom, series):
    blocks = {}

    def accept(table):
        for q in QS:
            blocks[q] = gram_block(table, replace(CFG, q=q))

    table = CirclePowerTable(p, 0, dom, accept, series=series)
    return table, blocks


def _uniform(p, order):
    table = CirclePowerTable(p, order)
    return table, {q: gram_block(table, replace(CFG, q=q)) for q in QS}


def _seeded_row(p, dom, series, table, repeats):
    """Seeded and ramp values on the held nodes of ``table``'s grid."""
    n, z = table.n_grid, table.z
    (seeded, iters), t_seeded = _timed(
        lambda: series_engine._branch_values(p, z, series, dom), repeats)
    ramp, t_ramp = _timed(lambda: ramp_branch_values(p, z), repeats)
    return {"n_grid": n, "nodes_solved": len(z),
            "seeded": {"seconds": t_seeded, "newton_iterations": iters},
            "previous": {"seconds": t_ramp},
            "max_diff": float(np.abs(seeded - ramp).max()
                              / (1.0 + np.abs(ramp).max()))}


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_graded_quadrature.json"))
    parser.add_argument("--seeded-out",
                        default=str(ROOT / "BENCH_seeded_newton.json"))
    args = parser.parse_args(argv)

    zc = critical_parameter(lambda t: ParamPoint(LEAF, (t, ZETA2)), 0.05, 0.2)
    points, seeded_points = [], []
    for delta in DELTAS:
        p = ParamPoint(LEAF, (zc * (1.0 - delta), ZETA2))
        dom, series = dominant_data(p), taylor_branch(p, 250)
        (table, graded), t_graded = _timed(lambda: _graded(p, dom, series),
                                           args.repeats)
        row = {"delta": delta, "epsilon": dom.rho_star - 1.0,
               "graded": {"n_grid": table.n_grid,
                          "doublings": table.doublings,
                          "depth": table.depth, "seconds": t_graded}}
        seeded_points.append({"delta": delta, "epsilon": row["epsilon"],
                              **_seeded_row(p, dom, series, table,
                                            args.repeats)})
        order = _uniform_order(dom.rho_star)
        n_uniform = 2 ** math.ceil(math.log2(2 * (order + 1)))
        if n_uniform > series_engine.MAX_CIRCLE_GRID:
            row["previous"] = {"n_grid": n_uniform, "status": "GridTooLarge"}
        else:
            (table, uniform), t_uniform = _timed(lambda: _uniform(p, order),
                                                 args.repeats)
            row["previous"] = {"n_grid": table.n_grid, "seconds": t_uniform}
            row["max_rel_diff"] = max(
                float(np.abs(graded[q] - uniform[q]).max()
                      / np.abs(uniform[q]).max()) for q in QS)
        points.append(row)
        print(json.dumps(row), file=sys.stderr)

    command = f"python3 scripts/bench_graded.py --repeats {args.repeats}"
    machine = {"nproc": os.cpu_count(), "numpy": np.__version__,
               "blas": _blas(),
               "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
               "python": platform.python_version(),
               "platform": platform.platform()}
    timed = [r for r in points if "seconds" in r["previous"]]
    result = {
        "benchmark": "graded_quadrature",
        "what": "circle evaluation plus the q = 1, 2 Gram blocks of one scan "
                "point, median seconds",
        "command": command,
        "machine": machine,
        "points": points,
        "total_seconds": {
            "graded": sum(r["graded"]["seconds"] for r in timed),
            "previous": sum(r["previous"]["seconds"] for r in timed),
            "deltas": [r["delta"] for r in timed]},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    seeded = {
        "benchmark": "seeded_newton",
        "what": "branch values on the solved half of a scan point's final "
                "circle grid, median seconds; previous = the radius ramp",
        "command": command,
        "machine": machine,
        "points": seeded_points,
        "total_seconds": {
            "seeded": sum(r["seeded"]["seconds"] for r in seeded_points),
            "previous": sum(r["previous"]["seconds"] for r in seeded_points)},
        "max_diff": max(r["max_diff"] for r in seeded_points),
    }
    Path(args.seeded_out).write_text(json.dumps(seeded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
