"""Time the scan's circle evaluation plus Gram blocks: graded against uniform.

For each delta of the near-critical {3,6} scan (zeta_2 = 0.01, J = 70,
blocks q = 1 and 2, alpha = 2, beta = 1), this times

* the graded table as ``scan_path`` builds it: ``CirclePowerTable`` on nodes
  graded toward z_*, doubled until its coefficient check and both blocks'
  aliasing contracts hold, the blocks included;
* the uniform grid it replaces, sized as the scan sized it before: at
  least 4096 points and twice the order M + J, where the entries' tail
  eta^M, eta = rho_*^(-2s), falls below tail_tol = 1e-12; then the same two
  blocks.  Grids past ``MAX_CIRCLE_GRID`` are recorded as refused, not
  timed.  The uniform table runs this code: the same radius ramp and Gram
  assembly, but its 128-coefficient check is now a weighted sum (about 10%
  of its time at 2**20 points) where it was one FFT.

Each figure is the median of ``--repeats`` runs; the largest difference of
the two blocks relative to max|G| is recorded with it.  The result, with
the machine (nproc, numpy, BLAS), goes to BENCH_graded_quadrature.json at
the repository root.  Run from anywhere:

    python3 scripts/bench_graded.py --repeats 3
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import cmath
import json
import math
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from toda_spectra import (CirclePowerTable, Leaf, ParamPoint, RenormConfig,
                          critical_parameter, dominant_data, gram_block,
                          series_engine)

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
    cutoff = max(64, math.ceil(math.log(CFG.tail_tol) / math.log(eta)))
    return max(2047, cutoff + CFG.J)


def _graded(p, z_star):
    blocks = {}

    def accept(table):
        for q in QS:
            blocks[q] = gram_block(table, replace(CFG, q=q), use_weights=True)

    table = CirclePowerTable(p, 0, z_star, accept)
    return table, blocks


def _uniform(p, order):
    table = CirclePowerTable(p, order)
    return table, {q: gram_block(table, replace(CFG, q=q), use_weights=True)
                   for q in QS}


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
    args = parser.parse_args(argv)

    zc = critical_parameter(lambda t: ParamPoint(LEAF, (t, ZETA2)), 0.05, 0.2,
                            order=250)
    points = []
    for delta in DELTAS:
        p = ParamPoint(LEAF, (zc * (1.0 - delta), ZETA2))
        dom = dominant_data(p, 250)
        z_star = dom.rho_star**LEAF.s * cmath.exp(1j * dom.phi)
        (table, graded), t_graded = _timed(lambda: _graded(p, z_star),
                                           args.repeats)
        row = {"delta": delta, "epsilon": dom.rho_star - 1.0,
               "graded": {"n_grid": table.n_grid,
                          "doublings": table.doublings,
                          "depth": table.depth, "seconds": t_graded}}
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

    timed = [r for r in points if "seconds" in r["previous"]]
    result = {
        "benchmark": "graded_quadrature",
        "what": "circle evaluation plus the q = 1, 2 Gram blocks of one scan "
                "point, median seconds",
        "command": "python3 scripts/bench_graded.py --repeats "
                   f"{args.repeats}",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "blas": _blas(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "points": points,
        "total_seconds": {
            "graded": sum(r["graded"]["seconds"] for r in timed),
            "previous": sum(r["previous"]["seconds"] for r in timed),
            "deltas": [r["delta"] for r in timed]},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
