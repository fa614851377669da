"""Time the Taylor branch: series Newton against the order-by-order recursion.

For each case (the leaf {2} at zeta = 0.2; the leaf {3,6} at the real
zeta = (0.11, 0.01) and at the complex (0.11 e^{0.4i}, 0.01 e^{-0.2i}))
and each order (128, 200, 250, 1000, 1024, 4096), this times
``taylor_branch``, which runs Newton's method on truncated series, and the
recursion it replaced, kept as the test oracle ``tests/recursion_oracle.py``
(``previous``).  Each figure is the median of ``--repeats`` runs, after one
untimed run of each.  With them go the largest difference of the two
coefficient arrays relative to max|u|, and ``newton_slower``, true where
Newton took longer.  The result, with the machine it ran on (nproc, numpy,
BLAS), goes to BENCH_series_newton.json at the repository root.  Run from
anywhere:

    python3 scripts/bench_taylor.py --repeats 5
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import numpy as np

from bench_graded import _blas, _timed
from recursion_oracle import recursion_branch
from toda_spectra import Leaf, ParamPoint, taylor_branch

CASES = {
    "leaf2": ParamPoint(Leaf((2,)), (0.2,)),
    "leaf36_real": ParamPoint(Leaf((3, 6)), (0.11, 0.01)),
    "leaf36_complex": ParamPoint(Leaf((3, 6)), (0.11 * np.exp(0.4j),
                                                0.01 * np.exp(-0.2j))),
}
ORDERS = (128, 200, 250, 1000, 1024, 4096)


def _row(point, order, repeats):
    newton = lambda: taylor_branch(point, order)
    previous = lambda: recursion_branch(point, order)
    newton()
    previous()
    got, t_newton = _timed(newton, repeats)
    want, t_previous = _timed(previous, repeats)
    return {"order": order,
            "newton": {"seconds": t_newton},
            "previous": {"seconds": t_previous},
            "speedup": t_previous / t_newton,
            "newton_slower": t_newton > t_previous,
            "max_rel_diff": float(np.abs(got - want).max()
                                  / np.abs(want).max())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_series_newton.json"))
    args = parser.parse_args(argv)

    cases = {}
    for name, point in CASES.items():
        rows = []
        for order in ORDERS:
            rows.append(_row(point, order, args.repeats))
            print(name, json.dumps(rows[-1]), file=sys.stderr)
        cases[name] = {"leaf": list(point.leaf.exponents),
                       "zeta": [[z.real, z.imag] for z in point.zeta],
                       "orders": rows}
    every = [(name, r) for name, c in cases.items() for r in c["orders"]]
    result = {
        "benchmark": "series_newton",
        "what": "taylor_branch by series Newton with precision doubling, "
                "median seconds; previous = the order-by-order recursion",
        "command": f"python3 scripts/bench_taylor.py --repeats {args.repeats}",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "blas": _blas(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "cases": cases,
        "max_rel_diff": max(r["max_rel_diff"] for _, r in every),
        "newton_slower": [{"case": name, "order": r["order"]}
                          for name, r in every if r["newton_slower"]],
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
