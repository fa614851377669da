"""Time the growth layer: univalence margin, moment quadrature and one
moment-driven march, against the code they replaced.

For each case (the leaf {2} at r = 1, a = 0.05, and the leaf {3,6} at
r = 1, a = (0.05, 0.005)) this times three calls of
``toda_spectra.laplacian_growth``:

* ``univalence_margin``: the minimum of |f'| on a cached 2048-node circle
  grid, refined by safeguarded Newton on |f'|^2;
* ``harmonic_moments``: one evaluation of the integrands on the cached
  doubled grid, the n-node check read off its even nodes;
* ``march``: ``MomentDriver.state(1.0)`` on a fresh driver from the case's
  initial state, the finite-difference moment Newton included.

``previous`` is the same call with the replaced code patched back in:
circle grids and monomials rebuilt on every call, the moments evaluated
separately on n and 2n nodes (``tests/moment_oracle.py``), and the margin
refined by a 48-step golden-section search (``tests/margin_oracle.py``).
Each figure is the median over ``--repeats`` runs of the mean time per call
in a batch.  With them go the largest margin difference relative to
r + sum |(s_n - 1) a_n|, whether the moments and the marched state agree to
the bit, and the machine (nproc, numpy, BLAS).  The result goes to
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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import numpy as np

from bench_graded import _blas
from margin_oracle import golden_margin
from moment_oracle import boundary_factors, two_pass_moments
from toda_spectra import Leaf, MomentDriver, ParamPoint, initial_state
from toda_spectra import laplacian_growth as lg
from toda_spectra.errors import QuadratureNotConverged

CASES = {
    "leaf2": (Leaf((2,)), 1.0, (0.05,)),
    "leaf36": (Leaf((3, 6)), 1.0, (0.05, 0.005)),
}
BATCH = {"univalence_margin": 200, "harmonic_moments": 200, "march": 5}


def _previous_moments(r, a, leaf, k_set=None, *, n_quad=lg.N_QUAD_DEFAULT):
    coarse, fine = two_pass_moments(r, a, leaf, n_quad)
    if np.max(np.abs(fine - coarse) / (1.0 + np.abs(fine))) > lg.QUAD_TOL:
        raise QuadratureNotConverged("moment quadrature changed on doubling")
    return fine


@contextlib.contextmanager
def _previous_code():
    saved = (lg._boundary_factors, lg.harmonic_moments, lg.univalence_margin)
    lg._boundary_factors = boundary_factors
    lg.harmonic_moments = _previous_moments
    lg.univalence_margin = golden_margin
    try:
        yield
    finally:
        (lg._boundary_factors, lg.harmonic_moments,
         lg.univalence_margin) = saved


def _per_call(fn, batch, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            out = fn()
        times.append((time.perf_counter() - t0) / batch)
    return out, statistics.median(times)


def _calls(leaf, r, a, init):
    return {
        "univalence_margin": lambda: lg.univalence_margin(r, a, leaf),
        "harmonic_moments": lambda: lg.harmonic_moments(r, a, leaf),
        "march": lambda: MomentDriver(init).state(1.0),
    }


def _case(leaf, r, a, repeats):
    init = initial_state(ParamPoint(leaf, tuple(x / r for x in a), r=r))
    now, before = {}, {}
    for name, fn in _calls(leaf, r, a, init).items():
        now[name] = _per_call(fn, BATCH[name], repeats)
    with _previous_code():
        for name, fn in _calls(leaf, r, a, init).items():
            before[name] = _per_call(fn, BATCH[name], repeats)
    scale = r + sum(abs((s - 1) * x) for s, x in zip(leaf.exponents, a))
    st_now, st_before = now["march"][0], before["march"][0]
    return {
        "leaf": list(leaf.exponents), "r": r, "a": list(a),
        "calls": {name: {"seconds": now[name][1],
                         "previous": {"seconds": before[name][1]},
                         "speedup": before[name][1] / now[name][1],
                         "batch": BATCH[name]}
                  for name in BATCH},
        "margin_rel_diff": abs(now["univalence_margin"][0]
                               - before["univalence_margin"][0]) / scale,
        "moments_bit_identical": bool(np.array_equal(
            now["harmonic_moments"][0].view(np.float64),
            before["harmonic_moments"][0].view(np.float64))),
        "march_state_bit_identical": (st_now.r == st_before.r
                                      and st_now.a == st_before.a
                                      and st_now.moments == st_before.moments),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=str(ROOT / "BENCH_growth_layer.json"))
    args = parser.parse_args(argv)

    cases = {}
    for name, (leaf, r, a) in CASES.items():
        cases[name] = _case(leaf, r, a, args.repeats)
        print(name, json.dumps(cases[name]), file=sys.stderr)
    result = {
        "benchmark": "growth_layer",
        "what": "median seconds per call of laplacian_growth.univalence_margin, "
                "harmonic_moments and MomentDriver.state(1.0) on a fresh "
                "driver; previous = grids rebuilt per call, two quadrature "
                "passes, golden-section margin",
        "command": f"python3 scripts/bench_growth.py --repeats {args.repeats}",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "blas": _blas(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
