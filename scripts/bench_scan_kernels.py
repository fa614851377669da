"""Time the scan point kernels against the loops they replaced.

On the {3,6} leaf with zeta_2 = 0.01, at delta = 5e-2, 5e-3 and 5e-4 below
the critical zeta_1, this times three pieces of one scan point:

* ``table``: ``CirclePowerTable(p, 0, dom, series=series)``, with the
  point's order-250 Taylor series as ``scan_path`` passes it, on the grid
  of its own checks (1024 nodes at each delta); its Taylor seed is
  evaluated by Paterson-Stockmeyer (``series_engine._taylor_values``);
* ``gram_block``: the q = 1 block at J = 70, whose rows come by doubling
  (``series_engine._power_rows``), on the grid the scan's blocks need
  (1024, 1024 and 2048 nodes);
* ``eigensolves``: the point's four solves (G and the deflated C of the
  blocks q = 1, 2), on the real parts of the blocks, as ``scan_path`` does
  for real zeta.

``previous`` is the same call with the loop of ``tests/loop_oracle.py``
in place of the table's seed kernel (a Horner step per coefficient),
``gram_block`` as it was (a product per row and per parity, each row
scaled by c_j in the loop, its lower triangle mirrored onto the upper),
and complex ``eigvalsh`` of the complex blocks.

Each figure is the median over ``--repeats`` runs of the mean time per call
in a batch.  With them go the largest changes of the outputs (samples,
blocks, eigenvalues, c_norm), whether the grids agree, and the machine
(nproc, numpy, BLAS).  The result goes to
BENCH_scan_kernels.json at the repository root.  Run from anywhere:

    python3 scripts/bench_scan_kernels.py --repeats 7
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import numpy as np

from bench_graded import _blas
from loop_oracle import horner_values
from toda_spectra import (CirclePowerTable, Leaf, ParamPoint, RenormConfig,
                          critical_parameter, dominant_data, gram_block,
                          log_scale, spike_vector, taylor_branch)
from toda_spectra import hessian_blocks, series_engine
from toda_spectra.errors import TailNotConverged
from toda_spectra.hessian_blocks import eigenvalues

LEAF = Leaf((3, 6))
ZETA2 = 0.01
DELTAS = (5e-2, 5e-3, 5e-4)
BLOCKS = [RenormConfig(q=q, s=3) for q in (1, 2)]
BATCH = {"table": 5, "gram_block": 5, "eigensolves": 20}


def _previous_gram_block(table, cfg):
    # gram_block as it was: per parity, J+1 rows by one product each, with
    # c_j applied row by row
    J, n = cfg.J, table.n_grid
    c = cfg.p_indices.astype(np.float64) ** -(1.0 + cfg.beta)
    real = table.half
    n_sum, norm = len(table.values), (2.0 / n if real else 1.0 / n)
    S = np.zeros((2, J + 1, J + 1))
    T = None if real else np.zeros((2, J + 1, J + 1))
    for lo in range(0, n_sum, series_engine.NODE_CHUNK):
        hi = min(lo + series_engine.NODE_CHUNK, n_sum)
        z, u, zdlog, weight = table.samples(lo, hi)
        v = u / cfg.alpha
        row = (np.sqrt(weight) * np.abs(1.0 + cfg.s * zdlog)
               * series_engine._int_pow_values(v, cfg.q))
        step = z * series_engine._int_pow_values(v, cfg.s)
        if real:
            if lo == 0:
                row[0] *= math.sqrt(0.5)
            if hi == n_sum:
                row[-1] *= math.sqrt(0.5)
        for parity in (0, 1):
            r, st = row[parity::2], step[parity::2]
            X = np.empty((J + 1, len(r)), dtype=np.complex128)
            for j in range(J + 1):
                np.multiply(r, c[j], out=X[j])
                r = r * st
            Xf = X.view(np.float64)
            S[parity] += Xf @ Xf.T
            if T is not None:
                P = Xf[:, 0::2] @ Xf[:, 1::2].T
                T[parity] += P - P.T
    G = norm * (S[0] + S[1])
    D = S[1] - S[0]
    if T is not None:
        G = G + 1j * (norm * (T[0] + T[1]))
        D = D + 1j * (T[1] - T[0])
    alias = norm * np.abs(D).max()
    if alias > math.sqrt(hessian_blocks.TAIL_TOL) * np.abs(G).max():
        raise TailNotConverged("half-grid Gram block differs")
    # the lower triangle mirrored onto the upper, the diagonal made real
    a = np.array(G, dtype=np.complex128)
    i, j = np.triu_indices(J + 1, k=1)
    a[i, j] = np.conj(a[j, i])
    a[np.diag_indices(J + 1)] = a.diagonal().real
    return a


@contextlib.contextmanager
def _previous_code():
    saved = series_engine._taylor_values, hessian_blocks.gram_block
    series_engine._taylor_values = horner_values
    hessian_blocks.gram_block = _previous_gram_block
    try:
        yield
    finally:
        series_engine._taylor_values, hessian_blocks.gram_block = saved


def _per_call(fn, batch, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            out = fn()
        times.append((time.perf_counter() - t0) / batch)
    return out, statistics.median(times)


def _eigensolves(grams, dom, real):
    # mu_1..mu_8 and c_norm of each block, as scan_path reads them
    _, L = log_scale(dom.rho_star, dom.s)
    out = []
    for cfg, G in zip(BLOCKS, grams):
        d, _ = spike_vector(dom, cfg)
        C = G - L * np.outer(d, d.conj())
        if real:
            G, C = G.real, C.real
        out.append((eigenvalues(G)[:8], float(np.abs(eigenvalues(C)).max())))
    return out


def _side(p, dom, series, repeats):
    table, t_table = _per_call(
        lambda: CirclePowerTable(p, 0, dom, series=series), BATCH["table"],
        repeats)
    # the blocks on the scan's grid, which their aliasing contract sizes
    scan_table = CirclePowerTable(
        p, 0, dom, lambda t: [gram_block(t, c) for c in BLOCKS],
        series=series)
    gram, t_gram = _per_call(lambda: hessian_blocks.gram_block(scan_table,
                                                               BLOCKS[0]),
                             BATCH["gram_block"], repeats)
    return table, scan_table, gram, t_table, t_gram


def _timing(now, before, batch):
    return {"seconds": now, "previous": {"seconds": before},
            "speedup": before / now, "batch": batch}


def _point(zc, delta, repeats):
    p = ParamPoint(LEAF, (zc * (1.0 - delta), ZETA2))
    dom, series = dominant_data(p), taylor_branch(p, 250)
    table, scan_table, gram, t_table, t_gram = _side(p, dom, series, repeats)
    with _previous_code():
        table0, scan_table0, gram0, t_table0, t_gram0 = _side(p, dom, series,
                                                              repeats)
    grams = [gram_block(scan_table, cfg) for cfg in BLOCKS]
    spectra, t_eig = _per_call(lambda: _eigensolves(grams, dom, True),
                               BATCH["eigensolves"], repeats)
    spectra0, t_eig0 = _per_call(lambda: _eigensolves(grams, dom, False),
                                 BATCH["eigensolves"], repeats)
    mu1 = max(mu[0] for mu, _ in spectra0)
    return {
        "delta": delta, "epsilon": dom.rho_star - 1.0,
        "n_grid": {"table": table.n_grid, "scan": scan_table.n_grid},
        "calls": {"table": _timing(t_table, t_table0, BATCH["table"]),
                  "gram_block": _timing(t_gram, t_gram0, BATCH["gram_block"]),
                  "eigensolves": _timing(t_eig, t_eig0,
                                         BATCH["eigensolves"])},
        "grid_identical": all(
            (t.n_grid, t.doublings, t.newton_iterations)
            == (t0.n_grid, t0.doublings, t0.newton_iterations)
            for t, t0 in ((table, table0), (scan_table, scan_table0))),
        "max_rel_diff": {
            "samples": float(np.abs(table.values - table0.values).max()
                             / np.abs(table0.values).max()),
            "gram_block": float(np.abs(gram - gram0).max()
                                / np.abs(gram0).max()),
            "mu_over_mu1": float(max(np.abs(a[0] - b[0]).max()
                                     for a, b in zip(spectra, spectra0))
                                 / mu1),
            "c_norm": max(abs(a[1] - b[1]) / b[1]
                          for a, b in zip(spectra, spectra0)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=str(ROOT / "BENCH_scan_kernels.json"))
    args = parser.parse_args(argv)

    zc = critical_parameter(lambda t: ParamPoint(LEAF, (t, ZETA2)), 0.05, 0.2)
    points = []
    for delta in DELTAS:
        points.append(_point(zc, delta, args.repeats))
        print(json.dumps(points[-1]), file=sys.stderr)
    result = {
        "benchmark": "scan_kernels",
        "what": "median seconds per call, at one {3,6} scan point per delta, "
                "of CirclePowerTable(p, 0, dom, series=taylor_branch(p, 250)), "
                "gram_block of the q = 1 "
                "block (J = 70) and the point's four eigensolves; previous = "
                "the Horner loop of tests/loop_oracle.py in place of "
                "_taylor_values, gram_block with one product per row and "
                "parity and its lower triangle mirrored, and complex "
                "eigvalsh",
        "command": f"python3 scripts/bench_scan_kernels.py --repeats "
                   f"{args.repeats}",
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "blas": _blas(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "points": points,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
