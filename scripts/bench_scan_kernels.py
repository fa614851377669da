"""Time the scan point kernels against an earlier revision and against the
loops they replaced.

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

``previous`` is the same three calls on the package of the revision
``--previous``, extracted by ``git archive`` and imported under another
name; with them go the largest changes of the outputs (samples, blocks,
eigenvalues, c_norm) and whether the grids agree.  ``loops`` is the same
calls with the loop of ``tests/loop_oracle.py`` in place of the table's
seed kernel (a Horner step per coefficient), ``gram_block`` with a product
per row and per parity, each row scaled by c_j in the loop, its lower
triangle mirrored onto the upper, and complex ``eigvalsh`` of the complex
blocks.

Each figure is the median over ``--repeats`` runs of the mean time per call
in a batch.  The result, with the machine (nproc, numpy, BLAS), goes to
BENCH_scan_kernels.json at the repository root.  Run from anywhere:

    python3 scripts/bench_scan_kernels.py --previous 6c116e3 --repeats 7
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import importlib.util
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import numpy as np

import toda_spectra
from bench_graded import _blas
from loop_oracle import horner_values
from toda_spectra import critical_parameter
from toda_spectra import hessian_blocks, series_engine
from toda_spectra.errors import TailNotConverged

ZETA2 = 0.01
DELTAS = (5e-2, 5e-3, 5e-4)
BATCH = {"table": 5, "gram_block": 5, "eigensolves": 20}


def _previous_gram_block(table, cfg):
    # gram_block as it was: per parity, J+1 rows by one product each, with
    # c_j applied row by row
    J = cfg.J
    c = cfg.p_indices.astype(np.float64) ** -(1.0 + cfg.beta)
    S = np.zeros((2, J + 1, J + 1))
    T = None if table.half else np.zeros((2, J + 1, J + 1))
    for lo in range(0, len(table.values), series_engine.NODE_CHUNK):
        at = slice(lo, lo + series_engine.NODE_CHUNK)
        v = table.values[at] / cfg.alpha
        row = (np.sqrt(table.weight[at]) * np.abs(1.0 + cfg.s * table.zdlog[at])
               * series_engine._int_pow_values(v, cfg.q))
        step = table.z[at] * series_engine._int_pow_values(v, cfg.s)
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
    G = S[0] + S[1]
    D = S[1] - S[0]
    if T is not None:
        G = G + 1j * (T[0] + T[1])
        D = D + 1j * (T[1] - T[0])
    if np.abs(D).max() > math.sqrt(hessian_blocks.TAIL_TOL) * np.abs(G).max():
        raise TailNotConverged("half-grid Gram block differs")
    # the lower triangle mirrored onto the upper, the diagonal made real
    a = np.array(G, dtype=np.complex128)
    i, j = np.triu_indices(J + 1, k=1)
    a[i, j] = np.conj(a[j, i])
    a[np.diag_indices(J + 1)] = a.diagonal().real
    return a


@contextlib.contextmanager
def _loops():
    saved = series_engine._taylor_values, hessian_blocks.gram_block
    series_engine._taylor_values = horner_values
    hessian_blocks.gram_block = _previous_gram_block
    try:
        yield
    finally:
        series_engine._taylor_values, hessian_blocks.gram_block = saved


def _revision_package(rev: str, tmp: str):
    """The package of git revision ``rev``, imported as
    ``toda_spectra_previous`` (its imports within the package are
    relative)."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev,
                              "src/toda_spectra"],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
    path = Path(tmp) / "src" / "toda_spectra"
    spec = importlib.util.spec_from_file_location(
        "toda_spectra_previous", path / "__init__.py",
        submodule_search_locations=[str(path)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _per_call(fn, batch, repeats):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            out = fn()
        times.append((time.perf_counter() - t0) / batch)
    return out, statistics.median(times)


def _eigensolves(pkg, blocks, grams, dom, real):
    # mu_1..mu_8 and c_norm of each block, as scan_path reads them
    _, L = pkg.log_scale(dom.rho_star, dom.s)
    out = []
    for cfg, G in zip(blocks, grams):
        d, _ = pkg.spike_vector(dom, cfg)
        C = G - L * np.outer(d, d.conj())
        if real:
            G, C = G.real, C.real
        out.append((pkg.hessian_blocks.eigenvalues(G)[:8],
                    float(np.abs(pkg.hessian_blocks.eigenvalues(C)).max())))
    return out


def _side(pkg, zeta1, repeats, real=True):
    """Tables, the q = 1 block, the spectra and the three timings of one
    scan point, with ``pkg``'s kernels."""
    p = pkg.ParamPoint(pkg.Leaf((3, 6)), (zeta1, ZETA2))
    dom, series = pkg.dominant_data(p), pkg.taylor_branch(p, 250)
    blocks = [pkg.RenormConfig(q=q, s=3) for q in (1, 2)]
    table, t_table = _per_call(
        lambda: pkg.CirclePowerTable(p, 0, dom, series=series),
        BATCH["table"], repeats)
    # the blocks on the scan's grid, which their aliasing contract sizes
    scan_table = pkg.CirclePowerTable(
        p, 0, dom, lambda t: [pkg.gram_block(t, c) for c in blocks],
        series=series)
    gram, t_gram = _per_call(
        lambda: pkg.hessian_blocks.gram_block(scan_table, blocks[0]),
        BATCH["gram_block"], repeats)
    grams = [pkg.gram_block(scan_table, cfg) for cfg in blocks]
    spectra, t_eig = _per_call(
        lambda: _eigensolves(pkg, blocks, grams, dom, real),
        BATCH["eigensolves"], repeats)
    return {"tables": (table, scan_table), "gram": gram, "spectra": spectra,
            "dom": dom, "seconds": {"table": t_table, "gram_block": t_gram,
                                    "eigensolves": t_eig}}


def _point(zc, delta, repeats, previous):
    zeta1 = zc * (1.0 - delta)
    now = _side(toda_spectra, zeta1, repeats)
    before = _side(previous, zeta1, repeats)
    with _loops():
        loops = _side(toda_spectra, zeta1, repeats, real=False)
    mu1 = max(mu[0] for mu, _ in before["spectra"])
    table, scan_table = now["tables"]
    table0, scan_table0 = before["tables"]
    calls = {}
    for name, batch in BATCH.items():
        t, t0 = now["seconds"][name], before["seconds"][name]
        calls[name] = {"seconds": t, "previous": {"seconds": t0},
                       "speedup": t0 / t,
                       "loops": {"seconds": loops["seconds"][name]},
                       "batch": batch}
    return {
        "delta": delta, "epsilon": now["dom"].rho_star - 1.0,
        "n_grid": {"table": table.n_grid, "scan": scan_table.n_grid},
        "calls": calls,
        "grid_identical": all(
            (t.n_grid, t.doublings, t.newton_iterations)
            == (t0.n_grid, t0.doublings, t0.newton_iterations)
            for t, t0 in ((table, table0), (scan_table, scan_table0))),
        "max_rel_diff": {
            "samples": float(np.abs(table.values - table0.values).max()
                             / np.abs(table0.values).max()),
            "gram_block": float(np.abs(now["gram"] - before["gram"]).max()
                                / np.abs(before["gram"]).max()),
            "mu_over_mu1": float(max(np.abs(a[0] - b[0]).max()
                                     for a, b in zip(now["spectra"],
                                                     before["spectra"]))
                                 / mu1),
            "c_norm": max(abs(a[1] - b[1]) / b[1]
                          for a, b in zip(now["spectra"], before["spectra"])),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--previous", required=True,
                        help="git revision whose kernels give 'previous'")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", default=str(ROOT / "BENCH_scan_kernels.json"))
    args = parser.parse_args(argv)

    zc = critical_parameter(
        lambda t: toda_spectra.ParamPoint(toda_spectra.Leaf((3, 6)),
                                          (t, ZETA2)), 0.05, 0.2)
    points = []
    with tempfile.TemporaryDirectory() as tmp:
        previous = _revision_package(args.previous, tmp)
        for delta in DELTAS:
            points.append(_point(zc, delta, args.repeats, previous))
            print(json.dumps(points[-1]), file=sys.stderr)
    result = {
        "benchmark": "scan_kernels",
        "what": "median seconds per call, at one {3,6} scan point per delta, "
                "of CirclePowerTable(p, 0, dom, series=taylor_branch(p, 250)), "
                "gram_block of the q = 1 block (J = 70) and the point's four "
                "eigensolves; previous = the same calls on the package of "
                "previous_revision, with the largest output changes against "
                "it; loops = the Horner loop of tests/loop_oracle.py in place "
                "of _taylor_values, gram_block with one product per row and "
                "parity and its lower triangle mirrored, and complex eigvalsh",
        "command": f"python3 scripts/bench_scan_kernels.py --previous "
                   f"{args.previous} --repeats {args.repeats}",
        "previous_revision": args.previous,
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
