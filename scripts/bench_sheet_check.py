"""Per-delta node count, time and peak memory of the two shipped scan configs.

For each delta of ``configs/scan_near_critical.ini`` and
``configs/scan_deep_diagnostic.ini``, fresh interpreters run that one
point as the ``scan`` command does: ``scan_path`` with the config's blocks
on one thread, BLAS on one thread.  Each runs the point ``--repeats``
times and reports the point's final circle grid (``n_grid``), the median
seconds of its runs and the process's peak RSS, import included.  The
process layout alone moves that peak by a few tenths of a MB, so
``--repeats`` processes run per delta, each with the environment padded by
a different length from 0 to 1.6 kB, and the figures are their medians.
The same runs on an earlier revision, extracted by ``git archive``, give
``previous``, the two sides alternating.  Both sides run from sibling
copies in one temporary directory, ``cur/src`` (the working tree's
``src``) and ``old/src``, so that their paths, which the interpreter holds
in memory, have the same length.  The result, with the machine (nproc,
numpy, BLAS), goes to BENCH_sheet_check.json at the repository root.  Run
from anywhere:

    python3 scripts/bench_sheet_check.py --previous 0448e29 --repeats 3
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark and ``--threads 1`` runs use; set before
# numpy is imported, and inherited by the workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("scan_near_critical", "scan_deep_diagnostic")


def _worker(src: str, config: str, index: int, repeats: int) -> None:
    """Run point ``index`` of ``config``'s grid with the package at ``src``
    and print its grid, median seconds and peak RSS as JSON."""
    sys.path.insert(0, src)
    import numpy as np

    from toda_spectra import ParamPoint, cli, critical_parameter, scan_path

    sections = cli._load_sections(str(ROOT / "configs" / f"{config}.ini"))
    v = cli.parse_run_config("scan", sections).values
    leaf, fixed = v["leaf"], tuple(v["fixed"])
    zc = critical_parameter(lambda t: ParamPoint(leaf, (t,) + fixed),
                            *v["crit_bracket"])
    delta = float(np.geomspace(v["delta_min"], v["delta_max"],
                               v["points"])[index])

    def path(d):
        return ParamPoint(leaf, (zc * (1.0 - d),) + fixed)

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        points = scan_path(path, [delta], v["blocks"], threads=1)
        times.append(time.perf_counter() - t0)
    if not all(pt.ok for pt in points):
        raise SystemExit(f"{config} delta={delta:g}: {points[0].status}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"delta": delta, "n_grid": points[0].n_grid,
                      "seconds": statistics.median(times),
                      "peak_rss_mb": peak}))


def _points(config: str) -> int:
    text = (ROOT / "configs" / f"{config}.ini").read_text()
    return next(int(line.split("=")[1]) for line in text.splitlines()
                if line.replace(" ", "").startswith("points="))


# the largest environment padding, in bytes
PAD_MAX = 1600


def _run(src: Path, config: str, index: int, repeats: int, pad: int) -> dict:
    env = dict(os.environ, BENCH_LAYOUT_PAD="x" * pad)
    out = subprocess.run(
        [sys.executable, __file__, "--worker", str(src), config, str(index),
         str(repeats)], check=True, capture_output=True, text=True, env=env)
    return json.loads(out.stdout)


def _median_runs(runs: list[dict]) -> dict:
    return {"n_grid": runs[0]["n_grid"],
            "seconds": statistics.median(r["seconds"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--previous",
                        help="git revision whose figures go to 'previous'")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_sheet_check.json"))
    parser.add_argument("--worker", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        src, config, index, repeats = args.worker
        _worker(src, config, int(index), int(repeats))
        return 0
    if not args.previous:
        parser.error("--previous is required")

    import numpy as np
    from bench_graded import _blas

    result = {
        "benchmark": "sheet_check",
        "what": "one scan point per fresh process, --repeats processes per "
                "delta and side with the environment padded by 0 to "
                f"{PAD_MAX} bytes: final circle grid, median seconds of "
                "scan_path on the point and median peak RSS of the processes",
        "command": f"python3 scripts/bench_sheet_check.py --previous "
                   f"{args.previous} --repeats {args.repeats}",
        "previous_revision": args.previous,
        "machine": {"nproc": os.cpu_count(), "numpy": np.__version__,
                    "blas": _blas(),
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "configs": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        cur, old = Path(tmp) / "cur", Path(tmp) / "old"
        shutil.copytree(ROOT / "src", cur / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        old.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                                  args.previous, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(old)], input=archive,
                       check=True)
        for config in CONFIGS:
            rows = []
            for i in range(_points(config)):
                runs, prevs = [], []
                for j in range(args.repeats):
                    pad = PAD_MAX * j // max(1, args.repeats - 1)
                    runs.append(_run(cur / "src", config, i, args.repeats,
                                     pad))
                    prevs.append(_run(old / "src", config, i, args.repeats,
                                      pad))
                row = {"delta": runs[0]["delta"], **_median_runs(runs),
                       "previous": _median_runs(prevs)}
                rows.append(row)
                print(json.dumps(row), file=sys.stderr)

            def total(get):
                return {"n_grid": sum(get(r)["n_grid"] for r in rows),
                        "seconds": sum(get(r)["seconds"] for r in rows),
                        "peak_rss_mb": max(get(r)["peak_rss_mb"]
                                           for r in rows)}

            result["configs"][config] = {
                "points": rows,
                "total": {**total(lambda r: r),
                          "previous": total(lambda r: r["previous"])}}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
