"""Benchmark of the toda_spectra CLI: end-to-end timings and a traced split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

A run first times the set-up of a few fresh interpreters (``worker.py``
in ``setup`` mode), then starts one more that runs the workload's CLI jobs
in passes for ``--seconds`` (at least two passes, so that determinism is
checked on every run); its peak RSS is read at the end of its first pass.
Every pass's outputs are checked against computations made apart from the
program (``checks.py``) and must be byte-identical across passes.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run (``tracer.py``) with
``--trace 1``.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 4
# --threads 1 runs single-threaded; pin BLAS to match, so that another
# tenant on a shared core cannot stall a multi-threaded matmul
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {"cli.bytes_written": "B", "traced_wall_s": "s",
               "hessian_blocks.gram_block.accepted_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark could not run (not a wrong result of the program)."""


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def _spawn(spec: dict) -> tuple[dict, float]:
    """Run one worker to its end; (its result, monotonic spawn time)."""
    env = dict(os.environ, **SINGLE_THREAD)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1]), t_spawn


def _digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every output file (path and bytes), and the byte count."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 zeta2: float) -> dict:
    jobs = workloads.build(name, seed, zeta2)
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)

    def spec(mode: str) -> dict:
        return {"root": str(ROOT), "mode": mode, "out": str(out),
                "seconds": seconds,
                "jobs": [[job.name, job.argv(worker.OUT_TOKEN)] for job in jobs]}

    setups = []
    for _ in range(SETUP_PROBES):
        res, t_spawn = _spawn(spec("setup"))
        setups.append(res["ready"] - t_spawn)

    res, t_spawn = _spawn(spec("trace" if trace else "plain"))
    peak_mb = res["peak_rss_mb"]
    setups.append(res["ready"] - t_spawn)
    walls = res["walls"]
    attempted = failed = 0
    problems, digests = [], set()
    sizes = []
    for i, codes in enumerate(res["codes"]):
        pass_dir = out / f"pass_{i:03d}"
        for job, code in zip(jobs, codes):
            a, f, bad = checks.check_job(job, pass_dir / job.name, code)
            attempted += a
            failed += f
            problems += bad
        digest, size = _digest(pass_dir)
        digests.add(digest)
        sizes.append(size)
    if len(digests) != 1:
        problems.append(f"outputs differ between passes ({len(digests)} variants)")
    for msg in problems[:20]:
        print(f"[perfbench] CHECK FAILED {msg}", file=sys.stderr)
    print(f"[perfbench] {name}: {len(walls)} passes, wall median"
          f" {statistics.median(walls):.3f} s (min {min(walls):.3f},"
          f" max {max(walls):.3f}), peak {peak_mb:.1f} MB, set-up median"
          f" {statistics.median(setups):.3f} s", file=sys.stderr)

    if trace:
        layers = [dict(lay, **{"cli.bytes_written": size, "traced_wall_s": wall})
                  for lay, size, wall in zip(res["layers"], sizes, walls)]
        metrics = {k: {"value": statistics.median(r[k] for r in layers),
                       "unit": _layer_unit(k)} for k in layers[0]}
    else:
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_mb,
                  "setup_s": statistics.median(setups)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _preflight() -> None:
    """Refuse to run outside a checkout that holds the package and configs."""
    need = [ROOT / "src" / "toda_spectra" / "cli.py", ROOT / workloads.SCAN_CONFIG]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.is_file()]
    if missing:
        raise BenchError(f"not a toda_spectra checkout: missing {', '.join(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--zeta2", type=float, default=workloads.ZETA2_DEFAULT,
                        help="centre of the scans' fixed zeta_2 (default 0.01)")
    args = parser.parse_args(argv)
    # a terminated run unwinds through _spawn, which stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print(f"[perfbench] python {platform.python_version()}, nproc {os.cpu_count()},"
          f" BLAS threads pinned to 1", file=sys.stderr)
    try:
        _preflight()
        names = (workloads.WORKLOADS if args.workload == "all"
                 else (args.workload,))
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.zeta2)
                   for name in names}
    except BenchError as exc:
        print(f"[perfbench] error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        for name, res in results.items():
            print(f"{name}: {json.dumps(res)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
