"""One run of a workload in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC_JSON``, where the spec holds the
checkout root, the output directory, the CLI jobs (a name and an argument
list whose output directory reads ``@OUT@``), a ``mode`` and the measuring
window in seconds.  Set-up is importing the package (with numpy and scipy)
from the checkout's ``src`` and validating every job's config; mode
``setup`` stops there.  Modes ``plain`` and ``trace`` then run passes, one
``cli.main`` call per job each, writing pass ``i`` into ``<out>/pass_<i>``.
Passes repeat while the next one, at the median pass time so far, still
ends within the window, and there are at least ``MIN_PASSES``.  The last
line of standard output is a JSON object with the monotonic time set-up
ended, the wall time and exit codes of every pass, the peak RSS at the end
of the first pass and, when traced, the per-layer figures of every pass.
"""

from __future__ import annotations

import configparser
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

MIN_PASSES = 2
OUT_TOKEN = "@OUT@"


def _sections(argv: list[str]) -> tuple[str, dict]:
    """Command and merged config sections of one CLI argument list."""
    command = argv[0]
    cp = configparser.ConfigParser(interpolation=None)
    with open(argv[argv.index("--config") + 1]) as fh:
        cp.read_file(fh)
    sections = {sec: dict(cp.items(sec)) for sec in cp.sections()}
    for i, arg in enumerate(argv):
        if arg == "--set":
            head, _, value = argv[i + 1].partition("=")
            sec, _, key = head.partition(".")
            sections.setdefault(sec, {})[key] = value
    return command, sections


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    from toda_spectra import cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "toda_spectra").resolve():
        print(f"imported toda_spectra from {cli.__file__}, not the checkout",
              file=sys.stderr)
        return 3
    for _, argv in spec["jobs"]:
        cli.parse_run_config(*_sections(argv))
    ready = time.monotonic()
    result = {"ready": ready}
    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        walls, codes, layers = [], [], []
        out = Path(spec["out"])
        start = time.monotonic()
        while len(walls) < MIN_PASSES or (
                time.monotonic() - start + statistics.median(walls)
                <= spec["seconds"]):
            pass_dir = out / f"pass_{len(walls):03d}"
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            codes.append([cli.main([str(pass_dir / name) if a == OUT_TOKEN else a
                                    for a in argv])
                          for name, argv in spec["jobs"]])
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracer))
            if len(walls) == 1:
                # what one CLI call per job in a fresh process peaks at
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(walls=walls, codes=codes, peak_rss_mb=peak_mb)
        if tracer is not None:
            result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
