"""The benchmark's tracer (``perfbench/tracer.py``) wraps package functions
by the module attributes through which callers look them up.  Removing or
renaming one of those attributes must fail here, not only under
``python3 perfbench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_install_finds_every_traced_name():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys; sys.path[:0] = {paths!r}; "
            "import tracer; tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
