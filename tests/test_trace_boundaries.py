"""The benchmark's traced runs wrap every layer boundary of the library.

``benchmarks/tracing.py`` replaces each function listed in its
``BOUNDARIES`` table wherever the library binds it. A binding the table does
not list -- say a new ``from .channels import sample_channel`` in another
module -- would otherwise fail only in a traced benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_boundary_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "benchmarks"), str(ROOT / "src")]))
    code = "import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
