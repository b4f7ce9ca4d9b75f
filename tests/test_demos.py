"""Every script under ``demos/`` runs to completion.

Each runs in its own process from an empty temporary directory, importing
the package from ``src/``. The demos call library functions directly (e.g.
``filtering_demo.py`` ranks with ``rank_rows``, ``random_scores`` and
``keep_count``), so a renamed or re-signed function fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []  # a demo writes nothing where it is run
