"""The package's public names, and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import qsimplex

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    missing = [name for name in qsimplex.__all__ if not hasattr(qsimplex, name)]
    assert not missing
    assert len(set(qsimplex.__all__)) == len(qsimplex.__all__)


def test_import_loads_no_heavy_module():
    # the benchmark's setup_s times a fresh `import qsimplex`; these modules
    # load only when a command, suite or classical solve needs them
    lazy = ("qsimplex.verify", "qsimplex.cli", "qsimplex.instances",
            "scipy.linalg", "scipy.optimize", "jsonschema")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = f"import sys, qsimplex; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
