"""End-to-end publish->deliver benchmark (see README.md in this directory).

The package is importable two ways: as ``benchmarks.e2e`` from the repo
root (``python -m benchmarks.e2e.run``, pytest) and through the script
``benchmarks/e2e/run.py``.  Either way the library under test is the
uninstalled ``src/repro`` tree, so make it importable when the caller
did not set ``PYTHONPATH=src``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
