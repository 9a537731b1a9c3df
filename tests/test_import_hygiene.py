"""Cold start: the package imports without networkx and without scipy.stats.

A clean ``pip install -e .`` brings numpy and scipy only; scipy.stats
alone costs about a second to import, so nothing on the import path
loads it at module level.  Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = textwrap.dedent(
    """
    import importlib.abc
    import sys

    class Block(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "networkx" or name.startswith("networkx."):
                raise ImportError(f"{name} is not installed")
            return None

    sys.meta_path.insert(0, Block())
    import repro, repro.core, repro.harness, repro.serve, repro.engine

    loaded = sorted(
        m for m in ("scipy.stats", "networkx") if m in sys.modules
    )
    assert not loaded, f"loaded at import: {loaded}"

    from repro.rng import TestOutcome, run_battery

    assert callable(run_battery) and TestOutcome.__name__ == "TestOutcome"
    """
)


def test_imports_without_networkx_or_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
