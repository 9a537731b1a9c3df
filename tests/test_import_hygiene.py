"""Cold start: the package imports without networkx and without scipy.stats.

A clean ``pip install -e .`` brings numpy and scipy only; scipy.stats
alone costs about a second to import, so nothing on the import path
loads it at module level.  The CLI entry point resolves only the
experiments it runs, so importing it loads neither the engine nor the
serving tier.  Each check runs in a fresh interpreter.
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


_CLI_PROBE = textwrap.dedent(
    """
    import sys
    import repro.__main__

    loaded = sorted(
        m for m in ("repro.engine", "repro.serve") if m in sys.modules
    )
    assert not loaded, f"loaded by importing the CLI: {loaded}"
    """
)


def _run(probe: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_imports_without_networkx_or_scipy_stats():
    proc = _run(_PROBE)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_lazy_experiments_unresolved():
    proc = _run(_CLI_PROBE)
    assert proc.returncode == 0, proc.stderr
