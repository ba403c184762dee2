"""Import-layer guards: which modules an entry point loads.

Each check imports in a fresh interpreter, so modules that other tests
in the session already imported can neither hide nor fake a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _modules_loaded_by(*modules):
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout))


def test_entry_points_load_no_process_pool():
    """Evaluation is in-process: the explore package, the server and the
    CLI import neither ``multiprocessing`` nor ``concurrent.futures``."""
    loaded = _modules_loaded_by(
        "repro.explore", "repro.serve.server", "repro.__main__"
    )
    pooled = sorted(
        name for name in loaded
        if name.partition(".")[0] in ("multiprocessing", "concurrent")
    )
    assert pooled == []
