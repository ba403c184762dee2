"""Reach guard: every production module is reached by a command.

One fresh interpreter runs a fixed set of CLI commands in process
(``repro.__main__.main``) under ``sys.setprofile`` and
``threading.setprofile``, plus one exploration served by an in-process
:class:`~repro.serve.ExploreServer`, and records which source files had
a function called. A fresh interpreter keeps memoized state from other
tests from hiding a call.

A production module (any ``src/repro`` module outside
``repro.testing`` that defines a function) with no function reached
must be on :data:`ALLOWLIST` with a reason; an allowlisted module that
a command does reach must come off the list. Code that no command
reaches is either deliberate public API, a test oracle (which belongs
in ``repro.testing``), or dead.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Unreached production modules, relative to ``src/repro``, with reasons.
ALLOWLIST = {
    "ancilla/zero_prep.py": (
        "the four Figure 4 strategy circuits; Monte Carlo grading builds "
        "its own (ROADMAP item 3 makes these the single description)"
    ),
    "circuits/dag.py": (
        "oracle for compiled.dataflow_metadata and public "
        "repro.critical_path"
    ),
    "kernels/classical.py": (
        "reversible-adder oracle for the kernel tests and "
        "examples/adder_at_speed_of_data.py"
    ),
    "codes/transversal.py": (
        "the Section 2.1 transversal-gate table, public as "
        "repro.codes.transversal_rule"
    ),
    "explore/errors.py": (
        "failure taxonomy: its exception constructors run only on the "
        "failure paths that tests/faults drives"
    ),
}

#: CLI commands traced in process; ``{store}`` is the result-store root.
COMMANDS = [
    ["list"],
    ["all"],
    ["explore", "qcla-8", "--budget", "6", "--cache-dir", "{store}"],
    ["explore", "qft-8", "--code-level", "1", "2", "--budget", "6",
     "--cache-dir", "{store}"],
    ["explore", "qcla-8", "--objective", "ancilla_quality",
     "--mc-trials", "2000", "--cache-dir", "{store}"],
    ["cache", "stats", "--cache-dir", "{store}"],
    ["cache", "fsck", "--cache-dir", "{store}"],
    ["profile", "fig8"],
]

_DRIVER = r"""
import contextlib, inspect, io, json, sys, threading

commands, store_root, serve_root = json.loads(sys.argv[1])
reached = set()
CO_NEWLOCALS = inspect.CO_NEWLOCALS


def hook(frame, event, arg):
    # Function calls only: module and class bodies run at import time,
    # and comprehensions or lambdas run there too.
    if event == "call":
        code = frame.f_code
        if code.co_flags & CO_NEWLOCALS and not code.co_name.startswith("<"):
            reached.add(code.co_filename)


from repro.__main__ import main
from repro.explore import ResultStore
from repro.serve import ExploreServer, ExploreService

threading.setprofile(hook)
sys.setprofile(hook)
sink = io.StringIO()
try:
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            argv = [arg.replace("{store}", store_root) for arg in argv]
            if main(argv) != 0:
                raise SystemExit(f"command failed: {argv}")
        # Served: ExploreServer directly, because ``repro serve`` installs
        # signal handlers.
        server = ExploreServer(ExploreService(store=ResultStore(serve_root)))
        server.start_background()
        try:
            argv = ["explore", "qcla-8", "--budget", "6",
                    "--server", server.url]
            if main(argv) != 0:
                raise SystemExit(f"command failed: {argv}")
        finally:
            server.shutdown(drain_timeout=5.0)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def _defines_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(tree)
    )


def _production_modules(package):
    modules = set()
    for path in package.rglob("*.py"):
        rel = path.relative_to(package).as_posix()
        if rel.split("/")[0] != "testing" and _defines_function(path):
            modules.add(rel)
    return modules


def _reached_modules(package, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DIR", None)
    args = json.dumps(
        [COMMANDS, str(tmp_path / "store"), str(tmp_path / "serve-store")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    files = json.loads(proc.stdout.strip().splitlines()[-1])
    reached = set()
    for name in files:
        path = Path(name).resolve()
        if package in path.parents:
            reached.add(path.relative_to(package).as_posix())
    return reached


def test_every_production_module_is_reached(tmp_path):
    assert len(ALLOWLIST) <= 5 and all(ALLOWLIST.values())
    package = (SRC / "repro").resolve()
    production = _production_modules(package)
    reached = _reached_modules(package, tmp_path)
    unreached = production - reached
    assert not unreached - set(ALLOWLIST), (
        "production modules no command reaches; delete them, move them "
        f"into repro.testing, or allowlist them with a reason: "
        f"{sorted(unreached - set(ALLOWLIST))}"
    )
    assert not set(ALLOWLIST) - unreached, (
        "allowlisted modules that are reached (or gone); drop them from "
        f"ALLOWLIST: {sorted(set(ALLOWLIST) - unreached)}"
    )

