"""Import-layer guards: which modules an entry point loads.

Each check imports in a fresh interpreter, so modules that other tests
in the session already imported can neither hide nor fake a load.

Package ``__init__`` files export their public names lazily
(:mod:`repro.util.lazy`): importing a package loads none of its
submodules, so a command loads only what it uses. The lazy namespaces
must still resolve every public name the eager ones did.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


#: Submodules each package's eager ``__init__`` used to import, and so
#: exposed as attributes right after ``import <package>``.
EAGER_SUBMODULES = {
    "repro": (
        "ancilla", "arch", "circuits", "codes", "error", "factory",
        "kernels", "layout", "obs", "reporting", "tech",
    ),
    "repro.ancilla": ("cat", "evaluation", "rotations", "t_ancilla"),
    "repro.arch": (
        "architectures", "batched", "provisioning", "simulator", "supply",
        "sweep",
    ),
    "repro.circuits": ("circuit", "compiled", "dag", "gate", "latency"),
    "repro.codes": ("css", "steane", "transversal"),
    "repro.error": ("batched", "montecarlo", "pauli", "propagation"),
    "repro.explore": (
        "engine", "errors", "evaluator", "objectives", "space", "store",
        "strategies",
    ),
    "repro.factory": ("pipelined", "simple", "t_factory", "units"),
    "repro.kernels": ("analysis", "classical", "decompose", "qcla", "qft", "qrca"),
    "repro.layout": ("grid", "macroblock", "region", "schedules"),
    "repro.obs": ("metrics", "report", "trace"),
    "repro.reporting": ("figures", "registry", "tables"),
    "repro.serve": ("client", "pool", "protocol", "server"),
    "repro.tech": ("levels", "params"),
    "repro.testing": ("faults",),
    "repro.util": ("backoff",),
}
PACKAGES = sorted(EAGER_SUBMODULES)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter; its stdout parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _modules_loaded_by(*modules):
    return set(_run_fresh(
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))


def _modules_loaded_by_cli(*args):
    """Modules a real ``python -m repro <args>`` run imports, read from
    its ``-X importtime`` log (one ``... | <module>`` line per import)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *args],
        env=_env(), capture_output=True, text=True, check=True,
    )
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def _heavy(loaded):
    """Loaded modules a light entry point must not pull in."""
    return sorted(
        name for name in loaded
        if name.partition(".")[0] == "numpy"
        or name == "repro.arch" or name.startswith("repro.arch.")
    )


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


def test_cli_help_loads_no_numpy():
    loaded = _modules_loaded_by_cli("--help")
    assert "repro.reporting.registry" in loaded
    assert _heavy(loaded) == []


def test_cli_cache_fsck_loads_no_numpy(tmp_path):
    loaded = _modules_loaded_by_cli("cache", "fsck", "--cache-dir", str(tmp_path))
    assert "repro.explore.store" in loaded
    assert _heavy(loaded) == []


def test_store_and_package_load_no_numpy():
    assert _heavy(_modules_loaded_by("repro.explore.store")) == []
    assert _heavy(_modules_loaded_by("repro")) == []


def test_every_public_name_resolves():
    """Each package's ``__all__`` resolves through ``getattr`` (loading
    the providing module) and is listed by ``dir()``; each package is
    checked in its own fresh interpreter."""
    for package in PACKAGES:
        problems = _run_fresh(
            "import importlib, json\n"
            f"pkg = importlib.import_module({package!r})\n"
            "bad = [n for n in pkg.__all__ if n not in dir(pkg)]\n"
            "for name in pkg.__all__:\n"
            "    try:\n"
            "        getattr(pkg, name)\n"
            "    except Exception as exc:\n"
            "        bad.append(f'{name}: {exc!r}')\n"
            "print(json.dumps(bad))\n"
        )
        assert problems == [], package


def test_star_import():
    names = _run_fresh(
        "import json\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "import repro\n"
        "print(json.dumps(sorted(set(repro.__all__) - set(ns))))\n"
    )
    assert names == []


def test_unknown_name_raises_attribute_error():
    outcome = _run_fresh(
        "import importlib, json\n"
        "out = {}\n"
        f"for name in {PACKAGES!r}:\n"
        "    pkg = importlib.import_module(name)\n"
        "    try:\n"
        "        pkg.no_such_name\n"
        "    except Exception as exc:\n"
        "        out[name] = type(exc).__name__\n"
        "    out[name + ':hasattr'] = hasattr(pkg, 'no_such_name')\n"
        "print(json.dumps(out))\n"
    )
    for package in PACKAGES:
        assert outcome[package] == "AttributeError"
        assert outcome[package + ":hasattr"] is False


def test_eager_submodule_attributes_still_resolve():
    """``import repro.arch`` then ``repro.arch.sweep``, and so on for every
    submodule an eager ``__init__`` used to import."""
    for package, submodules in EAGER_SUBMODULES.items():
        resolved = _run_fresh(
            "import importlib, json\n"
            f"pkg = importlib.import_module({package!r})\n"
            f"print(json.dumps([getattr(pkg, s).__name__ for s in {list(submodules)!r}]))\n"
        )
        assert resolved == [f"{package}.{s}" for s in submodules]
