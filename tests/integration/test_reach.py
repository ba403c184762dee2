"""Reach guard: every production function is reached by a command.

One fresh interpreter installs ``sys.setprofile`` and
``threading.setprofile`` hooks, then imports ``repro`` and runs a fixed
set of CLI commands in process (``repro.__main__.main``), plus served
explorations and the ``/metrics``, ``/healthz`` and ``/readyz``
endpoints of an in-process :class:`~repro.serve.ExploreServer`. It
records which functions were called, by source file and first line. A
fresh interpreter keeps memoized state from other tests from hiding a
call, and a hook installed before the import also sees calls made at
import time (decorators, registries).

Every production module (any ``src/repro`` module outside
``repro.testing``) must be loaded by a command, and every function it
defines must be reached, or be on :data:`ALLOWLIST` as
``"module:qualname"`` with a reason (one check per module). An
allowlisted function that a command does reach must come off the list,
and the list may not grow past :data:`ALLOWLIST_CAP`. Code that no
command reaches is a failure path that only a fault plan drives, a test
oracle (which belongs in ``repro.testing``), or dead.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Functions, as ``"module relative to src/repro:qualname"``, that no
#: command reaches, with the reason each stays.
ALLOWLIST = {
    "__main__.py:_cmd_serve": (
        "installs SIGINT/SIGTERM handlers and serves until signalled; "
        "CI's serve and replica smokes run it (tests/unit/test_cli_serve.py "
        "its early error exits)"
    ),
    "__main__.py:_cmd_serve.<locals>._graceful": (
        "the SIGINT/SIGTERM handler of _cmd_serve"
    ),
    "ancilla/evaluation.py:StrategyReport.summary": (
        "strategy summary read by benchmarks/test_bench_fig4_error_rates.py "
        "and tests"
    ),
    "ancilla/rotations.py:SynthesizedRotation.length": (
        "summary of a synthesized word, read by tests and "
        "repro.testing.rotations.crz_decomposition_t_count"
    ),
    "ancilla/rotations.py:SynthesizedRotation.t_count": (
        "summary of a synthesized word, read by tests and "
        "repro.testing.rotations.crz_decomposition_t_count"
    ),
    "ancilla/rotations.py:recursive_rotation_expected_latency": (
        "Section 4.4.2's recursive construction, which the paper declines "
        "to use; benchmarks/test_bench_ablations.py compares it"
    ),
    "arch/architectures.py:GqlaConfig.__post_init__": (
        "Section 5.2's GQLA generalization; no command builds it "
        "(tests/unit/test_cli_gqla.py)"
    ),
    "arch/architectures.py:GqlaConfig.area_for": (
        "Section 5.2's GQLA generalization; no command builds it "
        "(tests/unit/test_cli_gqla.py)"
    ),
    "arch/architectures.py:GqlaConfig.per_qubit_area": (
        "Section 5.2's GQLA generalization; no command builds it "
        "(tests/unit/test_cli_gqla.py)"
    ),
    "arch/provisioning.py:AreaBreakdown.ancilla_fraction": (
        "area share read by the Table 9 benchmark, examples and tests"
    ),
    "arch/qalypso.py:QalypsoTile.pi8_bandwidth_per_ms": (
        "Section 5.3's teleport-QEC overhead and Qalypso tile rates, read "
        "by benchmarks/test_bench_ablations.py and "
        "tests/unit/test_qalypso.py"
    ),
    "arch/qalypso.py:QalypsoTile.zero_bandwidth_per_ms": (
        "Section 5.3's teleport-QEC overhead and Qalypso tile rates, read "
        "by benchmarks/test_bench_ablations.py and "
        "tests/unit/test_qalypso.py"
    ),
    "arch/qalypso.py:teleport_qec_ancilla_overhead": (
        "Section 5.3's teleport-QEC overhead and Qalypso tile rates, read "
        "by benchmarks/test_bench_ablations.py and "
        "tests/unit/test_qalypso.py"
    ),
    "arch/supply.py:AncillaSupply.ready_spec": (
        "typing.Protocol stub, never called"
    ),
    "arch/supply.py:DedicatedSupply.acquire": (
        "the per-gate supply form repro.testing.reference.run_reference "
        "replays as the engines' oracle; no engine calls it"
    ),
    "arch/supply.py:InfiniteSupply.acquire": (
        "the per-gate supply form repro.testing.reference.run_reference "
        "replays as the engines' oracle; no engine calls it"
    ),
    "arch/supply.py:InfiniteSupply.ready_spec": (
        "the speed-of-data supply a DataflowSimulator built without one "
        "gets; every command passes a supply (tests/unit/test_supply_spec.py)"
    ),
    "arch/supply.py:SteadyRateSupply.acquire": (
        "the per-gate supply form repro.testing.reference.run_reference "
        "replays as the engines' oracle; no engine calls it"
    ),
    "arch/supply.py:_RateCounter.acquire": (
        "the per-gate supply form repro.testing.reference.run_reference "
        "replays as the engines' oracle; no engine calls it"
    ),
    "arch/sweep.py:area_to_reach": (
        "Figure 15 summaries read by "
        "benchmarks/test_bench_fig15_arch_sweep.py and tests"
    ),
    "arch/sweep.py:plateau_makespan": (
        "Figure 15 summaries read by "
        "benchmarks/test_bench_fig15_arch_sweep.py and tests"
    ),
    "circuits/circuit.py:Circuit.__repr__": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.__getitem__": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.copy": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.count": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.depth": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.extend": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.gate_counts": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.gates": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.non_transversal_count": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.qubits_used": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.rz": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/circuit.py:Circuit.s": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/circuit.py:Circuit.sdg": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/circuit.py:Circuit.swap": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/circuit.py:Circuit.two_qubit_count": (
        "Circuit container API the kernel and protocol tests read"
    ),
    "circuits/circuit.py:Circuit.x": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/circuit.py:Circuit.y": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/circuit.py:Circuit.z": (
        "gate shorthand, one per gate type; no kernel emits this gate"
    ),
    "circuits/gate.py:Gate.describe": (
        "error messages of invalid gates and circuits"
    ),
    "circuits/gate.py:Gate.is_transversal": (
        "gate classification read by tests/unit/test_gate.py"
    ),
    "codes/css.py:CssCode.__str__": (
        "[[7,1,3]] code API read by tests/unit/test_css.py and "
        "test_steane.py"
    ),
    "codes/css.py:CssCode.correction_from_x_syndrome": (
        "[[7,1,3]] code API read by tests/unit/test_css.py and "
        "test_steane.py"
    ),
    "codes/css.py:CssCode.parameters": (
        "[[7,1,3]] code API read by tests/unit/test_css.py and "
        "test_steane.py"
    ),
    "codes/css.py:gf2_in_rowspace": (
        "[[7,1,3]] code API read by tests/unit/test_css.py and "
        "test_steane.py"
    ),
    "error/montecarlo.py:MonteCarloResult.error_rate_interval": (
        "Wilson interval the engine-agreement tests and the protocol "
        "benchmark compare"
    ),
    "error/montecarlo.py:_NoRng.__getattr__": (
        "guard: raises if a trial draws randomness before a fault fires"
    ),
    "error/pauli.py:PauliFrame.__eq__": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.__hash__": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.__repr__": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.copy": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.multiply": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.num_qubits": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.pauli_on": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.support": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/pauli.py:PauliFrame.weight": (
        "scalar Pauli-frame engine (ROADMAP 3): frame helpers the "
        "propagation tests read"
    ),
    "error/propagation.py:_propagate_cz": (
        "scalar Pauli-frame engine (ROADMAP 3): no protocol circuit has S, "
        "CZ or SWAP"
    ),
    "error/propagation.py:_propagate_s": (
        "scalar Pauli-frame engine (ROADMAP 3): no protocol circuit has S, "
        "CZ or SWAP"
    ),
    "error/propagation.py:_propagate_swap": (
        "scalar Pauli-frame engine (ROADMAP 3): no protocol circuit has S, "
        "CZ or SWAP"
    ),
    "explore/errors.py:LeaseHeld.__init__": (
        "failure taxonomy: constructed on failure paths only (tests/faults)"
    ),
    "explore/evaluator.py:Evaluation.failure": (
        "failure path: the quarantined result of a point that keeps raising "
        "(tests/faults)"
    ),
    "explore/evaluator.py:Evaluator._await_contested": (
        "contested lease: another live evaluator holds the point "
        "(tests/faults/test_leases.py)"
    ),
    "explore/evaluator.py:Evaluator._evaluate_one_serial": (
        "failure path: per-point retry once a batch raised (tests/faults)"
    ),
    "explore/evaluator.py:Evaluator.canonical_key": (
        "the dedup key perfbench's serve check and traffic_mix.py read; "
        "explore() reads CanonicalPoint.key"
    ),
    "explore/evaluator.py:evaluate_design_points": (
        "the local reference perfbench's serve check compares served "
        "results with (4-argument call); every command evaluates through "
        "Evaluator"
    ),
    "explore/objectives.py:Objective.score": (
        "typing.Protocol stub, never called"
    ),
    "explore/objectives.py:objective_names": (
        "error message of an unknown name; the CLI's choices reject it "
        "first"
    ),
    "explore/space.py:DesignSpace.dimension": (
        "perfbench's serve workload reads the arch axis through it"
    ),
    "explore/store.py:ResultStore._stale": (
        "failure path: ages a temp file a killed writer left (fsck)"
    ),
    "explore/store.py:ResultStore.hold": (
        "context-managed claim raising LeaseHeld; "
        "tests/faults/test_leases.py drives it"
    ),
    "explore/store.py:ResultStore.lease_owner": (
        "failure path: reads a lease that outlived its command (cache "
        "stats, LeaseHeld)"
    ),
    "explore/strategies.py:Strategy.ask": (
        "typing.Protocol stub, never called"
    ),
    "explore/strategies.py:Strategy.tell": (
        "typing.Protocol stub, never called"
    ),
    "factory/pipelined.py:PipelinedZeroFactory.bandwidth_per_area": (
        "factory summaries read by the Table 6/8 and Figure 11 benchmarks "
        "and tests"
    ),
    "factory/pipelined.py:PipelinedZeroFactory.serial_latency_us": (
        "factory summaries read by the Table 6/8 and Figure 11 benchmarks "
        "and tests"
    ),
    "factory/pipelined.py:PipelinedZeroFactory.unit_counts": (
        "factory summaries read by the Table 6/8 and Figure 11 benchmarks "
        "and tests"
    ),
    "factory/simple.py:SimpleZeroFactory.replicated_area_for_bandwidth": (
        "factory summaries read by the Table 6/8 and Figure 11 benchmarks "
        "and tests"
    ),
    "factory/t_factory.py:Pi8Factory.unit_counts": (
        "factory summaries read by the Table 6/8 and Figure 11 benchmarks "
        "and tests"
    ),
    "factory/t_factory.py:Pi8Factory.zero_ancilla_demand_per_ms": (
        "factory summaries read by the Table 6/8 and Figure 11 benchmarks "
        "and tests"
    ),
    "kernels/analysis.py:KernelAnalysis.non_transversal_fraction": (
        "kernel summary read by examples/quickstart.py and tests"
    ),
    "kernels/qrca.py:QrcaRegisters.data_ancillae": (
        "register layout read by tests/unit/test_qrca.py"
    ),
    "obs/metrics.py:Gauge.inc": (
        "metric kinds no production metric uses yet "
        "(tests/unit/test_obs.py)"
    ),
    "obs/metrics.py:Registry.reset": (
        "test isolation: clears the process-wide registry between tests"
    ),
    "obs/metrics.py:histogram": (
        "metric kinds no production metric uses yet "
        "(tests/unit/test_obs.py)"
    ),
    "obs/trace.py:Tracer.export_jsonl": (
        "JSON-lines trace export read by tests/unit/test_obs.py"
    ),
    "serve/client.py:RequestError.__init__": (
        "failure path: a server's terminal 4xx"
    ),
    "serve/client.py:ServerOverloaded.__init__": (
        "failure path: a server shedding load with 429"
    ),
    "serve/client.py:_retry_after": (
        "failure path: a server shedding load with 429"
    ),
    "serve/pool.py:CircuitBreaker.opens": (
        "breaker and replica introspection read by "
        "tests/unit/test_serve_pool.py"
    ),
    "serve/pool.py:ReplicaSet.__len__": (
        "breaker and replica introspection read by "
        "tests/unit/test_serve_pool.py"
    ),
    "serve/pool.py:ReplicaSet.breaker": (
        "breaker and replica introspection read by "
        "tests/unit/test_serve_pool.py"
    ),
    "serve/pool.py:ReplicaSet.names": (
        "breaker and replica introspection read by "
        "tests/unit/test_serve_pool.py"
    ),
    "serve/protocol.py:encode_error": (
        "failure path: the body of a 4xx/5xx response"
    ),
    "serve/protocol.py:error_message": (
        "failure path: the body of a 4xx/5xx response"
    ),
    "serve/server.py:_Handler._refuse": (
        "failure path: sheds a request past the admission bound or while "
        "draining"
    ),
    "tech/params.py:TechnologyParams.scaled": (
        "technology what-ifs (the tech_scale dimension, "
        "examples/technology_whatif.py); no CLI option sets them"
    ),
    "tech/params.py:TechnologyParams.with_errors": (
        "technology what-ifs (the tech_scale dimension, "
        "examples/technology_whatif.py); no CLI option sets them"
    ),
    "util/backoff.py:Backoff.ceiling": (
        "retry backoff: sleeps only after a failure (evaluator and client "
        "retries)"
    ),
    "util/backoff.py:Backoff.delay": (
        "retry backoff: sleeps only after a failure (evaluator and client "
        "retries)"
    ),
    "util/backoff.py:Backoff.sleep": (
        "retry backoff: sleeps only after a failure (evaluator and client "
        "retries)"
    ),
    "util/lazy.py:lazy_exports.<locals>.__dir__": (
        "dir() of a lazy package; tests/unit/test_import_layers.py"
    ),
}

#: The most entries :data:`ALLOWLIST` may hold. Lower it when an entry
#: goes; never raise it.
ALLOWLIST_CAP = 101

#: CLI commands traced in process. ``{store}`` is the result-store root
#: and ``{tmp}`` a temporary directory.
COMMANDS = [
    ["list"],
    ["all"],
    ["run", "table3"],
    # A lease TTL this short makes the evaluator heartbeat its leases
    # between simulation groups.
    ["explore", "qcla-8", "--budget", "6", "--cache-dir", "{store}",
     "--lease-ttl", "0.001"],
    ["explore", "qft-8", "--code-level", "2", "3", "--strategy", "adaptive",
     "--budget", "24", "--cache-dir", "{store}"],
    ["explore", "qcla-8", "--objective", "ancilla_quality",
     "--mc-trials", "2000", "--cache-dir", "{store}"],
    ["explore", "qrca-8", "--strategy", "random", "--objective", "latency",
     "--code-level", "1", "2", "--budget", "6", "--cache-dir", "{store}",
     "--max-area", "1e6", "--max-latency-ms", "1e3"],
    ["explore", "qrca-8", "--strategy", "adaptive", "--objective", "area",
     "--budget", "16", "--cache-dir", "{store}",
     "--trace", "{tmp}/trace.json", "--metrics", "{tmp}/metrics.prom"],
    ["explore", "qrca-8", "--strategy", "adaptive", "--objective", "area",
     "--budget", "16", "--cache-dir", "{store}", "--resume"],
    ["explore", "qrca-8", "--budget", "4", "--cache-dir", "{store}",
     "--metrics", "{tmp}/metrics.json"],
    ["cache", "stats", "--cache-dir", "{store}"],
    ["cache", "fsck", "--cache-dir", "{store}"],
    ["cache", "stats"],  # the default root, in the working directory
    ["profile", "fig8"],
    ["cache", "clear", "--cache-dir", "{store}"],
]

#: Explorations served by an in-process server at ``{live}``; ``{dead}``
#: is a URL nothing listens on. The first fails over from the dead
#: replica (its breaker opens) with hedging on; the second loses its
#: only replica, degrades to local evaluation and probes it through
#: ``try_recover`` once the breaker's cooldown has passed.
SERVED = [
    ["explore", "qcla-8", "--budget", "6", "--server", "{dead}",
     "--server", "{live}", "--server-retries", "0",
     "--breaker-threshold", "1", "--hedge-after", "30", "--no-cache"],
    ["explore", "qcla-8", "--strategy", "random", "--budget", "12",
     "--server", "{dead}", "--server-retries", "0",
     "--breaker-threshold", "1", "--breaker-cooldown", "0.001",
     "--no-cache"],
]

_DRIVER = r"""
import contextlib, inspect, io, json, socket, sys, threading, warnings

commands, served, roots = json.loads(sys.argv[1])
reached = set()
CO_NEWLOCALS = inspect.CO_NEWLOCALS


def hook(frame, event, arg):
    # Function calls only: module and class bodies run at import time,
    # and comprehensions or lambdas run there too.
    if event == "call":
        code = frame.f_code
        if code.co_flags & CO_NEWLOCALS and not code.co_name.startswith("<"):
            reached.add((code.co_filename, code.co_firstlineno))


def run(argv, **names):
    for name, value in names.items():
        argv = [arg.replace("{" + name + "}", value) for arg in argv]
    if main(argv) != 0:
        raise SystemExit(f"command failed: {argv}")


threading.setprofile(hook)
sys.setprofile(hook)
from repro.__main__ import main
from repro.explore import ResultStore
from repro.serve import Client, ExploreServer, ExploreService

warnings.simplefilter("ignore")
sink = io.StringIO()
try:
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            run(argv, store=roots["store"], tmp=roots["tmp"])
        # Served: ExploreServer directly, because ``repro serve`` installs
        # signal handlers.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = "http://127.0.0.1:%d" % probe.getsockname()[1]
        server = ExploreServer(ExploreService(store=ResultStore(roots["serve"])))
        server.start_background()
        try:
            for argv in served:
                run(argv, live=server.url, dead=dead)
            client = Client(server.url)
            if not (client.health() and client.ready() and client.metrics()):
                raise SystemExit("server endpoints failed")
        finally:
            server.shutdown(drain_timeout=5.0)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
print(json.dumps({"functions": sorted(reached), "modules": sorted(sys.modules)}))
"""


PACKAGE = (SRC / "repro").resolve()


def _production_modules():
    """Every ``src/repro`` module outside ``repro.testing``, as a path
    relative to ``src/repro``."""
    return sorted(
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if path.relative_to(PACKAGE).parts[0] != "testing"
    )


def _module_name(module):
    parts = ["repro"] + module[: -len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _functions(path):
    """``{first line: qualname}`` for every function ``path`` defines.

    The first line is what ``co_firstlineno`` reports (the first
    decorator's line for a decorated function); qualnames follow
    Python's, with ``<locals>`` for functions nested in functions.
    """
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                found[line] = qualname
                visit(child, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def unreached_functions(reached, modules=None):
    """``module:qualname`` of every production function not reached."""
    return {
        f"{module}:{qualname}"
        for module in (modules or _production_modules())
        for line, qualname in _functions(PACKAGE / module).items()
        if (module, line) not in reached
    }


def trace_commands(tmp_path):
    """Run the traced commands in a fresh interpreter.

    Returns the functions they reach in ``src/repro``, as ``(path
    relative to src/repro, first line)`` pairs, and the names of the
    modules loaded by the end.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CACHE_DIR", None)
    roots = {
        name: str(tmp_path / name) for name in ("store", "serve", "tmp")
    }
    Path(roots["tmp"]).mkdir()
    args = json.dumps([COMMANDS, SERVED, roots])
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    reached = set()
    for name, line in traced["functions"]:
        path = Path(name).resolve()
        if PACKAGE in path.parents:
            reached.add((path.relative_to(PACKAGE).as_posix(), line))
    return reached, set(traced["modules"])


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    return trace_commands(tmp_path_factory.mktemp("reach"))


def test_allowlist_is_capped_and_explained():
    assert len(ALLOWLIST) <= ALLOWLIST_CAP
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_every_production_module_is_reached(trace):
    """Every production module is loaded by some command."""
    _, loaded = trace
    missing = sorted(
        module for module in _production_modules()
        if _module_name(module) not in loaded
    )
    assert not missing, (
        f"production modules no command loads; delete them or move them "
        f"into repro.testing: {missing}"
    )


@pytest.mark.parametrize("module", _production_modules())
def test_every_engine_function_is_reached(trace, module):
    """Every function of ``module`` is reached by a command or is on
    :data:`ALLOWLIST`."""
    reached, _ = trace
    missing = sorted(unreached_functions(reached, [module]) - set(ALLOWLIST))
    assert not missing, (
        "production functions no command reaches; delete them, move them "
        f"into repro.testing, or allowlist them with a reason: {missing}"
    )


def test_allowlisted_functions_are_unreached(trace):
    reached, _ = trace
    stale = sorted(set(ALLOWLIST) - unreached_functions(reached))
    assert not stale, (
        "allowlisted functions that a command reaches, or that are gone; "
        f"drop them from ALLOWLIST and lower ALLOWLIST_CAP: {stale}"
    )
