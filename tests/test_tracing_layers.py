"""The benchmark's per-layer tracer names functions of ``tableaux`` by
module and attribute; every name must still resolve, or a traced benchmark
run crashes.  Its work counters read the results of the wrapped functions,
so a traced run must also still count."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"

# ``install`` rebinds module globals of ``tableaux``, so it runs in a child
# interpreter, as the benchmark's traced run does.
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import tableaux.cli as cli
spec = importlib.util.spec_from_file_location("_bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    exits = [cli.main(argv.split()) for argv in sys.argv[2:]]
print(json.dumps({"exits": exits, "metrics": tracer.metrics()}))
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    missing = []
    for module_name, attr, _span, _count in _load_tracing().LAYERS:
        module = importlib.import_module("tableaux." + module_name)
        owner, _, name = attr.rpartition(".")
        # methods are looked up in the class dict, as the tracer does
        found = (name in vars(getattr(module, owner, object))) if owner \
            else callable(getattr(module, name, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def _traced(*argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), *argvs],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(done.stdout)


def test_traced_run_counts_laurent_expansions():
    # k + l = 3 + 2 is odd, so the strict series carries a zero variable and
    # expands as a sum of several fractions
    result = _traced("verify polycomponent --k 2 --n 2",
                     "verify skew-polycomponent --sigma 2,1 --k 3 --n 4",
                     "count --graph strict --k 3 --to-partition 3,1 --method phi")
    assert result["exits"] == [0, 0, 0]
    assert result["metrics"]["laurent.expand.calls"] > 0
    assert result["metrics"]["laurent.expand.terms_out"] > 0
    # the phi count takes no limit, so these calls are the identity suite's
    assert result["metrics"]["laurent.evaluate_with_limits.calls"] > 0


def test_traced_formula_count_evaluates_limits():
    # the strict pairs check takes the paper's anchored limit through the
    # same evaluator as the identity suite; a strict count takes the
    # Pfaffian, which takes no limit
    result = _traced("verify pairs --graph strict --k 3 --deg 6 --pairs 20")
    assert result["exits"] == [0]
    assert result["metrics"]["laurent.evaluate_with_limits.calls"] > 0
    result = _traced(
        "count --graph strict --k 3 --to-partition 3,1 --method formula")
    assert result["exits"] == [0]
    assert result["metrics"]["laurent.evaluate_with_limits.calls"] == 0
