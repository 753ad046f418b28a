"""The benchmark's per-layer tracer names functions of ``tableaux`` by
module and attribute; every name must still resolve, or a traced benchmark
run crashes."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


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
