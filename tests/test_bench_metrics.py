"""Every per-function metric that BENCHMARK.json lists names a traced function.

A traced benchmark run reports `<module>.<function>.<stat>` only for the
functions `benchmarks/tracer.py` wraps: those `tracer.public_functions`
returns for `fanet.<module>`. `benchmarks/run.py` drops a listed metric that
no span produced without a word, so a function that leaves `__all__` (or a
kernel made private) would silently shorten the traced result line. Both
files are read, never written; the tracer is loaded from its file the way
`tests/test_bench_contract.py` loads the worker.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "benchmarks" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


LISTED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
PER_FUNCTION = [name for name in LISTED if name.count(".") == 2]


def test_some_listed_metrics_are_per_function():
    assert len(PER_FUNCTION) >= 10


@pytest.mark.parametrize("name", PER_FUNCTION)
def test_listed_function_is_traced(tracer, name):
    module, function, _ = name.split(".")
    traced = tracer.public_functions(importlib.import_module(f"fanet.{module}"))
    assert function in traced, f"{name}: fanet.{module}.{function} is not traced"
