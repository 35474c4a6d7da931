"""The benchmark's trace sites still name live cograph functions.

bench/spans.py wraps (module, attribute) pairs of cograph and binds the
wrapped calls' arguments by parameter name; a rename in the library would
otherwise surface only when the benchmark runs with tracing on. The file
is read and executed here, never installed.
"""

import importlib
import inspect
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# parameters each probe reads from the bound call
PROBE_PARAMS = {
    "_kind_probe": ("spec",),
    "_train_probe": ("model",),
    "_edge_flip_probe": ("g", "rate"),
    "_feature_flip_probe": ("g", "budget"),
    "_cotrain_probe": ("g",),
    "_workers_probe": ("config",),
}


def load_spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_trace_sites_resolve():
    for mod_name, attr, _, _ in load_spans().SITES:
        module = importlib.import_module(f"cograph.{mod_name}")
        assert callable(getattr(module, attr, None)), f"cograph.{mod_name}.{attr} is gone"


def test_probed_parameters_exist():
    for mod_name, attr, _, probe in load_spans().SITES:
        if probe is None:
            continue
        params = inspect.signature(getattr(importlib.import_module(f"cograph.{mod_name}"), attr)).parameters
        for name in PROBE_PARAMS[probe.__name__]:
            assert name in params, f"cograph.{mod_name}.{attr} lost parameter {name!r}"
