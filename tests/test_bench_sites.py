"""The benchmark's trace sites still name live cograph functions.

bench/spans.py wraps (module, attribute) pairs of cograph and binds the
wrapped calls' arguments by parameter name; a rename in the library would
otherwise surface only when the benchmark runs with tracing on. The file
is read and executed here, never installed.
"""

import importlib
import inspect
import math
import os
import types
from pathlib import Path

from cograph import SubModelSpec, generate_synthetic
from cograph.nn import TrainHyper

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


def test_probes_run_under_the_tracer(tmp_path):
    """Every probe reads the objects it is given: a moved attribute (a
    state entry's iteration, a record's shortfall, Graph.edges) fails here
    rather than in a traced benchmark run."""
    spans = load_spans()
    lib = {
        m: importlib.import_module(f"cograph.{m}")
        for m in ("attacks", "cotrain", "experiment", "graph")
    }
    hyper = {"epochs": 10}
    g = generate_synthetic(n=120, C=3, p_in=0.15, p_out=0.02, m=16, feature_noise=0.1, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        lib["attacks"].dice_perturb(g, g.labels, 0.2, 0)
        mixed = lib["experiment"].AttackSetting("mixed", method="dice", rate=0.2, feature_ratio=0.5)
        attacked = lib["experiment"].apply_attack(g, mixed, 0, victim_hyper=TrainHyper(**hyper))
        split = lib["graph"].split_nodes(attacked, 0.1, 0.1, 0)
        specs = [SubModelSpec(kind=k, hyper=TrainHyper(**hyper)) for k in ("gcn", "f-mlp")]
        lib["cotrain"].cotrain(attacked, split, *specs, n_add=10, max_iters=1, seed=0)
        config = lib["experiment"].ExperimentConfig.from_dict(
            {
                "synthetic": dict(n=60, C=2, p_in=0.2, p_out=0.05, m=8, feature_noise=0.1, seed=5),
                "seeds": [0],
                "struct_model": {"kind": "gcn", "hyper": hyper},
                "feat_model": {"kind": "f-mlp", "hyper": hyper},
                "attacks": [{"name": "random", "method": "random", "rate": 0.1}],
                "n_add": 5,
                "max_iters": 1,
                "out_dir": str(tmp_path / "report"),
            }
        )
        report = lib["experiment"].run_experiment(config)
        lib["experiment"].emit_report(report, config.out_dir)
    finally:
        tracer.uninstall()
    assert not hasattr(lib["cotrain"].cotrain, "__wrapped__")  # the wrappers are gone
    assert report.summary["complete"]

    metrics = spans.layer_metrics(tracer.spans, ("gcn", "f-mlp"), os.getpid(), tracer.run)
    assert all(math.isfinite(v) for v in metrics.values())
    for name in (
        "cotrain.iterations",
        "cotrain.pseudo_labels_added",
        "attacks.edge_flips_realized_frac",
        "attacks.feature_bits_realized_frac",
        "models.predict_calls_per_fit",
        "experiment.emit_report_s",
    ):
        assert metrics[name] > 0, name
