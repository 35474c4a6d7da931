"""Span tracing installed from the benchmark, around calls into cograph.

Library modules import each other with ``from .x import y``, so a caller
looks a function up in its *own* module namespace: ``train_submodel`` as
called by co-training is ``cograph.cotrain.train_submodel``, not
``cograph.models.train_submodel``. Every site below is therefore a
(module, attribute) pair naming where the caller looks, and the span name
names the layer that owns the function.

Spans are tuples (id, parent, name, start, end, run, pid, attrs) kept in
memory and written once at the end. Worker processes of the experiment
pool inherit the wrappers by fork; each traced cell returns its spans
attached to its result, and the parent adopts them, so no span is lost.
``time.perf_counter`` is the system-wide monotonic clock on Linux, so
parent and worker timestamps share one time base.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict

ID, PARENT, NAME, START, END, RUN, PID, ATTRS = range(8)
SHIPPED = "_bench_spans"  # attribute carrying a worker's spans back to the parent


def _kind_probe(a, result):
    return {"kind": a["spec"].kind}


def _train_probe(a, result):
    spec = a["model"].spec
    return {"kind": spec.kind, "epochs": spec.hyper.epochs}


def _edge_flip_probe(a, result):
    g = a["g"]
    return {
        "requested": int(round(a["rate"] * g.num_edges)),
        "realized": len(g.edges ^ result.edges),
    }


def _feature_flip_probe(a, result):
    return {"requested": int(a["budget"]), "realized": int((a["g"].X != result.X).sum())}


def _cotrain_probe(a, result):
    labels = a["g"].labels
    state = result[2]
    added = [(n, e.label) for n, e in state.entries.items() if e.iteration > 0]
    return {
        "iterations": state.iteration,
        "added": len(added),
        "correct": sum(1 for n, y in added if y == labels[n]),
        "conflicts": sum(r.conflicts for r in state.history),
        "shortfall": sum(sum(r.shortfall_struct) + sum(r.shortfall_feat) for r in state.history),
    }


def _workers_probe(a, result):
    return {"workers": a["config"].threads}


# (module under cograph, attribute the caller looks up, span name, probe)
SITES = (
    ("graph", "make_graph", "graph.make_graph", None),
    ("io", "make_graph", "graph.make_graph", None),
    ("graph", "split_nodes", "graph.split_nodes", None),
    ("experiment", "split_nodes", "graph.split_nodes", None),
    ("models", "normalized_adjacency", "graph.normalized_adjacency", None),
    ("io", "load_graph_dir", "io.load_graph_dir", None),
    ("experiment", "load_graph_dir", "io.load_graph_dir", None),
    ("models", "smlp_features", "views.smlp_features", None),
    ("views", "laplacian_eigenmaps", "views.laplacian_eigenmaps", None),
    ("models", "knn_graph", "views.knn_graph", None),
    ("models", "dropout_input", "nn.dropout_input", None),
    ("models", "softmax_xent", "nn.softmax_xent", None),
    ("models", "adam_step", "nn.adam_step", None),
    ("cotrain", "build_submodel", "models.build_submodel", _kind_probe),
    ("experiment", "build_submodel", "models.build_submodel", _kind_probe),
    ("cotrain", "train_submodel", "models.train_submodel", _train_probe),
    ("experiment", "train_submodel", "models.train_submodel", _train_probe),
    ("cotrain", "predict_logits", "models.predict_logits", None),
    ("experiment", "predict_logits", "models.predict_logits", None),
    ("attacks", "input_gradient", "models.input_gradient", None),
    ("cotrain", "fit_temperature", "calibration.fit_temperature", None),
    ("calibration", "nll", "calibration.nll", None),
    ("cotrain", "cotrain", "cotrain.cotrain", _cotrain_probe),
    ("experiment", "cotrain", "cotrain.cotrain", _cotrain_probe),
    ("cotrain", "select_confident", "cotrain.select_confident", None),
    ("cotrain", "ensemble_predict", "cotrain.ensemble_predict", None),
    ("attacks", "dice_perturb", "attacks.dice_perturb", _edge_flip_probe),
    ("experiment", "dice_perturb", "attacks.dice_perturb", _edge_flip_probe),
    ("attacks", "random_structure_perturb", "attacks.random_perturb", _edge_flip_probe),
    ("experiment", "random_structure_perturb", "attacks.random_perturb", _edge_flip_probe),
    ("attacks", "feature_flip_attack", "attacks.feature_flip", _feature_flip_probe),
    ("experiment", "feature_flip_attack", "attacks.feature_flip", _feature_flip_probe),
    ("experiment", "apply_attack", "experiment.apply_attack", None),
    ("experiment", "_run_cell", "experiment.run_cell", None),
    ("experiment", "run_experiment", "experiment.run_experiment", _workers_probe),
    ("experiment", "emit_report", "experiment.emit_report", None),
)
# A cell may run in a pool worker: its spans travel back on its CellResult,
# and the run_experiment wrapper in the parent takes them over.
_CELL, _EXPERIMENT = "experiment.run_cell", "experiment.run_experiment"


class Tracer:
    """In-memory span recorder that patches cograph module attributes."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = 0
        self._stack: list[str] = []
        self._count = 0
        self._pid = os.getpid()
        self._patched: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name, probe in SITES:
            module = importlib.import_module(f"cograph.{mod_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, probe))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, probe):
        signature = inspect.signature(fn) if probe else None
        tracer = self

        @functools.wraps(fn)  # keeps __qualname__, so the pool can still pickle it
        def traced(*args, **kwargs):
            tracer._count += 1
            pid = os.getpid()
            sid = f"{pid}.{tracer._count}"
            parent = tracer._stack[-1] if tracer._stack else None
            mark = len(tracer.spans)
            tracer._stack.append(sid)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            if name == _EXPERIMENT:
                for cell in result.cells:
                    tracer.spans.extend(vars(cell).pop(SHIPPED, ()))
            if probe is not None:
                attrs = probe(signature.bind(*args, **kwargs).arguments, result)
            tracer.spans.append((sid, parent, name, start, end, tracer.run, pid, attrs))
            if name == _CELL and pid != tracer._pid:
                setattr(result, SHIPPED, tracer.spans[mark:])
                del tracer.spans[mark:]
            return result

        return traced

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "run", "pid", "attrs")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus its children's in the same process. Those
    children run one after another inside it; a span that waits on pool
    workers keeps the wait as self time, so the self times of one process
    add up to its traced wall time."""
    covered = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None and s[PARENT].startswith(f"{s[PID]}."):
            covered[s[PARENT]] += s[END] - s[START]
    return {s[ID]: (s[END] - s[START]) - covered[s[ID]] for s in spans}


def layer_metrics(spans, kinds, main_pid: int, pipeline_run: int) -> dict[str, float]:
    """Per-layer figures of one traced set-up plus one traced pipeline."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    own = self_times(spans)

    def total(name, pred=lambda s: True):
        return sum(s[END] - s[START] for s in by_name[name] if pred(s))

    def calls(name, pred=lambda s: True):
        return sum(1 for s in by_name[name] if pred(s))

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "graph.make_graph_s": total("graph.make_graph"),
        "graph.make_graph_calls": calls("graph.make_graph"),
        "graph.normalized_adjacency_s": total("graph.normalized_adjacency"),
        "graph.split_nodes_s": total("graph.split_nodes"),
        "io.load_graph_dir_s": total("io.load_graph_dir"),
        "views.smlp_features_s": total("views.smlp_features"),
        "views.eigenmaps_calls": calls("views.laplacian_eigenmaps"),
        "views.knn_graph_s": total("views.knn_graph"),
    }
    for fn in ("dropout_input", "softmax_xent", "adam_step"):
        m[f"nn.{fn}_s"] = total(f"nn.{fn}")
        m[f"nn.{fn}_calls"] = calls(f"nn.{fn}")
    for kind in kinds:
        is_kind = lambda s, kind=kind: s[ATTRS]["kind"] == kind
        epochs = sum(s[ATTRS]["epochs"] for s in by_name["models.train_submodel"] if is_kind(s))
        train_s = total("models.train_submodel", is_kind)
        m[f"models.build_submodel_s.{kind}"] = total("models.build_submodel", is_kind)
        m[f"models.train_submodel_s.{kind}"] = train_s
        m[f"models.train_calls.{kind}"] = calls("models.train_submodel", is_kind)
        m[f"models.epoch_ms.{kind}"] = 1000.0 * ratio(train_s, epochs)
    fits = calls("models.train_submodel")
    temps = calls("calibration.fit_temperature")
    cells = [s[END] - s[START] for s in by_name[_CELL]]
    pool = by_name[_EXPERIMENT]
    flips = {s[ID] for s in by_name["attacks.feature_flip"]}
    pool_capacity = sum((s[END] - s[START]) * s[ATTRS]["workers"] for s in pool)
    m.update(
        {
            "models.train_self_s": sum(own[s[ID]] for s in by_name["models.train_submodel"]),
            "models.predict_logits_s": total("models.predict_logits"),
            "models.predict_calls_per_fit": ratio(calls("models.predict_logits"), fits),
            "models.input_gradient_s": total("models.input_gradient"),
            "models.input_gradient_calls": calls("models.input_gradient"),
            "calibration.fit_temperature_s": total("calibration.fit_temperature"),
            "calibration.fits": temps,
            "calibration.nll_evals_per_fit": ratio(calls("calibration.nll"), temps),
            "cotrain.self_s": sum(own[s[ID]] for s in by_name["cotrain.cotrain"]),
            "cotrain.select_confident_s": total("cotrain.select_confident"),
            "cotrain.iterations": attr_sum("cotrain.cotrain", "iterations"),
            "cotrain.pseudo_labels_added": attr_sum("cotrain.cotrain", "added"),
            "cotrain.pseudo_label_precision": ratio(
                attr_sum("cotrain.cotrain", "correct"), attr_sum("cotrain.cotrain", "added")
            ),
            "cotrain.conflicts": attr_sum("cotrain.cotrain", "conflicts"),
            "cotrain.shortfall": attr_sum("cotrain.cotrain", "shortfall"),
            "attacks.dice_perturb_s": total("attacks.dice_perturb"),
            "attacks.random_perturb_s": total("attacks.random_perturb"),
            "attacks.feature_flip_s": total("attacks.feature_flip"),
            "attacks.flip_rounds": calls("models.input_gradient", lambda s: s[PARENT] in flips),
            "attacks.edge_flips_realized_frac": ratio(
                attr_sum("attacks.dice_perturb", "realized")
                + attr_sum("attacks.random_perturb", "realized"),
                attr_sum("attacks.dice_perturb", "requested")
                + attr_sum("attacks.random_perturb", "requested"),
            ),
            "attacks.feature_bits_realized_frac": ratio(
                attr_sum("attacks.feature_flip", "realized"),
                attr_sum("attacks.feature_flip", "requested"),
            ),
            "experiment.apply_attack_s": total("experiment.apply_attack"),
            "experiment.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "experiment.pool_busy_frac": ratio(sum(cells), pool_capacity),
            "experiment.emit_report_s": total("experiment.emit_report"),
            "trace.spans": len(spans),
            "trace.self_sum_s": sum(
                own[s[ID]] for s in spans if s[PID] == main_pid and s[RUN] == pipeline_run
            ),
        }
    )
    return m
