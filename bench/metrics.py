"""Metric catalogue: units, direction, and what each per-layer figure moves.

BENCHMARK.json lists the same names, units and directions (run.py refuses
to start when the two disagree). ``moves`` records, for each per-layer
metric, the end-to-end metric and workload it is expected to move, so a
performance claim can name its mechanism before it is measured.
"""

from __future__ import annotations

KINDS = ("gcn", "s-mlp", "f-mlp", "knn-gcn")

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),  # attack + co-training + report, median over repeats
    "setup_s": ("s", "lower"),  # import cograph + make_graph / load_graph_dir
    "peak_rss_mb": ("MB", "lower"),  # own peak plus the largest pool worker's peak
    "acc_ensemble": ("frac", "higher"),
    "acc_struct": ("frac", "higher"),
    "acc_feat": ("frac", "higher"),
    "ok_frac": ("frac", "higher"),  # 1 - failed / attempted
}

_ALL = "wall_s on all workloads"
_GCN = "wall_s on cora-gcn-dice"
_KNN = "wall_s on cora-knn-mixed"
_SWEEP = "wall_s on sweep-small"
_ATTACKED = "wall_s on cora-knn-mixed and sweep-small"
# no workload builds s-mlp until its spectral view is reproducible (ROADMAP
# item 2; see workloads.CoraKnnMixed), so these read 0 everywhere for now
_SMLP = "wall_s of a workload that trains s-mlp; 0 on all three"
_ACC = "acc_* on the workloads that run it"

# name -> (unit, better, moves)
PER_LAYER = {
    "graph.make_graph_s": ("s", "lower", "setup_s on all workloads; " + _ATTACKED),
    "graph.make_graph_calls": ("count", "lower", "setup_s on all workloads; " + _ATTACKED),
    "graph.normalized_adjacency_s": ("s", "lower", _GCN),
    "graph.split_nodes_s": ("s", "lower", _SWEEP),
    "io.load_graph_dir_s": ("s", "lower", "setup_s on sweep-small"),
    "views.smlp_features_s": ("s", "lower", _SMLP),
    "views.eigenmaps_calls": ("count", "lower", _SMLP),
    "views.knn_graph_s": ("s", "lower", _KNN + "; 0 elsewhere"),
    "nn.dropout_input_s": ("s", "lower", _GCN + " (CSR inputs) and sweep-small (dense inputs)"),
    "nn.dropout_input_calls": ("count", "lower", _GCN + " and sweep-small"),
    "nn.softmax_xent_s": ("s", "lower", _SWEEP),
    "nn.softmax_xent_calls": ("count", "lower", _SWEEP),
    "nn.adam_step_s": ("s", "lower", _SWEEP),
    "nn.adam_step_calls": ("count", "lower", _SWEEP),
}
for _kind in KINDS:
    _uses = f"wall_s on each workload that trains {_kind}"
    PER_LAYER.update(
        {
            f"models.build_submodel_s.{_kind}": ("s", "lower", _uses),
            f"models.train_submodel_s.{_kind}": ("s", "lower", _uses),
            f"models.train_calls.{_kind}": ("count", "lower", _uses),
            f"models.epoch_ms.{_kind}": ("ms", "lower", _uses),
        }
    )
PER_LAYER.update(
    {
        "models.train_self_s": ("s", "lower", "wall_s on cora-gcn-dice and cora-knn-mixed"),
        "models.predict_logits_s": ("s", "lower", _GCN),
        "models.predict_calls_per_fit": ("calls/fit", "lower", _GCN),
        "models.input_gradient_s": ("s", "lower", _KNN),
        "models.input_gradient_calls": ("count", "lower", _KNN),
        "calibration.fit_temperature_s": ("s", "lower", _SWEEP),
        "calibration.fits": ("count", "lower", _SWEEP),
        "calibration.nll_evals_per_fit": ("evals/fit", "lower", _SWEEP),
        "cotrain.self_s": ("s", "lower", _ALL),
        "cotrain.select_confident_s": ("s", "lower", _ALL),
        "cotrain.iterations": ("count", "lower", "acc_ensemble"),
        "cotrain.pseudo_labels_added": ("count", "higher", "acc_ensemble"),
        "cotrain.pseudo_label_precision": ("frac", "higher", "acc_ensemble"),
        "cotrain.conflicts": ("count", "lower", "acc_ensemble"),
        "cotrain.shortfall": ("count", "lower", "acc_ensemble"),
        "attacks.dice_perturb_s": ("s", "lower", _ATTACKED),
        "attacks.random_perturb_s": ("s", "lower", _SWEEP),
        "attacks.feature_flip_s": ("s", "lower", _ATTACKED),
        "attacks.flip_rounds": ("count", "lower", _ATTACKED),
        "attacks.edge_flips_realized_frac": ("frac", "higher", _ACC),
        "attacks.feature_bits_realized_frac": ("frac", "higher", _ACC),
        "experiment.apply_attack_s": ("s", "lower", _SWEEP),
        "experiment.cell_s_p50": ("s", "lower", _SWEEP),
        "experiment.pool_busy_frac": ("frac", "higher", _SWEEP),
        "experiment.emit_report_s": ("s", "lower", _SWEEP),
        # tracing itself: traced wall, its excess over the untraced repeat, and
        # the self times of the top-level process, which sum to the traced wall
        "trace.wall_s": ("s", "lower", "none; the traced repeat's wall time"),
        "trace.overhead_s": ("s", "lower", "none; traced minus untraced wall_s"),
        "trace.self_sum_s": ("s", "lower", "none; should match wall_s within trace.overhead_s"),
        "trace.spans": ("count", "lower", "none; spans recorded"),
        # distinct prediction digests over the run's repeats (1 = reproducible)
        "check.digest_variants": ("count", "lower", _ACC),
    }
)
