import functools
import hashlib
import importlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from cograph import ValidationError
from cograph.experiment import (
    AttackSetting,
    ExperimentConfig,
    apply_attack,
    emit_report,
    run_experiment,
)
from cograph.graph import SyntheticSpec
from cograph.models import SubModelSpec
from cograph.io import write_json

SYNTH = dict(n=150, C=3, p_in=0.12, p_out=0.02, m=24, feature_noise=0.1, seed=5)
FAST_HYPER = {"epochs": 50}


def tiny_config(**overrides):
    raw = {
        "synthetic": SYNTH,
        "seeds": [0, 1],
        "struct_model": {"kind": "gcn", "hyper": FAST_HYPER},
        "feat_model": {"kind": "f-mlp", "hyper": FAST_HYPER},
        "n_add": 8,
        "max_iters": 2,
        "attacks": [
            {"name": "clean"},
            {"name": "dice10", "method": "dice", "rate": 0.1},
        ],
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def test_config_rejects_empty_seeds():
    with pytest.raises(ValidationError):
        tiny_config(seeds=[])


def test_config_rejects_both_dataset_sources():
    with pytest.raises(ValidationError):
        tiny_config(dataset_dir="somewhere")


def test_config_names_a_missing_required_key():
    with pytest.raises(ValidationError, match="'kind'"):
        tiny_config(struct_model={"hyper": FAST_HYPER})
    with pytest.raises(ValidationError, match="'name'"):
        tiny_config(attacks=[{"method": "dice", "rate": 0.1}])


def test_config_rejects_duplicate_setting_names():
    with pytest.raises(ValidationError):
        tiny_config(attacks=[{"name": "a"}, {"name": "a"}])


def test_config_seed_offset():
    cfg = tiny_config(seed_offset=100)
    assert cfg.seeds == (100, 101)


@pytest.mark.parametrize("field, value", [("n", 120.0), ("p_in", "0.06"), ("C", True)])
def test_config_checks_synthetic_values(field, value):
    """The synthetic block is read against SyntheticSpec, so a wrong-typed
    value fails in from_dict, naming its level and field."""
    with pytest.raises(ValidationError, match=f"^synthetic: {field} must be"):
        tiny_config(synthetic={**SYNTH, field: value})


def test_config_is_hashable_and_frozen_through_synthetic():
    cfg = tiny_config()
    assert hash(cfg) == hash(tiny_config())
    assert cfg.synthetic == SyntheticSpec(**SYNTH)
    with pytest.raises(FrozenInstanceError):
        cfg.synthetic.n = 5


def test_attack_setting_validation():
    with pytest.raises(ValidationError):
        AttackSetting(name="x", method="warp")
    with pytest.raises(ValidationError):
        AttackSetting(name="x", method="external")  # needs path


def test_attack_setting_path_must_be_a_string_or_path():
    with pytest.raises(ValidationError, match="path must be of type str or PathLike or NoneType, got 7"):
        AttackSetting("x", "external", path=7)
    # a path-like is stored as its string, so a report can write it
    assert AttackSetting("x", "external", path=Path("edges.tsv")).path == "edges.tsv"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("struct_model", {"kind": "gcn"}, "struct_model must be of type SubModelSpec"),
        ("feat_model", "f-mlp", "feat_model must be of type SubModelSpec"),
        ("synthetic", dict(SYNTH), "synthetic must be of type SyntheticSpec or NoneType"),
        ("attacks", ({"name": "clean"},), r"attacks\[0\] must be of type AttackSetting"),
    ],
    ids=["struct_model", "feat_model", "synthetic", "attacks"],
)
def test_config_built_directly_checks_its_levels(field, value, message):
    """Each level is checked on direct construction too, not only when
    from_dict builds it from its mapping."""
    with pytest.raises(ValidationError, match=message):
        replace(tiny_config(), **{field: value})


def test_spec_hyper_must_be_train_hyper():
    with pytest.raises(ValidationError, match="hyper must be of type TrainHyper"):
        SubModelSpec(kind="gcn", hyper={"epochs": 5})


@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_config())


def test_row_counts(report):
    # seeds x settings x (iterations + 1)
    cfg = tiny_config()
    expected = len(cfg.seeds) * len(cfg.attacks) * (cfg.max_iters + 1)
    rows = sum(len(c.history) for c in report.cells)
    assert rows == expected
    assert report.summary["complete"]


def test_emitted_files_and_row_count(tmp_path, report):
    paths = emit_report(report, tmp_path)
    names = {p.name for p in paths}
    assert names == {"results.csv", "summary.json", "reliability.csv", "confusion.csv"}
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    cfg = tiny_config()
    assert len(lines) - 1 == len(cfg.seeds) * len(cfg.attacks) * (cfg.max_iters + 1)


def test_summary_recomputable_from_results_csv(tmp_path, report):
    emit_report(report, tmp_path)
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    summary = json.loads((tmp_path / "summary.json").read_text())["summary"]

    for setting in ("clean", "dice10"):
        finals = {}
        for row in rows:
            if row["setting"] == setting:
                finals.setdefault(int(row["seed"]), {})[int(row["iter"])] = float(
                    row["acc_ensemble"]
                )
        last = np.array([vals[max(vals)] for _, vals in sorted(finals.items())])
        assert summary["settings"][setting]["final_acc_ensemble_mean"] == pytest.approx(
            float(last.mean()), abs=1e-12
        )
        expected_std = float(last.std(ddof=1)) if last.size > 1 else 0.0
        assert summary["settings"][setting]["final_acc_ensemble_std"] == pytest.approx(
            expected_std, abs=1e-12
        )


# a config that sets every field (synthetic, as dataset_dir excludes it),
# both specs with non-default widths and hyper, and one attack per method
EVERY_FIELD = {
    "synthetic": SYNTH,
    "seeds": [3, 0, 7],
    "struct_model": {"kind": "gcn", "hidden": [24, 8], "k": 5,
                     "hyper": {"learning_rate": 0.02, "dropout": 0.25}},
    "feat_model": {"kind": "knn-gcn", "hidden": [12], "k": 7,
                   "hyper": {"weight_decay": 0.001, "epochs": 30}},
    "train_frac": 0.2,
    "val_frac": 0.15,
    "n_add": 30,
    "max_iters": 3,
    "attacks": [
        {"name": "clean"},
        {"name": "random5", "method": "random", "rate": 0.05},
        {"name": "mixed", "method": "dice", "rate": 0.2, "feature_ratio": 0.5},
        {"name": "flips", "method": "grad-feat", "rate": 0.1},
        {"name": "external", "method": "external", "path": "perturbed-edges.tsv"},
    ],
    "out_dir": "sweep-out",
    "calibration": False,
    "class_balancing": False,
    "threads": 2,
    "reliability_bins": 7,
}


def test_config_bytes_are_pinned(tmp_path):
    """summary.json's config block, as read and written back, keeps its
    bytes; nothing is run."""
    cfg = ExperimentConfig.from_dict(EVERY_FIELD)
    write_json({"config": cfg.to_json_dict()}, tmp_path / "config.json")
    digest = hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest()
    assert digest == "1276853c2b70e85b2bf310b611e2a59b52d864aa43eb7452a1e2d5d00324fead"


def test_summary_config_reloads_to_the_same_config(tmp_path, report):
    emit_report(report, tmp_path)
    written = json.loads((tmp_path / "summary.json").read_text())["config"]
    reloaded = ExperimentConfig.from_dict(written)
    assert reloaded.to_json_dict() == report.config
    assert json.loads(json.dumps(reloaded.to_json_dict())) == written


def test_reports_byte_identical_across_reruns(tmp_path):
    cfg = tiny_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    emit_report(a, tmp_path / "a")
    emit_report(b, tmp_path / "b")
    for name in ("results.csv", "summary.json", "reliability.csv", "confusion.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_failed_cell_recorded_not_raised(tmp_path):
    cfg = tiny_config(
        attacks=[{"name": "broken", "method": "external", "rate": 0.0, "path": "missing.tsv"}]
    )
    report = run_experiment(cfg)
    assert all(c.error is not None for c in report.cells)
    assert not report.summary["complete"]
    assert report.summary["settings"]["broken"]["seeds_failed"] == 2
    emit_report(report, tmp_path)  # still writes, with empty result rows


def test_failed_cell_keeps_traceback(tmp_path):
    cfg = tiny_config(
        seeds=[0],
        attacks=[{"name": "broken", "method": "external", "path": "missing.tsv"}],
    )
    report = run_experiment(cfg)
    (cell,) = report.cells
    assert cell.error.startswith("FileNotFoundError: ")
    assert cell.traceback.startswith("Traceback (most recent call last):")
    assert "load_perturbed_adjacency" in cell.traceback
    emit_report(report, tmp_path)
    summary = (tmp_path / "summary.json").read_text()
    assert json.loads(summary)["summary"]["settings"]["broken"]["errors"] == [cell.error]
    assert "Traceback" not in summary


def test_calibration_toggle_only_changes_temperatures():
    cfg_on = tiny_config(seeds=[0], attacks=[{"name": "clean"}])
    cfg_off = tiny_config(seeds=[0], attacks=[{"name": "clean"}], calibration=False)
    r_on = run_experiment(cfg_on)
    r_off = run_experiment(cfg_off)
    # uncalibrated models keep T = 1, so both reliability phases read alike
    rows = r_off.cells[0].reliability
    for model in ("struct", "feat"):
        by_phase = {
            phase: [
                {k: v for k, v in r.items() if k != "phase"}
                for r in rows
                if r["model"] == model and r["phase"] == phase
            ]
            for phase in ("uncalibrated", "calibrated")
        }
        assert by_phase["calibrated"] and by_phase["calibrated"] == by_phase["uncalibrated"]
    # selection/ensemble paths unchanged: per-model accuracies at iteration 0
    # are identical because training does not depend on calibration
    assert (
        r_on.cells[0].history[0]["acc_struct"] == r_off.cells[0].history[0]["acc_struct"]
    )
    assert r_on.cells[0].history[0]["acc_feat"] == r_off.cells[0].history[0]["acc_feat"]


def test_class_balancing_toggle_changes_selection():
    cfg_on = tiny_config(seeds=[0], attacks=[{"name": "clean"}])
    cfg_off = tiny_config(seeds=[0], attacks=[{"name": "clean"}], class_balancing=False)
    r_on = run_experiment(cfg_on)
    r_off = run_experiment(cfg_off)
    added_on = r_on.cells[0].history[1]["added_per_class_struct"]
    added_off = r_off.cells[0].history[1]["added_per_class_struct"]
    assert sum(added_on) <= 8 and sum(added_off) <= 8
    # balanced selection follows the quota; unbalanced generally will not
    from cograph.cotrain import class_quota
    from cograph.graph import generate_synthetic, split_nodes

    g = generate_synthetic(**SYNTH)
    split = split_nodes(g, 0.1, 0.1, 0)
    quota = class_quota(split.class_histogram, 8)
    assert tuple(added_on) == tuple(
        q - s for q, s in zip(quota, r_on.cells[0].history[1]["shortfall_struct"])
    )


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_threads_parallel_matches_serial(monkeypatch, tmp_path, method):
    """The pool's workers give the serial bytes under every start method,
    so nothing a cell reads relies on fork inheriting the parent's state."""
    pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
    monkeypatch.setattr(importlib.import_module("cograph.experiment"), "ProcessPoolExecutor", pool)
    cfg1 = tiny_config(seeds=[0, 1], attacks=[{"name": "clean"}])
    cfg2 = tiny_config(seeds=[0, 1], attacks=[{"name": "clean"}], threads=2)
    emit_report(run_experiment(cfg1), tmp_path / "serial")
    emit_report(run_experiment(cfg2), tmp_path / "parallel")
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "parallel" / "results.csv"
    ).read_bytes()


def test_pool_workers_with_overlapped_fits_match_serial(monkeypatch, tmp_path):
    cotrain_module = importlib.import_module("cograph.cotrain")
    emit_report(run_experiment(tiny_config()), tmp_path / "serial")
    # the forked workers inherit the lowered gate, so each runs a helper thread
    monkeypatch.setattr(cotrain_module, "OVERLAP_MIN_NODES", 0)
    emit_report(run_experiment(tiny_config(threads=2)), tmp_path / "parallel")
    for name in ("results.csv", "reliability.csv", "confusion.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()
    summaries = [
        json.loads((tmp_path / run / "summary.json").read_text())
        for run in ("serial", "parallel")
    ]
    assert summaries[0]["summary"] == summaries[1]["summary"]
    assert summaries[1]["config"] == {**summaries[0]["config"], "threads": 2}


def test_apply_attack_none_returns_same_graph():
    from cograph.graph import generate_synthetic

    g = generate_synthetic(**SYNTH)
    assert apply_attack(g, AttackSetting(name="clean"), seed=0) is g


def test_apply_attack_refuses_a_float_seed():
    from cograph.graph import generate_synthetic

    g = generate_synthetic(**SYNTH)
    with pytest.raises(ValidationError, match="seed must be an integer"):
        apply_attack(g, AttackSetting(name="dice", method="dice", rate=0.1), 1.5)


def test_apply_attack_refuses_a_split_that_is_not_a_node_split():
    # a fraction passed where the split goes, as in the old (train_frac, val_frac) call
    from cograph.graph import generate_synthetic

    g = generate_synthetic(**SYNTH)
    with pytest.raises(ValidationError, match="split must be of type NodeSplit or NoneType, got 0.1"):
        apply_attack(g, AttackSetting(name="dice", method="dice", rate=0.1), 0, 0.1)


def test_apply_attack_reads_the_split_it_is_given():
    """The victim trains on the given split's labeled nodes and the flips
    land on its test nodes; no split means split_nodes(g, 0.1, 0.1, seed)."""
    from cograph.graph import generate_synthetic, split_nodes

    g = generate_synthetic(**SYNTH)
    setting = AttackSetting(name="flips", method="grad-feat", rate=0.1)
    default = apply_attack(g, setting, 0)
    assert np.array_equal(apply_attack(g, setting, 0, split_nodes(g, 0.1, 0.1, 0)).X, default.X)
    split = split_nodes(g, 0.3, 0.2, 0)
    attacked = apply_attack(g, setting, 0, split)
    flipped = np.flatnonzero((attacked.X != g.X).any(axis=1))
    assert flipped.size and np.isin(flipped, split.test).all()
    assert not np.array_equal(attacked.X, default.X)


@pytest.mark.parametrize(
    "setting",
    [
        AttackSetting(name="dice", method="dice", rate=0.2),
        AttackSetting(name="random", method="random", rate=0.2),
        AttackSetting(name="mixed", method="dice", rate=0.2, feature_ratio=0.5),
        AttackSetting(name="flips", method="grad-feat", rate=0.1),
        AttackSetting(name="external", method="external", path="edges.tsv"),
    ],
    ids=lambda s: s.name,
)
def test_attacks_keep_the_node_split(tmp_path, monkeypatch, setting):
    """Every attack keeps n and the labels, so the attacked graph splits
    as the clean one does: one split serves the attack and co-training."""
    from cograph.graph import generate_synthetic, split_nodes

    monkeypatch.chdir(tmp_path)
    Path("edges.tsv").write_text("0\t1\n1\t2\n3\t140\n")
    g = generate_synthetic(**SYNTH)
    for seed in (0, 3):
        attacked = apply_attack(g, setting, seed)
        for frac in (0.1, 0.25):
            clean, after = (split_nodes(h, frac, frac, seed) for h in (g, attacked))
            for name in ("labeled", "validation", "test", "class_histogram"):
                assert np.array_equal(getattr(after, name), getattr(clean, name))


def test_apply_attack_mixed_budget_split():
    from cograph.graph import generate_synthetic

    g = generate_synthetic(**SYNTH)
    setting = AttackSetting(name="mix", method="dice", rate=0.2, feature_ratio=0.5)
    perturbed = apply_attack(g, setting, seed=0)
    feature_bits = int((perturbed.X != g.X).sum())
    edge_flips = len(perturbed.edges ^ g.edges)
    assert feature_bits == round(0.5 * 0.2 * g.num_edges)
    assert edge_flips == round(0.5 * 0.2 * g.num_edges)


@pytest.mark.parametrize("ratio", [0.0, 1.0])
def test_apply_attack_mixed_budget_endpoints(ratio):
    from cograph.graph import generate_synthetic

    g = generate_synthetic(**SYNTH)
    setting = AttackSetting(name="mix", method="dice", rate=0.2, feature_ratio=ratio)
    perturbed = apply_attack(g, setting, seed=0)
    feature_bits = int((perturbed.X != g.X).sum())
    edge_flips = len(perturbed.edges ^ g.edges)
    assert feature_bits == round(ratio * 0.2 * g.num_edges)
    assert edge_flips == round((1.0 - ratio) * 0.2 * g.num_edges)


def test_run_cell_scores_each_fit_once(monkeypatch):
    """The reliability rows reuse the last round's scores from cotrain
    instead of scoring the final models again."""
    experiment = importlib.import_module("cograph.experiment")
    calls = []
    for module in (importlib.import_module("cograph.cotrain"), experiment):
        original = module.predict_logits

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "predict_logits", counted)
    config = tiny_config(seeds=[0])
    g = experiment.load_base_graph(config)
    cell = experiment._run_cell((g, config.attacks[1], 0, config))
    assert cell.error is None and cell.reliability
    assert len(calls) == 2 * len(cell.history)


def test_cell_splits_once(monkeypatch):
    """A cell splits its clean graph once and hands that split to both the
    feature attack's victim and co-training."""
    experiment = importlib.import_module("cograph.experiment")
    calls = []

    def counted(*args, _original=experiment.split_nodes, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(experiment, "split_nodes", counted)
    mixed = {"name": "mixed", "method": "dice", "rate": 0.2, "feature_ratio": 0.5}
    config = tiny_config(seeds=[0], attacks=[mixed])
    cell = experiment._run_cell((experiment.load_base_graph(config), config.attacks[0], 0, config))
    assert cell.error is None and cell.history
    assert len(calls) == 1
