"""Configuration-driven experiment runner.

A single JSON config describes the dataset (on-disk or synthetic), the
sub-model pair, the seed list, and a list of attack settings. Every
(seed, setting) cell runs the full pipeline: perturb, split, co-train,
evaluate. Reports aggregate mean and sample standard deviation over seeds
and are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import inspect
import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attacks import (
    AttackSetting,
    dice_perturb,
    feature_flip_attack,
    load_perturbed_adjacency,
    random_structure_perturb,
)
from .calibration import RELIABILITY_COLUMNS, reliability_by_phase
from .cotrain import cotrain
from .errors import ValidationError, require_int, require_real, require_type
from .graph import Graph, NodeSplit, SyntheticSpec, generate_synthetic, split_nodes
from .io import load_graph_dir, write_csv, write_json
from .models import (  # noqa: F401 -- predict_logits: the benchmark traces it here
    KIND_FMLP,
    SubModelSpec,
    build_submodel,
    predict_logits,
    train_submodel,
)
from .nn import TrainHyper, derive_seeds

_SEED_ROLE_ATTACK = 7
_SEED_ROLE_VICTIM = 8

# report tables: each row mapping is read by these keys, in this order
RESULT_COLUMNS = (
    "setting", "seed", "iter", "S_size", "conflicts", "acc_struct", "acc_feat", "acc_ensemble",
    "added_per_class_struct", "added_per_class_feat", "shortfall_struct", "shortfall_feat",
)
CELL_RELIABILITY_COLUMNS = ("setting", "seed", "model", "phase", *RELIABILITY_COLUMNS)
CONFUSION_COLUMNS = ("setting", "seed", "iter", "true_class", "pred_class", "count")


def _listed(value, where: str):
    """value itself once it is a list (or a tuple): a config value of the
    wrong shape fails here, naming its field, not later in tuple()."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where} must be a list, got {value!r}")
    return value


def _mapping(value, where: str) -> dict:
    """value itself once it is a mapping, as _listed is for lists."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a mapping, got {value!r}")
    return value


def _checked(raw: dict, cls, where: str) -> dict:
    """raw itself, once it is a mapping, each key names a field of the
    dataclass cls and no field without a default is missing; config typos
    fail here."""
    params = inspect.signature(cls).parameters
    for key in _mapping(raw, where):
        if key not in params:
            raise ValidationError(f"{where}: unknown key {key!r}; expected one of {sorted(params)}")
    for name, param in params.items():
        if param.default is param.empty and name not in raw:
            raise ValidationError(f"{where}: missing key {name!r}")
    return raw


def _build(cls, raw, where: str):
    """cls built from the mapping raw, each value read by its field's type
    hint: a config dataclass from its mapping, tuple[X, ...] from a list,
    X | None as X unless null, str only from a string. A fault names the
    path of the value at fault (struct_model.hyper, attacks[1])."""
    hints = get_type_hints(cls)
    values = {
        name: _read(hints[name], value, f"{where}.{name}" if where else name)
        for name, value in _checked(raw, cls, where or "config").items()
    }
    try:
        return cls(**values)
    except ValidationError as exc:
        if not where:
            raise
        raise ValidationError(f"{where}: {exc}") from None


def _read(hint, value, where: str):
    """value read as the type hint says, for _build."""
    if type(None) in get_args(hint):  # X | None
        if value is None:
            return None
        (hint,) = set(get_args(hint)) - {type(None)}
    if is_dataclass(hint):
        return _build(hint, value, where)
    if get_origin(hint) is tuple:  # tuple[X, ...]
        item = get_args(hint)[0]
        return tuple(_read(item, v, f"{where}[{i}]") for i, v in enumerate(_listed(value, where)))
    if hint is str and not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...]
    struct_model: SubModelSpec
    feat_model: SubModelSpec
    dataset_dir: str | None = None
    synthetic: SyntheticSpec | None = None
    train_frac: float = 0.1
    val_frac: float = 0.1
    n_add: int = 250
    max_iters: int = 4
    attacks: tuple[AttackSetting, ...] = (AttackSetting(name="clean"),)
    out_dir: str = "results"
    calibration: bool = True
    class_balancing: bool = True
    threads: int = 1
    reliability_bins: int = 10

    def __post_init__(self):
        if not self.seeds:
            raise ValidationError("config needs at least one seed")
        for seed in self.seeds:
            require_int("seeds", seed, 0)
        require_int("n_add", self.n_add, 0)
        require_int("max_iters", self.max_iters, 0)
        require_int("threads", self.threads, 1)
        require_int("reliability_bins", self.reliability_bins, 2)
        require_real("train_frac", self.train_frac)
        require_real("val_frac", self.val_frac)
        for name in ("calibration", "class_balancing"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValidationError(f"{name} must be true or false, got {value!r}")
        if (self.dataset_dir is None) == (self.synthetic is None):
            raise ValidationError("config needs exactly one of dataset_dir or synthetic")
        # from_dict builds every level from its mapping; a direct caller may not
        require_type("struct_model", self.struct_model, SubModelSpec)
        require_type("feat_model", self.feat_model, SubModelSpec)
        require_type("synthetic", self.synthetic, SyntheticSpec, type(None))
        for i, setting in enumerate(self.attacks):
            require_type(f"attacks[{i}]", setting, AttackSetting)
        names = [a.name for a in self.attacks]
        if len(set(names)) != len(names):
            raise ValidationError("attack setting names must be unique")

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "ExperimentConfig":
        raw = dict(_mapping(raw, "config"))
        raw.update(overrides or {})
        seed_offset = raw.pop("seed_offset", 0)
        require_int("seed_offset", seed_offset)
        config = _build(cls, raw, "")
        # the seeds are checked as written before the offset shifts them
        return replace(config, seeds=tuple(s + seed_offset for s in config.seeds))

    @classmethod
    def from_json(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), overrides)

    def to_json_dict(self) -> dict:
        return asdict(self)


def load_base_graph(config: ExperimentConfig) -> Graph:
    if config.dataset_dir is not None:
        return load_graph_dir(config.dataset_dir)
    return generate_synthetic(**asdict(config.synthetic))


def apply_attack(
    g: Graph,
    setting: AttackSetting,
    seed: int,
    split: NodeSplit | None = None,
    victim_hyper: TrainHyper | None = None,
) -> Graph:
    """Produce the poisoned graph for one cell.

    Budgets are computed against the clean edge count. The feature portion
    trains a fresh raw-feature victim on split.labeled and flips bits that
    most increase its loss on split.test; split defaults to
    split_nodes(g, 0.1, 0.1, seed).
    """
    require_type("split", split, NodeSplit, type(None))
    if setting.method == "none":
        return g
    if setting.method == "external":
        return load_perturbed_adjacency(g, setting.path)

    (attack_seed,) = derive_seeds(seed, _SEED_ROLE_ATTACK)
    ratio = setting.effective_feature_ratio
    feature_bits = round(ratio * setting.rate * g.num_edges)
    structure_rate = (1.0 - ratio) * setting.rate

    perturbed = g
    if structure_rate > 0.0:
        if setting.method == "dice":
            perturbed = dice_perturb(perturbed, g.labels, structure_rate, attack_seed)
        else:
            perturbed = random_structure_perturb(perturbed, structure_rate, attack_seed)
    if feature_bits > 0:
        split = split or split_nodes(g, 0.1, 0.1, seed)
        victim_spec = SubModelSpec(kind=KIND_FMLP, hyper=victim_hyper or TrainHyper())
        (victim_seed,) = derive_seeds(seed, _SEED_ROLE_VICTIM)
        victim = train_submodel(
            build_submodel(victim_spec, g), split.labeled, g.labels[split.labeled], seed=victim_seed
        )
        perturbed = feature_flip_attack(perturbed, victim, feature_bits, targets=split.test)
    return perturbed


@dataclass
class CellResult:
    setting: str
    seed: int
    history: list[dict] = field(default_factory=list)
    reliability: list[dict] = field(default_factory=list)
    error: str | None = None  # "Type: message", as summary.json reports it
    traceback: str | None = None


def _run_cell(args) -> CellResult:
    g, setting, seed, config = args
    cell = CellResult(setting=setting.name, seed=seed)
    try:
        split = split_nodes(g, config.train_frac, config.val_frac, seed)
        perturbed = apply_attack(g, setting, seed, split, config.struct_model.hyper)
        f_struct, f_feat, state = cotrain(
            perturbed,
            split,
            config.struct_model,
            config.feat_model,
            config.n_add,
            config.max_iters,
            seed,
            calibration=config.calibration,
            class_balancing=config.class_balancing,
        )
        cell.history = [rec.to_json() for rec in state.history]
        test_labels = perturbed.labels[split.test]
        for role, model, logits in zip(("struct", "feat"), (f_struct, f_feat), state.final_logits):
            bins = config.reliability_bins
            rows = reliability_by_phase(logits[split.test], test_labels, model.temperature, bins)
            cell.reliability.extend({"model": role, **row} for row in rows)
    except Exception as exc:  # noqa: BLE001 -- cell failures are data, not crashes
        cell.error = f"{type(exc).__name__}: {exc}"
        cell.traceback = traceback.format_exc()
    return cell


@dataclass
class Report:
    config: dict
    cells: list[CellResult]
    summary: dict


def _aggregate(config: ExperimentConfig, cells: list[CellResult]) -> dict:
    settings: dict[str, dict] = {}
    for setting in config.attacks:
        done = [c for c in cells if c.setting == setting.name and c.error is None]
        failed = [c for c in cells if c.setting == setting.name and c.error is not None]
        entry: dict = {
            "seeds_completed": len(done),
            "seeds_failed": len(failed),
            "complete": not failed,
        }
        if failed:
            entry["errors"] = sorted(c.error for c in failed)
        if done:
            for key in ("acc_ensemble", "acc_struct", "acc_feat"):
                finals = np.array([c.history[-1][key] for c in done])
                entry[f"final_{key}_mean"] = float(finals.mean())
                entry[f"final_{key}_std"] = float(finals.std(ddof=1)) if finals.size > 1 else 0.0
            starts = np.array([c.history[0]["acc_ensemble"] for c in done])
            entry["iter0_acc_ensemble_mean"] = float(starts.mean())
            entry["iterations"] = max(len(c.history) - 1 for c in done)
        settings[setting.name] = entry
    return {
        "settings": settings,
        "complete": all(c.error is None for c in cells),
        "cells": len(cells),
    }


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute every (seed, attack-setting) cell and aggregate.

    Cells are independent; with threads > 1 they run in worker processes.
    Failures are captured per cell and aggregation proceeds over the
    completed ones, flagged by the completeness markers.
    """
    g = load_base_graph(config)
    # each cell splits g, and attacks keep n and labels, so every split has these
    # sizes: fractions that leave a set empty fail here, before any cell runs
    split_nodes(g, config.train_frac, config.val_frac, config.seeds[0])
    tasks = [
        (g, setting, seed, config)
        for setting in config.attacks
        for seed in config.seeds
    ]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            cells = list(pool.map(_run_cell, tasks))
    else:
        cells = [_run_cell(t) for t in tasks]

    order = {s.name: i for i, s in enumerate(config.attacks)}
    cells.sort(key=lambda c: (order[c.setting], c.seed))
    return Report(
        config=config.to_json_dict(),
        cells=cells,
        summary=_aggregate(config, cells),
    )


def emit_report(report: Report, out_dir) -> list[Path]:
    """Write results.csv, summary.json, reliability.csv, confusion.csv.

    Column order is fixed and floats are emitted with repr, so identical
    configs produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results, confusion, reliability_out = [], [], []
    for cell in report.cells:
        if cell.error is not None:
            continue
        key = {"setting": cell.setting, "seed": cell.seed}
        for rec in cell.history:
            results.append({**key, **rec})
            at = {**key, "iter": rec["iter"]}
            for true_c, row in enumerate(rec["confusion_matrix"]):
                confusion.extend(
                    {**at, "true_class": true_c, "pred_class": pred_c, "count": count}
                    for pred_c, count in enumerate(row)
                )
        reliability_out.extend({**key, **row} for row in cell.reliability)

    names = ("results.csv", "summary.json", "reliability.csv", "confusion.csv")
    results_path, summary_path, reliability_path, confusion_path = paths = [out / n for n in names]
    write_csv(RESULT_COLUMNS, results, results_path)
    write_json({"config": report.config, "summary": report.summary}, summary_path)
    write_csv(CELL_RELIABILITY_COLUMNS, reliability_out, reliability_path)
    write_csv(CONFUSION_COLUMNS, confusion, confusion_path)
    return paths
