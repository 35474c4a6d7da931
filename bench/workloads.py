"""The three workloads: seeded inputs, the timed pipeline, output checks.

Library functions are always looked up by module at call time, because
run.py re-imports cograph for every timed set-up and the tracer swaps
module attributes for its wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import statistics
from dataclasses import dataclass

from inputs import SWEEP_PARAMS, cora_like, derive_seed

ACC_KEYS = ("acc_ensemble", "acc_struct", "acc_feat")
SWEEP_WORKERS = 2

# seed roles: one run seed feeds independent streams
_GRAPH, _ATTACK, _TRAIN = 0, 1, 2


def lib(module: str):
    return importlib.import_module(f"cograph.{module}")


@dataclass(frozen=True)
class Outcome:
    """Checked result of one repeat of a pipeline."""

    acc: dict
    attempted: int
    failed: int
    digest: str

    @classmethod
    def crashed(cls) -> "Outcome":
        return cls({k: math.nan for k in ACC_KEYS}, 1, 1, "crashed")


def _bad(acc: dict, floors: dict) -> bool:
    """Any accuracy non-finite or below its floor."""
    return any(not math.isfinite(acc[k]) or acc[k] < floors[k] for k in ACC_KEYS)


class CoraGcnDice:
    """The paper's headline defense against its headline attack.

    Cora-statistics graph, DICE at 20%, then gcn + f-mlp co-training.
    Training-bound: train_submodel is nearly all of the wall time, and the
    views module does no work.
    """

    name = "cora-gcn-dice"
    struct, feat, n_add, max_iters = "gcn", "f-mlp", 250, 4
    # chance is 0.30 (the largest class); a broken model lands near it
    floors = {"acc_ensemble": 0.5, "acc_struct": 0.5, "acc_feat": 0.5}

    def __init__(self, seed: int, workdir):
        self.seed = derive_seed(seed, _TRAIN)
        self.attack_seed = derive_seed(seed, _ATTACK)
        self.raw = cora_like(derive_seed(seed, _GRAPH))

    def build(self):
        r = self.raw
        return lib("graph").make_graph(r.n, r.edges, r.X, r.labels, r.C)

    def attack(self, g):
        return lib("attacks").dice_perturb(g, g.labels, 0.2, self.attack_seed)

    def run(self, g):
        attacked = self.attack(g)
        split = lib("graph").split_nodes(attacked, 0.1, 0.1, self.seed)
        spec = lib("models").SubModelSpec
        f_struct, f_feat, state = lib("cotrain").cotrain(
            attacked,
            split,
            spec(self.struct),
            spec(self.feat),
            n_add=self.n_add,
            max_iters=self.max_iters,
            seed=self.seed,
        )
        pred, probs = lib("cotrain").ensemble_predict(f_struct, f_feat, split.test)
        return pred, probs, state.history

    def check(self, result) -> Outcome:
        pred, probs, history = result
        acc = {k: float(getattr(history[-1], k)) for k in ACC_KEYS}
        h = hashlib.sha256(pred.tobytes())
        h.update(probs.tobytes())
        h.update(json.dumps([r.to_json() for r in history], sort_keys=True).encode())
        return Outcome(acc, 1, int(_bad(acc, self.floors)), h.hexdigest())


class CoraKnnMixed(CoraGcnDice):
    """View- and attack-bound: gcn + knn-gcn under the mixed attack.

    DICE on 10% of the edges plus gradient-guided feature-bit flips worth
    the other 10%, against an f-mlp victim; the feature view propagates
    over the kNN graph, which is denser than the feature matrix.

    s-mlp is left out on purpose. This graph has more connected components
    than the s-mlp eigenmap asks for (k + 1 = 51), so the
    n > DENSE_EIG_LIMIT shift-invert path returns an arbitrary rotation of
    the null space: the embedding, the predictions and s-mlp's accuracy
    change from one call to the next in one process (ROADMAP item 2). A
    workload built on it cannot hold an accuracy or time bound; it belongs
    in the benchmark once the spectral view is reproducible.
    """

    name = "cora-knn-mixed"
    struct, feat, n_add, max_iters = "gcn", "knn-gcn", 250, 1

    def attack(self, g):
        exp = lib("experiment")
        mixed = exp.AttackSetting("mixed", method="dice", rate=0.2, feature_ratio=0.5)
        return exp.apply_attack(g, mixed, self.attack_seed)


class SweepSmall:
    """What ``cograph experiment`` runs: config, sweep, report.

    The test suite's attack fixture, written to a dataset directory and
    loaded through io; 4 attack settings x 6 seeds = 24 gcn + f-mlp cells
    on a pool of SWEEP_WORKERS processes. Many small dense fits, so
    per-call overhead dominates; never touches views or CSR inputs.
    """

    name = "sweep-small"
    floors = {"acc_ensemble": 0.5, "acc_struct": 0.5, "acc_feat": 0.5}  # chance is 0.25

    def __init__(self, seed: int, workdir):
        cograph = importlib.import_module("cograph")
        g = cograph.generate_synthetic(**SWEEP_PARAMS, seed=derive_seed(seed, _GRAPH))
        self.dataset = workdir / "dataset"
        cograph.save_dataset_dir(g, self.dataset)
        self.config = {
            "seeds": [derive_seed(seed, 10 + i) for i in range(6)],
            "dataset_dir": str(self.dataset),
            "out_dir": str(workdir / "report"),
            "struct_model": {"kind": "gcn"},
            "feat_model": {"kind": "f-mlp"},
            "n_add": 30,
            "max_iters": 4,
            "threads": SWEEP_WORKERS,
            "attacks": [
                {"name": "clean"},
                {"name": "dice20", "method": "dice", "rate": 0.2},
                {"name": "random20", "method": "random", "rate": 0.2},
                {"name": "mixed20", "method": "dice", "rate": 0.2, "feature_ratio": 0.5},
            ],
        }

    def build(self):
        return lib("io").load_graph_dir(self.dataset)

    def run(self, g):
        del g  # the experiment loads its own copy, as the CLI does
        exp = lib("experiment")
        config = exp.ExperimentConfig.from_dict(self.config)
        report = exp.run_experiment(config)
        return report, exp.emit_report(report, config.out_dir)

    def check(self, result) -> Outcome:
        report, paths = result
        done = [c for c in report.cells if c.error is None]
        failed = len(report.cells) - len(done)
        for c in done:
            failed += _bad({k: c.history[-1][k] for k in ACC_KEYS}, self.floors)
        if done:
            acc = {k: statistics.fmean(c.history[-1][k] for c in done) for k in ACC_KEYS}
        else:
            acc = {k: math.nan for k in ACC_KEYS}
        h = hashlib.sha256()
        for p in paths:
            h.update(p.name.encode())
            h.update(p.read_bytes())
        attempted = max(len(report.cells), 1)
        return Outcome(acc, attempted, max(failed, int(not done)), h.hexdigest())


WORKLOADS = {w.name: w for w in (CoraGcnDice, CoraKnnMixed, SweepSmall)}
