"""Acceptance gate: one test per shipping criterion.

Each test prints an `ACCEPTANCE <n>: PASS/FAIL` line (run with -s to see
them). Criteria that require the real citation dataset look for it under
$COGRAPH_DATA/cora (default ./data/cora) in the documented dataset-dir
layout and skip with an explicit notice when it is absent; their synthetic
substitutes always run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from cograph import (
    SubModelSpec,
    build_submodel,
    calibrate,
    class_quota,
    cotrain,
    fit_temperature,
    generate_synthetic,
    predict_logits,
    reliability,
    split_nodes,
    train_submodel,
)
from cograph.attacks import dice_perturb
from cograph.calibration import nll
from cograph.cotrain import audit_state
from cograph.experiment import AttackSetting, ExperimentConfig, apply_attack, emit_report, run_experiment
from cograph.graph import adjacency
from cograph.io import load_graph_dir
from cograph.nn import TrainHyper, init_params, softmax, softmax_xent
from conftest import ATTACK_PARAMS
from helpers import accuracy, finite_diff_check, merge_classes, truth

SEEDS = (0, 1, 2)
CORA_SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def cora_dir() -> Path | None:
    base = Path(os.environ.get("COGRAPH_DATA", "data"))
    d = base / "cora"
    if (d / "edges.tsv").exists() and (
        (d / "features.csv").exists() or (d / "features.mtx").exists()
    ):
        return d
    return None


def metattack_file(rate_pct: int) -> Path | None:
    d = cora_dir()
    if d is None:
        return None
    p = d / "perturbed" / f"metattack-{rate_pct}.tsv"
    return p if p.exists() else None


def skip_cora(criterion: int) -> None:
    msg = (
        f"criterion {criterion} needs the citation dataset at "
        f"{Path(os.environ.get('COGRAPH_DATA', 'data')) / 'cora'} "
        "(edges.tsv + features.csv|.mtx + labels.csv, see README); "
        "not present in this environment"
    )
    print(f"\nACCEPTANCE {criterion}: SKIP - {msg}")
    pytest.skip(msg)


# --- shared expensive fixtures ------------------------------------------------


@pytest.fixture(scope="module")
def fixture_graph():
    return generate_synthetic(**ATTACK_PARAMS)


@pytest.fixture(scope="module")
def dice_runs(fixture_graph):
    """Per-seed results on the 20%-perturbed fixture: GCN alone vs co-training."""
    g = fixture_graph
    out = []
    for seed in SEEDS:
        perturbed = dice_perturb(g, g.labels, 0.2, seed=seed)
        split = split_nodes(perturbed, 0.1, 0.1, seed)
        labs = truth(perturbed, split.labeled)
        gcn = train_submodel(build_submodel(SubModelSpec(kind="gcn"), perturbed), *labs, seed=seed)
        gcn_acc = accuracy(gcn, split.test, g.labels[split.test])
        _, _, state = cotrain(
            perturbed,
            split,
            SubModelSpec(kind="gcn"),
            SubModelSpec(kind="f-mlp"),
            n_add=30,
            max_iters=4,
            seed=seed,
        )
        out.append((gcn_acc, [rec.acc_ensemble for rec in state.history]))
    return out


@pytest.fixture(scope="module")
def cora_graph():
    d = cora_dir()
    return load_graph_dir(d) if d is not None else None


@pytest.fixture(scope="module")
def cora_gcn_baseline(cora_graph):
    """Mean GCN accuracy over 5 seeds plus total wall time; None without data."""
    if cora_graph is None:
        return None
    g = cora_graph
    start = time.perf_counter()
    accs = []
    for seed in CORA_SEEDS:
        split = split_nodes(g, 0.1, 0.1, seed)
        model = train_submodel(
            build_submodel(SubModelSpec(kind="gcn"), g), *truth(g, split.labeled), seed=seed
        )
        accs.append(accuracy(model, split.test, g.labels[split.test]))
    return {"accs": accs, "mean": float(np.mean(accs)), "elapsed": time.perf_counter() - start}


# --- criterion 1: clean-graph baseline ------------------------------------------


def test_acceptance_1_clean_gcn_baseline(cora_gcn_baseline):
    if cora_gcn_baseline is None:
        skip_cora(1)
    mean = cora_gcn_baseline["mean"]
    elapsed = cora_gcn_baseline["elapsed"]
    ok = 0.805 <= mean <= 0.865 and elapsed < 120.0
    report(1, ok, f"GCN mean test accuracy {mean:.4f} over 5 seeds (band [0.805, 0.865]), {elapsed:.1f}s (< 120s)")


# --- criterion 2: clean-graph ensembles -------------------------------------------


def test_acceptance_2_clean_ensembles(cora_graph, cora_gcn_baseline):
    if cora_graph is None:
        skip_cora(2)
    g = cora_graph
    gcn_mean = cora_gcn_baseline["mean"]
    finals = {"f-mlp": [], "knn-gcn": []}
    for feat_kind in finals:
        for seed in SEEDS:
            split = split_nodes(g, 0.1, 0.1, seed)
            _, _, state = cotrain(
                g,
                split,
                SubModelSpec(kind="gcn"),
                SubModelSpec(kind=feat_kind, k=50),
                n_add=250,
                max_iters=4,
                seed=seed,
            )
            finals[feat_kind].append(state.history[-1].acc_ensemble)
    mlp_mean = float(np.mean(finals["f-mlp"]))
    knn_mean = float(np.mean(finals["knn-gcn"]))
    ok = mlp_mean >= gcn_mean - 0.005 and mlp_mean >= 0.82 and 0.81 <= knn_mean <= 0.87
    report(
        2,
        ok,
        f"ensemble(gcn+f-mlp) {mlp_mean:.4f} (>= gcn {gcn_mean:.4f} - 0.005 and >= 0.82); "
        f"ensemble(gcn+knn-gcn) {knn_mean:.4f} (band [0.81, 0.87])",
    )


# --- criterion 3: robustness under perturbation ------------------------------------


def test_acceptance_3_robustness(fixture_graph, dice_runs, cora_graph):
    detail = []
    ok = True

    ext = metattack_file(20)
    if cora_graph is not None and ext is not None:
        from cograph.attacks import load_perturbed_adjacency

        g = load_perturbed_adjacency(cora_graph, ext)
        gcn_accs, ens_accs = [], []
        for seed in SEEDS:
            split = split_nodes(g, 0.1, 0.1, seed)
            labs = truth(g, split.labeled)
            gcn = train_submodel(build_submodel(SubModelSpec(kind="gcn"), g), *labs, seed=seed)
            gcn_accs.append(accuracy(gcn, split.test, g.labels[split.test]))
            _, _, state = cotrain(
                g, split, SubModelSpec(kind="gcn"), SubModelSpec(kind="f-mlp"),
                n_add=250, max_iters=4, seed=seed,
            )
            ens_accs.append(state.history[-1].acc_ensemble)
        gcn_mean, ens_mean = float(np.mean(gcn_accs)), float(np.mean(ens_accs))
        ok &= 0.54 <= gcn_mean <= 0.65 and ens_mean >= gcn_mean + 0.10
        detail.append(
            f"ingested 20% perturbation: gcn {gcn_mean:.4f} (band [0.54, 0.65]), "
            f"ensemble {ens_mean:.4f} (>= gcn + 0.10)"
        )
    else:
        detail.append("no external perturbed adjacency supplied; substitute property applies")
        if cora_graph is not None:
            g = cora_graph
            gcn_accs, ens_accs = [], []
            for seed in SEEDS:
                perturbed = dice_perturb(g, g.labels, 0.2, seed=seed)
                split = split_nodes(perturbed, 0.1, 0.1, seed)
                labs = truth(perturbed, split.labeled)
                gcn = train_submodel(
                    build_submodel(SubModelSpec(kind="gcn"), perturbed), *labs, seed=seed
                )
                gcn_accs.append(accuracy(gcn, split.test, g.labels[split.test]))
                _, _, state = cotrain(
                    perturbed, split, SubModelSpec(kind="gcn"), SubModelSpec(kind="f-mlp"),
                    n_add=250, max_iters=4, seed=seed,
                )
                ens_accs.append(state.history[-1].acc_ensemble)
            gcn_mean, ens_mean = float(np.mean(gcn_accs)), float(np.mean(ens_accs))
            ok &= ens_mean >= gcn_mean + 0.05
            detail.append(f"cora dice@20%: gcn {gcn_mean:.4f}, ensemble {ens_mean:.4f} (>= gcn + 0.05)")

    gcn_mean = float(np.mean([r[0] for r in dice_runs]))
    ens_mean = float(np.mean([r[1][-1] for r in dice_runs]))
    ok &= ens_mean >= gcn_mean + 0.05
    detail.append(f"fixture dice@20%: gcn {gcn_mean:.4f}, ensemble {ens_mean:.4f} (>= gcn + 0.05)")
    report(3, ok, "; ".join(detail))


# --- criterion 4: co-training curve shape --------------------------------------------


def test_acceptance_4_cotrain_curve(dice_runs):
    curves = np.array([r[1] for r in dice_runs])
    mean_curve = curves.mean(axis=0)
    ok = mean_curve[-1] >= mean_curve[0] and mean_curve[1:].max() >= mean_curve[0]
    report(
        4,
        ok,
        f"mean ensemble curve on 20%-perturbed fixture over {len(dice_runs)} seeds: "
        f"{np.round(mean_curve, 4).tolist()} (final >= start, max at iteration >= 1)",
    )


# --- criterion 5: calibration contracts ------------------------------------------------


def test_acceptance_5_calibration(fixture_graph, cora_graph):
    rng = np.random.default_rng(0)
    # hard invariant on random problems: fitted NLL never worse than T=1,
    # argmax never changes
    for _ in range(50):
        z = rng.normal(0.0, rng.uniform(0.2, 6.0), size=(40, 5))
        y = rng.integers(0, 5, size=40)
        T = fit_temperature(z, y)
        assert nll(z, y, T) <= nll(z, y, 1.0) + 1e-12
        assert np.array_equal(calibrate(z, T).argmax(axis=1), z.argmax(axis=1))

    def gcn_ece(graph, seed):
        split = split_nodes(graph, 0.1, 0.1, seed)
        model = train_submodel(
            build_submodel(SubModelSpec(kind="gcn"), graph),
            *truth(graph, split.labeled),
            seed=seed,
        )
        logits = predict_logits(model, split.validation)
        y = graph.labels[split.validation]
        T = fit_temperature(logits, y)
        assert nll(logits, y, T) <= nll(logits, y, 1.0) + 1e-12
        _, before = reliability(calibrate(logits, 1.0), y)
        _, after = reliability(calibrate(logits, T), y)
        raw_acc = float((logits.argmax(axis=1) == y).mean())
        cal_acc = float((calibrate(logits, T).argmax(axis=1) == y).mean())
        assert raw_acc == cal_acc  # argmax invariance, exact
        return before, after

    detail = ["NLL(T) <= NLL(1) and exact argmax invariance held on 50 random fits"]
    ok = True
    if cora_graph is not None:
        pairs = [gcn_ece(cora_graph, seed) for seed in SEEDS]
        ok &= all(after <= before for before, after in pairs)
        detail.append(
            "cora gcn validation ECE before->after: "
            + ", ".join(f"{b:.4f}->{a:.4f}" for b, a in pairs)
        )
    else:
        pairs = [gcn_ece(fixture_graph, seed) for seed in SEEDS]
        ok &= all(after <= before for before, after in pairs)
        detail.append(
            "substitute (clean fixture gcn) validation ECE before->after: "
            + ", ".join(f"{b:.4f}->{a:.4f}" for b, a in pairs)
        )
    report(5, ok, "; ".join(detail))


# --- criterion 6: class-balancing ablation ------------------------------------------------


def test_acceptance_6_class_balancing():
    base = generate_synthetic(600, 4, 0.05, 0.02, 40, 0.25, seed=11)
    g = merge_classes(base, {0: 0, 1: 0, 2: 1, 3: 2})  # class 0 holds 50% of nodes
    split = split_nodes(g, 0.1, 0.1, seed=3)
    quota = class_quota(split.class_histogram, 20)

    def dominant_share(rec):
        predicted = np.array(rec.confusion).sum(axis=0)
        return predicted[0] / predicted.sum()

    _, _, off = cotrain(
        g, split, SubModelSpec(kind="gcn"), SubModelSpec(kind="f-mlp"),
        n_add=20, max_iters=10, seed=3, class_balancing=False,
    )
    drift = dominant_share(off.history[-1]) - dominant_share(off.history[0])

    _, _, on = cotrain(
        g, split, SubModelSpec(kind="gcn"), SubModelSpec(kind="f-mlp"),
        n_add=20, max_iters=10, seed=3, class_balancing=True,
    )
    worst_dev = 0
    for rec in on.history[1:]:
        for added in (rec.added_per_class_struct, rec.added_per_class_feat):
            worst_dev = max(
                worst_dev, max(abs(a - q) for a, q in zip(added, quota))
            )

    ok = drift >= 0.05 and worst_dev <= 1
    report(
        6,
        ok,
        f"balancing OFF: dominant-class prediction share rose {100 * drift:.1f} pts over 10 iterations (>= 5); "
        f"balancing ON: added labels within {worst_dev} of quota {quota} every iteration (<= 1)",
    )


# --- criterion 7: adaptive mixed attack --------------------------------------------------


def test_acceptance_7_mixed_attack(fixture_graph):
    g = fixture_graph
    ratios = (0.0, 0.25, 0.5, 0.75, 1.0)
    gcn_by_ratio, ens_by_ratio = [], []
    for ratio in ratios:
        gcn_accs, ens_accs = [], []
        for seed in SEEDS:
            setting = AttackSetting(name=f"mix{ratio}", method="dice", rate=0.2, feature_ratio=ratio)
            perturbed = apply_attack(g, setting, seed)
            split = split_nodes(perturbed, 0.1, 0.1, seed)
            labs = truth(perturbed, split.labeled)
            gcn = train_submodel(
                build_submodel(SubModelSpec(kind="gcn"), perturbed), *labs, seed=seed
            )
            gcn_accs.append(accuracy(gcn, split.test, g.labels[split.test]))
            _, _, state = cotrain(
                perturbed, split, SubModelSpec(kind="gcn"), SubModelSpec(kind="f-mlp"),
                n_add=30, max_iters=2, seed=seed,
            )
            ens_accs.append(state.history[-1].acc_ensemble)
        gcn_by_ratio.append(float(np.mean(gcn_accs)))
        ens_by_ratio.append(float(np.mean(ens_accs)))
    ok = min(ens_by_ratio) > min(gcn_by_ratio)
    report(
        7,
        ok,
        f"20% budget swept over feature ratios {ratios}: "
        f"ensemble min {min(ens_by_ratio):.4f} > gcn min {min(gcn_by_ratio):.4f} "
        f"(gcn {np.round(gcn_by_ratio, 3).tolist()}, ensemble {np.round(ens_by_ratio, 3).tolist()})",
    )


# --- criterion 8: numerical oracles ---------------------------------------------------------


def test_acceptance_8_numerical_oracles(fixture_graph):
    rng = np.random.default_rng(3)

    # gradient check, kink-filtered, against central differences
    from cograph.graph import make_graph
    from cograph.models import _Workspace

    X = rng.normal(size=(8, 6))
    g = make_graph(
        8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (2, 5)], X,
        rng.integers(0, 3, 8), 3,
    )
    hyper = TrainHyper(dropout=0.0, weight_decay=0.0)
    sm = build_submodel(SubModelSpec(kind="gcn", hyper=hyper), g)
    # every node's logits; training=True because only a training workspace builds
    # what the weight-gradient backward reads; dropout 0 keeps the forward deterministic
    ws = _Workspace(sm, np.arange(g.n), training=True)
    eps = 1e-5
    params = None
    for seed in range(30):
        cand = init_params(sm.layer_plan(), seed=seed)
        _, caches = ws.forward(cand)
        if min(np.abs(c[1]).min() for c in caches[:-1]) > 10 * eps:
            params = cand
            break
    assert params is not None, "no kink-free probe point found"
    targets = g.labels

    def loss_fn(p):
        logits, _ = ws.forward(p)
        return softmax_xent(logits, targets)[0]

    def grad_fn(p):
        logits, caches = ws.forward(p)
        _, gl = softmax_xent(logits, targets)
        grads = {k: np.empty_like(v) for k, v in p.items()}
        ws.backward(gl, caches, p, grads)  # writes each gradient into grads
        return grads

    grad_err = finite_diff_check(loss_fn, grad_fn, params, eps=eps)

    # eigen residuals on the fixture adjacency
    from cograph.views import laplacian_eigenmaps

    A = adjacency(fixture_graph)
    emb = laplacian_eigenmaps(A, 12)
    deg = np.asarray(A.sum(axis=1)).ravel()
    mass = np.where(deg > 0, deg, 1.0)
    L = np.diag(deg) - A.toarray()
    worst_resid_ratio = max(
        np.linalg.norm(L @ y - lam * mass * y) / (1e-6 * np.linalg.norm(mass * y))
        for lam, y in zip(emb.eigenvalues, emb.coords.T)
    )

    # softmax row normalization
    rows_err = np.abs(softmax(rng.normal(0, 20, size=(200, 7))).sum(axis=1) - 1.0).max()

    # quota sums exact
    quota_exact = all(
        sum(class_quota(rng.integers(1, 40, size=5), n)) == n
        for n in (0, 1, 7, 33, 250)
    )

    # co-training state invariants audited on every recorded iteration
    split = split_nodes(fixture_graph, 0.1, 0.1, 0)
    _, _, state = cotrain(
        fixture_graph, split,
        SubModelSpec(kind="gcn", hyper=TrainHyper(epochs=60)),
        SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=60)),
        n_add=15, max_iters=3, seed=0,
    )
    audit_state(state, fixture_graph, split)
    sizes = [rec.s_size for rec in state.history]

    ok = (
        grad_err < 1e-4
        and worst_resid_ratio <= 1.0
        and rows_err <= 1e-9
        and quota_exact
        and all(b >= a for a, b in zip(sizes, sizes[1:]))
    )
    report(
        8,
        ok,
        f"gradient check {grad_err:.2e} (< 1e-4); eigen residual at {worst_resid_ratio:.3f} of the "
        f"1e-6*||Dy|| bound; softmax row error {rows_err:.1e} (<= 1e-9); quota sums exact; "
        f"state invariants held on {len(sizes)} iterations",
    )


# --- criterion 9: determinism ------------------------------------------------------------------


def test_acceptance_9_determinism(tmp_path):
    raw = {
        "synthetic": dict(n=150, C=3, p_in=0.12, p_out=0.02, m=24, feature_noise=0.1, seed=5),
        "seeds": [0, 1],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 60}},
        "feat_model": {"kind": "f-mlp", "hyper": {"epochs": 60}},
        "n_add": 8,
        "max_iters": 2,
        "attacks": [{"name": "clean"}, {"name": "dice", "method": "dice", "rate": 0.15}],
    }
    cfg = ExperimentConfig.from_dict(raw)
    emit_report(run_experiment(cfg), tmp_path / "first")
    emit_report(run_experiment(cfg), tmp_path / "second")
    a = (tmp_path / "first" / "summary.json").read_bytes()
    b = (tmp_path / "second" / "summary.json").read_bytes()
    ok = a == b
    report(9, ok, f"two identical experiment runs produced byte-identical summary.json ({len(a)} bytes)")
