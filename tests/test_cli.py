import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from cograph import SubModelSpec, build_submodel, load_graph_dir, save_dataset_dir, split_nodes, train_submodel
from cograph.cli import build_parser, main
from cograph.graph import make_graph
from cograph.experiment import ExperimentConfig
from cograph.models import ALL_KINDS, FEATURE_KINDS, STRUCTURE_KINDS, predict_logits
from cograph.nn import TrainHyper
from helpers import accuracy, truth


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def gen_dataset(capsys, tmp_path, **kw):
    data = tmp_path / "data"
    args = [
        "--seed", "3", "--out", str(data), "gen-synthetic",
        "--nodes", str(kw.get("nodes", 150)),
        "--classes", "3",
        "--p-in", "0.12",
        "--p-out", "0.02",
        "--feature-dim", "24",
        "--feature-noise", "0.1",
    ]
    rc, out = run_cli(capsys, *args)
    assert rc == 0
    return data


def test_gen_synthetic_writes_dataset(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    assert (data / "edges.tsv").exists()
    assert (data / "features.csv").exists()
    assert (data / "labels.csv").exists()
    assert (data / "meta.json").exists()


def test_train_subcommand(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    rc, out = run_cli(
        capsys, "--seed", "0", "--out", str(tmp_path / "run"), "train",
        "--data", str(data), "--model", "gcn", "--epochs", "50",
    )
    assert rc == 0
    metrics = json.loads(out)
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    assert (tmp_path / "run" / "checkpoint.csv").exists()
    assert (tmp_path / "run" / "metrics.json").exists()


# sha256 of checkpoint.csv written by `cograph --seed 0 --out D train --data
# <attack fixture> --model K`; where a fit keeps its parameters must not move them
CHECKPOINT_SHA256 = {
    "f-mlp": "8faf042a11698b919d5d5c4c41ac34b66fbd71e89e3b51e00e28dfe9b6c3c996",
    "gcn": "ede5b8e597a9622277ee529d458e947e0b1350bd88c3091d533373feef3001df",
}


# sha256 of each file `cograph --seed 0 --out D cotrain --data <attack fixture>`
# writes; how co-training keeps its labeled set must not move them
COTRAIN_SHA256 = {
    "history.jsonl": "c674e9af071db6d89d607c70b2dac4a49d0ba1ee58cdb8dd701ec3522fe8f351",
    "metrics.json": "6fc2eb9aca46ac13dba25fa027587051994f7393329ba053000406dd692ec598",
    "struct_checkpoint.csv": "aecd0c823592f63281db6d7a3241a265564276c1b53c2b65c7bfbb3fb40ae4b9",
    "feat_checkpoint.csv": "2d1b78ae089be96bf8424fcd1a13aee45f51bed616c8008f7be429e96ed58e35",
}


@pytest.mark.parametrize("kind", ["f-mlp", "gcn"])
def test_train_checkpoint_bytes_are_pinned(capsys, tmp_path, attack_graph, kind):
    """Checkpoint rows stay in W0, b0, W1, b1 order with unchanged values,
    whatever order the parameter buffer holds them in."""
    save_dataset_dir(attack_graph, tmp_path / "data")
    rc, _ = run_cli(
        capsys, "--seed", "0", "--out", str(tmp_path / "run"), "train",
        "--data", str(tmp_path / "data"), "--model", kind,
    )
    assert rc == 0
    text = (tmp_path / "run" / "checkpoint.csv").read_bytes()
    names = [line.split(b",")[0].decode() for line in text.splitlines()]
    assert names == (["W0", "b0", "W1", "b1"] if kind == "f-mlp" else ["W0", "W1"])
    assert hashlib.sha256(text).hexdigest() == CHECKPOINT_SHA256[kind]


def test_cotrain_output_bytes_are_pinned(capsys, tmp_path, attack_graph):
    save_dataset_dir(attack_graph, tmp_path / "data")
    rc, _ = run_cli(
        capsys, "--seed", "0", "--out", str(tmp_path / "run"), "cotrain",
        "--data", str(tmp_path / "data"),
    )
    assert rc == 0
    history = (tmp_path / "run" / "history.jsonl").read_text().splitlines()
    assert len(history) > 2 and json.loads(history[-1])["S_size"] > json.loads(history[0])["S_size"]
    for name, digest in COTRAIN_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_train_scores_every_node_in_one_pass(capsys, tmp_path, monkeypatch, command):
    data = gen_dataset(capsys, tmp_path)
    calls = []

    def counting(trained, nodes):
        calls.append(len(nodes))
        return predict_logits(trained, nodes)

    monkeypatch.setattr("cograph.cli.predict_logits", counting)
    rc, out = run_cli(
        capsys, "--seed", "1", command, "--data", str(data), "--model", "f-mlp", "--epochs", "20"
    )
    assert rc == 0
    assert calls == [150]
    # the same accuracies as scoring each split on its own
    g = load_graph_dir(data)
    split = split_nodes(g, 0.1, 0.1, 1)
    spec = SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=20))
    model = train_submodel(build_submodel(spec, g), *truth(g, split.labeled), seed=1)
    metrics = json.loads(out)
    splits = {"train": split.labeled, "val": split.validation, "test": split.test}
    for key in ("train", "val", "test") if command == "train" else ("test",):
        nodes = splits[key]
        assert metrics[f"{key}_accuracy"] == accuracy(model, nodes, g.labels[nodes])


def test_cotrain_subcommand(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    rc, out = run_cli(
        capsys, "--seed", "0", "--out", str(tmp_path / "ct"), "cotrain",
        "--data", str(data), "--struct", "gcn", "--feat", "f-mlp",
        "--n-add", "8", "--max-iters", "1", "--epochs", "50",
    )
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["iterations"] == 1
    history = (tmp_path / "ct" / "history.jsonl").read_text().strip().splitlines()
    assert len(history) == 2
    assert json.loads(history[0])["iter"] == 0


def test_attack_subcommand_writes_sidecar(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    out_dir = tmp_path / "pert"
    rc, out = run_cli(
        capsys, "--seed", "1", "--out", str(out_dir), "attack",
        "--data", str(data), "--method", "dice", "--rate", "0.1",
    )
    assert rc == 0
    sidecar = json.loads((out_dir / "perturbation.json").read_text())
    assert sidecar["method"] == "dice"
    assert len(sidecar["flip_log_hash"]) == 64


def _words_dataset(tmp_path):
    """A bag-of-words-like dataset (300 nodes, 120 features, about 5 % set),
    whose feature models read CSR inputs."""
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, 300)
    p = np.full((4, 120), 0.02)
    for c in range(4):
        p[c, 30 * c : 30 * (c + 1)] = 0.15
    X = (rng.random((300, 120)) < p[labels]).astype(float)
    data = tmp_path / "words"
    save_dataset_dir(make_graph(300, rng.integers(0, 300, (600, 2)), X, labels, 4), data)
    return data


def _mtx_twin(data):
    """The dataset directory again, with its features in Matrix Market
    coordinates."""
    twin = data.with_name(data.name + "-mtx")
    twin.mkdir()
    for name in ("edges.tsv", "labels.csv"):
        (twin / name).write_bytes((data / name).read_bytes())
    X = np.loadtxt(data / "features.csv", delimiter=",")
    scipy.io.mmwrite(twin / "features.mtx", sp.csr_matrix(X))
    return twin


def _same_bits(a, b):
    if sp.issparse(a) or sp.issparse(b):
        return sp.issparse(a) and sp.issparse(b) and a.shape == b.shape and all(
            x.tobytes() == y.tobytes() for x, y in [(a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)]
        )
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dataset", ["words", "synthetic"])
def test_matrix_market_twin_trains_like_its_csv(capsys, tmp_path, dataset, kind):
    """.mtx features load as CSR; the models read the inputs of the CSV
    twin bit for bit: CSR for the sparse words, dense for the 24-wide
    synthetic set, and train to the same metrics."""
    data = _words_dataset(tmp_path) if dataset == "words" else gen_dataset(capsys, tmp_path)
    twin = _mtx_twin(data)
    assert sp.issparse(load_graph_dir(twin).X)
    spec = SubModelSpec(kind=kind, k=8)
    csv_inputs, mtx_inputs = (build_submodel(spec, load_graph_dir(d)).inputs for d in (data, twin))
    assert sp.issparse(csv_inputs) == (dataset == "words" and kind != "s-mlp")
    assert _same_bits(csv_inputs, mtx_inputs)
    argv = ["train", "--model", kind, "--k", "8", "--epochs", "20"]
    outs = [run_cli(capsys, "--seed", "2", *argv, "--data", str(d)) for d in (data, twin)]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


@pytest.mark.parametrize("method, ratio", [("grad-feat", "0"), ("dice", "0.5")])
def test_attack_on_matrix_market_twin_writes_the_same_files(capsys, tmp_path, method, ratio):
    """CSR features, as loaded from .mtx and attacked for a CSR victim,
    write the bytes and the sidecar their dense CSV twin does."""
    data = _words_dataset(tmp_path)
    twin = _mtx_twin(data)
    counts = []
    for d, out in ((data, tmp_path / "from-csv"), (twin, tmp_path / "from-mtx")):
        rc, emitted = run_cli(
            capsys, "--seed", "1", "--out", str(out), "attack", "--data", str(d),
            "--method", method, "--rate", "0.2", "--feature-ratio", ratio,
        )
        assert rc == 0
        counts.append(json.loads(emitted)["feature_bits_changed"])
    assert counts[0] == counts[1] > 0
    for name in ("edges.tsv", "features.csv", "labels.csv", "perturbation.json"):
        assert (tmp_path / "from-csv" / name).read_bytes() == (tmp_path / "from-mtx" / name).read_bytes()


def test_calibrate_subcommand(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    rc, out = run_cli(
        capsys, "--seed", "0", "--out", str(tmp_path / "cal"), "calibrate",
        "--data", str(data), "--model", "gcn", "--epochs", "50",
    )
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["temperature"] > 0
    assert metrics["val_nll_after"] <= metrics["val_nll_before"] + 1e-12
    csv = (tmp_path / "cal" / "reliability.csv").read_text().splitlines()
    assert csv[0] == "split,phase,bin_low,bin_high,count,confidence,accuracy"


def test_experiment_subcommand(capsys, tmp_path):
    config = {
        "synthetic": dict(n=120, C=3, p_in=0.15, p_out=0.02, m=24, feature_noise=0.1, seed=5),
        "seeds": [0],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 40}},
        "feat_model": {"kind": "f-mlp", "hyper": {"epochs": 40}},
        "n_add": 5,
        "max_iters": 1,
        "out_dir": str(tmp_path / "exp"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc, out = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert rc == 0
    assert (tmp_path / "exp" / "summary.json").exists()


def test_validation_error_exits_2(capsys, tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope"), "--model", "gcn"])
    assert rc == 2


def test_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc = main(["experiment", "--config", str(cfg)])
    assert rc == 2


@pytest.mark.parametrize(
    "level, key",
    [
        ("config", "max_iter"),
        ("spec", "epochs"),
        ("hyper", "epoch"),
        ("attack", "methd"),
        ("synthetic", "sed"),
    ],
)
def test_config_typo_exits_2_naming_the_key(capsys, tmp_path, level, key):
    config = {
        "synthetic": dict(n=60, C=2, p_in=0.2, p_out=0.05, m=8, feature_noise=0.1, seed=5),
        "seeds": [0],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 10}},
        "feat_model": {"kind": "f-mlp", "hyper": {"epochs": 10}},
        "attacks": [{"name": "dice", "method": "dice", "rate": 0.1}],
        "out_dir": str(tmp_path / "out"),
    }
    target = {
        "config": config,
        "spec": config["struct_model"],
        "hyper": config["struct_model"]["hyper"],
        "attack": config["attacks"][0],
        "synthetic": config["synthetic"],
    }[level]
    target[key] = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_feature_file_exits_2(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    X = np.loadtxt(data / "features.csv", delimiter=",")
    X[3, 2] = np.nan
    np.savetxt(data / "features.csv", X, delimiter=",")
    rc = main(["train", "--data", str(data), "--model", "f-mlp", "--epochs", "5"])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err


def test_non_finite_matrix_market_features_exit_2(capsys, tmp_path):
    twin = _mtx_twin(gen_dataset(capsys, tmp_path))
    X = scipy.io.mmread(twin / "features.mtx").tocsr()
    X.data[5] = np.nan
    scipy.io.mmwrite(twin / "features.mtx", X)
    rc = main(["train", "--data", str(twin), "--model", "f-mlp", "--epochs", "5"])
    assert rc == 2
    assert "NaN or infinite" in capsys.readouterr().err


BAD_HYPER = [
    ("learning_rate", "nan"),
    ("learning_rate", "inf"),
    ("weight_decay", "nan"),
    ("weight_decay", "inf"),
    ("weight_decay", "-1"),
]


@pytest.mark.parametrize("field, value", BAD_HYPER)
def test_bad_hyper_flag_exits_2_naming_the_field(capsys, tmp_path, field, value):
    data = gen_dataset(capsys, tmp_path)
    flag = {"learning_rate": "--lr", "weight_decay": "--weight-decay"}[field]
    rc = main(["train", "--data", str(data), "--model", "f-mlp", "--epochs", "5", flag, value])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", BAD_HYPER)
def test_bad_hyper_in_config_exits_2_naming_the_field(capsys, tmp_path, field, value):
    config = {
        "synthetic": dict(n=60, C=2, p_in=0.2, p_out=0.05, m=8, feature_noise=0.1, seed=5),
        "seeds": [0],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 10}},
        "feat_model": {"kind": "f-mlp", "hyper": {"epochs": 10, field: float(value)}},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))  # NaN and Infinity literals
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_INTEGERS = [
    ("threads", 2.5),
    ("threads", "2"),
    ("n_add", 2.5),
    ("n_add", -1),
    ("max_iters", 1.5),
    ("max_iters", True),
    ("reliability_bins", 0),
    ("reliability_bins", 1),
    ("seeds", [0.5]),
    ("seeds", [True]),
    ("seeds", [-1]),
    # a dotted field names a nested value: a spec, its hyper, an attack, synthetic
    ("struct_model.hyper.epochs", 5.0),
    ("struct_model.hyper.learning_rate", "0.01"),
    ("struct_model.hidden", [16.5]),
    ("feat_model.k", 2.5),
    ("attacks.0.rate", "0.1"),
    ("synthetic.n", 120.0),
    ("train_frac", "0.1"),
    ("calibration", "no"),
]


def _experiment_with(capsys, tmp_path, field, value):
    """Exit code and stderr of `experiment` on a small config whose field,
    dotted for a nested value, is set to value; no report may be written."""
    config = {
        "synthetic": dict(n=120, C=3, p_in=0.15, p_out=0.02, m=24, feature_noise=0.1, seed=5),
        "seeds": [0],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 10}},
        "feat_model": {"kind": "knn-gcn", "hyper": {"epochs": 10}},
        "attacks": [{"name": "dice", "method": "dice", "rate": 0.1}],
        "n_add": 5,
        "max_iters": 1,
        "out_dir": str(tmp_path / "out"),
    }
    *parents, leaf = field.split(".")
    target = config
    for key in parents:
        target = target[int(key) if isinstance(target, list) else key]
    target[leaf] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert not (tmp_path / "out").exists()
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("field, value", BAD_INTEGERS, ids=[f"{f}={v!r}" for f, v in BAD_INTEGERS])
def test_bad_integer_in_config_exits_2_naming_the_field(capsys, tmp_path, field, value):
    rc, err = _experiment_with(capsys, tmp_path, field, value)
    assert rc == 2
    assert f"{field.split('.')[-1]} must be" in err


BAD_SHAPES = [
    ("seeds", 5, "seeds must be a list"),
    ("seeds", "01", "seeds must be a list"),
    ("struct_model.hidden", 16, "struct_model.hidden must be a list"),
    ("attacks", {"name": "clean"}, "attacks must be a list"),
    ("attacks", ["clean"], "attacks[0] must be a mapping"),
    ("synthetic", [1, 2], "synthetic must be a mapping"),
    ("feat_model", "knn-gcn", "feat_model must be a mapping"),
    ("struct_model.hyper", [10], "struct_model.hyper must be a mapping"),
]


@pytest.mark.parametrize("field, value, message", BAD_SHAPES, ids=[f"{f}={v!r}" for f, v, _ in BAD_SHAPES])
def test_wrong_container_in_config_exits_2_naming_the_field(capsys, tmp_path, field, value, message):
    rc, err = _experiment_with(capsys, tmp_path, field, value)
    assert rc == 2
    assert message in err


def test_config_that_is_not_a_mapping_exits_2(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    assert main(["experiment", "--config", str(cfg_path)]) == 2
    assert "config must be a mapping" in capsys.readouterr().err


def test_split_without_test_nodes_exits_2(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    rc = main(["cotrain", "--data", str(data), "--train-frac", "0.5", "--val-frac", "0.5"])
    assert rc == 2
    assert "no test node" in capsys.readouterr().err


def test_nan_split_fraction_exits_2(capsys, tmp_path):
    data = gen_dataset(capsys, tmp_path)
    rc = main(["train", "--data", str(data), "--model", "gcn", "--train-frac", "nan"])
    assert rc == 2
    assert "fractions must be positive" in capsys.readouterr().err


def test_config_split_without_test_nodes_exits_2_before_any_cell(capsys, tmp_path):
    cfg_path = _tiny_config(tmp_path, train_frac=0.5, val_frac=0.5)
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 2
    assert "no test node" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flag_defaults_are_the_library_defaults():
    hyper = TrainHyper()
    config = {f.name: f.default for f in fields(ExperimentConfig)}
    k = SubModelSpec(kind="gcn").k
    parser = build_parser()
    for argv in (["train", "--data", "d", "--model", "gcn"], ["calibrate", "--data", "d"]):
        args = parser.parse_args(argv)
        assert args.k == k
        assert args.train_frac == config["train_frac"]
        assert args.val_frac == config["val_frac"]
        assert (args.epochs, args.lr, args.weight_decay, args.dropout) == (
            hyper.epochs,
            hyper.learning_rate,
            hyper.weight_decay,
            hyper.dropout,
        )
    args = parser.parse_args(["cotrain", "--data", "d"])
    assert (args.struct_k, args.feat_k) == (k, k)
    assert (args.n_add, args.max_iters) == (config["n_add"], config["max_iters"])
    assert parser.parse_args(["calibrate", "--data", "d"]).bins == config["reliability_bins"]


@pytest.mark.parametrize("command", ["train", "attack", "gen-synthetic"])
def test_negative_seed_exits_2(capsys, tmp_path, command):
    data = gen_dataset(capsys, tmp_path)
    argv = {
        "train": ["train", "--data", str(data), "--model", "gcn", "--epochs", "5"],
        "attack": ["attack", "--data", str(data), "--method", "dice", "--rate", "0.1"],
        "gen-synthetic": ["gen-synthetic", "--nodes", "30"],
    }[command]
    rc = main(["--seed", "-1", "--out", str(tmp_path / "out"), *argv])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _tiny_config(tmp_path, **changes):
    config = {
        "synthetic": dict(n=60, C=2, p_in=0.2, p_out=0.05, m=8, feature_noise=0.1, seed=5),
        "seeds": [0],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 10}},
        "feat_model": {"kind": "f-mlp", "hyper": {"epochs": 10}},
        "out_dir": str(tmp_path / "out"),
        **changes,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return cfg_path


@pytest.mark.parametrize("seed", ["3", "-1"])
def test_experiment_refuses_a_global_seed(capsys, tmp_path, seed):
    """The cells take their seeds from the config, so a --seed the sweep
    would ignore exits 2 and names the two settings that do shift them."""
    rc = main(["--seed", seed, "experiment", "--config", str(_tiny_config(tmp_path))])
    assert rc == 2
    err = capsys.readouterr().err
    assert "seeds" in err and "--seed-offset" in err
    assert not (tmp_path / "out").exists()


def test_negative_synthetic_seed_in_config_exits_2(capsys, tmp_path):
    synthetic = dict(n=60, C=2, p_in=0.2, p_out=0.05, m=8, feature_noise=0.1, seed=-3)
    rc = main(["experiment", "--config", str(_tiny_config(tmp_path, synthetic=synthetic))])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("seed", 5), ("optimizer", "sgd")])
def test_removed_hyper_key_in_config_exits_2_naming_it(capsys, tmp_path, key, value):
    feat_model = {"kind": "f-mlp", "hyper": {"epochs": 10, key: value}}
    rc = main(["experiment", "--config", str(_tiny_config(tmp_path, feat_model=feat_model))])
    assert rc == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_optimizer_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "d", "--model", "gcn", "--optimizer", "adam"])
    assert exc.value.code == 2
    assert "--optimizer" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    rc = main(["experiment"])
    assert rc == 2


@pytest.mark.parametrize(
    "flag", [["--threads", "2"], ["--config", "x.json"]], ids=["threads", "config"]
)
def test_experiment_flags_exit_2_on_other_subcommands(flag):
    with pytest.raises(SystemExit) as exc:
        main([*flag, "train", "--data", "d", "--model", "gcn"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--threads", "2", "train", "--data", "d", "--model", "gcn"],
        ["--config", "x.json", "experiment"],
        ["--seed-offset", "3", "experiment", "--config", "x.json"],
    ],
    ids=["threads", "config", "seed-offset"],
)
def test_misplaced_flag_names_itself(capsys, argv):
    """A subcommand flag given before the subcommand is named in the error,
    not its value read as an unknown subcommand."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{argv[0]} is not a global option" in err and "after the subcommand" in err


def test_global_flags_take_the_equals_form(capsys, tmp_path):
    rc, out = run_cli(capsys, "--seed=3", f"--out={tmp_path / 'data'}", "gen-synthetic", "--nodes", "30")
    assert rc == 0
    assert json.loads(out)["seed"] == 3
    assert (tmp_path / "data" / "edges.tsv").exists()


def test_cotrain_view_choices_are_the_model_kinds():
    parser = build_parser()
    for flag, kinds in (("--struct", STRUCTURE_KINDS), ("--feat", FEATURE_KINDS)):
        for kind in ALL_KINDS:
            argv = ["cotrain", "--data", "d", flag, kind]
            if kind in kinds:
                assert getattr(parser.parse_args(argv), flag[2:]) == kind
            else:
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)


def test_experiment_with_failing_cells_exits_1(capsys, tmp_path):
    config = {
        "synthetic": dict(n=60, C=2, p_in=0.2, p_out=0.05, m=8, feature_noise=0.1, seed=5),
        "seeds": [0],
        "struct_model": {"kind": "gcn", "hyper": {"epochs": 10}},
        "feat_model": {"kind": "f-mlp", "hyper": {"epochs": 10}},
        "n_add": 2,
        "max_iters": 0,
        "attacks": [{"name": "bad", "method": "external", "path": "does-not-exist.tsv"}],
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 1  # cells failed at runtime; report still written
    assert (tmp_path / "out" / "summary.json").exists()
