"""Citation-dataset examples; these run only when the data is supplied.

Place the dataset under $COGRAPH_DATA/cora (default ./data/cora) as
edges.tsv + features.csv|.mtx + labels.csv. The loader is convention
agnostic: both the 2485-node largest-connected-component variant and the
2708-node full variant are accepted.
"""

import numpy as np
import pytest

from cograph import SubModelSpec, build_submodel, split_nodes, train_submodel
from cograph.io import load_graph_dir
from helpers import accuracy, truth
from test_acceptance import cora_dir

pytestmark = pytest.mark.skipif(
    cora_dir() is None, reason="citation dataset not present (see README: data layout)"
)


@pytest.fixture(scope="module")
def cora():
    return load_graph_dir(cora_dir())


def test_loader_reports_expected_statistics(cora):
    assert cora.m == 1433
    assert cora.C == 7
    if cora.n == 2485:  # largest-connected-component variant
        assert cora.num_edges == 5069
    else:
        assert cora.n == 2708
        assert 5000 <= cora.num_edges <= 5600


def test_gcn_reference_band(cora):
    accs = []
    for seed in (0, 1, 2):
        split = split_nodes(cora, 0.1, 0.1, seed)
        model = train_submodel(
            build_submodel(SubModelSpec(kind="gcn"), cora), *truth(cora, split.labeled), seed=seed
        )
        accs.append(accuracy(model, split.test, cora.labels[split.test]))
    assert 0.815 <= float(np.mean(accs)) <= 0.855


def test_smlp_reference_band(cora):
    accs = []
    for seed in (0, 1, 2):
        split = split_nodes(cora, 0.1, 0.1, seed)
        model = train_submodel(
            build_submodel(SubModelSpec(kind="s-mlp", k=50), cora),
            *truth(cora, split.labeled),
            seed=seed,
        )
        accs.append(accuracy(model, split.test, cora.labels[split.test]))
    assert 0.76 <= float(np.mean(accs)) <= 0.80
