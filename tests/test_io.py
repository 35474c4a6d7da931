import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from cograph import GraphParseError, ValidationError, load_graph
from cograph.graph import make_graph
from cograph.io import load_graph_dir, parse_edge_list, save_dataset_dir, save_edge_list
from helpers import graphs_equal


def write_dataset(tmp_path, edges_text, features, labels_text):
    (tmp_path / "edges.tsv").write_text(edges_text)
    np.savetxt(tmp_path / "features.csv", features, delimiter=",", fmt="%.17g")
    (tmp_path / "labels.csv").write_text(labels_text)
    return tmp_path / "edges.tsv", tmp_path / "features.csv", tmp_path / "labels.csv"


def test_load_minimal_graph(tmp_path):
    paths = write_dataset(tmp_path, "0\t1\n", np.array([[1, 0], [0, 1]]), "node_id,label\n0,0\n1,1\n")
    g = load_graph(*paths)
    assert g.n == 2
    assert g.edges == frozenset({(0, 1)})
    assert g.C == 2
    assert g.labels.tolist() == [0, 1]


def test_load_symmetrizes_duplicate_directions(tmp_path):
    paths = write_dataset(
        tmp_path, "0\t1\n1\t0\n", np.array([[1, 0], [0, 1]]), "0,0\n1,1\n"
    )
    g = load_graph(*paths)
    assert g.num_edges == 1


def test_edge_list_comments_and_blanks(tmp_path):
    paths = write_dataset(
        tmp_path,
        "# comment line\n0\t1  # trailing\n\n",
        np.array([[1.0], [2.0]]),
        "0,0\n1,0\n",
    )
    g = load_graph(*paths)
    assert g.edges == frozenset({(0, 1)})


def test_malformed_edge_line_reports_lineno(tmp_path):
    paths = write_dataset(tmp_path, "0\t1\nbogus line here\n", np.eye(2), "0,0\n1,1\n")
    with pytest.raises(GraphParseError) as exc:
        load_graph(*paths)
    assert ":2:" in str(exc.value)


def test_edge_index_out_of_range(tmp_path):
    paths = write_dataset(tmp_path, "0\t9\n", np.eye(2), "0,0\n1,1\n")
    with pytest.raises(ValidationError, match=":1:"):
        load_graph(*paths)


def test_label_count_mismatch(tmp_path):
    paths = write_dataset(tmp_path, "0\t1\n", np.eye(2), "0,0\n")
    with pytest.raises(ValidationError):
        load_graph(*paths)


def test_matrix_market_features(tmp_path):
    X = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    scipy.io.mmwrite(tmp_path / "features.mtx", X)
    (tmp_path / "edges.tsv").write_text("0\t1\n1\t2\n")
    (tmp_path / "labels.csv").write_text("0,0\n1,1\n2,0\n")
    g = load_graph_dir(tmp_path)
    assert g.n == 3 and g.m == 2
    assert sp.issparse(g.X)  # kept sparse, never densified
    assert np.array_equal(g.X.toarray(), X.toarray())


def test_csr_features_save_as_their_dense_form(tmp_path, easy_graph):
    X = easy_graph.X.copy()
    X[0, :3] = [0.1, -2.5, 1e-300]
    dense = make_graph(easy_graph.n, easy_graph.edges, X, easy_graph.labels)
    csr = make_graph(easy_graph.n, easy_graph.edges, sp.csr_matrix(X), easy_graph.labels)
    save_dataset_dir(dense, tmp_path / "dense")
    save_dataset_dir(csr, tmp_path / "csr")
    for name in ("edges.tsv", "features.csv", "labels.csv"):
        assert (tmp_path / "dense" / name).read_bytes() == (tmp_path / "csr" / name).read_bytes()


def test_symmetrization_idempotent_roundtrip(tmp_path, easy_graph):
    save_dataset_dir(easy_graph, tmp_path)
    again = load_graph_dir(tmp_path)
    assert graphs_equal(easy_graph, again)
    # re-emitting the loaded graph changes nothing
    save_edge_list(again, tmp_path / "edges2.tsv")
    assert (tmp_path / "edges.tsv").read_text() == (tmp_path / "edges2.tsv").read_text()


def test_parse_edge_list_rejects_non_integers(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("0\t1.5\n")
    with pytest.raises(GraphParseError):
        parse_edge_list(p, 2)


def test_label_node_out_of_range_reports_lineno(tmp_path):
    paths = write_dataset(tmp_path, "0\t1\n", np.eye(2), "0,0\n9,1\n")
    with pytest.raises(GraphParseError) as exc:
        load_graph(*paths)
    assert ":2:" in str(exc.value)


def test_duplicate_label_rejected(tmp_path):
    paths = write_dataset(tmp_path, "0\t1\n", np.eye(2), "0,0\n0,1\n")
    with pytest.raises(GraphParseError):
        load_graph(*paths)


def test_missing_dataset_file_reports_path(tmp_path):
    with pytest.raises(ValidationError) as exc:
        load_graph_dir(tmp_path)
    assert str(tmp_path) in str(exc.value)
