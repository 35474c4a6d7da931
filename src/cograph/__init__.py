"""Two-view co-training defense for semi-supervised node classification.

Sub-models over the structure view (graph convolution, spectral-embedding
MLP) and the feature view (raw-feature MLP, kNN-graph convolution) teach
each other through calibrated, class-balanced pseudo-labels; their averaged
ensemble resists structural and feature perturbations that fool either
view alone.
"""

from .calibration import calibrate, fit_temperature, reliability
from .cotrain import (
    CoTrainState,
    class_quota,
    cotrain,
    ensemble_predict,
    resolve_conflicts,
    select_confident,
)
from .errors import EigenSolverError, GraphParseError, TrainingError, ValidationError
from .graph import (
    Graph,
    NodeSplit,
    generate_synthetic,
    normalized_adjacency,
    split_nodes,
)
from .io import load_graph, load_graph_dir, save_dataset_dir
from .models import (
    SubModelSpec,
    TrainedSubModel,
    build_submodel,
    predict_logits,
    train_submodel,
)
from .nn import TrainHyper, adam_step, init_params, softmax_xent
from .views import Embedding, knn_graph, laplacian_eigenmaps, smlp_features

__version__ = "0.1.0"

__all__ = [
    "CoTrainState",
    "Embedding",
    "EigenSolverError",
    "Graph",
    "GraphParseError",
    "NodeSplit",
    "SubModelSpec",
    "TrainHyper",
    "TrainedSubModel",
    "TrainingError",
    "ValidationError",
    "adam_step",
    "build_submodel",
    "calibrate",
    "class_quota",
    "cotrain",
    "ensemble_predict",
    "fit_temperature",
    "generate_synthetic",
    "init_params",
    "knn_graph",
    "laplacian_eigenmaps",
    "load_graph",
    "load_graph_dir",
    "normalized_adjacency",
    "predict_logits",
    "reliability",
    "resolve_conflicts",
    "save_dataset_dir",
    "select_confident",
    "smlp_features",
    "softmax_xent",
    "split_nodes",
    "train_submodel",
]
