"""Node-classification experiment protocols.

Labels are censored on a test set drawn by a configurable sampling
scheme: uniform vertices, the vertices of one p-sampling draw (the
endpoints of the edges a `draw_key` retention mask induces), or the first
distinct vertices of random walks from `draw_key`. Embeddings are
trained either in two stages (structure first, then a frozen-embedding
logistic regression) or simultaneously through the combined loss; scoring
is average macro-F1 under one of PREDICTION_MODES.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .graph import Graph, LabelTable, induced_edges
from .losses import ParamStore, _sigmoid_and_exp
from .samplers import SamplerConfig, _first_seen, draw_key
from .trainer import TrainConfig, train

SPLIT_SCHEMES = ("uniform_vertex", "p_sampling", "random_walk")
PREDICTION_MODES = ("threshold", "top_k")
SPLIT_WALK = SamplerConfig(algorithm="rw_induced", walk_length=100)  # the walks of a split


class EvalError(Exception):
    pass


@dataclass(frozen=True)
class Split:
    train_vertices: np.ndarray
    test_vertices: np.ndarray
    scheme: str

    def __post_init__(self):
        if np.intersect1d(self.train_vertices, self.test_vertices).size:
            raise EvalError("train and test sets overlap")


def make_split(graph: Graph, fraction: float, scheme: str,
               rng: np.random.Generator) -> Split:
    """Draw a test set of ~fraction*V vertices by the given scheme; the
    train set is the complement."""
    if not 0.0 <= fraction <= 1.0:
        raise EvalError("fraction must be in [0, 1]")
    if scheme not in SPLIT_SCHEMES:
        raise EvalError(f"unknown split scheme {scheme!r}")
    v = graph.vertex_count
    target = int(round(fraction * v))
    if target == 0:
        test = np.zeros(0, dtype=np.int64)
    elif scheme == "uniform_vertex":
        test = np.sort(rng.choice(v, size=target, replace=False).astype(np.int64))
    elif scheme == "p_sampling":
        # bisect the retention probability until one seeded draw lands near
        # the requested fraction; a probe needs only the draw's vertices
        # (the endpoints of its induced edges), not its pairs
        lo, hi = 0.0, 1.0
        test = np.zeros(0, dtype=np.int64)
        probe = np.random.default_rng(rng.integers(2 ** 63))
        for _ in range(25):
            p = 0.5 * (lo + hi)
            key = draw_key(graph, SamplerConfig(retention=p),
                           np.random.default_rng(probe.integers(2 ** 63)))
            test = np.unique(induced_edges(graph, key))
            if len(test) < target:
                lo = p
            else:
                hi = p
    else:  # random_walk
        # walks reach only non-isolated vertices
        reachable = int((graph.degrees > 0).sum())
        if target > reachable:
            raise EvalError(f"random_walk split needs {target} test vertices, but only "
                            f"{reachable} of {v} vertices have an edge")
        # the first `target` distinct vertices in visiting order, over
        # successive walks
        seen = np.zeros(0, dtype=np.int64)
        while len(seen) < target:
            fresh = _first_seen(draw_key(graph, SPLIT_WALK, rng))
            seen = np.concatenate([seen, fresh[~np.isin(fresh, seen)]])
        test = np.sort(seen[:target])
    in_train = np.ones(v, dtype=bool)
    in_train[test] = False
    return Split(np.flatnonzero(in_train), test, scheme)


def macro_f1(predicted: np.ndarray, truth: LabelTable, test: np.ndarray) -> float:
    """Mean over labels of the per-label F1 on the test vertices; a label's
    F1 is 0 when 2TP+FP+FN = 0."""
    test = np.asarray(test, dtype=np.int64)
    pred = np.asarray(predicted, dtype=bool)[test]
    true = truth.labels[test]
    tp = (pred & true).sum(axis=0).astype(np.float64)
    fp = (pred & ~true).sum(axis=0).astype(np.float64)
    fn = (~pred & true).sum(axis=0).astype(np.float64)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    return float(f1.mean())


def fit_logistic(features: np.ndarray, targets: np.ndarray,
                 l2: float = 1e-4) -> tuple[np.ndarray, np.ndarray]:
    """Fit independent per-label logistic regressions (weights, bias) by
    L-BFGS on the mean cross-entropy with a small ridge term. Each
    evaluation takes one e = exp(-|z|) of the logits z for both the loss,
    softplus(z) - y z = max(z, 0) + log1p(e) - y z, and its gradient,
    sigmoid(z) - y."""
    if features.ndim != 2 or targets.ndim != 2:
        raise EvalError(f"features and targets must be 2-D, not {features.ndim}-D "
                        f"and {targets.ndim}-D")
    if len(features) != len(targets):
        raise EvalError(f"{len(features)} feature rows but {len(targets)} target rows")
    if not len(features):
        raise EvalError("no rows to fit")
    if not np.isfinite(features).all():
        raise EvalError("features are not all finite")
    n, d = features.shape
    L = targets.shape[1]
    y = targets.astype(np.float64)

    def objective(x):
        w = x[: d * L].reshape(d, L)
        b = x[d * L:]
        z = features @ w + b
        p, e = _sigmoid_and_exp(z)
        ll = np.maximum(z, 0.0) + np.log1p(e) - y * z
        loss = ll.sum() / n + 0.5 * l2 * (w ** 2).sum()
        gz = (p - y) / n
        gw = features.T @ gz + l2 * w
        gb = gz.sum(axis=0)
        return loss, np.concatenate([gw.reshape(-1), gb])

    x0 = np.zeros(d * L + L)
    res = minimize(objective, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 500})
    w = res.x[: d * L].reshape(d, L)
    b = res.x[d * L:]
    return w, b


def predict_labels(params: ParamStore, vertices: np.ndarray, truth: LabelTable,
                   mode: str = "threshold") -> np.ndarray:
    """Per-vertex label predictions over all graph vertices.

    threshold: probability > 0.5 per label. top_k: predict each vertex's
    true label count's top-scoring labels (the Node2Vec scoring protocol).
    """
    if mode not in PREDICTION_MODES:
        raise EvalError(f"unknown prediction mode {mode!r}")
    n = len(truth.mask)
    pred = np.zeros((n, truth.label_dim), dtype=bool)
    lam = params.embeddings.rows(vertices)  # (0, d) for no vertices
    z = lam @ params.weights + params.bias
    if mode == "threshold":
        pred[vertices] = z > 0.0
    else:  # top_k: each label's rank is the inverse permutation of the order
        rank = np.argsort(np.argsort(-z, axis=1), axis=1)
        pred[vertices] = rank < truth.labels[vertices].sum(axis=1)[:, None]
    return pred


def _censored(labels: LabelTable, split: Split) -> LabelTable:
    mask = np.zeros(len(labels.mask), dtype=bool)
    mask[split.train_vertices] = True
    return labels.with_mask(mask)


def two_stage_eval(graph: Graph, labels: LabelTable, split: Split,
                   train_config: TrainConfig,
                   prediction_mode: str = "threshold") -> float:
    """Stage 1: train embeddings on structure only (q=0). Stage 2: fit a
    logistic regression on the train vertices with embeddings frozen.
    Returns macro-F1 on the test vertices."""
    cfg = replace(train_config, loss=replace(train_config.loss, q=0.0, mode="edge_only"))
    params, _ = train(graph, None, None, cfg)
    all_verts = np.arange(graph.vertex_count, dtype=np.int64)
    feats = params.embedding_matrix(all_verts)
    w, b = fit_logistic(feats[split.train_vertices],
                        labels.labels[split.train_vertices])
    fitted = params.copy()
    fitted.label_dim = labels.label_dim
    fitted.weights, fitted.bias = w, b
    pred = predict_labels(fitted, all_verts, labels, prediction_mode)
    return macro_f1(pred, labels, split.test_vertices)


def simultaneous_eval(graph: Graph, labels: LabelTable, split: Split,
                      train_config: TrainConfig,
                      prediction_mode: str = "threshold") -> float:
    """One-stage training through the combined loss (label term on observed
    train vertices only); scores macro-F1 on the test vertices."""
    cfg = replace(train_config,
                  loss=replace(train_config.loss, mode="node_classification"))
    censored = _censored(labels, split)
    params, _ = train(graph, censored, None, cfg)
    all_verts = np.arange(graph.vertex_count, dtype=np.int64)
    pred = predict_labels(params, all_verts, labels, prediction_mode)
    return macro_f1(pred, labels, split.test_vertices)
