"""Property sweep over `train`: on tiny random graphs with isolated
vertices, degree-1 vertices and isolated edges, every sampler x negative
mode x loss mode either trains to finite parameters and a finite risk
trace (empty draws included) or raises one of relerm's typed errors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relerm import LabelTable, LossConfig, SamplerConfig, TrainConfig, from_edges, train
from relerm.graph import GraphError
from relerm.losses import LOSS_MODES, NumericError
from relerm.samplers import ALGORITHMS, NEGATIVE_MODES, SamplerError
from relerm.trainer import TrainerError
from conftest import category_map

TYPED = (SamplerError, NumericError, TrainerError, GraphError)


@st.composite
def tiny_graphs(draw):
    """A random core on up to 5 vertices, then optionally an isolated
    vertex, a pendant vertex on vertex 0 and an isolated edge."""
    core = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, core - 1), st.integers(0, core - 1)),
                          max_size=8))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    n = core
    if draw(st.booleans()):  # a pendant on vertex 0
        edges.append((0, n))
        n += 1
    if draw(st.booleans()):  # an isolated edge
        edges.append((n, n + 1))
        n += 2
    n += draw(st.integers(0, 2))  # isolated vertices
    return from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


@pytest.mark.parametrize("mode", LOSS_MODES)
@pytest.mark.parametrize("negative", NEGATIVE_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=10)
@given(graph=tiny_graphs(), seed=st.integers(0, 2 ** 32), retention=st.sampled_from([0.3, 1.0]))
def test_train_ends_finite_or_typed(algorithm, negative, mode, graph, seed, retention):
    V = graph.vertex_count
    rng = np.random.default_rng(seed)
    labels = LabelTable(2, rng.random((V, 2)) < 0.5, rng.random(V) < 0.7)
    cats = category_map([[v % 3] for v in range(V)], 3)
    config = TrainConfig(
        sampler=SamplerConfig(algorithm=algorithm, negative=negative, walk_length=4, window=2,
                              retention=retention, edge_count=3, negatives_per_vertex=2),
        loss=LossConfig(q=0.5, mode=mode), steps=3, embedding_dim=3, seed=seed % 1000,
        eval_samples=2)
    try:
        params, trace = train(graph, labels, cats, config)
    except TYPED:
        return
    assert np.isfinite(params.embeddings.data).all()
    assert np.isfinite(params.category_embeddings.data).all()
    assert np.isfinite(params.weights).all() and np.isfinite(params.bias).all()
    assert [rec["step"] for rec in trace] == [0, 3]
    assert all(np.isfinite([rec["risk_mean"], rec["risk_stderr"]]).all() for rec in trace)
