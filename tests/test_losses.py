from dataclasses import replace

import numpy as np
import pytest

from relerm import CategoryMap, LabelTable, LossConfig, ParamStore, combined_loss, gradient
from relerm.losses import NumericError, _vertex_vectors
from conftest import batch_of_one as make_sample


def edge_loss(sample, params, config, cats=None):
    """The edge term of combined_loss alone, of a one-draw batch."""
    if config.mode == "node_classification":
        config = replace(config, mode="edge_only")
    return combined_loss(sample, None, params, config, cats)[0]


def label_loss(sample, labels, params, config):
    """The label term of combined_loss alone, of a one-draw batch: its
    value at q = 1."""
    return combined_loss(sample, labels, params,
                         replace(config, mode="node_classification", q=1.0))[0]


def preset_params(vectors, label_dim=0):
    rows = np.array(list(vectors.values()), dtype=np.float64)
    params = ParamStore(rows.shape[1], label_dim, seed=0)
    params.embeddings.put(np.array(list(vectors), dtype=np.int64), rows)
    return params


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_sigmoid_matches_two_branch_formula():
    from relerm.losses import _sigmoid
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(scale=s, size=500) for s in (0.1, 3.0, 300.0)]
                       + [[0.0, -0.0, 745.0, -745.0, np.inf, -np.inf]])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    got = _sigmoid(x)
    assert np.array_equal(got, want) and np.isfinite(got).all()
    assert np.array_equal(_sigmoid(x.reshape(-1, 3)), want.reshape(-1, 3))


# -- edge loss ----------------------------------------------------------------

def test_edge_loss_hand_value():
    params = preset_params({0: (1, 0), 1: (1, 0), 2: (0, 1)})
    sample = make_sample([0, 1, 2], pos=[[0, 1], [1, 0]], neg=[[0, 2]])
    loss = edge_loss(sample, params, LossConfig())
    expected = -2 * np.log(sigmoid(1.0)) - np.log(1 - sigmoid(0.0))
    assert abs(loss - expected) < 1e-12
    assert abs(loss - 1.3197) < 5e-4


def test_edge_loss_empty_sample():
    params = preset_params({0: (0.0,)})
    assert edge_loss(make_sample([]), params, LossConfig()) == 0.0


def test_edge_loss_multiset_multiplicity():
    params = preset_params({0: (1, 0), 1: (1, 0)})
    one = edge_loss(make_sample([0, 1], pos=[[0, 1]]), params, LossConfig())
    three = edge_loss(make_sample([0, 1], pos=[[0, 1]] * 3), params, LossConfig())
    assert abs(three - 3 * one) < 1e-12


def test_edge_loss_clip_bounds_loss():
    params = preset_params({0: (100.0,), 1: (-100.0,)})
    cfg = LossConfig(prob_clip=1e-7)
    loss = edge_loss(make_sample([0, 1], pos=[[0, 1]]), params, cfg)
    assert np.isfinite(loss)
    assert abs(loss - (-np.log(1e-7))) < 1e-9
    # and the clipped region is flat: zero gradient
    g = gradient(make_sample([0, 1], pos=[[0, 1]]), None, params, cfg)
    assert all(np.abs(v).max() == 0.0 for v in g.embeddings.values())


def test_edge_loss_rejects_nonfinite():
    params = preset_params({0: (np.nan,), 1: (1.0,)})
    with pytest.raises(NumericError):
        edge_loss(make_sample([0, 1], pos=[[0, 1]]), params, LossConfig())


# -- label loss ---------------------------------------------------------------

def test_label_loss_zero_params():
    L = 3
    labels = LabelTable(L, np.zeros((4, L), dtype=bool), np.ones(4, dtype=bool))
    params = preset_params({v: (0.0, 0.0) for v in range(4)}, label_dim=L)
    loss = label_loss(make_sample([0, 1, 2]), labels, params, LossConfig())
    assert abs(loss - 3 * L * np.log(2)) < 1e-12


def test_label_loss_unmasked_is_zero():
    labels = LabelTable(2, np.ones((3, 2), dtype=bool), np.zeros(3, dtype=bool))
    params = preset_params({v: (1.0,) for v in range(3)}, label_dim=2)
    assert label_loss(make_sample([0, 1]), labels, params, LossConfig()) == 0.0


def test_label_loss_direct_value():
    # single vertex, one label, predicted probability 0.8 -> -log 0.8
    labels = LabelTable(1, np.array([[True]]), np.array([True]))
    params = preset_params({0: (0.0,)}, label_dim=1)
    params.bias[0] = np.log(0.8 / 0.2)
    loss = label_loss(make_sample([0]), labels, params, LossConfig())
    assert abs(loss - (-np.log(0.8))) < 1e-12
    assert abs(loss - 0.2231) < 5e-4


def test_label_loss_skips_appended_negative_vertices():
    labels = LabelTable(1, np.ones((3, 1), dtype=bool), np.ones(3, dtype=bool))
    params = preset_params({v: (0.0,) for v in range(3)}, label_dim=1)
    # vertex 2 appended by negative sampling
    sample = make_sample([0, 1, 2], base_vertex_count=2)
    loss = label_loss(sample, labels, params, LossConfig())
    assert abs(loss - 2 * np.log(2)) < 1e-12


# -- combined loss ------------------------------------------------------------

def test_combined_loss_mixing():
    labels = LabelTable(2, np.zeros((3, 2), dtype=bool), np.ones(3, dtype=bool))
    params = preset_params({0: (1, 0), 1: (1, 0), 2: (0, 1)}, label_dim=2)
    sample = make_sample([0, 1, 2], pos=[[0, 1]], neg=[[0, 2]])
    e = edge_loss(sample, params, LossConfig(mode="edge_only"))
    l = label_loss(sample, labels, params, LossConfig())
    cfg0 = LossConfig(q=0.0, mode="node_classification")
    cfg1 = LossConfig(q=1.0, mode="node_classification")
    cfgq = LossConfig(q=0.001, mode="node_classification")
    assert abs(combined_loss(sample, labels, params, cfg0)[0] - e) < 1e-12
    assert abs(combined_loss(sample, labels, params, cfg1)[0] - l) < 1e-12
    assert abs(combined_loss(sample, labels, params, cfgq)[0]
               - (0.001 * l + 0.999 * e)) < 1e-12


def test_combined_loss_requires_labels():
    params = preset_params({0: (1.0,), 1: (1.0,)})
    with pytest.raises(NumericError):
        combined_loss(make_sample([0, 1]), None, params,
                      LossConfig(mode="node_classification"))


# -- category embeddings ------------------------------------------------------

def cats_for(memberships, count):
    return CategoryMap(count, tuple(np.array(m, dtype=np.int64) for m in memberships))


def test_category_vertex_embedding():
    def vector(v):
        cfg = LossConfig(mode="category_embedding")
        return _vertex_vectors(np.array([v]), params, cfg, cats)[0]

    params = ParamStore(2, 0, seed=0)
    params.category_embeddings[0] = np.array([1.0, 2.0])
    params.category_embeddings[1] = np.array([0.0, 1.0])
    cats = cats_for([[0], [0, 1], []], 2)
    assert np.array_equal(vector(0), [1, 2])
    params.category_embeddings[0] = np.array([1.0, 0.0])
    assert np.array_equal(vector(1), [1, 1])
    assert np.array_equal(vector(2), [0, 0])


def test_category_mode_loss_and_gradient():
    params = ParamStore(2, 0, seed=0)
    params.category_embeddings[0] = np.array([1.0, 0.0])
    params.category_embeddings[1] = np.array([0.0, 1.0])
    cats = cats_for([[0], [0, 1]], 2)
    cfg = LossConfig(mode="category_embedding")
    sample = make_sample([0, 1], pos=[[0, 1]])
    # vertex vectors (1,0) and (1,1): score 1
    loss = combined_loss(sample, None, params, cfg, cats)[0]
    assert abs(loss - (-np.log(sigmoid(1.0)))) < 1e-12
    g = gradient(sample, None, params, cfg, cats)
    assert set(g.categories) == {0, 1}
    assert not g.embeddings


# -- analytic gradients -------------------------------------------------------

def numeric_gradient(sample, labels, params, cfg, cats=None, h=1e-5):
    slots = [("emb", v, i) for v in params.embeddings.ids().tolist()
             for i in range(params.dim)]
    slots += [("cat", c, i) for c in params.category_embeddings.ids().tolist()
              for i in range(params.dim)]
    slots += [("w", j, i) for i in range(params.label_dim)
              for j in range(params.dim)]
    slots += [("b", 0, i) for i in range(params.label_dim)]

    def bump(kind, a, i, delta):
        if kind == "emb":
            params.embeddings.data[a, i] += delta
        elif kind == "cat":
            params.category_embeddings.data[a, i] += delta
        elif kind == "w":
            params.weights[a, i] += delta
        else:
            params.bias[i] += delta

    out = []
    for kind, a, i in slots:
        bump(kind, a, i, h)
        up = combined_loss(sample, labels, params, cfg, cats)[0]
        bump(kind, a, i, -2 * h)
        dn = combined_loss(sample, labels, params, cfg, cats)[0]
        bump(kind, a, i, h)
        out.append((up - dn) / (2 * h))
    return np.array(out), slots


def analytic_vector(grad, params, slots):
    out = []
    for kind, a, i in slots:
        if kind == "emb":
            vec = grad.embeddings.get(a)
            out.append(vec[i] if vec is not None else 0.0)
        elif kind == "cat":
            vec = grad.categories.get(a)
            out.append(vec[i] if vec is not None else 0.0)
        elif kind == "w":
            out.append(grad.weights[0, a, i])
        else:
            out.append(grad.bias[0, i])
    return np.array(out)


def test_gradient_bias_at_zero_params():
    # all-zero parameters, q=1: the bias gradient per label is
    # sum over masked vertices of (0.5 - l)
    rng = np.random.default_rng(0)
    L = 3
    lab = rng.random((4, L)) < 0.5
    labels = LabelTable(L, lab, np.ones(4, dtype=bool))
    params = preset_params({v: (0.0, 0.0) for v in range(4)}, label_dim=L)
    cfg = LossConfig(q=1.0, mode="node_classification")
    g = gradient(make_sample([0, 1, 3]), labels, params, cfg)
    expected = (0.5 - lab[[0, 1, 3]].astype(float)).sum(axis=0)
    assert np.allclose(g.bias[0], expected)


def test_gradient_finite_difference_modes():
    rng = np.random.default_rng(1)
    for mode in ("edge_only", "node_classification", "category_embedding"):
        for trial in range(5):
            n, L = 4, 2
            params = preset_params(
                {v: rng.normal(scale=0.7, size=3) for v in range(n)},
                label_dim=L if mode == "node_classification" else 0)
            params.weights = rng.normal(scale=0.5, size=params.weights.shape)
            params.bias = rng.normal(scale=0.5, size=params.bias.shape)
            cats = None
            if mode == "category_embedding":
                params.category_embeddings.put(np.arange(3),
                                               rng.normal(scale=0.7, size=(3, 3)))
                cats = cats_for([rng.choice(3, size=rng.integers(0, 3),
                                            replace=False) for _ in range(n)], 3)
            labels = LabelTable(L, rng.random((n, L)) < 0.5,
                                np.ones(n, dtype=bool))
            sample = make_sample(range(n), pos=[[0, 1], [2, 3], [0, 1]],
                                 neg=[[0, 2], [1, 3]])
            cfg = LossConfig(q=0.3 if mode == "node_classification" else 0.0,
                             mode=mode)
            num, slots = numeric_gradient(sample, labels, params, cfg, cats)
            ana = analytic_vector(gradient(sample, labels, params, cfg, cats),
                                  params, slots)
            denom = max(np.linalg.norm(num), 1e-8)
            assert np.linalg.norm(ana - num) / denom < 1e-6


def test_gradient_zero_at_local_minimum():
    # one positive and one negative copy of the same pair: stationary when
    # the dot product is 0
    params = preset_params({0: (1.0, 0.0), 1: (0.0, 1.0)})
    sample = make_sample([0, 1], pos=[[0, 1]], neg=[[0, 1]])
    g = gradient(sample, None, params, LossConfig())
    norm = np.sqrt(sum((v ** 2).sum() for v in g.embeddings.values()))
    assert norm < 1e-8


def test_lazy_init_order_independent():
    a = ParamStore(4, 0, seed=9)
    b = ParamStore(4, 0, seed=9)
    a.embedding(0), a.embedding(5)
    b.embedding(5), b.embedding(0)
    assert np.array_equal(a.embedding(0), b.embedding(0))
    assert np.array_equal(a.embedding(5), b.embedding(5))
    assert np.abs(a.embedding(0)).max() <= 0.5 / 4
    # init_ids redirect: vertex 0 of a coupled graph shares point id 5
    c = ParamStore(4, 0, seed=9, init_ids=np.array([5]))
    assert np.array_equal(c.embedding(0), b.embedding(5))
