"""Dense parameter rows (RowTable, ParamStore) and the pair-scoring kernel."""

import gc
import weakref

import numpy as np
import pytest

from relerm import (LabelTable, LossConfig, ParamStore, SparseGradient,
                    combined_loss, gradient, sgd_step)
from relerm.losses import MAX_DIM, RowTable, SparseRows
from relerm.checkpoint import load_checkpoint, save_checkpoint
from relerm.trainer import TrainConfig
from conftest import batch_of_one, category_map
from test_losses import edge_loss


# -- row table ----------------------------------------------------------------

def test_row_table_put_rows_ids():
    t = RowTable(3)
    assert t.ids().tolist() == []
    t[7] = [1.0, 2.0, 3.0]          # grows the table
    t.put(np.array([2]), np.array([[0.5, 0.0, -1.0]]))
    assert len(t.data) >= 8
    assert t.ids().tolist() == [2, 7]
    assert t.present[7] and not t.present[3]
    t.row(7)[1] += 10.0             # in-place row edits stick
    assert np.array_equal(t.rows([7, 2]), [[1.0, 12.0, 3.0], [0.5, 0.0, -1.0]])
    with pytest.raises(KeyError):
        t.row(3)                    # no initialiser: a missing row is an error
    with pytest.raises(KeyError):
        t[-1] = np.zeros(3)
    with pytest.raises(KeyError):
        t.put(np.array([-1]), np.zeros((1, 3)))
    with pytest.raises(KeyError):
        t.rows([3])


def test_row_table_copy_is_independent():
    t = RowTable(2)
    t.put(np.array([0, 4]), np.array([[1.0, 1.0], [2.0, 2.0]]))
    c = t.copy()
    c.row(0)[0] = -5.0
    c[9] = np.zeros(2)
    assert np.array_equal(t.row(0), [1.0, 1.0])
    assert t.ids().tolist() == [0, 4] and c.ids().tolist() == [0, 4, 9]


def test_param_store_array_callers():
    ps = ParamStore(2, 1, seed=3)
    ps.embeddings.put(np.array([5, 1]), np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert ps.embeddings.ids().tolist() == [1, 5]
    ps.embeddings.put(np.array([0]), np.array([[3.0, 3.0]]))
    assert np.array_equal(ps.embedding_matrix([5, 0]), [[1.0, 2.0], [3.0, 3.0]])
    assert np.array_equal(ps.embedding(5), [1.0, 2.0])
    ps.category_embeddings.put(np.array([2]), np.array([[4.0, 4.0]]))
    assert ps.category_embeddings.ids().tolist() == [2]
    other = ps.copy()
    other.embedding(5)[0] = 9.0
    other.weights[0, 0] = 1.0
    assert ps.embedding(5)[0] == 1.0 and ps.weights[0, 0] == 0.0
    # a lazily drawn row is the same in the original and the copy
    assert np.array_equal(ps.embedding(8), other.embedding(8))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 16, 128])
def test_lazy_init_matches_generator_uniform(dim):
    seed, lo, hi = 11, -0.5 / dim, 0.5 / dim
    ids = np.array([0, 3, 17, 4096, 5])
    stable = np.array([40, 41, 42, 43, 44, 45])
    for init_ids, keys in ((None, ids), (stable, stable[ids % 6])):
        ps = ParamStore(dim, 0, seed=seed, init_ids=init_ids)
        vertices = ids if init_ids is None else ids % 6
        for row, key in zip(ps.embedding_matrix(vertices), keys):
            want = np.random.default_rng((seed, 0, int(key))).uniform(lo, hi, dim)
            assert np.array_equal(row, want)
    cat = ParamStore(dim, 0, seed=seed).category_embeddings.row(9)
    assert np.array_equal(cat, np.random.default_rng((seed, 1, 9)).uniform(lo, hi, dim))


def test_store_is_freed_without_cyclic_gc():
    gc.disable()
    try:
        ps = ParamStore(4, 0, seed=0)
        ps.embedding_matrix(np.arange(50))
        ps.category_embeddings.row(3)
        ref = weakref.ref(ps)
        del ps
        assert ref() is None
    finally:
        gc.enable()


def test_negative_seed_and_init_ids_are_rejected():
    with pytest.raises(ValueError, match="seed -1"):
        ParamStore(4, 0, seed=-1)
    with pytest.raises(ValueError, match="init_ids"):
        ParamStore(4, 0, seed=0, init_ids=np.array([3, -2]))
    assert any("seed -1" in e for e in TrainConfig(seed=-1).validate())


def test_row_past_the_init_ids_is_a_key_error():
    # numpy's IndexError surfaced from the initialiser's seed gather
    ps = ParamStore(4, 0, seed=0, init_ids=np.arange(5))
    assert ps.embedding(4).shape == (4,)
    with pytest.raises(KeyError, match="row id 7 has no key: init_ids holds 5"):
        ps.embedding(7)
    with pytest.raises(KeyError, match="row id 9 has no key: init_ids holds 5"):
        ps.embedding_matrix(np.array([1, 9, 3]))


def test_embedding_dim_past_the_bound_is_rejected():
    assert any(f"embedding_dim {MAX_DIM + 1} exceeds the bound MAX_DIM = {MAX_DIM}" in e
               for e in TrainConfig(embedding_dim=MAX_DIM + 1).validate())
    assert not TrainConfig(embedding_dim=MAX_DIM).validate()


def test_seed_past_64_bits_fails_before_a_checkpoint_is_written(tmp_path):
    # the checkpoint header holds the seed in 64 bits
    path = tmp_path / "checkpoint.bin"
    with pytest.raises(ValueError, match=f"seed {2 ** 64}"):
        save_checkpoint(ParamStore(2, 0, seed=2 ** 64), str(path))
    assert not path.exists()
    assert any(f"seed {2 ** 64}" in e for e in TrainConfig(seed=2 ** 64).validate())
    assert not TrainConfig(seed=2 ** 64 - 1).validate()
    save_checkpoint(ParamStore(2, 0, seed=2 ** 64 - 1), str(path))
    assert load_checkpoint(str(path)).seed == 2 ** 64 - 1


def test_sgd_step_moves_rows_by_exactly_lr_g():
    ps = ParamStore(3, 0, seed=2)
    ps.embeddings[4] = np.array([1.0, -2.0, 0.5])
    before = {v: ps.embedding(v).copy() for v in (1, 4)}
    rows = SparseRows(np.array([1, 4]), np.array([[1.0, 1.0, 1.0], [0.3, 0.1, -0.7]]))
    none = np.zeros(0, dtype=np.int64)
    g = SparseGradient(rows, np.zeros((1, 3, 0)), np.zeros((1, 0)),
                       SparseRows(none, np.zeros((0, 3))))
    sgd_step(ps, g, 0.37)
    for v, row in zip(rows.rows.tolist(), rows.data):
        assert np.array_equal(ps.embedding(v), before[v] - 0.37 * row)


# -- pair scoring, loss and gradient ------------------------------------------

def _sample(rng, n):
    """Pairs over vertices 0..n-1 with repeated pairs, both orientations of a
    pair, and sample vertices listed more than once."""
    pos = rng.integers(n, size=(9, 2))
    pos = pos[pos[:, 0] != pos[:, 1]]
    pos = np.concatenate([pos, pos[:2], pos[:1, ::-1]])
    neg = rng.integers(n, size=(6, 2))
    neg = np.concatenate([neg[neg[:, 0] != neg[:, 1]], pos[:1]])
    verts = np.concatenate([[2], rng.permutation(n), [0, 1]]).astype(np.int64)
    return batch_of_one(verts, pos, neg, base_vertex_count=n)


def _setup(mode, rng, n=6, dim=3, L=2):
    params = ParamStore(dim, L if mode == "node_classification" else 0, seed=1)
    params.embeddings.put(np.arange(n), rng.normal(scale=0.7, size=(n, dim)))
    params.weights = rng.normal(scale=0.5, size=params.weights.shape)
    params.bias = rng.normal(scale=0.5, size=params.bias.shape)
    cats = members = None
    if mode == "category_embedding":
        params.category_embeddings.put(np.arange(4), rng.normal(scale=0.7, size=(4, dim)))
        members = [np.sort(rng.choice(4, size=rng.integers(0, 3), replace=False))
                   for _ in range(n)]
        cats = category_map(members, 4)
    labels = LabelTable(L, rng.random((n, L)) < 0.5, rng.random(n) < 0.8)
    return params, cats, labels, members


def _vectors(params, members, mode, n):
    """Each vertex's vector; in category mode the sum of the rows of its
    categories, `members[v]`."""
    if mode != "category_embedding":
        return {v: params.embedding(v).copy() for v in range(n)}
    return {v: sum((params.category_embeddings.row(int(c)) for c in members[v]),
                   np.zeros(params.dim)) for v in range(n)}


@pytest.mark.parametrize("mode", ["edge_only", "node_classification", "category_embedding"])
def test_edge_loss_hand_value_with_repeats(mode):
    rng = np.random.default_rng(5)
    for _ in range(5):
        params, cats, _, members = _setup(mode, rng)
        sample = _sample(rng, 6)
        vec = _vectors(params, members, mode, 6)
        eps = LossConfig().prob_clip
        want = 0.0
        for (a, b), sign in [(p, 1) for p in sample.positive_pairs.tolist()] + \
                            [(p, 0) for p in sample.negative_pairs.tolist()]:
            p = min(max(1.0 / (1.0 + np.exp(-vec[a] @ vec[b])), eps), 1.0 - eps)
            want -= np.log(p) if sign else np.log(1.0 - p)
        got = edge_loss(sample, params, LossConfig(mode=mode), cats)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("mode", ["edge_only", "node_classification", "category_embedding"])
def test_gradient_matches_central_differences_with_repeats(mode):
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(4):
        params, cats, labels, _ = _setup(mode, rng)
        sample = _sample(rng, 6)
        cfg = LossConfig(q=0.4 if mode == "node_classification" else 0.0, mode=mode)
        grad = gradient(sample, labels, params, cfg, cats)
        tables = [(params.category_embeddings, grad.categories)] \
            if mode == "category_embedding" else [(params.embeddings, grad.embeddings)]
        slots = [(t, g, k, i) for t, g in tables for k in t.ids().tolist()
                 for i in range(params.dim)]
        slots += [(params.weights, grad.weights, None, i) for i in range(params.weights.size)]
        slots += [(params.bias, grad.bias, None, i) for i in range(params.bias.size)]
        num, ana = [], []
        for table, g, key, i in slots:
            cell = table.row(key) if key is not None else table.reshape(-1)
            old = cell[i]
            cell[i] = old + h
            up = combined_loss(sample, labels, params, cfg, cats)[0]
            cell[i] = old - h
            dn = combined_loss(sample, labels, params, cfg, cats)[0]
            cell[i] = old
            num.append((up - dn) / (2 * h))
            if key is None:
                ana.append(g.reshape(-1)[i])
            else:
                ana.append(g[key][i] if key in g else 0.0)
        num, ana = np.array(num), np.array(ana)
        assert np.linalg.norm(ana - num) <= 1e-6 * max(np.linalg.norm(num), 1e-8)
