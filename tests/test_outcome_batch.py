"""Batched outcome evaluation: `outcome_batch` of many keys against each
key as a batch of one, `draw(..., size=m)` against the invariants of each
of its draws, and the batched estimators and gradients against per-draw
references."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relerm.trainer as T
from relerm import (LabelTable, LossConfig, ParamStore, SamplerConfig, SubgraphBatch,
                    build_unigram, draw, estimate_risk, from_edges)
from relerm.graph import induced_edges, induced_pairs
from relerm.losses import combined_loss, gradient
from relerm.samplers import ALGORITHMS, NEGATIVE_MODES, WALK_STARTS, draw_key, outcome_batch
from conftest import category_map

# a triangle with a pendant path, a second triangle, a tail and an isolated
# vertex (as in test_samplers)
IRREGULAR = from_edges(9, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [3, 4], [4, 5],
                                    [5, 6], [4, 6], [6, 7]]))


@st.composite
def graphs(draw_, min_edges=0):
    n = draw_(st.integers(2 if min_edges else 1, 8))
    iu, ju = np.triu_indices(n, k=1)
    keep = np.array(draw_(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu))),
                    dtype=bool)
    if keep.sum() < min_edges:
        keep[:min_edges] = True
    return from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))


@st.composite
def sampler_cases(draw_, algorithm=None, negative=None):
    """A random small graph (isolated vertices included), a config of the
    given sampler (or of a random one), a seed and a number of draws."""
    algorithm = algorithm or draw_(st.sampled_from(ALGORITHMS))
    # unigram negatives are drawn from the degrees, walks and edges from the edges
    g = draw_(graphs(min_edges=0 if algorithm == "p_sampling" and negative != "unigram"
                     else 1))
    cfg = SamplerConfig(algorithm=algorithm,
                        negative=negative or draw_(st.sampled_from(NEGATIVE_MODES)),
                        walk_length=draw_(st.integers(1, 5)), window=draw_(st.integers(1, 4)),
                        retention=draw_(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                        edge_count=draw_(st.integers(1, 4)),
                        walk_start=draw_(st.sampled_from(WALK_STARTS)))
    return g, cfg, draw_(st.integers(0, 2 ** 32 - 1)), draw_(st.integers(1, 6))


@st.composite
def cases(draw_):
    """A sampler case and a block of outcome keys drawn by the sampler's
    own key step."""
    g, cfg, seed, m = draw_(sampler_cases())
    return g, cfg, draw_key(g, cfg, np.random.default_rng(seed), size=m)


def pair_set(pairs):
    return {tuple(p) for p in pairs.tolist()}


@given(cases())
def test_outcome_batch_equals_batches_of_one(case):
    g, cfg, keys = case
    batch = outcome_batch(g, cfg, keys)
    V = g.vertex_count
    assert len(batch) == len(keys) and batch.vertex_count == V
    # vertex v of draw i is id i * V + v, each array is in draw order, and
    # a pair lies within one draw
    for first in (batch.vertices, batch.positive_pairs[:, 0], batch.negative_pairs[:, 0]):
        draws = first // V
        assert (np.diff(draws) >= 0).all() and ((0 <= draws) & (draws < len(keys))).all()
    for pairs in (batch.positive_pairs, batch.negative_pairs):
        assert np.array_equal(pairs[:, 0] // V, pairs[:, 1] // V)
    for i, key in enumerate(keys):
        one, got = outcome_batch(g, cfg, key[None]), batch[i]
        for name in ("vertices", "positive_pairs", "negative_pairs"):
            want, have = getattr(one, name), getattr(got, name)
            assert have.dtype == want.dtype == np.int64 and have.shape == want.shape
            assert np.array_equal(have, want)
            assert ((0 <= have) & (have < V)).all()
            whole = getattr(batch, name)
            first = whole if whole.ndim == 1 else whole[:, 0]
            assert np.array_equal(whole[first // V == i], have + i * V)
        assert len(one) == len(got) == 1 and got.vertex_count == V
        assert got.source == one.source
        assert got.base_vertex_counts.tolist() == one.base_vertex_counts.tolist() \
            == [len(one.vertices)]
    # the draws, each moved back to its copy, are the whole batch
    for name in ("vertices", "positive_pairs", "negative_pairs"):
        parts = [getattr(batch[i], name) + i * V for i in range(len(batch))]
        assert np.array_equal(np.concatenate(parts), getattr(batch, name))


def test_batch_index_counts_from_the_end_and_checks_its_range():
    cfg = SamplerConfig(retention=0.6)
    batch = outcome_batch(IRREGULAR, cfg, draw_key(IRREGULAR, cfg, np.random.default_rng(1),
                                                   size=2))
    for i in (-2, -1):
        for f in fields(SubgraphBatch):
            assert np.array_equal(getattr(batch[i], f.name), getattr(batch[i + 2], f.name))
    for i in (2, 3, -3):
        with pytest.raises(IndexError):
            batch[i]


@given(cases())
def test_induced_pairs_are_edges_and_non_edges(case):
    g, cfg, keys = case
    batch = outcome_batch(g, cfg, keys)
    induced_pos = cfg.algorithm in ("p_sampling", "rw_induced") or cfg.negative == "induced"
    induced_neg = cfg.negative == "induced" or (cfg.algorithm == "p_sampling"
                                                and cfg.negative == "none")
    for i in range(len(batch)):
        s = batch[i]
        pos, neg = s.positive_pairs, s.negative_pairs
        if induced_pos:
            assert (pos[:, 0] < pos[:, 1]).all() and g.has_edges(pos[:, 0], pos[:, 1]).all()
        if induced_neg:
            assert (neg[:, 0] < neg[:, 1]).all() and not g.has_edges(neg[:, 0], neg[:, 1]).any()
            # together every pair of the draw's vertices, once
            v = np.sort(s.vertices)
            everything = {(a, b) for j, a in enumerate(v.tolist()) for b in v[j + 1:].tolist()}
            assert len(pos) + len(neg) == len(everything)
            assert pair_set(pos) | pair_set(neg) == everything
        else:
            assert len(neg) == 0
        if cfg.algorithm == "p_sampling":
            # the retained vertices that kept an induced edge
            assert set(s.vertices.tolist()) == set(pos.reshape(-1).tolist())
            assert keys[i][s.vertices].all()
    # handed the edges among the vertices, as p_sampling hands its own,
    # induced_pairs splits the pairs exactly as its has_edges lookups do
    verts, copies = np.unique(batch.vertices), len(keys)
    mask = np.zeros(copies * g.vertex_count, dtype=bool)
    mask[verts] = True
    edges = induced_edges(g, mask.reshape(copies, -1))
    for want, got in zip(induced_pairs(g, verts, copies), induced_pairs(g, verts, copies, edges)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("negative", NEGATIVE_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@settings(max_examples=40)
@given(data=st.data(), k_neg=st.integers(0, 3))
def test_batch_draw_keeps_each_draw_apart(algorithm, negative, data, k_neg):
    # draw(..., size=m) maps the keys of m draws at once and then adds
    # unigram negatives to every draw: each draw stays on its own copy of
    # the graph, with its base vertices first and its own loss
    g, cfg, seed, m = data.draw(sampler_cases(algorithm, negative))
    cfg = replace(cfg, negatives_per_vertex=k_neg)
    batch = draw(g, cfg, np.random.default_rng(seed), size=m)
    keys = draw_key(g, cfg, np.random.default_rng(seed), size=m)
    base = outcome_batch(g, cfg, keys)
    V = g.vertex_count
    assert len(batch) == m and batch.vertex_count == V
    assert np.array_equal(batch.base_vertex_counts, base.base_vertex_counts)
    labels, loss = fixture_labels(g), LossConfig(mode="node_classification", q=0.4)
    params = fixture_params(g, label_dim=2)
    losses = combined_loss(batch, labels, params, loss)
    for i in range(m):
        s, n_base = batch[i], batch.base_vertex_counts[i]
        for x in (s.vertices, s.positive_pairs, s.negative_pairs):
            assert ((0 <= x) & (x < V)).all()
        assert len(np.unique(s.vertices)) == len(s.vertices)
        assert np.array_equal(s.vertices[:n_base], base[i].vertices)
        assert np.array_equal(s.positive_pairs, base[i].positive_pairs)
        if cfg.negative == "unigram":
            neg = s.negative_pairs
            assert (neg[:, 0] != neg[:, 1]).all()
            assert not g.has_edges(neg[:, 0], neg[:, 1]).any()
            assert set(neg[:, 0].tolist()) <= set(base[i].vertices.tolist())
            # the appended vertices: the kept candidates the draw lacked
            assert s.vertices[n_base:].tolist() == sorted(
                set(neg[:, 1].tolist()) - set(base[i].vertices.tolist()))
        else:
            assert np.array_equal(s.negative_pairs, base[i].negative_pairs)
        one = combined_loss(s, labels, params, loss)[0]
        assert abs(losses[i] - one) <= 1e-12 * max(1.0, abs(one))


# -- estimators against per-draw references -----------------------------------

def fixture_params(graph, dim=3, label_dim=0, seed=11):
    rng = np.random.default_rng(seed)
    params = ParamStore(dim, label_dim, seed=seed)
    params.embeddings.put(np.arange(graph.vertex_count),
                          rng.normal(scale=0.6, size=(graph.vertex_count, dim)))
    if label_dim:
        params.weights = rng.normal(size=(dim, label_dim))
        params.bias = rng.normal(size=label_dim)
    return params


def fixture_labels(graph, label_dim=2):
    rng = np.random.default_rng(4)
    return LabelTable(label_dim, rng.random((graph.vertex_count, label_dim)) < 0.5,
                      rng.random(graph.vertex_count) < 0.7)


LOOP_CASES = {
    "p_sampling/none": SamplerConfig(retention=0.5),
    "p_sampling/induced": SamplerConfig(retention=0.5, negative="induced"),
    "p_sampling/unigram": SamplerConfig(retention=0.5, negative="unigram",
                                        negatives_per_vertex=2),
    "rw_induced": SamplerConfig(algorithm="rw_induced", walk_length=4),
    "rw_skipgram": SamplerConfig(algorithm="rw_skipgram", walk_length=5, window=3),
    "uniform_edge": SamplerConfig(algorithm="uniform_edge", edge_count=3),
}


@pytest.mark.parametrize("chunk", [None, 64], ids=["one_batch", "chunked"])
@pytest.mark.parametrize("mode", ["edge_only", "node_classification"])
@pytest.mark.parametrize("name", list(LOOP_CASES))
def test_loop_estimate_matches_per_draw_losses(name, mode, chunk, monkeypatch):
    # the batched per-draw estimate against one `combined_loss` per draw of
    # the same `draw(..., size=k)` batches from the same seed; a small
    # SIM_CHUNK cuts the draws into many batches
    if chunk:
        monkeypatch.setattr(T, "SIM_CHUNK", chunk)
    sizes = []

    def counted_draw(graph, config, rng, table, size):
        sizes.append(size)
        return draw(graph, config, rng, table, size)
    monkeypatch.setattr(T, "draw", counted_draw)
    cfg = LOOP_CASES[name]
    loss = LossConfig(mode=mode, q=0.4)
    labels = fixture_labels(IRREGULAR) if mode == "node_classification" else None
    params = fixture_params(IRREGULAR, label_dim=2 if labels else 0)
    n = 300
    est = estimate_risk(IRREGULAR, labels, params, cfg, loss, n, np.random.default_rng(5),
                        method="loop")
    rng = np.random.default_rng(5)
    table = build_unigram(IRREGULAR, cfg.unigram_power) if cfg.negative == "unigram" else None
    batches = [draw(IRREGULAR, cfg, rng, table, k) for k in sizes]
    ref = np.array([combined_loss(b[i], labels, params, loss)[0]
                    for b in batches for i in range(len(b))])
    assert est.n_samples == n == len(ref) and len(sizes) > (8 if chunk else 2)
    assert abs(est.mean - ref.mean()) <= 1e-12 * abs(ref.mean())
    se = ref.std(ddof=1) / np.sqrt(n)
    assert abs(est.std_error - se) <= 1e-12 * se


@pytest.mark.parametrize("chunk", [None, 40], ids=["one_batch", "chunked"])
@pytest.mark.parametrize("negative", NEGATIVE_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_draw_batches_take_the_numbers_of_successive_draws(algorithm, negative, chunk,
                                                           monkeypatch):
    # the per-draw estimate takes its draws from successive
    # `draw(..., size=k)` calls and no other numbers: the draws and the
    # generator's final state are those of the same calls on a fresh
    # generator; p-sampling masks come in (m, V) blocks, so without unigram
    # negatives they are also those of n successive single draws
    if chunk:
        monkeypatch.setattr(T, "SIM_CHUNK", chunk)
    made = []

    def recorded_draw(graph, config, rng, table, size):
        made.append(draw(graph, config, rng, table, size))
        return made[-1]
    monkeypatch.setattr(T, "draw", recorded_draw)
    cfg = SamplerConfig(algorithm=algorithm, negative=negative, retention=0.4, walk_length=4,
                        window=3, edge_count=3, negatives_per_vertex=2)
    table = build_unigram(IRREGULAR, cfg.unigram_power)
    a, b, c = (np.random.default_rng(9) for _ in range(3))
    estimate_risk(IRREGULAR, None, fixture_params(IRREGULAR), cfg,
                  LossConfig(mode="edge_only"), 50, a, method="loop", unigram_table=table)
    sizes = [len(batch) for batch in made]
    assert sum(sizes) == 50 and sizes[0] == 1 and len(sizes) > (4 if chunk else 1)
    want = [draw(IRREGULAR, cfg, b, table, k) for k in sizes]
    got = [batch[i] for batch in made for i in range(len(batch))]
    want = [batch[i] for batch in want for i in range(len(batch))]
    if algorithm == "p_sampling" and negative != "unigram":
        singles = [draw(IRREGULAR, cfg, c, table) for _ in range(50)]
        want += singles
        got += got
        assert a.bit_generator.state == c.bit_generator.state
    assert len(got) == len(want)
    for s, t in zip(got, want):
        for name in ("vertices", "positive_pairs", "negative_pairs"):
            assert np.array_equal(getattr(s, name), getattr(t, name))
        assert np.array_equal(s.base_vertex_counts, t.base_vertex_counts)
        assert s.source == t.source
    assert a.bit_generator.state == b.bit_generator.state


def test_psampling_mask_block_is_successive_masks():
    cfg = SamplerConfig(retention=0.3)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    block = draw_key(IRREGULAR, cfg, a, size=70)
    rows = np.stack([draw_key(IRREGULAR, cfg, b) for _ in range(70)])
    assert np.array_equal(block, rows)
    assert a.bit_generator.state == b.bit_generator.state


def test_key_batches_fill_sim_chunk(monkeypatch):
    # batches of the keys in order: one key, then at most 16 times the keys
    # so far, as many as fill SIM_CHUNK numbers (a key's 9, and 2 + 2 * 3
    # per scored pair) at the numbers per key so far
    monkeypatch.setattr(T, "SIM_CHUNK", 2000)
    cfg = SamplerConfig(retention=0.5)
    keys = draw_key(IRREGULAR, cfg, np.random.default_rng(0), size=600)
    batches = list(T._key_batches(IRREGULAR, cfg, keys, 3))
    sizes = [len(b) for b in batches]
    assert sum(sizes) == len(keys) and sizes[:2] == [1, 16]
    numbers = [9 * len(b) + 8 * (len(b.positive_pairs) + len(b.negative_pairs))
               for b in batches]
    assert max(numbers) <= 1.5 * 2000
    assert min(numbers[2:-1]) >= 2000 / 1.5
    whole = outcome_batch(IRREGULAR, cfg, keys)
    starts = np.cumsum([0] + sizes[:-1]) * IRREGULAR.vertex_count
    assert np.array_equal(np.concatenate([b.negative_pairs + k for b, k in zip(batches, starts)]),
                          whole.negative_pairs)


GRADIENT_CASES = {
    "p_sampling": SamplerConfig(retention=0.5),
    "p_sampling/induced": SamplerConfig(retention=0.5, negative="induced"),
    "rw_induced": SamplerConfig(algorithm="rw_induced", walk_length=2),
    "rw_skipgram": SamplerConfig(algorithm="rw_skipgram", walk_length=3, window=2),
}


@pytest.mark.parametrize("mode", ["edge_only", "node_classification", "category_embedding"])
@pytest.mark.parametrize("name", list(GRADIENT_CASES))
def test_batched_gradients_match_per_key_gradients(name, mode):
    cfg = GRADIENT_CASES[name]
    g = from_edges(6, np.array([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]]))  # 5 isolated
    keys, _ = T._enumerate_keys(g, cfg)
    loss = LossConfig(mode=mode, q=0.4)
    labels = fixture_labels(g) if mode == "node_classification" else None
    cats = category_map([[0], [1, 2], [0, 2], [], [1], [2]], 3)
    params = fixture_params(g, label_dim=2 if labels else 0)
    params.category_embeddings.put(np.arange(3), np.random.default_rng(2).normal(size=(3, 3)))
    # draws of the enumeration share vertices (the triangle's, above all)
    got = gradient(outcome_batch(g, cfg, keys), labels, params, loss, cats)
    singles = [gradient(outcome_batch(g, cfg, k[None]), labels, params, loss, cats)
               for k in keys]
    scale = max(np.abs(x).max(initial=0.0) for s in singles
                for x in (s.embeddings.data, s.categories.data, s.weights, s.bias))
    for part, size in (("embeddings", g.vertex_count), ("categories", cats.category_count)):
        rows = getattr(got, part)
        assert (np.diff(rows.rows) > 0).all()
        for i, s in enumerate(singles):
            want, mine = getattr(s, part), rows.rows // size == i
            assert ((0 <= want.rows) & (want.rows < size)).all()
            assert np.array_equal(rows.rows[mine] % size, want.rows)
            assert np.abs(rows.data[mine] - want.data).max(initial=0.0) <= 1e-12 * scale
    for i, s in enumerate(singles):
        assert np.abs(got.weights[i] - s.weights[0]).max(initial=0.0) <= 1e-12 * scale
        assert np.abs(got.bias[i] - s.bias[0]).max(initial=0.0) <= 1e-12 * scale
    assert got.weights.shape == (len(keys),) + params.weights.shape
    assert got.bias.shape == (len(keys),) + params.bias.shape


# digests of category-mode losses and gradients recorded while each vertex's
# memberships were a separate array; the memberships' layout must not move
# a bit
CATEGORY_GOLDENS = {
    "rw_skipgram": "4d67040339394a78",
    "p_sampling/induced": "e0ff8ff2a421d99a",
}


@pytest.mark.parametrize("name", list(CATEGORY_GOLDENS))
def test_category_mode_loss_and_gradient_are_golden(name, digest):
    cfg = {"rw_skipgram": SamplerConfig(algorithm="rw_skipgram", walk_length=5, window=2),
           "p_sampling/induced": SamplerConfig(retention=0.5, negative="induced")}[name]
    # repeated, unordered and missing memberships; vertex 8 is isolated
    cats = category_map([[0, 3], [1], [], [2, 0], [4], [3, 1, 2], [3], [0, 0], [4]], 5)
    params = ParamStore(4, 0, seed=9)  # category rows from the initialiser
    batch = outcome_batch(IRREGULAR, cfg, draw_key(IRREGULAR, cfg, np.random.default_rng(5), 12))
    loss = LossConfig(mode="category_embedding")
    g = gradient(batch, None, params, loss, cats)
    assert len(batch) == 12 and len(g.categories.rows) > 12
    assert digest([combined_loss(batch, None, params, loss, cats), g.categories.rows,
                   g.categories.data, g.embeddings.rows, g.weights, g.bias]) \
        == CATEGORY_GOLDENS[name]


@pytest.mark.parametrize("mode", ["edge_only", "node_classification"])
@pytest.mark.parametrize("name", list(LOOP_CASES))
def test_one_draw_gradient_rows_are_distinct_and_ascending(name, mode):
    # the rows the benchmark's step probe reads as a mapping id -> row
    cfg, loss = LOOP_CASES[name], LossConfig(mode=mode, q=0.4)
    labels = fixture_labels(IRREGULAR) if mode == "node_classification" else None
    params = fixture_params(IRREGULAR, label_dim=2 if labels else 0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = draw(IRREGULAR, cfg, rng)
        grad = gradient(s, labels, params, loss)
        rows = grad.embeddings.rows
        assert (np.diff(rows) > 0).all() and (rows < IRREGULAR.vertex_count).all()
        assert set(rows.tolist()) == set(s.vertices.tolist())
        assert grad.weights.shape == (1,) + params.weights.shape
        for v in rows.tolist():
            assert grad.embeddings[v].shape == (params.dim,)


def test_sgd_step_rejects_a_gradient_of_two_draws():
    # two draws may share a row, which one fancy-indexed update would apply once
    cfg = SamplerConfig(retention=1.0)
    keys = draw_key(IRREGULAR, cfg, np.random.default_rng(0), size=2)
    params = fixture_params(IRREGULAR)
    grad = gradient(outcome_batch(IRREGULAR, cfg, keys), None, params, LossConfig())
    before = params.embeddings.data.copy()
    with pytest.raises(T.TrainerError, match="one draw"):
        T.sgd_step(params, grad, 0.1)
    assert np.array_equal(params.embeddings.data, before)


def test_key_counting_paths_agree(monkeypatch):
    # 2^5 possible masks: counted with np.bincount while a chunk holds at
    # least 32 draws, sorted with np.unique when SIM_CHUNK cuts it to 20
    # (the masks are the same either way: blocks of successive masks)
    g = from_edges(5, np.array([[0, 1], [1, 2], [3, 4]]))
    cfg = SamplerConfig(retention=0.4)
    counted = T._simulate_key_counts(g, cfg, 5000, np.random.default_rng(1))
    monkeypatch.setattr(T, "SIM_CHUNK", 100)
    sorted_ = T._simulate_key_counts(g, cfg, 5000, np.random.default_rng(1))
    for a, b in zip(counted, sorted_):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert counted[1].sum() == 5000
