import tracemalloc

import numpy as np
import pytest

from relerm import (LabelTable, LossConfig, ParamStore, SamplerConfig, TrainConfig,
                    check_unbiasedness, estimate_risk, exact_risk, sgd_step, train)
from relerm.losses import SparseGradient, SparseRows, combined_loss, gradient, _sigmoid
from relerm.samplers import (SamplerError, batch_is_successive, build_unigram, draw, draw_key,
                             outcome_batch)
from relerm import trainer
from relerm.trainer import FD_TOLERANCE, OracleError, TrainerError, _enumerate_keys
from relerm.graph import from_edges
from conftest import category_map

LN2 = float(np.log(2))


def zero_params(v, dim=2, label_dim=0):
    params = ParamStore(dim, label_dim, seed=0)
    for u in range(v):
        params.embeddings[u] = np.zeros(dim)
    return params


def psample(p):
    return SamplerConfig(algorithm="p_sampling", retention=p)


def walk(r):
    return SamplerConfig(algorithm="rw_induced", walk_length=r)


def outcomes(graph, config):
    """Every outcome of positive probability, as (probability, draw) pairs."""
    keys, probs = _enumerate_keys(graph, config)
    batch = outcome_batch(graph, config, keys)
    return [(p, batch[i]) for i, p in enumerate(probs.tolist())]


# -- enumeration oracles ------------------------------------------------------

def test_psample_subset_table_path3(path3):
    # re-derive the per-subset pair counts, including isolated-deletion
    table = outcomes(path3, psample(0.5))
    assert len(table) == 8
    assert all(abs(p - 0.125) < 1e-15 for p, _ in table)
    by_pairs = {}
    for _, sub in table:
        k = len(sub.positive_pairs) + len(sub.negative_pairs)
        by_pairs[k] = by_pairs.get(k, 0) + 1
    # subsets {0,1} and {1,2} give 1 pair; {0,1,2} gives 3; the other five
    # (including {0,2}, whose survivors are isolated and deleted) give 0
    assert by_pairs == {0: 5, 1: 2, 3: 1}


def test_exact_risk_psample_path3(path3):
    risk = exact_risk(path3, None, zero_params(3), psample(0.5), LossConfig())
    assert abs(risk - (5 / 8) * LN2) < 1e-12
    assert abs(risk - 0.4332) < 5e-5


def test_exact_risk_psample_extremes(path3):
    params = zero_params(3)
    # p=1: deterministic full graph (2 edges + 1 non-edge) -> 3 ln 2
    assert abs(exact_risk(path3, None, params, psample(1.0), LossConfig())
               - 3 * LN2) < 1e-12
    assert exact_risk(path3, None, params, psample(0.0), LossConfig()) == 0.0


def test_psample_enumeration_size_limit():
    g = from_edges(21, np.array([[i, i + 1] for i in range(20)]))
    with pytest.raises(OracleError, match="<= 20 vertices"):
        exact_risk(g, None, zero_params(21), psample(0.5), LossConfig())


def test_walk_enumeration_path3(path3):
    table = outcomes(path3, walk(1))
    walks = {}
    for p, sub in table:
        key = tuple(sub.vertices.tolist())
        walks[key] = walks.get(key, 0.0) + p
    assert abs(walks[(0, 1)] - 1 / 3) < 1e-15  # walk (0,1)
    assert abs(walks[(1, 0)] - 1 / 6) < 1e-15
    assert abs(walks[(1, 2)] - 1 / 6) < 1e-15
    assert abs(walks[(2, 1)] - 1 / 3) < 1e-15
    assert abs(sum(p for p, _ in table) - 1.0) < 1e-12


def test_exact_risk_walk_path3(path3):
    risk = exact_risk(path3, None, zero_params(3), walk(1), LossConfig())
    assert abs(risk - LN2) < 1e-12


def test_exact_risk_walk_k2(k2):
    params = zero_params(2)
    for r in (1, 2, 5):
        risk = exact_risk(k2, None, params, walk(r), LossConfig())
        assert abs(risk - LN2) < 1e-12


def test_walk_enumeration_limit(triangle):
    # 3 * 2^30 walks of 30 steps, past the limit of 10^6
    with pytest.raises(OracleError, match="exceeds enumeration limit"):
        exact_risk(triangle, None, zero_params(3), walk(30), LossConfig())


# -- Monte-Carlo risk estimation ----------------------------------------------

def test_estimate_risk_single_draw(path3):
    params = zero_params(3)
    cfg = SamplerConfig(algorithm="p_sampling", retention=0.5)
    sub = draw(path3, cfg, np.random.default_rng(3), unigram_table=None)
    expected = combined_loss(sub, None, params, LossConfig())[0]
    est = estimate_risk(path3, None, params, cfg, LossConfig(), 1,
                        np.random.default_rng(3), method="loop")
    assert est.mean == expected
    assert est.std_error == 0.0


def test_estimate_risk_deterministic_extremes(path3):
    params = zero_params(3)
    loss = LossConfig()
    est = estimate_risk(path3, None, params,
                        SamplerConfig(algorithm="p_sampling", retention=1.0),
                        loss, 50, np.random.default_rng(0), method="loop")
    assert abs(est.mean - 3 * LN2) < 1e-12 and est.std_error < 1e-12
    est = estimate_risk(path3, None, params,
                        SamplerConfig(algorithm="p_sampling", retention=0.0),
                        loss, 50, np.random.default_rng(0), method="loop")
    assert est.mean == 0.0


def test_estimate_risk_aggregated_matches_exact(path3, triangle):
    params = zero_params(3)
    loss = LossConfig()
    cfg = SamplerConfig(algorithm="p_sampling", retention=0.5)
    est = estimate_risk(path3, None, params, cfg, loss, 10 ** 5,
                        np.random.default_rng(1))
    exact = exact_risk(path3, None, params, cfg, loss)
    assert abs(est.mean - exact) < 4 * est.std_error
    cfg = SamplerConfig(algorithm="rw_induced", walk_length=2)
    est = estimate_risk(triangle, None, params, cfg, loss, 10 ** 5,
                        np.random.default_rng(2))
    exact = exact_risk(triangle, None, params, cfg, loss)
    assert abs(est.mean - exact) < 4 * max(est.std_error, 1e-12)


def test_estimate_risk_loop_and_aggregated_agree_statistically(path3):
    # two independent estimates of the same risk, cross-checked through
    # their pooled standard error
    params = ParamStore(2, 0, seed=7)
    loss = LossConfig()
    cfg = SamplerConfig(algorithm="p_sampling", retention=0.4)
    a = estimate_risk(path3, None, params, cfg, loss, 20000,
                      np.random.default_rng(10), method="aggregated")
    b = estimate_risk(path3, None, params, cfg, loss, 20000,
                      np.random.default_rng(11), method="loop")
    se = np.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) < 4 * se


def test_estimate_risk_rejects_bad_n(path3):
    with pytest.raises(TrainerError):
        estimate_risk(path3, None, zero_params(3), SamplerConfig(),
                      LossConfig(), 0, np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, -3])
def test_check_unbiasedness_rejects_bad_n(path3, n):
    with pytest.raises(TrainerError, match="n must be >= 1"):
        check_unbiasedness(path3, zero_params(3), SamplerConfig(), LossConfig(), n,
                           np.random.default_rng(0))


def test_estimate_risk_rejects_unknown_method(path3):
    with pytest.raises(TrainerError, match="unknown method 'fast'"):
        estimate_risk(path3, None, zero_params(3), SamplerConfig(), LossConfig(), 10,
                      np.random.default_rng(0), method="fast")


def _aggregated(g, cfg):
    return estimate_risk(g, None, ParamStore(2, 0, seed=0), cfg, LossConfig(), 10 ** 4,
                         np.random.default_rng(0), method="aggregated")


def _unbiasedness(g, cfg):
    return check_unbiasedness(g, ParamStore(2, 0, seed=0), cfg, LossConfig(), 10 ** 4,
                              np.random.default_rng(0))


def _exact(g, cfg):
    return exact_risk(g, None, ParamStore(2, 0, seed=0), cfg, LossConfig())


def _loop(g, cfg):
    return estimate_risk(g, None, ParamStore(2, 0, seed=0), cfg, LossConfig(), 10,
                         np.random.default_rng(0), method="loop")


@pytest.mark.parametrize("oracle", [_exact, _aggregated, _loop, _unbiasedness])
@pytest.mark.parametrize("cfg,reason", [
    (SamplerConfig(retention=1.5), "retention must be in"),     # exact_risk read 7.02
    (SamplerConfig(retention=-0.5), "retention must be in"),    # and 0.52
    (SamplerConfig(algorithm="rw_induced", walk_length=0), "walk_length must be >= 1"),
    (SamplerConfig(algorithm="rw_skipgram", walk_length=2, window=0), "window must be >= 1"),
    (SamplerConfig(algorithm="rw_induced", walk_length=2, walk_start="nope"),
     "unknown walk_start 'nope'")])
def test_oracles_reject_an_invalid_sampler_config(path3, oracle, cfg, reason):
    # the error `draw` raises, before any key is enumerated or drawn
    with pytest.raises(SamplerError, match=reason):
        oracle(path3, cfg)


@pytest.mark.parametrize("oracle", [_aggregated, _unbiasedness])
def test_oracles_reject_walk_keys_beyond_int64(oracle):
    # the 327,680 walks of 14 steps on a 20-cycle are within the enumeration
    # limit, but their codes over 20^15 > 2^63 possible walks are not
    g = from_edges(20, np.array([[i, (i + 1) % 20] for i in range(20)]))
    with pytest.raises(OracleError, match="do not fit int64"):
        oracle(g, SamplerConfig(algorithm="rw_induced", walk_length=14))


def test_encode_matches_ravel_multi_index():
    # np.ravel_multi_index is the reference for the Horner codes, on the
    # keys draw_key simulates (C-order masks, walks transposed from steps)
    # and on copies in the other memory order
    rng = np.random.default_rng(4)
    edges = rng.integers(10, size=(25, 2))
    rand10 = from_edges(10, edges[edges[:, 0] != edges[:, 1]])
    triangle = from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
    for g, cfg in ((rand10, SamplerConfig(algorithm="p_sampling", retention=0.3)),
                   (triangle, SamplerConfig(algorithm="rw_induced", walk_length=6)),
                   (rand10, SamplerConfig(algorithm="rw_skipgram", walk_length=4))):
        dims = trainer._key_dims(g, cfg)
        keys = draw_key(g, cfg, rng, size=5000)
        for k in (keys, np.asfortranarray(keys), np.ascontiguousarray(keys)):
            assert np.array_equal(trainer._encode(k, dims), np.ravel_multi_index(tuple(k.T), dims))
    # the largest code space that fits int64, and the first one past it
    for dims in ((3,) * 39, (3,) * 40, (2,) * 62, (2,) * 63, (20,) * 14, (20,) * 15):
        keys = np.array([[d - 1 for d in dims], [0] * len(dims)])
        try:
            want = np.ravel_multi_index(tuple(keys.T), dims)
        except ValueError:
            with pytest.raises(OracleError, match="do not fit int64"):
                trainer._encode(keys, dims)
        else:
            assert np.array_equal(trainer._encode(keys, dims), want)


@pytest.mark.parametrize("oracle", [_aggregated, _unbiasedness])
def test_oracles_reject_psampling_beyond_20_vertices(oracle):
    g = from_edges(21, np.array([[i, i + 1] for i in range(20)]))
    with pytest.raises(OracleError, match="<= 20 vertices"):
        oracle(g, SamplerConfig(algorithm="p_sampling", retention=0.5))


@pytest.mark.parametrize("cfg", [
    SamplerConfig(algorithm="p_sampling", negative="unigram"),
    SamplerConfig(algorithm="uniform_edge", edge_count=2)])
def test_aggregated_rejects_outcomes_it_cannot_enumerate(path3, cfg):
    with pytest.raises(OracleError):
        _aggregated(path3, cfg)


@pytest.mark.parametrize("graph,cfg,n,picks", [
    ("path3", SamplerConfig(algorithm="p_sampling", retention=0.5), 2000, "aggregated"),
    ("triangle", SamplerConfig(algorithm="rw_induced", walk_length=2), 2000, "aggregated"),
    ("path3", SamplerConfig(algorithm="p_sampling", negative="unigram"), 2000, "loop"),
    ("path3", SamplerConfig(algorithm="p_sampling", retention=0.5), 999, "loop"),
    # 5^11 possible walk codes are within the limit of 5 * 10^7, 5^12 are not
    ("path5", SamplerConfig(algorithm="rw_induced", walk_length=10), 2000, "aggregated"),
    ("path5", SamplerConfig(algorithm="rw_induced", walk_length=11), 2000, "loop"),
])
def test_estimate_risk_auto_picks_its_method(request, graph, cfg, n, picks):
    g = request.getfixturevalue(graph)

    def estimate(method):
        return estimate_risk(g, None, ParamStore(2, 0, seed=0), cfg, LossConfig(), n,
                             np.random.default_rng(3), method=method)
    assert estimate("auto") == estimate(picks)


# -- gradient unbiasedness ----------------------------------------------------

def test_unbiasedness_psample_path3(path3):
    params = ParamStore(4, 0, seed=1)
    rep = check_unbiasedness(path3, params,
                             SamplerConfig(algorithm="p_sampling", retention=0.5),
                             LossConfig(), 10 ** 5, np.random.default_rng(0))
    assert rep.max_abs_z < 4.0


def test_unbiasedness_rw_triangle(triangle):
    params = ParamStore(4, 0, seed=2)
    rep = check_unbiasedness(triangle, params,
                             SamplerConfig(algorithm="rw_induced", walk_length=2),
                             LossConfig(), 10 ** 5, np.random.default_rng(1))
    assert rep.max_abs_z < 4.0


def test_unbiasedness_detects_bias(path3):
    # deliberately wrong sampler for the enumerated risk: retention
    # mismatch must blow up the z-scores
    params = ParamStore(4, 0, seed=3)
    rep = check_unbiasedness(path3, params,
                             SamplerConfig(algorithm="p_sampling", retention=0.5),
                             LossConfig(), 10 ** 5, np.random.default_rng(2))
    biased = check_unbiasedness(path3, params,
                                SamplerConfig(algorithm="p_sampling", retention=0.9),
                                LossConfig(), 10 ** 5, np.random.default_rng(2))
    # same exact risk is recomputed for p=0.9, so compare draws at p=0.9
    # against the p=0.5 enumerated gradient manually instead:
    from relerm.trainer import _decode, _flatten_gradient, _key_dims, _simulate_key_counts
    exact = np.zeros(path3.vertex_count * params.dim)
    for prob, sub in outcomes(path3, psample(0.5)):
        g = gradient(sub, None, params, LossConfig())
        exact += prob * _flatten_gradient(g, path3, params)[0, :len(exact)]
    cfg = SamplerConfig(algorithm="p_sampling", retention=0.9)
    codes, counts = _simulate_key_counts(path3, cfg, 10 ** 5, np.random.default_rng(5))
    grads = np.stack([_flatten_gradient(gradient(outcome_batch(path3, cfg, key[None]), None,
                                                 params, LossConfig()),
                                        path3, params)[0, :len(exact)]
                      for key in _decode(codes, _key_dims(path3, cfg), cfg)])
    mean = (counts[:, None] * grads).sum(axis=0) / 10 ** 5
    assert np.abs(mean - exact).max() > 1e-3
    assert rep.max_abs_z < 4.0 and biased.max_abs_z < 4.0


def test_unbiasedness_sees_the_production_walk(path5, monkeypatch):
    # a start bias planted in the walk that `draw` resolves must reach the
    # simulated side of the check: degree-proportional starts against the
    # uniform start of the enumerated law
    import relerm.samplers as S
    walk = S.random_walk

    def biased(graph, r, rng, start="uniform_vertex", size=None):
        return walk(graph, r, rng, "degree_proportional", size)

    cfg = SamplerConfig(algorithm="rw_induced", walk_length=3)
    params = ParamStore(4, 0, seed=5)
    honest = check_unbiasedness(path5, params, cfg, LossConfig(), 10 ** 5,
                                np.random.default_rng(6))
    monkeypatch.setattr(S, "random_walk", biased)
    rep = check_unbiasedness(path5, params, cfg, LossConfig(), 10 ** 5,
                             np.random.default_rng(6))
    assert honest.max_abs_z < 4.0
    assert rep.max_abs_z > 4.0


@pytest.mark.parametrize("cfg", [psample(0.5), walk(3)])
def test_unbiasedness_fails_a_gradient_that_is_not_the_derivative(path5, cfg, monkeypatch):
    # 1.1 times the gradient is unbiased for 1.1 times the risk, so the
    # z-scores pass it and only the derivative check can catch it
    exact = trainer.gradient

    def scaled(*args, **kwargs):
        grad = exact(*args, **kwargs)
        grad.embeddings.data *= 1.1
        return grad

    params = ParamStore(4, 0, seed=5)
    honest = check_unbiasedness(path5, params, cfg, LossConfig(), 10 ** 4,
                                np.random.default_rng(7))
    monkeypatch.setattr(trainer, "gradient", scaled)
    rep = check_unbiasedness(path5, params, cfg, LossConfig(), 10 ** 4,
                             np.random.default_rng(7))
    assert honest.fd_error <= FD_TOLERANCE
    assert rep.max_abs_z < 4.0 and rep.fd_error > FD_TOLERANCE


def test_unbiasedness_memory_is_bounded_by_a_batch():
    # the 2^16 retention masks of a 16-ring: one dense row of 64 gradient
    # coordinates per mask would be 32 MiB, and its weighted moments took
    # about 100 MiB at peak; summed batch by batch the check peaks near 61 MiB
    g = from_edges(16, np.array([[i, (i + 1) % 16] for i in range(16)]))
    tracemalloc.start()
    try:
        check_unbiasedness(g, ParamStore(4, 0, seed=0), psample(0.5), LossConfig(), 10 ** 4,
                           np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


LABEL_CASES = {
    "p_sampling": psample(0.5),
    "rw_skipgram": SamplerConfig(algorithm="rw_skipgram", walk_length=3, window=2),
}


@pytest.mark.parametrize("name", list(LABEL_CASES))
def test_oracles_node_classification(path5, name):
    # q = 0.5 mixes the label and edge terms; vertex 2's labels are unobserved
    sampler, loss = LABEL_CASES[name], LossConfig(q=0.5, mode="node_classification")
    rng = np.random.default_rng(8)
    labels = LabelTable(2, rng.random((5, 2)) < 0.5, np.array([1, 1, 0, 1, 1], dtype=bool))
    params = ParamStore(3, 2, seed=9)
    params.embeddings.put(np.arange(5), rng.normal(scale=0.5, size=(5, 3)))
    params.weights[:] = rng.normal(size=(3, 2))
    params.bias[:] = rng.normal(size=2)
    exact = exact_risk(path5, labels, params, sampler, loss)
    for method in ("aggregated", "loop"):
        est = estimate_risk(path5, labels, params, sampler, loss, 10 ** 5, rng, method=method)
        assert abs(est.mean - exact) < 4 * est.std_error, method
    rep = check_unbiasedness(path5, params, sampler, loss, 10 ** 5, rng, labels=labels)
    assert rep.max_abs_z < 4.0
    assert rep.fd_error <= FD_TOLERANCE
    # the gradient the check enumerates is the gradient of the exact risk:
    # central differences over every embedding entry, weight and bias
    h, diffs = 1e-6, []
    for table in (params.embeddings.data[:5], params.weights, params.bias):
        for at in np.ndindex(table.shape):
            risks = []
            for step in (h, -2 * h):
                table[at] += step
                risks.append(exact_risk(path5, labels, params, sampler, loss))
            table[at] += h
            diffs.append((risks[0] - risks[1]) / (2 * h))
    assert np.abs(rep.exact_gradient - diffs).max() < 1e-6


# -- SGD ----------------------------------------------------------------------

def test_sgd_step_zero_gradient():
    params = ParamStore(2, 1, seed=0)
    before = params.embedding(0).copy()
    none = SparseRows(np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    sgd_step(params, SparseGradient(none, np.zeros((1, 2, 1)), np.zeros((1, 1)), none), 0.1)
    assert np.array_equal(params.embedding(0), before)


def test_sgd_step_single_coordinate():
    params = ParamStore(2, 0, seed=0)
    start = params.embedding(3).copy()
    none = SparseRows(np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    g = SparseGradient(SparseRows(np.array([3]), np.array([[2.0, 0.0]])),
                       np.zeros((1, 2, 0)), np.zeros((1, 0)), none)
    sgd_step(params, g, 0.25)
    assert np.allclose(params.embedding(3), start - [0.5, 0.0])


def test_sgd_descends_on_convex_instance():
    params = ParamStore(2, 0, seed=4)
    from test_losses import make_sample
    sample = make_sample([0, 1], pos=[[0, 1]])
    cfg = LossConfig()
    prev = combined_loss(sample, None, params, cfg)[0]
    for _ in range(2):
        g = gradient(sample, None, params, cfg)
        sgd_step(params, g, 0.05)
        cur = combined_loss(sample, None, params, cfg)[0]
        assert cur <= prev + 1e-12
        prev = cur


# -- training loop ------------------------------------------------------------

def test_train_steps_zero(path3):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.5),
                      steps=0, embedding_dim=4, seed=5)
    params, trace = train(path3, None, None, cfg)
    assert len(trace) == 1 and trace[0]["step"] == 0
    fresh = ParamStore(4, 0, seed=5)
    for v in params.embeddings.ids().tolist():
        assert np.array_equal(params.embedding(v), fresh.embedding(v))


def test_train_k2_learns_the_edge(k2):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=1.0),
                      steps=500, lr_start=0.1, lr_end=0.1, embedding_dim=2,
                      seed=6)
    params, trace = train(k2, None, None, cfg)
    s = float(params.embedding(0) @ params.embedding(1))
    assert _sigmoid(np.array([s]))[0] >= 0.9
    assert trace[-1]["risk_mean"] < trace[0]["risk_mean"]


def test_train_q1_logistic_only(path3):
    from relerm.graph import LabelTable
    # separable toy: label = sign of the first embedding coordinate
    params = ParamStore(1, 1, seed=0)
    params.embeddings.put(np.array([0, 1, 2]), np.array([[1.0], [-1.0], [1.0]]))
    labels = LabelTable(1, np.array([[True], [False], [True]]),
                        np.ones(3, dtype=bool))
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=1.0),
                      loss=LossConfig(q=1.0, mode="node_classification"),
                      steps=800, lr_start=0.5, lr_end=0.5, embedding_dim=1,
                      seed=0)
    params, _ = train(path3, labels, None, cfg, params=params)
    from test_losses import label_loss, make_sample
    final = label_loss(make_sample([0, 1, 2]), labels, params, cfg.loss)
    assert final < 0.05


def test_train_rejects_params_of_another_dim(path3):
    # a store of dim 4 trained at dim 4 under embedding_dim=8
    cfg = TrainConfig(sampler=psample(0.5), steps=2, embedding_dim=8)
    with pytest.raises(TrainerError, match="params of dim 4 for embedding_dim 8"):
        train(path3, None, None, cfg, params=ParamStore(4, 0, seed=0))


def test_train_rejects_init_ids_shorter_than_the_graph():
    # numpy's IndexError ("index 7 is out of bounds") surfaced from the
    # row initialiser once a draw reached vertex 7
    ring = from_edges(10, np.array([[i, (i + 1) % 10] for i in range(10)]))
    cfg = TrainConfig(sampler=psample(0.5), steps=5, embedding_dim=4)
    with pytest.raises(TrainerError, match="init_ids of length 5 for a graph of 10 vertices"):
        train(ring, None, None, cfg, params=ParamStore(4, 0, seed=0, init_ids=np.arange(5)))
    train(ring, None, None, cfg, params=ParamStore(4, 0, seed=0, init_ids=np.arange(10)))


def test_train_rejects_params_of_another_label_dim(path3):
    # numpy's broadcast ValueError surfaced from the first label gradient
    labels = LabelTable(2, np.eye(3, 2, dtype=bool), np.ones(3, dtype=bool))
    cfg = TrainConfig(sampler=psample(1.0), loss=LossConfig(q=0.5, mode="node_classification"),
                      steps=2, embedding_dim=2)
    with pytest.raises(TrainerError, match="params of label_dim 3 for labels of label_dim 2"):
        train(path3, labels, None, cfg, params=ParamStore(2, 3, seed=0))
    params, _ = train(path3, labels, None, cfg, params=ParamStore(2, 2, seed=0))
    assert params.weights.shape == (2, 2)


def test_train_deterministic_repeat(path3):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.6),
                      steps=50, embedding_dim=4, seed=7, eval_every=10)
    p1, t1 = train(path3, None, None, cfg)
    p2, t2 = train(path3, None, None, cfg)
    assert t1 == t2
    ids = p1.embeddings.ids()
    assert np.array_equal(ids, p2.embeddings.ids())
    assert np.array_equal(p1.embeddings.rows(ids), p2.embeddings.rows(ids))


def test_train_exact_match_with_deterministic_sampler(path3):
    # p=1 makes every draw identical; two runs agree to machine precision
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=1.0),
                      steps=20, embedding_dim=3, seed=8)
    p1, _ = train(path3, None, None, cfg)
    p2, _ = train(path3, None, None, cfg)
    ids = p1.embeddings.ids()
    assert np.array_equal(ids, p2.embeddings.ids())
    assert np.array_equal(p1.embeddings.rows(ids), p2.embeddings.rows(ids))


def test_train_trace_schedule(path3):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.5),
                      steps=30, embedding_dim=2, seed=9, eval_every=10)
    _, trace = train(path3, None, None, cfg)
    assert [r["step"] for r in trace] == [0, 10, 20, 30]
    assert all(r["wallclock"] is None for r in trace)
    _, trace = train(path3, None, None, cfg, trace_wallclock=True)
    assert all(isinstance(r["wallclock"], float) for r in trace)


def test_train_in_category_mode_reserves_no_vertex_rows():
    n = 2000
    ring = from_edges(n, np.array([[i, (i + 1) % n] for i in range(n)]))
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="rw_skipgram", walk_length=3, window=2),
                      loss=LossConfig(mode="category_embedding"), steps=3,
                      embedding_dim=16, seed=2)
    params, _ = train(ring, None, category_map([[v % 4] for v in range(n)], 4), cfg)
    assert params.embeddings.data.shape == (0, 16)
    assert len(params.category_embeddings.ids()) == 4


def test_train_rejects_invalid_config(path3):
    with pytest.raises(TrainerError):
        train(path3, None, None, TrainConfig(steps=-1))


def test_train_builds_the_unigram_table_once(path3, monkeypatch):
    import relerm.trainer as T
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    build = T.build_unigram
    monkeypatch.setattr(T, "build_unigram", counted)
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="rw_skipgram", walk_length=3,
                                            window=2, negative="unigram"),
                      steps=10, embedding_dim=2, seed=3, eval_every=5)
    _, trace = train(path3, None, None, cfg)
    assert len(trace) == 3 and len(calls) == 1


def test_estimate_risk_uses_given_unigram_table(path3, monkeypatch):
    import relerm.trainer as T
    sampler = SamplerConfig(algorithm="rw_skipgram", walk_length=3, window=2,
                            negative="unigram")
    params = ParamStore(2, 0, seed=1)
    built = estimate_risk(path3, None, params, sampler, LossConfig(), 50,
                          np.random.default_rng(2), method="loop")
    table = T.build_unigram(path3, 0.75)

    def refuse(*args, **kwargs):
        raise AssertionError("table rebuilt")

    monkeypatch.setattr(T, "build_unigram", refuse)
    given = estimate_risk(path3, None, params, sampler, LossConfig(), 50,
                          np.random.default_rng(2), method="loop", unigram_table=table)
    assert given == built


# -- training in blocks -------------------------------------------------------

def block_test_graph():
    # a 5-cycle with the chord 0-2, a pendant 5 on vertex 0, the isolated
    # edge 6-7 and the isolated vertex 8
    return from_edges(9, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 2], [0, 5],
                                   [6, 7]]))


def reference_train(graph, labels, cats, config):
    """`train` as one draw per step: draw -> gradient -> sgd_step, with the
    risk recorded after the same steps from its own generator."""
    label_dim = labels.label_dim if labels is not None else 0
    params = ParamStore(config.embedding_dim, label_dim, seed=config.seed)
    if config.loss.mode != "category_embedding":
        params.embeddings.reserve(graph.vertex_count)
    rng = np.random.default_rng(config.seed)
    eval_rng = np.random.default_rng((config.seed, 0xE7A1))
    table = build_unigram(graph, config.sampler.unigram_power) \
        if config.sampler.negative == "unigram" else None
    trace = []

    def record(step):
        est = estimate_risk(graph, labels, params, config.sampler, config.loss,
                            config.eval_samples, eval_rng, cats, unigram_table=table)
        trace.append({"step": step, "risk_mean": est.mean, "risk_stderr": est.std_error,
                      "wallclock": None})

    record(0)
    for step in range(config.steps):
        sub = draw(graph, config.sampler, rng, unigram_table=table)
        g = gradient(sub, labels, params, config.loss, cats)
        sgd_step(params, g, trainer._learning_rate(config, step))
        if config.eval_every and (step + 1) % config.eval_every == 0:
            record(step + 1)
    if trace[-1]["step"] != config.steps:
        record(config.steps)
    return params, trace


def outcome_of(params, trace):
    """A training's bytes: both row tables (data and present mask), the
    global parameters and the trace."""
    return ([t.data.tobytes() + t.present.tobytes()
             for t in (params.embeddings, params.category_embeddings)]
            + [params.weights.tobytes(), params.bias.tobytes(), trace])


def training_draw_sizes(monkeypatch):
    """A list that collects the size of each `draw` call `train` makes for
    its steps, leaving out the calls of its risk records."""
    sizes, recording = [], []
    counted, estimate = trainer.draw, trainer.estimate_risk

    def sized_draw(*args, **kwargs):
        batch = counted(*args, **kwargs)
        if not recording:
            sizes.append(len(batch))
        return batch

    def recorded_estimate(*args, **kwargs):
        recording.append(True)
        try:
            return estimate(*args, **kwargs)
        finally:
            recording.pop()

    monkeypatch.setattr(trainer, "draw", sized_draw)
    monkeypatch.setattr(trainer, "estimate_risk", recorded_estimate)
    return sizes


@pytest.mark.parametrize("budget", ["one id", "three draws", "eight draws", "default"])
@pytest.mark.parametrize("mode", ["edge_only", "node_classification", "category_embedding"])
@pytest.mark.parametrize("negative", ["none", "induced", "unigram"])
@pytest.mark.parametrize("algorithm", ["rw_skipgram", "rw_induced", "p_sampling",
                                       "uniform_edge"])
def test_blocks_train_as_one_draw_per_step(algorithm, negative, mode, budget, monkeypatch):
    # 13 steps, not a multiple of a three-draw block, with records after
    # steps 5 and 10, inside blocks; a block of one id holds one draw.
    # Where a batch is successive draws, a call after the first takes
    # several: cut by the block's budget (three or eight draws' worth), or
    # by the steps left (the default budget holds all 13 draws)
    if budget != "default":
        monkeypatch.setattr(trainer, "BLOCK_IDS", {"one id": 1,
                                                   "three draws": 3 * trainer.DRAW_IDS,
                                                   "eight draws": 8 * trainer.DRAW_IDS}[budget])
    sizes = training_draw_sizes(monkeypatch)
    graph = block_test_graph()
    V = graph.vertex_count
    rng = np.random.default_rng(4)
    labels = LabelTable(2, rng.random((V, 2)) < 0.5, rng.random(V) < 0.7)
    cats = category_map([[v % 3] for v in range(V)], 3)
    config = TrainConfig(
        sampler=SamplerConfig(algorithm=algorithm, negative=negative, walk_length=4, window=2,
                              retention=0.6, edge_count=3, negatives_per_vertex=2),
        loss=LossConfig(q=0.5, mode=mode), steps=13, lr_start=0.5, lr_end=0.01,
        embedding_dim=3, seed=7, eval_every=5, eval_samples=3)
    trained = outcome_of(*train(graph, labels, cats, config))
    sizes = sizes[:]  # the reference's records draw through trainer.draw too
    assert trained == outcome_of(*reference_train(graph, labels, cats, config))
    assert sum(sizes) == config.steps and sizes[0] == 1
    if budget == "one id" or not batch_is_successive(config.sampler):
        assert set(sizes) == {1}
    elif budget == "default":
        assert sizes == [1, config.steps - 1]
    else:
        assert 1 < max(sizes) < config.steps - 1


def test_cold_training_draws_its_rows_once_per_block(monkeypatch):
    # a cold p-sampling training of 300 steps: the steps draw their initial
    # rows in one UniformRows call per block of BLOCK_IDS ids, where one
    # call per step that met a new vertex was made before; the risk
    # records make their own calls
    from relerm.losses import UniformRows
    rng = np.random.default_rng(0)
    n = 1000
    pairs = rng.integers(n, size=(4000, 2))
    graph = from_edges(n, pairs[pairs[:, 0] != pairs[:, 1]])
    config = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.02),
                         steps=300, embedding_dim=4, seed=3)
    calls = {"steps": 0, "records": 0}
    recording = []
    init, estimate = UniformRows.__call__, trainer.estimate_risk

    def counted_init(self, ids):
        calls["records" if recording else "steps"] += 1
        return init(self, ids)

    def counted_estimate(*args, **kwargs):
        recording.append(True)
        try:
            return estimate(*args, **kwargs)
        finally:
            recording.pop()

    monkeypatch.setattr(UniformRows, "__call__", counted_init)
    monkeypatch.setattr(trainer, "estimate_risk", counted_estimate)
    params, _ = train(graph, None, None, config)
    replay = np.random.default_rng(config.seed)
    held = 0
    for _ in range(config.steps):
        sub = draw(graph, config.sampler, replay)
        held += trainer.DRAW_IDS + sub.vertices.size + sub.positive_pairs.size \
            + sub.negative_pairs.size
    assert 1 <= calls["steps"] <= held // trainer.BLOCK_IDS + 1
    assert calls["records"] >= 1
    assert params.embeddings.present.sum() > 500


def test_cold_psampling_training_takes_several_draws_per_call(monkeypatch):
    # 300 p-sampling steps at V = 1000: after a first call of one draw,
    # each call's keys hold up to BLOCK_IDS numbers, some 60 draws here
    rng = np.random.default_rng(0)
    pairs = rng.integers(1000, size=(4000, 2))
    graph = from_edges(1000, pairs[pairs[:, 0] != pairs[:, 1]])
    config = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.02),
                         steps=300, embedding_dim=4, seed=3)
    sizes = training_draw_sizes(monkeypatch)
    train(graph, None, None, config)
    assert sum(sizes) == config.steps and sizes[0] == 1
    assert len(sizes) < config.steps // 10


def test_estimate_risk_rejects_a_unigram_table_of_another_graph(path3):
    cycle6 = from_edges(6, np.array([[i, (i + 1) % 6] for i in range(6)]))
    sampler = SamplerConfig(algorithm="rw_skipgram", walk_length=3, window=2,
                            negative="unigram")
    for graph, other in ((cycle6, path3), (path3, cycle6)):
        with pytest.raises(SamplerError, match=f"unigram table of {other.vertex_count} "
                                               f"vertices for a graph of {graph.vertex_count}"):
            estimate_risk(graph, None, ParamStore(2, 0, seed=0), sampler, LossConfig(), 20,
                          np.random.default_rng(1), method="loop",
                          unigram_table=build_unigram(other))
