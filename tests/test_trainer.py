import numpy as np
import pytest

from relerm import (LossConfig, ParamStore, SamplerConfig, TrainConfig,
                    check_unbiasedness, estimate_risk, exact_risk_psample,
                    exact_risk_walk, sgd_step, train)
from relerm.losses import SparseGradient, combined_loss, _sigmoid
from relerm.samplers import draw
from relerm.trainer import OracleError, TrainerError, enumerate_outcomes
from relerm.graph import from_edges

LN2 = float(np.log(2))


def zero_params(v, dim=2, label_dim=0):
    params = ParamStore(dim, label_dim, seed=0)
    for u in range(v):
        params.embeddings[u] = np.zeros(dim)
    return params


# -- enumeration oracles ------------------------------------------------------

def test_psample_subset_table_path3(path3):
    # re-derive the per-subset pair counts, including isolated-deletion
    outcomes = enumerate_outcomes(path3, SamplerConfig(algorithm="p_sampling", retention=0.5))
    assert len(outcomes) == 8
    assert all(abs(p - 0.125) < 1e-15 for p, _ in outcomes)
    by_pairs = {}
    for _, sub in outcomes:
        k = len(sub.positive_pairs) + len(sub.negative_pairs)
        by_pairs[k] = by_pairs.get(k, 0) + 1
    # subsets {0,1} and {1,2} give 1 pair; {0,1,2} gives 3; the other five
    # (including {0,2}, whose survivors are isolated and deleted) give 0
    assert by_pairs == {0: 5, 1: 2, 3: 1}


def test_exact_risk_psample_path3(path3):
    risk = exact_risk_psample(path3, None, zero_params(3), 0.5, LossConfig())
    assert abs(risk - (5 / 8) * LN2) < 1e-12
    assert abs(risk - 0.4332) < 5e-5


def test_exact_risk_psample_extremes(path3):
    params = zero_params(3)
    # p=1: deterministic full graph (2 edges + 1 non-edge) -> 3 ln 2
    assert abs(exact_risk_psample(path3, None, params, 1.0, LossConfig())
               - 3 * LN2) < 1e-12
    assert exact_risk_psample(path3, None, params, 0.0, LossConfig()) == 0.0


def test_psample_enumeration_size_limit():
    g = from_edges(21, np.array([[i, i + 1] for i in range(20)]))
    with pytest.raises(OracleError):
        enumerate_outcomes(g, SamplerConfig(algorithm="p_sampling", retention=0.5))


def test_walk_enumeration_path3(path3):
    outcomes = enumerate_outcomes(path3, SamplerConfig(algorithm="rw_induced", walk_length=1))
    probs = {tuple(np.sort(sub.vertices).tolist()): 0.0 for _, sub in outcomes}
    walks = {}
    for p, sub in outcomes:
        key = tuple(sub.vertices.tolist())
        walks[key] = walks.get(key, 0.0) + p
    assert abs(walks[(0, 1)] - 1 / 3) < 1e-15  # walk (0,1)
    assert abs(walks[(1, 0)] - 1 / 6) < 1e-15
    assert abs(walks[(1, 2)] - 1 / 6) < 1e-15
    assert abs(walks[(2, 1)] - 1 / 3) < 1e-15
    assert abs(sum(p for p, _ in outcomes) - 1.0) < 1e-12


def test_exact_risk_walk_path3(path3):
    risk = exact_risk_walk(path3, None, zero_params(3), 1, "uniform_vertex",
                           LossConfig())
    assert abs(risk - LN2) < 1e-12


def test_exact_risk_walk_k2(k2):
    params = zero_params(2)
    for r in (1, 2, 5):
        risk = exact_risk_walk(k2, None, params, r, "uniform_vertex",
                               LossConfig())
        assert abs(risk - LN2) < 1e-12


def test_walk_enumeration_limit(triangle):
    with pytest.raises(OracleError):
        enumerate_outcomes(triangle, SamplerConfig(algorithm="rw_induced", walk_length=30),
                           max_walks=1000)


# -- Monte-Carlo risk estimation ----------------------------------------------

def test_estimate_risk_single_draw(path3):
    params = zero_params(3)
    cfg = SamplerConfig(algorithm="p_sampling", retention=0.5)
    sub = draw(path3, cfg, np.random.default_rng(3), unigram_table=None)
    expected = combined_loss(sub, None, params, LossConfig())
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
    exact = exact_risk_psample(path3, None, params, 0.5, loss)
    assert abs(est.mean - exact) < 4 * est.std_error
    cfg = SamplerConfig(algorithm="rw_induced", walk_length=2)
    est = estimate_risk(triangle, None, params, cfg, loss, 10 ** 5,
                        np.random.default_rng(2))
    exact = exact_risk_walk(triangle, None, params, 2, "uniform_vertex", loss)
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


@pytest.mark.parametrize("oracle", [_aggregated, _unbiasedness])
def test_oracles_reject_walk_keys_beyond_int64(oracle):
    # the 327,680 walks of 14 steps on a 20-cycle are within the enumeration
    # limit, but their codes over 20^15 > 2^63 possible walks are not
    g = from_edges(20, np.array([[i, (i + 1) % 20] for i in range(20)]))
    with pytest.raises(OracleError, match="do not fit int64"):
        oracle(g, SamplerConfig(algorithm="rw_induced", walk_length=14))


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
    from relerm.losses import gradient
    from relerm.samplers import outcome_subgraph
    exact = np.zeros(path3.vertex_count * params.dim)
    exact_cfg = SamplerConfig(algorithm="p_sampling", retention=0.5)
    for prob, sub in enumerate_outcomes(path3, exact_cfg):
        g = gradient(sub, None, params, LossConfig())
        exact += prob * _flatten_gradient(g, path3, params)[:len(exact)]
    cfg = SamplerConfig(algorithm="p_sampling", retention=0.9)
    codes, counts = _simulate_key_counts(path3, cfg, 10 ** 5, np.random.default_rng(5))
    grads = np.stack([_flatten_gradient(gradient(outcome_subgraph(path3, cfg, key), None,
                                                 params, LossConfig()),
                                        path3, params)[:len(exact)]
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


# -- SGD ----------------------------------------------------------------------

def test_sgd_step_zero_gradient():
    params = ParamStore(2, 1, seed=0)
    before = params.embedding(0).copy()
    sgd_step(params, SparseGradient(), 0.1)
    assert np.array_equal(params.embedding(0), before)


def test_sgd_step_single_coordinate():
    params = ParamStore(2, 0, seed=0)
    start = params.embedding(3).copy()
    g = SparseGradient(embeddings={3: np.array([2.0, 0.0])})
    sgd_step(params, g, 0.25)
    assert np.allclose(params.embedding(3), start - [0.5, 0.0])


def test_sgd_descends_on_convex_instance():
    params = ParamStore(2, 0, seed=4)
    from relerm.losses import gradient
    from test_losses import make_sample
    sample = make_sample([0, 1], pos=[[0, 1]])
    cfg = LossConfig()
    prev = combined_loss(sample, None, params, cfg)
    for _ in range(2):
        g = gradient(sample, None, params, cfg)
        sgd_step(params, g, 0.05)
        cur = combined_loss(sample, None, params, cfg)
        assert cur <= prev + 1e-12
        prev = cur


# -- training loop ------------------------------------------------------------

def test_train_steps_zero(path3):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.5),
                      steps=0, embedding_dim=4, seed=5)
    params, trace = train(path3, None, None, cfg)
    assert len(trace) == 1 and trace[0]["step"] == 0
    fresh = ParamStore(4, 0, seed=5)
    for v, vec in params.embeddings.items():
        assert np.array_equal(vec, fresh.embedding(v))


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
    params.embeddings = {0: np.array([1.0]), 1: np.array([-1.0]),
                         2: np.array([1.0])}
    labels = LabelTable(1, np.array([[True], [False], [True]]),
                        np.ones(3, dtype=bool))
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=1.0),
                      loss=LossConfig(q=1.0, mode="node_classification"),
                      steps=800, lr_start=0.5, lr_end=0.5, embedding_dim=1,
                      seed=0)
    params, _ = train(path3, labels, None, cfg, params=params)
    from relerm.losses import label_loss
    from test_losses import make_sample
    final = label_loss(make_sample([0, 1, 2]), labels, params, cfg.loss)
    assert final < 0.05


def test_train_deterministic_repeat(path3):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.6),
                      steps=50, embedding_dim=4, seed=7, eval_every=10)
    p1, t1 = train(path3, None, None, cfg)
    p2, t2 = train(path3, None, None, cfg)
    assert t1 == t2
    for v in p1.embeddings:
        assert np.array_equal(p1.embeddings[v], p2.embeddings[v])


def test_train_exact_match_with_deterministic_sampler(path3):
    # p=1 makes every draw identical; two runs agree to machine precision
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=1.0),
                      steps=20, embedding_dim=3, seed=8)
    p1, _ = train(path3, None, None, cfg)
    p2, _ = train(path3, None, None, cfg)
    for v in p1.embeddings:
        assert np.array_equal(p1.embeddings[v], p2.embeddings[v])


def test_train_trace_schedule(path3):
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.5),
                      steps=30, embedding_dim=2, seed=9, eval_every=10)
    _, trace = train(path3, None, None, cfg)
    assert [r["step"] for r in trace] == [0, 10, 20, 30]
    assert all(r["wallclock"] is None for r in trace)
    _, trace = train(path3, None, None, cfg, trace_wallclock=True)
    assert all(isinstance(r["wallclock"], float) for r in trace)


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
