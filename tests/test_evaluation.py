import numpy as np
import pytest

from relerm import (LabelTable, LossConfig, SamplerConfig, Split, TrainConfig,
                    from_edges, macro_f1, make_split, simultaneous_eval,
                    two_stage_eval)
from relerm.evaluation import SPLIT_SCHEMES, EvalError, fit_logistic, predict_labels
from relerm import samplers
from relerm.losses import ParamStore, _sigmoid
from relerm.samplers import random_walk


def ring(n):
    return from_edges(n, np.array([[i, (i + 1) % n] for i in range(n)]))


# -- splits -------------------------------------------------------------------

def test_split_uniform_sizes():
    g = ring(10)
    split = make_split(g, 0.5, "uniform_vertex", np.random.default_rng(0))
    assert len(split.test_vertices) == 5
    assert len(split.train_vertices) == 5
    assert not np.intersect1d(split.train_vertices, split.test_vertices).size
    split = make_split(g, 0.0, "uniform_vertex", np.random.default_rng(0))
    assert len(split.test_vertices) == 0
    assert len(split.train_vertices) == 10


def test_split_overlap_rejected():
    with pytest.raises(EvalError):
        Split(np.array([0, 1]), np.array([1, 2]), "uniform_vertex")


def test_split_p_sampling_scheme():
    g = ring(40)
    split = make_split(g, 0.5, "p_sampling", np.random.default_rng(1))
    # bisection on one draw: close to the target but not necessarily exact
    assert 10 <= len(split.test_vertices) <= 30
    assert not np.intersect1d(split.train_vertices, split.test_vertices).size


def test_split_random_walk_scheme():
    g = ring(40)
    split = make_split(g, 0.25, "random_walk", np.random.default_rng(2))
    assert len(split.test_vertices) == 10
    # a walk's visits are contiguous on a ring: the test set is one arc,
    # so exactly one test vertex has a successor outside it
    t = np.sort(split.test_vertices)
    in_test = np.zeros(40, dtype=bool)
    in_test[t] = True
    assert np.count_nonzero(in_test & ~np.roll(in_test, -1)) == 1
    assert t.tolist() == list(range(27, 37))


# digests of the splits at fractions 0, 0.1, 0.5 and 0.9 and seeds 0-2,
# recorded before the splits drew through `draw` and `draw_key`: a 30-ring
# with chords plus two isolated vertices, and a 150-ring on which a
# random-walk split takes several walks
GOLDEN_SPLITS = {
    "chorded/p_sampling": "489ab5e8ad6fe3f4",
    "chorded/random_walk": "e37e5fb60f255677",
    "chorded/uniform_vertex": "f90a5217e816ef0d",
    "ring150/p_sampling": "09aa3a4661dc8808",
    "ring150/random_walk": "7f290bb0b62cd62f",
    "ring150/uniform_vertex": "444af5b9b20bd9bd",
}


def split_graphs():
    chords = [[i, (i + 1) % 30] for i in range(30)] + [[i, (i + 7) % 30] for i in range(0, 30, 4)]
    return {"chorded": from_edges(32, np.array(chords)), "ring150": ring(150)}


@pytest.mark.parametrize("scheme", SPLIT_SCHEMES)
@pytest.mark.parametrize("graph_name", ["chorded", "ring150"])
def test_split_golden(graph_name, scheme, digest):
    g = split_graphs()[graph_name]
    items = []
    for fraction in (0.0, 0.1, 0.5, 0.9):
        for seed in range(3):
            split = make_split(g, fraction, scheme, np.random.default_rng(seed))
            items += [split.train_vertices, split.test_vertices, split.scheme]
    assert digest(items) == GOLDEN_SPLITS[f"{graph_name}/{scheme}"]


def test_split_p_sampling_computes_no_pairs(monkeypatch):
    # the bisection probes need only each draw's vertices
    calls = []
    real = samplers.induced_pairs
    monkeypatch.setattr(samplers, "induced_pairs",
                        lambda *args: calls.append(1) or real(*args))
    for g in split_graphs().values():
        split = make_split(g, 0.5, "p_sampling", np.random.default_rng(0))
        assert len(split.test_vertices)
    assert calls == []


def walk_split_reference(g, target, rng):
    """Every distinct vertex in visiting order, one visit at a time, over
    successive 100-step walks until `target` are seen (the last walk runs
    to its end), and the number of walks taken."""
    seen, walks = [], 0
    while len(seen) < target:
        walks += 1
        for u in random_walk(g, 100, rng).tolist():
            if u not in seen:
                seen.append(u)
    return seen, walks


@pytest.mark.parametrize("graph_name", ["chorded", "ring150"])
def test_split_random_walk_matches_loop_reference(graph_name):
    g = split_graphs()[graph_name]
    for fraction in (0.1, 0.5, 0.9):
        target = int(round(fraction * g.vertex_count))
        for seed in range(3):
            seen, _ = walk_split_reference(g, target, np.random.default_rng(seed))
            split = make_split(g, fraction, "random_walk", np.random.default_rng(seed))
            assert split.test_vertices.tolist() == sorted(seen[:target])


def test_split_random_walk_stops_inside_a_walk():
    # on the 150-ring, 75 test vertices take several walks, and the walk
    # that reaches 75 still visits unseen vertices after the cutoff
    seen, walks = walk_split_reference(ring(150), 75, np.random.default_rng(0))
    assert walks > 1 and len(seen) > 75
    split = make_split(ring(150), 0.5, "random_walk", np.random.default_rng(0))
    assert split.test_vertices.tolist() == sorted(seen[:75])


def test_split_random_walk_rejects_unreachable_target():
    # walks never visit the isolated vertex 3, so 4 test vertices are out of reach
    g = from_edges(4, np.array([[0, 1], [1, 2]]))
    with pytest.raises(EvalError, match="needs 4 test vertices, but only 3 of 4"):
        make_split(g, 1.0, "random_walk", np.random.default_rng(0))


def test_split_rejects_bad_args():
    g = ring(10)
    with pytest.raises(EvalError):
        make_split(g, 1.5, "uniform_vertex", np.random.default_rng(0))
    with pytest.raises(EvalError):
        make_split(g, 0.5, "nope", np.random.default_rng(0))


# -- macro F1 -----------------------------------------------------------------

def test_macro_f1_extremes():
    truth = LabelTable(3, np.random.default_rng(0).random((6, 3)) < 0.5,
                       np.ones(6, dtype=bool))
    test = np.arange(6)
    assert macro_f1(truth.labels, truth, test) == 1.0
    assert macro_f1(~truth.labels, truth, test) == 0.0


def test_macro_f1_hand_case():
    # label A: TP=1 FP=1 FN=0 -> 2/3; label B: TP=1 FP=0 FN=1 -> 2/3
    truth = LabelTable(2, np.array([[True, True],
                                    [False, True]]), np.ones(2, dtype=bool))
    pred = np.array([[True, True],
                     [True, False]])
    assert abs(macro_f1(pred, truth, np.array([0, 1])) - 2 / 3) < 1e-12


def test_macro_f1_empty_label_scores_zero():
    truth = LabelTable(2, np.array([[True, False]]), np.ones(1, dtype=bool))
    pred = np.array([[True, False]])
    # second label has no positives anywhere: F1 = 0 by convention
    assert abs(macro_f1(pred, truth, np.array([0])) - 0.5) < 1e-12


# -- logistic fitting and prediction ------------------------------------------

def test_fit_logistic_separable():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2))
    y = (x[:, :1] > 0)
    w, b = fit_logistic(x, y)
    p = _sigmoid(x @ w + b)
    assert ((p > 0.5) == y).mean() > 0.99


def test_predict_labels_threshold_and_topk():
    truth = LabelTable(3, np.array([[True, False, True],
                                    [False, True, False]]),
                       np.ones(2, dtype=bool))
    params = ParamStore(2, 3, seed=0)
    params.embeddings.put(np.array([0, 1]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    params.weights = np.array([[3.0, -3.0, 1.0],
                               [-3.0, 3.0, -1.0]])
    verts = np.array([0, 1])
    thr = predict_labels(params, verts, truth, "threshold")
    assert thr[0].tolist() == [True, False, True]
    assert thr[1].tolist() == [False, True, False]
    topk = predict_labels(params, verts, truth, "top_k")
    assert topk[0].sum() == 2 and topk[1].sum() == 1
    assert topk[0, 0] and topk[1, 1]
    with pytest.raises(EvalError):
        predict_labels(params, verts, truth, "nope")


# -- end-to-end protocols -----------------------------------------------------

def planted_toy(rng, blocks=2, per_block=20, p_in=0.5, p_out=0.02):
    n = blocks * per_block
    block = np.repeat(np.arange(blocks), per_block)
    iu, ju = np.triu_indices(n, k=1)
    p = np.where(block[iu] == block[ju], p_in, p_out)
    keep = rng.random(len(iu)) < p
    g = from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
    labels = np.zeros((n, blocks), dtype=bool)
    labels[np.arange(n), block] = True
    return g, LabelTable(blocks, labels, np.ones(n, dtype=bool))


def test_two_stage_beats_chance_on_planted_toy():
    rng = np.random.default_rng(4)
    g, labels = planted_toy(rng)
    split = make_split(g, 0.5, "uniform_vertex", np.random.default_rng(5))
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.4,
                                            negative="unigram"),
                      steps=400, lr_start=0.05, lr_end=0.005,
                      embedding_dim=8, seed=6)
    score = two_stage_eval(g, labels, split, cfg)
    assert score > 0.8


def test_simultaneous_runs_and_scores(path3):
    rng = np.random.default_rng(7)
    g, labels = planted_toy(rng)
    split = make_split(g, 0.5, "uniform_vertex", np.random.default_rng(8))
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.4,
                                            negative="unigram"),
                      loss=LossConfig(q=0.001),
                      steps=400, lr_start=0.05, lr_end=0.005,
                      embedding_dim=8, seed=9)
    score = simultaneous_eval(g, labels, split, cfg, prediction_mode="top_k")
    assert 0.0 <= score <= 1.0
    assert score > 0.6
