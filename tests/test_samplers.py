import copy

import numpy as np
import pytest
from scipy.stats import chisquare

from relerm import (SamplerConfig, build_unigram, draw, negative_unigram, random_walk,
                    skipgram_pairs)
from relerm import samplers
from relerm.samplers import (ALGORITHMS, NEGATIVE_MODES, WALK_STARTS, NoWalkError, SamplerError,
                             SubgraphBatch)
from relerm.graph import from_edges
from conftest import batch_of_one


def pairs_set(arr):
    return {(min(a, b), max(a, b)) for a, b in arr.tolist()}


def pairs_multiset(arr):
    from collections import Counter
    return Counter((min(a, b), max(a, b)) for a, b in arr.tolist())


# -- random walks -------------------------------------------------------------

def test_walk_length_and_adjacency(path5):
    rng = np.random.default_rng(0)
    walk = random_walk(path5, 7, rng)
    assert len(walk) == 8
    assert path5.has_edges(walk[:-1], walk[1:]).all()


def test_walk_requires_edges():
    g = from_edges(3, np.zeros((0, 2)))
    with pytest.raises(NoWalkError):
        random_walk(g, 1, np.random.default_rng(0))


def test_walk_distribution_path3(path3):
    # uniform start, one step: P(walk = (1, 0)) = (1/3) * (1/2) = 1/6
    n = 10 ** 5
    rng = np.random.default_rng(1)
    hits = 0
    for _ in range(n):
        w = random_walk(path3, 1, rng)
        hits += w[0] == 1 and w[1] == 0
    p = 1 / 6
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_walk_degree_proportional_start(path3):
    rng = np.random.default_rng(2)
    starts = [random_walk(path3, 1, rng, start="degree_proportional")[0]
              for _ in range(20000)]
    freq = np.bincount(starts, minlength=3) / len(starts)
    # stationary occupancy is degree / 2E = (1/4, 1/2, 1/4)
    assert np.abs(freq - [0.25, 0.5, 0.25]).max() < 0.02


def test_random_walk_law_irregular_graph():
    # full walks from the sampler `draw` uses, one at a time and as the
    # rows of one batch (the bulk simulation's draws), against
    # P(walk) = P(start) * prod 1/deg, on star4 plus a pendant and an
    # isolated vertex: center 0, leaves 1..3, pendant 4 on leaf 1, 5 alone
    g = from_edges(6, np.array([[0, 1], [0, 2], [0, 3], [1, 4]]))
    deg = g.degrees.astype(float)
    n, r = 40_000, 2
    for start, p_start in (("uniform_vertex", (deg > 0) / (deg > 0).sum()),
                           ("degree_proportional", deg / deg.sum())):
        walks, want = [], []
        for v0 in range(6):
            for v1 in g.neighbors[g.offsets[v0]:g.offsets[v0 + 1]]:
                for v2 in g.neighbors[g.offsets[v1]:g.offsets[v1 + 1]]:
                    walks.append((v0, int(v1), int(v2)))
                    want.append(p_start[v0] / (deg[v0] * deg[v1]))
        index = {w: i for i, w in enumerate(walks)}
        rng = np.random.default_rng(11)
        single = [random_walk(g, r, rng, start) for _ in range(n)]
        batch = random_walk(g, r, np.random.default_rng(11), start, size=n)
        assert abs(sum(want) - 1.0) < 1e-12
        for drawn in (single, batch):
            counts = np.zeros(len(walks))
            for walk in drawn:
                counts[index[tuple(walk.tolist())]] += 1
            assert chisquare(counts, n * np.array(want)).pvalue > 1e-3, start


# -- skipgram pairs -----------------------------------------------------------

def test_skipgram_window3():
    pairs = skipgram_pairs(np.array([4, 7, 9]), window=3)
    assert pairs_set(pairs) == {(4, 7), (7, 9), (4, 9)}
    assert len(pairs) == 3


def test_skipgram_multiset_drops_self_pairs():
    pairs = skipgram_pairs(np.array([0, 1, 0, 1]), window=2)
    assert pairs_multiset(pairs) == {(0, 1): 3}
    # window 3 would add index pairs at distance 2, all self-pairs here
    pairs = skipgram_pairs(np.array([0, 1, 0, 1]), window=3)
    assert pairs_multiset(pairs) == {(0, 1): 3}


def test_rw_skipgram_k2(k2):
    cfg = SamplerConfig(algorithm="rw_skipgram", walk_length=2, window=2)
    s = draw(k2, cfg, np.random.default_rng(0))
    assert pairs_multiset(s.positive_pairs) == {(0, 1): 2}
    assert set(s.vertices.tolist()) == {0, 1}


def test_rw_skipgram_triangle(triangle):
    cfg = SamplerConfig(algorithm="rw_skipgram", walk_length=4, window=2)
    s = draw(triangle, cfg, np.random.default_rng(3))
    assert len(s.positive_pairs) == 4
    assert triangle.has_edges(*s.positive_pairs.T).all()


def test_rw_skipgram_may_emit_nonedges(path5):
    # window > 2 pairs vertices two hops apart, which are non-edges on a path
    cfg = SamplerConfig(algorithm="rw_skipgram", walk_length=4, window=3)
    found = False
    rng = np.random.default_rng(4)
    for _ in range(50):
        s = draw(path5, cfg, rng)
        if not path5.has_edges(*s.positive_pairs.T).all():
            found = True
            break
    assert found


def test_rw_induced_path(path3):
    # force walk (0,1,2) by seed search
    cfg = SamplerConfig(algorithm="rw_induced", walk_length=2)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = draw(path3, cfg, rng)
        if set(s.vertices.tolist()) == {0, 1, 2}:
            assert pairs_set(s.positive_pairs) == {(0, 1), (1, 2)}
            assert len(s.negative_pairs) == 0
            return
    pytest.fail("walk covering the path never drawn")


def test_rw_induced_triangle_covering(triangle):
    cfg = SamplerConfig(algorithm="rw_induced", walk_length=2)
    for seed in range(100):
        s = draw(triangle, cfg, np.random.default_rng(seed))
        if len(s.vertices) == 3:
            assert len(s.positive_pairs) == 3
            return
    pytest.fail("covering walk never drawn")


def test_rw_induced_k2(k2):
    cfg = SamplerConfig(algorithm="rw_induced", walk_length=2)
    s = draw(k2, cfg, np.random.default_rng(0))
    assert set(s.vertices.tolist()) == {0, 1}
    assert pairs_set(s.positive_pairs) == {(0, 1)}


# -- p-sampling ---------------------------------------------------------------

def test_p_sample_extremes(path5):
    s = draw(path5, SamplerConfig(retention=1.0), np.random.default_rng(0))
    assert set(s.vertices.tolist()) == set(range(5))
    assert len(s.positive_pairs) == 4
    s = draw(path5, SamplerConfig(retention=0.0), np.random.default_rng(0))
    assert len(s.vertices) == 0 and len(s.positive_pairs) == 0


def test_p_sample_drops_isolated_survivors(path3):
    # retaining {0, 2} leaves no induced edge: both survivors are deleted
    for seed in range(200):
        rng = np.random.default_rng(seed)
        mask_preview = np.random.default_rng(seed).random(3) < 0.5
        if mask_preview.tolist() == [True, False, True]:
            s = draw(path3, SamplerConfig(retention=0.5), rng)
            assert len(s.vertices) == 0
            return
    pytest.fail("subset {0,2} never drawn")


def test_p_sample_event_probability(path3):
    # P(edge set == {(0,1)} exactly) = p^2 (1-p) = 0.125 at p = 0.5:
    # retain {0,1} and drop 2 (retaining all three gives two edges)
    n = 10 ** 5
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(n):
        s = draw(path3, SamplerConfig(retention=0.5), rng)
        hits += pairs_set(s.positive_pairs) == {(0, 1)}
    p = 0.125
    se = np.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 3 * se


def test_p_sample_negatives_flag(path3):
    for seed in range(100):
        s = draw(path3, SamplerConfig(retention=0.9), np.random.default_rng(seed))
        if len(s.vertices) == 3:
            assert pairs_set(s.negative_pairs) == {(0, 2)}
            return
    pytest.fail("full retention never drawn")


def test_p_sample_invalid_p(path3):
    with pytest.raises(SamplerError):
        draw(path3, SamplerConfig(retention=1.5), np.random.default_rng(0))


# -- uniform edge sampling ----------------------------------------------------

def test_uniform_edge_single(k2):
    s = draw(k2, SamplerConfig(algorithm="uniform_edge", edge_count=1),
             np.random.default_rng(0))
    assert pairs_set(s.positive_pairs) == {(0, 1)}


def test_uniform_edge_chisquare(triangle):
    n = 10 ** 5
    rng = np.random.default_rng(6)
    s = draw(triangle, SamplerConfig(algorithm="uniform_edge", edge_count=n), rng)
    codes = s.positive_pairs[:, 0] * 3 + s.positive_pairs[:, 1]
    _, counts = np.unique(codes, return_counts=True)
    assert len(counts) == 3
    assert chisquare(counts).pvalue > 0.01


def test_uniform_edge_with_replacement(triangle):
    s = draw(triangle, SamplerConfig(algorithm="uniform_edge", edge_count=10),
             np.random.default_rng(0))
    assert len(s.positive_pairs) == 10  # multiset, repeats allowed


# -- induced negatives --------------------------------------------------------

def test_negative_induced_cases(path3, triangle, cycle4):
    cfg = SamplerConfig(retention=1.0, negative="induced")
    out = draw(path3, cfg, np.random.default_rng(0))
    assert pairs_set(out.negative_pairs) == {(0, 2)}
    out = draw(triangle, cfg, np.random.default_rng(0))
    assert len(out.positive_pairs) == 3 and len(out.negative_pairs) == 0
    out = draw(cycle4, cfg, np.random.default_rng(0))
    assert len(out.positive_pairs) == 4
    assert pairs_set(out.negative_pairs) == {(0, 2), (1, 3)}


# -- unigram table ------------------------------------------------------------

def test_unigram_probabilities_path3(path3):
    t = build_unigram(path3, tau=0.75)
    z = 2 + 2 ** 0.75
    assert np.allclose(t.probabilities, [1 / z, 2 ** 0.75 / z, 1 / z])
    t = build_unigram(path3, tau=1.0)
    assert np.allclose(t.probabilities, [0.25, 0.5, 0.25])


def _alias_reference(probs):
    # Vose's method stepped on numpy float64 scalars
    n = len(probs)
    scaled = probs * n
    accept = np.ones(n)
    alias = np.arange(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        accept[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return accept, alias


def test_unigram_alias_table_matches_numpy_scalar_arithmetic():
    rng = np.random.default_rng(4)
    for _ in range(3):
        edges = rng.integers(300, size=(900, 2))
        g = from_edges(300, edges[edges[:, 0] != edges[:, 1]])
        t = build_unigram(g, tau=0.75)
        accept, alias = _alias_reference(t.probabilities)
        assert np.array_equal(t._accept, accept) and np.array_equal(t._alias, alias)
        assert t._accept.dtype == np.float64 and t._alias.dtype == np.int64


def test_unigram_skips_isolated():
    g = from_edges(3, np.array([[0, 1]]))
    t = build_unigram(g, tau=0.75)
    assert t.probabilities[2] == 0.0
    draws = t.sample(np.random.default_rng(0), 1000)
    assert not (draws == 2).any()


def test_unigram_sampling_matches_table(path3):
    t = build_unigram(path3, tau=0.75)
    draws = t.sample(np.random.default_rng(7), 10 ** 5)
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(freq - t.probabilities).max() < 0.006


def test_unigram_rejects_bad_input(path3):
    with pytest.raises(SamplerError):
        build_unigram(path3, tau=0.0)
    with pytest.raises(SamplerError):
        build_unigram(from_edges(2, np.zeros((0, 2))))


# -- unigram negatives --------------------------------------------------------

def test_negative_unigram_no_nonedges(k2):
    t = build_unigram(k2, tau=0.75)
    s = batch_of_one([0, 1], [[0, 1]], vertex_count=k2.vertex_count)
    out = negative_unigram(k2, s, t, 5, np.random.default_rng(0))
    assert len(out.negative_pairs) == 0
    assert np.array_equal(out.vertices, s.vertices)


def test_negative_unigram_appends_new_vertex(path3):
    t = build_unigram(path3, tau=0.75)
    s = batch_of_one([0], vertex_count=path3.vertex_count)
    rng = np.random.default_rng(0)
    for _ in range(50):
        out = negative_unigram(path3, s, t, 2, rng)
        if len(out.negative_pairs):
            assert pairs_set(out.negative_pairs) == {(0, 2)}
            assert out.vertices.tolist() == [0, 2]
            assert out.base_vertex_counts.tolist() == [1]
            assert out.vertices[:out.base_vertex_counts[0]].tolist() == [0]
            return
    pytest.fail("candidate 2 never drawn")


def test_negative_unigram_conditional_distribution(path5):
    # a batch of three draws on the 5-path, {0}, {4} and {0}, whose
    # non-neighbors are {2, 3, 4}, {0, 1, 2} and {2, 3, 4}: each kept
    # candidate lies in its own draw's copy and is distributed as the
    # unigram table conditioned on that draw's non-neighbors
    t = build_unigram(path5, tau=0.75)
    V = path5.vertex_count
    none = np.zeros((0, 2), dtype=np.int64)
    s = SubgraphBatch(np.array([0, V + 4, 2 * V]), none, none, np.ones(3, dtype=np.int64), V)
    rng = np.random.default_rng(8)
    endpoints = [[], [], []]
    for _ in range(20000):
        out = negative_unigram(path5, s, t, 1, rng)
        for u, c in out.negative_pairs.tolist():
            assert u // V == c // V
            endpoints[u // V].append(c % V)
    for ends, allowed in zip(endpoints, ([0, 0, 1, 1, 1], [1, 1, 1, 0, 0], [0, 0, 1, 1, 1])):
        freq = np.bincount(ends, minlength=5) / len(ends)
        cond = t.probabilities * allowed
        cond = cond / cond.sum()
        assert np.abs(freq - cond).max() < 0.02


def _negative_unigram_setdiff(graph, sample, table, k_neg, rng):
    """negative_unigram as it was defined by a set difference: the distinct
    kept candidates not among the batch's vertices, then a stable sort by
    draw on int64 keys."""
    verts, V = sample.vertices, sample.vertex_count
    vv = np.repeat(verts, k_neg)
    candidates = table.sample(rng, size=len(vv))
    cc = candidates + vv - vv % V
    keep = (vv != cc) & ~graph.has_edges(vv % V, candidates)
    new = np.setdiff1d(np.unique(cc[keep]), verts, assume_unique=True)
    verts = np.concatenate([verts, new])
    negs = np.concatenate([sample.negative_pairs, np.stack([vv[keep], cc[keep]], axis=1)])
    verts = verts[np.argsort(verts // V, kind="stable")]
    negs = negs[np.argsort(negs[:, 0] // V, kind="stable")]
    return verts, negs


@pytest.mark.parametrize("vertex_count", [60, 2 ** 16 + 40])
@pytest.mark.parametrize("size", [1, 2, 16])
def test_negative_unigram_matches_setdiff_definition(size, vertex_count):
    # a ring with chords, so that candidates hit neighbours, the draw's own
    # vertices and each other; the large graph has ids past 2^16
    V = vertex_count
    ring = np.column_stack([np.arange(V), (np.arange(V) + 1) % V])
    chords = np.column_stack([np.arange(0, V, 7), (np.arange(0, V, 7) + 3) % V])
    g = from_edges(V, np.concatenate([ring, chords]))
    table = build_unigram(g, 0.75)
    cfg = SamplerConfig(algorithm="rw_skipgram", walk_length=30, window=3)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        sample = draw(g, cfg, rng, size=size)
        ref_rng = copy.deepcopy(rng)
        out = negative_unigram(g, sample, table, 5, rng)
        verts, negs = _negative_unigram_setdiff(g, sample, table, 5, ref_rng)
        assert np.array_equal(out.vertices, verts) and out.vertices.dtype == verts.dtype
        assert np.array_equal(out.negative_pairs, negs)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- dispatcher ---------------------------------------------------------------

def test_draw_p1_induced_triangle(triangle):
    cfg = SamplerConfig(algorithm="p_sampling", retention=1.0, negative="induced")
    s = draw(triangle, cfg, np.random.default_rng(0))
    assert len(s.positive_pairs) == 3 and len(s.negative_pairs) == 0


def test_draw_invariants_rw_unigram(path3):
    cfg = SamplerConfig(algorithm="rw_induced", walk_length=2,
                        negative="unigram", unigram_power=0.75,
                        negatives_per_vertex=2)
    for seed in range(20):
        s = draw(path3, cfg, np.random.default_rng(seed))
        verts = set(s.vertices.tolist())
        assert len(verts) == len(s.vertices)
        for a, b in s.positive_pairs:
            assert int(a) in verts and int(b) in verts
        for a, b in s.negative_pairs:
            assert int(a) in verts and int(b) in verts
        assert path3.has_edges(*s.positive_pairs.T).all()
        assert not path3.has_edges(*s.negative_pairs.T).any()
        assert 0 < s.base_vertex_counts[0] <= len(s.vertices)


def test_draw_unigram_overrides_builtin_negatives(path3):
    # p-sampling's induced non-edges are replaced by the unigram draw
    cfg = SamplerConfig(algorithm="p_sampling", retention=1.0,
                        negative="unigram", negatives_per_vertex=0)
    s = draw(path3, cfg, np.random.default_rng(0))
    assert len(s.negative_pairs) == 0


def test_empty_unigram_draw_reports_its_negative_mode(path3, tmp_path):
    # a draw's source follows its config, not whether the draw came back empty
    import json
    from relerm.cli import main
    cfg = SamplerConfig(retention=0.0, negative="unigram")
    s = draw(path3, cfg, np.random.default_rng(0))
    assert len(s.vertices) == 0 and s.source == "p_sampling+unigram"
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    out = tmp_path / "out"
    assert main(["sample", "--set", "seed=1", "--set", f"graph.edges={edges}",
                 "--set", f"output.dir={out}", "--set", "sampler.retention=0",
                 "--set", "sampler.negative=unigram", "--set", "sample.count=3"]) == 0
    with open(out / "samples.jsonl") as f:
        records = [json.loads(line) for line in f][1:]
    assert [(r["source"], r["vertices"]) for r in records] == [("p_sampling+unigram", [])] * 3


def test_draw_rejects_invalid_config(path3):
    with pytest.raises(SamplerError):
        draw(path3, SamplerConfig(algorithm="nope"), np.random.default_rng(0))
    with pytest.raises(SamplerError):
        draw(path3, SamplerConfig(retention=2.0), np.random.default_rng(0))


def test_draw_deterministic_given_rng(path3):
    cfg = SamplerConfig(algorithm="rw_skipgram", walk_length=5, window=3)
    a = draw(path3, cfg, np.random.default_rng(42))
    b = draw(path3, cfg, np.random.default_rng(42))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.positive_pairs, b.positive_pairs)


# -- golden draws -------------------------------------------------------------

# a triangle with a pendant path, a second triangle, a tail and an isolated
# vertex: degrees 0..4 all occur
IRREGULAR = from_edges(9, np.array([[0, 1], [0, 2], [0, 3], [1, 2], [3, 4], [4, 5],
                                    [5, 6], [4, 6], [6, 7]]))

# digests of 5 seeds x 3 successive draws, recorded before the per-algorithm
# sampler functions were folded into `draw`; p_sampling/unigram re-recorded
# when an empty draw's source became "p_sampling+unigram" (4 of its 15 draws
# are empty; their vertices and pairs are unchanged)
GOLDEN_DRAWS = {
    "p_sampling/induced": "e49cbcd6e518a707",
    "p_sampling/none": "b2bbabdbb295672a",
    "p_sampling/unigram": "7bb4ea397d0e9aed",
    "rw_induced/induced/degree_proportional": "0a7fff4a87429ac3",
    "rw_induced/induced/uniform_vertex": "e1b1787f57be2ac0",
    "rw_induced/none/degree_proportional": "71ae9b6dc077dfd7",
    "rw_induced/none/uniform_vertex": "02cf4f941370821f",
    "rw_induced/unigram/degree_proportional": "ddd204ad9b1b6e83",
    "rw_induced/unigram/uniform_vertex": "6eac7eba60979a75",
    "rw_skipgram/induced/degree_proportional": "21051edcd035be59",
    "rw_skipgram/induced/uniform_vertex": "55561f50bd3c2f11",
    "rw_skipgram/none/degree_proportional": "4666d6aa8e003b2b",
    "rw_skipgram/none/uniform_vertex": "6b750be420eca9a2",
    "rw_skipgram/unigram/degree_proportional": "db605d05aae0bef7",
    "rw_skipgram/unigram/uniform_vertex": "53bfb9edfef21fe4",
    "uniform_edge/induced": "364c7b1a3e2d3523",
    "uniform_edge/none": "bf3f98ae09cae59c",
    "uniform_edge/unigram": "1f1dee656e5954c8",
}


def _grid_config(algorithm, negative, start):
    return SamplerConfig(algorithm=algorithm, walk_length=6, window=3, retention=0.5,
                         edge_count=4, negative=negative, negatives_per_vertex=2,
                         walk_start=start)


@pytest.mark.parametrize("start", WALK_STARTS)
@pytest.mark.parametrize("negative", NEGATIVE_MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_draw_golden(algorithm, negative, start, digest):
    # vertices, pairs (with dtypes and shapes), source and base vertex count;
    # the walk start does not reach p_sampling or uniform_edge
    cfg = _grid_config(algorithm, negative, start)
    items = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            s = draw(IRREGULAR, cfg, rng)
            items += [s.vertices, s.positive_pairs, s.negative_pairs, s.source,
                      int(s.base_vertex_counts[0])]
    name = f"{algorithm}/{negative}" + (f"/{start}" if algorithm.startswith("rw_") else "")
    assert digest(items) == GOLDEN_DRAWS[name]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_induced_negatives_call_induced_pairs_once(algorithm, monkeypatch):
    calls = []
    induced_pairs = samplers.induced_pairs

    def counted(graph, vertices, *copies):
        calls.append(len(vertices))
        return induced_pairs(graph, vertices, *copies)

    monkeypatch.setattr(samplers, "induced_pairs", counted)
    cfg = _grid_config(algorithm, "induced", "uniform_vertex")
    rng = np.random.default_rng(0)
    for _ in range(20):
        draw(IRREGULAR, cfg, rng)
    assert len(calls) == 20


def test_uniform_edge_on_a_graph_without_edges(tmp_path, capsys):
    # a typed error naming the sampler, not numpy's "high <= 0"
    import json
    from relerm.cli import main
    from relerm.graph import save_cache
    g = from_edges(4, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(SamplerError, match="uniform_edge"):
        draw(g, SamplerConfig(algorithm="uniform_edge", edge_count=3), np.random.default_rng(0))
    cache = str(tmp_path / "empty.bin")
    save_cache(g, cache)
    rc = main(["sample", "--set", "seed=1", "--set", f"graph.cache={cache}",
               "--set", f"output.dir={tmp_path / 'out'}",
               "--set", "sampler.algorithm=uniform_edge"])
    assert rc != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["kind"] == "SamplerError" and "uniform_edge" in record["message"]
