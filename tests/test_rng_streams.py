"""The stream contract of the bulk-word walk: `samplers._bounded_index` on
words from one bulk `rng.integers(0, 2**32, dtype=np.uint32)` draw gives
the values of scalar `rng.integers(n)` calls and leaves the generator in
the same state. numpy does not promise this bounded-integer path across
versions; a failure here names the numpy version that changed it."""

import numpy as np
import pytest

from relerm import random_walk
from relerm import samplers
from relerm.graph import from_edges

WHY = f"numpy {np.__version__}: rng.integers(n) no longer matches the bulk-word rule"
BOUNDS = (1, 2, 3, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 32)


def _fresh(seed, half_word):
    rng = np.random.default_rng(seed)
    if half_word:
        # one 32-bit draw leaves the other half of a 64-bit word buffered
        rng.integers(0, 2 ** 32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _by_words(rng, n, count):
    """`count` indices below n from words drawn in bulk, then the generator
    rewound and advanced by the words used, as `random_walk` does."""
    saved = rng.bit_generator.state
    words = rng.integers(0, 2 ** 32, size=4 * count, dtype=np.uint32).tolist()
    used, out = 0, []
    for _ in range(count):
        j = None if n > 1 else 0
        while j is None:
            j = samplers._bounded_index(words[used], n)
            used += 1
        out.append(j)
    rng.bit_generator.state = saved
    rng.integers(0, 2 ** 32, size=used, dtype=np.uint32)
    return out, used


@pytest.mark.parametrize("half_word", [False, True])
@pytest.mark.parametrize("n", BOUNDS)
def test_word_rule_matches_scalar_integers(n, half_word):
    for seed in range(5):
        ref, got = _fresh(seed, half_word), _fresh(seed, half_word)
        want = [int(ref.integers(n)) for _ in range(200)]
        values, used = _by_words(got, n, 200)
        assert values == want, WHY
        assert got.bit_generator.state == ref.bit_generator.state, WHY
        if n == 1:
            assert used == 0, WHY


def test_word_rule_rejects_about_half_above_two_to_the_31():
    # (2^32 - n) mod n = 2^31 - 1 for n = 2^31 + 1: almost half the words
    # are rejected, so the rule's retries are exercised against numpy's
    n = 2 ** 31 + 1
    words = np.random.default_rng(0).integers(0, 2 ** 32, size=4000, dtype=np.uint32).tolist()
    rejected = sum(samplers._bounded_index(w, n) is None for w in words)
    assert 0.4 < rejected / len(words) < 0.6


def _reference_walk(graph, r, rng, start):
    """The walk as one rng.integers(degree) call per step."""
    if start == "uniform_vertex":
        starts = np.flatnonzero(graph.degrees > 0)
        walk = [int(starts[rng.integers(len(starts))])]
    else:
        e = rng.integers(graph.edge_count)
        walk = [int(graph.edge_list[e, rng.integers(2)])]
    for _ in range(r):
        cur = walk[-1]
        lo = graph.offsets[cur]
        walk.append(int(graph.neighbors[lo + rng.integers(graph.degrees[cur])]))
    return walk


# star4 with a pendant on leaf 1 and an isolated vertex 5; a path; a
# triangle with an isolated edge 3-4, where a walk may take no word at all
GRAPHS = {
    "star_pendant": from_edges(6, np.array([[0, 1], [0, 2], [0, 3], [1, 4]])),
    "path4": from_edges(4, np.array([[0, 1], [1, 2], [2, 3]])),
    "triangle_and_edge": from_edges(5, np.array([[0, 1], [0, 2], [1, 2], [3, 4]])),
}


@pytest.mark.parametrize("half_word", [False, True])
@pytest.mark.parametrize("start", ["uniform_vertex", "degree_proportional"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_walk_matches_scalar_integers(name, start, half_word):
    g = GRAPHS[name]
    for seed in range(30):
        ref, got = _fresh(seed, half_word), _fresh(seed, half_word)
        for r in (1, 2, 7):
            assert random_walk(g, r, got, start).tolist() == _reference_walk(g, r, ref, start), WHY
            assert got.bit_generator.state == ref.bit_generator.state, WHY


def test_walk_draws_more_words_when_it_runs_out(monkeypatch):
    # a rule that rejects every other word: a 6-step walk on a 4-cycle uses
    # 12 words, past its first 6, and must still leave the generator
    # advanced by exactly the words it used
    g = from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
    calls = [0]

    def reject_every_other(word, n):
        calls[0] += 1
        return None if calls[0] % 2 else word * n >> 32

    monkeypatch.setattr(samplers, "_bounded_index", reject_every_other)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    walk = random_walk(g, 6, rng)
    ref.integers(4)  # the start
    ref.integers(0, 2 ** 32, size=12, dtype=np.uint32)
    assert calls[0] == 12
    assert len(walk) == 7 and g.has_edges(walk[:-1], walk[1:]).all()
    assert rng.bit_generator.state == ref.bit_generator.state
