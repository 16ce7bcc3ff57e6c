"""Graph subsampling algorithms and negative-sampling add-ons.

`draw(graph, SamplerConfig(...), rng, size=n)` is the one way to sample:
the config names the algorithm, its parameters and the negative mode, and
so defines the empirical risk the trainer minimizes. A draw is an outcome
key, drawn by `draw_key` (a retention mask, a walk, or edge indices), that
`outcome_batch` maps, many keys at once, to the subgraphs of positive pairs
(observed edges, or skipgram-hallucinated pairs) and negative pairs
(observed non-edges); `draw` adds unigram negatives afterwards from further
randomness. Subgraphs are always a `SubgraphBatch`: n draws are a batch of
n, and vertex v of draw i is id i * V + v (a disjoint copy of the graph
per draw) through the losses and gradients too. The trainer's estimators,
exact enumeration and bulk simulation use the same key step and map. All
samplers are pure functions of their inputs; give each worker its own rng
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, induced_edges, induced_pairs


class SamplerError(Exception):
    pass


class NoWalkError(SamplerError):
    """Raised when a random walk is requested on a graph with no edges."""


ALGORITHMS = ("rw_skipgram", "rw_induced", "p_sampling", "uniform_edge")
NEGATIVE_MODES = ("none", "induced", "unigram")
WALK_STARTS = ("uniform_vertex", "degree_proportional")
_WORD = 2 ** 32  # the range of one word of numpy's bounded integer draws


@dataclass(frozen=True)
class SamplerConfig:
    algorithm: str = "p_sampling"
    walk_length: int = 80        # r
    window: int = 10             # W
    retention: float = 0.1       # p
    edge_count: int = 100        # k for uniform edge sampling
    negative: str = "none"
    unigram_power: float = 0.75  # tau
    negatives_per_vertex: int = 5
    walk_start: str = "uniform_vertex"

    def validate(self) -> list[str]:
        errs = []
        if self.algorithm not in ALGORITHMS:
            errs.append(f"unknown algorithm {self.algorithm!r}")
        if self.negative not in NEGATIVE_MODES:
            errs.append(f"unknown negative mode {self.negative!r}")
        if self.walk_start not in WALK_STARTS:
            errs.append(f"unknown walk_start {self.walk_start!r}")
        if not 0.0 <= self.retention <= 1.0:
            errs.append("retention must be in [0, 1]")
        if self.unigram_power <= 0:
            errs.append("unigram_power must be > 0")
        if self.walk_length < 1:
            errs.append("walk_length must be >= 1")
        if self.window < 1:
            errs.append("window must be >= 1")
        if self.edge_count < 1:
            errs.append("edge_count must be >= 1")
        if self.negatives_per_vertex < 0:
            errs.append("negatives_per_vertex must be >= 0")
        return errs


def _empty_pairs() -> np.ndarray:
    return np.zeros((0, 2), dtype=np.int64)


def _first_seen(seq: np.ndarray) -> np.ndarray:
    _, idx = np.unique(seq, return_index=True)
    return seq[np.sort(idx)]


def _bounded_index(word: int, n: int) -> int | None:
    """The index in [0, n) that numpy's bounded integer draw, rng.integers(n)
    for 1 < n <= 2^32, makes of one 32-bit word, or None when it rejects
    the word and takes the next (Lemire's multiply-shift, arXiv:1805.10941)."""
    m = word * n
    return None if m & 0xFFFFFFFF < (_WORD - n) % n else m >> 32


def random_walk(graph: Graph, r: int, rng: np.random.Generator,
                start: str = "uniform_vertex", size: int | None = None) -> np.ndarray:
    """Simple random walk of r steps (r+1 vertices); each next vertex is
    drawn uniformly from the current vertex's neighbors. With `size`, an
    (size, r+1) array of independent walks stepped together.

    Each step draws what rng.integers(degree) draws. One walk steps in
    Python ints from words drawn in bulk: rng.integers(n) maps one 32-bit
    word (more when it rejects one) to its index by `_bounded_index`, and
    a degree-1 step takes no word, so the walk draws r words at once, takes
    more if it runs out, and finally rewinds the generator and redraws
    exactly the words it used. The batch step keeps rng.integers with an
    array of degrees: the same rule on arrays was slower than numpy's own
    loop there."""
    if graph.edge_count == 0:
        raise NoWalkError("cannot walk on a graph with no edges")
    if size == 1:  # the same numbers; a scalar walk costs a fraction of a batch of one
        return random_walk(graph, r, rng, start)[None]
    if start == "uniform_vertex":
        # isolated vertices cannot start a walk; resampling until non-isolated
        # is uniform over the non-isolated vertices
        cur = graph.walk_starts[rng.integers(len(graph.walk_starts), size=size)]
    elif start == "degree_proportional":
        # stationary start: pick a uniform edge endpoint
        e = rng.integers(graph.edge_count, size=size)
        cur = graph.edge_list[e, rng.integers(2, size=size)]
    else:
        raise SamplerError(f"unknown walk start {start!r}")
    offsets, neighbors = graph.offsets, graph.neighbors
    if size is None:
        offset, neighbor, cur = offsets.item, neighbors.item, int(cur)
        saved = rng.bit_generator.state
        words = rng.integers(0, _WORD, size=r, dtype=np.uint32).tolist()
        used = 0
        walk = [cur]
        for _ in range(r):
            lo = offset(cur)
            n = offset(cur + 1) - lo
            j = None if n > 1 else 0
            while j is None:
                if used == len(words):
                    words += rng.integers(0, _WORD, size=r, dtype=np.uint32).tolist()
                j = _bounded_index(words[used], n)
                used += 1
            cur = neighbor(lo + j)
            walk.append(cur)
        if used < len(words):
            rng.bit_generator.state = saved
            rng.integers(0, _WORD, size=used, dtype=np.uint32)
        return np.array(walk, dtype=np.int64)
    # one row per step, so that each step writes and reads contiguous memory
    deg = graph.degrees
    walk = np.empty((r + 1, size), dtype=np.int64)
    walk[0] = cur
    for i in range(1, r + 1):
        cur = walk[i - 1]
        walk[i] = neighbors[offsets[cur] + rng.integers(deg[cur])]
    return walk.T


def skipgram_pairs(walk: np.ndarray, window: int) -> np.ndarray:
    """All index pairs (i, j), i < j, within `window` steps, as a multiset
    of vertex pairs, by step distance and then position. Self-pairs from
    walk revisits are dropped. An (n, w) array of walks gives the pairs of
    each row in turn."""
    steps = np.atleast_2d(walk).T  # one row per step, one column per walk
    w = len(steps)
    d = range(1, min(window, w))
    us = np.concatenate([steps[:w - i] for i in d] or [steps[:0]]).T.reshape(-1)
    vs = np.concatenate([steps[i:] for i in d] or [steps[:0]]).T.reshape(-1)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    return np.concatenate((us[:, None], vs[:, None]), axis=1).astype(np.int64, copy=False)


def draw_key(graph: Graph, config: SamplerConfig, rng: np.random.Generator,
             size: int | None = None) -> np.ndarray:
    """The randomness of one draw as its outcome key: a boolean retention
    mask over the vertices (p_sampling), a walk of walk_length + 1 vertices
    (rw_*), or edge_count edge indices drawn with replacement
    (uniform_edge). With `size`, one key per row for that many draws."""
    errs = config.validate()
    if errs:
        raise SamplerError("; ".join(errs))
    shape = () if size is None else (size,)
    if config.algorithm == "p_sampling":
        return rng.random(shape + (graph.vertex_count,)) < config.retention
    if config.algorithm == "uniform_edge":
        if graph.edge_count == 0:
            raise SamplerError("uniform_edge sampler: the graph has no edges to draw")
        return rng.integers(graph.edge_count, size=shape + (config.edge_count,))
    return random_walk(graph, config.walk_length, rng, config.walk_start, size)


@dataclass
class SubgraphBatch:
    """The subgraphs of n draws in one set of arrays: their vertices,
    positive pairs and negative pairs, each concatenated in draw order, on
    disjoint copies of the graph: id i * V + v (V = vertex_count) is vertex
    v of draw i, so an entry's draw is its id // V, and one draw has the
    graph's own ids.

    Each draw's vertices are ordered as its sampler produced them: the
    first base_vertex_counts[i] come from the base sampler, the rest were
    appended by unigram negative sampling (they carry no label loss).
    `batch[i]` is draw i as a batch of one."""

    vertices: np.ndarray            # int64
    positive_pairs: np.ndarray      # int64, shape (m, 2), a multiset
    negative_pairs: np.ndarray      # int64, shape (m', 2)
    base_vertex_counts: np.ndarray  # int64, per draw
    vertex_count: int               # V, of the graph the draws come from
    source: str = ""

    def __len__(self) -> int:
        return len(self.base_vertex_counts)

    def __getitem__(self, i: int) -> "SubgraphBatch":
        if not -len(self) <= i < len(self):
            raise IndexError(f"draw {i} of a batch of {len(self)}")
        i %= len(self)
        lo, hi = i * self.vertex_count, (i + 1) * self.vertex_count
        # each array is in draw order, so its first column finds the block
        parts = [x[slice(*np.searchsorted(x if x.ndim == 1 else x[:, 0], (lo, hi)))] - lo
                 for x in (self.vertices, self.positive_pairs, self.negative_pairs)]
        return SubgraphBatch(*parts, self.base_vertex_counts[i:i + 1], self.vertex_count,
                             self.source)


def _outcome_ids(graph: Graph, config: SamplerConfig,
                 keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices, positive pairs and negative pairs of the outcomes of
    key rows, kept apart on disjoint copies of the graph: id i * V + v is
    vertex v of row i."""
    algorithm, negative, n = config.algorithm, config.negative, len(keys)
    pos = neg = _empty_pairs()
    if algorithm == "p_sampling":
        pos = induced_edges(graph, keys)
        verts = np.unique(pos)
    else:
        # each row's vertices in visiting order (a walk, or the drawn edges'
        # endpoints), moved to the row's copy
        visits = graph.edge_list[keys].reshape(n, -1) if algorithm == "uniform_edge" else keys
        visits = visits + graph.vertex_count * np.arange(n)[:, None]
        verts = _first_seen(visits.reshape(-1))
        if algorithm == "uniform_edge":
            pos = visits.reshape(-1, 2)
        elif algorithm == "rw_skipgram" and negative != "induced":
            pos = skipgram_pairs(visits, config.window)
    # p_sampling's pairs so far are exactly the edges among its vertices
    edges = pos if algorithm == "p_sampling" else None
    if negative == "induced":
        pos, neg = induced_pairs(graph, verts, n, edges)
    elif algorithm == "rw_induced":
        pos, _ = induced_pairs(graph, verts, n)
    elif algorithm == "p_sampling" and negative == "none" and len(verts):
        _, neg = induced_pairs(graph, verts, n, edges)
    return verts, pos, neg


def _source(config: SamplerConfig) -> str:
    return config.algorithm + ("" if config.negative == "none" else "+" + config.negative)


def outcome_batch(graph: Graph, config: SamplerConfig, keys: np.ndarray) -> SubgraphBatch:
    """The subgraphs the configured sampler reports for outcome keys, one
    key per row (as `draw_key(..., size=n)` draws them).

    p_sampling: the edges induced by the retained vertices, isolated
    survivors deleted, induced non-edges among the survivors as negatives.
    rw_skipgram: the walk's skipgram-window pairs (pairs at walk distance
    >= 2 may be non-edges; they are still positives). rw_induced: the edges
    induced by the walk's vertices. uniform_edge: the drawn edges (with
    replacement) and their endpoints. `induced` negatives then replace the
    pairs with every induced edge and non-edge on the vertices. Under
    `unigram` negatives the subgraphs carry none: `draw` samples them
    afterwards. Each rule runs once over all the keys, and one
    `induced_pairs` call serves every key.
    """
    verts, pos, neg = _outcome_ids(graph, config, keys)
    return SubgraphBatch(verts, pos, neg,
                         np.bincount(verts // graph.vertex_count, minlength=len(keys)),
                         graph.vertex_count, _source(config))


@dataclass(frozen=True)
class UnigramTable:
    """Power-adjusted unigram distribution with a Vose alias table for
    O(1) draws. The base measure is normalized degree (the stationary
    occupancy of the simple random walk)."""

    probabilities: np.ndarray
    _accept: np.ndarray = field(repr=False)
    _alias: np.ndarray = field(repr=False)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = len(self.probabilities)
        idx = rng.integers(n, size=size)
        take_alias = rng.random(size) >= self._accept[idx]
        return np.where(take_alias, self._alias[idx], idx)


def build_unigram(graph: Graph, tau: float = 0.75) -> UnigramTable:
    """probabilities(v) = degree(v)^tau / sum_u degree(u)^tau."""
    if tau <= 0:
        raise SamplerError("tau must be > 0")
    if graph.vertex_count == 0:
        raise SamplerError("empty graph")
    deg = graph.degrees.astype(np.float64)
    if deg.sum() == 0:
        raise SamplerError("all degrees zero")
    weights = np.where(deg > 0, deg ** tau, 0.0)
    probs = weights / weights.sum()
    accept, alias = _vose_alias(probs)
    return UnigramTable(probabilities=probs, _accept=accept, _alias=alias)


def _vose_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Python lists and floats: the same IEEE arithmetic as numpy scalars,
    # at a fraction of the per-element cost
    n = len(probs)
    scaled = (probs * n).tolist()
    accept = [1.0] * n
    alias = list(range(n))
    small = [i for i, x in enumerate(scaled) if x < 1.0]
    large = [i for i, x in enumerate(scaled) if x >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    for q in (small, large):
        for i in q:
            accept[i] = 1.0
            alias[i] = i
    return np.array(accept, dtype=np.float64), np.array(alias, dtype=np.int64)


def negative_unigram(graph: Graph, sample: SubgraphBatch, table: UnigramTable,
                     k_neg: int, rng: np.random.Generator) -> SubgraphBatch:
    """For each vertex of each draw of a batch, draw k_neg unigram
    candidates into that draw's copy of the graph; keep (v, c) as a
    negative iff it is a non-edge of the full graph and c != v. A draw's
    new negatives follow its own, and its new candidate vertices are
    appended after its own vertices. The table must be of this graph."""
    if len(table.probabilities) != graph.vertex_count:
        raise SamplerError(f"unigram table of {len(table.probabilities)} vertices for a "
                           f"graph of {graph.vertex_count}")
    verts, V = sample.vertices, sample.vertex_count
    if len(verts) == 0 or k_neg == 0:
        return sample
    vv = np.repeat(verts, k_neg)
    candidates = table.sample(rng, size=len(vv))
    cc = candidates + vv - vv % V
    keep = (vv != cc) & ~graph.has_edges(vv % V, candidates)
    # the batch's vertices are distinct and come first, so the candidates
    # first seen after them are the new vertices, ascending
    seen, first = np.unique(np.concatenate([verts, cc[keep]]), return_index=True)
    verts = np.concatenate([verts, seen[first >= len(verts)]])
    negs = np.concatenate([sample.negative_pairs, np.stack([vv[keep], cc[keep]], axis=1)])
    # each draw's new vertices and negatives after its own (a stable sort by draw)
    verts = verts[np.argsort(verts // V, kind="stable")]
    negs = negs[np.argsort(negs[:, 0] // V, kind="stable")]
    return SubgraphBatch(verts, sample.positive_pairs, negs, sample.base_vertex_counts,
                         V, sample.source)


def draw(graph: Graph, config: SamplerConfig, rng: np.random.Generator,
         unigram_table: UnigramTable | None = None, size: int = 1) -> SubgraphBatch:
    """Draw `size` outcome keys, map them to their subgraphs, then apply
    unigram negative sampling when configured: `size` independent draws
    as one batch (by default one draw, a batch of one). Deterministic
    given the rng state."""
    sample = outcome_batch(graph, config, draw_key(graph, config, rng, size))
    if config.negative == "unigram":
        if unigram_table is None:
            unigram_table = build_unigram(graph, config.unigram_power)
        sample = negative_unigram(graph, sample, unigram_table,
                                  config.negatives_per_vertex, rng)
    return sample
