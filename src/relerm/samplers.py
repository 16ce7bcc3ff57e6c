"""Graph subsampling algorithms and negative-sampling add-ons.

`draw(graph, SamplerConfig(...), rng)` is the one way to sample: the config
names the algorithm, its parameters and the negative mode, and so defines
the empirical risk the trainer minimizes. A draw is an outcome key, drawn
by `draw_key` (a retention mask, a walk, or edge indices), that
`outcome_subgraph` maps to the SampledSubgraph of positive pairs (observed
edges, or skipgram-hallucinated pairs) and negative pairs (observed
non-edges); `draw` adds unigram negatives afterwards from further
randomness. The trainer's exact enumeration and bulk simulation use the
same key step and map. All samplers are pure functions of their inputs;
give each worker its own rng stream.
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


@dataclass
class SampledSubgraph:
    """One draw of a subsampling algorithm.

    `vertices` is ordered as produced by the sampler; the first
    `base_vertex_count` entries come from the base sampler, the rest were
    appended by unigram negative sampling (they carry no label loss).
    """

    vertices: np.ndarray        # int64
    positive_pairs: np.ndarray  # int64, shape (m, 2), multiset
    negative_pairs: np.ndarray  # int64, shape (m', 2)
    source: str = ""
    base_vertex_count: int = -1

    def __post_init__(self):
        if self.base_vertex_count < 0:
            self.base_vertex_count = len(self.vertices)

    @property
    def base_vertices(self) -> np.ndarray:
        return self.vertices[: self.base_vertex_count]


def _empty_pairs() -> np.ndarray:
    return np.zeros((0, 2), dtype=np.int64)


def _first_seen(seq: np.ndarray) -> np.ndarray:
    _, idx = np.unique(seq, return_index=True)
    return seq[np.sort(idx)]


def random_walk(graph: Graph, r: int, rng: np.random.Generator,
                start: str = "uniform_vertex", size: int | None = None) -> np.ndarray:
    """Simple random walk of r steps (r+1 vertices); each next vertex is
    drawn uniformly from the current vertex's neighbors. With `size`, an
    (size, r+1) array of independent walks stepped together."""
    if graph.edge_count == 0:
        raise NoWalkError("cannot walk on a graph with no edges")
    offsets, neighbors, deg = graph.offsets, graph.neighbors, graph.degrees
    if start == "uniform_vertex":
        # isolated vertices cannot start a walk; resampling until non-isolated
        # is uniform over the non-isolated vertices
        candidates = np.flatnonzero(deg > 0)
        cur = candidates[rng.integers(len(candidates), size=size)]
    elif start == "degree_proportional":
        # stationary start: pick a uniform edge endpoint
        e = rng.integers(graph.edge_count, size=size)
        cur = graph.edge_list[e, rng.integers(2, size=size)]
    else:
        raise SamplerError(f"unknown walk start {start!r}")
    # one row per step, so that each step writes and reads contiguous memory
    walk = np.empty((r + 1,) + np.shape(cur), dtype=np.int64)
    walk[0] = cur
    for i in range(1, r + 1):
        cur = walk[i - 1]
        walk[i] = neighbors[offsets[cur] + rng.integers(deg[cur])]
    return walk.T


def skipgram_pairs(walk: np.ndarray, window: int) -> np.ndarray:
    """All index pairs (i, j), i < j, within `window` steps, as a multiset
    of vertex pairs. Self-pairs from walk revisits are dropped."""
    n = len(walk)
    us, vs = [], []
    for d in range(1, window):
        if d >= n:
            break
        us.append(walk[:n - d])
        vs.append(walk[d:])
    if not us:
        return _empty_pairs()
    us = np.concatenate(us)
    vs = np.concatenate(vs)
    keep = us != vs
    return np.stack([us[keep], vs[keep]], axis=1).astype(np.int64)


def draw_key(graph: Graph, config: SamplerConfig, rng: np.random.Generator,
             size: int | None = None) -> np.ndarray:
    """The randomness of one draw as its outcome key: a boolean retention
    mask over the vertices (p_sampling), a walk of walk_length + 1 vertices
    (rw_*), or edge_count edge indices drawn with replacement
    (uniform_edge). With `size`, one key per row for that many draws."""
    shape = () if size is None else (size,)
    if config.algorithm == "p_sampling":
        return rng.random(shape + (graph.vertex_count,)) < config.retention
    if config.algorithm == "uniform_edge":
        return rng.integers(graph.edge_count, size=shape + (config.edge_count,))
    return random_walk(graph, config.walk_length, rng, config.walk_start, size)


def outcome_subgraph(graph: Graph, config: SamplerConfig,
                     key: np.ndarray) -> SampledSubgraph:
    """The subgraph the configured sampler reports for one outcome key.

    p_sampling: the edges induced by the retained vertices, isolated
    survivors deleted, induced non-edges among the survivors as negatives.
    rw_skipgram: the walk's skipgram-window pairs (pairs at walk distance
    >= 2 may be non-edges; they are still positives). rw_induced: the edges
    induced by the walk's vertices. uniform_edge: the drawn edges (with
    replacement) and their endpoints. `induced` negatives then replace the
    pairs with every induced edge and non-edge on the vertices, from one
    `induced_pairs` call. Under `unigram` negatives the subgraph carries
    none: `draw` samples them afterwards.
    """
    algorithm, negative = config.algorithm, config.negative
    pos = negatives = _empty_pairs()
    if algorithm == "p_sampling":
        pos = induced_edges(graph, key)
        verts = np.unique(pos)
    elif algorithm == "uniform_edge":
        pos = graph.edge_list[key].astype(np.int64)
        verts = _first_seen(pos.reshape(-1))
    else:
        verts = _first_seen(key)
        if algorithm == "rw_skipgram" and negative != "induced":
            pos = skipgram_pairs(key, config.window)
    if negative == "induced":
        pos, negatives = induced_pairs(graph, verts)
    elif algorithm == "rw_induced":
        pos, _ = induced_pairs(graph, verts)
    elif algorithm == "p_sampling" and negative == "none" and len(verts):
        _, negatives = induced_pairs(graph, verts)
    source = algorithm + "+induced" if negative == "induced" else algorithm
    return SampledSubgraph(verts, pos, negatives, source=source)


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


def negative_unigram(graph: Graph, sample: SampledSubgraph, table: UnigramTable,
                     k_neg: int, rng: np.random.Generator) -> SampledSubgraph:
    """For each sample vertex, draw k_neg unigram candidates; keep (v, c)
    as a negative iff it is a non-edge of the full graph and c != v.
    New candidate vertices are appended to the vertex list."""
    verts = sample.vertices
    if len(verts) == 0 or k_neg == 0:
        return sample
    candidates = table.sample(rng, size=len(verts) * k_neg)
    vv = np.repeat(verts, k_neg)
    keep = (vv != candidates) & ~graph.has_edges(vv, candidates)
    neg = np.stack([vv[keep], candidates[keep]], axis=1)
    new = np.setdiff1d(candidates[keep], verts)
    return SampledSubgraph(
        vertices=np.concatenate([verts, new]),
        positive_pairs=sample.positive_pairs,
        negative_pairs=np.concatenate([sample.negative_pairs, neg]),
        source=sample.source + "+unigram",
        base_vertex_count=sample.base_vertex_count,
    )


def draw(graph: Graph, config: SamplerConfig, rng: np.random.Generator,
         unigram_table: UnigramTable | None = None) -> SampledSubgraph:
    """Draw an outcome key, map it to its subgraph, then apply unigram
    negative sampling when configured. Deterministic given the rng state."""
    errs = config.validate()
    if errs:
        raise SamplerError("; ".join(errs))
    sample = outcome_subgraph(graph, config, draw_key(graph, config, rng))
    if config.negative == "unigram":
        if unigram_table is None:
            unigram_table = build_unigram(graph, config.unigram_power)
        sample = negative_unigram(graph, sample, unigram_table,
                                  config.negatives_per_vertex, rng)
    return sample
