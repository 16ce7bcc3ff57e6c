"""Graphon/graphex random graph generator and desk-scale convergence
experiments.

A graph of size n is generated from a Poisson process of candidate
vertices with latent features; pairs connect independently with
probability W(x_i, x_j), and isolated candidates are dropped. W is a
product graphon f(x) f(y), which lets the edges be drawn exactly in time
linear in the candidates and edges rather than in the candidate pairs
(`_product_edges`). Nested sizes can be coupled through one latent draw,
which is what makes the embedding-stability experiment well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .graph import Graph, LabelTable, induced_subgraph
from .losses import LossConfig, ParamStore
from .samplers import SamplerConfig
from .trainer import TrainConfig, estimate_risk, train


class GraphexError(Exception):
    pass


@dataclass(frozen=True)
class GraphonSpec:
    """Product graphon W(x, y) = factor(x) * factor(y) on R+^2, with the
    factor in [0, 1], truncated at x_max; edge_rate = (1/2) * integral
    of W."""

    factor: Callable[[np.ndarray], np.ndarray]
    x_max: float
    edge_rate: float
    name: str = "graphon"

    @staticmethod
    def exp_decay(tail: float = 1e-8) -> "GraphonSpec":
        """W(x, y) = exp(-x - y), factor exp(-x): closed-form marginal
        exp(-x) and edge_rate 1/2. Truncated where exp(-x_max) = tail."""
        return GraphonSpec(factor=lambda x: np.exp(-x),
                           x_max=float(-np.log(tail)),
                           edge_rate=0.5, name="exp_decay")

    @staticmethod
    def constant(c: float) -> "GraphonSpec":
        """Dense sanity-check graphon: W = c on [0, 1]^2, factor sqrt(c)."""
        if not 0.0 <= c <= 1.0:
            raise GraphexError("constant graphon level must be in [0, 1]")
        return GraphonSpec(factor=lambda x: np.full(np.shape(x), np.sqrt(c)),
                           x_max=1.0, edge_rate=c / 2.0, name=f"constant({c})")


@dataclass
class LatentGraph:
    """A sampled graph together with the retained Poisson points' latent
    features, labels, and stable point ids (stable across coupled sizes)."""

    graph: Graph
    latents: np.ndarray    # x per surviving vertex
    labels: np.ndarray     # nu per surviving vertex (point-process label)
    point_ids: np.ndarray  # index into the originating candidate draw
    size: float


@dataclass(frozen=True)
class MarkingKernel:
    """Per-vertex embedding distribution m(x): a deterministic map of the
    latent feature plus isotropic Gaussian noise."""

    fn: Callable[[float], np.ndarray]
    dim: int
    noise_scale: float = 0.0


MAX_EXPECTED_CANDIDATES = 2 * 10 ** 6
# caps edge_rate * n^2, the expected edge count of one draw: at this cap
# (exp_decay, n = 4,472) a draw peaked at 1.4 GiB RSS, about 140 bytes
# per edge, and took 5 s on a 2-vCPU VM
MAX_EXPECTED_EDGES = 10 ** 7


@dataclass
class _CandidateDraw:
    labels: np.ndarray
    latents: np.ndarray
    edges: np.ndarray  # (m, 2) candidate-index pairs


def _product_edges(f: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Candidate pairs joined independently, pair {i, j} with probability
    f[i] * f[j] (each f in [0, 1]), as (k, 2) rows of candidate indices.

    Exact thinning (Miller & Hagberg 2011): sorted by f, largest first, the
    candidates are cut into levels, each holding the values within a factor
    2 of its first. For a pair of levels, every slot (a position in one
    level, a position in the other) is proposed with the bound p = product
    of the levels' first values: a Binomial(slots, p) count of distinct
    slots drawn uniformly, which makes the slots i.i.d. Bernoulli(p). A
    proposed slot is kept with probability f_i f_j / p, which exceeds 1/4,
    so the work follows the edge count, not the m^2 candidate pairs.
    Within one level the slots are ordered pairs and only i < j is used, so
    each unordered pair has exactly one slot.
    """
    order = np.argsort(-f, kind="stable")[:np.count_nonzero(f > 0)]
    fs = f[order]
    starts = [0]
    while starts[-1] < len(fs):
        # first position whose value is at most half the level's first
        starts.append(int(np.searchsorted(-fs, -fs[starts[-1]] / 2)))
    levels = list(zip(starts[:-1], starts[1:]))
    src, dst = [], []
    for a, (a0, a1) in enumerate(levels):
        for b0, b1 in levels[a:]:
            width, p = b1 - b0, fs[a0] * fs[b0]
            slots = (a1 - a0) * width
            k = rng.binomial(slots, p)
            if not k:
                continue
            picked = rng.choice(slots, k, replace=False, shuffle=False)
            i, j = a0 + picked // width, b0 + picked % width
            if a0 == b0:
                upper = i < j
                i, j = i[upper], j[upper]
            keep = rng.random(len(i)) < fs[i] * fs[j] / p
            src.append(i[keep])
            dst.append(j[keep])
    if not src:
        return np.zeros((0, 2), dtype=np.int64)
    return order[np.stack([np.concatenate(src), np.concatenate(dst)], axis=1)]


def _draw_candidates(spec: GraphonSpec, n: float, rng: np.random.Generator) -> _CandidateDraw:
    expected = n * spec.x_max
    if expected > MAX_EXPECTED_CANDIDATES:
        raise GraphexError(
            f"expected candidate count {expected:.0f} exceeds memory budget")
    if spec.edge_rate * n ** 2 > MAX_EXPECTED_EDGES:
        raise GraphexError(
            f"expected edge count {spec.edge_rate * n ** 2:.0f} exceeds memory budget "
            f"{MAX_EXPECTED_EDGES}")
    m = rng.poisson(expected)
    labels = rng.uniform(0.0, n, m)
    latents = rng.uniform(0.0, spec.x_max, m)
    f = np.asarray(spec.factor(latents), dtype=np.float64)
    if not ((f >= 0) & (f <= 1)).all():
        raise GraphexError(f"graphon {spec.name}: factor outside [0, 1]")
    return _CandidateDraw(labels, latents, _product_edges(f, rng))


def _restrict(draw: _CandidateDraw, n: float) -> LatentGraph:
    """Graph induced by candidates with label <= n, isolated ones dropped."""
    graph, survivors = induced_subgraph(draw.edges, draw.labels <= n)
    return LatentGraph(graph=graph,
                       latents=draw.latents[survivors],
                       labels=draw.labels[survivors],
                       point_ids=survivors,
                       size=n)


def sample_graphex(spec: GraphonSpec, n: float, rng: np.random.Generator) -> LatentGraph:
    """One draw of the graphex generative model at size n."""
    if n <= 0:
        raise GraphexError("size must be > 0")
    return _restrict(_draw_candidates(spec, n, rng), n)


def sample_graphex_coupled(spec: GraphonSpec, sizes: list[float],
                           rng: np.random.Generator) -> list[LatentGraph]:
    """Nested draws at several sizes from one latent process: the graph at
    size n is exactly the label<=n restriction of the largest draw."""
    n_max = max(sizes)
    draw = _draw_candidates(spec, n_max, rng)
    return [_restrict(draw, n) for n in sizes]


def mark_embeddings(lg: LatentGraph, kernel: MarkingKernel,
                    rng: np.random.Generator) -> ParamStore:
    """Draw each vertex's embedding independently from m(x_v)."""
    params = ParamStore(kernel.dim, 0, seed=0)
    marks = np.empty((lg.graph.vertex_count, kernel.dim))
    for v in range(lg.graph.vertex_count):
        mean = np.asarray(kernel.fn(float(lg.latents[v])), dtype=np.float64)
        if mean.shape != (kernel.dim,):
            raise GraphexError("marking kernel returned wrong dimension")
        marks[v] = mean + kernel.noise_scale * rng.standard_normal(kernel.dim) \
            if kernel.noise_scale > 0 else mean
    if not np.isfinite(marks).all():
        raise GraphexError("marking kernel produced non-finite embedding")
    params.embeddings.put(np.arange(len(marks)), marks)
    return params


def risk_convergence_experiment(spec: GraphonSpec, kernel: MarkingKernel,
                                sizes: list[float], sampler: SamplerConfig,
                                loss: LossConfig, replicates: int,
                                rng: np.random.Generator,
                                n_risk_samples: int = 100) -> list[dict]:
    """Mean/cross-replicate std of the empirical risk at marked parameters
    for each size; shrinking dispersion is the testable content of the
    risk-convergence limit."""
    records = []
    for n in sizes:
        means = []
        for rep in range(replicates):
            lg = sample_graphex(spec, n, rng)
            if lg.graph.edge_count == 0:
                means.append(0.0)
                continue
            params = mark_embeddings(lg, kernel, rng)
            est = estimate_risk(lg.graph, None, params, sampler, loss,
                                n_risk_samples, rng, method="loop")
            means.append(est.mean)
            records.append({"experiment": "risk_convergence", "n": n,
                            "replicate": rep, "statistic": "risk_mean",
                            "value": est.mean})
        arr = np.array(means)
        records.append({"experiment": "risk_convergence", "n": n,
                        "replicate": -1, "statistic": "risk_mean_over_reps",
                        "value": float(arr.mean())})
        records.append({"experiment": "risk_convergence", "n": n,
                        "replicate": -1, "statistic": "risk_std_over_reps",
                        "value": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0})
    return records


def _train_on(lg: LatentGraph, config: TrainConfig) -> ParamStore:
    params = ParamStore(config.embedding_dim, 0, seed=config.seed,
                        init_ids=lg.point_ids)
    params, _ = train(lg.graph, None, None, config, params=params)
    return params


def stability_experiment(spec: GraphonSpec, sizes: list[float], delta: float,
                         config: TrainConfig, replicates: int,
                         rng: np.random.Generator) -> list[dict]:
    """Train embeddings on coupled samples at sizes n and n+delta and
    report the mean per-vertex drift over the shared vertices."""
    records = []
    for n in sizes:
        drifts = []
        for rep in range(replicates):
            small, big = sample_graphex_coupled(spec, [n, n + delta], rng)
            p_small = _train_on(small, config)
            p_big = _train_on(big, config)
            # the vertex index of each shared point id in each graph, ids
            # ascending
            shared, in_small, in_big = np.intersect1d(small.point_ids, big.point_ids,
                                                      return_indices=True)
            if not len(shared):
                continue
            diff = p_small.embedding_matrix(in_small) - p_big.embedding_matrix(in_big)
            # one norm per row, as a vector norm: the axis=1 form sums the
            # squares in another order, so its last bits can differ
            d = np.array([np.linalg.norm(row) for row in diff])
            drifts.append(float(d.mean()))
            records.append({"experiment": "stability", "n": n, "replicate": rep,
                            "statistic": "mean_drift", "value": drifts[-1]})
        records.append({"experiment": "stability", "n": n, "replicate": -1,
                        "statistic": "mean_drift_over_reps",
                        "value": float(np.mean(drifts)) if drifts else 0.0})
    return records
