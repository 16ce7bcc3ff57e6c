"""Graphon/graphex random graph generator and desk-scale convergence
experiments.

A graph of size n is generated from a Poisson process of candidate
vertices with latent features; pairs connect independently with
probability W(x_i, x_j), and isolated candidates are dropped. Nested
sizes can be coupled through one latent draw, which is what makes the
embedding-stability experiment well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .graph import Graph, LabelTable, from_edges
from .losses import LossConfig, ParamStore
from .samplers import SamplerConfig
from .trainer import TrainConfig, estimate_risk, train
from .evaluation import fit_logistic


class GraphexError(Exception):
    pass


@dataclass(frozen=True)
class GraphonSpec:
    """Symmetric integrable connection-probability function W on R+^2,
    truncated at x_max; edge_rate = (1/2) * integral of W."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    x_max: float
    edge_rate: float
    name: str = "graphon"

    @staticmethod
    def exp_decay(tail: float = 1e-8) -> "GraphonSpec":
        """W(x, y) = exp(-x - y): closed-form marginal exp(-x) and
        edge_rate 1/2. Truncated where exp(-x_max) = tail."""
        return GraphonSpec(fn=lambda x, y: np.exp(-x - y),
                           x_max=float(-np.log(tail)),
                           edge_rate=0.5, name="exp_decay")

    @staticmethod
    def constant(c: float) -> "GraphonSpec":
        """Dense sanity-check graphon: W = c on [0, 1]^2."""
        if not 0.0 <= c <= 1.0:
            raise GraphexError("constant graphon level must be in [0, 1]")
        return GraphonSpec(fn=lambda x, y: np.full(np.broadcast(x, y).shape, c),
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


@dataclass
class _CandidateDraw:
    labels: np.ndarray
    latents: np.ndarray
    edges: np.ndarray  # (m, 2) candidate-index pairs


def _draw_candidates(spec: GraphonSpec, n: float, rng: np.random.Generator) -> _CandidateDraw:
    expected = n * spec.x_max
    if expected > MAX_EXPECTED_CANDIDATES:
        raise GraphexError(
            f"expected candidate count {expected:.0f} exceeds memory budget")
    m = rng.poisson(expected)
    labels = rng.uniform(0.0, n, m)
    latents = rng.uniform(0.0, spec.x_max, m)
    src, dst = [], []
    block = max(1, int(4 * 10 ** 6 / max(m, 1)))
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        probs = spec.fn(latents[i0:i1, None], latents[None, :])
        coins = rng.random((i1 - i0, m)) < probs
        # keep i < j only
        rows, cols = np.nonzero(coins)
        rows = rows + i0
        keep = rows < cols
        src.append(rows[keep])
        dst.append(cols[keep])
    edges = (np.stack([np.concatenate(src), np.concatenate(dst)], axis=1)
             if src else np.zeros((0, 2), dtype=np.int64))
    return _CandidateDraw(labels, latents, edges)


def _restrict(draw: _CandidateDraw, n: float) -> LatentGraph:
    """Graph induced by candidates with label <= n, isolated ones dropped."""
    inside = draw.labels <= n
    if len(draw.edges):
        sel = inside[draw.edges[:, 0]] & inside[draw.edges[:, 1]]
        edges = draw.edges[sel]
    else:
        edges = draw.edges
    survivors = np.unique(edges) if len(edges) else np.zeros(0, dtype=np.int64)
    graph = from_edges(len(survivors), np.searchsorted(survivors, edges))
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


def global_param_experiment(spec: GraphonSpec, sizes: list[float],
                            label_fn: Callable[[float], np.ndarray],
                            config: TrainConfig, rng: np.random.Generator) -> list[dict]:
    """Two-stage fit at each size: embeddings on structure, then a convex
    logistic fit of the global parameters; reports each gamma_hat and its
    distance to the largest-size fit."""
    gammas = {}
    records = []
    for n in sorted(sizes):
        lg = sample_graphex(spec, n, rng)
        label_probs = np.array([label_fn(float(x)) for x in lg.latents])
        labels = rng.random(label_probs.shape) < label_probs
        params = _train_on(lg, config)
        if config.steps == 0:
            L = labels.shape[1]
            w = np.zeros((config.embedding_dim, L))
            b = np.zeros(L)
        else:
            feats = params.embedding_matrix(
                np.arange(lg.graph.vertex_count, dtype=np.int64))
            w, b = fit_logistic(feats, labels)
        gammas[n] = np.concatenate([w.reshape(-1), b])
        records.append({"experiment": "global_param", "n": n, "replicate": 0,
                        "statistic": "gamma_norm",
                        "value": float(np.linalg.norm(gammas[n]))})
    n_max = max(gammas)
    for n in sorted(gammas):
        records.append({"experiment": "global_param", "n": n, "replicate": 0,
                        "statistic": "gamma_dist_to_largest",
                        "value": float(np.linalg.norm(gammas[n] - gammas[n_max]))})
    return records
