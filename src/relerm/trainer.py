"""Risk estimation, brute-force risk oracles, and the SGD training loop.

The empirical risk is the expected loss over draws of the configured
sampler; its stochastic gradient (gradient of the loss on one draw) is
unbiased, and the oracles here verify that by exhaustive enumeration of
the sampler's outcome space on small graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph, LabelTable, CategoryMap, induced_pairs
from .losses import LossConfig, ParamStore, SparseGradient, combined_loss, gradient
from .samplers import (SampledSubgraph, SamplerConfig, UnigramTable, build_unigram, draw,
                       negative_induced, skipgram_pairs, _empty_pairs, _first_seen)


class TrainerError(Exception):
    pass


class DivergenceError(TrainerError):
    pass


class OracleError(TrainerError):
    pass


DIVERGENCE_LIMIT = 1e6


@dataclass(frozen=True)
class TrainConfig:
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    steps: int = 1000
    lr_start: float = 0.025
    lr_end: float = 1e-4
    embedding_dim: int = 128
    seed: int = 0
    eval_every: int = 0
    eval_samples: int = 25

    def validate(self) -> list[str]:
        errs = self.sampler.validate() + self.loss.validate()
        if self.lr_start <= 0 or self.lr_end <= 0:
            errs.append("learning rates must be > 0")
        if self.steps < 0:
            errs.append("steps must be >= 0")
        if self.embedding_dim < 1:
            errs.append("embedding_dim must be >= 1")
        return errs


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    n_samples: int


# -- outcome enumeration ------------------------------------------------------

def enumerate_psample_outcomes(graph: Graph, p: float):
    """All retention subsets of a small graph with their probabilities and
    resulting subgraphs (induced edges, isolated survivors deleted,
    induced non-edges among survivors as negatives)."""
    v = graph.vertex_count
    if v > 20:
        raise OracleError("exact p-sampling enumeration limited to <= 20 vertices")
    outcomes = []
    for code in range(1 << v):
        members = np.flatnonzero([(code >> i) & 1 for i in range(v)]).astype(np.int64)
        prob = p ** len(members) * (1.0 - p) ** (v - len(members))
        if prob == 0.0:
            continue
        pos, _ = induced_pairs(graph, members)
        if len(pos):
            survivors = np.unique(pos)
            _, neg = induced_pairs(graph, survivors)
            sub = SampledSubgraph(survivors, pos, neg, source="p_sampling")
        else:
            sub = SampledSubgraph(np.zeros(0, dtype=np.int64), _empty_pairs(),
                                  _empty_pairs(), source="p_sampling")
        outcomes.append((prob, sub))
    return outcomes


def _start_distribution(graph: Graph, start: str) -> np.ndarray:
    deg = graph.degrees.astype(np.float64)
    if start == "uniform_vertex":
        probs = (deg > 0).astype(np.float64)
    elif start == "degree_proportional":
        probs = deg
    else:
        raise OracleError(f"unknown walk start {start!r}")
    return probs / probs.sum()


def enumerate_walk_outcomes(graph: Graph, r: int, start: str = "uniform_vertex",
                            algorithm: str = "rw_induced", window: int = 10,
                            negative: str = "none", max_walks: int = 10 ** 6):
    """All length-r walks with P(walk) = P(start) * prod 1/deg, mapped to
    the sampler's reported subgraph."""
    n_walks = float((graph.degrees.astype(np.float64) ** r)[graph.degrees > 0].sum())
    if n_walks > max_walks:
        raise OracleError(f"{n_walks:.0f} walks exceeds enumeration limit {max_walks}")
    start_probs = _start_distribution(graph, start)
    outcomes = []

    def expand(walk, prob):
        if len(walk) == r + 1:
            wk = np.array(walk, dtype=np.int64)
            if algorithm == "rw_induced":
                verts = _first_seen(wk)
                pos, _ = induced_pairs(graph, verts)
                sub = SampledSubgraph(verts, pos, _empty_pairs(), source="rw_induced")
            elif algorithm == "rw_skipgram":
                sub = SampledSubgraph(_first_seen(wk), skipgram_pairs(wk, window),
                                      _empty_pairs(), source="rw_skipgram")
            else:
                raise OracleError(f"cannot enumerate algorithm {algorithm!r}")
            if negative == "induced":
                sub = negative_induced(graph, sub)
            elif negative != "none":
                raise OracleError("only none/induced negatives are enumerable")
            outcomes.append((prob, sub))
            return
        cur = walk[-1]
        nbrs = graph.neighbors_of(cur)
        for nxt in nbrs:
            expand(walk + [int(nxt)], prob / len(nbrs))

    for v0 in np.flatnonzero(start_probs > 0):
        expand([int(v0)], float(start_probs[v0]))
    return outcomes


def _outcomes_for_config(graph: Graph, config: SamplerConfig):
    if config.algorithm == "p_sampling":
        if config.negative not in ("none", "induced"):
            raise OracleError("unigram negatives are not enumerable")
        return enumerate_psample_outcomes(graph, config.retention)
    if config.algorithm in ("rw_induced", "rw_skipgram"):
        return enumerate_walk_outcomes(graph, config.walk_length, config.walk_start,
                                       config.algorithm, config.window, config.negative)
    raise OracleError(f"no enumeration for algorithm {config.algorithm!r}")


def exact_risk_psample(graph: Graph, labels: LabelTable | None, params: ParamStore,
                       p: float, loss: LossConfig,
                       cats: CategoryMap | None = None) -> float:
    """Exact empirical risk under p-sampling by summing over all 2^V
    retention subsets."""
    return float(sum(prob * combined_loss(sub, labels, params, loss, cats)
                     for prob, sub in enumerate_psample_outcomes(graph, p)))


def exact_risk_walk(graph: Graph, labels: LabelTable | None, params: ParamStore,
                    r: int, start: str, loss: LossConfig,
                    algorithm: str = "rw_induced", window: int = 10,
                    negative: str = "none",
                    cats: CategoryMap | None = None) -> float:
    """Exact empirical risk under random-walk sampling by enumerating every
    walk of length r."""
    outcomes = enumerate_walk_outcomes(graph, r, start, algorithm, window, negative)
    return float(sum(prob * combined_loss(sub, labels, params, loss, cats)
                     for prob, sub in outcomes))


# -- vectorized outcome simulation (small graphs) -----------------------------

def _simulate_psample_counts(graph: Graph, p: float, n: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Counts of retention-subset codes over n independent Bernoulli draws."""
    v = graph.vertex_count
    counts = np.zeros(1 << v, dtype=np.int64)
    bits = 1 << np.arange(v, dtype=np.int64)
    chunk = max(1, min(n, 2 * 10 ** 6 // max(v, 1)))
    done = 0
    while done < n:
        m = min(chunk, n - done)
        masks = rng.random((m, v)) < p
        codes = masks @ bits
        counts += np.bincount(codes, minlength=1 << v)
        done += m
    return counts


def _psample_outcome_for_code(graph: Graph, code: int) -> SampledSubgraph:
    v = graph.vertex_count
    members = np.flatnonzero([(code >> i) & 1 for i in range(v)]).astype(np.int64)
    pos, _ = induced_pairs(graph, members)
    if len(pos):
        survivors = np.unique(pos)
        _, neg = induced_pairs(graph, survivors)
        return SampledSubgraph(survivors, pos, neg, source="p_sampling")
    return SampledSubgraph(np.zeros(0, dtype=np.int64), _empty_pairs(),
                           _empty_pairs(), source="p_sampling")


def _simulate_walk_counts(graph: Graph, r: int, start: str, n: int,
                          rng: np.random.Generator) -> dict[int, int]:
    """Counts of base-V-encoded walks over n independent simulated walks."""
    v = graph.vertex_count
    deg = graph.degrees
    if start == "uniform_vertex":
        candidates = np.flatnonzero(deg > 0)
        cur = candidates[rng.integers(len(candidates), size=n)]
    else:
        e = rng.integers(graph.edge_count, size=n)
        side = rng.integers(2, size=n)
        cur = graph.edge_list[e, side].astype(np.int64)
    codes = cur.astype(np.int64)
    for _ in range(r):
        step = np.floor(rng.random(n) * deg[cur]).astype(np.int64)
        cur = graph.neighbors[graph.offsets[cur] + step].astype(np.int64)
        codes = codes * v + cur
    uniq, cnt = np.unique(codes, return_counts=True)
    return dict(zip(uniq.tolist(), cnt.tolist()))


def _decode_walk(code: int, v: int, length: int) -> np.ndarray:
    walk = np.empty(length, dtype=np.int64)
    for i in range(length - 1, -1, -1):
        walk[i] = code % v
        code //= v
    return walk


def _walk_outcome(graph: Graph, walk: np.ndarray, config: SamplerConfig) -> SampledSubgraph:
    if config.algorithm == "rw_induced":
        verts = _first_seen(walk)
        pos, _ = induced_pairs(graph, verts)
        sub = SampledSubgraph(verts, pos, _empty_pairs(), source="rw_induced")
    else:
        sub = SampledSubgraph(_first_seen(walk), skipgram_pairs(walk, config.window),
                              _empty_pairs(), source="rw_skipgram")
    if config.negative == "induced":
        sub = negative_induced(graph, sub)
    return sub


def _fast_path_applicable(graph: Graph, config: SamplerConfig, n_samples: int) -> bool:
    if n_samples < 1000 or config.negative == "unigram":
        return False
    if config.algorithm == "p_sampling":
        return graph.vertex_count <= 20
    if config.algorithm in ("rw_induced", "rw_skipgram"):
        return graph.vertex_count ** (config.walk_length + 1) <= 5 * 10 ** 7
    return False


def _simulated_outcome_counts(graph: Graph, config: SamplerConfig, n: int,
                              rng: np.random.Generator):
    """(count, SampledSubgraph) per distinct outcome over n real draws of
    the sampler, simulated vectorized."""
    if config.algorithm == "p_sampling":
        counts = _simulate_psample_counts(graph, config.retention, n, rng)
        return [(int(c), _psample_outcome_for_code(graph, code))
                for code, c in enumerate(counts) if c > 0]
    counts = _simulate_walk_counts(graph, config.walk_length, config.walk_start, n, rng)
    v = graph.vertex_count
    return [(int(c), _walk_outcome(graph, _decode_walk(code, v, config.walk_length + 1), config))
            for code, c in sorted(counts.items())]


# -- risk estimation ----------------------------------------------------------

def estimate_risk(graph: Graph, labels: LabelTable | None, params: ParamStore,
                  sampler: SamplerConfig, loss: LossConfig, n_samples: int,
                  rng: np.random.Generator, cats: CategoryMap | None = None,
                  method: str = "auto",
                  unigram_table: UnigramTable | None = None) -> RiskEstimate:
    """Monte-Carlo mean and standard error of the loss over n_samples
    independent draws of the sampler.

    On small graphs with enumerable outcomes, draws are simulated in bulk
    and aggregated per distinct outcome; this is statistically identical
    to the per-draw loop and much faster at large n_samples. The per-draw
    loop builds the unigram table when it needs one and none is given.
    """
    if n_samples < 1:
        raise TrainerError("n_samples must be >= 1")
    if method == "auto" and _fast_path_applicable(graph, sampler, n_samples):
        method = "aggregated"
    if method == "aggregated":
        weighted = _simulated_outcome_counts(graph, sampler, n_samples, rng)
        losses = np.array([combined_loss(sub, labels, params, loss, cats)
                           for _, sub in weighted])
        counts = np.array([c for c, _ in weighted], dtype=np.float64)
        mean = float((counts * losses).sum() / n_samples)
        if n_samples > 1:
            var = float((counts * (losses - mean) ** 2).sum() / (n_samples - 1))
        else:
            var = 0.0
        return RiskEstimate(mean, float(np.sqrt(var / n_samples)), n_samples)

    table = unigram_table
    if table is None and sampler.negative == "unigram":
        table = build_unigram(graph, sampler.unigram_power)
    vals = np.empty(n_samples)
    for i in range(n_samples):
        sub = draw(graph, sampler, rng, unigram_table=table)
        vals[i] = combined_loss(sub, labels, params, loss, cats)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return RiskEstimate(mean, se, n_samples)


# -- gradient flattening ------------------------------------------------------

def _flatten_gradient(grad: SparseGradient, graph: Graph, params: ParamStore) -> np.ndarray:
    base = graph.vertex_count * params.dim
    out = np.zeros(base + params.weights.size + params.bias.size)
    if len(grad.embeddings):
        out[:base].reshape(graph.vertex_count, params.dim)[grad.embeddings.rows] = \
            grad.embeddings.data
    out[base:base + params.weights.size] = grad.weights.reshape(-1)
    out[base + params.weights.size:] = grad.bias
    return out


@dataclass
class UnbiasednessReport:
    z_scores: np.ndarray
    exact_gradient: np.ndarray
    empirical_mean: np.ndarray
    n_samples: int

    @property
    def max_abs_z(self) -> float:
        return float(np.abs(self.z_scores).max())


def check_unbiasedness(graph: Graph, params: ParamStore, sampler: SamplerConfig,
                       loss: LossConfig, n: int, rng: np.random.Generator,
                       labels: LabelTable | None = None) -> UnbiasednessReport:
    """Compare the empirical mean of n stochastic gradients (real sampler
    draws, aggregated per distinct outcome) against the analytic gradient
    of the exact enumerated risk; report per-coordinate z-scores."""
    # materialize so every coordinate is live
    params.embeddings.materialise(np.arange(graph.vertex_count))

    exact_outcomes = _outcomes_for_config(graph, sampler)
    exact = np.zeros(graph.vertex_count * params.dim
                     + params.weights.size + params.bias.size)
    for prob, sub in exact_outcomes:
        g = gradient(sub, labels, params, loss)
        exact += prob * _flatten_gradient(g, graph, params)

    weighted = _simulated_outcome_counts(graph, sampler, n, rng)
    grads = np.stack([_flatten_gradient(gradient(sub, labels, params, loss),
                                        graph, params)
                      for _, sub in weighted])
    counts = np.array([c for c, _ in weighted], dtype=np.float64)
    mean = (counts[:, None] * grads).sum(axis=0) / n
    var = (counts[:, None] * (grads - mean) ** 2).sum(axis=0) / n
    se = np.sqrt(var / n)
    diff = mean - exact
    z = np.zeros_like(diff)
    live = se > 0
    z[live] = diff[live] / se[live]
    z[~live] = np.where(np.abs(diff[~live]) < 1e-12, 0.0, np.inf)
    return UnbiasednessReport(z, exact, mean, n)


# -- SGD ----------------------------------------------------------------------

def sgd_step(params: ParamStore, grad: SparseGradient, lr: float) -> None:
    """In-place SGD update: touched rows move by -lr * gradient."""
    for table, g in ((params.embeddings, grad.embeddings),
                     (params.category_embeddings, grad.categories)):
        if len(g):
            table.materialise(g.rows)
            table.data[g.rows] -= lr * g.data
    if grad.weights is not None:
        params.weights -= lr * grad.weights
        params.bias -= lr * grad.bias


def _learning_rate(config: TrainConfig, step: int) -> float:
    if config.steps <= 1:
        return config.lr_start
    frac = step / (config.steps - 1)
    return config.lr_start + frac * (config.lr_end - config.lr_start)


def train(graph: Graph, labels: LabelTable | None, cats: CategoryMap | None,
          config: TrainConfig, params: ParamStore | None = None,
          trace_wallclock: bool = False) -> tuple[ParamStore, list[dict]]:
    """Run `steps` iterations of draw -> gradient -> sgd_step.

    Fully reproducible for a fixed seed. The trace records a risk estimate
    every eval_every steps (step 0 included).
    """
    errs = config.validate()
    if errs:
        raise TrainerError("; ".join(errs))
    if params is None:
        label_dim = labels.label_dim if labels is not None else 0
        params = ParamStore(config.embedding_dim, label_dim, seed=config.seed)
    params.embeddings.reserve(graph.vertex_count)
    rng = np.random.default_rng(config.seed)
    eval_rng = np.random.default_rng((config.seed, 0xE7A1))
    table = build_unigram(graph, config.sampler.unigram_power) \
        if config.sampler.negative == "unigram" else None
    trace: list[dict] = []
    t0 = time.monotonic()

    def record(step):
        est = estimate_risk(graph, labels, params, config.sampler, config.loss,
                            config.eval_samples, eval_rng, cats,
                            unigram_table=table)
        if not np.isfinite(est.mean) or est.mean > DIVERGENCE_LIMIT:
            raise DivergenceError(f"risk diverged at step {step}: {est.mean}")
        rec = {"step": step, "risk_mean": est.mean, "risk_stderr": est.std_error}
        rec["wallclock"] = time.monotonic() - t0 if trace_wallclock else None
        trace.append(rec)

    record(0)

    for step in range(config.steps):
        sub = draw(graph, config.sampler, rng, unigram_table=table)
        g = gradient(sub, labels, params, config.loss, cats)
        sgd_step(params, g, _learning_rate(config, step))
        if config.eval_every and (step + 1) % config.eval_every == 0:
            record(step + 1)
    if not trace or trace[-1]["step"] != config.steps:
        record(config.steps)
    return params, trace
