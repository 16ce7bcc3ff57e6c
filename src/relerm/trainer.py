"""Risk estimation, brute-force risk oracles, and the SGD training loop.

The empirical risk is the expected loss over draws of the configured
sampler; its stochastic gradient (gradient of the loss on one draw) is
unbiased, and the oracles here verify that by exhaustive enumeration of
the sampler's outcome space on small graphs: `exact_risk(graph, labels,
params, sampler, loss)` gives the risk of any enumerable sampler, and
`check_unbiasedness` compares stochastic gradients with the gradient of
that risk. They work on outcome keys (retention masks, walks) and leave
the subgraphs to `samplers.outcome_batch`: keys are enumerated with
probabilities that state the sampler's law independently of its code,
simulated in bulk by the sampler's own `draw_key`, mapped and scored in
batches. Losses are averaged by one weighted mean/variance helper;
gradients are summed batch by batch, so no per-key gradient matrix is
held. `check_unbiasedness` is also the derivative check: on the same
batches it scores the loss at parameters moved both ways along random
directions and compares the slopes of the exact risk with its gradient.
The per-draw estimate takes its draws in batches from `draw(..., size=n)`.
Training steps on the gradient of one draw (a batch of one) per step. A
draw reads no parameters, so it takes its draws a block ahead, several per
`draw` call where a batch is successive draws, and draws the block's new
vertex rows in one call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import _INT64_MAX, CategoryMap, Graph, LabelTable, gather_segments
from .graph import induced_pairs  # noqa: F401 - unused; a span target of benchmarks/spans.py
from .losses import MAX_DIM, LossConfig, ParamStore, SparseGradient, combined_loss, gradient
from .samplers import (SamplerConfig, SamplerError, UnigramTable, batch_is_successive,
                       build_unigram, draw, draw_key, key_width, outcome_batch)


class TrainerError(Exception):
    pass


class DivergenceError(TrainerError):
    pass


class OracleError(TrainerError):
    pass


DIVERGENCE_LIMIT = 1e6
# the ids that `train` draws ahead in one block, vertices and pair ends,
# before it materialises the block's vertex rows in one call: 2^16 int64 ids
# are 512 KiB, about 25 train-skipgram draws. 2 MiB blocks trained no
# measurably faster, and the heap they left behind raised the benchmark's
# peak RSS by 1% and more than doubled the minor faults of its later
# graphex phase. Each draw also counts DRAW_IDS for its arrays' headers
# (about 1 KiB), so that a run of empty draws makes a bounded block too.
BLOCK_IDS, DRAW_IDS = 2 ** 16, 128


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
        if self.embedding_dim > MAX_DIM:
            errs.append(f"embedding_dim {self.embedding_dim} exceeds the bound MAX_DIM = {MAX_DIM}")
        if not 0 <= self.seed < 2 ** 64:
            errs.append(f"seed {self.seed} must be in [0, 2^64)")
        if self.eval_every < 0 or self.eval_samples < 1:
            errs.append("eval_every must be >= 0 and eval_samples >= 1")
        return errs


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    n_samples: int


# -- outcome keys -------------------------------------------------------------

PSAMPLE_MAX_VERTICES = 20
MAX_WALKS = 10 ** 6
SIM_CHUNK = 2 * 10 ** 6  # random numbers per bulk-simulation chunk
ESTIMATE_METHODS = ("auto", "aggregated", "loop")
AUTO_MAX_KEYS = 5 * 10 ** 7  # possible key codes up to which "auto" aggregates


def _key_dims(graph: Graph, config: SamplerConfig) -> tuple[int, ...]:
    """Digits of an outcome key's integer code: one binary digit per
    vertex of a retention mask, one vertex id per position of a walk.
    Raises SamplerError for an invalid config, as `draw_key` does."""
    errs = config.validate()
    if errs:
        raise SamplerError("; ".join(errs))
    if config.negative == "unigram":
        raise OracleError("unigram negatives are not enumerable")
    if config.algorithm == "p_sampling":
        if graph.vertex_count > PSAMPLE_MAX_VERTICES:
            raise OracleError("exact p-sampling enumeration limited to "
                              f"<= {PSAMPLE_MAX_VERTICES} vertices")
        return (2,) * graph.vertex_count
    if config.algorithm in ("rw_induced", "rw_skipgram"):
        return (graph.vertex_count,) * (config.walk_length + 1)
    raise OracleError(f"no enumeration for algorithm {config.algorithm!r}")


def _encode(keys: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Each key row's integer code, its digits read by Horner's rule (the
    codes of np.ravel_multi_index, without its per-digit index arrays)."""
    if math.prod(dims) > _INT64_MAX:
        raise OracleError(f"outcome keys of {len(dims)} digits in base {dims[0]} "
                          "do not fit int64 codes")
    codes = np.zeros(len(keys), dtype=np.int64)
    for i, base in enumerate(dims):
        codes *= base
        codes += keys[:, i]
    return codes


def _decode(codes: np.ndarray, dims: tuple[int, ...], config: SamplerConfig) -> np.ndarray:
    keys = np.empty((len(codes), len(dims)),
                    dtype=bool if config.algorithm == "p_sampling" else np.int64)
    rest = codes
    for i in range(len(dims) - 1, -1, -1):
        rest, keys[:, i] = np.divmod(rest, dims[i])
    return keys


def _enumerate_keys(graph: Graph, config: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome key of positive probability, one per row, with its
    probability: the 2^V retention masks with p^k (1-p)^(V-k), or every
    walk with P(start) * prod 1/deg."""
    dims = _key_dims(graph, config)
    if config.algorithm == "p_sampling":
        p = config.retention
        masks = _decode(np.arange(1 << graph.vertex_count), dims, config)
        kept = masks.sum(axis=1)
        probs = p ** kept * (1.0 - p) ** (graph.vertex_count - kept)
        return masks[probs > 0], probs[probs > 0]
    deg = graph.degrees
    r = config.walk_length
    n_walks = float((deg.astype(np.float64) ** r)[deg > 0].sum())
    if n_walks > MAX_WALKS:
        raise OracleError(f"{n_walks:.0f} walks exceeds enumeration limit {MAX_WALKS}")
    weights = deg if config.walk_start == "degree_proportional" else deg > 0
    start_probs = weights / weights.sum()
    walks = np.flatnonzero(start_probs > 0)[:, None]
    probs = start_probs[walks[:, 0]]
    for _ in range(r):
        last = walks[:, -1]
        rows, at = gather_segments(graph.offsets, last)
        walks = np.column_stack([walks[rows], graph.neighbors[at]])
        probs = probs[rows] / deg[last][rows]
    return walks, probs


def _simulate_key_counts(graph: Graph, config: SamplerConfig, n: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Distinct key codes (ascending) and their counts over n draws of the
    sampler's key step, simulated in chunks of SIM_CHUNK random numbers. A
    chunk with room for every possible code is counted by np.bincount
    instead of sorted by np.unique."""
    dims = _key_dims(graph, config)
    chunk = max(1, min(n, SIM_CHUNK // max(len(dims), 1)))
    space = math.prod(dims)
    codes, counts = [], []
    for done in range(0, n, chunk):
        c = _encode(draw_key(graph, config, rng, size=min(chunk, n - done)), dims)
        if space <= chunk:
            c, k = np.arange(space), np.bincount(c, minlength=space)
        else:
            c, k = np.unique(c, return_counts=True)
        codes.append(c)
        counts.append(k)
    codes, inverse = np.unique(np.concatenate(codes), return_inverse=True)
    counts = np.bincount(inverse, weights=np.concatenate(counts))
    return codes[counts > 0], counts[counts > 0]


def _weighted_moments(weights: np.ndarray, values: np.ndarray, total: float,
                      ddof: int = 0) -> tuple[float, float]:
    """Mean and variance of `values` with value i taken weights[i] times out
    of `total`: draw counts over n draws give the sample moments,
    probabilities with total 1 the exact ones."""
    mean = (weights * values).sum() / total
    # a single draw has no spread: its one deviation is exactly 0
    return mean, (weights * (values - mean) ** 2).sum() / max(total - ddof, 1)


def _batches(make, n: int, width: int, dim: int):
    """make(lo, hi), the SubgraphBatch of draws lo..hi-1, over n draws, in
    batches of about SIM_CHUNK numbers: a draw's key of `width` numbers, and
    2 + 2 dim per scored pair. The first batch is one draw; each next one
    takes as many draws as the numbers per draw so far leave room for, and
    at most 16 times the draws so far, so that a few small first draws
    cannot size a batch of thousands."""
    lo = numbers = 0
    while lo < n:
        hi = min(n, lo + max(1, min(16 * lo, SIM_CHUNK * lo // max(numbers, 1))))
        batch = make(lo, hi)
        numbers += (hi - lo) * width + (2 + 2 * dim) * (len(batch.positive_pairs)
                                                        + len(batch.negative_pairs))
        lo = hi
        yield batch


def _key_batches(graph: Graph, config: SamplerConfig, keys: np.ndarray, dim: int):
    """The outcomes of key rows, in batches (see `_batches`)."""
    return _batches(lambda lo, hi: outcome_batch(graph, config, keys[lo:hi]),
                    len(keys), keys.shape[1], dim)


def exact_risk(graph: Graph, labels: LabelTable | None, params: ParamStore,
               sampler: SamplerConfig, loss: LossConfig,
               cats: CategoryMap | None = None) -> float:
    """Exact empirical risk of `sampler`: the loss of every outcome of
    positive probability, weighted by its probability. Enumerates the 2^V
    retention masks of p-sampling (V <= PSAMPLE_MAX_VERTICES) or every walk
    (at most MAX_WALKS) of the walk samplers; raises OracleError for other
    outcomes."""
    keys, probs = _enumerate_keys(graph, sampler)
    losses = np.concatenate([combined_loss(batch, labels, params, loss, cats)
                             for batch in _key_batches(graph, sampler, keys, params.dim)])
    return float(_weighted_moments(probs, losses, 1.0)[0])


# benchmark-only: benchmarks/phases.py::riskcheck_phase calls these two by
# name with these positional parameters, and benchmarks/spans.py times them
# as trainer.exact_risk; ROADMAP item 1 ports the benchmark to `exact_risk`
def exact_risk_psample(graph: Graph, labels: LabelTable | None, params: ParamStore,
                       p: float, loss: LossConfig) -> float:
    return exact_risk(graph, labels, params,
                      SamplerConfig(algorithm="p_sampling", retention=p), loss)


def exact_risk_walk(graph: Graph, labels: LabelTable | None, params: ParamStore,
                    r: int, start: str, loss: LossConfig) -> float:
    return exact_risk(graph, labels, params,
                      SamplerConfig(algorithm="rw_induced", walk_length=r, walk_start=start),
                      loss)


# -- risk estimation ----------------------------------------------------------

def _fast_path_applicable(graph: Graph, config: SamplerConfig, n_samples: int) -> bool:
    """Whether "auto" aggregates: enough draws, and keys that are
    enumerable with at most AUTO_MAX_KEYS possible codes."""
    if n_samples < 1000:
        return False
    try:
        return math.prod(_key_dims(graph, config)) <= AUTO_MAX_KEYS
    except OracleError:
        return False


def estimate_risk(graph: Graph, labels: LabelTable | None, params: ParamStore,
                  sampler: SamplerConfig, loss: LossConfig, n_samples: int,
                  rng: np.random.Generator, cats: CategoryMap | None = None,
                  method: str = "auto",
                  unigram_table: UnigramTable | None = None) -> RiskEstimate:
    """Monte-Carlo mean and standard error of the loss over n_samples
    independent draws of the sampler.

    "aggregated" simulates the draws' outcome keys in bulk and scores each
    distinct key once, which is statistically identical to the per-draw
    "loop" and much faster at large n_samples; it raises OracleError where
    keys are not enumerable. "auto" picks it on small graphs. The loop
    builds the unigram table when it needs one and none is given.
    """
    if n_samples < 1:
        raise TrainerError("n_samples must be >= 1")
    if method not in ESTIMATE_METHODS:
        raise TrainerError(f"unknown method {method!r}; expected one of {ESTIMATE_METHODS}")
    if method == "auto" and _fast_path_applicable(graph, sampler, n_samples):
        method = "aggregated"
    if method == "aggregated":
        codes, counts = _simulate_key_counts(graph, sampler, n_samples, rng)
        keys = _decode(codes, _key_dims(graph, sampler), sampler)
        batches = _key_batches(graph, sampler, keys, params.dim)
    else:
        table = unigram_table
        if table is None and sampler.negative == "unigram":
            table = build_unigram(graph, sampler.unigram_power)
        batches = _batches(lambda lo, hi: draw(graph, sampler, rng, table, hi - lo),
                           n_samples, key_width(graph, sampler), params.dim)
        counts = np.ones(n_samples)
    vals = np.concatenate([combined_loss(b, labels, params, loss, cats) for b in batches])
    mean, var = _weighted_moments(counts, vals, n_samples, ddof=1)
    return RiskEstimate(float(mean), float(np.sqrt(var) / np.sqrt(n_samples)), n_samples)


# -- gradient flattening ------------------------------------------------------

def _flatten_gradient(grad: SparseGradient, graph: Graph, params: ParamStore) -> np.ndarray:
    """A batch's gradients as one row per draw: every vertex embedding
    (zero where untouched), then the weights and the bias."""
    m = len(grad.bias)
    emb = np.zeros((m * graph.vertex_count, params.dim))
    emb[grad.embeddings.rows] = grad.embeddings.data
    return np.concatenate([x.reshape(m, -1) for x in (emb, grad.weights, grad.bias)], axis=1)


# the derivative check: central differences of the exact risk, step
# FD_STEP, along FD_DIRECTIONS random unit directions of every parameter; on
# the built-in riskcheck path a correct gradient is off by about 1e-10, and a
# gradient scaled by 1.1 by 5e-4 to 8e-3
FD_STEP, FD_DIRECTIONS, FD_TOLERANCE = 1e-6, 3, 1e-6


@dataclass
class UnbiasednessReport:
    z_scores: np.ndarray
    exact_gradient: np.ndarray
    empirical_mean: np.ndarray
    n_samples: int
    fd_error: float  # largest |exact_gradient . u - slope of the exact risk along u|

    @property
    def max_abs_z(self) -> float:
        return float(np.abs(self.z_scores).max())


def _moved(params: ParamStore, vertex_count: int, step: np.ndarray) -> ParamStore:
    """A copy of params moved by a flattened step (see `_flatten_gradient`)."""
    out = params.copy()
    emb = vertex_count * params.dim
    out.embeddings.data[:vertex_count] += step[:emb].reshape(vertex_count, params.dim)
    out.weights += step[emb:emb + out.weights.size].reshape(out.weights.shape)
    out.bias += step[emb + out.weights.size:]
    return out


def check_unbiasedness(graph: Graph, params: ParamStore, sampler: SamplerConfig,
                       loss: LossConfig, n: int, rng: np.random.Generator,
                       labels: LabelTable | None = None) -> UnbiasednessReport:
    """Compare the empirical mean of n stochastic gradients (real sampler
    draws, aggregated per distinct outcome key) against the analytic
    gradient of the exact enumerated risk; report per-coordinate z-scores.
    Each key's gradient is computed once, as one row of its batch's
    gradients, weighted both ways and summed batch by batch.

    Both sides weight the same per-draw gradients, so they agree even when
    those are not the gradient of the loss. The report's fd_error checks
    that: the exact gradient against central differences of the exact
    risk, scored on the same batches, along FD_DIRECTIONS unit directions
    drawn from rng after the draws."""
    if n < 1:
        raise TrainerError("n must be >= 1")
    # materialize so every coordinate is live
    params.embeddings.materialise(np.arange(graph.vertex_count))
    dims = _key_dims(graph, sampler)
    sim_codes, counts = _simulate_key_counts(graph, sampler, n, rng)
    keys, probs = _enumerate_keys(graph, sampler)
    exact_codes = _encode(keys, dims)
    # one gradient per key that was enumerated or simulated
    codes = np.union1d(exact_codes, sim_codes)
    prob_w = np.zeros(len(codes))
    prob_w[np.searchsorted(codes, exact_codes)] = probs
    count_w = np.zeros(len(codes))
    count_w[np.searchsorted(codes, sim_codes)] = counts
    width = graph.vertex_count * params.dim + params.weights.size + params.bias.size
    directions = rng.standard_normal((FD_DIRECTIONS, width))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    moved = [(_moved(params, graph.vertex_count, FD_STEP * u),
              _moved(params, graph.vertex_count, -FD_STEP * u)) for u in directions]
    exact, total, squares = np.zeros(width), np.zeros(width), np.zeros(width)
    slopes = np.zeros(FD_DIRECTIONS)
    lo = 0
    for batch in _key_batches(graph, sampler, _decode(codes, dims, sampler), params.dim):
        p, c = prob_w[lo:lo + len(batch)], count_w[lo:lo + len(batch)]
        lo += len(batch)
        grads = _flatten_gradient(gradient(batch, labels, params, loss), graph, params)
        exact += p @ grads
        total += c @ grads
        squares += c @ grads ** 2
        slopes += [p @ (combined_loss(batch, labels, up, loss)
                        - combined_loss(batch, labels, down, loss)) for up, down in moved]
    fd_error = float(np.abs(directions @ exact - slopes / (2 * FD_STEP)).max())
    mean = total / n
    # E[g^2] - E[g]^2 of a coordinate with no spread may round below 0
    se = np.sqrt(np.maximum(squares / n - mean ** 2, 0.0) / n)
    diff = mean - exact
    z = np.zeros_like(diff)
    live = se > 0
    z[live] = diff[live] / se[live]
    z[~live] = np.where(np.abs(diff[~live]) < 1e-12, 0.0, np.inf)
    return UnbiasednessReport(z, exact, mean, n, fd_error)


# -- SGD ----------------------------------------------------------------------

def sgd_step(params: ParamStore, grad: SparseGradient, lr: float) -> None:
    """In-place SGD update on one draw's gradient: touched rows move by
    -lr * gradient."""
    if len(grad.bias) != 1:
        raise TrainerError(f"sgd_step takes the gradient of one draw, not {len(grad.bias)}")
    for table, g in ((params.embeddings, grad.embeddings),
                     (params.category_embeddings, grad.categories)):
        if len(g):
            table.materialise(g.rows)
            table.data[g.rows] -= lr * g.data
    params.weights -= lr * grad.weights[0]
    params.bias -= lr * grad.bias[0]


def _learning_rate(config: TrainConfig, step: int) -> float:
    if config.steps <= 1:
        return config.lr_start
    frac = step / (config.steps - 1)
    return config.lr_start + frac * (config.lr_end - config.lr_start)


def train(graph: Graph, labels: LabelTable | None, cats: CategoryMap | None,
          config: TrainConfig, params: ParamStore | None = None,
          trace_wallclock: bool = False) -> tuple[ParamStore, list[dict]]:
    """Run `steps` iterations of draw -> gradient -> sgd_step.

    The draws come a block at a time, BLOCK_IDS ids ahead, with the
    block's vertex rows materialised in one call; every step then runs as
    if it drew alone, so the result is that of one draw per step. Where a
    batch of k takes the numbers of k successive draws (`batch_is_successive`:
    p_sampling and uniform_edge without unigram negatives), a block's draws
    come from `draw(..., size=k)` calls cut into draws by `batch[i]`, so the
    generator's stream does not change; walks and unigram negatives draw
    one per call. A training that raises mid-block may leave present the
    initial rows of draws it did not reach. Fully reproducible for a fixed
    seed. The trace records a risk estimate every eval_every steps (step 0
    included). With trace_wallclock, a record's wallclock also counts the
    draws and rows already taken for the rest of its block. A given
    `params` store must have embedding_dim and, in node_classification
    mode, the labels' label_dim.
    """
    errs = config.validate()
    if errs:
        raise TrainerError("; ".join(errs))
    if params is None:
        label_dim = labels.label_dim if labels is not None else 0
        params = ParamStore(config.embedding_dim, label_dim, seed=config.seed)
    if params.dim != config.embedding_dim:
        raise TrainerError(f"params of dim {params.dim} for embedding_dim {config.embedding_dim}")
    if config.loss.mode == "node_classification" and labels is not None \
            and params.label_dim != labels.label_dim:
        raise TrainerError(f"params of label_dim {params.label_dim} for labels of "
                           f"label_dim {labels.label_dim}")
    vertex_rows = config.loss.mode != "category_embedding"  # category mode has none
    if vertex_rows:
        if params.init_ids is not None and len(params.init_ids) < graph.vertex_count:
            raise TrainerError(f"init_ids of length {len(params.init_ids)} for a graph of "
                               f"{graph.vertex_count} vertices")
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

    # where a batch of k is k successive draws, a call takes several: as
    # many as fit what is left of the block, at the ids per draw so far,
    # while their keys fit in BLOCK_IDS numbers; the first call takes one
    batched, width = batch_is_successive(config.sampler), key_width(graph, config.sampler)
    step = drawn = ids = 0
    while step < config.steps:
        # a draw reads no parameters: take a block of them ahead, from the
        # same rng in the same order, and draw their cold rows in one call
        block, held = [], 0
        while step + len(block) < config.steps and held < BLOCK_IDS:
            k = 1
            if batched and drawn:
                per_draw = DRAW_IDS + ids // drawn
                k = max(1, min(config.steps - step - len(block),
                               (BLOCK_IDS - held) // per_draw, BLOCK_IDS // (per_draw + width)))
            batch = draw(graph, config.sampler, rng, table, k)
            block += [batch[i] for i in range(k)] if k > 1 else [batch]
            new = batch.vertices.size + batch.positive_pairs.size + batch.negative_pairs.size
            held += k * DRAW_IDS + new
            drawn, ids = drawn + k, ids + new
        if vertex_rows:
            params.embeddings.materialise(np.concatenate([sub.vertices for sub in block]))
        for sub in block:
            g = gradient(sub, labels, params, config.loss, cats)
            sgd_step(params, g, _learning_rate(config, step))
            step += 1
            if config.eval_every and step % config.eval_every == 0:
                record(step)
    if not trace or trace[-1]["step"] != config.steps:
        record(config.steps)
    return params, trace
