"""Loss functions and predictor families.

Three modes:
  edge_only            - cross-entropy on graph structure via embedding dot
                         products sigma(lambda_i . lambda_j)
  node_classification  - q * label cross-entropy + (1-q) * edge loss, with
                         per-label logistic predictions from the embeddings
  category_embedding   - edge loss where each vertex embedding is the sum
                         of its categories' embeddings

Output probabilities are clipped to [eps, 1-eps], which bounds the loss.

Parameters live in dense row tables (`RowTable`), read and written as
arrays: `rows(ids)` gathers rows, drawing missing ones from the table's
initialiser, `put(ids, rows)` sets them, `ids()` lists the present ones and
`data` is the (capacity, dim) array itself. An initial row is bit for bit
what np.random.default_rng((seed, kind, key)) draws; the seeding hash runs
in bulk, once per table over its id range, and the table caches 32 B of
seed words per row (`UniformRows`). A gradient carries its rows the
same way, as `SparseRows` (ascending ids and one row array).
The loss and the gradient take a `SubgraphBatch` and give one value per
draw; one draw is a batch of one. A gradient keeps the batch's id space:
vertex v of draw i has its row at id i * V + v. One pair-scoring pass
serves both the loss and its gradient; it gathers the pairs' end vectors in
cache-sized blocks, so its memory does not grow with the pair count. Every
sum of rows into rows goes through one scatter kernel. In category mode the
pass reads memberships by one segment gather over `CategoryMap`'s CSR
arrays; the chain rule reuses them.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence
from scipy.sparse import csr_array

from .graph import CategoryMap, LabelTable, gather_segments
from .samplers import SubgraphBatch

LOSS_MODES = ("edge_only", "node_classification", "category_embedding")
# bytes of pair-end vectors gathered per scoring block: the (block, 2, d)
# gather stays in L2 cache, where the step's update reads the same rows
SCORE_BLOCK_BYTES = 2 ** 19
# the largest embedding dim that a config or a checkpoint header may give: a
# row is then 512 KiB, and no dim alone asks for an array past memory
MAX_DIM = 2 ** 16


class NumericError(Exception):
    pass


@dataclass(frozen=True)
class LossConfig:
    q: float = 0.0
    prob_clip: float = 1e-7
    mode: str = "edge_only"

    def validate(self) -> list[str]:
        errs = []
        if not 0.0 <= self.q <= 1.0:
            errs.append("q must be in [0, 1]")
        if not 0.0 < self.prob_clip < 0.5:
            errs.append("prob_clip must be in (0, 0.5)")
        if self.mode not in LOSS_MODES:
            errs.append(f"unknown loss mode {self.mode!r}")
        return errs


# -- parameter storage --------------------------------------------------------

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its pool
# of 4 words: the multipliers of the k-th hash step are INIT * MULT^k mod
# 2^32 whatever the data, so they are tabled once
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


_STATE_B = _powers(_INIT_B, _MULT_B, 9)


def _seed_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: its 32-bit words, least
    significant first, and [0] for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"seed {n} is negative; seeds are integers >= 0")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_seeds(entropy: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, np.uint64) for the entropy
    words of each row of `entropy`, an (n, L) uint32 array, in uint32
    arithmetic over all rows at once. `mults` tables the hash multipliers,
    _powers(_INIT_A, _MULT_A, 4 * max(L, 4) + 1) or more."""
    k = 0

    def hashmix(x: np.ndarray) -> np.ndarray:
        # the next x.shape[1] hash steps, one per column
        nonlocal k
        m = x.shape[1]
        x = (x ^ mults[k:k + m]) * mults[k + 1:k + m + 1]
        k += m
        return x ^ (x >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    n, width = entropy.shape
    pool = np.zeros((n, 4), dtype=np.uint32)
    pool[:, :min(width, 4)] = entropy[:, :4]
    pool = hashmix(pool)
    # every pool word into each other word; a source word is not written
    # while it feeds the other three
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(np.repeat(pool[:, src:src + 1], 3, axis=1)))
    # entropy past the pool: each word into every pool word
    for src in range(4, width):
        pool = mix(pool, hashmix(np.repeat(entropy[:, src:src + 1], 4, axis=1)))
    state = (pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_B[:8]) * _STATE_B[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


class _CachedSeed(ISeedSequence):
    """Four seed words, handed to PCG64 as SeedSequence would hash them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class UniformRows:
    """A table's initialiser: row `id` is U(-0.5/dim, 0.5/dim) drawn bit for
    bit as np.random.default_rng((seed, kind, key)).uniform(lo, hi, dim)
    draws it, with key = keys[id] (id itself when keys is None), so a row's
    initial value does not depend on visit order or batch size.

    The SeedSequence hash of (seed, kind, key) runs in bulk over the id
    range and its 4 seed words (32 B) per row are cached; the range grows
    geometrically past the largest id asked for. A call gathers the cached
    words and runs one PCG64 per row. The cache holds a pure function of the
    id, so tables may share one initialiser.
    """

    def __init__(self, seed: int, kind: int, dim: int, keys: np.ndarray | None = None):
        self.dim = dim
        self.keys = keys
        self.prefix = _seed_words(seed) + [kind]
        # at most two words per key, since keys are int64
        self.mults = _powers(_INIT_A, _MULT_A, 4 * max(len(self.prefix) + 2, 4) + 1)
        self.seeds = np.zeros((0, 4), dtype=np.uint64)

    def _grow(self, size: int) -> None:
        """Hash the seeds of the ids below `size`, or below twice the cached
        range when that is more (never past the last key)."""
        have = len(self.seeds)
        size = max(size, 2 * have)
        keys = np.arange(have, size) if self.keys is None else self.keys[have:size]
        words = np.column_stack([np.tile(self.prefix, (len(keys), 1)), keys & _MASK32,
                                 keys >> 32]).astype(np.uint32)
        wide = keys > _MASK32  # a key of two words
        seeds = np.empty((len(keys), 4), dtype=np.uint64)
        seeds[~wide] = _hash_seeds(words[~wide, :-1], self.mults)
        seeds[wide] = _hash_seeds(words[wide], self.mults)
        self.seeds = np.concatenate([self.seeds, seeds])

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        top = int(ids.max())
        if self.keys is not None and top >= len(self.keys):
            raise KeyError(f"row id {top} has no key: init_ids holds {len(self.keys)}")
        if top >= len(self.seeds):
            self._grow(top + 1)
        # one preallocated block, shifted in place: a cold table's first
        # call often draws every row, so its peak memory is two blocks
        raw = np.empty((len(ids), self.dim), dtype=np.uint64)
        for i, words in enumerate(self.seeds[ids]):
            raw[i] = PCG64(_CachedSeed(words)).random_raw(self.dim)
        # PCG64's words to doubles in [0, 1) as Generator.random makes them,
        # then to [lo, hi) as Generator.uniform does, operation for operation
        lo, hi = -0.5 / self.dim, 0.5 / self.dim
        raw >>= 11
        rows = raw.astype(np.float64)
        rows *= 2.0 ** -53
        rows *= hi - lo
        rows += lo
        return rows


class RowTable:
    """Rows of one growable dense (capacity, dim) float64 array, keyed by
    non-negative integer id, with a mask of the materialised rows.
    `materialise`, `row` and `rows` fill missing rows from `init`
    (ids -> rows) when the table has one.
    """

    def __init__(self, dim: int, init=None):
        self.dim = dim
        self.init = init
        self.data = np.zeros((0, dim))
        self.present = np.zeros(0, dtype=bool)

    def reserve(self, size: int) -> None:
        """Grow the capacity to at least `size` rows (to twice the current
        capacity, when that is more)."""
        cap = len(self.present)
        if size > cap:
            size = max(size, 2 * cap)
            data = np.zeros((size, self.dim))
            data[:cap] = self.data
            present = np.zeros(size, dtype=bool)
            present[:cap] = self.present
            self.data, self.present = data, present

    def _fit(self, ids: np.ndarray) -> None:
        """Check the ids of a non-empty int64 array and grow the table to
        hold them."""
        if ids.min() < 0:
            raise KeyError(f"negative row id {int(ids.min())}")
        self.reserve(int(ids.max()) + 1)

    def materialise(self, ids: np.ndarray) -> None:
        """Make the rows of `ids` (an int64 array) present, drawing missing
        ones from `init`."""
        if len(ids) == 0:
            return
        self._fit(ids)
        missing = ids[~self.present[ids]]
        if len(missing):
            if self.init is None:
                raise KeyError(f"row {int(missing[0])} is not set")
            missing = np.unique(missing)
            self.data[missing] = self.init(missing)
            self.present[missing] = True

    def row(self, key: int) -> np.ndarray:
        """A view of one row, materialised first."""
        self.materialise(np.array([key], dtype=np.int64))
        return self.data[key]

    def rows(self, ids) -> np.ndarray:
        """A copy of the rows of `ids`, materialised first."""
        ids = np.asarray(ids, dtype=np.int64)
        self.materialise(ids)
        return self.data[ids]

    def put(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Set the rows of distinct `ids`."""
        if len(ids):
            self._fit(ids)
            self.data[ids] = rows
            self.present[ids] = True

    def ids(self) -> np.ndarray:
        """The materialised ids, ascending."""
        return np.flatnonzero(self.present)

    def copy(self) -> "RowTable":
        other = RowTable(self.dim, self.init)
        other.data, other.present = self.data.copy(), self.present.copy()
        return other

    def __setitem__(self, key, row) -> None:
        # one row with scalar indexing: benchmarks/phases.py::_build_fixtures
        # writes 10,000 rows one at a time inside its timed setup, and `put`
        # would add its array set-up (id checks, fancy indexing) to each
        if not 0 <= key < len(self.present):
            if key < 0:
                raise KeyError(f"negative row id {key}")
            self.reserve(key + 1)
        self.data[key] = row
        self.present[key] = True


class ParamStore:
    """Per-vertex embeddings (lazily initialized), global logistic weights,
    and optional per-category embeddings, the embeddings in `RowTable`s.

    A missing row is drawn bit for bit as np.random.default_rng((seed,
    kind, key)) draws it (`UniformRows`), kind 0 for vertices and 1 for
    categories, so an entry's initial value does not depend on visit order
    or batch size. The seeds are hashed in bulk and cached per table, 32 B
    per row. `init_ids` optionally maps vertex index -> stable id, the key,
    so coupled graphs of different sizes share initializations for shared
    vertices. The seed and the init_ids must be >= 0; a vertex past the
    init_ids has no initial row (KeyError).
    """

    def __init__(self, dim: int, label_dim: int = 0, seed: int = 0,
                 init_ids: np.ndarray | None = None):
        self.dim = dim
        self.label_dim = label_dim
        self.seed = seed
        self.init_ids = init_ids
        keys = None if init_ids is None else np.asarray(init_ids, dtype=np.int64)
        if keys is not None and len(keys) and keys.min() < 0:
            raise ValueError(f"init_ids must be >= 0, got {int(keys.min())}")
        # the initialisers hold no reference to the store: a table that held
        # a method of its store would make a reference cycle, and dead stores
        # would wait for the cyclic garbage collector
        self.embeddings = RowTable(dim, UniformRows(seed, 0, dim, keys))
        self.category_embeddings = RowTable(dim, UniformRows(seed, 1, dim))
        self.weights = np.zeros((dim, label_dim))
        self.bias = np.zeros(label_dim)

    def embedding(self, v: int) -> np.ndarray:
        return self.embeddings.row(v)

    def embedding_matrix(self, vertices: np.ndarray) -> np.ndarray:
        rows = self.embeddings.rows(vertices)
        # no vertices give shape (0,), as they always have: callers compare
        # it with arrays built from empty row lists
        return rows if len(rows) else np.zeros(0)

    def copy(self) -> "ParamStore":
        other = ParamStore(self.dim, self.label_dim, self.seed, self.init_ids)
        other.embeddings = self.embeddings.copy()
        other.category_embeddings = self.category_embeddings.copy()
        other.weights = self.weights.copy()
        other.bias = self.bias.copy()
        return other


class SparseRows(Mapping):
    """The rows of the draws of a batch: `rows` (n,) distinct int64 ids,
    ascending, and `data` (n, d). Draw i's row of vertex v is at id
    i * V + v and its row of category c at i * C + c (C categories), so one
    draw's rows are at its plain ids. Read as a read-only mapping id -> row,
    which the benchmark's checks index, iterate and count."""

    def __init__(self, rows: np.ndarray, data: np.ndarray):
        self.rows = rows
        self.data = data

    def __getitem__(self, key) -> np.ndarray:
        i = int(np.searchsorted(self.rows, key))
        if i < len(self.rows) and self.rows[i] == key:
            return self.data[i]
        raise KeyError(key)

    def __iter__(self):
        return iter(self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class SparseGradient:
    """The gradients of the m draws of a batch: rows only for the vertices
    and categories that appear in each draw; dense for the global logistic
    parameters, `weights` (m, d, L) and `bias` (m, L)."""

    embeddings: SparseRows
    weights: np.ndarray
    bias: np.ndarray
    categories: SparseRows


# -- scoring ------------------------------------------------------------------

def _scatter(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, n_rows: int,
             x: np.ndarray) -> np.ndarray:
    """The scatter kernel: out[rows[k]] += weights[k] * x[cols[k]] over all
    k (repeats add up), out of shape (n_rows, d). It multiplies a sparse
    (n_rows, len(x)) coefficient matrix in CSR form into x, so its work and
    memory grow with the number of terms, not with n_rows * len(x)."""
    if len(rows) == 0:  # an empty draw: skip the CSR set-up (tens of us)
        return np.zeros((n_rows, x.shape[1]))
    # rows in the narrowest dtype that holds them: numpy radix-sorts 8- and
    # 16-bit keys, to the same stable order
    order = np.argsort(rows.astype(np.min_scalar_type(n_rows)), kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    coef = csr_array((weights[order], cols[order].astype(np.int32), indptr),
                     shape=(n_rows, len(x)))
    return coef @ x


def _unique_inverse(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) for non-negative integer ids:
    a stable LSD radix sort over 16-bit digits (numpy radix-sorts uint16
    keys), as many passes as the largest id has digits, then a flag where
    the sorted ids change and its running sum."""
    top = int(ids.max()) if len(ids) else 0
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        order = order[np.argsort((ids[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    ordered = ids[order]
    change = np.empty(len(ids), dtype=bool)
    change[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    inverse = np.empty(len(ids), dtype=np.intp)
    inverse[order] = np.cumsum(change) - 1
    return ordered[change], inverse


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return _sigmoid_and_exp(x)[0]


def _sigmoid_and_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(x) and the e = exp(-|x|) it is made of, for a caller that
    also wants softplus(x) = max(x, 0) + log1p(e)."""
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    # overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e), e


@dataclass
class _Scored:
    """One scoring pass over a batch of draws."""

    ids: np.ndarray          # distinct scored ids, ascending
    local: np.ndarray        # local index of each entry of batch.vertices
    vectors: np.ndarray      # (len(ids), d) vertex vectors
    pairs: np.ndarray        # (P, 2) local indices, positive pairs first
    n_pos: int
    scores: np.ndarray       # (P,) dot product of each pair
    # category mode: (owner, cat_local, cat_ids), membership k linking
    # ids[owner[k]] to category cat_ids[cat_local[k]]; else ()
    memberships: tuple


def _entries(batch: SubgraphBatch) -> np.ndarray:
    """The batch's vertices, then its pairs' endpoints, as one id array."""
    return np.concatenate([batch.vertices, batch.positive_pairs.reshape(-1),
                           batch.negative_pairs.reshape(-1)])


def _score_pairs(batch: SubgraphBatch, ids: np.ndarray, labels: LabelTable | None,
                 params: ParamStore, config: LossConfig, cats: CategoryMap | None) -> _Scored:
    """Local indices from one `_unique_inverse` over `ids`, the batch's
    entries as they are scored (the copy ids, or graph ids that draws
    holding one vertex share), the vectors of the distinct ones (in
    category mode the sums of their categories' embeddings), and every
    pair's dot product, gathered SCORE_BLOCK_BYTES of pair ends at a time.
    Checks the config, and that its mode has the labels (of the store's
    label_dim) or the categories it reads."""
    errs = config.validate()
    if errs:
        raise NumericError("; ".join(errs))
    if config.mode == "node_classification":
        if labels is None:
            raise NumericError("node_classification mode requires labels")
        if labels.label_dim != params.label_dim:
            raise NumericError(f"labels of label_dim {labels.label_dim} for params of "
                               f"label_dim {params.label_dim}")
    n_verts, v = len(batch.vertices), batch.vertex_count
    ids, inverse = _unique_inverse(ids)
    local = inverse[n_verts:].reshape(-1, 2)
    memberships = ()
    if config.mode != "category_embedding":
        vectors = params.embeddings.rows(ids % v)
    elif cats is None:
        raise NumericError("category_embedding mode requires a CategoryMap")
    elif len(cats.offsets) != v + 1:
        raise NumericError(f"category map of {len(cats.offsets) - 1} vertices for a graph of {v}")
    else:
        owner, at = gather_segments(cats.offsets, ids % v)
        cat_ids, cat_local = np.unique(cats.members[at], return_inverse=True)
        vectors = _scatter(owner, cat_local, np.ones(len(owner)), len(ids),
                           params.category_embeddings.rows(cat_ids))
        memberships = owner, cat_local, cat_ids
    if not np.isfinite(vectors).all():
        raise NumericError("non-finite embedding")
    block = max(1, SCORE_BLOCK_BYTES // (16 * max(vectors.shape[1], 1)))
    scores = np.empty(len(local))
    for lo in range(0, len(local), block):
        # vectors[local[lo:lo + block]], with less set-up per call
        ends = vectors.take(local[lo:lo + block], axis=0)
        np.einsum("ij,ij->i", ends[:, 0], ends[:, 1], out=scores[lo:lo + block])
    return _Scored(ids, inverse[:n_verts], vectors, local, len(batch.positive_pairs), scores,
                   memberships)


def _observed_base(batch: SubgraphBatch,
                   labels: LabelTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in batch.vertices of the base vertices (the first
    base_vertex_counts of each draw's) whose labels are observed, with the
    draw and the graph id of each."""
    draw, v = np.divmod(batch.vertices, batch.vertex_count)
    counts = np.bincount(draw, minlength=len(batch))
    rank = np.arange(len(draw)) - (np.cumsum(counts) - counts)[draw]
    at = np.flatnonzero((rank < batch.base_vertex_counts[draw]) & labels.mask[v])
    return at, draw[at], v[at]


def combined_loss(batch: SubgraphBatch, labels: LabelTable | None, params: ParamStore,
                  config: LossConfig, cats: CategoryMap | None = None) -> np.ndarray:
    """The loss of each draw of a batch: q * label loss + (1 - q) * edge
    loss (the configured mode decides which terms exist), from one scoring
    pass and one sum per term. The edge loss is the cross-entropy on sampled
    structure: -sum log sigma_eps over positive pairs, -sum log(1 -
    sigma_eps) over negatives, multiset multiplicity included. The label
    loss is the per-label logistic cross-entropy over the base vertices
    with observed (masked-true) labels."""
    V = batch.vertex_count
    sc = _score_pairs(batch, _entries(batch) % V, labels, params, config, cats)
    eps = config.prob_clip
    p = np.clip(_sigmoid(sc.scores), eps, 1.0 - eps)
    p[sc.n_pos:] = 1.0 - p[sc.n_pos:]
    draws = np.concatenate([batch.positive_pairs[:, 0], batch.negative_pairs[:, 0]]) // V
    losses = np.bincount(draws, weights=-np.log(p), minlength=len(batch))
    if config.mode == "node_classification":
        at, draw, v = _observed_base(batch, labels)
        f = np.clip(_sigmoid(sc.vectors[sc.local[at]] @ params.weights + params.bias),
                    eps, 1.0 - eps)
        l = labels.labels[v].astype(np.float64)
        terms = -(l * np.log(f) + (1.0 - l) * np.log(1.0 - f)).sum(axis=1)
        losses = (config.q * np.bincount(draw, weights=terms, minlength=len(batch))
                  + (1.0 - config.q) * losses)
    return losses


def gradient(batch: SubgraphBatch, labels: LabelTable | None, params: ParamStore,
             config: LossConfig, cats: CategoryMap | None = None) -> SparseGradient:
    """Exact analytic gradient of the configured loss of each draw of a
    batch with respect to every touched embedding, the global logistic
    parameters, and (in category mode, via the chain rule) every touched
    category embedding, from one scoring pass and one scatter per term.

    Embedding and category rows come one per distinct id of the batch,
    ascending (see `SparseRows`); `weights` is (m, d, L) and `bias` (m, L)
    for m draws. A batch of one draw gives one row per vertex, at its ids.
    """
    # the scored ids are the batch's own, so the distinct ones are the rows
    sc = _score_pairs(batch, _entries(batch), labels, params, config, cats)
    eps, m, n = config.prob_clip, len(batch), len(sc.ids)
    p = _sigmoid(sc.scores)
    # inside the clip region the derivative of -log p is (p - 1) for a
    # positive pair and p for a negative; the clipped region is flat
    coef = p.copy()
    coef[:sc.n_pos] -= 1.0
    coef[(p < eps) | (p > 1.0 - eps)] = 0.0
    if config.mode == "node_classification":
        coef *= 1.0 - config.q
    grad_vec = _scatter(np.concatenate([sc.pairs[:, 0], sc.pairs[:, 1]]),
                        np.concatenate([sc.pairs[:, 1], sc.pairs[:, 0]]),
                        np.concatenate([coef, coef]), n, sc.vectors)
    weights = np.zeros((m,) + params.weights.shape)
    bias = np.zeros((m,) + params.bias.shape)

    if config.mode == "node_classification" and config.q > 0.0:
        at, draw, v = _observed_base(batch, labels)
        if len(at):
            local, each = sc.local[at], np.arange(len(at))
            lam = sc.vectors[local]
            f = _sigmoid(lam @ params.weights + params.bias)
            l = labels.labels[v].astype(np.float64)
            gz = np.where((f >= eps) & (f <= 1.0 - eps), f - l, 0.0) * config.q
            if m == 1:  # the one draw's sums, as BLAS and np.sum add them
                weights[0], bias[0] = lam.T @ gz, gz.sum(axis=0)
            else:
                outer = (lam[:, :, None] * gz[:, None, :]).reshape(len(at), -1)
                weights = _scatter(draw, each, np.ones(len(at)), m, outer).reshape(weights.shape)
                bias = _scatter(draw, each, np.ones(len(at)), m, gz)
            grad_vec += _scatter(local, each, np.ones(len(at)), n, gz @ params.weights.T)

    vertices = categories = SparseRows(sc.ids[:0], grad_vec[:0])
    if config.mode == "category_embedding":
        # the chain rule: category c of a draw gathers the rows of that
        # draw's vertices in c
        owner, cat_local, cat_ids = sc.memberships
        draw = sc.ids // batch.vertex_count
        cat_rows, cat_row = np.unique(draw[owner] * cats.category_count + cat_ids[cat_local],
                                      return_inverse=True)
        categories = SparseRows(cat_rows, _scatter(cat_row, owner, np.ones(len(owner)),
                                                   len(cat_rows), grad_vec))
    else:
        vertices = SparseRows(sc.ids, grad_vec)
    return SparseGradient(vertices, weights, bias, categories)
