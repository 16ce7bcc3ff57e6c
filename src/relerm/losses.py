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
`data` is the (capacity, dim) array itself. A gradient carries its rows the
same way, as `SparseRows` (ascending ids and one row array).
The loss and the gradient take a `SubgraphBatch` and give one value per
draw; one draw is a batch of one. A gradient keeps the batch's id space:
vertex v of draw i has its row at id i * V + v. One pair-scoring pass
serves both the loss and its gradient, and every sum of rows into rows goes
through one scatter kernel.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .graph import CategoryMap, LabelTable
from .samplers import SubgraphBatch

LOSS_MODES = ("edge_only", "node_classification", "category_embedding")


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

def _uniform_rows(seed: int, kind: int, dim: int, keys: np.ndarray | None,
                  ids: np.ndarray) -> np.ndarray:
    """Initial rows for `ids`, each U(-0.5/dim, 0.5/dim) from a generator
    keyed by (seed, kind, key) with key = keys[id] (id itself when keys is
    None), so a row's initial value does not depend on visit order."""
    if keys is not None:
        ids = keys[ids]
    u = np.empty((len(ids), dim))
    for i, key in enumerate(ids.tolist()):
        u[i] = np.random.default_rng((seed, kind, key)).random(dim)
    lo, hi = -0.5 / dim, 0.5 / dim
    # bit for bit what Generator.uniform(lo, hi, dim) draws
    return lo + (hi - lo) * u


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

    A missing row is drawn from a generator keyed by (seed, kind, id), kind
    0 for vertices and 1 for categories, so an entry's initial value does
    not depend on visit order. `init_ids` optionally maps vertex index ->
    stable id, so coupled graphs of different sizes share initializations
    for shared vertices.
    """

    def __init__(self, dim: int, label_dim: int = 0, seed: int = 0,
                 init_ids: np.ndarray | None = None):
        self.dim = dim
        self.label_dim = label_dim
        self.seed = seed
        self.init_ids = init_ids
        keys = None if init_ids is None else np.asarray(init_ids, dtype=np.int64)
        # the initialisers are module-level partials: a table that held a
        # method of its store would make a reference cycle, and dead stores
        # would wait for the cyclic garbage collector
        self.embeddings = RowTable(dim, functools.partial(_uniform_rows, seed, 0, dim, keys))
        self.category_embeddings = RowTable(dim, functools.partial(_uniform_rows, seed, 1, dim, None))
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
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    coef = csr_array((weights[order], cols[order].astype(np.int32), indptr),
                     shape=(n_rows, len(x)))
    return coef @ x


def _memberships(ids: np.ndarray, cats: CategoryMap) -> tuple[np.ndarray, ...]:
    """The category memberships of vertices `ids` as (owner, cat_local,
    cat_ids): membership k links ids[owner[k]] to category
    cat_ids[cat_local[k]]."""
    members = [np.asarray(cats.memberships[v], dtype=np.int64) for v in ids.tolist()]
    owner = np.repeat(np.arange(len(ids)), [len(m) for m in members])
    cat_ids, cat_local = np.unique(np.concatenate(members) if members
                                   else np.zeros(0, dtype=np.int64), return_inverse=True)
    return owner, cat_local, cat_ids


def _vertex_vectors(ids: np.ndarray, params: ParamStore, config: LossConfig,
                    cats: CategoryMap | None) -> np.ndarray:
    """The vectors of distinct vertices `ids`; in category mode the sums of
    their categories' embeddings."""
    if config.mode != "category_embedding":
        return params.embeddings.rows(ids)
    if cats is None:
        raise NumericError("category_embedding mode requires a CategoryMap")
    owner, cat_local, cat_ids = _memberships(ids, cats)
    return _scatter(owner, cat_local, np.ones(len(owner)), len(ids),
                    params.category_embeddings.rows(cat_ids))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    # overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class _Scored:
    """One scoring pass over a batch of draws."""

    ids: np.ndarray          # distinct scored ids, ascending
    local: np.ndarray        # local index of each entry of batch.vertices
    vectors: np.ndarray      # (len(ids), d) vertex vectors
    pairs: np.ndarray        # (P, 2) local indices, positive pairs first
    n_pos: int
    scores: np.ndarray       # (P,) dot product of each pair


def _entries(batch: SubgraphBatch) -> np.ndarray:
    """The batch's vertices, then its pairs' endpoints, as one id array."""
    return np.concatenate([batch.vertices, batch.positive_pairs.reshape(-1),
                           batch.negative_pairs.reshape(-1)])


def _score_pairs(batch: SubgraphBatch, ids: np.ndarray, params: ParamStore,
                 config: LossConfig, cats: CategoryMap | None) -> _Scored:
    """Local indices from one np.unique over `ids`, the batch's entries as
    they are scored (the copy ids, or graph ids that draws holding one
    vertex share), the vectors of the distinct ones, and every pair's dot
    product."""
    n_verts = len(batch.vertices)
    ids, inverse = np.unique(ids, return_inverse=True)
    local = inverse[n_verts:].reshape(-1, 2)
    vectors = _vertex_vectors(ids % batch.vertex_count, params, config, cats)
    if not np.isfinite(vectors).all():
        raise NumericError("non-finite embedding")
    ends = vectors[local]
    scores = np.einsum("ij,ij->i", ends[:, 0], ends[:, 1])
    return _Scored(ids, inverse[:n_verts], vectors, local, len(batch.positive_pairs), scores)


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
    if config.mode == "node_classification" and labels is None:
        raise NumericError("node_classification mode requires labels")
    V = batch.vertex_count
    sc = _score_pairs(batch, _entries(batch) % V, params, config, cats)
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
    sc = _score_pairs(batch, _entries(batch), params, config, cats)
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
        if labels is None:
            raise NumericError("node_classification mode requires labels")
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
        draw, v = np.divmod(sc.ids, batch.vertex_count)
        owner, cat_local, cat_ids = _memberships(v, cats)
        cat_rows, cat_row = np.unique(draw[owner] * cats.category_count + cat_ids[cat_local],
                                      return_inverse=True)
        categories = SparseRows(cat_rows, _scatter(cat_row, owner, np.ones(len(owner)),
                                                   len(cat_rows), grad_vec))
    else:
        vertices = SparseRows(sc.ids, grad_vec)
    return SparseGradient(vertices, weights, bias, categories)
