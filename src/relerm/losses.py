"""Loss functions and predictor families.

Three modes:
  edge_only            - cross-entropy on graph structure via embedding dot
                         products sigma(lambda_i . lambda_j)
  node_classification  - q * label cross-entropy + (1-q) * edge loss, with
                         per-label logistic predictions from the embeddings
  category_embedding   - edge loss where each vertex embedding is the sum
                         of its categories' embeddings

Output probabilities are clipped to [eps, 1-eps], which bounds the loss.

Parameters live in dense row tables. One pair-scoring pass serves both the
loss and its gradient, and every sum of rows into rows goes through one
scatter kernel.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .graph import CategoryMap, LabelTable
from .samplers import SampledSubgraph

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


class RowTable(MutableMapping):
    """Rows of one growable dense (capacity, dim) float64 array, keyed by
    non-negative integer id, with a mask of the materialised rows.

    As a mapping it holds the materialised rows in ascending id order, and
    `table[id]` is a view of the row, so in-place edits stick (a view stays
    valid until the table grows). `materialise`, `row` and `rows` fill
    missing rows from `init` (ids -> rows) when the table has one.
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

    def __getitem__(self, key) -> np.ndarray:
        if 0 <= key < len(self.present) and self.present[key]:
            return self.data[key]
        raise KeyError(key)

    def __setitem__(self, key, row) -> None:
        if not 0 <= key < len(self.present):
            if key < 0:
                raise KeyError(f"negative row id {key}")
            self.reserve(key + 1)
        self.data[key] = row
        self.present[key] = True

    def __delitem__(self, key) -> None:
        self[key]  # KeyError when the row is absent
        self.present[key] = False

    def __iter__(self):
        return iter(self.ids().tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.present))


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
        self._embeddings = RowTable(dim, functools.partial(_uniform_rows, seed, 0, dim, keys))
        self._categories = RowTable(dim, functools.partial(_uniform_rows, seed, 1, dim, None))
        self.weights = np.zeros((dim, label_dim))
        self.bias = np.zeros(label_dim)

    @property
    def embeddings(self) -> RowTable:
        return self._embeddings

    @embeddings.setter
    def embeddings(self, rows: Mapping) -> None:
        self._embeddings = _refilled(self._embeddings, rows)

    @property
    def category_embeddings(self) -> RowTable:
        return self._categories

    @category_embeddings.setter
    def category_embeddings(self, rows: Mapping) -> None:
        self._categories = _refilled(self._categories, rows)

    def embedding(self, v: int) -> np.ndarray:
        return self._embeddings.row(v)

    def category_embedding(self, c: int) -> np.ndarray:
        return self._categories.row(c)

    def embedding_matrix(self, vertices: np.ndarray) -> np.ndarray:
        rows = self._embeddings.rows(vertices)
        # no vertices give shape (0,), as they always have: callers compare
        # it with arrays built from empty row lists
        return rows if len(rows) else np.zeros(0)

    def copy(self) -> "ParamStore":
        other = ParamStore(self.dim, self.label_dim, self.seed, self.init_ids)
        other._embeddings = self._embeddings.copy()
        other._categories = self._categories.copy()
        other.weights = self.weights.copy()
        other.bias = self.bias.copy()
        return other


def _refilled(table: RowTable, rows: Mapping) -> RowTable:
    """A table with `table`'s initialiser holding exactly `rows`."""
    out = RowTable(table.dim, table.init)
    out.update(rows)
    return out


class SparseRows(Mapping):
    """Rows at distinct ascending ids: `rows` (n,) int64 and `data` (n, d).
    Read as a mapping id -> row."""

    def __init__(self, rows: np.ndarray, data: np.ndarray):
        self.rows = rows
        self.data = data

    @classmethod
    def of(cls, mapping: Mapping) -> "SparseRows":
        keys = sorted(mapping)
        data = (np.array([mapping[k] for k in keys], dtype=np.float64) if keys
                else np.zeros((0, 0)))
        return cls(np.array(keys, dtype=np.int64), data)

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
    """Gradient carrier: rows only for vertices/categories that appear in
    the sample; dense for the global logistic parameters. `embeddings` and
    `categories` may be given as dicts {id: row}."""

    embeddings: SparseRows = field(default_factory=dict)
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    categories: SparseRows = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.embeddings, SparseRows):
            self.embeddings = SparseRows.of(self.embeddings)
        if not isinstance(self.categories, SparseRows):
            self.categories = SparseRows.of(self.categories)


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


def category_vertex_embedding(vertex: int, cats: CategoryMap,
                              params: ParamStore) -> np.ndarray:
    """Vertex embedding as the sum of its categories' embeddings (zero
    vector for a vertex with no categories)."""
    members = cats.memberships[vertex]
    vec = np.zeros(params.dim)
    for c in members:
        vec += params.category_embedding(int(c))
    return vec


def _vertex_vectors(ids: np.ndarray, params: ParamStore, config: LossConfig,
                    cats: CategoryMap | None) -> tuple[np.ndarray, tuple | None]:
    """The vectors of distinct vertices `ids`. In category mode also their
    memberships (owner, cat_local, cat_ids): membership k links local
    vertex owner[k] to category cat_ids[cat_local[k]]."""
    if config.mode != "category_embedding":
        return params.embeddings.rows(ids), None
    if cats is None:
        raise NumericError("category_embedding mode requires a CategoryMap")
    members = [np.asarray(cats.memberships[v], dtype=np.int64) for v in ids.tolist()]
    owner = np.repeat(np.arange(len(ids)), [len(m) for m in members])
    cat_ids, cat_local = np.unique(np.concatenate(members) if members
                                   else np.zeros(0, dtype=np.int64), return_inverse=True)
    vectors = _scatter(owner, cat_local, np.ones(len(owner)), len(ids),
                       params.category_embeddings.rows(cat_ids))
    return vectors, (owner, cat_local, cat_ids)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    # overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class _Scored:
    """One scoring pass over a sample."""

    ids: np.ndarray          # distinct vertex ids, ascending
    local: np.ndarray        # local index of each entry of sample.vertices
    vectors: np.ndarray      # (len(ids), d) vertex vectors
    incidence: tuple | None  # category memberships, see _vertex_vectors
    pairs: np.ndarray        # (P, 2) local indices, positive pairs first
    n_pos: int
    scores: np.ndarray       # (P,) dot product of each pair


def _score_pairs(sample: SampledSubgraph, params: ParamStore, config: LossConfig,
                 cats: CategoryMap | None) -> _Scored:
    """Local indices from one np.unique over the sample's vertices and pair
    endpoints, the vectors of the distinct vertices, and every pair's dot
    product."""
    n_verts = len(sample.vertices)
    ids, inverse = np.unique(np.concatenate([sample.vertices,
                                             sample.positive_pairs.reshape(-1),
                                             sample.negative_pairs.reshape(-1)]),
                             return_inverse=True)
    local = inverse[n_verts:].reshape(-1, 2)
    vectors, incidence = _vertex_vectors(ids, params, config, cats)
    if not np.isfinite(vectors).all():
        raise NumericError("non-finite embedding")
    ends = vectors[local]
    scores = np.einsum("ij,ij->i", ends[:, 0], ends[:, 1])
    return _Scored(ids, inverse[:n_verts], vectors, incidence, local,
                   len(sample.positive_pairs), scores)


def edge_loss(sample: SampledSubgraph, params: ParamStore, config: LossConfig,
              cats: CategoryMap | None = None) -> float:
    """Cross-entropy on sampled structure: -sum log sigma_eps over positive
    pairs, -sum log(1 - sigma_eps) over negatives, multiset multiplicity
    included."""
    sc = _score_pairs(sample, params, config, cats)
    eps = config.prob_clip
    p = np.clip(_sigmoid(sc.scores), eps, 1.0 - eps)
    return float(-np.log(p[:sc.n_pos]).sum() - np.log(1.0 - p[sc.n_pos:]).sum())


def _observed_base(sample: SampledSubgraph, labels: LabelTable) -> tuple[np.ndarray, np.ndarray]:
    """The sample's base vertices whose labels are observed, and their
    positions in sample.vertices."""
    base = np.asarray(sample.base_vertices, dtype=np.int64)
    at = np.flatnonzero(labels.mask[base])
    return base[at], at


def label_loss(sample: SampledSubgraph, labels: LabelTable, params: ParamStore,
               config: LossConfig) -> float:
    """Per-label logistic cross-entropy over the sample's base vertices
    with observed (masked-true) labels."""
    verts, _ = _observed_base(sample, labels)
    if len(verts) == 0:
        return 0.0
    lam = params.embedding_matrix(verts)
    if not np.isfinite(lam).all():
        raise NumericError("non-finite embedding")
    z = lam @ params.weights + params.bias
    eps = config.prob_clip
    f = np.clip(_sigmoid(z), eps, 1.0 - eps)
    l = labels.labels[verts].astype(np.float64)
    return float(-(l * np.log(f) + (1.0 - l) * np.log(1.0 - f)).sum())


def combined_loss(sample: SampledSubgraph, labels: LabelTable | None,
                  params: ParamStore, config: LossConfig,
                  cats: CategoryMap | None = None) -> float:
    """q * label loss + (1 - q) * edge loss (the configured mode decides
    which terms exist)."""
    if config.mode == "edge_only" or config.mode == "category_embedding":
        return edge_loss(sample, params, config, cats)
    if labels is None:
        raise NumericError("node_classification mode requires labels")
    return (config.q * label_loss(sample, labels, params, config)
            + (1.0 - config.q) * edge_loss(sample, params, config, cats))


def gradient(sample: SampledSubgraph, labels: LabelTable | None,
             params: ParamStore, config: LossConfig,
             cats: CategoryMap | None = None) -> SparseGradient:
    """Exact analytic gradient of the configured loss with respect to every
    touched embedding, the global logistic parameters, and (in category
    mode, via the chain rule) every touched category embedding."""
    sc = _score_pairs(sample, params, config, cats)
    eps = config.prob_clip
    n = len(sc.ids)
    p = _sigmoid(sc.scores)
    # inside the clip region the derivative of -log p is (p - 1) for a
    # positive pair and p for a negative; the clipped region is flat
    coef = p.copy()
    coef[:sc.n_pos] -= 1.0
    coef[(p < eps) | (p > 1.0 - eps)] = 0.0
    if config.mode == "node_classification":
        coef *= 1.0 - config.q
    a, b = sc.pairs[:, 0], sc.pairs[:, 1]
    grad_vec = _scatter(np.concatenate([a, b]), np.concatenate([b, a]),
                        np.concatenate([coef, coef]), n, sc.vectors)
    weights, bias = np.zeros_like(params.weights), np.zeros_like(params.bias)

    if config.mode == "node_classification" and config.q > 0.0:
        if labels is None:
            raise NumericError("node_classification mode requires labels")
        verts, at = _observed_base(sample, labels)
        if len(verts):
            rows = sc.local[at]
            lam = sc.vectors[rows]
            z = lam @ params.weights + params.bias
            f = _sigmoid(z)
            l = labels.labels[verts].astype(np.float64)
            gz = np.where((f >= eps) & (f <= 1.0 - eps), f - l, 0.0) * config.q
            weights = lam.T @ gz
            bias = gz.sum(axis=0)
            grad_vec += _scatter(rows, np.arange(len(rows)), np.ones(len(rows)), n,
                                 gz @ params.weights.T)

    none = SparseRows(sc.ids[:0], grad_vec[:0])
    if config.mode != "category_embedding":
        return SparseGradient(SparseRows(sc.ids, grad_vec), weights, bias, none)
    owner, cat_local, cat_ids = sc.incidence
    cat_grad = _scatter(cat_local, owner, np.ones(len(owner)), len(cat_ids), grad_vec)
    return SparseGradient(none, weights, bias, SparseRows(cat_ids, cat_grad))
