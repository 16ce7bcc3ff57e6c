"""Independent reference computations the benchmark checks the program
against. Plain numpy and Python; nothing here imports `relerm`, so a fault
shared by the program's sampler, loss and oracle code cannot hide in both.
"""

from __future__ import annotations

import itertools

import numpy as np

PROB_CLIP = 1e-7  # LossConfig().prob_clip, the loss the benchmark runs


class EdgeSet:
    """Membership of undirected pairs in an edge array, by sorted codes."""

    def __init__(self, vertex_count: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n = int(vertex_count)
        self.codes = np.unique(self._code(edges[:, 0], edges[:, 1]))

    def _code(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return np.minimum(u, v) * self.n + np.maximum(u, v)

    def _member(self, c: np.ndarray) -> np.ndarray:
        if not len(self.codes):
            return np.zeros(len(c), dtype=bool)
        i = np.minimum(np.searchsorted(self.codes, c), len(self.codes) - 1)
        return self.codes[i] == c

    def contains(self, u, v) -> np.ndarray:
        return self._member(self._code(u, v))

    def pair_codes(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return np.sort(self._code(pairs[:, 0], pairs[:, 1]))

    def induced(self, vertices) -> tuple[np.ndarray, np.ndarray]:
        """Sorted codes of the edges and the non-edges among `vertices`."""
        verts = np.unique(np.asarray(vertices, dtype=np.int64))
        if len(verts) < 2:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        a, b = np.meshgrid(verts, verts, indexing="ij")
        upper = a < b
        codes = np.sort(a[upper] * self.n + b[upper])
        hit = self._member(codes)
        return codes[hit], codes[~hit]


def clipped_sigmoid(s: np.ndarray) -> np.ndarray:
    return np.clip(0.5 * (1.0 + np.tanh(0.5 * s)), PROB_CLIP, 1.0 - PROB_CLIP)


class PairSum:
    """Risk as a weighted sum of clipped edge cross-entropy terms: each
    entry is (weight, u, v, is_positive)."""

    def __init__(self, weights, us, vs, positive):
        self.w = np.asarray(weights, dtype=np.float64)
        self.u = np.asarray(us, dtype=np.int64)
        self.v = np.asarray(vs, dtype=np.int64)
        self.pos = np.asarray(positive, dtype=bool)

    def value(self, emb: np.ndarray) -> float:
        p = clipped_sigmoid(np.einsum("ij,ij->i", emb[self.u], emb[self.v]))
        terms = np.where(self.pos, -np.log(p), -np.log1p(-p))
        return float(np.sum(self.w * terms))

    def finite_difference_gradient(self, emb: np.ndarray, h: float = 1e-5) -> np.ndarray:
        grad = np.zeros_like(emb)
        for idx in np.ndindex(*emb.shape):
            up, down = emb.copy(), emb.copy()
            up[idx] += h
            down[idx] -= h
            grad[idx] = (self.value(up) - self.value(down)) / (2 * h)
        return grad


def _pair_sum_of(outcomes) -> PairSum:
    w, us, vs, pos = [], [], [], []
    for prob, pairs, positive in outcomes:
        for a, b in pairs:
            w.append(prob)
            us.append(a)
            vs.append(b)
            pos.append(positive)
    return PairSum(w, us, vs, pos)


def psample_risk_terms(n: int, edges: np.ndarray, p: float) -> PairSum:
    """Brute-force p-sampling: every retention subset, its induced edges,
    isolated survivors dropped, induced non-edges among the survivors as
    negatives."""
    edge_set = {tuple(sorted(map(int, e))) for e in edges}
    outcomes = []
    for members in itertools.product((False, True), repeat=n):
        kept = [i for i in range(n) if members[i]]
        prob = p ** len(kept) * (1.0 - p) ** (n - len(kept))
        pos = [e for e in itertools.combinations(kept, 2) if e in edge_set]
        survivors = sorted({x for e in pos for x in e})
        neg = [e for e in itertools.combinations(survivors, 2) if e not in edge_set]
        outcomes.append((prob, pos, True))
        outcomes.append((prob, neg, False))
    return _pair_sum_of(outcomes)


def walk_risk_terms(n: int, edges: np.ndarray, r: int) -> PairSum:
    """Brute-force random-walk induced sampling: every walk of r steps from
    a uniformly chosen non-isolated start, each step to a uniform
    neighbour; positives are the induced edges among the visited vertices."""
    edge_set = {tuple(sorted(map(int, e))) for e in edges}
    adjacency = {v: sorted({b for a, b in edge_set if a == v}
                           | {a for a, b in edge_set if b == v}) for v in range(n)}
    starts = [v for v in range(n) if adjacency[v]]
    outcomes = []

    def extend(walk, prob):
        if len(walk) == r + 1:
            visited = sorted(set(walk))
            pos = [e for e in itertools.combinations(visited, 2) if e in edge_set]
            outcomes.append((prob, pos, True))
            return
        nbrs = adjacency[walk[-1]]
        for nxt in nbrs:
            extend(walk + [nxt], prob / len(nbrs))

    for v in starts:
        extend([v], 1.0 / len(starts))
    return _pair_sum_of(outcomes)


def edge_gradient(vertices: np.ndarray, emb: np.ndarray,
                  positive: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """Gradient of the clipped edge cross-entropy of one draw with respect to
    the rows `emb` of `vertices`, as a pair-coefficient matrix product.
    Inside the clip band d(-log p)/ds is p - 1 (positive) or p (negative);
    outside it the loss is flat."""
    index = {int(v): i for i, v in enumerate(vertices)}
    coef = np.zeros((len(vertices), len(vertices)))
    for pairs, shift in ((positive, -1.0), (negative, 0.0)):
        if len(pairs) == 0:
            continue
        ia = np.array([index[int(a)] for a in pairs[:, 0]])
        ib = np.array([index[int(b)] for b in pairs[:, 1]])
        raw = 0.5 * (1.0 + np.tanh(0.5 * np.einsum("ij,ij->i", emb[ia], emb[ib])))
        g = np.where((raw >= PROB_CLIP) & (raw <= 1.0 - PROB_CLIP), raw + shift, 0.0)
        # coef[i, j] collects the coefficient of row j in the gradient of row i
        np.add.at(coef, (ia, ib), g)
        np.add.at(coef, (ib, ia), g)
    return coef @ emb


def csr_violations(offsets, neighbors, edge_list) -> list[str]:
    """Graph invariants checked in numpy: offsets, sorted neighbour rows
    without self-loops, symmetric adjacency that matches the edge list, and
    no isolated vertex."""
    offsets = np.asarray(offsets, dtype=np.int64)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    edge_list = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    n = len(offsets) - 1
    bad = []
    deg = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(neighbors) or (deg < 0).any():
        return ["offsets malformed"]
    if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
        return ["neighbour out of range"]
    src = np.repeat(np.arange(n), deg)
    if (src == neighbors).any():
        bad.append("self-loop")
    same_row = src[1:] == src[:-1]
    if (np.diff(neighbors)[same_row] <= 0).any():
        bad.append("neighbour row not strictly ascending")
    fwd = np.sort(src * n + neighbors)
    if not np.array_equal(fwd, np.sort(neighbors * n + src)):
        bad.append("adjacency not symmetric")
    if (edge_list[:, 0] >= edge_list[:, 1]).any():
        bad.append("edge list row not u < v")
    upper = fwd[fwd // n < fwd % n]
    if not np.array_equal(np.sort(edge_list[:, 0] * n + edge_list[:, 1]), upper):
        bad.append("edge list differs from adjacency")
    if (deg == 0).any():
        bad.append(f"{int((deg == 0).sum())} isolated vertices")
    return bad


def graphex_edge_moments(n: float) -> tuple[float, float]:
    """Mean and variance of the edge count of one exp_decay graphex draw
    at size n (W(x, y) = exp(-x - y), unit-rate Poisson labels).

    Candidates form a Poisson process of intensity n on the latent axis.
    Given them, the count is a sum of independent Bernoulli(W) coins, so
        E[edges]   = n^2 / 2 * integral W          = n^2 / 2
        Var[edges] = n^2 / 2 * integral W
                     + n^3 * integral (integral W(x, y) dy)^2 dx
                   = n^2 / 2 + n^3 / 2
    (the second term is the Poisson U-statistic variance of the
    conditional mean; truncation at exp(-x_max) = 1e-8 is negligible)."""
    return n * n / 2.0, n * n / 2.0 + n ** 3 / 2.0
