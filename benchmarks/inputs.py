"""Benchmark inputs, all generated from the workload seed.

Nothing here calls into `relerm`: the program only ever sees what these
functions return (edge-list text, label arrays, feature rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlantedSpec:
    vertices: int = 10_000
    blocks: int = 20
    degree_in: float = 8.0    # Bernoulli neighbours inside the block (+2 from the ring)
    degree_out: float = 2.0   # expected neighbours in other blocks


@dataclass(frozen=True)
class Planted:
    edges: np.ndarray   # int64 (E, 2), u < v, sorted, unique
    block: np.ndarray   # int64 (V,), block of each vertex
    spec: PlantedSpec

    @property
    def labels(self) -> np.ndarray:
        """One-hot block labels, bool (V, blocks)."""
        out = np.zeros((self.spec.vertices, self.spec.blocks), dtype=bool)
        out[np.arange(self.spec.vertices), self.block] = True
        return out


def planted_partition(spec: PlantedSpec, rng: np.random.Generator) -> Planted:
    """Planted-partition graph: equal blocks, Bernoulli edges inside each
    block, and a Binomial number of uniformly placed edges across blocks.
    Every vertex ends up with at least one edge, so vertex ids written to
    the edge list are exactly 0..V-1 and survive relabelling unchanged."""
    v, b = spec.vertices, spec.blocks
    size = v // b
    if size * b != v:
        raise ValueError("vertices must be a multiple of blocks")
    block = np.repeat(np.arange(b, dtype=np.int64), size)
    iu, ju = np.triu_indices(size, k=1)
    parts = []
    for k in range(b):
        keep = rng.random(len(iu)) < spec.degree_in / (size - 1)
        parts.append(np.stack([iu[keep], ju[keep]], axis=1) + k * size)
    cross = rng.binomial(v * (v - size) // 2, spec.degree_out / (v - size))
    u = rng.integers(v, size=2 * cross + 16)
    w = rng.integers(v, size=2 * cross + 16)
    ok = block[u] != block[w]
    u, w = u[ok][:cross], w[ok][:cross]
    parts.append(np.stack([np.minimum(u, w), np.maximum(u, w)], axis=1))
    # a ring inside each block guarantees no isolated vertex
    ring = np.arange(v)
    nxt = np.where(ring % size == size - 1, ring - size + 1, ring + 1)
    parts.append(np.stack([np.minimum(ring, nxt), np.maximum(ring, nxt)], axis=1))
    edges = np.unique(np.concatenate(parts).astype(np.int64), axis=0)
    return Planted(edges=edges, block=block, spec=spec)


def edge_list_text(edges: np.ndarray) -> str:
    return "".join(f"{a} {b}\n" for a, b in edges.tolist())


def planted_features(planted: Planted, rng: np.random.Generator,
                     noise: float = 0.4) -> np.ndarray:
    """Block one-hot plus Gaussian noise: features with a known linear
    signal for the classifier when the trained embeddings carry none."""
    return planted.labels.astype(np.float64) + noise * rng.standard_normal(
        planted.labels.shape)


# -- risk-check fixtures ------------------------------------------------------
#
# The acceptance fixtures, with fixed seeds: the risk checks hold some 90
# statistics to 4 SE, and with seed-dependent inputs about one run in two
# hundred would fail by chance alone.

FIXTURE_PSAMPLE_RETENTION = 0.35
FIXTURE_DIM = 3


def _random_edges(n: int, p: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    return np.stack([iu[keep], ju[keep]], axis=1)


def fixture_edges() -> dict[str, tuple[int, np.ndarray]]:
    """name -> (vertex count, edge array)."""
    return {
        "path3": (3, np.array([[0, 1], [1, 2]])),
        "triangle": (3, np.array([[0, 1], [1, 2], [0, 2]])),
        "cycle4": (4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]])),
        "star4": (4, np.array([[0, 1], [0, 2], [0, 3]])),
        "path5": (5, np.array([[i, i + 1] for i in range(4)])),
        "rand8": (8, _random_edges(8, 0.4, 100)),
        "rand10": (10, _random_edges(10, 0.3, 101)),
    }


def fixture_embeddings(n: int, dim: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(scale=0.4, size=(n, dim))
