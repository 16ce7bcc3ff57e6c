import hashlib

import numpy as np
import pytest
from hypothesis import settings

from relerm import SubgraphBatch, from_edges

# property tests draw the same examples on every run and keep no example
# database, so a Tier-1 run is reproducible; no deadline, since timing on a
# shared machine varies
settings.register_profile("reproducible", derandomize=True, database=None, deadline=None)
settings.load_profile("reproducible")


def batch_of_one(vertices, pos=(), neg=(), base_vertex_count=None, vertex_count=None):
    """One draw with the given vertices and pairs, as a batch of one; every
    vertex is a base vertex unless base_vertex_count says otherwise. The
    draw's graph has vertex_count vertices, by default one more than the
    largest id given."""
    def arr(pairs):
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    vertices, pos, neg = np.array(vertices, dtype=np.int64), arr(pos), arr(neg)
    base = len(vertices) if base_vertex_count is None else base_vertex_count
    if vertex_count is None:
        vertex_count = int(np.concatenate([vertices, pos.ravel(), neg.ravel()]).max(initial=-1)) + 1
    return SubgraphBatch(vertices, pos, neg, np.array([base]), vertex_count)


@pytest.fixture
def digest():
    """A short hash of a sequence of arrays (dtype, shape and bytes) and
    plain values (repr), for golden-output tests."""
    def digest_of(items):
        h = hashlib.sha256()
        for x in items:
            if isinstance(x, np.ndarray):
                h.update(f"{x.dtype.str}{x.shape}".encode())
                h.update(np.ascontiguousarray(x).tobytes())
            else:
                h.update(repr(x).encode())
        return h.hexdigest()[:16]
    return digest_of


@pytest.fixture
def path3():
    # 0 - 1 - 2
    return from_edges(3, np.array([[0, 1], [1, 2]]))


@pytest.fixture
def path5():
    return from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))


@pytest.fixture
def triangle():
    return from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


@pytest.fixture
def k2():
    return from_edges(2, np.array([[0, 1]]))


@pytest.fixture
def cycle4():
    return from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))


@pytest.fixture
def star4():
    # center 0, leaves 1..3
    return from_edges(4, np.array([[0, 1], [0, 2], [0, 3]]))
