import hashlib

import numpy as np
import pytest

from relerm import from_edges


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
