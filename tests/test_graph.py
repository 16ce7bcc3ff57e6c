import io

import numpy as np
import pytest

from relerm import from_edges, induced_pairs, load_cache, load_edge_list, \
    load_labels, save_cache, validate
from relerm.graph import EmptyGraphError, Graph, GraphError, ParseError, \
    induced_edges


def pairs_set(arr):
    return {(min(a, b), max(a, b)) for a, b in arr.tolist()}


def test_from_edges_canonicalizes():
    g = from_edges(4, np.array([[2, 1], [1, 2], [3, 0]]))
    assert g.vertex_count == 4
    assert g.edge_count == 2
    assert pairs_set(g.edge_list) == {(1, 2), (0, 3)}
    assert list(g.neighbors_of(1)) == [2]
    assert g.has_edge(2, 1) and not g.has_edge(0, 1)


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphError):
        from_edges(2, np.array([[1, 1]]))


def test_load_edge_list_basic():
    src = io.StringIO("# comment\n10 20\n\n20 30\n")
    g, ids = load_edge_list(src)
    assert g.vertex_count == 3 and g.edge_count == 2
    assert ids == {10: 0, 20: 1, 30: 2}


def test_load_edge_list_errors():
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO("0 1\n0 1 2\n"))
    assert exc.value.line_no == 2
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("0 x\n"))
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("3 3\n"))
    with pytest.raises(EmptyGraphError):
        load_edge_list(io.StringIO("# nothing\n"))
    # self loops droppable on request
    g, _ = load_edge_list(io.StringIO("3 3\n0 1\n"), drop_self_loops=True)
    assert g.edge_count == 1


def test_load_edge_list_duplicate_policy():
    g, _ = load_edge_list(io.StringIO("0 1\n1 0\n"))
    assert g.edge_count == 1
    with pytest.raises(GraphError):
        load_edge_list(io.StringIO("0 1\n1 0\n"), deduplicate=False)


def test_load_edge_list_largest_component():
    g, ids = load_edge_list(io.StringIO("0 1\n1 2\n7 8\n"),
                            largest_component_only=True)
    assert g.vertex_count == 3 and g.edge_count == 2
    assert set(ids) == {0, 1, 2}


def test_load_labels(path3):
    t = load_labels(io.StringIO("0 3\n"), path3, 5)
    assert t.labels[0].tolist() == [False, False, False, True, False]
    assert not t.labels[1:].any()
    t = load_labels(io.StringIO(""), path3, 5)
    assert not t.labels.any()
    with pytest.raises(ParseError):
        load_labels(io.StringIO("0 9\n"), path3, 5)
    with pytest.raises(ParseError):
        load_labels(io.StringIO("9 0\n"), path3, 5)


def test_induced_pairs_triangle(triangle):
    pos, neg = induced_pairs(triangle, np.array([0, 1, 2]))
    assert len(pos) == 3 and len(neg) == 0


def test_induced_pairs_path(path3):
    pos, neg = induced_pairs(path3, np.array([0, 1, 2]))
    assert pairs_set(pos) == {(0, 1), (1, 2)}
    assert pairs_set(neg) == {(0, 2)}
    pos, neg = induced_pairs(path3, np.array([0, 2]))
    assert len(pos) == 0
    assert pairs_set(neg) == {(0, 2)}


def test_induced_pairs_cover_all_pairs(cycle4):
    pos, neg = induced_pairs(cycle4, np.arange(4))
    assert len(pos) + len(neg) == 6
    assert pairs_set(pos) | pairs_set(neg) == \
        {(a, b) for a in range(4) for b in range(a + 1, 4)}


def test_induced_edges_mask(path3):
    mask = np.array([True, True, False])
    assert pairs_set(induced_edges(path3, mask)) == {(0, 1)}


def test_induced_edges_matches_edge_list_mask():
    # the neighbour-list gather returns exactly the edge-list mask's rows,
    # in the same order and dtype, isolated vertices and extreme masks included
    rng = np.random.default_rng(3)
    for trial in range(40):
        v = int(rng.integers(2, 30))
        edges = rng.integers(v, size=(int(rng.integers(0, 3 * v)), 2))
        g = from_edges(v, edges[edges[:, 0] != edges[:, 1]])
        for mask in (np.zeros(v, dtype=bool), np.ones(v, dtype=bool),
                     rng.random(v) < rng.random()):
            want = g.edge_list[mask[g.edge_list[:, 0]] & mask[g.edge_list[:, 1]]]
            got = induced_edges(g, mask)
            assert got.dtype == np.int64 and got.shape == (len(want), 2)
            assert np.array_equal(got, want.astype(np.int64))


def test_validate_clean(path3, triangle, cycle4):
    for g in (path3, triangle, cycle4):
        assert validate(g) == []


def test_validate_detects_asymmetry(path3):
    # rewire one directed half-edge: 2's neighbor list claims 0
    neighbors = path3.neighbors.copy()
    neighbors[-1] = 0
    bad = Graph(path3.offsets, neighbors, path3.edge_list)
    report = validate(bad)
    assert any("asymmetric" in r for r in report)


def test_validate_detects_duplicate_edge(path3):
    dup = np.vstack([path3.edge_list, path3.edge_list[:1]])
    bad = Graph(path3.offsets, path3.neighbors, dup)
    report = validate(bad)
    assert any("duplicate" in r for r in report)


def test_cache_roundtrip(tmp_path, cycle4):
    path = str(tmp_path / "g.bin")
    save_cache(cycle4, path, {5: 0, 6: 1, 7: 2, 8: 3})
    g = load_cache(path)
    assert np.array_equal(g.offsets, cycle4.offsets)
    assert np.array_equal(g.neighbors, cycle4.neighbors)
    assert np.array_equal(g.edge_list, cycle4.edge_list)
    # same graph saved twice -> identical bytes
    path2 = str(tmp_path / "g2.bin")
    save_cache(cycle4, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_cache_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"XXXXrest")
    with pytest.raises(GraphError):
        load_cache(str(p))


def test_cache_rejects_truncated_and_padded_files(tmp_path, cycle4):
    path = tmp_path / "g.bin"
    save_cache(cycle4, str(path))
    data = path.read_bytes()
    # magic 4 bytes, header 20, offsets 5 * 8, neighbors 8 * 4, edge_list 8 * 4
    assert len(data) == 128
    for cut, field in ((0, "magic"), (2, "magic"), (10, "header"), (30, "offsets"),
                       (64 + 5, "neighbors"), (128 - 5, "edge_list"),
                       (128 - 1, "edge_list")):
        path.write_bytes(data[:cut])
        with pytest.raises(GraphError, match=field):
            load_cache(str(path))
    path.write_bytes(data + b"\0" * 3)
    with pytest.raises(GraphError, match="3 trailing bytes after the cache's edge_list"):
        load_cache(str(path))
