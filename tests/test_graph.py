import io

import numpy as np
import pytest

from relerm import from_edges, induced_pairs, load_cache, load_edge_list, \
    load_labels, save_cache, validate
from relerm.graph import CategoryMap, EmptyGraphError, Graph, GraphError, ParseError, \
    gather_segments, induced_edges


def pairs_set(arr):
    return {(min(a, b), max(a, b)) for a, b in arr.tolist()}


def test_from_edges_canonicalizes():
    g = from_edges(4, np.array([[2, 1], [1, 2], [3, 0]]))
    assert g.vertex_count == 4
    assert g.edge_count == 2
    assert pairs_set(g.edge_list) == {(1, 2), (0, 3)}
    assert list(g.neighbors_of(1)) == [2]
    assert g.has_edge(2, 1) and not g.has_edge(0, 1)


def test_has_edges_rejects_vertices_out_of_range():
    # code u * V + v of (0, 5) would alias the edge (1, 2)
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(GraphError, match="vertex id 5 outside"):
        g.has_edge(0, 5)
    with pytest.raises(GraphError, match="vertex id 5 outside"):
        g.has_edges(np.array([0, 2]), np.array([5, 4]))
    with pytest.raises(GraphError, match="vertex id -1 outside"):
        g.has_edges(np.array([1, -1]), np.array([2, 0]))
    assert g.has_edges(np.array([1, 0]), np.array([2, 2])).tolist() == [True, False]
    assert len(g.has_edges(np.zeros(0), np.zeros(0))) == 0


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


def test_load_edge_list_largest_component():
    g, ids = load_edge_list(io.StringIO("0 1\n1 2\n7 8\n"),
                            largest_component_only=True)
    assert g.vertex_count == 3 and g.edge_count == 2
    assert set(ids) == {0, 1, 2}
    # the survivors keep their order and are relabelled densely
    g, ids = load_edge_list(io.StringIO("0 1\n9 5\n5 7\n7 9\n"),
                            largest_component_only=True)
    assert ids == {5: 0, 7: 1, 9: 2}
    assert g.edge_list.tolist() == [[0, 1], [0, 2], [1, 2]] and not validate(g)


def test_category_map_holds_csr_memberships():
    cats = CategoryMap(3, np.array([0, 2, 2, 3]), np.array([0, 2, 1]))
    assert cats.members[cats.offsets[2]:cats.offsets[3]].tolist() == [1]


def test_category_map_rejects_a_negative_member():
    with pytest.raises(GraphError, match=r"category ids -1\.\.0 out of range"):
        CategoryMap(2, np.array([0, 1, 2]), np.array([-1, 0]))


def test_category_map_rejects_a_member_past_the_count():
    with pytest.raises(GraphError, match=r"category ids 0\.\.2 out of range \[0, 2\)"):
        CategoryMap(2, np.array([0, 1, 2]), np.array([0, 2]))


@pytest.mark.parametrize("offsets", [[], [1, 1], [0, 2, 1], [0, 2], [[0, 1]], [0.0, 1.0]])
def test_category_map_rejects_malformed_offsets(offsets):
    with pytest.raises(GraphError, match="category map malformed"):
        CategoryMap(2, np.array(offsets), np.array([1]))


def test_gather_segments_reads_selected_rows_in_order():
    offsets = np.array([0, 2, 2, 5, 6])  # row 1 is empty
    owner, at = gather_segments(offsets, np.array([2, 1, 0, 2]))
    assert owner.tolist() == [0, 0, 0, 2, 2, 3, 3, 3]
    assert at.tolist() == [2, 3, 4, 0, 1, 2, 3, 4]
    owner, at = gather_segments(offsets, np.zeros(0, dtype=np.int64))
    assert len(owner) == len(at) == 0


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


def test_induced_pairs_rejects_vertices_out_of_range(path3):
    # ids >= V name vertices of further copies only when the caller says how
    # many copies there are
    for verts in ([0, 3], [1, 2, 4], [-1, 0]):
        with pytest.raises(GraphError):
            induced_pairs(path3, np.array(verts))
    with pytest.raises(GraphError):
        induced_pairs(path3, np.array([0, 6]), copies=2)
    pos, neg = induced_pairs(path3, np.array([0, 1, 3, 5]), copies=2)
    assert pairs_set(pos) == {(0, 1)} and pairs_set(neg) == {(3, 5)}


def test_induced_edges_rejects_a_mask_of_another_length(path3):
    for mask in (np.ones(2, dtype=bool), np.ones(6, dtype=bool), np.ones((2, 4), dtype=bool)):
        with pytest.raises(GraphError):
            induced_edges(path3, mask)
    rows = np.array([[True, True, False], [False, True, True]])
    assert pairs_set(induced_edges(path3, rows)) == {(0, 1), (4, 5)}


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


VIOLATION_KINDS = ("not sorted", "self-loop", "asymmetric", "not u < v", "out of range",
                   "duplicate", "missing from adjacency", "sum(degrees)")


def reference_report(g):
    """validate's report built from a loop over every adjacency entry and
    edge-list row: each kind of violation names its first offender and
    counts the rest."""
    v, offsets = g.vertex_count, g.offsets.tolist()
    adj = [g.neighbors[offsets[u]:offsets[u + 1]].tolist() for u in range(v)]
    entries = [(u, w) for u in range(v) for w in adj[u]]
    rows = [tuple(r) for r in g.edge_list.tolist()]
    found = {
        "sorted": [f"neighbors of {u} not sorted strictly ascending (duplicate or disorder)"
                   for u in range(v) for i in range(1, len(adj[u]))
                   if adj[u][i] <= adj[u][i - 1]],
        "self-loop": [f"self-loop at {u}" for u, w in entries if u == w],
        "asymmetric": [f"asymmetric adjacency: {u}->{w} without reverse"
                       for u, w in entries if (w, u) not in set(entries)],
        "order": [f"edge_list rows not u < v: ({a},{b})" for a, b in rows if a >= b],
        "range": [f"edge_list pair ({a},{b}) out of range" for a, b in rows
                  if not (0 <= min(a, b) and max(a, b) < v)],
        "duplicate": [f"duplicate edges in edge_list: ({a},{b})"
                      for i, (a, b) in enumerate(rows) if (a, b) in rows[:i]],
        "missing": [f"edge_list pair ({a},{b}) missing from adjacency" for a, b in rows
                    if 0 <= min(a, b) and max(a, b) < v and (a, b) not in set(entries)],
    }
    report = [lines[0] + (f" (and {len(lines) - 1} more)" if len(lines) > 1 else "")
              for lines in found.values() if lines]
    return report + (["sum(degrees) != 2 * edge_count"] if len(entries) != 2 * len(rows) else [])


def test_validate_matches_a_loop_over_entries_and_rows():
    rng = np.random.default_rng(4)
    kinds = set()
    for trial in range(400):
        v = int(rng.integers(1, 9))
        edges = rng.integers(v, size=(int(rng.integers(0, 2 * v)), 2))
        g = from_edges(v, edges[edges[:, 0] != edges[:, 1]])
        neighbors, edge_list = g.neighbors.copy(), g.edge_list.copy()
        corrupt = trial % 6
        if corrupt == 0 and len(neighbors):     # rewire one half-edge
            neighbors[rng.integers(len(neighbors))] = rng.integers(v)
        elif corrupt == 1 and len(edge_list):   # duplicate a row
            edge_list = np.vstack([edge_list, edge_list[rng.integers(len(edge_list), size=2)]])
        elif corrupt == 2 and len(edge_list):   # flip a row
            edge_list[rng.integers(len(edge_list))] = edge_list[0, ::-1]
        elif corrupt == 3 and len(neighbors) > 1:
            neighbors = rng.permutation(neighbors)
        elif corrupt == 4 and len(edge_list):   # a row naming vertices out of range
            edge_list[rng.integers(len(edge_list))] = (rng.integers(-1, 1), v + 1)
        elif corrupt == 5 and len(edge_list):
            edge_list[rng.integers(len(edge_list)), 1] = rng.integers(v)
        bad = Graph(g.offsets, neighbors, edge_list)
        report = validate(bad)
        assert report == reference_report(bad)
        kinds |= {kind for kind in VIOLATION_KINDS for line in report if kind in line}
    assert kinds == set(VIOLATION_KINDS)  # the corruptions reach every kind


def test_validate_rejects_malformed_offsets_and_indices(path3):
    for offsets in ([1, 1, 3, 4], [0, 3, 2, 4], [0, 1, 3]):
        bad = Graph(np.array(offsets), path3.neighbors, path3.edge_list)
        assert validate(bad) == ["offsets malformed"]
    neighbors = path3.neighbors.copy()
    neighbors[0] = 3
    assert validate(Graph(path3.offsets, neighbors, path3.edge_list)) == \
        ["neighbor index out of range"]


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
