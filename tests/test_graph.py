import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relerm import GraphonSpec, from_edges, induced_pairs, load_cache, load_edge_list, \
    load_labels, sample_graphex, save_cache, validate
from relerm.graph import CategoryMap, EmptyGraphError, Graph, GraphError, ParseError, \
    gather_segments, induced_edges


def pairs_set(arr):
    return {(min(a, b), max(a, b)) for a, b in arr.tolist()}


def test_from_edges_canonicalizes():
    g = from_edges(4, np.array([[2, 1], [1, 2], [3, 0]]))
    assert g.vertex_count == 4
    assert g.edge_count == 2
    assert pairs_set(g.edge_list) == {(1, 2), (0, 3)}
    assert g.neighbors[g.offsets[1]:g.offsets[2]].tolist() == [2]
    assert g.has_edges(np.array([2, 0]), np.array([1, 1])).tolist() == [True, False]


def test_has_edges_rejects_vertices_out_of_range():
    # code u * V + v of (0, 5) would alias the edge (1, 2)
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    with pytest.raises(GraphError, match="vertex id 5 outside"):
        g.has_edges(np.array([0]), np.array([5]))
    with pytest.raises(GraphError, match="vertex id 5 outside"):
        g.has_edges(np.array([0, 2]), np.array([5, 4]))
    with pytest.raises(GraphError, match="vertex id -1 outside"):
        g.has_edges(np.array([1, -1]), np.array([2, 0]))
    assert g.has_edges(np.array([1, 0]), np.array([2, 2])).tolist() == [True, False]
    assert len(g.has_edges(np.zeros(0), np.zeros(0))) == 0


def test_from_edges_edge_list_is_the_distinct_sorted_rows():
    # any orientation and repeats in, each edge once as (u, v), u < v, out,
    # in lexicographic order; E = 0 and isolated vertices included
    rng = np.random.default_rng(5)
    for trial in range(200):
        v = int(rng.integers(1, 12))
        edges = rng.integers(v, size=(int(rng.integers(0, 3 * v)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        edges = np.concatenate([edges, edges[:trial % 3, ::-1], edges[:trial % 2]])
        want = np.unique(np.sort(edges, axis=1), axis=0).astype(np.int32).reshape(-1, 2)
        g = from_edges(v, edges)
        assert g.edge_list.dtype == np.int32 and np.array_equal(g.edge_list, want)
        assert g.edge_count == len(want)


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


def test_load_edge_list_rejects_ids_past_int64_naming_the_line(path3):
    g, ids = load_edge_list(io.StringIO(f"{2 ** 63 - 1} 1\n"))
    assert ids == {1: 0, 2 ** 63 - 1: 1}
    for text in ("99999999999999999999 1\n", f"0 1\n1 {2 ** 63}\n"):
        with pytest.raises(ParseError, match="vertex id not below 2\\^63") as exc:
            load_edge_list(io.StringIO(text))
        assert exc.value.line_no == text.count("\n")
    with pytest.raises(ParseError, match="vertex out of range") as exc:
        load_labels(io.StringIO("0 1\n99999999999999999999 1\n"), path3, 2)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("field", ["+5", "1_000", "١", "１", "-0", "1e3", "0x1"])
def test_ids_are_ascii_decimal_digits_only(field, path3):
    # Python's int() reads all but the last two
    with pytest.raises(ParseError, match="non-integer vertex id") as exc:
        load_edge_list(io.StringIO(f"0 1\n{field} 2\n"))
    assert exc.value.line_no == 2
    with pytest.raises(ParseError, match="non-integer field") as exc:
        load_labels(io.StringIO(f"0 1\n1 {field}\n"), path3, 2)
    assert exc.value.line_no == 2


# -- property tests of the text reader ----------------------------------------

blanks = st.text(" \t", max_size=3)
fillers = st.one_of(blanks, st.builds(lambda pre, rest: pre + "#" + rest, blanks,
                                      st.text(" \t#-x09", max_size=6)))


@st.composite
def rendered(draw, rows):
    """`rows` as the lines of a text file, without their '\\n', between
    blank and '#' lines, with random blanks around and between the two
    fields and a '\\r' before some line ends; and the line number of each
    row."""
    lines, line_nos = [], []
    for a, b in rows:
        lines += draw(st.lists(fillers, max_size=2))
        lines.append(draw(blanks) + str(a) + draw(blanks.map(lambda s: s or " ")) + str(b)
                     + draw(blanks) + draw(st.sampled_from(["", "\r"])))
        line_nos.append(len(lines))
    lines += draw(st.lists(fillers, max_size=2))
    return lines, line_nos


def sources(draw, lines):
    """The same lines as a text file (with or without a last '\\n') and as a
    list of lines (each with or without its '\\n')."""
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    ends = draw(st.lists(st.sampled_from(["", "\n"]), min_size=len(lines), max_size=len(lines)))
    return [io.StringIO(text), [line + end for line, end in zip(lines, ends)]]


def assert_corrupt_line_named(load, data, lines, line_nos, faults):
    """Replace one data line by a line that breaks one rule; the loader
    must raise a ParseError with that line's number and the rule's reason."""
    if not line_nos:
        return
    at = data.draw(st.sampled_from(line_nos))
    line, reason = data.draw(st.sampled_from(faults(*map(int, lines[at - 1].split()))))
    lines = lines[:at - 1] + [line] + lines[at:]
    for source in sources(data.draw, lines):
        with pytest.raises(ParseError, match=reason) as exc:
            load(source)
        assert exc.value.line_no == at


ids = st.one_of(st.integers(0, 12), st.integers(0, 2 ** 63 - 1))


@given(rows=st.lists(st.tuples(ids, ids), max_size=12), drop=st.booleans(), data=st.data())
def test_load_edge_list_equals_from_edges_on_any_rendering(rows, drop, data):
    if not drop:
        rows = [(a, b) for a, b in rows if a != b]
    lines, line_nos = data.draw(rendered(rows))
    pairs = np.array([(a, b) for a, b in rows if a != b], dtype=np.int64).reshape(-1, 2)
    for source in sources(data.draw, lines):
        if not len(pairs):  # whitespace and comments only, or self-loops dropped
            with pytest.raises(EmptyGraphError):
                load_edge_list(source, drop_self_loops=drop)
            continue
        g, relabel = load_edge_list(source, drop_self_loops=drop)
        original = np.unique(pairs)
        want = from_edges(len(original), np.searchsorted(original, pairs))
        for name in ("offsets", "neighbors", "edge_list"):
            got, expected = getattr(g, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        assert relabel == dict(zip(original.tolist(), range(len(original))))

    def faults(a, b):
        return [(f"{a} {b} {b}", "expected two fields"), (f"{a} {b}x", "non-integer vertex id"),
                (f"{a} -{b + 1}", "negative vertex id"),
                (f"{a} {2 ** 63 + b}", "vertex id not below 2\\^63")] \
            + ([] if drop else [(f"{a} {a}", "self-loop")])
    assert_corrupt_line_named(lambda s: load_edge_list(s, drop_self_loops=drop),
                              data, lines, line_nos, faults)


@given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=12),
       data=st.data())
def test_load_labels_sets_each_row_on_any_rendering(rows, data):
    graph = from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    lines, line_nos = data.draw(rendered(rows))
    want = np.zeros((5, 3), dtype=bool)
    for v, label in rows:
        want[v, label] = True
    for source in sources(data.draw, lines):
        table = load_labels(source, graph, 3)
        assert np.array_equal(table.labels, want) and table.mask.all()

    def faults(v, label):
        return [(f"{v} {label} {label}", "expected two fields"),
                (f"x{v} {label}", "non-integer field"), (f"{v} -{label + 1}", "label index out"),
                (f"{2 ** 63 + v} {label}", "vertex out of range"),
                (f"{v + 5} {label}", "vertex out of range"),
                (f"{v} {label + 3}", "label index out of range")]
    assert_corrupt_line_named(lambda s: load_labels(s, graph, 3), data, lines, line_nos, faults)


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
    # the forward neighbour gather returns exactly the edge-list mask's rows,
    # in the same order and dtype, isolated vertices, extreme masks and
    # (n, V) masks over disjoint copies included, on uniform graphs, a hub
    # with a sparse rest and a graphex draw
    rng = np.random.default_rng(3)

    def uniform(v):
        return rng.integers(v, size=(int(rng.integers(0, 3 * v)), 2))

    def hub(v):
        return np.concatenate([np.stack([np.zeros(v - 1, dtype=np.int64),
                                         np.arange(1, v)], axis=1)[rng.random(v - 1) < 0.8],
                               rng.integers(1, v, size=(v // 4, 2))])

    graphs = [from_edges(v, e[e[:, 0] != e[:, 1]])
              for v, e in ((v, make(v)) for make in (uniform, hub) for _ in range(20)
                           for v in [int(rng.integers(2, 30))])]
    graphs.append(sample_graphex(GraphonSpec.exp_decay(), 10, rng).graph)
    for g in graphs:
        v = g.vertex_count
        for shape in ((v,), (3, v)):
            for mask in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool),
                         rng.random(shape) < rng.random()):
                want = np.concatenate([
                    g.edge_list[row[g.edge_list[:, 0]] & row[g.edge_list[:, 1]]] + i * v
                    for i, row in enumerate(mask.reshape(-1, v))])
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
    bad = Graph(path3.offsets, neighbors)
    report = validate(bad)
    assert any("asymmetric" in r for r in report)


def test_validate_detects_duplicate_edge(path3):
    # the edge (0, 1) twice in the adjacency: 0's block [1, 1], 1's [0, 0, 2]
    bad = Graph(np.array([0, 2, 5, 6]), np.array([1, 1, 0, 0, 2, 1], dtype=np.int32))
    report = validate(bad)
    assert any("duplicate" in r for r in report)


VIOLATION_KINDS = ("not sorted", "self-loop", "asymmetric")


def reference_report(g):
    """validate's report built from a loop over every adjacency entry:
    each kind of violation names its first offender and counts the rest."""
    v, offsets = g.vertex_count, g.offsets.tolist()
    adj = [g.neighbors[offsets[u]:offsets[u + 1]].tolist() for u in range(v)]
    entries = [(u, w) for u in range(v) for w in adj[u]]
    found = {
        "sorted": [f"neighbors of {u} not sorted strictly ascending (duplicate or disorder)"
                   for u in range(v) for i in range(1, len(adj[u]))
                   if adj[u][i] <= adj[u][i - 1]],
        "self-loop": [f"self-loop at {u}" for u, w in entries if u == w],
        "asymmetric": [f"asymmetric adjacency: {u}->{w} without reverse"
                       for u, w in entries if (w, u) not in set(entries)],
    }
    return [lines[0] + (f" (and {len(lines) - 1} more)" if len(lines) > 1 else "")
            for lines in found.values() if lines]


def test_validate_matches_a_loop_over_entries_and_rows():
    rng = np.random.default_rng(4)
    kinds = set()
    for trial in range(400):
        v = int(rng.integers(1, 9))
        edges = rng.integers(v, size=(int(rng.integers(0, 2 * v)), 2))
        g = from_edges(v, edges[edges[:, 0] != edges[:, 1]])
        neighbors = g.neighbors.copy()
        if trial % 2 == 0 and len(neighbors):  # rewire one half-edge
            neighbors[rng.integers(len(neighbors))] = rng.integers(v)
        elif trial % 2 == 1 and len(neighbors) > 1:
            neighbors = rng.permutation(neighbors)
        bad = Graph(g.offsets, neighbors)
        report = validate(bad)
        assert report == reference_report(bad)
        kinds |= {kind for kind in VIOLATION_KINDS for line in report if kind in line}
    assert kinds == set(VIOLATION_KINDS)  # the corruptions reach every kind


def test_validate_rejects_malformed_offsets_and_indices(path3):
    for offsets in ([1, 1, 3, 4], [0, 3, 2, 4], [0, 1, 3]):
        bad = Graph(np.array(offsets), path3.neighbors)
        assert validate(bad) == ["offsets malformed"]
    neighbors = path3.neighbors.copy()
    neighbors[0] = 3
    assert validate(Graph(path3.offsets, neighbors)) == \
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


def test_cache_bytes_are_golden(tmp_path):
    # a ring of 30 with chords; sha256 recorded before load-time checks
    g = from_edges(30, np.array([[i, (i + 1) % 30] for i in range(30)]
                                + [[i, (7 * i + 3) % 30] for i in range(30)]))
    path = tmp_path / "graph.bin"
    save_cache(g, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == "007038b4012dd6f5bc93a524aa7396750839d6d4609ffd135758b7e10497075f"


def _saved(tmp_path, offsets, neighbors, edge_list):
    """A version-1 cache file holding the given sections as they are."""
    path = tmp_path / "bad.bin"
    edge_list = np.asarray(edge_list).reshape(-1, 2)
    path.write_bytes(b"RERM" + struct.pack("<IQQ", 1, len(offsets) - 1, len(edge_list))
                     + np.asarray(offsets).astype("<i8").tobytes()
                     + np.asarray(neighbors).astype("<i4").tobytes()
                     + edge_list.astype("<i4").tobytes())
    return str(path)


def test_cache_rejects_an_edge_list_the_adjacency_does_not_give(tmp_path):
    # with row (1, 2) rewritten as (0, 3) this file loaded: induced_edges
    # over every vertex returned [[0,1],[0,2],[1,2],[1,4],[2,1],[2,3]] and
    # has_edges took (0, 3) for an edge and (1, 2) for none
    g = from_edges(5, np.array([[0, 1], [0, 2], [1, 2], [1, 4], [2, 3], [3, 4]]))
    rewired = g.edge_list.copy()
    rewired[2] = (0, 3)
    with pytest.raises(GraphError, match="bad cache: edge_list section differs"):
        load_cache(_saved(tmp_path, g.offsets, g.neighbors, rewired))
    path = _saved(tmp_path, g.offsets, g.neighbors, g.edge_list)
    save_cache(g, str(tmp_path / "g.bin"))  # the bytes `_saved` writes of a sound graph
    assert open(path, "rb").read() == (tmp_path / "g.bin").read_bytes()
    back = load_cache(path)
    assert induced_edges(back, np.ones(5, dtype=bool)).tolist() == g.edge_list.tolist()
    assert back.has_edges(np.array([0, 1]), np.array([3, 2])).tolist() == [False, True]


def test_cache_rejects_every_corrupted_edge_list_row(tmp_path):
    # a duplicated, flipped, out-of-range or rewired row of the file's
    # edge-list section, on random graphs with isolated vertices
    rng = np.random.default_rng(4)
    modes = set()
    for trial in range(200):
        v = int(rng.integers(2, 9))
        edges = rng.integers(v, size=(int(rng.integers(1, 2 * v)), 2))
        g = from_edges(v, edges[edges[:, 0] != edges[:, 1]])
        edge_list, mode = g.edge_list.copy(), trial % 4
        if not len(edge_list) or mode == 0 and len(edge_list) < 2:
            continue
        row = rng.integers(len(edge_list))
        if mode == 0:    # another row's copy
            edge_list[row] = edge_list[(row + rng.integers(1, len(edge_list))) % len(edge_list)]
        elif mode == 1:  # flipped
            edge_list[row] = edge_list[row, ::-1]
        elif mode == 2:  # naming vertices out of range
            edge_list[row] = (rng.integers(-1, 1), v + int(rng.integers(0, 2)))
        else:            # one end rewired
            edge_list[row, 1] = rng.integers(v)
        if np.array_equal(edge_list, g.edge_list):
            continue
        modes.add(mode)
        with pytest.raises(GraphError, match="bad cache: edge_list section differs"):
            load_cache(_saved(tmp_path, g.offsets, g.neighbors, edge_list))
    assert modes == {0, 1, 2, 3}


def test_cache_rejects_unsorted_blocks(tmp_path):
    # the forward gather of `induced_edges` reads sorted blocks: with every
    # block reversed it returned [[0,2],[0,1],[1,2],[1,0],[2,0],[3,2]]
    g = from_edges(5, np.array([[0, 1], [0, 2], [1, 2], [1, 4], [2, 3], [3, 4]]))
    blocks = np.split(g.neighbors, g.offsets[1:-1])
    reversed_all = np.concatenate([b[::-1] for b in blocks])
    with pytest.raises(GraphError, match="neighbors of 0 not sorted strictly ascending"):
        load_cache(_saved(tmp_path, g.offsets, reversed_all, g.edge_list))
    # one block permuted (vertex 2's [0, 1, 3] as [0, 3, 1]), the rest sorted
    permuted = g.neighbors.copy()
    permuted[g.offsets[2]:g.offsets[3]] = [0, 3, 1]
    with pytest.raises(GraphError, match=r"neighbors of 2 not sorted strictly ascending "
                                         r"\(duplicate or disorder\)$"):
        load_cache(_saved(tmp_path, g.offsets, permuted, g.edge_list))
    assert np.array_equal(load_cache(_saved(tmp_path, g.offsets, g.neighbors,
                                            g.edge_list)).neighbors, g.neighbors)


def test_cache_rejects_malformed_layout(tmp_path, path3):
    # offsets must rise from 0 to 2E; neighbour ids must lie in [0, V)
    for offsets in ([1, 1, 3, 4], [0, 3, 2, 4]):
        with pytest.raises(GraphError, match="offsets malformed"):
            load_cache(_saved(tmp_path, offsets, path3.neighbors, path3.edge_list))
    neighbors = path3.neighbors.copy()
    neighbors[0] = 3
    with pytest.raises(GraphError, match="neighbor index out of range"):
        load_cache(_saved(tmp_path, path3.offsets, neighbors, path3.edge_list))


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
