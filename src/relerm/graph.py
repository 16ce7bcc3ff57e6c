"""Immutable undirected simple graph in compressed adjacency form.

Everything downstream (samplers, losses, trainer) reads from the Graph
built here. Construction is single-threaded; instances are immutable and
safe to share across concurrent readers.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterable, NoReturn, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class GraphError(Exception):
    """Base class for graph construction/validation errors."""


class ParseError(GraphError):
    def __init__(self, line_no: int, line: str, reason: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason}: {line!r}")


class EmptyGraphError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: CSR adjacency plus a canonical edge list.

    Invariants: no self-loops, no duplicate edges, neighbor lists sorted
    ascending, adjacency symmetric, edge_list rows have u < v.
    """

    offsets: np.ndarray    # int64, length V+1
    neighbors: np.ndarray  # int32, length 2E, sorted within each vertex block
    edge_list: np.ndarray  # int32, shape (E, 2), u < v, lexicographically sorted

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.edge_list)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def _edge_codes(self) -> np.ndarray:
        # sorted packed codes u*V+v (u<v) for O(log E) membership tests
        v = self.vertex_count
        return self.edge_list[:, 0].astype(np.int64) * v + self.edge_list[:, 1]

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized edge membership for pairs (us[i], vs[i]); raises
        GraphError for a vertex id outside [0, V)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        if len(lo) and (lo.min() < 0 or hi.max() >= self.vertex_count):
            ids = np.column_stack([us, vs]).reshape(-1)
            bad = ids[(ids < 0) | (ids >= self.vertex_count)][0]
            raise GraphError(f"vertex id {bad} outside [0, {self.vertex_count})")
        if len(self._edge_codes) == 0:
            return np.zeros(len(us), dtype=bool)
        codes = lo * self.vertex_count + hi
        idx = np.minimum(np.searchsorted(self._edge_codes, codes), len(self._edge_codes) - 1)
        return self._edge_codes[idx] == codes


@dataclass(frozen=True)
class LabelTable:
    """Per-vertex multi-label bitsets plus a train-time observation mask."""

    label_dim: int
    labels: np.ndarray  # bool, shape (V, L)
    mask: np.ndarray    # bool, shape (V,) - True when label observed at training time

    def with_mask(self, mask: np.ndarray) -> "LabelTable":
        return LabelTable(self.label_dim, self.labels, np.asarray(mask, dtype=bool))


@dataclass(frozen=True)
class CategoryMap:
    """Per-vertex category memberships in the Graph's CSR layout: vertex v
    is in categories members[offsets[v]:offsets[v + 1]] (in the category
    loss mode its vector is the sum of theirs, a repeat adding once more)."""

    category_count: int
    offsets: np.ndarray  # integer, length V+1
    members: np.ndarray  # integer category ids in [0, category_count)

    def __post_init__(self):
        offsets, members = self.offsets, self.members
        if offsets.ndim != 1 or members.ndim != 1 or offsets.dtype.kind != "i" \
                or (len(members) and members.dtype.kind != "i") or not len(offsets) \
                or offsets[0] != 0 or offsets[-1] != len(members) or (np.diff(offsets) < 0).any():
            raise GraphError("category map malformed: offsets rising 0..len(members) and members "
                             "must be 1-D signed integer arrays")
        if len(members) and not 0 <= members.min() <= members.max() < self.category_count:
            raise GraphError(f"category ids {members.min()}..{members.max()} out of range "
                             f"[0, {self.category_count})")


def gather_segments(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the selected `rows` of a CSR layout (row r at
    offsets[r]:offsets[r + 1] of a flat array), row after row: the index in
    `rows` of each entry's owner, and the entry's position in the flat array."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    ends = counts.cumsum()
    at = np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)
    return np.arange(len(rows)).repeat(counts), at


def from_edges(vertex_count: int, edges: np.ndarray) -> Graph:
    """Build a Graph from an array of undirected edges (any orientation,
    duplicates allowed; self-loops rejected)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if (edges[:, 0] == edges[:, 1]).any():
        raise GraphError("self-loop in edge array")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    # sorted codes u*V+v, u < v, first copies only: sorting beats np.unique,
    # whose hash path is several times slower on int64 codes
    codes = np.sort(lo * vertex_count + hi)
    codes = codes[np.diff(codes, prepend=-1) != 0]
    lo, hi = np.divmod(codes, vertex_count)
    edge_list = np.stack([lo, hi], axis=1).astype(np.int32)
    # symmetric CSR: the codes of both orientations, sorted by (source, target)
    src, dst = np.divmod(np.sort(np.concatenate([codes, hi * vertex_count + lo])),
                         vertex_count)
    offsets = np.zeros(vertex_count + 1, dtype=np.int64)
    offsets[1:] = np.bincount(src, minlength=vertex_count)
    np.cumsum(offsets, out=offsets)
    return Graph(offsets=offsets, neighbors=dst.astype(np.int32), edge_list=edge_list)


def load_edge_list(
    source: IO[str] | Iterable[str],
    drop_self_loops: bool = False,
    largest_component_only: bool = False,
) -> tuple[Graph, dict[int, int]]:
    """Parse a 'u v' per-line edge list into a Graph.

    Lines starting with '#' are skipped; repeated edges merge. Vertices are
    relabeled to a dense 0-based range; the original->dense map is returned
    alongside. The grammar and its errors are `_read_pairs`'.
    """
    rules = [("negative vertex id", lambda u, v: (u < 0) | (v < 0))]
    if not drop_self_loops:
        rules.append(("self-loop (pass drop_self_loops)", lambda u, v: u == v))
    pairs = _read_pairs(source, "vertex id", rules)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if not len(pairs):
        raise EmptyGraphError("edge list contains no edges")

    original_ids, dense = np.unique(pairs, return_inverse=True)
    n = len(original_ids)
    graph = from_edges(n, dense.reshape(-1, 2))

    if largest_component_only:
        adj = csr_matrix(
            (np.ones(len(graph.neighbors), dtype=np.int8),
             graph.neighbors, graph.offsets),
            shape=(n, n),
        )
        n_comp, comp = connected_components(adj, directed=False)
        if n_comp > 1:
            # a component has no isolated vertex here: all of it survives
            graph, kept = induced_subgraph(graph.edge_list, comp == np.bincount(comp).argmax())
            original_ids = original_ids[kept]
    return graph, dict(zip(original_ids.tolist(), range(len(original_ids))))


def induced_subgraph(edges: np.ndarray, vertex_mask: np.ndarray) -> tuple[Graph, np.ndarray]:
    """The graph of the (u, v) rows of `edges` with both ends in a boolean
    `vertex_mask`, its vertices that keep an edge relabelled 0.. in order,
    and the old id of each new vertex."""
    edges = edges[vertex_mask[edges[:, 0]] & vertex_mask[edges[:, 1]]]
    kept = np.zeros(len(vertex_mask), dtype=bool)
    kept[edges] = True
    survivors = np.flatnonzero(kept)
    return from_edges(len(survivors), (np.cumsum(kept) - 1)[edges]), survivors


def load_labels(source: IO[str] | Iterable[str], graph: Graph, label_dim: int) -> LabelTable:
    """Parse 'vertex label_index' lines into a LabelTable (all masks True);
    the grammar and its errors are `_read_pairs`'."""
    v = graph.vertex_count
    pairs = _read_pairs(source, "field", (
        ("vertex out of range", lambda u, l: (u < 0) | (u >= v)),
        ("label index out of range", lambda u, l: (l < 0) | (l >= label_dim))))
    labels = np.zeros((v, label_dim), dtype=bool)
    labels[pairs[:, 0], pairs[:, 1]] = True
    return LabelTable(label_dim, labels, np.ones(v, dtype=bool))


# -- text input ---------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)
# a field that reads as a number: ASCII digits, or a negative number, which
# the loaders' rules reject with their own reasons
_NUMBER = re.compile(rb"[0-9]+|-0*[1-9][0-9]*")

# (reason, broken(a, b)): a loader's check of a line's two ids, written with
# operators that work on Python ints and on arrays of ids alike
_Rule = tuple[str, Callable]


def _read_pairs(source: IO[str] | Iterable[str], noun: str,
                rules: Sequence[_Rule]) -> np.ndarray:
    """The lines of `source` that hold data, as an (n, 2) int64 array in
    line order.

    Lines end at '\\n'; each element of an iterable source is one line,
    with or without its '\\n'. A data line holds two ids, each of ASCII
    decimal digits and below 2^63, between ASCII blanks (space, tab, '\\r',
    '\\v', '\\f'). Blank lines and lines whose first non-blank byte is '#'
    are skipped. Every data line must pass each of `rules`.

    A few numpy passes read the text: a byte-class scan finds the fields
    and their lines, and `np.fromstring` parses every id at once. Only when
    a check fails does `_diagnose` walk the lines, to raise a ParseError
    (reason `noun`-worded) at the first offending one.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in source)
    data = text.encode("ascii", "replace")  # a non-ASCII character is one "other" byte
    buf = np.frombuffer(data, dtype=np.uint8)
    # blanks: ' ' and the bytes 9-13, '\t' '\n' '\v' '\f' '\r' (uint8 wraps below 9)
    blank = (buf == ord(" ")) | (buf - 9 < 5)
    newlines = np.flatnonzero(buf == ord("\n"))
    bounds = np.flatnonzero(np.diff(np.concatenate(([True], blank, [True]))))
    starts, ends = bounds[::2], bounds[1::2]  # of each field, in text order
    # the fields of line k are starts[opens[k]:opens[k] + counts[k]]
    opens = np.searchsorted(starts, np.concatenate(([0], newlines + 1)))
    counts = np.diff(opens, append=len(starts))
    comment = (counts > 0) & (np.append(buf[starts], 0)[opens] == ord("#"))
    odd = np.flatnonzero(~blank & (buf - ord("0") >= 10))  # neither blank nor digit
    if comment.any():
        # blank the comment lines, so that only the data is left to parse
        buf = buf.copy()
        buf[comment.repeat(np.diff(newlines, prepend=-1, append=len(buf) - 1))] = ord(" ")
        data = buf.tobytes()
        keep = ~comment.repeat(counts)
        starts, ends = starts[keep], ends[keep]
        counts[comment] = 0
        odd = odd[~comment[np.searchsorted(newlines, odd)]]
    if len(odd) or not ((counts == 0) | (counts == 2)).all():
        _diagnose(text, noun, rules)
    if not len(starts):  # np.fromstring reads blank text as [0]
        return np.zeros((0, 2), dtype=np.int64)
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    # np.fromstring saturates an id past 2^63 - 1 at that value
    if len(values) != len(starts) or any(int(data[starts[i]:ends[i]]) > _INT64_MAX
                                         for i in np.flatnonzero(values == _INT64_MAX)):
        _diagnose(text, noun, rules)
    pairs = values.reshape(-1, 2)
    if any(broken(pairs[:, 0], pairs[:, 1]).any() for _, broken in rules):
        _diagnose(text, noun, rules)
    return pairs


def _diagnose(text: str, noun: str, rules: Sequence[_Rule]) -> NoReturn:
    """Raise the ParseError of the first line of `text` that breaks
    `_read_pairs`' grammar or one of `rules`, walking line by line."""
    for line_no, line in enumerate(text.split("\n"), start=1):
        fields = line.encode("ascii", "replace").split()
        if not fields or fields[0].startswith(b"#"):
            continue
        if len(fields) != 2:
            raise ParseError(line_no, line, "expected two fields")
        if not all(_NUMBER.fullmatch(f) for f in fields):
            raise ParseError(line_no, line, f"non-integer {noun}")
        a, b = (int(f) for f in fields)
        for reason, broken in rules:
            if broken(a, b):
                raise ParseError(line_no, line, reason)
        if max(a, b) > _INT64_MAX:
            raise ParseError(line_no, line, f"{noun} not below 2^63")
    raise AssertionError("a bulk check of the text failed, but no line breaks a rule")


def induced_pairs(graph: Graph, vertices: np.ndarray,
                  copies: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """All edges and non-edges of `graph` among `vertices`.

    Together the two outputs cover every unordered pair within the set
    exactly once, as rows (u, v), u < v, in ascending order. Id i * V + v
    names vertex v of the i-th of `copies` disjoint copies of the graph, as
    in a batch of draws; pairs stay within a copy.
    """
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    v = graph.vertex_count
    if len(verts) and (verts[0] < 0 or verts[-1] >= copies * v):
        raise GraphError("vertex out of range")
    counts = np.bincount(verts // v, minlength=copies)
    # every pair (i, j), i < j, of positions within one copy's run of verts,
    # in np.triu_indices' order (without its n x n grid); array methods, as
    # their np.* wrappers cost more than the arithmetic on a draw's few ids
    at = np.arange(len(verts))
    partners = counts.cumsum().repeat(counts) - 1 - at
    first = at.repeat(partners)
    second = np.arange(len(first)) - (partners.cumsum() - partners - at - 1)[first]
    local = verts % v  # the vertex within its copy
    is_edge = graph.has_edges(local[first], local[second])
    us, vs = verts[first], verts[second]
    pairs = np.concatenate((us[:, None], vs[:, None]), axis=1)
    return pairs[is_edge], pairs[~is_edge]


def induced_edges(graph: Graph, vertex_mask: np.ndarray) -> np.ndarray:
    """Edges of `graph` with both endpoints selected by a boolean mask of
    length V, as (u, v) rows with u < v in lexicographic order (the
    edge_list's order). Row i of an (n, V) mask selects from copy i of the
    graph (see `induced_pairs`).

    Gathers the neighbour lists of the selected vertices, so the cost
    follows their total degree, not E. On a V=10,000, E=60,000 graph (one
    2 GHz Xeon core) that is about 40 us at 1% of vertices selected against
    about 0.7 ms for a mask over the edge list; at half of the vertices or
    more the edge-list mask is faster (about 1.4 against 1.9 ms), a density
    no sampler default reaches.
    """
    mask = np.asarray(vertex_mask)
    if mask.shape[-1:] != (graph.vertex_count,):
        raise GraphError(f"mask of shape {mask.shape} for {graph.vertex_count} vertices")
    mask = mask.reshape(-1)
    ids = np.flatnonzero(mask)
    if len(ids) < 2:
        return np.zeros((0, 2), dtype=np.int64)
    us = ids % graph.vertex_count
    owner, at = gather_segments(graph.offsets, us)
    src = ids[owner]
    dst = graph.neighbors[at] + (ids - us)[owner]
    keep = mask[dst] & (dst > src)
    return np.concatenate((src[keep, None], dst[keep, None]), axis=1)


def validate(graph: Graph) -> list[str]:
    """Return a list of violated invariants (empty iff the graph is valid):
    one line per kind of violation, naming its first offender in adjacency
    or edge-list order and how many more there are."""
    v = graph.vertex_count
    offsets, neighbors, edges = graph.offsets, graph.neighbors, graph.edge_list
    if len(offsets) < 1 or offsets[0] != 0 or offsets[-1] != len(neighbors) \
            or (np.diff(offsets) < 0).any():
        return ["offsets malformed"]
    if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= v):
        return ["neighbor index out of range"]
    report = []

    def flag(where, message):
        if len(where):
            more = f" (and {len(where) - 1} more)" if len(where) > 1 else ""
            report.append(message(where[0]) + more)

    src = np.repeat(np.arange(v, dtype=np.int64), np.diff(offsets))
    dst = neighbors.astype(np.int64)
    # entry i + 1 repeats or precedes entry i within one vertex's block
    flag(np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])) + 1,
         lambda i: f"neighbors of {src[i]} not sorted strictly ascending (duplicate or disorder)")
    flag(np.flatnonzero(src == dst), lambda i: f"self-loop at {src[i]}")
    adjacency = np.sort(src * v + dst)

    def absent(codes):
        """Positions of the codes u*V+w whose pair (u, w) the adjacency lacks."""
        if not len(adjacency):
            return np.arange(len(codes))
        at = np.minimum(np.searchsorted(adjacency, codes), len(adjacency) - 1)
        return np.flatnonzero(adjacency[at] != codes)

    reverse = dst * v + src
    if not np.array_equal(np.sort(reverse), adjacency):
        flag(absent(reverse), lambda i: f"asymmetric adjacency: {src[i]}->{dst[i]} without reverse")
    a, b = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)

    def pair(i):
        return f"({a[i]},{b[i]})"
    flag(np.flatnonzero(a >= b), lambda i: f"edge_list rows not u < v: {pair(i)}")
    in_range = (np.minimum(a, b) >= 0) & (np.maximum(a, b) < v)
    flag(np.flatnonzero(~in_range), lambda i: f"edge_list pair {pair(i)} out of range")
    order = np.lexsort((b, a))  # stable: a repeated row follows its first copy
    repeat = (a[order][1:] == a[order][:-1]) & (b[order][1:] == b[order][:-1])
    flag(np.sort(order[1:][repeat]), lambda i: f"duplicate edges in edge_list: {pair(i)}")
    rows = np.flatnonzero(in_range)
    flag(rows[absent(a[rows] * v + b[rows])],
         lambda i: f"edge_list pair {pair(i)} missing from adjacency")
    if len(dst) != 2 * len(edges):
        report.append("sum(degrees) != 2 * edge_count")
    return report


# -- binary cache -------------------------------------------------------------

_CACHE_MAGIC = b"RERM"
_CACHE_VERSION = 1


def save_cache(graph: Graph, path: str, relabel_map: dict[int, int] | None = None) -> None:
    """Write the versioned little-endian binary cache (plus a JSON sidecar
    with the original-id map when given)."""
    with open(path, "wb") as f:
        f.write(_CACHE_MAGIC)
        f.write(struct.pack("<IQQ", _CACHE_VERSION, graph.vertex_count, graph.edge_count))
        f.write(graph.offsets.astype("<i8").tobytes())
        f.write(graph.neighbors.astype("<i4").tobytes())
        f.write(graph.edge_list.astype("<i4").tobytes())
    if relabel_map is not None:
        with open(path + ".ids.json", "w") as f:
            json.dump({str(k): v for k, v in relabel_map.items()}, f, sort_keys=True)


def unpack_sections(data: bytes, pos: int, sections, error: type[Exception],
                    what: str) -> list[np.ndarray]:
    """Little-endian arrays read from `data` at `pos`, one per (name, dtype,
    count) section in order. Raises `error` naming the first section the
    data cuts short, or the bytes left over after the last section."""
    out = []
    for name, dtype, count in sections:
        size = np.dtype(dtype).itemsize * count
        if len(data) - pos < size:
            raise error(f"truncated {what}: {name} needs {size} bytes at offset {pos}, "
                        f"{len(data) - pos} left")
        out.append(np.frombuffer(data, dtype=dtype, count=count, offset=pos))
        pos += size
    if pos != len(data):
        raise error(f"{len(data) - pos} trailing bytes after the {what}'s {name}")
    return out


def load_cache(path: str) -> Graph:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _CACHE_MAGIC:
        raise GraphError(f"bad cache magic {data[:4]!r}")
    if len(data) < 24:
        raise GraphError(f"truncated cache: header needs 20 bytes at offset 4, "
                         f"{len(data) - 4} left")
    version, v, e = struct.unpack_from("<IQQ", data, 4)
    if version != _CACHE_VERSION:
        raise GraphError(f"unsupported cache version {version}")
    offsets, neighbors, edge_list = unpack_sections(
        data, 24, (("offsets", "<i8", v + 1), ("neighbors", "<i4", 2 * e),
                   ("edge_list", "<i4", 2 * e)), GraphError, "cache")
    return Graph(offsets=offsets.astype(np.int64), neighbors=neighbors.astype(np.int32),
                 edge_list=edge_list.astype(np.int32).reshape(e, 2))
