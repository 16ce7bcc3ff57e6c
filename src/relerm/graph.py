"""Immutable undirected simple graph in compressed adjacency form.

Everything downstream (samplers, losses, trainer) reads from the Graph
built here. Construction is single-threaded; instances are immutable and
safe to share across concurrent readers.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

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

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(np.array([u]), np.array([v]))[0])

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
    alongside.
    """
    us, vs = [], []
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(line_no, line.rstrip("\n"), "expected two fields")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, line.rstrip("\n"), "non-integer vertex id")
        if u < 0 or v < 0:
            raise ParseError(line_no, line.rstrip("\n"), "negative vertex id")
        if u == v:
            if drop_self_loops:
                continue
            raise ParseError(line_no, line.rstrip("\n"), "self-loop (pass drop_self_loops)")
        us.append(u)
        vs.append(v)

    if not us:
        raise EmptyGraphError("edge list contains no edges")

    us = np.array(us, dtype=np.int64)
    vs = np.array(vs, dtype=np.int64)
    original_ids = np.unique(np.concatenate([us, vs]))
    us = np.searchsorted(original_ids, us)
    vs = np.searchsorted(original_ids, vs)
    n = len(original_ids)
    graph = from_edges(n, np.stack([us, vs], axis=1))

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
    return graph, {int(o): i for i, o in enumerate(original_ids)}


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
    """Parse 'vertex label_index' lines into a LabelTable (all masks True)."""
    labels = np.zeros((graph.vertex_count, label_dim), dtype=bool)
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(line_no, line.rstrip("\n"), "expected two fields")
        try:
            v, l = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, line.rstrip("\n"), "non-integer field")
        if not 0 <= v < graph.vertex_count:
            raise ParseError(line_no, line.rstrip("\n"), "vertex out of range")
        if not 0 <= l < label_dim:
            raise ParseError(line_no, line.rstrip("\n"), "label index out of range")
        labels[v, l] = True
    return LabelTable(label_dim, labels, np.ones(graph.vertex_count, dtype=bool))


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
