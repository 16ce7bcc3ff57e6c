"""Property tests for the array parameter store, its checkpoint format and
the binary graph cache."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relerm.checkpoint import load_checkpoint, save_checkpoint
from relerm.graph import GraphError, from_edges, load_cache, save_cache
from relerm.losses import MAX_DIM, ParamStore, RowTable

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def id_batches(max_id):
    """Lists of distinct sparse ids in [0, max_id), in random order."""
    return st.lists(st.lists(st.integers(0, max_id - 1), unique=True, max_size=6),
                    max_size=5)


@given(dim=st.integers(1, 5), batches=id_batches(500), data=st.data())
def test_row_table_agrees_with_dict_model(dim, batches, data):
    table, model = RowTable(dim), {}
    for ids in batches:
        rows = np.array(data.draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                                           min_size=len(ids), max_size=len(ids))),
                        dtype=np.float64).reshape(len(ids), dim)
        table.put(np.array(ids, dtype=np.int64), rows)
        model.update(zip(ids, rows))
        assert table.ids().tolist() == sorted(model)
        assert np.array_equal(table.rows(sorted(model)),
                              np.array([model[k] for k in sorted(model)]).reshape(-1, dim))
    with pytest.raises(KeyError):  # no initialiser: a missing row is an error
        table.rows([max(model, default=-1) + 1])


# a store's ids reach 5 * 2^7 - 1 in the last of 8 steps; with init_ids they
# index keys in descending order, every fourth past 2^32 (two 32-bit words)
MAX_STEPS = 8
KEYS = np.arange(5 * 2 ** MAX_STEPS)[::-1] * 3 + (np.arange(5 * 2 ** MAX_STEPS) % 4 == 0) * 2 ** 33


@given(dim=st.integers(1, 5), seed=st.integers(0, 2 ** 96), kind=st.sampled_from([0, 1]),
       keyed=st.booleans(), data=st.data())
def test_param_store_rows_agree_with_dict_model(dim, seed, kind, keyed, data):
    # every initial row is what its own default_rng((seed, kind, key)) draws,
    # whatever the order, batch sizes and copies of the stores that ask for
    # it; step i's ids lie below 5 * 2^i, so the cached seeds grow past their
    # range; category rows (kind 1) are never keyed
    init_ids = KEYS if keyed and kind == 0 else None

    def table(ps):
        return ps.embeddings if kind == 0 else ps.category_embeddings

    def initial(v):
        key = v if init_ids is None else int(init_ids[v])
        return np.random.default_rng((seed, kind, key)).uniform(-0.5 / dim, 0.5 / dim, dim)

    stores = [(ParamStore(dim, 0, seed=seed, init_ids=init_ids), {})]
    for step in range(data.draw(st.integers(1, MAX_STEPS))):
        action = data.draw(st.sampled_from(["put", "rows", "copy"]))
        ps, model = stores[data.draw(st.integers(0, len(stores) - 1))]
        ids = data.draw(st.lists(st.integers(0, 5 * 2 ** step - 1), max_size=6,
                                 unique=action == "put"))
        if action == "put":
            rows = np.full((len(ids), dim), float(step)) + np.arange(len(ids))[:, None]
            table(ps).put(np.array(ids, dtype=np.int64), rows)
            model.update(zip(ids, rows))
        elif action == "rows":
            got = table(ps).rows(ids)  # missing rows come from the initialiser
            for v in ids:
                model.setdefault(v, initial(v))
            assert np.array_equal(got, np.array([model[v] for v in ids]).reshape(-1, dim))
        else:
            stores.append((ps.copy(), dict(model)))
    for ps, model in stores:
        assert table(ps).ids().tolist() == sorted(model)
        for v in model:
            assert np.array_equal(table(ps).row(v), model[v])


@st.composite
def stores(draw):
    dim, label_dim = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    ps = ParamStore(dim, label_dim, seed=draw(st.integers(0, 2 ** 63 - 1)))
    for table in (ps.embeddings, ps.category_embeddings):
        ids = draw(st.lists(st.integers(0, 300), unique=True, max_size=6))
        rows = draw(st.lists(finite, min_size=len(ids) * dim, max_size=len(ids) * dim))
        table.put(np.array(ids, dtype=np.int64), np.array(rows).reshape(len(ids), dim))
    ps.weights = np.array(draw(st.lists(finite, min_size=dim * label_dim,
                                        max_size=dim * label_dim))).reshape(dim, label_dim)
    ps.bias = np.array(draw(st.lists(finite, min_size=label_dim, max_size=label_dim)),
                       dtype=np.float64)
    return ps


@given(params=stores())
def test_checkpoint_roundtrip_is_byte_identical(params, tmp_path_factory):
    out = tmp_path_factory.mktemp("ck")
    save_checkpoint(params, str(out / "a.bin"))
    back = load_checkpoint(str(out / "a.bin"))
    save_checkpoint(back, str(out / "b.bin"))
    assert (out / "a.bin").read_bytes() == (out / "b.bin").read_bytes()
    for table, other in ((params.embeddings, back.embeddings),
                         (params.category_embeddings, back.category_embeddings)):
        assert np.array_equal(table.ids(), other.ids())
        assert np.array_equal(table.rows(table.ids()), other.rows(other.ids()))
    assert np.array_equal(params.weights, back.weights)
    assert np.array_equal(params.bias, back.bias)


@given(params=stores(), data=st.data())
def test_truncated_checkpoint_names_its_section(params, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "c.bin"
    save_checkpoint(params, str(path))
    blob = path.read_bytes()
    # the layout after the 4-byte magic: a 44-byte header, then the sections
    dim, label_dim = params.dim, params.label_dim
    n_emb, n_cat = len(params.embeddings.ids()), len(params.category_embeddings.ids())
    sections = [("header", 44), ("embedding ids", 8 * n_emb),
                ("embedding rows", 8 * n_emb * dim), ("category ids", 8 * n_cat),
                ("category rows", 8 * n_cat * dim), ("weights", 8 * dim * label_dim),
                ("bias", 8 * label_dim)]
    assert len(blob) == 4 + sum(size for _, size in sections)
    cut = data.draw(st.integers(4, len(blob) - 1))
    end = 4
    for name, size in sections:
        end += size
        if cut < end:
            break
    path.write_bytes(blob[:cut])
    with pytest.raises(ValueError, match=f"truncated checkpoint: {name} needs"):
        load_checkpoint(str(path))


def write_checkpoint(path, dim, label_dim, emb_ids, cat_ids, emb_rows=None, cat_rows=None,
                     weights=None, bias=None):
    """A checkpoint file with the given sections, as a hand edit would leave
    it: rows, weights and bias default to zeros of the right size."""
    def f8(x, n):
        return np.zeros(n) if x is None else np.asarray(x, dtype=np.float64).reshape(n)
    with open(path, "wb") as f:
        f.write(b"RECK" + struct.pack("<IQQQQQ", 1, dim, label_dim, 0,
                                      len(emb_ids), len(cat_ids)))
        for x in (np.asarray(emb_ids, dtype="<i8"), f8(emb_rows, len(emb_ids) * dim),
                  np.asarray(cat_ids, dtype="<i8"), f8(cat_rows, len(cat_ids) * dim),
                  f8(weights, dim * label_dim), f8(bias, label_dim)):
            f.write(x.astype(x.dtype.newbyteorder("<")).tobytes())


@pytest.mark.parametrize("ids", [[0, 3, 3], [4, 2], [-1, 2], [0, 2 ** 61], [2 ** 31],
                                 [0, 2 ** 31 - 1]])
@pytest.mark.parametrize("section", ["embedding ids", "category ids"])
def test_checkpoint_rejects_bad_ids(ids, section, tmp_path):
    # repeated, descending, negative and beyond int32; and ids in range
    # whose dense table at dim 2^16 would take 1 PiB, from a 1 MiB section
    path = str(tmp_path / "c.bin")
    dim, other = 2 ** 16, [0, 5]
    emb, cat = (ids, other) if section == "embedding ids" else (other, ids)
    write_checkpoint(path, dim, 1, emb, cat)
    problem = (rf"need a dense table of {2 ** 31} rows of dim {dim}, which cannot be allocated"
               if ids == [0, 2 ** 31 - 1] else r"are not strictly ascending in \[0, 2\^31\)")
    with pytest.raises(ValueError, match=rf"checkpoint {section} {problem}"):
        load_checkpoint(path)
    write_checkpoint(path, dim, 1, other, other)  # the same file with good ids loads
    assert load_checkpoint(path).embeddings.ids().tolist() == other


@pytest.mark.parametrize("ids", [[], [0, 3]])
def test_checkpoint_rejects_dim_zero(ids, tmp_path):
    # a 48-byte header with dim 0 loaded, and estimate_risk on the store
    # raised ZeroDivisionError from the row initialiser
    path = str(tmp_path / "c.bin")
    write_checkpoint(path, 0, 1, ids, [])
    with pytest.raises(ValueError, match="checkpoint dim 0 must be >= 1"):
        load_checkpoint(path)
    write_checkpoint(path, 1, 1, ids, [])
    assert load_checkpoint(path).dim == 1


def test_checkpoint_rejects_dim_past_the_bound(tmp_path):
    # a 48-byte header with dim 2^40 and no rows loaded, and estimate_risk on
    # the store raised a raw MemoryError (a (3, 2^40) array, 24 TiB)
    path = str(tmp_path / "c.bin")
    for dim in (2 ** 40, MAX_DIM + 1):
        write_checkpoint(path, dim, 0, [], [])
        with pytest.raises(ValueError, match=f"checkpoint dim {dim} exceeds the bound "
                                             f"MAX_DIM = {MAX_DIM}"):
            load_checkpoint(path)
    write_checkpoint(path, MAX_DIM, 0, [], [])
    assert load_checkpoint(path).dim == MAX_DIM


@given(params=stores(), data=st.data())
def test_checkpoint_rejects_non_finite_values(params, data, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ck") / "c.bin")
    emb, cat = params.embeddings, params.category_embeddings
    parts = {"embedding rows": emb.data[emb.ids()].copy(),
             "category rows": cat.data[cat.ids()].copy(),
             "weights": params.weights.copy(), "bias": params.bias.copy()}
    section = data.draw(st.sampled_from([k for k, x in parts.items() if x.size]
                                        or [None]))
    if section is not None:
        bad = parts[section].reshape(-1)
        bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    write_checkpoint(path, params.dim, params.label_dim, emb.ids(), cat.ids(),
                     parts["embedding rows"], parts["category rows"],
                     parts["weights"], parts["bias"])
    if section is None:
        load_checkpoint(path)
        return
    with pytest.raises(ValueError, match=f"checkpoint {section} are not finite"):
        load_checkpoint(path)


# -- graph cache --------------------------------------------------------------

@st.composite
def cached_graphs(draw):
    """A random graph on 1-12 vertices (isolated vertices included) and an
    original-id map for its sidecar, or None."""
    n = draw(st.integers(1, 12))
    iu, ju = np.triu_indices(n, k=1)
    keep = np.array(draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu))),
                    dtype=bool)
    ids = draw(st.none() | st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n,
                                    unique=True))
    relabel = None if ids is None else {orig: i for i, orig in enumerate(ids)}
    return from_edges(n, np.stack([iu[keep], ju[keep]], axis=1)), relabel


@given(case=cached_graphs())
def test_cache_round_trip(case, tmp_path_factory):
    g, relabel = case
    path = str(tmp_path_factory.mktemp("cache") / "g.bin")
    save_cache(g, path, relabel)
    back = load_cache(path)
    for name in ("offsets", "neighbors", "edge_list"):
        want, got = getattr(g, name), getattr(back, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    sidecar = path + ".ids.json"
    assert os.path.exists(sidecar) == (relabel is not None)
    if relabel is not None:
        with open(sidecar) as f:
            assert {int(k): v for k, v in json.load(f).items()} == relabel


@given(case=cached_graphs(), data=st.data())
def test_damaged_cache_names_its_section(case, data, tmp_path_factory):
    g, _ = case
    path = tmp_path_factory.mktemp("cache") / "g.bin"
    save_cache(g, str(path))
    blob = path.read_bytes()
    # the layout: 4-byte magic, 20-byte header (version, V, E), the sections
    v, e = g.vertex_count, g.edge_count
    sections = [("magic", 4), ("header", 20), ("offsets", 8 * (v + 1)),
                ("neighbors", 8 * e), ("edge_list", 8 * e)]
    assert len(blob) == sum(size for _, size in sections)
    cut = data.draw(st.integers(0, len(blob) - 1))
    end = 0
    for name, size in sections:
        end += size
        if cut < end:
            break
    path.write_bytes(blob[:cut])
    with pytest.raises(GraphError, match=name):
        load_cache(str(path))
    path.write_bytes(data.draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != blob[:4]))
                     + blob[4:])
    with pytest.raises(GraphError, match="bad cache magic"):
        load_cache(str(path))
    version = data.draw(st.integers(0, 2 ** 32 - 1).filter(lambda x: x != 1))
    path.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
    with pytest.raises(GraphError, match=f"unsupported cache version {version}"):
        load_cache(str(path))
