"""Versioned binary checkpoints for ParamStore, plus text embedding export.

The format is fixed-layout little-endian and contains no timestamps, so a
deterministic training run produces a bit-identical checkpoint file.
"""

from __future__ import annotations

import struct

import numpy as np

from .graph import unpack_sections
from .losses import ParamStore, RowTable

_MAGIC = b"RECK"
_VERSION = 1


def save_checkpoint(params: ParamStore, path: str) -> None:
    emb, cat = params.embeddings, params.category_embeddings
    emb_ids, cat_ids = emb.ids(), cat.ids()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IQQQQQ", _VERSION, params.dim, params.label_dim,
                            params.seed if params.seed >= 0 else 0,
                            len(emb_ids), len(cat_ids)))
        f.write(emb_ids.astype("<i8").tobytes())
        f.write(emb.data[emb_ids].astype("<f8").tobytes())
        f.write(cat_ids.astype("<i8").tobytes())
        f.write(cat.data[cat_ids].astype("<f8").tobytes())
        f.write(params.weights.astype("<f8").tobytes())
        f.write(params.bias.astype("<f8").tobytes())


def load_checkpoint(path: str) -> ParamStore:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a checkpoint file")
    if len(data) < 48:
        raise ValueError(f"truncated checkpoint: header needs 44 bytes at offset 4, "
                         f"{len(data) - 4} left")
    version, dim, label_dim, seed, n_emb, n_cat = struct.unpack_from("<IQQQQQ", data, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    dim, label_dim = int(dim), int(label_dim)
    emb_ids, emb_rows, cat_ids, cat_rows, weights, bias = unpack_sections(
        data, 48, (("embedding ids", "<i8", n_emb), ("embedding rows", "<f8", n_emb * dim),
                   ("category ids", "<i8", n_cat), ("category rows", "<f8", n_cat * dim),
                   ("weights", "<f8", dim * label_dim), ("bias", "<f8", label_dim)),
        ValueError, "checkpoint")
    for name, ids in (("embedding ids", emb_ids), ("category ids", cat_ids)):
        # as save_checkpoint writes them; a Graph's vertex ids are int32
        if len(ids) and ((ids[1:] <= ids[:-1]).any() or ids[0] < 0 or ids[-1] >= 2 ** 31):
            raise ValueError(f"checkpoint {name} are not strictly ascending in [0, 2^31)")
    for name, x in (("embedding rows", emb_rows), ("category rows", cat_rows),
                    ("weights", weights), ("bias", bias)):
        if not np.isfinite(x).all():
            raise ValueError(f"checkpoint {name} are not finite")
    params = ParamStore(dim, label_dim, int(seed))
    params.embeddings.put(emb_ids.astype(np.int64), emb_rows.reshape(n_emb, dim))
    params.category_embeddings.put(cat_ids.astype(np.int64), cat_rows.reshape(n_cat, dim))
    params.weights = weights.reshape(dim, label_dim).copy()
    params.bias = bias.copy()
    return params


def export_embeddings(table: RowTable, path: str) -> None:
    """One line per present row, ids ascending: 'id\\tv_1\\t...\\tv_d'."""
    with open(path, "w") as f:
        for i in table.ids().tolist():
            f.write(str(i) + "\t" + "\t".join(repr(float(x)) for x in table.data[i]) + "\n")
