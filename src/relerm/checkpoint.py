"""Versioned binary checkpoints for ParamStore, plus text embedding export.

The format is fixed-layout little-endian and contains no timestamps, so a
deterministic training run produces a bit-identical checkpoint file.
"""

from __future__ import annotations

import struct

import numpy as np

from .losses import ParamStore

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
        if f.read(4) != _MAGIC:
            raise ValueError("not a checkpoint file")
        version, dim, label_dim, seed, n_emb, n_cat = struct.unpack("<IQQQQQ", f.read(44))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        dim, label_dim = int(dim), int(label_dim)
        params = ParamStore(dim, label_dim, int(seed))
        for table, n in ((params.embeddings, int(n_emb)), (params.category_embeddings, int(n_cat))):
            ids = np.frombuffer(f.read(8 * n), dtype="<i8").astype(np.int64)
            rows = np.frombuffer(f.read(8 * dim * n), dtype="<f8").reshape(n, dim)
            table.put(ids, rows)
        params.weights = np.frombuffer(f.read(8 * dim * label_dim),
                                       dtype="<f8").reshape(dim, label_dim).copy()
        params.bias = np.frombuffer(f.read(8 * label_dim), dtype="<f8").copy()
    return params


def export_embeddings(table: dict[int, np.ndarray], path: str) -> None:
    """One line per id: 'id\\tv_1\\t...\\tv_d'."""
    with open(path, "w") as f:
        for i in sorted(table):
            f.write(str(i) + "\t" + "\t".join(repr(float(x)) for x in table[i]) + "\n")
