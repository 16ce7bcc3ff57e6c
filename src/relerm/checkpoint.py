"""Versioned binary checkpoints for ParamStore, plus text embedding export.

The format is fixed-layout little-endian and contains no timestamps, so a
deterministic training run produces a bit-identical checkpoint file.

The text export formats each value with Python's float repr, which costs
far more than writing the file, so a large table is split into contiguous
row ranges, one per CPU available to the process. Forked children format
every range but the first into unnamed temporary files, the parent writes
the first into the destination and appends the others in order, so the
file's bytes do not depend on the number of ranges.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import struct
import tempfile
import traceback

import numpy as np

from .graph import unpack_sections
from .losses import MAX_DIM, ParamStore, RowTable

_MAGIC = b"RECK"
_VERSION = 1


def save_checkpoint(params: ParamStore, path: str) -> None:
    if not 0 <= params.seed < 2 ** 64:  # the header holds it in 64 bits
        raise ValueError(f"seed {params.seed} does not fit a checkpoint's 64-bit field")
    emb, cat = params.embeddings, params.category_embeddings
    emb_ids, cat_ids = emb.ids(), cat.ids()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IQQQQQ", _VERSION, params.dim, params.label_dim, params.seed,
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
    if dim < 1:
        raise ValueError(f"checkpoint dim {dim} must be >= 1")
    if dim > MAX_DIM:
        raise ValueError(f"checkpoint dim {dim} exceeds the bound MAX_DIM = {MAX_DIM}")
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
    for name, table, ids, rows in (("embedding ids", params.embeddings, emb_ids, emb_rows),
                                   ("category ids", params.category_embeddings, cat_ids,
                                    cat_rows)):
        try:  # a row table is dense: its largest id sizes it
            table.put(ids.astype(np.int64), rows.reshape(len(ids), dim))
        except MemoryError:
            raise ValueError(f"checkpoint {name} need a dense table of {ids[-1] + 1} rows "
                             f"of dim {dim}, which cannot be allocated") from None
    params.weights = weights.reshape(dim, label_dim).copy()
    params.bias = bias.copy()
    return params


# values per export range, at least: formatting 2^16 floats takes about 40 ms
# (2-vCPU VM), ten times a fork of a process of a few hundred MiB
MIN_RANGE_VALUES = 2 ** 16


def export_embeddings(table: RowTable, path: str) -> None:
    """One line per present row, ids ascending: 'id\\tv_1\\t...\\tv_d', each
    value as repr of its Python float.

    The rows are cut into contiguous ranges, one per available CPU, each of
    at least MIN_RANGE_VALUES values; a smaller table, or a platform
    without os.fork, is one range. The bytes are the same for any number
    of ranges.
    """
    ids = table.ids()
    _export_ranges(table, ids, _range_bounds(len(ids), table.dim), path)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _range_bounds(n_rows: int, dim: int) -> list[int]:
    """Row bounds [0, ..., n_rows] of the export's ranges: as many as there
    are CPUs, while each holds at least MIN_RANGE_VALUES values."""
    min_rows = -(-MIN_RANGE_VALUES // dim)
    k = max(1, min(_cpus(), n_rows // min_rows)) if hasattr(os, "fork") else 1
    return [n_rows * j // k for j in range(k + 1)]


def _write_rows(f, table: RowTable, ids: np.ndarray) -> None:
    """The lines of `ids`. Rows become Python floats 256 at a time, so those
    of the whole range never exist at once."""
    for lo in range(0, len(ids), 256):
        block = ids[lo:lo + 256]
        for i, row in zip(block.tolist(), table.data[block].tolist()):
            f.write(str(i) + "\t" + "\t".join(map(repr, row)) + "\n")


def _export_ranges(table: RowTable, ids: np.ndarray, bounds: list[int], path: str) -> None:
    """Write the rows of ids[bounds[j]:bounds[j + 1]] for every j to `path`:
    the first range from this process, each other from a forked child into
    an unnamed temporary file in path's directory, appended in order. No
    child and no part file outlives the call, whether it returns or
    raises; a child that fails makes it raise OSError naming its range."""
    children = []  # (pid, lo, hi, part file) of each child not yet reaped, in row order
    with contextlib.ExitStack() as files:
        f = files.enter_context(open(path, "w"))
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                part = files.enter_context(
                    tempfile.TemporaryFile("w+", dir=os.path.dirname(os.path.abspath(path))))
                pid = os.fork()
                if pid == 0:
                    _child_writes(part, table, ids[lo:hi])
                children.append((pid, lo, hi, part))
            _write_rows(f, table, ids[bounds[0]:bounds[1]])
            while children:
                pid, lo, hi, part = children[0]
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                if status:
                    raise OSError(f"the child exporting embedding rows {lo} to {hi - 1} "
                                  f"exited with status {os.waitstatus_to_exitcode(status)}")
                part.seek(0)
                shutil.copyfileobj(part, f)
        finally:
            for pid, *_ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child_writes(part, table: RowTable, ids: np.ndarray) -> None:
    """In a forked child: write the lines of `ids` to `part` and leave with
    os._exit, status 0 on success, so no inherited buffer is flushed and no
    atexit handler runs."""
    status = 1
    try:
        _write_rows(part, table, ids)
        part.flush()
        status = 0
    except BaseException:  # the parent reports the range; the cause goes to stderr
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)
