"""Deterministic JSON output with fixed float formatting.

Floats are rendered with 17 significant digits so values round-trip
exactly and repeated runs produce byte-identical files. ``dump_json``
streams the text to the file one container item at a time, so no string of
the whole document is built; a two-dimensional numpy array is written as
the list of its rows, and only one row at a time becomes Python floats.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

# a flat list is at least 3 characters per item, so a longer one never fits
# on the 100-character line
_FLAT_WIDTH = 100
_FLAT_MAX_ITEMS = _FLAT_WIDTH // 3


class NonFiniteError(ValueError):
    """A float to be written is NaN or infinite."""


def format_float(value: float) -> str:
    v = float(value)
    if not math.isfinite(v):
        raise NonFiniteError(f"non-finite value in JSON output: {v!r}")
    return format(v, ".17g")


def _is_scalar(obj) -> bool:
    return obj is None or isinstance(obj, (bool, int, float, str))


def _scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


@lru_cache(maxsize=64)
def _float_list_formats(count: int, level: int) -> tuple[str, str]:
    """``%``-formats of a list of ``count`` floats, flat and one per line."""
    pad, inner = "  " * level, "  " * (level + 1)
    flat = "[" + ", ".join(["%.17g"] * count) + "]"
    lines = "[\n" + inner + (",\n" + inner).join(["%.17g"] * count) + f"\n{pad}]"
    return flat, lines


def _scalar_list(items: list, level: int) -> str:
    """A non-empty list of scalars (or numpy values): flat when it fits in
    ``_FLAT_WIDTH`` characters, else one item per line. A list of plain
    floats is formatted with one ``%`` over its items."""
    if all(isinstance(v, float) for v in items):
        if not all(map(math.isfinite, items)):
            format_float(next(v for v in items if not math.isfinite(v)))  # raises
        flat, lines = _float_list_formats(len(items), level)
        values = tuple(items)
        if len(items) <= _FLAT_MAX_ITEMS:
            text = flat % values
            if len(text) <= _FLAT_WIDTH:
                return text
        return lines % values
    texts = [_encode(v, level + 1) for v in items]
    flat = "[" + ", ".join(texts) + "]"
    if len(flat) <= _FLAT_WIDTH:
        return flat
    inner = "  " * (level + 1)
    return "[\n" + ",\n".join(inner + t for t in texts) + f"\n{'  ' * level}]"


def _chunks(obj, level: int):
    """The JSON text of ``obj`` in pieces, one or two per container item."""
    if _is_scalar(obj):
        yield _scalar(obj)
        return
    if hasattr(obj, "tolist") and getattr(obj, "ndim", 0) < 2:  # numpy scalars and vectors
        obj = obj.tolist()
    pad, inner = "  " * level, "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        sep = "{\n"
        for k, v in obj.items():
            yield f"{sep}{inner}{json.dumps(str(k))}: "
            yield from _chunks(v, level + 1)
            sep = ",\n"
        yield f"\n{pad}}}"
    elif isinstance(obj, (list, tuple)) or hasattr(obj, "tolist"):  # a matrix is its list of rows
        if len(obj) == 0:
            yield "[]"
        elif not hasattr(obj, "tolist") and all(_is_scalar(v) or hasattr(v, "item") for v in obj):
            yield _scalar_list(obj if isinstance(obj, list) else list(obj), level)
        else:
            sep = "[\n"
            for v in obj:
                yield sep + inner
                yield from _chunks(v, level + 1)
                sep = ",\n"
            yield f"\n{pad}]"
    else:
        yield _scalar(obj)  # a numpy scalar's value, or the TypeError


def _encode(obj, level: int) -> str:
    return "".join(_chunks(obj, level))


def dumps_json(obj) -> str:
    return _encode(obj, 0) + "\n"


@contextmanager
def atomic_write(path):
    """Text file handle whose content replaces ``path`` once the block ends.

    The text goes to the sibling ``<name>.tmp`` first; if the block raises
    (a NaN that cannot be written, say), that file is removed and ``path``
    is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as it streams out of the encoder (see
    :func:`atomic_write`)."""
    with atomic_write(path) as fh:
        fh.writelines(_chunks(obj, 0))
        fh.write("\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
