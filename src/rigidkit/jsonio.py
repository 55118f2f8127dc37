"""Deterministic JSON output with fixed float formatting.

Floats are rendered with 17 significant digits so values round-trip
exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


class NonFiniteError(ValueError):
    """A float to be written is NaN or infinite."""


def format_float(value: float) -> str:
    v = float(value)
    if not math.isfinite(v):
        raise NonFiniteError(f"non-finite value in JSON output: {value!r}")
    return format(v, ".17g")


def _is_scalar(obj) -> bool:
    return obj is None or isinstance(obj, (bool, int, float, str))


def _encode(obj, level: int) -> str:
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
    if hasattr(obj, "tolist"):  # numpy arrays
        return _encode(obj.tolist(), level)
    if hasattr(obj, "item"):  # numpy scalars
        return _encode(obj.item(), level)
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_encode(v, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(_is_scalar(v) or hasattr(v, "item") for v in obj):
            flat = "[" + ", ".join(_encode(v, level + 1) for v in obj) + "]"
            if len(flat) <= 100:
                return flat
        parts = [f"{inner}{_encode(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _encode(obj, 0) + "\n"


def dump_json(obj, path) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
