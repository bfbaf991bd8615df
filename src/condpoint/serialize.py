"""Deterministic artifact serialization.

Every number is written with 17 significant digits so artifacts round-trip
exactly and identical runs produce byte-identical files.  JSON objects are
emitted with sorted keys and no incidental whitespace variation; CSV uses a
header row, comma separators, '.' decimals, and '\\n' line endings.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v != v:
        return '"nan"'
    if v == float("inf"):
        return '"inf"'
    if v == float("-inf"):
        return '"-inf"'
    return f"{v:.17g}"


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    return _emit(obj) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(obj), encoding="utf-8", newline="\n")
    return path


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return format_number(v).strip('"')


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path
