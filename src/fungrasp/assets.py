"""Paths to the assets bundled with the package, the readers of every
JSON input file and of its numeric and pose fields, and UserError, the
one error every rejected input raises.

Hands, styles, demos, and the PLY exports of the toy suite live under
fungrasp/assets/; scripts/make_assets.py regenerates them.
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

DEFAULT_HAND = "inspire_like"

__all__ = [
    "UserError",
    "asset_dir",
    "default_hand_path",
    "default_styles_path",
    "default_demo_path",
    "default_objects_dir",
    "read_json_object",
    "json_object_list",
    "json_number",
    "json_pose",
    "DEFAULT_HAND",
]


class UserError(ValueError):
    """An input the user gave is rejected: a file, a field of one, a
    config value or a flag. Its message names what it rejects."""


def asset_dir() -> Path:
    return Path(str(resources.files("fungrasp").joinpath("assets")))


def default_hand_path(name: str = DEFAULT_HAND) -> Path:
    return asset_dir() / "hands" / f"{name}.json"


def default_styles_path(name: str = DEFAULT_HAND) -> Path:
    return asset_dir() / "styles" / f"{name}_styles.json"


def default_demo_path(name: str = DEFAULT_HAND) -> Path:
    return asset_dir() / "demos" / f"{name}_box_demo.json"


def default_objects_dir() -> Path:
    return asset_dir() / "objects"


def read_json_object(path) -> dict:
    """The JSON object the file at path holds. Raises UserError, naming
    the file, when it cannot be read or parsed or its top level is not
    an object."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise UserError(f"{path}: cannot parse JSON ({e})") from e
    if not isinstance(data, dict):
        raise UserError(f"{path}: the top level must be a JSON object, not {type(data).__name__}")
    return data


def json_object_list(data: dict, key: str, where: str) -> list[dict]:
    """data[key], or [] when it is absent, checked to be a list of JSON
    objects. Raises UserError, naming `where` (the file, and the entry that
    holds data) and the offending entry, when it is not."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise UserError(f"{where}{key}: must be a list, not {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise UserError(f"{where}{key}[{i}]: must be an object, not {type(entry).__name__}")
    return entries


def json_number(value, where: str, *, integer: bool = False, vector: bool = False):
    """A numeric field of a JSON input file: a number a finite float
    holds (with integer, a JSON integer), as a float (an int), or with
    vector a list of them, as a float array (a tuple of ints). A bool, a
    string, null, an object or a nested list is no number. Raises
    UserError, naming `where` and the value (in a list, the first bad
    entry), for anything else."""
    kinds = (int,) if integer else (int, float)
    items = value if vector and isinstance(value, list) else [value]
    try:    # one pass over the types, one conversion; an int no float holds overflows
        array = np.array(items, dtype=float) if set(map(type, items)) <= set(kinds) else None
    except OverflowError:
        array = None
    if array is None or not np.isfinite(array).all() or isinstance(value, list) != vector:
        # abs(v) <= max is False for NaN, the infinities and an int no float holds
        bad = [i for i, v in enumerate(items) if type(v) not in kinds or not abs(v) <= sys.float_info.max]
        noun = "integer" if integer else "finite number"
        want = f"a list of {noun}s" if vector else f"an {noun}" if integer else f"a {noun}"
        got = f"{items[bad[0]]!r} at [{bad[0]}]" if bad and items is value else repr(value)
        raise UserError(f"{where}: must be {want}, got {got}")
    if vector:
        return tuple(value) if integer else array
    return value if integer else float(value)


def json_pose(value, where: str):
    """A pose field {"t": [3 numbers], "r": [4 numbers]} of a JSON input
    file, returned as read-only (t, r) arrays with r / np.linalg.norm(r).
    Raises UserError, naming `where`, for a field of another shape or a
    quaternion whose norm is more than 1e-6 from 1."""
    fields = value if isinstance(value, dict) else {}
    t, r = (json_number(fields.get(k), f"{where}.{k}", vector=True) for k in "tr")
    for name, a, n in (("t", t, 3), ("r", r, 4)):
        if a.shape != (n,):
            raise UserError(f"{where}: {name} must have shape ({n},), got {a.shape}")
    norm = np.linalg.norm(r)
    if abs(norm - 1.0) > 1e-6:
        raise UserError(f"{where}: quaternion norm {norm:.3e} too far from 1")
    r = r / norm
    t.setflags(write=False)
    r.setflags(write=False)
    return t, r
