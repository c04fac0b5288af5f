"""Paths to the assets bundled with the package, and the reader of
every JSON input file.

Hands, styles, demos, and the PLY exports of the toy suite live under
fungrasp/assets/; scripts/make_assets.py regenerates them.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

DEFAULT_HAND = "inspire_like"

__all__ = [
    "asset_dir",
    "default_hand_path",
    "default_styles_path",
    "default_demo_path",
    "default_objects_dir",
    "read_json_object",
    "json_object_list",
    "DEFAULT_HAND",
]


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


def read_json_object(path, error: type[Exception]) -> dict:
    """The JSON object the file at path holds. Raises `error`, naming
    the file, when it cannot be read or parsed or its top level is not
    an object."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise error(f"{path}: cannot parse JSON ({e})") from e
    if not isinstance(data, dict):
        raise error(f"{path}: the top level must be a JSON object, not {type(data).__name__}")
    return data


def json_object_list(data: dict, key: str, error: type[Exception], where: str) -> list[dict]:
    """data[key], or [] when it is absent, checked to be a list of JSON
    objects. Raises `error`, naming `where` (the file, and the entry that
    holds data) and the offending entry, when it is not."""
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise error(f"{where}{key}: must be a list, not {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise error(f"{where}{key}[{i}]: must be an object, not {type(entry).__name__}")
    return entries
