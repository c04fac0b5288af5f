"""Locate the checkout and import fungrasp from its own source tree."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no fungrasp source tree to benchmark."""


def import_fungrasp():
    """Import fungrasp from ROOT/src, never from an installed copy."""
    if not (SRC / "fungrasp" / "__init__.py").is_file():
        raise MissingProgram(f"no fungrasp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    fg = importlib.import_module("fungrasp")
    origin = Path(fg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingProgram(f"fungrasp imported from {origin}, not from {SRC}")
    for name in ("assets", "training", "evaluation", "policy", "sim", "demo", "hand", "objects"):
        importlib.import_module(f"fungrasp.{name}")
    return fg
