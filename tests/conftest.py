"""Subprocesses started by the tests import dialogrl from ``src/`` too, so the
suite runs from a fresh checkout without an install (pytest's own imports
use ``pythonpath`` in pyproject.toml)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
