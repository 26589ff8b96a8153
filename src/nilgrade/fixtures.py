"""Bundled algebra corpus and its automorphism / holonomy companions.

The corpus path can be overridden with the NILGRADE_FIXTURES environment
variable; file names are `<name>.json` for algebras, `maps/<algebra>__
<map>.json` for matrices and `holonomy/<name>.json` for holonomy data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .holonomy import HolonomyGroup, close_group
from .liealg import LieAlgebra
from .matrices import QMat
from .serialize import algebra_from_dict, holonomy_payload, matrix_from_lists

# every algebra of dimension <= 6 bundled for the expanding spot check
CORPUS_6DIM = (
    "abelian3",
    "heisenberg3",
    "heisenberg5",
    "filiform4",
    "filiform5",
    "filiform6",
    "sixdim_class3",
    "sixdim_class4",
)
ALL_FIXTURES = CORPUS_6DIM + ("nilp5", "notcohopf")

FIXTURE_MAPS = {
    "heisenberg3": ("diag224", "diag236", "diag122", "rotation"),
    "notcohopf": ("phi",),
}

HOLONOMY_FIXTURES = ("heisenberg3_sign", "heisenberg3_swap", "heisenberg3_order3")


def fixtures_dir() -> Path:
    override = os.environ.get("NILGRADE_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return fixtures_dir() / f"{name}.json"


def load_algebra(name: str) -> LieAlgebra:
    with open(fixture_path(name)) as fh:
        return algebra_from_dict(json.load(fh))


def load_map(algebra_name: str, map_name: str) -> QMat:
    path = fixtures_dir() / "maps" / f"{algebra_name}__{map_name}.json"
    with open(path) as fh:
        return matrix_from_lists(json.load(fh))


def load_holonomy(name: str) -> HolonomyGroup:
    path = fixtures_dir() / "holonomy" / f"{name}.json"
    with open(path) as fh:
        gens, cap = holonomy_payload(json.load(fh))
    return close_group(gens, cap)


def resolve_path(arg: str, kind: str = "") -> Path:
    """A real path, or the name of a bundled fixture: an algebra, or one
    in the `kind` subdirectory (e.g. "holonomy")."""
    p = Path(arg)
    if p.exists():
        return p
    candidate = fixtures_dir() / kind / f"{arg}.json"
    if candidate.exists():
        return candidate
    raise FileNotFoundError(f"no such file or bundled fixture: {arg}")
