"""Vertex labels.

Three kinds of vertices occur: internal vertices V1, V2, ... carrying the
degree constraints, leaf labels S0, S1, ... (rendered ★ in prose), and
overflow vertices Vinf1, Vinf2, ... created when an atomless draw occurs
while growing a tree from a probability vector.

A Vertex is a (kind, index) named tuple, so labels are hashable, compare
deterministically, and serialize to the compact strings "V3" / "S0" /
"Vinf2" used by the JSON interchange format.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

KIND_INTERNAL = "V"
KIND_STAR = "S"
KIND_OVERFLOW = "Vinf"

_LABEL_RE = re.compile(r"^(Vinf|V|S)(\d+)$")


class Vertex(NamedTuple):
    kind: str
    index: int

    def label(self) -> str:
        return f"{self.kind}{self.index}"

    def __repr__(self):
        return self.label()


def internal(i: int) -> Vertex:
    return Vertex(KIND_INTERNAL, i)


def star(j: int) -> Vertex:
    return Vertex(KIND_STAR, j)


def overflow(i: int) -> Vertex:
    return Vertex(KIND_OVERFLOW, i)


@lru_cache(maxsize=64)
def _labels(make, n: int) -> tuple:  # make(0)..make(n - 1); labels are immutable
    return tuple(map(make, range(n)))


def parse_vertex(label: str) -> Vertex:
    m = _LABEL_RE.match(label)
    if m is None:
        raise ValueError(f"unrecognized vertex label {label!r}")
    return Vertex(m.group(1), int(m.group(2)))


def is_star(v: Vertex) -> bool:
    return v.kind == KIND_STAR
