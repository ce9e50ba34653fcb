"""Canonical names for alias classes of l-values.

Every l-value in a program maps to exactly one representative:

* a scalar (local, formal, or the return slot) keeps its method-qualified name,
* a field access collapses to the highest class in the hierarchy declaring the
  field, so accesses through any compatible receiver share a name,
* an array access collapses to its array's alias partition, ignoring indices,
* the bottom marker stands for divergence itself.

Representatives render as ``m::x``, ``A.f``, ``part#k`` and ``⊥`` in reports.
"""

from __future__ import annotations

from .values import value


@value
class Scalar:
    method: str
    name: str

    def render(self) -> str:
        return f"{self.method}::{self.name}"


@value
class TypeField:
    type_name: str
    field_name: str

    def render(self) -> str:
        return f"{self.type_name}.{self.field_name}"


@value
class ArrayPart:
    part: int

    def render(self) -> str:
        return f"part#{self.part}"


@value
class Bottom:
    def render(self) -> str:
        return "⊥"


BOTTOM = Bottom()

Representative = Scalar | TypeField | ArrayPart | Bottom
