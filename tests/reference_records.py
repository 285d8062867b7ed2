"""The records as `@dataclass` definitions, the form they had before they
became plain slotted classes, kept as a test oracle.

Only what decides identity is kept: the fields with their flags, the
custom `__eq__`/`__hash__`/`__repr__`, and the `__post_init__` that
normalizes a field.  Validation that only raises, and every other method,
is left to the library.  `to_reference` maps a library record to the
record here with the same field values.
"""

from dataclasses import dataclass, field

import dressian
from dressian.matroid import _normalize_bases
from dressian.valuation import _integer_view


@dataclass(frozen=True)
class Matroid:
    n: int
    r: int
    bases: frozenset

    def __post_init__(self):
        object.__setattr__(self, "bases", _normalize_bases(self.n, self.r, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n}, r={self.r}, |bases|={len(self.bases)})"


@dataclass(frozen=True, order=True)
class Symbol:
    s_mask: int
    a: int
    b: int
    c: int
    d: int


@dataclass(frozen=True, eq=False)
class Valuation:
    matroid: Matroid
    values: dict
    denominator: int = field(init=False, repr=False)
    scaled: tuple = field(init=False, repr=False)

    def __post_init__(self):
        den, scaled = _integer_view(self.matroid, self.values.items())
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "scaled", scaled)

    def __eq__(self, other):
        return (
            isinstance(other, Valuation)
            and self.matroid == other.matroid
            and self.values == other.values
        )

    def __hash__(self):
        # the view is unique per value map, so this agrees with __eq__
        return hash((self.matroid, self.denominator, self.scaled))


@dataclass(frozen=True)
class CombinatorialType:
    matroid: Matroid
    free_ids: tuple


@dataclass(frozen=True)
class ExactCover:
    ground: frozenset
    blocks: tuple
    k: int

    def __post_init__(self):
        object.__setattr__(self, "ground", frozenset(self.ground))
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))


@dataclass(frozen=True)
class TreeTopology:
    splits: frozenset


def to_reference(x):
    """The reference record with the field values of library record x."""
    if isinstance(x, dressian.Matroid):
        return Matroid(x.n, x.r, x.bases)
    if isinstance(x, dressian.Symbol):
        return Symbol(x.s_mask, x.a, x.b, x.c, x.d)
    if isinstance(x, dressian.Valuation):
        return Valuation(to_reference(x.matroid), dict(x.values))
    if isinstance(x, dressian.CombinatorialType):
        return CombinatorialType(to_reference(x.matroid), x.free_ids)
    if isinstance(x, dressian.ExactCover):
        return ExactCover(x.ground, x.blocks, x.k)
    if isinstance(x, dressian.TreeTopology):
        return TreeTopology(x.splits)
    raise TypeError(f"no reference record for {type(x).__name__}")
