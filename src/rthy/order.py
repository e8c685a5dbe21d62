"""Finite preorders, their down-closures and down-sets, and chains.

Relations are stored as dense bitmasks: ``above[i]`` has bit ``j`` set
when ``i`` dominates ``j``.  Carriers are small throughout, so we trade
memory for O(1) closure queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from .errors import IndexOutOfRange, NotReflexiveTransitive


def _check_indices(size: int, subset: Iterable[int]) -> frozenset:
    out = frozenset(subset)
    for i in out:
        if not (0 <= i < size):
            raise IndexOutOfRange(f"element {i} outside carrier of size {size}")
    return out


@dataclass(frozen=True)
class FinitePreorder:
    """Reflexive transitive relation on {0, ..., size-1}.

    The constructor demands reflexive input (a missing loop is almost
    always a modeling bug) and then takes the transitive closure of the
    given pairs.
    """

    size: int
    above: tuple = field(compare=True)  # above[i] bit j set  <=>  i >= j

    def __init__(self, size: int, pairs: Iterable[tuple]):
        adj = [1 << i for i in range(size)]
        seen_loop = [False] * size
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise IndexOutOfRange(f"pair ({a},{b}) outside carrier of size {size}")
            if a == b:
                seen_loop[a] = True
            adj[a] |= 1 << b
        if size and not all(seen_loop):
            missing = seen_loop.index(False)
            raise NotReflexiveTransitive(f"relation not reflexive at element {missing}")
        # Warshall closure over bitmasks
        for k in range(size):
            kbit = 1 << k
            row_k = adj[k]
            for i in range(size):
                if adj[i] & kbit:
                    adj[i] |= row_k
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "above", tuple(adj))

    def geq(self, a: int, b: int) -> bool:
        """a dominates b."""
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise IndexOutOfRange(f"({a},{b}) outside carrier")
        return bool(self.above[a] & (1 << b))

    def pairs(self) -> list:
        return [
            (i, j)
            for i in range(self.size)
            for j in range(self.size)
            if self.above[i] & (1 << j)
        ]


def _to_mask(p: FinitePreorder, subset) -> int:
    if isinstance(subset, int):
        return subset
    mask = 0
    for i in _check_indices(p.size, subset):
        mask |= 1 << i
    return mask


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending, one lowest set bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _to_set(mask: int) -> FrozenSet[int]:
    return frozenset(_bits(mask))


def down_closure(p: FinitePreorder, subset) -> FrozenSet[int]:
    """Everything dominated by some member of ``subset``."""
    mask = _to_mask(p, subset)
    out = 0
    for i in range(p.size):
        if mask & (1 << i):
            out |= p.above[i]
    return _to_set(out)


def all_downsets(p: FinitePreorder) -> list:
    """Every downward closed subset, as frozensets (exponential; small carriers only)."""
    out = []
    for mask in range(1 << p.size):
        s = _to_set(mask)
        if down_closure(p, s) == s:
            out.append(s)
    return out


def chain(n: int) -> FinitePreorder:
    """Total order n-1 >= ... >= 1 >= 0."""
    pairs = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
    return FinitePreorder(n, pairs)
