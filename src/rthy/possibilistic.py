"""Boolean-semiring shadow of encoding distinguishability.

``ceil`` forgets probabilities and keeps supports; conversion questions
become Boolean matrix equations T (x) x = y, decided by exhaustive
column-wise backtracking (so a negative answer is a proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import FormatError, HypothesisMismatch, SearchTooLarge
from .majorize import Convertible, Encoding, NotConvertible

SEARCH_GUARD = 1 << 24


@dataclass(frozen=True)
class BoolStochasticMap:
    """Boolean shadow of a stochastic map: a 0/1 matrix (to x from) with
    every column nonzero."""

    matrix: tuple
    label = "boolean map"

    def __init__(self, matrix):
        matrix = tuple(tuple(int(v) for v in row) for row in matrix)
        if any(v not in (0, 1) for row in matrix for v in row):
            raise FormatError(f"{self.label} entries must be 0 or 1")
        for j, col in enumerate(zip(*matrix)):
            if not any(col):
                raise FormatError(f"{self.label} column {j} is all zero")
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_from(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def n_to(self) -> int:
        return len(self.matrix)

    def _then(self, other, mismatch: str):
        """The Boolean product self.matrix x other.matrix, of other's class."""
        if self.n_from != other.n_to:
            raise FormatError(mismatch)
        cols = list(zip(*other.matrix))
        return type(other)([[int(any(a and b for a, b in zip(row, col))) for col in cols]
                            for row in self.matrix])

    def __call__(self, x: "BoolEncoding") -> "BoolEncoding":
        return self._then(x, "boolean map/encoding size mismatch")

    def compose(self, other: "BoolStochasticMap") -> "BoolStochasticMap":
        return self._then(other, "boolean map composition size mismatch")


class BoolEncoding(BoolStochasticMap):
    """Boolean shadow of an encoding: outcomes x hypotheses over {0,1}."""

    label = "boolean encoding"
    hypotheses = BoolStochasticMap.n_from
    outcomes = BoolStochasticMap.n_to


def _support(m) -> tuple:
    """Entrywise positive -> 1, else 0, of a rational matrix."""
    return tuple(tuple(1 if v > 0 else 0 for v in row) for row in m.rows)


def ceil(x: Encoding) -> BoolEncoding:
    """Support pattern of an encoding."""
    return BoolEncoding(_support(x.matrix))


def ceil_map(t) -> BoolStochasticMap:
    """Support pattern of a rational stochastic map."""
    return BoolStochasticMap(_support(t.matrix))


def to_hypergraph(x: BoolEncoding) -> List[frozenset]:
    """One hyperedge per hypothesis: the outcomes it can produce."""
    return [frozenset(i for i in range(x.outcomes) if x.matrix[i][h])
            for h in range(x.hypotheses)]


def bool_majorizes(x: BoolEncoding, y: BoolEncoding):
    """Exhaustive search for a Boolean stochastic T with T (x) x = y.

    Column j of T may only hit rows whose target pattern covers x's row-j
    support; within that, all nonempty choices are tried (lexicographically
    smallest witness first), with a reachability prune on the uncovered
    part.  A NotConvertible verdict is therefore a completed search.
    """
    if x.hypotheses != y.hypotheses:
        raise HypothesisMismatch(
            f"encodings have {x.hypotheses} vs {y.hypotheses} hypotheses")
    h = x.hypotheses
    nx, ny = x.outcomes, y.outcomes
    # supports of x's rows, and y's columns as row masks
    xrow_support = [frozenset(c for c in range(h) if x.matrix[j][c]) for j in range(nx)]
    ycol_mask = [0] * h
    for c in range(h):
        for i in range(ny):
            if y.matrix[i][c]:
                ycol_mask[c] |= 1 << i
    full_rows = (1 << ny) - 1
    allowed = []
    for j in range(nx):
        mask = full_rows
        for c in xrow_support[j]:
            mask &= ycol_mask[c]
        allowed.append(mask)
    if any(a == 0 for a in allowed):
        return NotConvertible()
    space = 1
    for a in allowed:
        space *= (1 << bin(a).count("1")) - 1
    if space > SEARCH_GUARD:
        raise SearchTooLarge("boolean witness candidates", space, SEARCH_GUARD)

    # target (i, c) cells to cover, flattened as i*h + c
    target = 0
    for c in range(h):
        for i in range(ny):
            if y.matrix[i][c]:
                target |= 1 << (i * h + c)

    def column_cover(j: int, pick: int) -> int:
        cov = 0
        for i in range(ny):
            if pick & (1 << i):
                for c in xrow_support[j]:
                    cov |= 1 << (i * h + c)
        return cov

    potential = [column_cover(j, allowed[j]) for j in range(nx)]
    potential_suffix = [0] * (nx + 1)
    for j in range(nx - 1, -1, -1):
        potential_suffix[j] = potential_suffix[j + 1] | potential[j]

    choice = [0] * nx

    def search(j: int, covered: int):
        if j == nx:
            return covered == target
        if (covered | potential_suffix[j]) & target != target:
            return False
        for pick in range(1, 1 << ny):  # ascending => lexicographically least witness
            if pick & ~allowed[j]:
                continue
            choice[j] = pick
            if search(j + 1, covered | column_cover(j, pick)):
                return True
        return False

    if not search(0, 0):
        return NotConvertible()
    witness = BoolStochasticMap(
        [[1 if choice[j] & (1 << i) else 0 for j in range(nx)] for i in range(ny)])
    if witness(x) != y:
        raise RuntimeError("boolean witness does not map x to y: search fault")
    return Convertible(witness=witness)
