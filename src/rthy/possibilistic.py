"""Boolean-semiring shadow of encoding distinguishability.

``ceil`` forgets probabilities and keeps supports; conversion questions
become Boolean matrix equations T (x) x = y, decided in closed form by the
largest T that respects supports (so a negative answer is a proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import FormatError, HypothesisMismatch
from .majorize import Convertible, Encoding, NotConvertible


@dataclass(frozen=True)
class BoolStochasticMap:
    """Boolean shadow of a stochastic map: a 0/1 matrix (to x from) with
    every column nonzero."""

    matrix: tuple
    label = "boolean map"

    def __init__(self, matrix):
        matrix = [tuple(row) for row in matrix]
        if any(v not in (0, 1) for row in matrix for v in row):
            raise FormatError(f"{self.label} entries must be 0 or 1")
        if len({len(row) for row in matrix}) > 1:
            raise FormatError(f"{self.label} rows have unequal lengths")
        matrix = tuple(tuple(map(int, row)) for row in matrix)
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


def _support(rows) -> tuple:
    """Entrywise positive -> 1, else 0, of rational rows."""
    return tuple(tuple(1 if v > 0 else 0 for v in row) for row in rows)


def ceil(x: Encoding) -> BoolEncoding:
    """Support pattern of an encoding."""
    return BoolEncoding(_support(x.matrix))


def to_hypergraph(x: BoolEncoding) -> List[frozenset]:
    """One hyperedge per hypothesis: the outcomes it can produce."""
    return [frozenset(i for i in range(x.outcomes) if x.matrix[i][h])
            for h in range(x.hypotheses)]


def _row_masks(m: BoolStochasticMap) -> List[int]:
    """Each row of a 0/1 matrix as a bit mask over its columns."""
    return [sum(v << c for c, v in enumerate(row)) for row in m.matrix]


def bool_majorizes(x: BoolEncoding, y: BoolEncoding):
    """Decide whether a Boolean stochastic T with T (x) x = y exists.

    T may set (i, j) only where y's row i covers x's row j; every such T
    gives T (x) x <= y and the product is monotone in T, so a witness exists
    exactly when each column of T has an allowed row and the largest allowed
    T maps x onto y.  A NotConvertible verdict is therefore a proof.  The
    witness is the lexicographically least one: column j takes the rows that
    still lack a hypothesis no later column can supply, else its lowest
    allowed row.
    """
    if x.hypotheses != y.hypotheses:
        raise HypothesisMismatch(
            f"encodings have {x.hypotheses} vs {y.hypotheses} hypotheses")
    xr, yr = _row_masks(x), _row_masks(y)
    allowed = [[i for i, b in enumerate(yr) if not a & ~b] for a in xr]
    # later[j][i]: the hypotheses that columns j.. of the largest T give row i
    later = [[0] * len(yr)]
    for a, rows in zip(reversed(xr), reversed(allowed)):
        later.append(list(later[-1]))
        for i in rows:
            later[-1][i] |= a
    later.reverse()
    if not all(allowed) or later[0] != yr:
        return NotConvertible()
    lacking, picks = list(yr), []
    for j, a in enumerate(xr):
        pick = [i for i in allowed[j] if lacking[i] & ~later[j + 1][i]] or allowed[j][:1]
        for i in pick:
            lacking[i] &= ~a
        picks.append(pick)
    witness = BoolStochasticMap([[int(i in pick) for pick in picks] for i in range(len(yr))])
    if witness(x) != y:
        raise RuntimeError("boolean witness does not map x to y: decision fault")
    return Convertible(witness=witness)
