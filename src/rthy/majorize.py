"""Distinguishability of finite stochastic encodings.

An encoding is a column-stochastic matrix whose columns are the
distributions of an observed system under each hypothesis.  Conversion
by hypothesis-independent post-processing (matrix majorization) is
decided exactly by LP with witnesses/certificates; zonotopes, Markotopes
and Lorenz curves expose the order's geometry.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    FormatError,
    HypothesisMismatch,
    LengthMismatch,
    WrongHypothesisCount,
    ZeroReference,
)
from .exactmath import (
    F0,
    F1,
    INFEASIBLE,
    LpProblem,
    Matrix,
    OPTIMAL,
    format_rational,
    json_int,
    lp_solve,
    parse_rational,
)
from .quantale import FunctionAction

DEFAULT_ENUM_GUARD = 1 << 20


def enumeration_guard() -> int:
    raw = os.environ.get("RTHY_ENUM_GUARD")
    if raw is None:
        return DEFAULT_ENUM_GUARD
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"RTHY_ENUM_GUARD must be an integer, got {raw!r}")


def _check_stochastic(mat: Matrix, what: str):
    for i in range(mat.nrows):
        for j in range(mat.ncols):
            if mat[i, j] < 0:
                raise FormatError(f"{what} has a negative entry at ({i},{j})")
    for j in range(mat.ncols):
        if sum(mat.col(j), F0) != 1:
            raise FormatError(f"{what} column {j} does not sum to 1")


def _sized_columns(doc, count_key: str, length_key: str, what: str):
    """``doc[count_key]``, ``doc[length_key]`` and ``doc["columns"]``, checked
    to be two JSON integers (not booleans) and a list of lists."""
    try:
        count, length, cols = doc[count_key], doc[length_key], doc["columns"]
    except (KeyError, TypeError) as exc:
        raise FormatError(
            f"{what} JSON needs '{count_key}', '{length_key}' and 'columns'") from exc
    for key, value in ((count_key, count), (length_key, length)):
        json_int(value, f"{what} '{key}'")
    if not isinstance(cols, list) or not all(isinstance(c, list) for c in cols):
        raise FormatError(f"{what} 'columns' must be a list of lists")
    return count, length, cols


@dataclass(frozen=True)
class Encoding:
    """n-outcome distributions indexed by h hypotheses (matrix is n x h)."""

    matrix: Matrix

    def __post_init__(self):
        if self.matrix.ncols == 0:
            raise FormatError("an encoding needs at least one hypothesis")
        _check_stochastic(self.matrix, "encoding")

    @property
    def hypotheses(self) -> int:
        return self.matrix.ncols

    @property
    def outcomes(self) -> int:
        return self.matrix.nrows

    @staticmethod
    def from_columns(columns: Sequence[Sequence]) -> "Encoding":
        cols = [[Fraction(v) for v in col] for col in columns]
        if len({len(c) for c in cols}) > 1:
            raise FormatError("encoding columns have unequal lengths")
        return Encoding(Matrix(zip(*cols)))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Encoding":
        return Encoding(Matrix(rows))

    def column(self, c: int) -> tuple:
        return self.matrix.col(c)

    @staticmethod
    def from_json(doc) -> "Encoding":
        h, n, cols = _sized_columns(doc, "hypotheses", "outcomes", "encoding")
        if len(cols) != h or any(len(c) != n for c in cols):
            raise FormatError("encoding 'columns' shape disagrees with declared sizes")
        return Encoding.from_columns([[parse_rational(v) for v in col] for col in cols])

    def to_json(self) -> dict:
        return {
            "hypotheses": self.hypotheses,
            "outcomes": self.outcomes,
            "columns": [[format_rational(v) for v in self.column(c)]
                        for c in range(self.hypotheses)],
        }


@dataclass(frozen=True)
class StochasticMap:
    """Column-stochastic matrix (``to`` x ``from``); column j is the output
    distribution on input j."""

    matrix: Matrix

    def __post_init__(self):
        _check_stochastic(self.matrix, "stochastic map")

    @property
    def n_from(self) -> int:
        return self.matrix.ncols

    @property
    def n_to(self) -> int:
        return self.matrix.nrows

    def __call__(self, x: Encoding) -> Encoding:
        if self.n_from != x.outcomes:
            raise DimensionMismatch(
                f"map expects {self.n_from} outcomes, encoding has {x.outcomes}")
        return Encoding(self.matrix @ x.matrix)

    @staticmethod
    def identity(n: int) -> "StochasticMap":
        return StochasticMap(Matrix.identity(n))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "StochasticMap":
        return StochasticMap(Matrix([[Fraction(v) for v in row] for row in rows]))

    @staticmethod
    def from_json(doc) -> "StochasticMap":
        n_from, n_to, cols = _sized_columns(doc, "from", "to", "stochastic map")
        if len(cols) != n_from or any(len(c) != n_to for c in cols):
            raise FormatError("stochastic map 'columns' shape disagrees with declared sizes")
        return StochasticMap(Matrix(
            [[parse_rational(cols[j][i]) for j in range(n_from)] for i in range(n_to)]))

    def to_json(self) -> dict:
        return {
            "from": self.n_from,
            "to": self.n_to,
            "columns": [[format_rational(self.matrix[i, j]) for i in range(self.n_to)]
                        for j in range(self.n_from)],
        }


@dataclass(frozen=True)
class Convertible:
    witness: object

    @property
    def convertible(self) -> bool:
        return True


@dataclass(frozen=True)
class NotConvertible:
    farkas: Optional[tuple] = None
    problem: Optional[LpProblem] = field(default=None, repr=False, compare=False)

    @property
    def convertible(self) -> bool:
        return False


def _conversion_problem(x: Encoding, target: Matrix) -> LpProblem:
    """Feasibility LP for a stochastic t with t * x = target.

    Column ``i*n_from + j`` holds ``t[i][j]``.  One row per hypothesis c and
    output i asks ``sum_j t[i][j] x[j, c] = target[i, c]``; then one row per
    input j asks that column j of t sums to 1.
    """
    n_from, h = x.outcomes, x.hypotheses
    n_to = target.nrows
    width = n_to * n_from
    a_rows, b = [], []
    for c in range(h):
        col = x.column(c)
        for i in range(n_to):
            row = [0] * width
            row[i * n_from:(i + 1) * n_from] = col
            a_rows.append(row)
            b.append(target[i, c])
    for j in range(n_from):
        a_rows.append([1 if k % n_from == j else 0 for k in range(width)])
        b.append(1)
    return LpProblem(c=[0] * width, a_rows=a_rows, b=b)


def majorizes(x: Encoding, y: Encoding):
    """Decide whether x converts to y by a hypothesis-independent stochastic map.

    Returns ``Convertible`` carrying an exact witness, replayed on x before it
    is returned, or ``NotConvertible`` carrying a Farkas certificate together
    with the LP it refutes.
    """
    if x.hypotheses != y.hypotheses:
        raise HypothesisMismatch(
            f"encodings have {x.hypotheses} vs {y.hypotheses} hypotheses")
    problem = _conversion_problem(x, y.matrix)
    outcome = lp_solve(problem)
    if outcome.status == OPTIMAL:
        n_from = x.outcomes
        rows = [outcome.primal[i * n_from:(i + 1) * n_from] for i in range(y.outcomes)]
        try:
            witness = StochasticMap(Matrix(rows))
        except FormatError:
            witness = None
        if witness is None or witness(x) != y:
            raise RuntimeError("majorization witness does not map x to y: solver fault")
        return Convertible(witness=witness)
    assert outcome.status == INFEASIBLE
    return NotConvertible(farkas=tuple(outcome.farkas), problem=problem)


def det_postprocessings(n: int, k: int) -> List[StochasticMap]:
    """All k^n deterministic (0/1) column-stochastic maps n -> k, lexicographic."""
    total = k ** n
    if total > enumeration_guard():
        raise EnumerationTooLarge(f"{k}^{n} = {total} deterministic maps exceed the guard")
    out = []
    for assignment in itertools.product(range(k), repeat=n):
        rows = [[F1 if assignment[j] == i else F0 for j in range(n)] for i in range(k)]
        out.append(StochasticMap(Matrix(rows)))
    return out


# --------------------------------------------------------------------------
# Zonotopes
# --------------------------------------------------------------------------


def _merged_rows(x: Encoding) -> List[tuple]:
    """Sufficient-statistic reduction: drop zero rows, sum proportional ones."""
    groups = {}
    order = []
    for i in range(x.outcomes):
        row = x.matrix.row(i)
        pivot = next((c for c, v in enumerate(row) if v != 0), None)
        if pivot is None:
            continue
        key = (pivot, tuple(v / row[pivot] for v in row))
        if key not in groups:
            groups[key] = [F0] * x.hypotheses
            order.append(key)
        groups[key] = [a + b for a, b in zip(groups[key], row)]
    return [tuple(groups[k]) for k in order]


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class Zonotope2:
    """Planar zonotope: CCW vertices starting at the lexicographic minimum."""

    vertices: tuple

    def __contains__(self, point) -> bool:
        p = (Fraction(point[0]), Fraction(point[1]))
        vs = self.vertices
        if len(vs) == 1:
            return p == vs[0]
        if len(vs) == 2:
            a, b = vs
            if _cross(a, b, p) != 0:
                return False
            lo0, hi0 = min(a[0], b[0]), max(a[0], b[0])
            lo1, hi1 = min(a[1], b[1]), max(a[1], b[1])
            return lo0 <= p[0] <= hi0 and lo1 <= p[1] <= hi1
        return all(_cross(vs[i], vs[(i + 1) % len(vs)], p) >= 0 for i in range(len(vs)))


def zonotope(x: Encoding) -> Zonotope2:
    """The set of top rows of all 2-outcome post-processings of a 2-hypothesis
    encoding, as an exact CCW polygon from (0,0) to (1,1) and back."""
    if x.hypotheses != 2:
        raise WrongHypothesisCount(f"zonotope needs 2 hypotheses, got {x.hypotheses}")
    gens = _merged_rows(x)  # pairwise non-parallel, all in the first quadrant

    def shallower(u, v):
        cr = u[0] * v[1] - u[1] * v[0]
        return -1 if cr > 0 else 1  # u strictly shallower slope first

    gens.sort(key=functools.cmp_to_key(shallower))
    partial = [(F0, F0)]
    for g in gens:
        last = partial[-1]
        partial.append((last[0] + g[0], last[1] + g[1]))
    top = partial[-1]  # (1,1) by column normalization
    lower = partial
    upper = [(top[0] - p[0], top[1] - p[1]) for p in partial[1:-1]]
    return Zonotope2(vertices=tuple(lower + upper))


def _point_in_zonotope_lp(x: Encoding, point: Sequence[Fraction]) -> bool:
    """Membership of a point of [0,1]^h in {sum_j u_j row_j(x) : u in [0,1]^n}.

    Columns are ``u_0..u_{n-1}`` and then the slack of ``u_j <= 1`` for each j.
    """
    n = x.outcomes
    a_rows = [list(x.column(c)) + [0] * n for c in range(x.hypotheses)]
    a_rows += [[1 if k in (j, n + j) else 0 for k in range(2 * n)] for j in range(n)]
    b = [Fraction(v) for v in point] + [1] * n
    return lp_solve(LpProblem(c=[0] * (2 * n), a_rows=a_rows, b=b)).status == OPTIMAL


def zonotope_includes(x: Encoding, y: Encoding) -> bool:
    """Does the 2-outcome reachable set of x cover that of y?

    Two hypotheses: exact polygon inclusion (vertex-in-polygon tests).
    More hypotheses: every subset-sum vertex of y's zonotope is checked
    for membership in x's by LP.
    """
    if x.hypotheses != y.hypotheses:
        raise HypothesisMismatch(
            f"encodings have {x.hypotheses} vs {y.hypotheses} hypotheses")
    if x.hypotheses == 2:
        zx = zonotope(x)
        return all(v in zx for v in zonotope(y).vertices)
    rows = _merged_rows(y)
    if 2 ** len(rows) > enumeration_guard():
        raise EnumerationTooLarge(
            f"2^{len(rows)} zonotope vertices of the candidate exceed the guard")
    for picks in itertools.product((0, 1), repeat=len(rows)):
        point = [sum((r[c] for r, p in zip(rows, picks) if p), F0)
                 for c in range(y.hypotheses)]
        if not _point_in_zonotope_lp(x, point):
            return False
    return True


def markotope_contains(x: Encoding, z: Encoding, k: int) -> bool:
    """Is z a k-outcome post-processing of x?"""
    if z.outcomes != k:
        raise DimensionMismatch(f"candidate has {z.outcomes} outcomes, expected {k}")
    return majorizes(x, z).convertible


# --------------------------------------------------------------------------
# Lorenz curves and relative majorization
# --------------------------------------------------------------------------


def lorenz(x: Sequence, r: Sequence) -> List[Tuple[Fraction, Fraction]]:
    """Cumulative curve of x against a strictly positive reference r.

    Indices are taken in order of decreasing density x_i/r_i (ties in
    index order; any tie order yields the same curve).  One vertex per
    index, from (0,0) to (1,1): abscissa accumulates r, ordinate x.
    """
    xs = [Fraction(v) for v in x]
    rs = [Fraction(v) for v in r]
    if len(xs) != len(rs):
        raise LengthMismatch(f"distribution has {len(xs)} entries, reference {len(rs)}")
    if any(v <= 0 for v in rs):
        raise ZeroReference("reference distribution must be strictly positive")
    order = sorted(range(len(xs)), key=lambda i: (-(xs[i] / rs[i]), i))
    points = [(F0, F0)]
    cx, cr = F0, F0
    for i in order:
        cr += rs[i]
        cx += xs[i]
        points.append((cr, cx))
    return points


def relative_majorizes(x: Sequence, rx: Sequence, y: Sequence, ry: Sequence):
    """Majorization of the pair (x, rx) over (y, ry) as 2-hypothesis encodings."""
    return majorizes(Encoding.from_columns([x, rx]), Encoding.from_columns([y, ry]))


def orbit_encoding(x: Sequence, action: FunctionAction) -> Encoding:
    """Encoding whose hypotheses are the symmetry-moved copies of x.

    Column k is the push-forward of x along the k-th map of the action;
    any distinguishability monotone of the result measures asymmetry of x.
    """
    xs = [Fraction(v) for v in x]
    if action.degree != len(xs):
        raise LengthMismatch(
            f"action permutes {action.degree} points, distribution has {len(xs)}")
    cols = []
    for mp in action.maps:
        col = [F0] * len(xs)
        for j, v in enumerate(xs):
            col[mp[j]] += v
        cols.append(col)
    return Encoding.from_columns(cols)
