"""Distinguishability of finite stochastic encodings.

An encoding is the stochastic map from hypotheses to outcomes: column c is
the distribution of an observed system under hypothesis c.  Each map holds
integer rows over one denominator (``ints``, ``den``) beside its
``Fraction`` rows; JSON is read straight into the integers, and the checks
read them.  Conversion by hypothesis-independent post-processing (matrix
majorization) is decided exactly, with evidence: by a normal on one pair
of hypotheses, a martingale coupling swept in integers (h = 2) or LP.
Zonotope inclusion scans the same pairs first, and facets only at rank
>= 3; Markotopes and Lorenz curves show its geometry.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm
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
    LpProblem,
    OPTIMAL,
    _rational_pair,
    _scaled,
    format_rational,
    json_int,
    lp_solve,
    row_echelon,
)

DEFAULT_ENUM_GUARD = 1 << 20


def enumeration_guard() -> int:
    raw = os.environ.get("RTHY_ENUM_GUARD")
    if raw is None:
        return DEFAULT_ENUM_GUARD
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"RTHY_ENUM_GUARD must be an integer, got {raw!r}")


def is_distribution(col) -> bool:
    """Are the entries of ``col`` nonnegative, with sum 1?"""
    return all(v >= 0 for v in col) and sum(col, F0) == 1


def _check_stochastic(ints, den: int, what: str):
    cols = list(zip(*ints))
    if all(min(col) >= 0 and sum(col) == den for col in cols):
        return
    # name the first negative entry in row order, else the first bad column
    neg = [(i, j) for j, col in enumerate(cols) for i, v in enumerate(col) if v < 0]
    if neg:
        i, j = min(neg)
        raise FormatError(f"{what} has a negative entry at ({i},{j})")
    j = next(j for j, col in enumerate(cols) if sum(col) != den)
    raise FormatError(f"{what} column {j} does not sum to 1")


def _over_common_den(cols):
    """Columns of reduced pairs (p, q) as integer columns over one
    denominator, the lcm of the q, and that denominator."""
    den = lcm(*(q for col in cols for _, q in col))
    return [[p * (den // q) for p, q in col] for col in cols], den


class _Cleared(tuple):
    """(ints, den): the integer form ``StochasticMap._from_ints`` hands to the
    constructor in place of the rows."""


@dataclass(frozen=True)
class StochasticMap:
    """Column-stochastic matrix (``to`` x ``from``); column j is the output
    distribution on input j.

    It is held twice: ``ints``, its rows as integers over ``den``, the lcm
    of the entries' reduced denominators, which the exact checks read; and
    ``matrix``, the same rows as a tuple of ``Fraction`` tuples, built once
    with the map.  ``_from_ints`` takes integer rows over any positive
    denominator and reduces it (JSON, delta inputs and witnesses are built
    so); the constructor takes rows of rationals and clears them.  Neither
    ``ints`` nor ``den`` takes part in equality.

    JSON is column-major: ``{"from": n, "to": m, "columns": [[m rationals]
    per input]}``.  A subclass renames the two sizes (``json_keys``) and
    the label of its errors (``label``).
    """

    matrix: tuple
    ints: tuple = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    json_keys = ("from", "to")
    label = "stochastic map"

    def __post_init__(self):
        if type(self.matrix) is _Cleared:
            ints, den = self.matrix
            self._check_lengths(ints)
            g = gcd(den, *itertools.chain.from_iterable(ints))
            if g > 1:
                den //= g
                ints = tuple(tuple(v // g for v in row) for row in ints)
            _check_stochastic(ints, den, self.label)
            entry = {v: Fraction(v, den) for v in set(itertools.chain.from_iterable(ints))}
            rows = tuple(tuple(map(entry.__getitem__, row)) for row in ints)
        else:
            rows = tuple(tuple(v if type(v) is Fraction else Fraction(v) for v in row)
                         for row in self.matrix)
            self._check_lengths(rows)
            den = lcm(*(v.denominator for row in rows for v in row))
            ints = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)
            _check_stochastic(ints, den, self.label)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)

    def _check_lengths(self, rows):
        if len({len(row) for row in rows}) > 1:
            raise FormatError(f"{self.label} rows have unequal lengths")

    @classmethod
    def _from_ints(cls, ints, den: int, *fields):
        """The map whose rows are the integer rows ``ints`` over ``den`` > 0;
        ``fields`` are a subclass's own fields, after ``matrix``."""
        return cls(_Cleared((tuple(map(tuple, ints)), den)), *fields)

    @property
    def n_from(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def n_to(self) -> int:
        return len(self.matrix)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.matrix)

    def __call__(self, x: "Encoding") -> "Encoding":
        if self.n_from != x.outcomes:
            raise DimensionMismatch(
                f"map expects {self.n_from} outcomes, encoding has {x.outcomes}")
        cols = list(zip(*x.matrix))
        return Encoding([[_dot(row, col) for col in cols] for row in self.matrix])

    @staticmethod
    def identity(n: int) -> "StochasticMap":
        return StochasticMap([[F1 if i == j else F0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], *fields):
        """The map with these columns; ``fields`` are a subclass's own fields,
        after ``matrix``."""
        cols = [list(col) for col in columns]
        if len({len(c) for c in cols}) > 1:
            raise FormatError(f"{cls.label} columns have unequal lengths")
        return cls._from_sized_columns(cols, len(cols[0]) if cols else 0, *fields)

    @classmethod
    def _from_sized_columns(cls, cols, m: int, *fields, den=None):
        """The map whose columns (each of length m) are ``cols``, integers
        over ``den`` when it is given.  A map with no inputs keeps its m
        rows; an empty column is no distribution."""
        if cols and not m:
            raise FormatError(f"{cls.label} column 0 does not sum to 1")
        rows = list(zip(*cols)) if cols else [()] * m
        return cls(rows, *fields) if den is None else cls._from_ints(rows, den, *fields)

    @classmethod
    def from_json(cls, doc):
        n_key, m_key = cls.json_keys
        label = cls.label
        try:
            n, m, cols = doc[n_key], doc[m_key], doc["columns"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{label} JSON needs '{n_key}', '{m_key}' and 'columns'") from exc
        for key, value in ((n_key, n), (m_key, m)):
            json_int(value, f"{label} '{key}'")
        if not isinstance(cols, list) or not all(isinstance(c, list) for c in cols):
            raise FormatError(f"{label} 'columns' must be a list of lists")
        if len(cols) != n or any(len(c) != m for c in cols):
            raise FormatError(f"{label} 'columns' shape disagrees with declared sizes")
        int_cols, den = _over_common_den([[_rational_pair(v) for v in col] for col in cols])
        return cls._from_sized_columns(int_cols, m, den=den)

    def to_json(self) -> dict:
        n_key, m_key = self.json_keys
        return {
            n_key: self.n_from,
            m_key: self.n_to,
            "columns": [[format_rational(v) for v in col] for col in zip(*self.matrix)],
        }


class Encoding(StochasticMap):
    """The stochastic map from h hypotheses to n outcomes (matrix is n x h):
    column c is the outcome distribution under hypothesis c."""

    json_keys = ("hypotheses", "outcomes")
    label = "encoding"
    hypotheses = StochasticMap.n_from
    outcomes = StochasticMap.n_to

    def __post_init__(self):
        super().__post_init__()
        if not self.hypotheses:
            raise FormatError("an encoding needs at least one hypothesis")


@dataclass(frozen=True)
class Convertible:
    witness: object
    convertible = True


@dataclass(frozen=True)
class NotConvertible:
    farkas: Optional[tuple] = None
    convertible = False


def _conversion_problem(x: Encoding, target_rows) -> LpProblem:
    """Feasibility LP for a stochastic t with t * x = target.

    Column ``i*n_from + j`` holds ``t[i][j]``.  One row per hypothesis c and
    output i < n_to - 1 asks ``sum_j t[i][j] x[j][c] = target_rows[i][c]``;
    then one row per input j asks that column j of t sums to 1.  Row
    (c, n_to - 1) is left out: x's and the target's columns sum to 1, so
    once t's columns do, it is 1 minus the rows (c, i) above it, and the
    feasible set is the same.  A Farkas vector of this LP, with 0 put back
    at each row (c, n_to - 1), is one of the full LP.
    """
    n_from, h = x.outcomes, x.hypotheses
    n_to = len(target_rows)
    width = n_to * n_from
    a_rows, b = [], []
    for c in range(h):
        col = x.column(c)
        for i in range(n_to - 1):
            row = [0] * width
            row[i * n_from:(i + 1) * n_from] = col
            a_rows.append(row)
            b.append(target_rows[i][c])
    for j in range(n_from):
        a_rows.append([1 if k % n_from == j else 0 for k in range(width)])
        b.append(1)
    return LpProblem(c=[0] * width, a_rows=a_rows, b=b)


def _left_curtain(x: Encoding, y: Encoding) -> Optional[Tuple[list, int]]:
    """Integer rows, over one denominator, of a stochastic t with t * x = y
    for two hypotheses, and that denominator; or None when the construction
    shows that there is none.

    Row j of x is an atom of mass m_j = x_j0 + x_j1 at type
    theta_j = x_j0 / m_j, and x converts to y exactly when y's atoms are
    smaller in convex order (Blackwell 1953); a martingale coupling m_ij of
    the two gives t_ij = m_ij / m_j (Strassen 1965).  This is the
    left-curtain coupling (Beiglboeck & Juillet 2016): y's rows, in
    increasing theta', each take from what is left of x the window of mass
    l_i = c_i + d_i, contiguous in theta order, whose first-coordinate sum
    is c_i.  That sum only grows as the window slides right, so one sweep
    finds it; a window that cannot reach c_i means no conversion.  Zero
    rows of x go to outcome 0.

    The sweep runs in integers, over one common scale G (at first 1): a
    mass is held times d_x * d_y * G and a type times K, the lcm of x's
    nonzero integer row sums.  So atom j has mass M_j * G, with
    M_j = (X_j0 + X_j1) * d_y, and type T_j = X_j0 * K / (X_j0 + X_j1);
    target i takes mass (Y_i0 + Y_i1) * d_x * G, and its window sum V
    must reach C = Y_i0 * d_x * G * K.  The window stops at the break point
    (C - V) / (T_e - T_s), which need not be an integer: when its reduced
    denominator q is above 1, G and every mass and sum held are multiplied
    by q.  That ends the target's slide, so it happens at most once per
    target.  Each comparison is then one of positive multiples of the
    quantities a sweep in ``Fraction``s compares, so the windows are that
    sweep's, and so are the rows t_ij = part_ij / (M_j * G), returned over
    G * d_y * K.
    """
    dx, dy = x.den, y.den
    sums = [a + b for a, b in x.ints]
    k = lcm(*(m for m in sums if m))
    theta = [a * k // m if m else 0 for (a, _), m in zip(x.ints, sums)]
    order = sorted((j for j, m in enumerate(sums) if m), key=theta.__getitem__)
    rest, g = [m * dy for m in sums], 1
    parts = [[0] * x.outcomes for _ in range(y.outcomes)]
    y_sums = [c + d for c, d in y.ints]
    k_y = lcm(*(v for v in y_sums if v))
    targets = sorted((c * k_y // y_sums[i], i) for i, (c, _) in enumerate(y.ints) if y_sums[i])
    for _, i in targets:
        total = need = y_sums[i] * dx * g
        c = y.ints[i][0] * dx * g * k
        live = [j for j in order if rest[j]]
        # the leftmost window: it ends in atom live[e], short of that atom's
        # end by ``end_room``, and starts ``start_room`` before atom live[s] ends
        value, e = 0, 0
        while True:
            j = live[e]
            part = min(rest[j], need)
            value += theta[j] * part
            need -= part
            if not need:
                break
            e += 1
        s, start_room, end_room = 0, rest[live[0]], rest[j] - part
        # slide right; up to the next atom boundary at either end, the
        # window's first-coordinate sum grows at T_end - T_start
        while value < c:
            if not end_room:
                e += 1
                if e == len(live):
                    return None
                end_room = rest[live[e]]
                continue
            if not start_room:
                s += 1
                start_room = rest[live[s]]
            step = min(start_room, end_room)
            slope = theta[live[e]] - theta[live[s]]
            if slope and value + step * slope >= c:
                q = slope // gcd(c - value, slope)
                if q > 1:  # the break point is a new fraction of G: refine G
                    g *= q
                    rest = [r * q for r in rest]
                    parts = [[p * q for p in row] for row in parts]
                    c, value = c * q, value * q  # a break has s < e, so ``total`` is not read
                    start_room, end_room = start_room * q, end_room * q
                step, value = (c - value) // slope, c
            else:
                value += step * slope
            start_room -= step
            end_room -= step
        if value > c:
            return None
        window = [(live[s], total if s == e else start_room)]
        if s != e:
            window += [(j, rest[j]) for j in live[s + 1:e]]
            window.append((live[e], rest[live[e]] - end_room))
        for j, part in window:
            rest[j] -= part
            parts[i][j] = part
    # t_ij = part_ij / (M_j * G), over den = G * d_y * K
    den = g * dy * k
    scale = [k // m if m else 0 for m in sums]
    rows = [[p * f for p, f in zip(row, scale)] for row in parts]
    for j, m in enumerate(sums):
        if not m:
            rows[0][j] = den
    return rows, den


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _checked_witness(x: Encoding, y: Encoding, rows, den: int) -> Convertible:
    """``Convertible`` with the map t of the integer ``rows`` over ``den``,
    checked in integers before any ``Fraction`` is formed: t is n_y x n_x,
    its columns are distributions, and T.X.d_y = Y.d_t.d_x."""
    cols = list(zip(*x.ints))
    if (len(rows) != y.outcomes or any(len(t_i) != x.outcomes for t_i in rows)
            or not all(min(col) >= 0 and sum(col) == den for col in zip(*rows))
            or any(_dot(t_i, x_c) * y.den != y_ic * den * x.den
                   for t_i, y_i in zip(rows, y.ints) for x_c, y_ic in zip(cols, y_i))):
        raise RuntimeError("majorization witness does not map x to y: solver fault")
    return Convertible(witness=StochasticMap._from_ints(rows, den))


def _checked_refutation(x: Encoding, y: Encoding, farkas) -> NotConvertible:
    """``NotConvertible`` with ``farkas``, checked on x and y with no LP built.

    A Farkas vector f of the conversion LP is a decision problem (Blackwell
    1953): utility u_i[c] = f at row (c, i) for action i, and bound g_j = f
    at x's column-sum row j.  f.A <= 0 reads g_j + max_i u_i.x_j <= 0 for
    each outcome j of x, and f.b > 0 reads sum_i u_i.y_i + sum_j g_j > 0: y
    earns more on u than x's best post-processing, sum_j max_i u_i.x_j.
    Both run on f's integer form and cross-multiply by x's and y's
    denominators.
    """
    h, n_y = x.hypotheses, y.outcomes
    if farkas is not None and len(farkas) == h * n_y + x.outcomes:
        f, _ = _scaled(farkas)
        u, g = [f[i:h * n_y:n_y] for i in range(n_y)], f[h * n_y:]
        if (all(x.den * g_j + max(_dot(u_i, x_j) for u_i in u) <= 0
                for x_j, g_j in zip(x.ints, g))
                and sum(map(_dot, u, y.ints)) + y.den * sum(g) > 0):
            return NotConvertible(farkas=tuple(farkas))
    raise RuntimeError("majorization Farkas vector does not refute x -> y: solver fault")


def _normal_farkas(x: Encoding, y: Encoding, w) -> list:
    """The Farkas vector of x -> y from an integer w with
    h_{Z(y)}(w) > h_{Z(x)}(w): w_c at row (c, i) for y's outcomes i with
    w.y_i > 0, 0 at the other (c, i) rows, and -max(0, w.x_j) at x's
    column-sum row j, so that its product with the LP's b is
    h_{Z(y)}(w) - h_{Z(x)}(w) > 0 (Blackwell 1953)."""
    dy = [_dot(w, row) for row in y.ints]
    return ([Fraction(a) if d > 0 else F0 for a in w for d in dy]
            + [-Fraction(max(0, _dot(w, row)), x.den) for row in x.ints])


def _pairwise_normal(x: Encoding, y: Encoding) -> Optional[tuple]:
    """A primitive integer w, supported on one pair of hypotheses c < d, with
    h_{Z(y)}(w) > h_{Z(x)}(w), or None when no such w is found.

    x -> y implies x|_{c,d} -> y|_{c,d} for every pair (Blackwell 1953), so
    any w found refutes x -> y (``_normal_farkas``).  For each pair in turn,
    the nonzero rows g = (a, b) = (x_jc, x_jd) of x are scanned in row
    order, each giving w_c = b, w_d = -a, and h_Z(w) = sum_j max(0, w.g_j)
    is compared in integers, on x's rows times y's denominator and y's
    times x's.  One sign of w is enough: x's and y's rows on (c, d) then sum
    to the same total T, and h_Z(w) - h_Z(-w) = w.T for both.  With two
    hypotheses the scan is complete: it finds a w exactly when x does not
    convert to y.
    """
    dx, dy = x.den, y.den
    for c, d in itertools.combinations(range(x.hypotheses), 2):
        gx = [(r[c] * dy, r[d] * dy) for r in x.ints if r[c] or r[d]]
        gy = [(r[c] * dx, r[d] * dx) for r in y.ints if r[c] or r[d]]
        for a, b in dict.fromkeys(gx):  # each distinct row once, in row order
            excess = 0  # h_{Z(y)}(w) - h_{Z(x)}(w)
            for p, q in gy:
                v = b * p - a * q
                if v > 0:
                    excess += v
            for p, q in gx:
                v = b * p - a * q
                if v > 0:
                    excess -= v
            if excess > 0:
                w = [0] * x.hypotheses
                w[c], w[d] = b, -a
                return _primitive(w)
    return None


def majorizes(x: Encoding, y: Encoding):
    """Decide whether x converts to y by a hypothesis-independent stochastic map.

    Returns ``Convertible`` with an exact witness, replayed on x, or
    ``NotConvertible`` with a Farkas vector of the conversion LP, checked on x
    and y (``_checked_refutation``), each before it is returned.  At every h
    a normal w on one pair of hypotheses that separates Z(y) from Z(x)
    (``_pairwise_normal``) is tried first, and its ``_normal_farkas`` vector
    refutes x -> y.  With two hypotheses no LP is solved: the witness is a
    martingale coupling (``_left_curtain``), and when there is none the scan
    finds a w.  Otherwise, when no pair separates, the witness or the
    Farkas vector comes from ``lp_solve``, whose Farkas vector gets 0 back
    at each row that ``_conversion_problem`` leaves out.
    """
    if x.hypotheses != y.hypotheses:
        raise HypothesisMismatch(
            f"encodings have {x.hypotheses} vs {y.hypotheses} hypotheses")
    if x.hypotheses == 2:
        coupling = _left_curtain(x, y)
        if coupling is not None:
            return _checked_witness(x, y, *coupling)
    w = _pairwise_normal(x, y)
    if w is not None or x.hypotheses == 2:  # at h = 2 finding none is a fault
        return _checked_refutation(x, y, None if w is None else _normal_farkas(x, y, w))
    outcome = lp_solve(_conversion_problem(x, y.matrix))
    if outcome.status == OPTIMAL:
        (t, den), n_from = _scaled(outcome.primal), x.outcomes
        return _checked_witness(x, y, [t[i * n_from:(i + 1) * n_from]
                                       for i in range(y.outcomes)], den)
    f, n_y = outcome.farkas, y.outcomes
    if f is not None:
        f = list(f)
        for c in range(x.hypotheses):
            f.insert(c * n_y + n_y - 1, F0)  # the left-out row (c, n_y - 1)
    return _checked_refutation(x, y, f)


# --------------------------------------------------------------------------
# Zonotopes
# --------------------------------------------------------------------------


def _merged_rows(x: Encoding) -> List[list]:
    """Sufficient-statistic reduction of x's integer rows (over ``x.den``):
    drop zero rows, sum proportional ones, in order of first appearance."""
    groups = {}
    for row in x.ints:
        g = gcd(*row)
        if g:
            key = tuple(v // g for v in row)  # rows are nonnegative: one key per ray
            groups[key] = [a + b for a, b in zip(groups.get(key, (0,) * len(row)), row)]
    return list(groups.values())


def zonotope(x: Encoding) -> tuple:
    """The set of top rows of all 2-outcome post-processings of a 2-hypothesis
    encoding: the vertices of an exact polygon, counter-clockwise from (0,0)
    through (1,1) and back, as a tuple of ``Fraction`` pairs."""
    if x.hypotheses != 2:
        raise WrongHypothesisCount(f"zonotope needs 2 hypotheses, got {x.hypotheses}")
    gens = _merged_rows(x)  # pairwise non-parallel, all in the first quadrant

    def shallower(u, v):
        cr = u[0] * v[1] - u[1] * v[0]
        return -1 if cr > 0 else 1  # u strictly shallower slope first

    gens.sort(key=functools.cmp_to_key(shallower))
    partial = [(0, 0)]
    for g in gens:
        last = partial[-1]
        partial.append((last[0] + g[0], last[1] + g[1]))
    top = partial[-1]  # (den, den) by column normalization
    lower = partial
    upper = [(top[0] - p[0], top[1] - p[1]) for p in partial[1:-1]]
    return tuple((Fraction(a, x.den), Fraction(b, x.den)) for a, b in lower + upper)


def _det(m) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss 1968)
    elimination: each division is exact, and each row swap flips the sign."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - f * row_k[j]) // prev
        prev = piv
    return sign * a[-1][-1] if n else 1


def _cofactor_normal(rows) -> List[int]:
    """Integer w with w.v = det(rows + [v]) for every v, for k integer rows of
    length k + 1: orthogonal to each row, and zero exactly when they are
    linearly dependent."""
    k = len(rows)
    return [(-1) ** (k + c) * _det([r[:c] + r[c + 1:] for r in rows]) for c in range(k + 1)]


def _supports(w, rows) -> Tuple[int, int]:
    """(h_Z(w), h_Z(-w)) for the zonotope Z generated by ``rows``:
    h_Z(w) = sum_j max(0, w.g_j)."""
    up = down = 0
    for g in rows:
        d = _dot(w, g)
        if d > 0:
            up += d
        else:
            down -= d
    return up, down


def _primitive(w) -> tuple:
    """w over the gcd of its entries, so the sign of each entry is kept."""
    g = gcd(*w)
    return tuple(a // g for a in w)


def _separating_normal(x: Encoding, y: Encoding) -> Optional[tuple]:
    """A primitive integer w with h_{Z(y)}(w) > h_{Z(x)}(w), or None when
    Z(y) is inside Z(x); run at h >= 3 once ``_pairwise_normal`` finds none.

    Z(x), over x's merged rows g_j, has support h_Z(w) = sum_j max(0, w.g_j).
    The search runs in integers, on x's merged rows times y's denominator and
    y's times x's: a row of y outside span(x) gives a normal to span(x) at
    once; otherwise, with r = rank(x), Z(y) is inside Z(x) exactly when
    h_{Z(y)}(+-w) <= h_{Z(x)}(+-w) for the normal w of each set of r - 1 of
    x's generators that spans a hyperplane of span(x) (Ziegler, Lectures on
    Polytopes, ch. 7).  At r = 1 that w is a unit vector, along which both
    supports are the column total; at r = 2 it is normal, on the pivot pair,
    to a merged row, and the pair scan tried it.  So only r >= 3 enumerates,
    its C(n_x, r - 1) normals checked against the guard.
    """
    h = x.hypotheses
    gx = [[y.den * v for v in row] for row in _merged_rows(x)]
    gy = [[x.den * v for v in row] for row in _merged_rows(y)]
    basis, pivots = row_echelon(gx)
    r = len(pivots)
    if r < h:
        # a row of y outside span(x): a normal to span(x) that it does not
        # annihilate, from the cofactors on the pivots and one more coordinate
        for v in gy:
            res = list(v)
            for b, p in zip(basis, pivots):
                if res[p]:
                    res = [b[p] * a - res[p] * c for a, c in zip(res, b)]
            q = next((c for c, a in enumerate(res) if a), None)
            if q is not None:
                cols = sorted(pivots + [q])
                w = [0] * h
                for c, a in zip(cols, _cofactor_normal([[b[c] for c in cols] for b in basis])):
                    w[c] = a
                return _primitive([-a for a in w] if _dot(w, v) < 0 else w)
    if r <= 2:
        return None
    # inside span(x), mapped one to one onto R^r by its pivot coordinates,
    # each facet normal of Z(x)'s image is orthogonal to r - 1 generators
    count, guard = comb(len(gx), r - 1), enumeration_guard()
    if count > guard:
        raise EnumerationTooLarge(
            f"C({len(gx)}, {r - 1}) candidate facet normals of the zonotope", count, guard)
    px = [[g[p] for p in pivots] for g in gx]
    py = [[g[p] for p in pivots] for g in gy]
    for face in itertools.combinations(px, r - 1):
        w = _cofactor_normal(face)
        if not any(w):
            continue
        (x_up, x_down), (y_up, y_down) = _supports(w, px), _supports(w, py)
        if y_up > x_up or y_down > x_down:
            sign = 1 if y_up > x_up else -1
            lifted = [0] * h
            for p, a in zip(pivots, w):
                lifted[p] = sign * a
            return _primitive(lifted)
    return None


@dataclass(frozen=True)
class ZonotopeCertificate:
    """Evidence that Z(y) is not inside Z(x).

    Along ``normal`` w, the vertex sum of y's rows over ``subset`` (y's
    outcomes i with w.y_i > 0) reaches ``support_y`` = h_{Z(y)}(w), beyond
    ``support_x`` = h_{Z(x)}(w), the furthest any point of Z(x) reaches.
    """

    normal: tuple
    subset: tuple
    support_y: Fraction
    support_x: Fraction


def zonotope_certificate(x: Encoding, y: Encoding) -> Optional[ZonotopeCertificate]:
    """None when Z(y) is inside Z(x), as x -> y implies (at h = 2, iff), else
    a certificate on the normal of ``_pairwise_normal`` (complete at h = 2)
    or ``_separating_normal``, returned only once its two supports separate."""
    if x.hypotheses != y.hypotheses:
        raise HypothesisMismatch(
            f"encodings have {x.hypotheses} vs {y.hypotheses} hypotheses")
    w = _pairwise_normal(x, y)
    if w is None and x.hypotheses >= 3:
        w = _separating_normal(x, y)
    if w is None:
        return None
    dy = [_dot(w, row) for row in y.ints]
    subset = tuple(i for i, d in enumerate(dy) if d > 0)
    support_y = Fraction(sum(dy[i] for i in subset), y.den)
    support_x = Fraction(_supports(w, x.ints)[0], x.den)
    if support_y <= support_x:
        raise RuntimeError("zonotope certificate does not replay on x and y: solver fault")
    return ZonotopeCertificate(normal=w, subset=subset, support_y=support_y, support_x=support_x)


def zonotope_includes(x: Encoding, y: Encoding) -> bool:
    """Does the 2-outcome reachable set of x cover that of y?

    One exact integer test for any number of hypotheses; see
    ``zonotope_certificate``, which also gives the evidence for a "no".
    """
    return zonotope_certificate(x, y) is None


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

