"""Exact rational linear algebra and a certified LP solver.

Inputs and outputs are `fractions.Fraction`s; no floats are ever
produced.  Inside, the simplex is the revised one in explicit-inverse
form: it stores only den*B^-1 and den*D*B^-1*b (B the basis, den one common
positive denominator) as Python ints, together with the cost row's
entries in those columns, and pivots that block fraction-free
(Edmonds/Bareiss), so no cell update pays a gcd.  A pivot that changes
den leaves alone each row whose entering-column entry is 0, the cost row
excepted: its true entries do not change, so it keeps them times the den
it was last brought up to date at.  Such a row is brought up to date when it is
eliminated or becomes the pivot row, and all at once when the simplex
loop that left it alone ends; the entering column brings its entry up to
date, and sign tests and ratio tests read it as stored, a positive
multiple.  So every read-out and every kept basis sees the block of the
eager pivot (``_pivot``, ``_settle``).  Each row is cleared by
the denominators of its row of A alone, and every right-hand side shares
one common denominator D, so the denominators of b never scale a row of A
and never reach a pivot.  Reduced costs and entering columns are computed
from the sparse columns of A as needed and priced cyclically, with Bland's
rule after ``STALL`` degenerate pivots in a row (``_price_and_pivot``);
under that rule the solver makes exactly the pivots of the full tableau.
After phase 2 the cost row holds the answer in integers: its artificial
part is the duals and its right-hand side the objective, each up to a
known factor, so every field of the outcome is read off the
block, with one ``Fraction`` per reported entry.  An optimal outcome
keeps its basis, so an LP with the very same A and c lists and a new b
re-solves from it (``lp_solve``'s ``start``): a change of b keeps that
basis dual feasible, and a dual simplex under Bland's rule applied to the
dual, which cannot cycle, pivots it to the new optimum over the same
fraction-free block; when it does not end optimal, the LP is solved cold.
Every solve reports its shape, the pivot count of each phase, the number
of reduced costs priced and its dual pivots (``LpStats``).  It returns
machine-checkable certificates for all three outcomes:

* ``Optimal``     -- primal solution plus dual multipliers (checked via
  feasibility, dual feasibility and complementary slackness),
* ``Infeasible``  -- a Farkas vector ``y`` with ``y^T A <= 0`` and
  ``y^T b > 0``,
* ``Unbounded``   -- a feasible point plus an improving ray.

``verify_certificate`` re-checks any outcome against the problem data
from scratch, using nothing from the solver's internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import FormatError, ShapeMismatch

F0 = Fraction(0)
F1 = Fraction(1)


def _rational_pair(text) -> Tuple[int, int]:
    """Parse ``"p/q"`` or ``"p"`` (each an ``int`` literal: optional sign,
    surrounding blanks) or a JSON integer into its reduced pair (p, q), q > 0."""
    if not isinstance(text, str):
        if isinstance(text, bool):
            raise FormatError("expected rational string, got bool")
        if isinstance(text, int):
            return text, 1
        raise FormatError(f"expected rational string, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError as exc:  # "1/2/3" leaves a "/" in den
        raise FormatError(f"bad rational literal {text!r}") from exc
    if not den:
        raise FormatError(f"bad rational literal {text!r}")
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (integers, optional sign) into a Fraction."""
    return Fraction(*_rational_pair(text))


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (not a boolean); ``name`` labels the error."""
    if type(value) is not int:
        raise FormatError(f"{name} must be a JSON integer, got {value!r}")
    return value


def format_rational(value: Fraction) -> str:
    """Canonical string form of an int or a Fraction: ``"p"`` for integers,
    else ``"p/q"`` reduced.

    Anything else, a float included, raises ``TypeError``, so no float
    reaches a reported value.
    """
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"format_rational takes an int or a Fraction, not {type(value).__name__}")
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _scaled(values):
    """Integers ``values * s`` with ``s`` the lcm of their denominators, and ``s``.

    ``values`` are ints or Fractions (a zero's denominator is 1).
    """
    s = lcm(*(v.denominator for v in values))
    if s == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (s // v.denominator) for v in values], s


def row_echelon(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """An integer echelon basis of the row space of integer ``rows``, and its
    pivot columns, by fraction-free (Bareiss) elimination.

    Basis row t is zero left of ``pivots[t]`` and nonzero there;
    ``len(pivots)`` is the rank.
    """
    work = [list(row) for row in rows]
    nr, nc = len(work), len(work[0]) if work else 0
    prev = 1
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        pivot_row = next((i for i in range(r, nr) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                work[i][j] = (piv * work[i][j] - work[i][c] * work[r][j]) // prev
            work[i][c] = 0
        prev = piv
        pivots.append(c)
    return work[:len(pivots)], pivots


# --------------------------------------------------------------------------
# Linear programming
# --------------------------------------------------------------------------

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


@dataclass
class LpProblem:
    """Standard-form LP: minimize c.v subject to A v = b, v >= 0.

    ``c``, the rows of ``a_rows`` and ``b`` are dense lists of rationals;
    callers lay out their own columns, with a slack column per inequality
    and a +/- column pair per free variable.  Every row of ``a_rows`` must
    be ``len(c)`` long and ``b`` must be ``len(a_rows)`` long, so a problem
    that reaches ``lp_solve`` or ``verify_certificate`` is rectangular.
    """

    c: list
    a_rows: list
    b: list

    def __post_init__(self):
        n = len(self.c)
        if any(len(row) != n for row in self.a_rows):
            raise ShapeMismatch(f"every row of A must have {n} entries, one per entry of c")
        if len(self.b) != len(self.a_rows):
            raise ShapeMismatch(
                f"b has {len(self.b)} entries but A has {len(self.a_rows)} rows")

    @property
    def nrows(self) -> int:
        return len(self.a_rows)

    @property
    def ncols(self) -> int:
        return len(self.c)


class LpStats(NamedTuple):
    """Counters of one solve: the LP's shape, the pivots of each phase, the
    reduced costs priced over all of them, and the dual pivots of a re-solve
    from an earlier optimal basis (0 on a cold solve).

    Phase 1 counts the pivots that drive leftover artificials out too.  A
    re-solve that falls back to the cold solve keeps its dual pivots.
    """

    rows: int
    cols: int
    phase1_pivots: int
    phase2_pivots: int
    priced: int
    dual_pivots: int = 0


class _Basis(NamedTuple):
    """An optimal solve's state, which a re-solve of the same A and c reuses:
    the problem's ``a_rows`` and ``c`` (compared by identity), A' as sparse
    columns, each row's flip and scale, the cleared objective, and the
    block's den*B^-1 and cost rows over ``den`` with ``basis``; the block's
    last column belongs to the old b."""

    a_rows: list
    c: list
    cols: list
    signs: list
    scales: list
    cost: list
    cscale: int
    block: list
    den: int
    basis: list


@dataclass
class LpOutcome:
    status: str
    primal: Optional[list] = None
    dual: Optional[list] = None
    farkas: Optional[list] = None
    ray: Optional[list] = None
    objective: Optional[Fraction] = None
    stats: Optional[LpStats] = None
    _basis: Optional[_Basis] = field(default=None, repr=False, compare=False)


# The simplex is the revised one in explicit-inverse form.  The full
# tableau over [A' | I | D b'] (A' and b' the rows of [A | b] flipped and
# each cleared by the denominators of its row of A, I the artificial
# columns, D the common denominator of b') holds integers: the true tableau
# times one common positive denominator ``den``, its last column times D
# as well.  Only ``block`` is stored: row i < m is that tableau's
# [artificial part | rhs], i.e. [den B^-1 | den D B^-1 b'], and the last
# row is the cost row's [artificial part | rhs].  Structural
# entries are computed from the sparse columns of A' when needed: row i's
# is block_i . A'_j, and the cost row's, the reduced cost, is
# den (c_j - c_art . A'_j) + y . A'_j with y the cost row's artificial
# part and c_art the artificials' costs.  Each value equals the full
# tableau's, and only positive scalings separate that from the textbook
# Fraction tableau of the same LP, so every sign test and ratio
# comparison, and hence every pivot, agrees.  In phase 2, with c' the
# objective cleared by its lcm and no cost on the artificials, the cost row
# is [-den c'_B B^-1 | -den D c'_B B^-1 b']: the duals of the flipped and
# scaled rows, and the objective, each times a known negative factor.
# Every field of an ``LpOutcome`` is read off ``block``: the primal and the
# ray off rows 0..m-1, the duals and the objective off the phase-2 cost
# row, the Farkas vector off the phase-1 one.  Within a simplex loop a row
# that pivots leave alone holds these values times a positive factor
# (``_pivot``); the loop brings it up to date before it returns.


def _pivot(block, den, r, column, stale):
    """Fraction-free (Edmonds/Bareiss) pivot on ``column[r]`` that leaves
    alone the rows it does not change.

    ``column`` is the entering column of the full tableau at ``den``, the
    cost row's entry last.  ``stale`` maps each left-alone row to the den it
    was last brought up to date at (see ``_settle``).  A row with a nonzero
    entry in ``column`` is brought up to date and becomes
    ``(p*row - column[i]*prow) / den``, an exact division, and the pivot
    row is brought up to date; ``p`` becomes the denominator.  A row whose
    entry is 0 keeps its true entries, so when den changes it is left alone
    and recorded in ``stale``, but the cost row, which pricing reads whole,
    is rescaled.  Returns ``p``, made positive when ``p < 0`` (a dual pivot,
    or driving an artificial out) by negating every row it rewrites, so
    stored signs are true signs.
    """
    if r in stale:
        at = stale.pop(r)
        block[r] = [v * den // at for v in block[r]]
    prow = block[r]
    p = column[r]
    negate = p < 0
    if negate:  # every new row negated: (-p*row - (-column[i])*prow) / den
        p = -p
        column = [-f for f in column]
    if p == den:
        # (den*v - f*w) / den is exact, so den divides f*w: only the pivot
        # row's nonzero places move, and rows with f = 0 keep their entries
        nonzero = [j for j, w in enumerate(prow) if w]
        for i, f in enumerate(column):
            if f and i != r:
                at = stale.pop(i, None)
                new = block[i][:] if at is None else [v * den // at for v in block[i]]
                for j in nonzero:
                    new[j] -= f * prow[j] // den
                block[i] = new
    else:
        last = len(block) - 1
        for i, f in enumerate(column):
            if i == r:
                continue
            if f:
                at = stale.pop(i, None)
                if at is None:
                    block[i] = [(p * v - f * w) // den for v, w in zip(block[i], prow)]
                else:  # brought up to date in the same pass
                    block[i] = [(p * (v * den // at) - f * w) // den
                                for v, w in zip(block[i], prow)]
            elif i == last:
                block[i] = [p * v // den for v in block[i]]
            elif i not in stale:
                stale[i] = den
    if negate:
        block[r] = [-w for w in prow]
    return p


def _settle(block, den, stale):
    """Bring every left-alone row of ``block`` up to date at ``den``.

    A row left alone since den was ``at`` holds its true entries times
    ``at``; by the Bareiss invariant its true entries times ``den`` are
    integers, so each is its stored value times den over ``at``, an exact
    division.
    """
    for i, at in stale.items():
        block[i] = [v * den // at for v in block[i]]
    stale.clear()


def _up_to_date(entries, den, stale):
    """``entries``, one read off each stored row, with the entry of each row
    left alone brought up to date at ``den``, in place."""
    for i, at in stale.items():
        entries[i] = entries[i] * den // at
    return entries


def _column(block, col):
    """Rows 0..m-1 of the tableau's structural column whose A' nonzeros are
    ``col``, as stored: a left-alone row's entry is that of its last den."""
    out = [0] * (len(block) - 1)
    for k, a in col:
        out = [v + row[k] * a for v, row in zip(out, block)]
    return out


# Consecutive degenerate pivots after which pricing falls back to Bland's rule.
STALL = 50


def _price_and_pivot(block, basis, den, cols, cost, artificials):
    """Simplex pivots until no reduced cost is negative.

    ``cost[j]`` is c_j - c_art . A'_j for structural column j.  The scan
    runs over the structural columns, then, with ``artificials`` (phase 1),
    over the artificial ones as columns n, n+1, ...; in phase 2 the
    artificials are barred from entering.  Pricing is cyclic and partial:
    each scan starts at the column after the last entering one, wraps
    around, and enters the first column with a negative reduced cost.  The
    ratio test breaks ties by the lowest basis index.  After ``STALL``
    consecutive degenerate pivots (the ratio test's rhs is 0) each scan
    starts at column 0 instead, which is Bland's rule, until a pivot is
    nondegenerate.  The ratio test reads a row that pivots leave alone
    (``_pivot``) as stored, a positive multiple, which keeps its ratio; the
    entering column's entry of such a row is brought up to date before the
    pivot, and every row is before this returns.

    This terminates.  A nondegenerate pivot strictly lowers the objective
    and a degenerate one keeps it, so a basis can recur only within one run
    of degenerate pivots.  Such a run makes at most ``STALL`` cyclic pivots
    and then Bland's, which cannot cycle at a fixed objective value (Bland
    1977), so it ends at the optimum, at an unbounded column or with a
    nondegenerate pivot.  Finitely many bases give finitely many objective
    values, so there are finitely many runs.

    Returns ``(den, pivots, priced, enter)``: ``priced`` counts the reduced
    costs computed, and ``enter`` is None at the optimum, or the structural
    column that improves without bound.
    """
    n = len(cost)
    width = n + len(basis) if artificials else n
    pivots = priced = stalled = start = 0
    stale = {}
    while True:
        crow = block[-1]
        if stalled >= STALL:
            start = 0
        for enter in chain(range(start, width), range(start)):
            if enter < n:
                red = den * cost[enter]
                for k, a in cols[enter]:
                    red += crow[k] * a
                if red < 0:
                    column = _column(block, cols[enter])
                    column.append(red)
                    break
            elif crow[enter - n] < 0:
                column = [row[enter - n] for row in block]
                break
        else:
            _settle(block, den, stale)
            return den, pivots, priced + width, None
        priced += (enter - start) % width + 1
        best = None
        for i, b in enumerate(basis):
            a = column[i]
            if a <= 0:
                continue
            rhs = block[i][-1]
            if best is not None:
                # rhs/a against best_rhs/best_a, cross-multiplied (both a > 0)
                here, there = rhs * best_a, best_rhs * a
                if here > there or (here == there and b > basis[best]):
                    continue
            best, best_a, best_rhs = i, a, rhs
        if best is None:
            _settle(block, den, stale)
            return den, pivots, priced, enter
        stalled = stalled + 1 if best_rhs == 0 else 0
        den = _pivot(block, den, best, _up_to_date(column, den, stale), stale)
        basis[best] = enter
        pivots += 1
        start = enter + 1


def _dual_simplex(block, basis, den, cols, cost):
    """Dual simplex pivots until no right-hand side is negative.

    The basis starts dual feasible: no reduced cost of a structural column
    is negative.  Each pivot leaves on the row with a negative right-hand
    side whose basic column has the lowest index, and enters, among the
    structural columns with a negative entry in that row, the one with the
    least ratio of reduced cost to minus that entry (cross-multiplied), ties
    going to the lowest index; so every reduced cost stays nonnegative.
    These two choices are Bland's rule applied to the dual, which cannot
    cycle (Bland 1977), and there are finitely many bases, so it ends.

    A basic artificial sits on a row whose structural entries are all 0
    (phase 1 drove out every other), and pivots leave that row alone, so
    its right-hand side keeps its sign; one that is not 0 at the start
    means the new b breaks that row's dependence.  A row left alone is a
    positive multiple of its current one, so the signs and ratios read off
    it here are current ones; the entering column is brought up to date,
    and so is every row before this returns.

    Returns ``(den, pivots, priced, feasible)``: ``feasible`` is False when
    a basic artificial is not 0, or when the leaving row has no negative
    structural entry, which makes that row a dual ray and b infeasible.
    """
    n = len(cols)
    if any(b >= n and row[-1] for b, row in zip(basis, block)):
        return den, 0, 0, False
    pivots = priced = 0
    stale = {}
    while True:
        rows = [i for i, row in enumerate(block[:-1]) if row[-1] < 0]
        if not rows:
            _settle(block, den, stale)
            return den, pivots, priced, True
        r = min(rows, key=basis.__getitem__)
        prow, crow = block[r], block[-1]
        best = None
        for j, col in enumerate(cols):
            alpha = 0
            for k, a in col:
                alpha += prow[k] * a
            if alpha >= 0:
                continue
            red = den * cost[j]
            for k, a in col:
                red += crow[k] * a
            priced += 1
            # red/-alpha against best_red/-best_alpha, cross-multiplied
            if best is None or red * best_alpha > best_red * alpha:
                best, best_alpha, best_red = j, alpha, red
                if not red:  # no ratio is below 0
                    break
        if best is None:
            _settle(block, den, stale)
            return den, pivots, priced, False
        column = _up_to_date(_column(block, cols[best]), den, stale)
        column.append(best_red)
        den = _pivot(block, den, r, column, stale)
        basis[r] = best
        pivots += 1


def _rhs_column(b, signs, scales):
    """The integers D*b' and D, for b' with entries signs[i]*scales[i]*b[i]
    and D the lcm of their reduced denominators."""
    pairs = []
    for sign, s, b_i in zip(signs, scales, b):
        g = gcd(s, b_i.denominator)
        pairs.append((sign * b_i.numerator * (s // g), b_i.denominator // g))
    rden = lcm(*(q for _, q in pairs))
    return [p * (rden // q) for p, q in pairs], rden


def _primal(block, basis, den, rden, n) -> list:
    """The basic solution: each basic structural value is its row's last
    entry, D*b' in basis terms, over den*D."""
    primal = [F0] * n
    for r, b in enumerate(basis):
        if b < n:
            primal[b] = Fraction(block[r][-1], den * rden)
    return primal


def _optimal(state: _Basis, rden: int, stats: LpStats) -> LpOutcome:
    """The optimal outcome read off ``state``'s block; it keeps ``state``
    for a re-solve."""
    block, den = state.block, state.den
    primal = _primal(block, state.basis, den, rden, len(state.cols))
    costrow = block[-1]
    scale = den * state.cscale
    dual = [Fraction(-sg * s * y, scale) for sg, s, y in zip(state.signs, state.scales, costrow)]
    objective = Fraction(-costrow[-1], scale * rden)
    return LpOutcome(status=OPTIMAL, primal=primal, dual=dual, objective=objective,
                     stats=stats, _basis=state)


def lp_solve(problem: LpProblem, start: Optional[LpOutcome] = None) -> LpOutcome:
    """Two-phase simplex, fully exact, priced by ``_price_and_pivot``; or a
    dual simplex re-solve from ``start``, an earlier optimal outcome of the
    same A and c.

    Row i is flipped to a nonnegative right-hand side (sign ``signs[i]``)
    and multiplied by ``scales[i]``, the lcm of the denominators of row i of
    A alone; artificial column i stays ``e_i``, i.e. the artificial is
    rescaled by ``scales[i]``.  The right-hand sides b' of the result keep
    their denominators until all of them are cleared by their common lcm
    ``rden`` (D), so the block's last column is D b' and each primal value
    is read as that entry over den*D.  All scalings are positive, and D is
    the same for every row, so every sign test, ratio comparison and pivot
    is that of the unscaled tableau.  ``cols[j]`` lists the nonzeros
    ``(i, a)`` of column j of the result A'; each row's nonzeros are listed
    once and both its lcm and its entries of A' are read off that list
    (a zero's denominator is 1, so leaving zeros out keeps the lcm).

    The phase-2 objective is c times its lcm ``cscale``.  At the optimum
    the cost row's artificial entry i is -den*cscale times the dual of the
    flipped, scaled row i, so the dual of row i of A is that entry times
    -signs[i]*scales[i] over den*cscale; its rhs is -den*D*cscale times the
    objective.  No field of the outcome is summed in ``Fraction``s.

    An optimal outcome keeps that state.  When ``problem.a_rows`` and
    ``problem.c`` are the very lists of ``start``'s problem (an identity
    test: the caller must not change them in place), only b is new, so
    A', the flips, the scales and the optimal basis are reused, and so is
    its block but for the last column: b' is b under the old flips and
    scales, and the last column becomes den B^-1 (D b') for the rows and
    y.(D b') for the cost row, y its artificial part.  That basis is dual
    feasible for every b, and ``_dual_simplex`` pivots it to a
    nonnegative right-hand side.  The divisions in ``_pivot`` stay exact:
    by Cramer's rule each entry of den B^-1 v, for any integer v, is a
    minor of [A' | I | v] with den = |det B|, which is the invariant the
    fraction-free pivots keep, whatever the last column holds.  The
    re-solve is accepted only when it ends with every basic artificial at
    0; otherwise, and for any other ``start``, the LP is solved cold, so a
    Farkas vector or a ray always comes from the two phases.
    """
    m, n = problem.nrows, problem.ncols
    dual_pivots = dual_priced = 0
    warm = start._basis if start is not None else None
    if warm is not None and problem.a_rows is warm.a_rows and problem.c is warm.c:
        rhs, rden = _rhs_column(problem.b, warm.signs, warm.scales)
        block = [row[:-1] + [sum(map(mul, row, rhs))] for row in warm.block]
        basis = list(warm.basis)
        den, dual_pivots, dual_priced, feasible = _dual_simplex(
            block, basis, warm.den, warm.cols, warm.cost)
        if feasible:
            return _optimal(warm._replace(block=block, den=den, basis=basis), rden,
                            LpStats(m, n, 0, 0, dual_priced, dual_pivots))

    signs, scales = [], []
    cols = [[] for _ in range(n)]
    for i, (row, b_i) in enumerate(zip(problem.a_rows, problem.b)):
        nonzeros = [(j, v) for j, v in enumerate(row) if v]
        s = lcm(*(v.denominator for _, v in nonzeros))
        sign = -1 if b_i.numerator < 0 else 1
        flipped = sign * s
        for j, v in nonzeros:
            cols[j].append((i, v.numerator * (flipped // v.denominator)))
        signs.append(sign)
        scales.append(s)
    rhs, rden = _rhs_column(problem.b, signs, scales)
    block = [[0] * i + [1] + [0] * (m - 1 - i) + [v] for i, v in enumerate(rhs)]
    basis = [n + i for i in range(m)]

    # phase 1: minimize sum_i L/s_i * art_i (L = lcm of the s_i); price it out
    big = lcm(*scales)
    weights = [big // s for s in scales]
    block.append([0] * m + [-sum(w * row[-1] for w, row in zip(weights, block))])
    phase1_cost = [-sum(weights[k] * a for k, a in col) for col in cols]
    den, phase1, priced, _ = _price_and_pivot(block, basis, 1, cols, phase1_cost,
                                              artificials=True)
    priced += dual_priced

    costrow = block[-1]
    if costrow[-1] < 0:  # residual infeasibility; costrow[-1] holds -objective
        scale = den * big
        farkas = [Fraction(sg * (scale - s * costrow[i]), scale)
                  for i, (sg, s) in enumerate(zip(signs, scales))]
        return LpOutcome(status=INFEASIBLE, farkas=farkas,
                         stats=LpStats(m, n, phase1, 0, priced, dual_pivots))

    # drive leftover artificials out of the basis where possible; the
    # phase-1 cost row is spent, and until phase 2 the zero objective, whose
    # cost row is zero in every basis, stands in for it
    block[-1] = [0] * (m + 1)
    stale = {}
    for r in range(m):
        if basis[r] >= n:
            row = block[r]
            e = next((j for j, col in enumerate(cols) if sum(row[k] * a for k, a in col)), None)
            if e is not None:
                column = _up_to_date(_column(block, cols[e]), den, stale)
                den = _pivot(block, den, r, column + [0], stale)
                basis[r] = e
                phase1 += 1
            # else: redundant 0 = 0 row; inert from here on
    _settle(block, den, stale)

    # phase 2: the objective times the lcm of its denominators; artificial
    # columns are barred from entering
    cost, cscale = _scaled(problem.c)
    basic_cost = [cost[b] if b < n else 0 for b in basis]
    costrow = [0] * (m + 1)
    for cb, row in zip(basic_cost, block):
        if cb:
            costrow = [cv - cb * rv for cv, rv in zip(costrow, row)]
    block[-1] = costrow
    den, phase2, priced2, enter = _price_and_pivot(block, basis, den, cols, cost,
                                                   artificials=False)
    stats = LpStats(m, n, phase1, phase2, priced + priced2, dual_pivots)

    if enter is not None:
        primal = _primal(block, basis, den, rden, n)
        ray = [F0] * n
        ray[enter] = F1
        for b, a in zip(basis, _column(block, cols[enter])):
            if b < n:
                ray[b] = Fraction(-a, den)
        return LpOutcome(status=UNBOUNDED, primal=primal, ray=ray, stats=stats)
    return _optimal(_Basis(problem.a_rows, problem.c, cols, signs, scales, cost, cscale,
                           block, den, basis), rden, stats)


def verify_certificate(problem: LpProblem, outcome: LpOutcome) -> bool:
    """Re-derive the claimed outcome from first principles.

    No solver state is trusted: every check is a direct substitution into
    the problem data.  Each row of [A | b] is cleared of denominators by its
    own positive lcm and each certificate vector by its common denominator,
    so y.A, y.b, A.x and A.d are integer sums over the nonzeros of A, each
    off from the true value by a known positive factor.
    """
    m, n = problem.nrows, problem.ncols
    scales, rows, rhs = [], [], []
    for a_row, b_i in zip(problem.a_rows, problem.b):
        ints, s = _scaled([*a_row, b_i])
        scales.append(s)
        rows.append([(j, v) for j, v in enumerate(ints[:-1]) if v])
        rhs.append(ints[-1])
    big = lcm(*scales)

    def cleared(vec, size):
        """``vec`` as (integers, positive denominator), or None if it is absent or the wrong size."""
        if vec is None or len(vec) != size:
            return None
        return _scaled(vec)

    def solves(v, den, target):
        """A.(v/den) == target/den, row by row."""
        return all(sum(a * v[j] for j, a in row) == t * den
                   for row, t in zip(rows, target))

    def primal_feasible(x):
        return x is not None and min(x[0], default=0) >= 0 and solves(*x, rhs)

    def y_times_a(y):
        """For y = ints/den given its ints: big*den*(y.A) per column, and big*den*(y.b)."""
        ya, yb = [0] * n, 0
        for y_i, s, row, b_i in zip(y, scales, rows, rhs):
            if y_i:
                w = y_i * (big // s)
                for j, a in row:
                    ya[j] += w * a
                yb += w * b_i
        return ya, yb

    if outcome.status == OPTIMAL:
        x, y = cleared(outcome.primal, n), cleared(outcome.dual, m)
        if not primal_feasible(x) or y is None:
            return False
        # reduced costs c - y.A nonnegative, and zero wherever x is positive;
        # with c = cost/cden and y = ints/yden, each is scaled by cden*yden*big > 0
        cost, cden = _scaled(problem.c)
        ya, _ = y_times_a(y[0])
        for cj, yaj, xj in zip(cost, ya, x[0]):
            red = cj * y[1] * big - cden * yaj
            if red < 0 or (xj > 0 and red != 0):
                return False
        return True

    if outcome.status == INFEASIBLE:
        y = cleared(outcome.farkas, m)
        if y is None:
            return False
        ya, yb = y_times_a(y[0])
        return all(v <= 0 for v in ya) and yb > 0

    if outcome.status == UNBOUNDED:
        x, d = cleared(outcome.primal, n), cleared(outcome.ray, n)
        if not primal_feasible(x) or d is None or min(d[0], default=0) < 0:
            return False
        if not solves(d[0], d[1], [0] * m):
            return False
        cost, _ = _scaled(problem.c)
        return sum(cj * dj for cj, dj in zip(cost, d[0])) < 0

    return False
