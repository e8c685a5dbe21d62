"""Convex-mixture monotones for encodings.

The free set for distinguishability is the constant-column encodings.
It is convex with a simple shape, so the four members of the
weight/robustness family have exact closed forms and need no LP.
``weight_fmk`` refines weight by rank strata of deterministic encodings,
by an exact LP over their convex hull.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import BadStratumBounds, EnumerationTooLarge
from .exactmath import F0, LpProblem, OPTIMAL, lp_solve, verify_certificate
from .majorize import Encoding, enumeration_guard
from .monotone import PLUS_INF


def _is_free(x: Encoding) -> bool:
    """Free encodings are the constant-column ones: each row is constant."""
    return all(min(row) == max(row) for row in x.ints)


def weight(x: Encoding) -> Fraction:
    """Least total mass of a general encoding in a mixture producing x.

    x = lam*g + (1-lam)*s with s constant; the largest constant part
    u = (1-lam)*s has u[i] <= min_c x[i,c], so lam = 1 - sum_i min_c x[i,c],
    here (den - sum_i min_c X[i,c]) / den on x's integer rows.
    """
    return Fraction(x.den - sum(min(row) for row in x.ints), x.den)


def robustness(z: Encoding) -> Fraction:
    """Least mass of an arbitrary encoding whose mixture with z is free.

    lam*y + (1-lam)*z can be made constant exactly when
    (1-lam) * sum_i max_c z[i,c] <= 1, so lam = 1 - 1 / sum_i max_c z[i,c],
    here 1 - den / sum_i max_c Z[i,c] on z's integer rows.
    """
    top = sum(max(row) for row in z.ints)
    return Fraction(top - z.den, top)


def free_robustness(z: Encoding):
    """Like robustness, but the mixing partner must itself be free.

    Mixing two free encodings gives a free encoding, so only a free z
    reaches lam < 1: the value is 0 on the free set and +inf elsewhere.
    """
    return F0 if _is_free(z) else PLUS_INF


def nonconvexity(x: Encoding):
    """Least weight on the first component when writing x as a mixture of two
    free encodings.

    Mixing two free encodings gives a free encoding, so only a free x has
    such a decomposition, with lam = 0: the value is 0 on the free set and
    +inf elsewhere.
    """
    return F0 if _is_free(x) else PLUS_INF


# --------------------------------------------------------------------------
# Vertex-description mixtures and the rank-weight family
# --------------------------------------------------------------------------


def _mixture_weight(x: Encoding, entry_rows: list, n_primary: int):
    """min total weight on the first ``n_primary`` vertices over all convex
    combinations of the vertices equal to x; +inf when x is outside the hull.

    ``entry_rows`` has one row per entry (i, c) of x, in row-major order,
    holding that entry of each vertex; the weights form the LP's columns,
    and a last row asks them to sum to 1.  The entry rows (n - 1, c) are
    left out: x's and every vertex's columns sum to 1, so once the weights
    do, those rows are 1 minus the entry rows (i, c) above them, and the
    feasible set is the same.  The +inf is returned only once the solver's
    Farkas vector has been checked against the LP it solved.
    """
    width = len(entry_rows[0])
    kept = (x.outcomes - 1) * x.hypotheses
    a_rows = [*entry_rows[:kept], [1] * width]
    b = [v for row in x.matrix[:-1] for v in row] + [1]
    cost = [1] * n_primary + [0] * (width - n_primary)
    problem = LpProblem(c=cost, a_rows=a_rows, b=b)
    outcome = lp_solve(problem)
    if outcome.status == OPTIMAL:
        return outcome.objective
    if not verify_certificate(problem, outcome):
        raise RuntimeError("mixture Farkas vector does not put x outside the hull: solver fault")
    return PLUS_INF


def _assignments(n: int, h: int):
    """All n^h assignments of an outcome to each hypothesis, lexicographic;
    raises before the first one when n^h exceeds the guard."""
    total, guard = n ** h, enumeration_guard()
    if total > guard:
        raise EnumerationTooLarge(f"{n}^{h} deterministic encodings", total, guard)
    return itertools.product(range(n), repeat=h)


def weight_fmk(x: Encoding, m: int, k: int):
    """Rank-stratified weight: least total mass on deterministic encodings of
    rank in (m, k] when decomposing x over all deterministic encodings of
    rank at most k; +inf when x lies outside that hull.

    A deterministic encoding is an outcome assignment ``a`` (hypothesis c
    yields outcome a[c]): its entry (i, c) is ``a[c] == i`` and its rank is
    the number of distinct outcomes it uses.  The LP is ``_mixture_weight``
    over those encodings, with the rank-(m, k] vertices first, written
    straight from the assignments.
    """
    h, n = x.hypotheses, x.outcomes
    if not (1 <= m < k <= h):
        raise BadStratumBounds(f"need 1 <= m < k <= {h}, got m={m}, k={k}")
    primary, base = [], []
    for a in _assignments(n, h):
        r = len(set(a))
        if r <= m:
            base.append(a)
        elif r <= k:
            primary.append(a)
    verts = primary + base
    entry_rows = [[1 if a[c] == i else 0 for a in verts] for i in range(n) for c in range(h)]
    return _mixture_weight(x, entry_rows, len(primary))
