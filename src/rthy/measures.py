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


def _mixture_weight(entry_rows: list, entries: list, n_primary: int, width: int):
    """The callable x -> min total weight on the first ``n_primary`` of
    ``width`` vertices over all convex combinations of the vertices equal
    to x, +inf when x is outside the hull.

    The weights form the LP's columns.  ``entry_rows`` has one row per
    entry ``entries[r] = (i, c)`` of x, holding that entry of each vertex,
    and its right-hand side is x's entry (i, c); a last row asks the
    weights to sum to 1.  An entry left out of ``entries`` must hold
    whenever the kept rows do.  The rows (n - 1, c) do: x's and every
    vertex's columns sum to 1, so once the weights do, each is 1 minus the
    rows (i, c) above it.  So does a row where x and every vertex are 0.
    ``width`` is given, not read off a row, because no entry row may be
    kept at all.  A and c are built once, so each LP after the first
    re-solves from the last optimal outcome (``lp_solve``'s ``start``).
    The +inf is returned only once the solver's Farkas vector has been
    checked against the LP it solved.
    """
    a_rows = [*entry_rows, [1] * width]
    cost = [1] * n_primary + [0] * (width - n_primary)
    last = None

    def weigh(x: Encoding):
        nonlocal last
        rows = x.matrix
        b = [rows[i][c] for i, c in entries] + [1]
        problem = LpProblem(c=cost, a_rows=a_rows, b=b)
        outcome = lp_solve(problem, last)
        if outcome.status == OPTIMAL:
            last = outcome
            return outcome.objective
        if not verify_certificate(problem, outcome):
            raise RuntimeError(
                "mixture Farkas vector does not put x outside the hull: solver fault")
        return PLUS_INF

    return weigh


def _assignments(n: int, supports):
    """The assignments a of an outcome a[c] in ``supports[c]`` to each
    hypothesis c, lexicographic; raises before the first one when n^h
    (h = ``len(supports)``) exceeds the guard, however few the supports
    allow."""
    total, guard = n ** len(supports), enumeration_guard()
    if total > guard:
        raise EnumerationTooLarge(f"{n}^{len(supports)} deterministic encodings", total, guard)
    return itertools.product(*supports)


def fmk(m: int, k: int):
    """The rank-stratified weight f_{m,k} as a callable on encodings.

    For each outcome count n and support of x (the outcomes with positive
    mass, per column) it is given, it builds the mixture LP of
    ``_fmk_mixture`` once and keeps it, so the encodings of one shape and
    support, such as a channel's delta inputs, re-solve from the last
    optimal basis.  A full-support x gets the LP over all n^h
    deterministic encodings.  The bounds are checked against h on the
    first encoding of each shape and support.
    """
    lps = {}

    def f(x: Encoding):
        key = (x.outcomes, tuple(tuple(i for i, v in enumerate(col) if v) for col in zip(*x.ints)))
        weigh = lps.get(key)
        if weigh is None:
            weigh = lps[key] = _fmk_mixture(*key, m, k)
        return weigh(x)

    return f


def _fmk_mixture(n: int, support: tuple, m: int, k: int):
    """``_mixture_weight`` over the deterministic encodings of rank at most
    k, with n outcomes, whose ones lie inside ``support`` (``support[c]``
    the outcomes of column c that x gives positive mass), the rank-(m, k]
    ones first.

    This is the LP over all n^h of them, less what x's zeros force out.
    In any decomposition x = sum_a w_a D_a with w >= 0, an entry x_ic = 0
    forces w_a = 0 for every a with a[c] = i, so those columns are left out,
    and so is entry row (i, c), which is 0 = 0 on the rest.  The optimum is
    the full LP's, and the restricted LP is infeasible exactly when the
    full one is: a feasible w of the full LP lives on the kept columns.
    So a Farkas vector of the restricted LP, checked by ``_mixture_weight``,
    proves x outside the hull.  The guard still counts all n^h
    assignments, and a full support lists them all, in the order and with
    the entry rows of the full LP.
    """
    h = len(support)
    if not (1 <= m < k <= h):
        raise BadStratumBounds(f"need 1 <= m < k <= {h}, got m={m}, k={k}")
    primary, base = [], []
    for a in _assignments(n, support):
        r = len(set(a))
        if r <= m:
            base.append(a)
        elif r <= k:
            primary.append(a)
    verts = primary + base
    entries = [(i, c) for i in range(n - 1) for c in range(h) if i in support[c]]
    entry_rows = [[1 if a[c] == i else 0 for a in verts] for i, c in entries]
    return _mixture_weight(entry_rows, entries, len(primary), len(verts))


def weight_fmk(x: Encoding, m: int, k: int):
    """Rank-stratified weight: least total mass on deterministic encodings of
    rank in (m, k] when decomposing x over all deterministic encodings of
    rank at most k; +inf when x lies outside that hull.

    A deterministic encoding is an outcome assignment ``a`` (hypothesis c
    yields outcome a[c]): its entry (i, c) is ``a[c] == i`` and its rank is
    the number of distinct outcomes it uses.  The LP is ``_mixture_weight``
    over those encodings that put their ones inside x's support (the others
    must weigh 0), with the rank-(m, k] vertices first, written straight
    from the assignments.  It is the one-call case of ``fmk``.
    """
    return fmk(m, k)(x)
