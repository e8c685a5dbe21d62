from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rthy import (
    BadStratumBounds,
    Encoding,
    EnumerationTooLarge,
    PLUS_INF,
    ShapeMismatch,
    fmk,
    free_robustness,
    nonconvexity,
    robustness,
    weight,
    weight_fmk,
)
from rthy import measures
from rthy.exactmath import F0, F1, OPTIMAL, LpProblem, lp_solve
from rthy.instances import incomparable_x, incomparable_y, two_point_encoding

from conftest import (
    convex_combination_weight,
    deterministic_encodings,
    encodings,
    full_mixture_problem,
    rank,
    stochastic_maps,
    support_of,
    supported_encodings,
    supports,
)

H = Fraction(1, 2)


def _constant_columns(x: Encoding) -> bool:
    first = x.column(0)
    return all(x.column(c) == first for c in range(x.hypotheses))


def _mix(lam, y: Encoding, z: Encoding) -> Encoding:
    rows = [[lam * y.matrix[i][c] + (1 - lam) * z.matrix[i][c]
             for c in range(y.hypotheses)] for i in range(y.outcomes)]
    return Encoding.from_rows(rows)


# Reference LPs: each minimizes the mixing weight lam directly over the
# free polytope, independently of the closed forms in rthy.measures.  Column
# 0 is lam; the other columns are listed in each docstring.

def _row(width, entries):
    """Dense row of ``width`` rationals, zero outside the ``{column: value}`` entries."""
    return [Fraction(entries.get(k, 0)) for k in range(width)]


def _lam_lp(width, rows, b):
    return lp_solve(LpProblem(c=_row(width, {0: F1}), a_rows=rows, b=b))


def _robustness_lp(z: Encoding):
    """min lam over y with lam*y + (1-lam)*z constant-columned.

    Columns: lam, Y[i,c] at 1 + i*h + c, u[i] at 1 + n*h + i, the slack of lam <= 1.
    """
    n, h = z.outcomes, z.hypotheses
    width = 2 + n * h + n
    rows, b = [], []
    for i in range(n):
        for c in range(h):
            # Y[i,c] + (1-lam) z[i,c] = u[i]
            rows.append(_row(width, {1 + i * h + c: F1, 0: -z.matrix[i][c], 1 + n * h + i: -F1}))
            b.append(-z.matrix[i][c])
    for c in range(h):
        rows.append(_row(width, {1 + i * h + c: F1 for i in range(n)} | {0: -F1}))
        b.append(F0)
    rows.append(_row(width, {1 + n * h + i: F1 for i in range(n)}))
    rows.append(_row(width, {0: F1, width - 1: F1}))
    b += [F1, F1]
    outcome = _lam_lp(width, rows, b)
    assert outcome.status == OPTIMAL  # lam = 1 with y free is always feasible
    return outcome.primal[0]


def _free_robustness_lp(z: Encoding):
    """As _robustness_lp with a free partner; lam = 1 means no mixture.

    Columns: lam, w[i] at 1 + i, u[i] at 1 + n + i, the slack of lam <= 1.
    """
    n, h = z.outcomes, z.hypotheses
    width = 2 + 2 * n
    rows, b = [], []
    for i in range(n):
        for c in range(h):
            rows.append(_row(width, {1 + i: F1, 0: -z.matrix[i][c], 1 + n + i: -F1}))
            b.append(-z.matrix[i][c])
    rows.append(_row(width, {1 + i: F1 for i in range(n)} | {0: -F1}))
    rows.append(_row(width, {1 + n + i: F1 for i in range(n)}))
    rows.append(_row(width, {0: F1, width - 1: F1}))
    b += [F0, F1, F1]
    outcome = _lam_lp(width, rows, b)
    assert outcome.status == OPTIMAL  # lam = 1 hides z entirely
    lam = outcome.primal[0]
    return PLUS_INF if lam == F1 else lam


def _nonconvexity_lp(x: Encoding):
    """min lam with x = lam*w + (1-lam)*u for free w, u; +inf if infeasible.

    Columns: lam, w[i] at 1 + i, u[i] at 1 + n + i.
    """
    n, h = x.outcomes, x.hypotheses
    width = 1 + 2 * n
    rows, b = [], []
    for i in range(n):
        for c in range(h):
            rows.append(_row(width, {1 + i: F1, 1 + n + i: F1}))
            b.append(x.matrix[i][c])
    rows.append(_row(width, {1 + i: F1 for i in range(n)} | {0: -F1}))
    rows.append(_row(width, {1 + n + i: F1 for i in range(n)} | {0: F1}))
    b += [F0, F1]
    outcome = _lam_lp(width, rows, b)
    if outcome.status != OPTIMAL:
        return PLUS_INF
    return outcome.primal[0]


@given(encodings())
@example(Encoding.from_columns([[H, H], [H, H]]))
@example(Encoding.from_columns([[1, 0, 0], [1, 0, 0]]))
def test_closed_forms_match_reference_lps(x):
    assert robustness(x) == _robustness_lp(x)
    assert free_robustness(x) == _free_robustness_lp(x)
    assert nonconvexity(x) == _nonconvexity_lp(x)


@given(encodings())
def test_weight_closed_form(x):
    floor = sum(min(x.matrix[i]) for i in range(x.outcomes))
    assert weight(x) == 1 - floor


@given(encodings())
def test_robustness_closed_form(z):
    ceil = sum(max(z.matrix[i]) for i in range(z.outcomes))
    assert robustness(z) == 1 - Fraction(1) / ceil


@given(encodings(min_hypotheses=1))
@example(Encoding.from_columns([[H, H], [H, H]]))
@example(Encoding.from_columns([[1, 0, 0], [0, 1, 0], [1, 0, 0]]))
def test_integer_closed_forms_match_fraction_forms(x):
    """weight, robustness and the free test read x's integer rows; they give
    the Fraction forms on its rows: 1 - sum of row minima, 1 - 1 / sum of
    row maxima, and equal columns."""
    assert weight(x) == F1 - sum((min(row) for row in x.matrix), F0)
    assert robustness(x) == F1 - F1 / sum((max(row) for row in x.matrix), F0)
    assert type(weight(x)) is Fraction and type(robustness(x)) is Fraction
    assert measures._is_free(x) == all(x.column(c) == x.column(0) for c in range(x.hypotheses))


@given(encodings())
def test_degenerate_free_measures(x):
    expected = 0 if _constant_columns(x) else PLUS_INF
    assert free_robustness(x) == expected
    assert nonconvexity(x) == expected


def test_pinned_measure_values():
    x, y = incomparable_x(), incomparable_y()
    assert weight(x) == H
    assert robustness(x) == H
    assert robustness(y) == Fraction(1, 3)
    assert free_robustness(x) == PLUS_INF
    assert nonconvexity(x) == PLUS_INF
    flat = Encoding.from_columns([[H, H], [H, H]])
    assert weight(flat) == 0
    assert robustness(flat) == 0
    assert free_robustness(flat) == 0
    assert nonconvexity(flat) == 0


def cva(x: Encoding, y: Encoding, z: Encoding):
    """Least mixing weight placing x on the segment from z to y:
    inf { lam in [0,1] : x = lam*y + (1-lam)*z }.  The affine system pins
    lam from any coordinate where y and z differ, so no LP is needed."""
    shape = (x.outcomes, x.hypotheses)
    if (y.outcomes, y.hypotheses) != shape or (z.outcomes, z.hypotheses) != shape:
        raise ShapeMismatch("cva arguments must share outcome/hypothesis counts")
    lam = None
    for i in range(x.outcomes):
        for c in range(x.hypotheses):
            dy = y.matrix[i][c] - z.matrix[i][c]
            dx = x.matrix[i][c] - z.matrix[i][c]
            if dy == 0:
                if dx != 0:
                    return PLUS_INF
            else:
                cand = dx / dy
                if lam is None:
                    lam = cand
                elif lam != cand:
                    return PLUS_INF
    if lam is None:  # y = z: feasible only when x = z, with weight 0
        return F0
    return lam if 0 <= lam <= 1 else PLUS_INF


@given(encodings(max_outcomes=3, max_hypotheses=2), st.data())
def test_cva_recovers_mixture_weight(y, data):
    z = data.draw(encodings(max_outcomes=3, max_hypotheses=2))
    if (z.outcomes, z.hypotheses) != (y.outcomes, y.hypotheses):
        return
    lam = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), H, Fraction(1)]))
    mix = _mix(lam, y, z)
    got = cva(mix, y, z)
    assert got <= lam  # an even cheaper decomposition may exist
    if y != z:
        assert _mix(got, y, z) == mix


@given(encodings(max_outcomes=3, max_hypotheses=2), st.data())
def test_cva_contracts_under_postprocessing(y, data):
    z = data.draw(encodings(max_outcomes=3, max_hypotheses=2))
    if (z.outcomes, z.hypotheses) != (y.outcomes, y.hypotheses):
        return
    lam = data.draw(st.sampled_from([Fraction(1, 4), Fraction(2, 3)]))
    x = _mix(lam, y, z)
    t = data.draw(stochastic_maps(x.outcomes))
    assert cva(t(x), t(y), t(z)) <= cva(x, y, z)


def test_cva_rejects_shape_mismatch():
    a = two_point_encoding(H, H)
    with pytest.raises(ShapeMismatch):
        cva(a, a, incomparable_x())


def test_cva_off_segment():
    y = two_point_encoding(1, 0)
    z = two_point_encoding(0, 1)
    probe = Encoding.from_columns([[H, H], [Fraction(1, 4), Fraction(3, 4)]])
    assert cva(probe, y, z) == PLUS_INF


def test_deterministic_encodings_enumeration(monkeypatch):
    dets = deterministic_encodings(3, 2)
    assert len(dets) == 9
    assert len(set(dets)) == 9
    for e in dets:
        for c in range(2):
            assert sorted(e.column(c)) == [0, 0, 1]
    monkeypatch.setenv("RTHY_ENUM_GUARD", "8")
    with pytest.raises(EnumerationTooLarge):
        deterministic_encodings(3, 2)


def test_assignments_guard_reports_count(monkeypatch):
    monkeypatch.setenv("RTHY_ENUM_GUARD", "63")
    with pytest.raises(EnumerationTooLarge) as err:
        weight_fmk(incomparable_x(), 1, 3)
    assert (err.value.count, err.value.guard) == (64, 63)
    assert str(err.value) == "4^3 deterministic encodings = 64, above the guard 63"


def test_convex_combination_weight_basics():
    up = two_point_encoding(1, 0)
    down = two_point_encoding(0, 1)
    flat = two_point_encoding(H, H)
    # flat = (up + down) / 2: all mass on the primary pair
    assert convex_combination_weight(flat, [up, down], []) == 1
    assert convex_combination_weight(flat, [up, down], [flat]) == 0
    # a 1/4 tilt needs a quarter of the distinguishing vertex
    tilt = Encoding.from_columns([[Fraction(5, 8), Fraction(3, 8)], [Fraction(3, 8), Fraction(5, 8)]])
    assert convex_combination_weight(tilt, [up, down], [flat]) == Fraction(1, 4)
    # outside the hull of the base alone
    assert convex_combination_weight(tilt, [], [flat]) == PLUS_INF
    with pytest.raises(ShapeMismatch):
        convex_combination_weight(incomparable_x(), [up], [down])


def test_hull_member_pinned():
    up = two_point_encoding(1, 0)
    down = two_point_encoding(0, 1)
    assert convex_combination_weight(two_point_encoding(H, H), [], [up, down]) == 0
    assert convex_combination_weight(two_point_encoding(1, 1), [], [up, down]) != 0


def test_weight_fmk_pinned_values():
    x, y = incomparable_x(), incomparable_y()
    assert weight_fmk(x, 1, 3) == H
    assert weight_fmk(x, 2, 3) == Fraction(1, 4)
    assert weight_fmk(y, 1, 3) == 1
    assert weight_fmk(y, 2, 3) == 0


def test_weight_fmk_stratum_bounds():
    x = incomparable_x()
    for m, k in ((0, 2), (2, 2), (1, 4), (3, 1)):
        with pytest.raises(BadStratumBounds):
            weight_fmk(x, m, k)


def _reference_weight_fmk(x: Encoding, m: int, k: int):
    """The enumeration weight_fmk replaced: one Encoding and one Bareiss rank
    per deterministic encoding, then convex_combination_weight."""
    primary, base = [], []
    for e in deterministic_encodings(x.outcomes, x.hypotheses):
        r = rank(e.matrix)
        if r <= m:
            base.append(e)
        elif r <= k:
            primary.append(e)
    return convex_combination_weight(x, primary, base)


def _with_lps(fn, *args):
    """fn(*args), and the (c, a_rows, b) of each LP it handed to lp_solve."""
    lps = []

    def spy(problem, start=None):
        lps.append((problem.c, problem.a_rows, problem.b))
        return lp_solve(problem, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "lp_solve", spy)
        return fn(*args), lps


def _support_restricted_lp(x: Encoding, m: int, k: int):
    """The (c, a_rows, b) ``weight_fmk(x, m, k)`` should hand ``lp_solve``:
    the mixture LP over the deterministic encodings of rank at most k that
    put no one where x is 0, the rank-(m, k] ones first, with an entry row
    (i, c) for each i < n - 1 where x is positive, then the sum row."""
    n, h = x.outcomes, x.hypotheses
    cells = [(i, c) for i in range(n) for c in range(h)]
    inside = [e for e in deterministic_encodings(n, h)
              if all(x.matrix[i][c] or not e.matrix[i][c] for i, c in cells)]
    ranks = [rank(e.matrix) for e in inside]
    primary = [e for e, r in zip(inside, ranks) if m < r <= k]
    base = [e for e, r in zip(inside, ranks) if r <= m]
    verts = primary + base
    entries = [(i, c) for i, c in cells if i < n - 1 and x.matrix[i][c]]
    return ([1] * len(primary) + [0] * len(base),
            [[e.matrix[i][c] for e in verts] for i, c in entries] + [[1] * len(verts)],
            [x.matrix[i][c] for i, c in entries] + [1])


@given(encodings(max_outcomes=4, max_hypotheses=3, min_hypotheses=2))
@example(Encoding.from_columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # outside low-rank hulls
@example(Encoding.from_columns([[1, 0], [0, 1], [H, H], [Fraction(1, 3), Fraction(2, 3)]]))
@example(incomparable_x())
def test_weight_fmk_matches_reference(x):
    """``weight_fmk`` gives the reference enumeration's value from the LP
    restricted to x's support; on a full-support x that LP is the
    reference's own, all n^h encodings, row for row and column for column."""
    h = x.hypotheses
    for m in range(1, h):
        for k in range(m + 1, h + 1):
            got, got_lps = _with_lps(weight_fmk, x, m, k)
            want, want_lps = _with_lps(_reference_weight_fmk, x, m, k)
            assert got == want
            assert got_lps == [_support_restricted_lp(x, m, k)]
            if all(map(all, x.ints)):
                assert got_lps == want_lps


@given(st.integers(2, 3), st.integers(2, 3), st.data())
def test_fmk_keeps_one_lp_per_shape(n, h, data):
    """``fmk(m, k)`` gives ``weight_fmk``'s values on a run of encodings of
    two shapes and up to two supports each, and hands ``lp_solve`` one A and
    c list per (shape, support), with the last optimal outcome of that shape
    and support as the start."""
    m = data.draw(st.integers(1, h - 1))
    k = data.draw(st.integers(m + 1, h))
    keys = [(size, support) for size in (n, n + 1)
            for support in data.draw(st.lists(supports(size, h), min_size=1, max_size=2))]
    xs = [data.draw(supported_encodings(size, support))
          for size, support in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6))]
    calls = []

    def spy(problem, start=None):
        out = lp_solve(problem, start)
        calls.append((problem, start, out))
        return out

    f = fmk(m, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "lp_solve", spy)
        values = [f(x) for x in xs]
    assert values == [weight_fmk(x, m, k) for x in xs]
    first, last = {}, {}
    for x, (problem, start, out) in zip(xs, calls):
        key = (x.outcomes, x.hypotheses, support_of(x))
        lists = first.setdefault(key, (problem.a_rows, problem.c))
        assert problem.a_rows is lists[0] and problem.c is lists[1]
        assert start is last.get(key)
        if out.status == OPTIMAL:
            last[key] = out
    assert len({id(a_rows) for a_rows, _ in first.values()}) == len(first)


def _full_reference_fmk(x: Encoding, m: int, k: int):
    """f_{m,k}(x) from the full mixture LP, all entry rows and every
    deterministic encoding of rank at most k, solved cold."""
    primary, base = [], []
    for e in deterministic_encodings(x.outcomes, x.hypotheses):
        r = rank(e.matrix)
        if r <= m:
            base.append(e)
        elif r <= k:
            primary.append(e)
    out = lp_solve(full_mixture_problem(x, primary + base, len(primary)))
    return out.objective if out.status == OPTIMAL else PLUS_INF


@st.composite
def _sparse_encodings(draw):
    n, h = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    return draw(supported_encodings(n, draw(supports(n, h))))


@given(_sparse_encodings())
@example(Encoding.from_columns([[0, 0, 1]] * 3))  # deterministic, no entry row kept
@example(Encoding.from_columns([[H, H, 0], [Fraction(1, 3), Fraction(2, 3), 0], [1, 0, 0]]))
@example(Encoding.from_columns([[1, 0, 0], [0, 1, 0], [0, H, H]]))  # one rank-2 vertex left
@example(Encoding.from_columns([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))  # none of rank 2 left
def test_sparse_fmk_matches_full_reference(x):
    """The LP over x's support gives the full LP's value for every (m, k),
    +inf included: for a deterministic x whose ones are all in the last
    outcome (only the sum row is left), for zeros in the last outcome, and
    for x outside the rank-k hull with one or no vertex left."""
    h = x.hypotheses
    for m in range(1, h):
        for k in range(m + 1, h + 1):
            assert weight_fmk(x, m, k) == _full_reference_fmk(x, m, k)


def test_fmk_checks_bounds_per_shape():
    f = fmk(2, 3)
    assert f(incomparable_x()) == weight_fmk(incomparable_x(), 2, 3)
    with pytest.raises(BadStratumBounds):
        f(two_point_encoding(H, Fraction(1, 4)))


@given(encodings(max_outcomes=3, max_hypotheses=3, min_hypotheses=2))
def test_weight_fmk_bottom_stratum_is_weight(x):
    # rank-1 deterministic encodings are the constant-column ones, so the
    # (1, h] stratum weight coincides with the mixture weight
    assert weight_fmk(x, 1, x.hypotheses) == weight(x)


@given(encodings(max_outcomes=3, max_hypotheses=3, min_hypotheses=2))
def test_weight_fmk_zero_iff_low_rank_hull(x):
    h, n = x.hypotheses, x.outcomes
    m = h - 1
    dets = [e for e in deterministic_encodings(n, h) if rank(e.matrix) <= m]
    assert (weight_fmk(x, m, h) == 0) == (convex_combination_weight(x, [], dets) == 0)


@given(encodings(max_outcomes=3, max_hypotheses=2, min_hypotheses=2), st.data())
def test_measures_monotone_under_postprocessing(x, data):
    t = data.draw(stochastic_maps(x.outcomes, max_to=3))
    tx = t(x)
    assert weight(tx) <= weight(x)
    assert robustness(tx) <= robustness(x)
    assert free_robustness(tx) <= free_robustness(x)
    assert nonconvexity(tx) <= nonconvexity(x)
    assert weight_fmk(tx, 1, 2) <= weight_fmk(x, 1, 2)
