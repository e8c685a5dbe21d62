"""Exact rationals, exact rank, and the certified simplex.

The LP oracle here is deliberately independent of the solver: basic
solutions are enumerated by brute force with a tiny Gaussian solver, so
optimal values are cross-checked against vertex enumeration and
infeasibility against the absence of any basic feasible point.  With
``exactmath.STALL`` at 0 the revised integer ``lp_solve`` prices by Bland's
rule throughout, and it is compared, field for field and pivot count for
pivot count, with the dense ``Fraction`` tableau simplex under Bland's rule
(``_reference_lp_solve``), on random LPs and on LPs the tools build.  With
the default cyclic pricing it must reach the reference's status and
objective, with a certificate that verifies.
"""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from rthy import (
    FormatError,
    INFEASIBLE,
    LpOutcome,
    LpProblem,
    OPTIMAL,
    ShapeMismatch,
    UNBOUNDED,
    format_rational,
    lp_solve,
    parse_rational,
    verify_certificate,
)
from rthy import Encoding, StochasticMap, exactmath, majorize, measures
from rthy.exactmath import F0, F1, LpStats, _rational_pair
from rthy.monotone import PLUS_INF

from conftest import (
    column_normalized,
    convex_combination_weight,
    deterministic_encodings,
    distributions,
    encodings,
    full_conversion_problem,
    full_mixture_problem,
    identity_map,
    rank,
    spread_pair,
    stochastic_maps,
    supported_encodings,
    supports,
)

F = Fraction


def test_parse_rational_forms():
    """One grammar: ``int`` literals p or p/q, or a JSON integer, read as a
    reduced pair with q > 0 and then as a Fraction; encodings read the pair."""
    accepted = {"3/4": (3, 4), "-7": (-7, 1), "  2/6 ": (1, 3), "3/-4": (-3, 4),
                "-0": (0, 1), "1_0": (10, 1), "0/-5": (0, 1), "+6/-4": (-3, 2),
                5: (5, 1), -2: (-2, 1)}
    for text, pair in accepted.items():
        assert _rational_pair(text) == pair
        assert parse_rational(text) == F(*pair)
    refused = {True: "expected rational string, got bool",
               0.5: "expected rational string, got float",
               None: "expected rational string, got NoneType",
               "1/0": "bad rational literal '1/0'",
               "1/2/3": "bad rational literal '1/2/3'",
               "": "bad rational literal ''",
               "x": "bad rational literal 'x'",
               "0.5x": "bad rational literal '0.5x'",
               "1/": "bad rational literal '1/'",
               "/2": "bad rational literal '/2'"}
    for text, message in refused.items():
        for read in (_rational_pair, parse_rational):
            with pytest.raises(FormatError) as err:
                read(text)
            assert str(err.value) == message
    x = Encoding.from_json({"hypotheses": 2, "outcomes": 2,
                            "columns": [["  2/6 ", "4/6"], ["1_0/10", "-0"]]})
    assert x.matrix == ((F(1, 3), 1), (F(2, 3), 0)) and x.den == 3
    assert x.ints == ((1, 3), (2, 0))


@given(st.fractions(max_denominator=50))
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_is_canonical():
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(F(-8, 2)) == "-4"
    assert format_rational(F(0)) == "0"
    assert format_rational(-3) == "-3"


@pytest.mark.parametrize("value", [0.5, 1.0, "1/2", None])
def test_format_refuses_non_rationals(value):
    # no float, nor a string that only looks rational, reaches a reported value
    with pytest.raises(TypeError):
        format_rational(value)


def test_matrix_basics():
    # the identity map composes as the identity, on either side
    t = StochasticMap.from_rows([[F(1, 3), F(1)], [F(2, 3), F(0)]])
    x = Encoding.from_rows([[F(1, 2), F(1, 4), F(1)], [F(1, 2), F(3, 4), F(0)]])
    assert identity_map(2)(x) == x
    assert t(identity_map(2)(x)) == identity_map(2)(t(x)) == t(x)
    assert identity_map(2).matrix == ((F1, F0), (F0, F1))
    assert identity_map(0).matrix == ()


@given(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_rank_vs_sympy(rows):
    ours = rank([[F(v) for v in r] for r in rows])
    assert ours == sympy.Matrix(rows).rank()


def test_rank_pinned():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank(identity_map(3).matrix) == 3
    assert rank([[F(0)]]) == 0


# ---------------------------------------------------------------------------
# simplex: pinned instances
# ---------------------------------------------------------------------------


def _lp(a_rows, b, c):
    return LpProblem(c=[F(v) for v in c], a_rows=[[F(v) for v in r] for r in a_rows],
                     b=[F(v) for v in b])


def test_lp_optimal_pinned():
    # columns x, y, then the slacks of x + y <= 4 and x <= 2
    problem = _lp([[1, 1, 1, 0], [1, 0, 0, 1]], [4, 2], [-1, -1, 0, 0])
    out = lp_solve(problem)
    assert out.status == OPTIMAL
    assert verify_certificate(problem, out)
    assert out.primal[0] + out.primal[1] == F(4)


def test_lp_infeasible_pinned():
    problem = _lp([[1]], [-1], [1])
    out = lp_solve(problem)
    assert out.status == INFEASIBLE
    assert out.farkas is not None
    assert verify_certificate(problem, out)


def test_lp_unbounded_pinned():
    # free x as the column pair x+, x-; no constraints
    problem = _lp([], [], [1, -1])
    out = lp_solve(problem)
    assert out.status == UNBOUNDED
    assert verify_certificate(problem, out)


def test_lp_free_variable_split():
    # free x as the column pair x+, x-: minimize x subject to x = -3
    out = lp_solve(_lp([[1, -1]], [-3], [1, -1]))
    assert out.status == OPTIMAL
    assert out.primal[0] - out.primal[1] == F(-3)


def test_lp_ge_constraint():
    # x >= 5 as x - s = 5 with the surplus column s
    problem = _lp([[1, -1]], [5], [1, 0])
    out = lp_solve(problem)
    assert out.status == OPTIMAL
    assert out.primal[0] == F(5)
    assert verify_certificate(problem, out)


def test_verify_rejects_tampered_certificates():
    problem = _lp([[1]], [2], [1])
    out = lp_solve(problem)
    bad = LpOutcome(status=OPTIMAL, primal=tuple(v + 1 for v in out.primal),
                    dual=out.dual, farkas=None, ray=None)
    assert not verify_certificate(problem, bad)
    bad_dual = LpOutcome(status=OPTIMAL, primal=out.primal,
                         dual=tuple(v + 1 for v in out.dual), farkas=None, ray=None)
    assert not verify_certificate(problem, bad_dual)


def test_lp_rejects_rows_of_wrong_length():
    # lp_solve would pair b_0 with column 1 of a row shorter than c
    with pytest.raises(ShapeMismatch):
        LpProblem(c=[F(1), F(-1)], a_rows=[[F(1)]], b=[F(1)])
    with pytest.raises(ShapeMismatch):
        LpProblem(c=[F(1)], a_rows=[[F(1)], [F(1), F(0)]], b=[F(1), F(1)])


def test_lp_rejects_rhs_of_wrong_length():
    # lp_solve and verify_certificate would drop an entry of b with no row of A
    with pytest.raises(ShapeMismatch):
        LpProblem(c=[F(1)], a_rows=[[F(1)]], b=[F(1), F(2)])
    with pytest.raises(ShapeMismatch):
        LpProblem(c=[F(1)], a_rows=[[F(1)]], b=[])


# ---------------------------------------------------------------------------
# simplex: randomized self-certification against vertex enumeration
# ---------------------------------------------------------------------------


def _solve_square(cols, b):
    """Solve sum_j cols[j]*v[j] = b exactly; None if inconsistent or the
    columns are dependent.  Plain Gaussian elimination, no pivoting tricks."""
    m, k = len(b), len(cols)
    aug = [[cols[j][i] for j in range(k)] + [b[i]] for i in range(m)]
    row = 0
    where = [-1] * k
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            return None  # dependent columns: not a basis candidate
        aug[row], aug[piv] = aug[piv], aug[row]
        where[col] = row
        inv = F(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * p for a, p in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            return None
    return [aug[where[j]][k] for j in range(k)]


def _enumerate_basic_solutions(problem):
    """All basic feasible solutions of Av=b, v>=0 by brute force."""
    m = len(problem.b)
    n = len(problem.c)
    cols = [[problem.a_rows[i][j] for i in range(m)] for j in range(n)]
    found = []
    if all(v == 0 for v in problem.b):
        found.append(tuple([F(0)] * n))
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(n), size):
            sol = _solve_square([cols[j] for j in subset], list(problem.b))
            if sol is None or any(v < 0 for v in sol):
                continue
            full = [F(0)] * n
            for j, v in zip(subset, sol):
                full[j] = v
            found.append(tuple(full))
    return found


def _objective(problem, point):
    return sum((c * v for c, v in zip(problem.c, point)), F(0))


@st.composite
def random_problems(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3)
    a_rows = [tuple(F(draw(coeff)) for _ in range(n)) for _ in range(m)]
    b = tuple(F(draw(coeff)) for _ in range(m))
    c = tuple(F(draw(coeff)) for _ in range(n))
    return LpProblem(c=list(c), a_rows=[list(r) for r in a_rows], b=list(b))


@settings(max_examples=120)
@given(random_problems())
def test_lp_self_certification(problem):
    out = lp_solve(problem)
    assert verify_certificate(problem, out)
    basics = _enumerate_basic_solutions(problem)
    if out.status == INFEASIBLE:
        assert basics == []
    elif out.status == OPTIMAL:
        assert basics, "optimal LP must have a basic feasible solution"
        assert min(_objective(problem, p) for p in basics) == _objective(problem, out.primal)
    else:
        assert out.status == UNBOUNDED
        assert basics, "unbounded LP is still feasible"


# ---------------------------------------------------------------------------
# simplex: the revised integer simplex against the Fraction tableau
# ---------------------------------------------------------------------------


def _reference_pivot(tableau, costrow, basis, r, col):
    piv = tableau[r][col]
    inv = F1 / piv
    tableau[r] = [v * inv for v in tableau[r]]
    prow = tableau[r]
    for i, row in enumerate(tableau):
        if i != r and row[col] != 0:
            f = row[col]
            tableau[i] = [v - f * p for v, p in zip(row, prow)]
    if costrow[col] != 0:
        f = costrow[col]
        for j in range(len(costrow)):
            costrow[j] -= f * prow[j]
    basis[r] = col


def _reference_bland_step(tableau, costrow, basis, allowed_cols):
    """One Bland-rule pivot over ``allowed_cols``, a ``range(k)``.  Returns
    'optimal', 'pivoted', or 'unbounded' with the entering column index, and
    the number of reduced costs read."""
    enter = next((j for j in allowed_cols if costrow[j] < 0), None)
    if enter is None:
        return "optimal", None, len(allowed_cols)
    best = None
    for i, row in enumerate(tableau):
        a = row[enter]
        if a > 0:
            ratio = row[-1] / a
            if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                best = (ratio, i)
    if best is None:
        return "unbounded", enter, enter + 1
    _reference_pivot(tableau, costrow, basis, best[1], enter)
    return "pivoted", None, enter + 1


def _reference_lp_solve(problem):
    """Two-phase simplex with Bland's rule on a dense ``Fraction`` tableau.

    The textbook form of ``lp_solve``: the same set-up, pivot rule and
    certificate read-out, with every cell an exact rational.  ``lp_solve``
    must agree with it field for field, pivot counts (``stats``) included.
    """
    m, n = problem.nrows, problem.ncols
    signs = []
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in problem.a_rows[i]]
        rhs = Fraction(problem.b[i])
        if rhs < 0:  # flip so artificial start is feasible; remember for duals
            row = [-v for v in row]
            rhs = -rhs
            signs.append(-1)
        else:
            signs.append(1)
        art = [F1 if k == i else F0 for k in range(m)]
        tableau.append(row + art + [rhs])
    basis = [n + i for i in range(m)]

    # phase 1: minimize the sum of artificials; price the cost row out
    width = n + m + 1
    costrow = [F0] * width
    for j in range(n, n + m):
        costrow[j] = F1
    for row in tableau:
        costrow = [cv - rv for cv, rv in zip(costrow, row)]

    allowed = range(n + m)
    phase1 = phase2 = priced = 0
    while True:
        state, _, read = _reference_bland_step(tableau, costrow, basis, allowed)
        priced += read
        if state == "optimal":
            break
        phase1 += 1

    if -costrow[-1] > 0:  # residual infeasibility; costrow[-1] holds -objective
        y_flip = [F1 - costrow[n + i] for i in range(m)]
        farkas = [s * y for s, y in zip(signs, y_flip)]
        return LpOutcome(status=INFEASIBLE, farkas=farkas,
                         stats=LpStats(m, n, phase1, 0, priced))

    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                _reference_pivot(tableau, costrow, basis, r, col)
                phase1 += 1
            # else: redundant 0 = 0 row; inert from here on

    # phase 2: original objective, artificial columns barred from entering
    costrow = [F0] * width
    for j in range(n):
        costrow[j] = Fraction(problem.c[j])
    for r, row in enumerate(tableau):
        cb = problem.c[basis[r]] if basis[r] < n else F0
        if cb != 0:
            costrow = [cv - cb * rv for cv, rv in zip(costrow, row)]

    allowed = range(n)
    while True:
        state, enter, read = _reference_bland_step(tableau, costrow, basis, allowed)
        priced += read
        if state == "optimal":
            break
        if state == "pivoted":
            phase2 += 1
            continue
        if state == "unbounded":
            primal = [F0] * n
            for r in range(m):
                if basis[r] < n:
                    primal[basis[r]] = tableau[r][-1]
            ray = [F0] * n
            ray[enter] = F1
            for r in range(m):
                if basis[r] < n:
                    ray[basis[r]] = -tableau[r][enter]
            return LpOutcome(status=UNBOUNDED, primal=primal, ray=ray,
                             stats=LpStats(m, n, phase1, phase2, priced))

    primal = [F0] * n
    for r in range(m):
        if basis[r] < n:
            primal[basis[r]] = tableau[r][-1]
    y_flip = [
        sum(
            (Fraction(problem.c[basis[r]]) * tableau[r][n + i]
             for r in range(m) if basis[r] < n),
            F0,
        )
        for i in range(m)
    ]
    dual = [s * y for s, y in zip(signs, y_flip)]
    objective = sum((ci * vi for ci, vi in zip(problem.c, primal)), F0)
    return LpOutcome(status=OPTIMAL, primal=primal, dual=dual, objective=objective,
                     stats=LpStats(m, n, phase1, phase2, priced))


def _fields(out):
    return (out.status, out.primal, out.dual, out.farkas, out.ray, out.objective)


def _bland_solve(problem):
    """``lp_solve`` with Bland's rule from the first pivot on."""
    with mock.patch.object(exactmath, "STALL", 0):
        return lp_solve(problem)


def _pricing_outcomes(problem):
    """``lp_solve``'s outcomes at the default STALL, which small LPs seldom
    reach, and at 1, where every degenerate pivot starts a Bland stretch."""
    outs = []
    for stall in (exactmath.STALL, 1):
        with mock.patch.object(exactmath, "STALL", stall):
            outs.append(lp_solve(problem))
    return outs


def _agree(problem, out, ref):
    """Same status and objective as ``ref``, and a certificate that verifies."""
    same = (out.status, out.objective) == (ref.status, ref.objective)
    return same and verify_certificate(problem, out)


@st.composite
def mixed_problems(draw):
    """Small LPs with mixed denominators and signs, sometimes a row that is
    a multiple of row 0 (redundant, or contradictory when its rhs is not)."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(1, 5))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    a_rows = [[draw(q) for _ in range(n)] for _ in range(m)]
    b = [draw(q) for _ in range(m)]
    if m and draw(st.booleans()):
        k = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        a_rows.append([k * v for v in a_rows[0]])
        b.append(k * b[0] if draw(st.booleans()) else draw(q))
    c = [draw(q) for _ in range(n)]
    return LpProblem(c=c, a_rows=a_rows, b=b)


@settings(max_examples=300)
@given(mixed_problems())
@example(_lp([["1/2", "1/3"], ["2/5", "-3/4"]], ["1/6", "-2/7"], ["1", "-1/2"]))  # mixed denominators
@example(_lp([[1, -1, 0], [0, 1, -1]], [-1, "-1/2"], [1, 2, 3]))                   # negative rhs
@example(_lp([[1, 2], [2, 4], ["-1/2", -1]], [3, 6, "-3/2"], [1, 1]))               # redundant rows
@example(_lp([[1, 1], [1, 1]], [1, 2], [0, 0]))                                     # infeasible
@example(_lp([[1, -1]], [1], [-1, 0]))                                              # unbounded
@example(_lp([[1, 2, 1], [3, -1, 0]], ["1/2", "1/3"], [1, 1, 0]))                  # integer A, D = 6
@example(_lp([["-1/2", 1, 0], [-1, 2, 0], [0, "1/3", 1]], ["-3/5", "-6/5", "2/7"],
             [1, -1, 0]))                              # b's denominators not in A, redundant row
@example(_lp([["1/2", "1/3"], ["3/2", 1], [0, "-1/4"]], ["1/5", "4/7", "-1/11"],
             [1, 1]))                                  # infeasible, b's denominators not in A
def test_lp_solve_matches_fraction_reference(problem):
    out = _bland_solve(problem)
    assert _fields(out) == _fields(_reference_lp_solve(problem))
    assert verify_certificate(problem, out)


@settings(max_examples=300)
@given(mixed_problems())
def test_default_pricing_matches_fraction_reference(problem):
    ref = _reference_lp_solve(problem)
    assert all(_agree(problem, out, ref) for out in _pricing_outcomes(problem))


def _fmk_problem(x, m, k):
    """The LP that ``weight_fmk(x, m, k)`` solves."""
    seen = []

    def capture(problem, start=None):
        seen.append(problem)
        return lp_solve(problem, start)

    with mock.patch.object(measures, "lp_solve", capture):
        measures.weight_fmk(x, m, k)
    return seen[0]


def test_lp_readout_matches_reference_at_widest_fmk():
    """The readout off the cost row at the widest f_mk LP the tools solve,
    n^h = 256 deterministic encodings (n = 2, h = 8); the random and tool
    LPs above stop at n, h <= 3, at most 27 columns."""
    x = Encoding.from_columns([[F(1 + c, 10), F(9 - c, 10)] for c in range(8)])
    problem = _fmk_problem(x, 1, 2)
    assert problem.ncols == 256
    ref = _reference_lp_solve(problem)
    assert ref.status == OPTIMAL
    assert _fields(_bland_solve(problem)) == _fields(ref)
    assert _agree(problem, lp_solve(problem), ref)


@st.composite
def tool_cases(draw):
    """LPs shaped as the tools build them, unlike ``mixed_problems``: up to
    several times more columns than rows, sparse columns, and dependent rows
    that leave artificials basic on a redundant 0 = 0 row after phase 1.
    Either a conversion LP for x and t(x) or for two random encodings, with
    the pair (x, y): the one ``majorizes`` builds, or the full-row
    reference, whose h redundant rows (one per hypothesis) keep that
    drive-out branch exercised on every feasible one; or the ``weight_fmk``
    LP of a small encoding, with None."""
    if draw(st.booleans()):
        x = draw(encodings(max_outcomes=4, max_hypotheses=3))
        if draw(st.booleans()):
            y = draw(stochastic_maps(x.outcomes))(x)
        else:
            h = x.hypotheses
            y = draw(encodings(max_outcomes=4, min_hypotheses=h, max_hypotheses=h))
        build = draw(st.sampled_from([majorize._conversion_problem, full_conversion_problem]))
        return build(x, y.matrix), (x, y)
    x = draw(encodings(max_outcomes=3, max_hypotheses=3))
    m = draw(st.integers(1, x.hypotheses - 1))
    k = draw(st.integers(m + 1, x.hypotheses))
    return _fmk_problem(x, m, k), None


def tool_problems():
    return tool_cases().map(lambda case: case[0])


@given(tool_problems())
def test_lp_solve_matches_reference_on_tool_lps(problem):
    out = _bland_solve(problem)
    assert _fields(out) == _fields(_reference_lp_solve(problem))
    assert verify_certificate(problem, out)


@given(tool_cases())
def test_default_pricing_matches_reference_on_tool_lps(case):
    problem, pair = case
    ref = _reference_lp_solve(problem)
    for out in _pricing_outcomes(problem):
        assert _agree(problem, out, ref)
        if pair is not None and out.status == OPTIMAL:
            # the conversion LP's column i*n_x + j holds t[i][j]
            x, y = pair
            n = x.outcomes
            t = StochasticMap.from_rows([out.primal[i * n:(i + 1) * n] for i in range(y.outcomes)])
            assert t(x) == y


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_reduced_mixture_lp_matches_full_reference(n, h, data):
    """``_mixture_weight`` leaves out the entry rows (n - 1, c) and keeps the
    feasible set: ``weight_fmk`` and ``convex_combination_weight`` give the
    value, +inf included, of the full-row mixture LP solved by the
    reference simplex.  x, and the vertices of the second, are drawn from
    the deterministic encodings and random encodings of shape n x h;
    ``weight_fmk`` also runs on a deterministic encoding of the largest
    rank, which at n = h = 3 lies outside the rank-2 hull."""
    dets = deterministic_encodings(n, h)
    rank = [sum(map(any, e.matrix)) for e in dets]
    shaped = st.builds(Encoding.from_columns, st.lists(distributions(n), min_size=h, max_size=h))
    vertex = st.one_of(st.sampled_from(dets), shaped)
    x = data.draw(vertex)

    def reference(target, vertices, n_primary):
        ref = _reference_lp_solve(full_mixture_problem(target, vertices, n_primary))
        return ref.objective if ref.status == OPTIMAL else PLUS_INF

    for target in (x, dets[rank.index(max(rank))]):
        for m, k in itertools.combinations(range(1, h + 1), 2):
            primary = [e for e, r in zip(dets, rank) if m < r <= k]
            base = [e for e, r in zip(dets, rank) if r <= m]
            assert measures.weight_fmk(target, m, k) == reference(
                target, primary + base, len(primary))
    primary = data.draw(st.lists(vertex, max_size=3))
    base = data.draw(st.lists(vertex, min_size=0 if primary else 1, max_size=3))
    value = convex_combination_weight(x, primary, base)
    assert value == reference(x, primary + base, len(primary))


@given(st.one_of(mixed_problems(), tool_problems()))
def test_pivot_counts_match_reference(problem):
    stats = _bland_solve(problem).stats
    assert (stats.rows, stats.cols) == (problem.nrows, problem.ncols)
    assert stats == _reference_lp_solve(problem).stats


# ---------------------------------------------------------------------------
# re-solves from an earlier optimal basis: one A and c, several b
# ---------------------------------------------------------------------------


def _targets(draw, x, n_y, count):
    """``count`` encodings with x's hypotheses and n_y outcomes: each either
    a post-processing of x or drawn at random."""
    h = x.hypotheses
    out = []
    for _ in range(count):
        if draw(st.booleans()):
            cols = [draw(distributions(n_y)) for _ in range(x.outcomes)]
            out.append(StochasticMap.from_rows([list(row) for row in zip(*cols)])(x))
        else:
            out.append(Encoding.from_columns([draw(distributions(n_y)) for _ in range(h)]))
    return out


@st.composite
def lp_families(draw):
    """LPs that share one A and c and differ in b, as (first problem, the
    other b's): a random problem from ``mixed_problems`` or
    ``tool_problems`` with right-hand sides that are A v for a random
    v >= 0 or drawn at random; the conversion LPs (reduced or full) of one
    x for targets with one outcome count; or the f_{m,k} LPs of encodings
    of one shape and support, which share A and c."""
    count = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["mixed", "tool", "conversion", "mixture"]))
    if kind in ("mixed", "tool"):
        first = draw(mixed_problems() if kind == "mixed" else tool_problems())
        q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        v0 = st.fractions(min_value=0, max_value=3, max_denominator=6)
        bs = []
        for _ in range(count):
            if draw(st.booleans()):
                v = [draw(v0) for _ in range(first.ncols)]
                bs.append([sum((a * w for a, w in zip(row, v)), F0) for row in first.a_rows])
            else:
                bs.append([draw(q) for _ in range(first.nrows)])
        return first, bs
    if kind == "conversion":
        x = draw(encodings(max_outcomes=4, max_hypotheses=3))
        build = draw(st.sampled_from([majorize._conversion_problem, full_conversion_problem]))
        problems = [build(x, y.matrix)
                    for y in _targets(draw, x, draw(st.integers(1, 4)), count + 1)]
    else:
        n, h = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        m = draw(st.integers(1, h - 1))
        k = draw(st.integers(m + 1, h))
        support = draw(supports(n, h))
        problems = [_fmk_problem(draw(supported_encodings(n, support)), m, k)
                    for _ in range(count + 1)]
        assert all((p.c, p.a_rows) == (problems[0].c, problems[0].a_rows) for p in problems)
    return problems[0], [p.b for p in problems[1:]]


def _warm_family(first, bs):
    """Solve ``first`` cold, then each b over its very A and c lists, each
    from the last optimal outcome; yields (problem, outcome)."""
    last = lp_solve(first)
    yield first, last
    start = last if last.status == OPTIMAL else None
    for b in bs:
        problem = LpProblem(c=first.c, a_rows=first.a_rows, b=b)
        out = lp_solve(problem, start)
        yield problem, out
        if out.status == OPTIMAL:
            start = out


@given(lp_families())
def test_warm_lp_matches_cold_reference(family):
    """Each re-solve reaches the status and objective of the Fraction
    reference, with a certificate that verifies.  One that does not end
    optimal is the cold solve, field for field, so its Farkas vector or ray
    is the cold one; a cold solve reports no dual pivots."""
    for problem, out in _warm_family(*family):
        ref = _reference_lp_solve(problem)
        assert (out.status, out.objective) == (ref.status, ref.objective)
        assert verify_certificate(problem, out)
        if out.status != OPTIMAL:
            assert _fields(out) == _fields(lp_solve(problem))
    assert lp_solve(family[0]).stats.dual_pivots == 0


def test_warm_lp_needs_the_same_lists():
    """A problem with equal but distinct ``a_rows`` or ``c`` lists is solved
    cold, as if there were no start; with the same lists the start is used."""
    x, y = spread_pair(3, 5, 5, seed=1)
    first = majorize._conversion_problem(x, y.matrix)
    start = lp_solve(first)
    assert start.status == OPTIMAL
    t = column_normalized([[1, 2, 0, 4, 5], [5, 0, 3, 2, 1], [0, 1, 1, 0, 2],
                           [2, 2, 1, 1, 0], [1, 0, 2, 3, 1]])
    target = StochasticMap.from_rows(t.matrix)(x)
    b = majorize._conversion_problem(x, target.matrix).b
    for problem in (LpProblem(c=first.c, a_rows=[list(r) for r in first.a_rows], b=b),
                    LpProblem(c=list(first.c), a_rows=first.a_rows, b=b)):
        out = lp_solve(problem, start)
        assert out.stats.dual_pivots == 0
        assert _fields(out) == _fields(lp_solve(problem))
        assert out.stats == lp_solve(problem).stats
    warm = lp_solve(LpProblem(c=first.c, a_rows=first.a_rows, b=b), start)
    assert warm.stats.phase1_pivots == warm.stats.phase2_pivots == 0
    assert warm.status == OPTIMAL and warm.stats.dual_pivots > 0


# ---------------------------------------------------------------------------
# pivots that leave rows alone, against the eager pivot they replaced
# ---------------------------------------------------------------------------


def _eager_pivot(block, den, r, column):
    """The fraction-free pivot that rewrites every row of ``block`` on every
    pivot, as ``exactmath._pivot`` did before it left rows alone."""
    prow = block[r]
    p = column[r]
    negate = p < 0
    if negate:  # every new row negated: (-p*row - (-column[i])*prow) / den
        p = -p
        column = [-f for f in column]
    nonzero = [j for j, w in enumerate(prow) if w]
    for i, (row, f) in enumerate(zip(block, column)):
        if i == r:
            continue
        if p != den:
            block[i] = ([(p * v - f * w) // den for v, w in zip(row, prow)] if f
                        else [p * v // den for v in row])
        elif f:
            new = row[:]
            for j in nonzero:
                new[j] -= f * prow[j] // den
            block[i] = new
    if negate:
        block[r] = [-w for w in prow]
    return p


def _settled(block, den, stale):
    """A copy of ``block`` with every row that pivots left alone brought up
    to date at ``den``."""
    current = [row[:] for row in block]
    exactmath._settle(current, den, dict(stale))
    return current


@st.composite
def larger_conversion_problems(draw):
    """The conversion LP ``majorizes`` builds for x and t(x), with up to 6
    outcomes and 3 or 4 hypotheses: large enough that most of its pivots
    find rows to leave alone, which the LPs of ``tool_problems`` seldom do."""
    x = draw(encodings(max_outcomes=6, max_hypotheses=4, min_hypotheses=3))
    return majorize._conversion_problem(x, draw(stochastic_maps(x.outcomes, max_to=6))(x).matrix)


@given(st.one_of(st.one_of(mixed_problems(), tool_problems(), larger_conversion_problems())
                 .map(lambda p: (p, [])), lp_families()).map(lambda family: (*family, None)))
@example((_lp([[-2, 0], [0, -2]], [0, 0], [1, 0]), [], "negative"))
@example((_lp([[2, 0], [0, 1]], [2, 3], [3, 3]), [], "p == den"))
@example((_lp([[0, 3], [-2, -2]], [3, -2], [2, 3]), [], "tie"))
@example((_lp([[0, 0], [-2, 3]], [0, -2], [2, -1]), [[F(0), F(3)]], "dual"))
def test_skipped_rows_match_eager_reference(case):
    """After every pivot of a cold solve, and of the re-solves from its
    basis, the block with its left-alone rows brought up to date equals,
    cell for cell, the block that the eager pivot makes of the same block
    brought up to date, with the same new denominator.  Each entering column
    is a column of that up-to-date block, the cost row is never left alone,
    and every simplex loop, the artificial drive-out included, hands on a
    block with no row left alone.

    An example names the case it is there for: a negative pivot that drives
    an artificial out after rows were left alone; a pivot with p == den on a
    left-alone row; a ratio-test tie between a left-alone row and an
    up-to-date one; and a dual simplex pivot of a re-solve that leaves a row
    alone (there, a redundant 0 = 0 row)."""
    first, bs, event = case
    seen, loop = set(), {"name": "drive-out", "stale": {}}
    real = {name: getattr(exactmath, name)
            for name in ("_pivot", "_price_and_pivot", "_dual_simplex")}

    def spied_loop(name):
        def run(block, basis, den, cols, *args, **kwargs):
            assert not loop["stale"]  # the last loop, or the drive-out, settled
            loop.update(name=name, cols=cols)
            out = real[name](block, basis, den, cols, *args, **kwargs)
            assert not loop["stale"]
            loop["name"] = "drive-out"
            return out
        return run

    def pivot(block, den, r, column, stale):
        m = len(block) - 1
        assert m not in stale
        current = _settled(block, den, stale)
        entering = [exactmath._column(current, col) for col in loop["cols"]]
        entering += [[row[k] for row in current[:-1]] for k in range(m)]
        assert column[:-1] in entering
        if column[r] < 0 and stale and loop["name"] == "drive-out":
            seen.add("negative")
        if abs(column[r]) == den and (r in stale or any(column[i] for i in stale)):
            seen.add("p == den")
        if loop["name"] == "_price_and_pivot":
            ratios = [(F(current[i][-1], a), i in stale) for i, a in enumerate(column[:-1])
                      if a > 0]
            least = min(ratios)[0]
            if {skipped for ratio, skipped in ratios if ratio == least} == {True, False}:
                seen.add("tie")
        eager = [row[:] for row in current]
        eager_den = _eager_pivot(eager, den, r, column)
        den = real["_pivot"](block, den, r, column, stale)
        assert den == eager_den and m not in stale
        if stale and loop["name"] == "_dual_simplex":
            seen.add("dual")
        assert _settled(block, den, stale) == eager
        loop["stale"] = stale
        return den

    with mock.patch.multiple(exactmath, _pivot=pivot,
                             _price_and_pivot=spied_loop("_price_and_pivot"),
                             _dual_simplex=spied_loop("_dual_simplex")):
        for problem, out in _warm_family(first, bs):
            assert verify_certificate(problem, out)
    if event is not None:
        assert event in seen


def _beale_dual():
    """The columns and costs of the LP whose dual is Beale's (1955) cycling
    LP, maximize b.y = 3/4 y0 - 20 y1 + 1/2 y2 - 6 y3 over y >= 0 and its
    three rows: first -e_0 .. -e_3 at cost 0 (y >= 0), then the three rows
    as columns, each costed by its right-hand side 0, 0 and 1."""
    rows = [["1/4", "1/2", 0], [-8, -12, 0], [-1, "-1/2", 1], [9, 3, 0]]
    a_rows = [[F(-(i == j)) for j in range(4)] + [F(v) for v in row]
              for i, row in enumerate(rows)]
    return a_rows, [F(0)] * 6 + [F(1)], [F(3, 4), F(-20), F(1, 2), F(-6)]


def _reference_dual_pivots(problem, basis, most_negative, cap=100):
    """Dual simplex on the dense Fraction tableau of ``problem`` from
    ``basis`` (one column per row, dual feasible): the (leaving, entering)
    columns of each pivot, or None when ``cap`` pivots do not end it.  The
    leaving row is the negative one with the lowest basic column, or with
    ``most_negative`` the most negative one (Dantzig's rule); the entering
    column has the least ratio, ties to the lowest index."""
    tableau = [list(row) + [b] for row, b in zip(problem.a_rows, problem.b)]
    costrow = list(problem.c) + [F0]
    basis = list(basis)
    for r, col in enumerate(basis):
        _reference_pivot(tableau, costrow, basis, r, col)
    pivots = []
    while len(pivots) < cap:
        rows = [i for i, row in enumerate(tableau) if row[-1] < 0]
        if not rows:
            return pivots
        key = (lambda i: (tableau[i][-1], basis[i])) if most_negative else basis.__getitem__
        r = min(rows, key=key)
        enter = min((j for j, a in enumerate(tableau[r][:-1]) if a < 0),
                    key=lambda j: (costrow[j] / -tableau[r][j], j))
        pivots.append((basis[r], enter))
        _reference_pivot(tableau, costrow, basis, r, enter)
    return None


def test_dual_bland_rule_ends_beale_dual_cycle(monkeypatch):
    """A cold solve for b = (-1, -1, -1, -1) ends in the basis of the four
    -e_i columns; re-solved from it for b = Beale's objective, the dual
    simplex is the primal simplex on Beale's LP.  From that basis Dantzig's
    leaving rule cycles, while Bland's rule on the dual (``_dual_simplex``)
    takes the reference's pivots, one for one, to Beale's optimum 5/4.  A
    solve that pivots more than 1000 times raises instead of hanging."""
    class Cycled(Exception):
        pass

    a_rows, c, beale_b = _beale_dual()
    start = lp_solve(LpProblem(c=c, a_rows=a_rows, b=[F(-1)] * 4))
    assert start.status == OPTIMAL and start.primal == [1, 1, 1, 1, 0, 0, 0]
    problem = LpProblem(c=c, a_rows=a_rows, b=beale_b)
    assert _reference_dual_pivots(problem, range(4), most_negative=True) is None
    bland = _reference_dual_pivots(problem, range(4), most_negative=False)

    taken, seen = [], {}
    real_pivot, real_dual = exactmath._pivot, exactmath._dual_simplex

    def capped(block, den, r, column, stale):
        if len(taken) >= 1000:
            raise Cycled
        basis, cols = seen["basis"], seen["cols"]
        current = _settled(block, den, stale)
        enter = next(j for j, col in enumerate(cols)
                     if exactmath._column(current, col) == column[:-1])
        taken.append((basis[r], enter))
        return real_pivot(block, den, r, column, stale)

    def spied_dual(block, basis, den, cols, cost):
        seen.update(basis=basis, cols=cols)
        return real_dual(block, basis, den, cols, cost)

    monkeypatch.setattr(exactmath, "_pivot", capped)
    monkeypatch.setattr(exactmath, "_dual_simplex", spied_dual)
    out = lp_solve(problem, start)
    assert out.status == OPTIMAL and out.objective == F(5, 4)
    assert verify_certificate(problem, out)
    assert out.stats == LpStats(4, 7, 0, 0, out.stats.priced, len(bland))
    assert taken == bland and len(bland) > 1


# ---------------------------------------------------------------------------
# certificates: the integer verifier against the Fraction verifier it replaced
# ---------------------------------------------------------------------------


def _reference_verify_certificate(problem, outcome):
    """Dense Fraction substitution of the outcome into the problem data."""
    m, n = problem.nrows, problem.ncols
    a = problem.a_rows
    b = problem.b
    c = problem.c

    def primal_feasible(x):
        if x is None or len(x) != n or any(v < 0 for v in x):
            return False
        return all(
            sum((aij * xj for aij, xj in zip(a[i], x)), F0) == b[i] for i in range(m)
        )

    if outcome.status == OPTIMAL:
        x, y = outcome.primal, outcome.dual
        if not primal_feasible(x) or y is None or len(y) != m:
            return False
        for j in range(n):
            red = c[j] - sum((y[i] * a[i][j] for i in range(m)), F0)
            if red < 0 or (x[j] > 0 and red != 0):
                return False
        return True

    if outcome.status == INFEASIBLE:
        y = outcome.farkas
        if y is None or len(y) != m:
            return False
        for j in range(n):
            if sum((y[i] * a[i][j] for i in range(m)), F0) > 0:
                return False
        return sum((y[i] * b[i] for i in range(m)), F0) > 0

    if outcome.status == UNBOUNDED:
        x, d = outcome.primal, outcome.ray
        if not primal_feasible(x) or d is None or len(d) != n:
            return False
        if any(v < 0 for v in d):
            return False
        if any(sum((a[i][j] * d[j] for j in range(n)), F0) != 0 for i in range(m)):
            return False
        return sum((c[j] * d[j] for j in range(n)), F0) < 0

    return False


_VECTORS = ("primal", "dual", "farkas", "ray")


@st.composite
def tampered_outcomes(draw):
    """A mixed LP, with integral entries sometimes given as ints (as the LP
    builders write them), and its solver outcome, either as solved or with
    one vector entry changed, sign-flipped, cut or padded, one vector set to
    None, or the status swapped."""
    problem = draw(mixed_problems())
    if draw(st.booleans()):
        def plain(v):
            return v.numerator if v.denominator == 1 else v
        problem = LpProblem(c=[plain(v) for v in problem.c],
                            a_rows=[[plain(v) for v in r] for r in problem.a_rows],
                            b=[plain(v) for v in problem.b])
    fields = {k: getattr(lp_solve(problem), k) for k in ("status", *_VECTORS)}
    how = draw(st.sampled_from(("none", "entry", "sign", "length", "status", "untouched")))
    present = [k for k in _VECTORS if fields[k] is not None]
    if how == "status":
        fields["status"] = draw(st.sampled_from((OPTIMAL, INFEASIBLE, UNBOUNDED, "Bogus")))
    elif how == "none":
        fields[draw(st.sampled_from(present))] = None
    elif how != "untouched":
        key = draw(st.sampled_from(present))
        vec = list(fields[key])
        q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        if how == "length" or not vec:
            vec = vec[:-1] if vec and draw(st.booleans()) else vec + [draw(q)]
        else:
            j = draw(st.integers(0, len(vec) - 1))
            vec[j] = draw(q) if how == "entry" else -vec[j]
        fields[key] = vec
    return problem, LpOutcome(**fields)


@settings(max_examples=300)
@given(tampered_outcomes())
@example((_lp([[1, 1], [1, 1]], [1, 2], [0, 0]), LpOutcome(INFEASIBLE, farkas=[0, 0])))  # y.b = 0
@example((_lp([[1, -1]], [1], [-1, 0]), LpOutcome(UNBOUNDED, primal=[1, 0], ray=[0, 0])))  # c.d = 0
@example((_lp([["1/2", "1/3"]], ["1/6"], [1, 1]),
          LpOutcome(OPTIMAL, primal=[F(1, 3), 0], dual=[2])))                # row lcm 6
def test_verify_matches_fraction_reference(case):
    problem, outcome = case
    assert verify_certificate(problem, outcome) == _reference_verify_certificate(problem, outcome)


def test_drive_out_on_negative_pivot(monkeypatch):
    """After phase 1 the artificial of row 1 is basic at zero and its row's
    only entry is -2, so driving it out pivots on a negative entry and the
    stored block is negated to keep the common denominator positive."""
    pivots = []
    real_pivot = exactmath._pivot

    def spy(block, den, r, column, stale):
        pivots.append(column[r])
        return real_pivot(block, den, r, column, stale)

    monkeypatch.setattr(exactmath, "_pivot", spy)
    problem = _lp([[-1, 0, -1], [0, -2, 0]], [-2, 0], [2, -1, -2])
    out = lp_solve(problem)
    assert any(p < 0 for p in pivots)
    assert out.status == OPTIMAL
    assert out.primal == [F(0), F(0), F(2)]
    assert out.dual == [F(2), F(1, 2)]
    assert out.objective == F(-4)
    assert _fields(out) == _fields(_reference_lp_solve(problem))
    assert verify_certificate(problem, out)


def test_beale_cycling_lp_solves(monkeypatch):
    """Beale's (1955) LP, with x1, x2, x3 the slacks of its three rows.  The
    cyclic scan alone cycles on it in phase 2; after STALL degenerate
    pivots Bland's rule ends the cycle.  A solve that pivots more than 1000
    times raises instead of hanging."""
    problem = _lp([[1, 0, 0, "1/4", -8, -1, 9],
                   [0, 1, 0, "1/2", -12, "-1/2", 3],
                   [0, 0, 1, 0, 0, 1, 0]], [0, 0, 1], [0, 0, 0, "-3/4", 20, "-1/2", 6])

    class Cycled(Exception):
        pass

    pivots = 0
    real_pivot = exactmath._pivot

    def capped(block, den, r, column, stale):
        nonlocal pivots
        pivots += 1
        if pivots > 1000:
            raise Cycled
        return real_pivot(block, den, r, column, stale)

    monkeypatch.setattr(exactmath, "_pivot", capped)
    for stall in (exactmath.STALL, 1, 0):
        pivots = 0
        with mock.patch.object(exactmath, "STALL", stall):
            out = lp_solve(problem)
        assert out.status == OPTIMAL and out.objective == F(-5, 4)
        assert verify_certificate(problem, out)
        if stall:
            assert out.stats.phase2_pivots > stall
    pivots = 0
    monkeypatch.setattr(exactmath, "STALL", 10 ** 9)
    with pytest.raises(Cycled):
        lp_solve(problem)


def test_bland_stretch_is_entered_and_left(monkeypatch):
    """With STALL = 2, two degenerate pivots in a row switch pricing to
    Bland's rule, and the next nondegenerate pivot switches it back to the
    cyclic scan.

    The LP writes the encoding with columns (1/3, 2/3) at three hypotheses
    as a mixture of the 8 deterministic encodings.  Its A is 0/1 and c is 0,
    so lp_solve neither flips nor rescales a row, every priced pivot is in
    phase 1, and the spy can price phase 1 itself: structural column j costs
    den * (-sum_i A_ij) + crow . A_j, and artificial k costs crow[k]."""
    assignments = list(itertools.product(range(2), repeat=3))
    a_rows = [[int(a[c] == i) for a in assignments] for i in range(2) for c in range(3)]
    a_rows.append([1] * len(assignments))
    problem = _lp(a_rows, ["1/3"] * 3 + ["2/3"] * 3 + [1], [0] * len(assignments))
    cols = [[(i, row[j]) for i, row in enumerate(a_rows) if row[j]] for j in range(8)]
    pivots = []  # (in a Bland stretch, entered Bland's column, degenerate)
    degenerate_run = 0
    real_pivot = exactmath._pivot

    def spy(block, den, r, column, stale):
        nonlocal degenerate_run
        current = _settled(block, den, stale)
        crow = current[-1]
        if column[-1] < 0:  # a priced pivot, not an artificial driven out
            reds = [den * -len(col) + sum(crow[k] for k, _ in col) for col in cols] + crow[:-1]
            j = next(j for j, red in enumerate(reds) if red < 0)
            bland = (exactmath._column(current, cols[j]) + [reds[j]] if j < len(cols)
                     else [row[j - len(cols)] for row in current])
            degenerate = current[r][-1] == 0
            pivots.append((degenerate_run >= 2, column == bland, degenerate))
            degenerate_run = degenerate_run + 1 if degenerate else 0
        return real_pivot(block, den, r, column, stale)

    monkeypatch.setattr(exactmath, "STALL", 2)
    monkeypatch.setattr(exactmath, "_pivot", spy)
    out = lp_solve(problem)
    assert out.status == OPTIMAL and verify_certificate(problem, out)
    assert all(is_bland for stretch, is_bland, _ in pivots if stretch)
    # the cyclic scan enters a column Bland's rule would not
    assert any(not is_bland for stretch, is_bland, _ in pivots if not stretch)
    # a nondegenerate pivot inside a stretch, followed by a cyclic pivot
    assert any(a[0] and not a[2] and not b[0] for a, b in zip(pivots, pivots[1:]))


def test_conversion_lp_entries_stay_small(monkeypatch):
    """Rows are cleared by the denominators of A alone, so the large
    denominators of y = t.x stay out of the pivots: on this 56 x 144
    check-order LP (the full LP's 60 rows less row (c, 11) of each of the 4
    hypotheses) every stored block entry, rows left alone by a pivot as
    stored, stays within 256 bits, and peaks at 162, as it did when every
    pivot rewrote every row (on the full LP, clearing each row by the lcm
    over [A_i | b_i] reached 1648).  Cyclic pricing takes 106 pivots here, 129 on the full
    LP; Bland's rule from column 0 takes 489."""
    peak = []
    real_pivot = exactmath._pivot

    def spy(block, den, r, column, stale):
        den = real_pivot(block, den, r, column, stale)
        peak.append(max(abs(v).bit_length() for row in block for v in row))
        return den

    monkeypatch.setattr(exactmath, "_pivot", spy)
    x, y = spread_pair(4, 12, 12, seed=0)
    problem = majorize._conversion_problem(x, y.matrix)
    out = lp_solve(problem)
    assert out.status == OPTIMAL
    assert out.stats == LpStats(56, 144, 106, 0, 621)
    assert len(peak) == 106 and max(peak) <= 256
    t = [out.primal[i * 12:(i + 1) * 12] for i in range(12)]
    assert all(sum(col) == 1 for col in zip(*t))
    assert [[sum((t[i][j] * x.matrix[j][c] for j in range(12)), F0) for c in range(4)]
            for i in range(12)] == [list(row) for row in y.matrix]
    assert verify_certificate(problem, out)


def test_problem_extract_names():
    # columns: cats, then free dogs as the pair dogs+, dogs-
    problem = _lp([[1, 1, -1], [0, 1, -1]], [1, -2], [1, 0, 0])
    out = lp_solve(problem)
    assert out.status == OPTIMAL and len(out.primal) == 3
    cats, dogs = out.primal[0], out.primal[1] - out.primal[2]
    assert dogs == F(-2) and cats == F(3)
