import itertools
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from rthy import (
    ChannelEncoding,
    DimensionMismatch,
    Encoding,
    EnumerationTooLarge,
    FormatError,
    FunctionAction,
    HypothesisMismatch,
    INFEASIBLE,
    LengthMismatch,
    LpOutcome,
    LpProblem,
    OPTIMAL,
    PermutationAction,
    RthyError,
    StochasticMap,
    ZeroReference,
    channel_equivalent,
    channel_yield,
    comb_simulates,
    lorenz,
    lp_solve,
    majorizes,
    markotope_contains,
    relative_majorizes,
    verify_certificate,
    weight,
    weight_fmk,
    zonotope,
    zonotope_certificate,
    zonotope_includes,
)
from rthy.instances import (
    binary_image_of_x,
    channel_x,
    incomparable_x,
    incomparable_y,
    two_point_encoding,
)
from rthy.exactmath import _scaled
from rthy.majorize import (
    _checked_refutation,
    _checked_witness,
    _cofactor_normal,
    _conversion_problem,
    _left_curtain,
    _merged_rows,
    _normal_farkas,
    _pairwise_normal,
    is_distribution,
)

from conftest import (
    column_normalized,
    det_postprocessings,
    deterministic_encodings,
    distributions,
    rank,
    encodings,
    full_conversion_problem,
    identity_map,
    left_curtain_reference,
    spread_pair,
    stochastic_maps,
)

H = Fraction(1, 2)


def test_encoding_json_roundtrip():
    x = incomparable_x()
    assert Encoding.from_json(x.to_json()) == x
    assert x.to_json()["columns"][0] == ["1/2", "1/2", "0", "0"]


def test_encoding_json_rejects():
    with pytest.raises(FormatError):
        Encoding.from_json({"hypotheses": 2, "columns": [["1"], ["1"]]})
    with pytest.raises(FormatError):
        Encoding.from_json(
            {"hypotheses": 2, "outcomes": 2, "columns": [["1", "0"]]})
    with pytest.raises(FormatError):
        Encoding.from_columns([["1", "0"], ["1"]])


def test_stochastic_map_json_rejects():
    good = {"from": 2, "to": 2, "columns": [["1", "0"], ["0", "1"]]}
    assert StochasticMap.from_json(good) == identity_map(2)
    for bad in ({**good, "columns": 5}, {**good, "columns": [5, 6]},
                {**good, "columns": ["10", "01"]}, {**good, "from": 2.5},
                {**good, "to": True}, {**good, "from": "2"}, {"from": 2, "to": 2}):
        with pytest.raises(FormatError):
            StochasticMap.from_json(bad)


def test_stochastic_map_json_roundtrip():
    t = StochasticMap.from_rows([[H, 1], [H, 0]])
    assert StochasticMap.from_json(t.to_json()) == t
    assert t.to_json() == {"from": 2, "to": 2, "columns": [["1/2", "1/2"], ["1", "0"]]}


def test_encoding_is_the_stochastic_map_from_hypotheses_to_outcomes():
    assert issubclass(Encoding, StochasticMap)
    x = incomparable_x()
    assert (x.n_from, x.n_to) == (x.hypotheses, x.outcomes) == (3, 4)
    assert x.column(1) == tuple(row[1] for row in x.matrix)
    # a map and an encoding with the same matrix are different objects
    t = StochasticMap.from_rows(x.matrix)
    assert t != x and t.to_json()["columns"] == x.to_json()["columns"]


def test_map_with_no_inputs_keeps_its_outputs():
    # read column-major, an empty column list would lose the "to" size
    doc = {"from": 0, "to": 2, "columns": []}
    t = StochasticMap.from_json(doc)
    assert (t.n_from, t.n_to) == (0, 2)
    assert t.to_json() == doc


def test_inputs_with_no_outputs_are_rejected():
    # an empty column has no mass, so it is no distribution
    cases = [
        (lambda: StochasticMap.from_json({"from": 2, "to": 0, "columns": [[], []]}),
         "stochastic map column 0 does not sum to 1"),
        (lambda: StochasticMap.from_columns([[], []]), "stochastic map column 0 does not sum to 1"),
        (lambda: Encoding.from_json({"hypotheses": 2, "outcomes": 0, "columns": [[], []]}),
         "encoding column 0 does not sum to 1"),
    ]
    for build, message in cases:
        with pytest.raises(FormatError) as err:
            build()
        assert str(err.value) == message


def test_stochastic_errors_name_their_class():
    cases = [
        (lambda: Encoding.from_columns([[H, H / 2]]), "encoding column 0 does not sum to 1"),
        (lambda: StochasticMap.from_rows([[-1, 0], [2, 1]]),
         "stochastic map has a negative entry at (0,0)"),
        # the first negative entry in row order, and negatives before sums
        (lambda: Encoding.from_rows([[1, -1], [-1, 2], [1, 0]]),
         "encoding has a negative entry at (0,1)"),
        (lambda: Encoding.from_columns([[H, H / 2], [2, -1]]),
         "encoding has a negative entry at (1,1)"),
        (lambda: Encoding.from_json({"hypotheses": 1, "outcomes": 2, "columns": [["1"]]}),
         "encoding 'columns' shape disagrees with declared sizes"),
        (lambda: StochasticMap.from_json({"from": 1, "to": True, "columns": [["1"]]}),
         "stochastic map 'to' must be a JSON integer, got True"),
        # read into integers: the same checks and messages
        (lambda: Encoding.from_json({"hypotheses": 2, "outcomes": 2,
                                     "columns": [["1/2", "1/2"], ["3/2", "-1/2"]]}),
         "encoding has a negative entry at (1,1)"),
        (lambda: Encoding.from_json({"hypotheses": 1, "outcomes": 2, "columns": [["1/2", "1/4"]]}),
         "encoding column 0 does not sum to 1"),
        (lambda: StochasticMap([[-2, 4], [6, 0]], 4),
         "stochastic map has a negative entry at (0,0)"),
        (lambda: Encoding([[0, 0], [0, 0]], 0), "encoding denominator must be positive"),
    ]
    for build, message in cases:
        with pytest.raises(FormatError) as err:
            build()
        assert str(err.value) == message


def _reference_stochastic_error(rows, what):
    """The rule that the integer check replaced, on the ``Fraction`` rows:
    None when every column is a distribution (``is_distribution``), else
    the message of the first negative entry in row order, or else of the
    first column whose sum is not 1."""
    cols = list(zip(*rows))
    if all(map(is_distribution, cols)):
        return None
    neg = [(i, j) for j, col in enumerate(cols) for i, v in enumerate(col) if v < 0]
    if neg:
        i, j = min(neg)
        return f"{what} has a negative entry at ({i},{j})"
    j = next(j for j, col in enumerate(cols) if sum(col, Fraction(0)) != 1)
    return f"{what} column {j} does not sum to 1"


@st.composite
def perturbed_rows(draw):
    """Rows of a column-stochastic map with 0-4 inputs (none: m empty rows)
    and 1-4 outputs, maybe with a zero row, and with up to two entries
    moved by +-1/q or negated."""
    n_from, n_to = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    cols = [draw(distributions(n_to)) for _ in range(n_from)]
    rows = [[col[i] for col in cols] for i in range(n_to)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, n_to)), [Fraction(0)] * n_from)
    for _ in range(draw(st.integers(0, 2)) if n_from else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n_from - 1))
        q = draw(st.sampled_from([1, 2, 3, 7, 24, 1000]))
        rows[i][j] = draw(st.sampled_from([rows[i][j] + Fraction(1, q), rows[i][j] - Fraction(1, q),
                                           -rows[i][j], -Fraction(1, q)]))
    return rows


@given(perturbed_rows())
def test_stochastic_check_matches_fraction_reference(rows):
    for cls in (StochasticMap, Encoding):
        if cls is Encoding and not rows[0]:
            continue  # an encoding needs a hypothesis
        expected = _reference_stochastic_error(rows, cls.label)
        try:
            cls.from_rows(rows)
        except FormatError as err:
            assert str(err) == expected
        else:
            assert expected is None


@given(perturbed_rows())
def test_integer_form_matches_fraction_reference(rows):
    """The one stored form: rows times den, the lcm of the entries'
    denominators, over which ``matrix`` reads each integer back as its
    entry; equality and hashing read the reduced pair."""
    if _reference_stochastic_error(rows, "") is not None:
        return
    t = StochasticMap.from_rows(rows)
    assert t.den == math.lcm(*(Fraction(v).denominator for row in rows for v in row))
    assert len(t.ints) == t.n_to and all(len(row) == t.n_from for row in t.ints)
    assert "matrix" not in vars(t)  # built on first read, then kept
    assert t.matrix == tuple(tuple(map(Fraction, row)) for row in rows) and t.matrix is t.matrix
    assert all(t.matrix[i][j] == Fraction(t.ints[i][j], t.den)
               for i in range(t.n_to) for j in range(t.n_from))
    # (ints, den) is reduced, so any multiple of it is the same map
    scaled = StochasticMap([[3 * v for v in row] for row in t.ints], 3 * t.den)
    assert t == scaled and hash(t) == hash(scaled) and scaled.ints == t.ints
    pinned = StochasticMap([[2, 4], [6, 4]], 8)
    rational = StochasticMap.from_rows([[Fraction(1, 4), Fraction(1, 2)],
                                        [Fraction(3, 4), Fraction(1, 2)]])
    assert pinned == rational and hash(pinned) == hash(rational)
    assert (pinned.ints, pinned.den) == (((1, 2), (3, 2)), 4)
    assert all(pinned.matrix[i][j] == Fraction(pinned.ints[i][j], pinned.den)
               for i in range(2) for j in range(2))


@given(encodings(), st.data())
def test_map_application_matches_fraction_reference(x, data):
    """t(x) is the row-by-column product: entry (i, c) is the Fraction sum
    over j of t[i][j] x[j][c]."""
    t = data.draw(stochastic_maps(x.outcomes))
    expected = [[sum((t.matrix[i][j] * x.matrix[j][c] for j in range(x.outcomes)), Fraction(0))
                 for c in range(x.hypotheses)] for i in range(t.n_to)]
    y = t(x)
    assert type(y) is Encoding and [list(row) for row in y.matrix] == expected
    assert all(type(v) is Fraction for row in y.matrix for v in row)


def _int_where_integral(rows):
    return [[int(v) if v.denominator == 1 else v for v in row] for row in rows]


@st.composite
def int_entry_dichotomies(draw):
    """Rows of a two-hypothesis x and of a post-processing y of it, each
    integral entry given as an int; half the time x and the map are 0/1."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        x = draw(st.sampled_from(deterministic_encodings(n, 2)))
        t = draw(st.sampled_from(det_postprocessings(n, draw(st.integers(1, 3)))))
    else:
        x = draw(encodings(max_hypotheses=2))
        t = draw(stochastic_maps(x.outcomes))
    return _int_where_integral(x.matrix), _int_where_integral(t(x).matrix)


@given(int_entry_dichotomies())
def test_int_entries_are_held_as_fractions_reference(rows):
    """Entries given as ints are held as equal Fractions, with the integer
    form the checks read; the left-curtain coupling, swept on that form,
    gives integer rows whose map (of Fraction rows) takes x to y."""
    x_rows, y_rows = rows
    x, y = Encoding.from_rows(x_rows), Encoding.from_rows(y_rows)
    for e, given_rows in ((x, x_rows), (y, y_rows)):
        assert e.matrix == tuple(map(tuple, given_rows))
        assert all(type(v) is Fraction for row in e.matrix for v in row)
        assert e.ints == tuple(tuple(v * e.den for v in row) for row in e.matrix)
    coupling = _left_curtain(x, y)
    assert coupling is not None
    t_rows, den = coupling
    assert all(type(v) is int for row in t_rows for v in row)
    t = StochasticMap(t_rows, den)
    assert all(type(v) is Fraction for row in t.matrix for v in row)
    # den reduced to the lcm of the reduced denominators
    assert t.den == math.lcm(*(v.denominator for row in t.matrix for v in row))
    assert t.ints == tuple(tuple(v * t.den for v in row) for row in t.matrix)
    assert t(x) == y


@st.composite
def dichotomy_pairs(draw):
    """(x, y) with two hypotheses: x's rows at times hold a zero row and two
    rows of one type, and its columns are normalized by their sums, which
    are often coprime; y is a post-processing of x (its map may have zero
    rows) or a random encoding, which may have a zero row too."""
    def rows_of(n, top):
        rows = [list(draw(st.tuples(st.integers(0, top), st.integers(0, top))))
                for _ in range(n)]
        if draw(st.booleans()):
            rows.append([2 * v for v in draw(st.sampled_from(rows))])  # a tied type
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [0, 0])
        for c in range(2):
            if not any(r[c] for r in rows):
                rows[0][c] = 1
        return column_normalized(rows)

    x = rows_of(draw(st.integers(1, 5)), 7)
    if draw(st.booleans()):
        return x, draw(stochastic_maps(x.outcomes))(x)
    return x, rows_of(draw(st.integers(1, 4)), 5)


def _curtain_rows(x, y):
    coupling = _left_curtain(x, y)
    if coupling is None:
        return None
    rows, den = coupling
    return [[Fraction(v, den) for v in row] for row in rows]


@given(dichotomy_pairs())
@example((Encoding.from_columns([[0, Fraction(1, 5), Fraction(4, 5)],
                                 [0, Fraction(2, 7), Fraction(5, 7)]]),
          Encoding.from_columns([[Fraction(2, 5), Fraction(3, 5)],
                                 [Fraction(3, 7), Fraction(4, 7)]])))
def test_left_curtain_matches_fraction_reference(pair):
    """The integer sweep gives the rows of the sweep in Fractions, or None
    when it does: on y = t(x), on a random y and on x itself.  The example,
    over 5 and 7, takes a break point that is not a multiple of the first
    common scale, so the scale is refined."""
    x, y = pair
    for target in (y, x):
        assert _curtain_rows(x, target) == left_curtain_reference(x, target)


def test_ragged_rows_raise_format_error_reference():
    """Rows of unequal length are refused with a FormatError naming the
    class, as ``BoolStochasticMap`` refuses them, before any other check."""
    cases = [(lambda: StochasticMap.from_rows([[1, 0], [0]]), "stochastic map"),
             (lambda: Encoding.from_rows([[H, -1], [H], [0, 2]]), "encoding"),
             (lambda: Encoding.from_rows([[], [1]]), "encoding"),
             (lambda: ChannelEncoding.from_rows([[1, 0, 1], [0, 1]], 2), "channel"),
             (lambda: Encoding([[1, 0], [0]], 1), "encoding")]
    for build, label in cases:
        with pytest.raises(FormatError) as err:
            build()
        assert str(err.value) == f"{label} rows have unequal lengths"


@st.composite
def witness_cases(draw):
    """(x, y, rows): y a post-processing of x (maybe with a zero row, whose
    column of t is free), and the rows of majorizes's witness."""
    h = draw(st.integers(2, 4))
    x = draw(encodings(max_hypotheses=h, min_hypotheses=h))
    if draw(st.booleans()):
        x = Encoding.from_rows(x.matrix + ((Fraction(0),) * h,))
    y = draw(stochastic_maps(x.outcomes))(x)
    return x, y, [list(row) for row in majorizes(x, y).witness.matrix]


def _accepts_witness(x, y, rows):
    ints, den = _scaled([v for row in rows for v in row])
    width = len(rows[0])
    try:
        res = _checked_witness(x, y, [ints[i:i + width] for i in range(0, len(ints), width)], den)
    except RuntimeError:
        return False
    assert res.witness.matrix == tuple(map(tuple, rows))
    return True


@given(witness_cases(), st.sampled_from([Fraction(1, 1000), Fraction(1, 4), Fraction(1)]))
def test_checked_witness_matches_fraction_reference(case, delta):
    """The integer check T.X.d_y = Y.d_t.d_x accepts rows exactly when the
    Fraction product of their map takes x to y: the solver's own rows, each
    entry moved by +-delta, delta moved between two entries of a column,
    and the rows with one more output (a zero row) or one more input."""
    x, y, rows = case
    variants = [rows, rows + [[Fraction(0)] * len(rows[0])],
                [r + [Fraction(i == 0)] for i, r in enumerate(rows)]]
    for i, j in itertools.product(range(len(rows)), range(len(rows[0]))):
        for d in (delta, -delta):
            moved = [list(r) for r in rows]
            moved[i][j] += d
            variants.append(moved)
        for k in range(len(rows)):
            if k != i:
                moved = [list(r) for r in rows]
                moved[i][j] -= delta
                moved[k][j] += delta
                variants.append(moved)
    accepted = 0
    for v in variants:
        try:
            expected = StochasticMap.from_rows(v)(x) == y
        except (FormatError, DimensionMismatch):
            expected = False
        assert _accepts_witness(x, y, v) == expected, v
        accepted += expected
    assert accepted >= 1


@given(encodings(), st.data())
def test_postprocessed_encoding_is_reachable(x, data):
    t = data.draw(stochastic_maps(x.outcomes))
    res = majorizes(x, t(x))
    assert res.convertible
    assert res.witness(x) == t(x)  # the found map need not equal t


@given(encodings())
def test_self_majorization(x):
    res = majorizes(x, x)
    assert res.convertible
    assert res.witness(x) == x


def test_bundled_pair_incomparable_with_certificates():
    x, y = incomparable_x(), incomparable_y()
    for a, b in ((x, y), (y, x)):
        res = majorizes(a, b)
        assert not res.convertible
        replay = LpOutcome(status=INFEASIBLE, farkas=list(res.farkas))
        assert verify_certificate(full_conversion_problem(a, b.matrix), replay)


def _raises_solver_fault(decisions):
    for decide in decisions:
        with pytest.raises(RuntimeError) as err:
            decide()
        assert not isinstance(err.value, RthyError)


EIGHTH = two_point_encoding(Fraction(1, 8), H)
QUARTER = two_point_encoding(Fraction(1, 4), Fraction(3, 4))  # neither converts to the other


def _two_input_channel(*states):
    """The channel whose input a gives the two-hypothesis encoding states[a]."""
    return ChannelEncoding.from_columns(
        [s.column(c) for c in range(2) for s in states], len(states))


def test_witness_is_replayed_before_it_is_reported(monkeypatch):
    def collapsing_solver(problem, start=None):
        # stochastic, but sends every outcome to outcome 0: t[0][j] is column j,
        # and the last row (input n_from - 1) has its first 1 in column n_from - 1
        n_from = problem.a_rows[-1].index(1) + 1
        return LpOutcome(status=OPTIMAL, primal=[
            Fraction(k < n_from) for k in range(problem.ncols)])

    def collapsing_coupling(x, y):
        return [[int(i == 0)] * x.outcomes for i in range(y.outcomes)], 1

    monkeypatch.setattr("rthy.majorize.lp_solve", collapsing_solver)
    x = incomparable_x()
    _raises_solver_fault((lambda: majorizes(x, x),
                          lambda: comb_simulates(x, channel_x()),
                          lambda: markotope_contains(x, binary_image_of_x(), 2)))
    # with two hypotheses the witness comes from the coupling, not the LP
    monkeypatch.setattr("rthy.majorize._left_curtain", collapsing_coupling)
    _raises_solver_fault((lambda: majorizes(EIGHTH, EIGHTH),
                          lambda: comb_simulates(EIGHTH, _two_input_channel(EIGHTH, EIGHTH)),
                          lambda: markotope_contains(EIGHTH, EIGHTH, 2),
                          lambda: relative_majorizes([1, 0], [H, H], [H, H], [H, H])))


def test_farkas_vector_is_verified_before_it_is_reported(monkeypatch):
    def vacuous_solver(problem, start=None):
        # claims infeasibility with the zero vector, which refutes nothing
        return LpOutcome(status=INFEASIBLE, farkas=[0] * problem.nrows)

    x, y = incomparable_x(), incomparable_y()
    monkeypatch.setattr("rthy.majorize.lp_solve", vacuous_solver)
    lp_decisions = (lambda: majorizes(x, y),
                    lambda: markotope_contains(x, binary_image_of_x(), 2),
                    lambda: comb_simulates(x, channel_x()),
                    lambda: channel_equivalent(channel_x(), x),
                    lambda: channel_yield(channel_x(), weight))
    _raises_solver_fault(lp_decisions)
    # f_{m,k} is +inf only on a checked Farkas vector
    monkeypatch.setattr("rthy.measures.lp_solve", vacuous_solver)
    _raises_solver_fault((lambda: weight_fmk(x, 1, 2),))
    # a normal on a pair of hypotheses refutes before any LP: w = (1, ..., 1)
    # separates nothing (w.g is g's row sum, so both supports are h), and
    # None is a scan that found none, which sends h >= 3 to the vacuous LP
    # and leaves h = 2 with no vector
    mixed = _two_input_channel(EIGHTH, QUARTER)
    for normal in (lambda x, y, sides=None: (1,) * x.hypotheses,
                   lambda x, y, sides=None: None):
        monkeypatch.setattr("rthy.majorize._pairwise_normal", normal)
        _raises_solver_fault(lp_decisions + (
            lambda: majorizes(EIGHTH, QUARTER),
            lambda: markotope_contains(EIGHTH, QUARTER, 2),
            lambda: comb_simulates(EIGHTH, mixed),
            lambda: channel_equivalent(mixed, EIGHTH),
            lambda: channel_yield(mixed, weight),
            lambda: relative_majorizes([H, H], [H, H], [1, 0], [H, H])))
    # the zonotope test checks both of its searches' normals: at h = 2 the
    # pair scan's, and at h = 3 _separating_normal's, on y3 -> x3, which no
    # pair of hypotheses separates; an all-ones normal certifies nothing
    monkeypatch.setattr("rthy.majorize._pairwise_normal", lambda x, y, sides=None: (1, 1))
    _raises_solver_fault((lambda: zonotope_certificate(EIGHTH, QUARTER),))
    monkeypatch.setattr("rthy.majorize._pairwise_normal", _pairwise_normal)
    monkeypatch.setattr("rthy.majorize._separating_normal", lambda x, y: (1, 1, 1))
    _raises_solver_fault((lambda: zonotope_certificate(y, x),))


def _refutes(x, y, farkas):
    try:
        res = _checked_refutation(x, y, farkas)
    except RuntimeError:
        return False
    assert res.farkas == tuple(farkas)
    return True


@given(st.integers(2, 4).flatmap(
    lambda h: st.tuples(*[encodings(max_hypotheses=h, min_hypotheses=h)] * 2)), st.data())
def test_refutation_check_matches_lp_reference(pair, data):
    """The check on x and y accepts a vector exactly when verify_certificate
    accepts it as a Farkas vector of the conversion LP: the solver's vectors
    (majorizes's and the LP's; the zero vector when x converts to y), each
    of them with one entry shifted by +-delta, truncated or extended, and
    None."""
    x, y = pair
    problem = full_conversion_problem(x, y.matrix)
    res = majorizes(x, y)
    bases = [[Fraction(0)] * problem.nrows] if res.convertible else [
        list(res.farkas), list(lp_solve(problem).farkas)]
    delta = data.draw(st.sampled_from([Fraction(1, 1000), Fraction(1, 4), Fraction(1), Fraction(3)]))
    vectors = [None]
    for f in bases:
        vectors += [f, f[:-1], f + [Fraction(0)]]
        for k in range(len(f)):
            vectors += [f[:k] + [f[k] + d] + f[k + 1:] for d in (delta, -delta)]
    for f in vectors:
        replay = LpOutcome(status=INFEASIBLE, farkas=f)
        assert _refutes(x, y, f) == verify_certificate(problem, replay), f
    assert _refutes(x, y, bases[0]) == (not res.convertible)


@given(st.integers(1, 4).flatmap(
    lambda h: encodings(max_hypotheses=h, min_hypotheses=h)), st.data())
def test_reduced_conversion_lp_matches_full_reference(x, data):
    """``_conversion_problem`` leaves out row (c, n_y - 1) of each hypothesis
    c, and keeps the feasible set of the full-row reference LP: both LPs
    reach the same status, as does ``majorizes``; its witness maps x to y,
    and its Farkas vector refutes the full LP.  That vector is
    ``_normal_farkas`` of the normal on a pair of hypotheses that
    ``_pairwise_normal`` finds, which it always finds with two hypotheses;
    when it finds none, the vector comes from the reduced LP and has 0 at
    each left-out row.  y is t(x) or a random encoding, with 1 to 4
    outcomes either way."""
    h = x.hypotheses
    if data.draw(st.booleans()):
        y = data.draw(stochastic_maps(x.outcomes))(x)
    else:
        n_y = data.draw(st.integers(1, 4))
        y = Encoding.from_columns([data.draw(distributions(n_y)) for _ in range(h)])
    full, reduced = full_conversion_problem(x, y.matrix), _conversion_problem(x, y.matrix)
    assert (reduced.nrows, reduced.ncols) == (full.nrows - h, full.ncols)
    status = lp_solve(full).status
    assert lp_solve(reduced).status == status
    res = majorizes(x, y)
    assert res.convertible == (status == OPTIMAL)
    if res.convertible:
        assert res.witness(x) == y
        return
    n_y, w = y.outcomes, _pairwise_normal(x, y)
    if w is None:
        assert h != 2
        assert all(res.farkas[c * n_y + n_y - 1] == 0 for c in range(h))
    else:
        assert res.farkas == tuple(_normal_farkas(x, y, w))
    assert verify_certificate(full, LpOutcome(status=INFEASIBLE, farkas=res.farkas))


@given(st.integers(3, 4).flatmap(
    lambda h: encodings(max_hypotheses=h, min_hypotheses=h)), st.data())
def test_pairwise_normal_refutes_full_lp_reference(x, data):
    """With three or four hypotheses, whenever ``_pairwise_normal`` finds a
    normal w, ``_normal_farkas`` of w is a Farkas vector of the full-row
    reference LP, and that LP's own solve is infeasible; for y = t(x) it
    finds none.  Otherwise y is a random encoding with 1 to 4 outcomes."""
    if data.draw(st.booleans()):
        assert _pairwise_normal(x, data.draw(stochastic_maps(x.outcomes))(x)) is None
        return
    n_y = data.draw(st.integers(1, 4))
    y = Encoding.from_columns([data.draw(distributions(n_y)) for _ in range(x.hypotheses)])
    w = _pairwise_normal(x, y)
    if w is not None:
        problem = full_conversion_problem(x, y.matrix)
        replay = LpOutcome(status=INFEASIBLE, farkas=_normal_farkas(x, y, w))
        assert verify_certificate(problem, replay)
        assert lp_solve(problem).status == INFEASIBLE


def _reference_pairwise_normal(x, y):
    """The pair scan with x's side recomputed per target: x's rows times y's
    denominator and y's times x's, both supports summed per row of x."""
    dx, dy = x.den, y.den
    for c, d in itertools.combinations(range(x.hypotheses), 2):
        gx = [(r[c] * dy, r[d] * dy) for r in x.ints if r[c] or r[d]]
        gy = [(r[c] * dx, r[d] * dx) for r in y.ints if r[c] or r[d]]
        for a, b in dict.fromkeys(gx):
            excess = (sum(max(0, b * p - a * q) for p, q in gy)
                      - sum(max(0, b * p - a * q) for p, q in gx))
            if excess > 0:
                w = [0] * x.hypotheses
                w[c], w[d] = b, -a
                g = math.gcd(*w)
                return tuple(v // g for v in w)
    return None


@given(st.integers(2, 4).flatmap(
    lambda h: encodings(max_hypotheses=h, min_hypotheses=h)), st.data())
def test_shared_pair_sides_match_reference(x, data):
    """One ``sides`` list passed along a run of targets of x, as
    ``conversions_from`` does, finds the normal of the reference scan that
    recomputes x's side per target, for each target in turn."""
    sides = []
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            y = data.draw(stochastic_maps(x.outcomes))(x)
        else:
            n_y = data.draw(st.integers(1, 4))
            y = Encoding.from_columns([data.draw(distributions(n_y))
                                       for _ in range(x.hypotheses)])
        assert _pairwise_normal(x, y, sides) == _reference_pairwise_normal(x, y)


def test_pairwise_normal_pinned():
    """No pair of hypotheses separates the bundled x3 and y3 either way, or
    y3 from its binary image b3: those refutations come from the LP, with 0
    at each left-out row (c, n_y - 1).  b3 -> x3 is refuted on hypotheses
    (0, 1) by w = (2, -1, 0), the normal of b3's second row (1, 2, 2)/2."""
    x, y, b = incomparable_x(), incomparable_y(), binary_image_of_x()
    for p, q in ((x, y), (y, x), (y, b)):
        assert _pairwise_normal(p, q) is None
        res, n_y = majorizes(p, q), q.outcomes
        assert not res.convertible
        assert all(res.farkas[c * n_y + n_y - 1] == 0 for c in range(3))
    assert _pairwise_normal(b, x) == (2, -1, 0)
    res = majorizes(b, x)
    assert res.farkas == tuple(_normal_farkas(b, x, (2, -1, 0)))
    replay = LpOutcome(status=INFEASIBLE, farkas=list(res.farkas))
    assert verify_certificate(full_conversion_problem(b, x.matrix), replay)


def _forbidden_lp(problem, start=None):
    raise AssertionError("majorizes solved an LP for two hypotheses")


def _forbidden_lp_build(x, target):
    raise AssertionError("majorizes built the conversion LP for two hypotheses")


def _decided_without_lp(x, y):
    """majorizes(x, y), checked: it neither builds nor solves an LP, the
    decision equals the conversion LP's, and the witness replays or the
    Farkas vector refutes that LP."""
    with mock.patch("rthy.majorize.lp_solve", _forbidden_lp), \
            mock.patch("rthy.majorize._conversion_problem", _forbidden_lp_build):
        res = majorizes(x, y)
    problem = full_conversion_problem(x, y.matrix)
    assert res.convertible == (lp_solve(problem).status == OPTIMAL)
    if res.convertible:
        assert res.witness(x) == y
    else:
        replay = LpOutcome(status=INFEASIBLE, farkas=list(res.farkas))
        assert verify_certificate(problem, replay)
    return res


@st.composite
def dichotomy_pairs(draw):
    """(x, y) with two hypotheses and 1-7 outcomes each, from rows of small
    integers (so types x_j0 / (x_j0 + x_j1) often tie), maybe with a zero row
    or a repeated one; y is x itself, a post-processing of x, or drawn alone."""
    def rows():
        out = [draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
               for _ in range(draw(st.integers(1, 5)))]
        if draw(st.booleans()):
            out.insert(draw(st.integers(0, len(out))), [0, 0])
        if draw(st.booleans()):
            out.append([draw(st.integers(1, 2)) * v for v in out[0]])
        if any(sum(r[c] for r in out) == 0 for c in range(2)):
            out[-1] = [1, 1]
        return out

    x = column_normalized(rows())
    kind = draw(st.sampled_from(("self", "post", "free")))
    if kind == "self":
        return x, x
    if kind == "post":
        return x, draw(stochastic_maps(x.outcomes, max_to=7))(x)
    return x, column_normalized(rows())


@given(dichotomy_pairs())
def test_dichotomy_matches_lp_reference(pair):
    _decided_without_lp(*pair)


def _reference_dichotomy_normal(x, y):
    """The h = 2 normal search in ``Fraction``s: the first row (a, b) of x
    whose normal w = (b, -a), as coprime integers, has
    h_{Z(y)}(w) > h_{Z(x)}(w), or None when no row gives one."""
    def support(w, e):
        return Fraction(sum(max(0, w[0] * p + w[1] * q) for p, q in e.ints), e.den)

    for a, b in x.ints:
        w = (b, -a)
        if support(w, y) > support(w, x):
            g = math.gcd(a, b)
            return b // g, -a // g
    return None


@st.composite
def uninformative_pairs(draw):
    """(x, y) with two hypotheses where x's columns are equal, so every row of
    x lies on the diagonal (maybe a zero row), and y is drawn alone."""
    rows = [[a, a] for a in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))]
    if not any(a for a, _ in rows):
        rows.append([1, 1])
    return column_normalized(rows), draw(dichotomy_pairs())[1]


@given(st.one_of(dichotomy_pairs(), uninformative_pairs()))
def test_dichotomy_farkas_matches_reference(pair):
    """With two hypotheses majorizes refutes with the Farkas vector that the
    replaced row scan built: w_c at row (c, i) when w.y_i > 0, then
    -max(0, w.x_j) at x's column-sum rows."""
    x, y = pair
    res = majorizes(x, y)
    w = _reference_dichotomy_normal(x, y)
    assert res.convertible == (w is None)
    if w is not None:
        def dot(row):
            return w[0] * row[0] + w[1] * row[1]
        farkas = ([Fraction(a) if dot(y_i) > 0 else Fraction(0) for a in w for y_i in y.matrix]
                  + [-max(Fraction(0), dot(x_j)) for x_j in x.matrix])
        assert res.farkas == tuple(farkas)


def _forbidden_facet_search(*args):
    raise AssertionError("zonotope inclusion left the pair scan for two hypotheses")


@given(st.one_of(dichotomy_pairs(), uninformative_pairs()))
def test_dichotomy_zonotope_inclusion_matches_majorizes_reference(pair):
    """With two hypotheses Z(y) is inside Z(x) exactly when x converts to y
    (Blackwell 1953), and the pair scan alone decides both: no rank, no
    facet search, and the certificate's normal is the scan's."""
    x, y = pair
    with mock.patch("rthy.majorize._separating_normal", _forbidden_facet_search), \
            mock.patch("rthy.majorize.row_echelon", _forbidden_facet_search):
        cert = zonotope_certificate(x, y)
        assert zonotope_includes(x, y) == majorizes(x, y).convertible == (cert is None)
    if cert is not None:
        assert cert.normal == _pairwise_normal(x, y)
        assert _refutation_replays(x, y, cert)


def _enc(*rows):
    return column_normalized(rows)


@pytest.mark.parametrize("x, y, convertible", [
    # ties in theta within x (rows 0 and 1) and within y (rows 1 and 2)
    (_enc((2, 1), (4, 2), (0, 3), (1, 1)), _enc((3, 2), (1, 2), (2, 4)), True),
    # y's middle row sits at theta = 1/2, an atom of x, with more mass than it
    (_enc((1, 0), (1, 1), (0, 1)), _enc((1, 0), (2, 2), (0, 1)), True),
    (_enc((1, 0), (1, 1), (0, 1)), _enc((1, 1), (1, 1)), True),
    # zero rows in x and in y
    (_enc((0, 0), (3, 1), (0, 0), (1, 3)), _enc((2, 2), (0, 0), (1, 0), (1, 4)), False),
    (_enc((0, 0), (3, 1), (0, 0), (1, 3)), _enc((0, 0), (5, 3), (3, 5)), True),
    # x with one nonzero row: only y's rows at theta = 1/2 are reachable
    (_enc((0, 0), (1, 1)), _enc((1, 1), (2, 2), (0, 0)), True),
    (_enc((0, 0), (1, 1)), _enc((1, 2), (1, 0)), False),
    # y with one outcome
    (_enc((1, 0), (0, 1)), _enc((1, 1)), True),
    (_enc((1, 3), (2, 0)), _enc((1, 1)), True),
    # y = x, with a zero row and a tie
    (_enc((1, 2), (0, 0), (2, 4), (3, 1)), _enc((1, 2), (0, 0), (2, 4), (3, 1)), True),
    # the bundled pair of mutually non-inclusive polygons
    (EIGHTH, QUARTER, False),
    (QUARTER, EIGHTH, False),
])
def test_dichotomy_edge_cases(x, y, convertible):
    assert _decided_without_lp(x, y).convertible == convertible


def test_hypothesis_count_mismatch():
    with pytest.raises(HypothesisMismatch):
        majorizes(incomparable_x(), two_point_encoding(H, H))


def test_zonotope_pinned_vertices():
    eighth = two_point_encoding(Fraction(1, 8), H)
    assert zonotope(eighth) == (
        (0, 0), (Fraction(7, 8), H), (1, 1), (Fraction(1, 8), H))
    quarter = two_point_encoding(Fraction(1, 4), Fraction(3, 4))
    assert zonotope(quarter) == (
        (0, 0), (Fraction(3, 4), Fraction(1, 4)), (1, 1),
        (Fraction(1, 4), Fraction(3, 4)))


def test_zonotope_mutual_non_inclusion():
    eighth = two_point_encoding(Fraction(1, 8), H)
    quarter = two_point_encoding(Fraction(1, 4), Fraction(3, 4))
    assert not zonotope_includes(eighth, quarter)
    assert not zonotope_includes(quarter, eighth)


def test_zonotope_includes_bundled_pair():
    assert zonotope_includes(incomparable_x(), incomparable_y())
    assert not zonotope_includes(incomparable_y(), incomparable_x())


@given(encodings(max_hypotheses=2))
def test_zonotope_centrally_symmetric(x):
    vs = zonotope(x)
    assert vs[0] == (0, 0)
    flipped = {(1 - a, 1 - b) for a, b in vs}
    assert flipped == set(vs)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_polygon(vertices, point) -> bool:
    """Is ``point`` in the convex polygon with these counter-clockwise
    vertices?  One vertex is a point, two a segment."""
    p = (Fraction(point[0]), Fraction(point[1]))
    if len(vertices) == 1:
        return p == vertices[0]
    if len(vertices) == 2:
        a, b = vertices
        return (_cross(a, b, p) == 0 and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    return all(_cross(v, w, p) >= 0 for v, w in zip(vertices, vertices[1:] + vertices[:1]))


@given(encodings(max_outcomes=3, max_hypotheses=2))
def test_zonotope_contains_all_subset_sums(x):
    z = zonotope(x)
    rows = x.matrix
    for picks in itertools.product((0, 1), repeat=len(rows)):
        point = [sum((r[c] for r, p in zip(rows, picks) if p), Fraction(0))
                 for c in range(2)]
        assert _in_polygon(z, point)


@given(encodings(max_outcomes=4, max_hypotheses=2, min_hypotheses=2))
def test_zonotope_inclusion_matches_lp_decision(x):
    # with two hypotheses the polygon test and the conversion LP agree
    y = two_point_encoding(Fraction(1, 3), Fraction(2, 3))
    lp = lp_solve(full_conversion_problem(x, y.matrix)).status == OPTIMAL
    assert zonotope_includes(x, y) == lp


def _point_in_zonotope_lp(x, point):
    """Membership of a point in {sum_j u_j row_j(x) : u in [0,1]^n} by LP.

    Columns are ``u_0..u_{n-1}`` and then the slack of ``u_j <= 1`` for each j.
    """
    n = x.outcomes
    a_rows = [list(x.column(c)) + [0] * n for c in range(x.hypotheses)]
    a_rows += [[1 if k in (j, n + j) else 0 for k in range(2 * n)] for j in range(n)]
    b = [Fraction(v) for v in point] + [1] * n
    return lp_solve(LpProblem(c=[0] * (2 * n), a_rows=a_rows, b=b)).status == OPTIMAL


def _reference_zonotope_includes(x, y):
    """The inclusion test the support-function one replaced: with two
    hypotheses, every vertex of y's polygon inside x's; with more, every
    subset sum of y's merged rows inside Z(x), one LP each."""
    if x.hypotheses == 2:
        zx = zonotope(x)
        return all(_in_polygon(zx, v) for v in zonotope(y))
    rows = _merged_rows(y)  # integer rows over y.den
    for picks in itertools.product((0, 1), repeat=len(rows)):
        point = [Fraction(sum(r[c] for r, p in zip(rows, picks) if p), y.den)
                 for c in range(y.hypotheses)]
        if not _point_in_zonotope_lp(x, point):
            return False
    return True


def _refutation_replays(x, y, cert):
    """Check a refutation with nothing from the code under test: the support
    sums over the rows, and the LP that the vertex it names lies outside Z(x)."""
    def dot(row):
        return sum((Fraction(w) * v for w, v in zip(cert.normal, row)), Fraction(0))

    dy = [dot(row) for row in y.matrix]
    subset = tuple(i for i, d in enumerate(dy) if d > 0)
    vertex = [sum((y.matrix[i][c] for i in subset), Fraction(0)) for c in range(y.hypotheses)]
    return (len(cert.normal) == x.hypotheses
            and cert.subset == subset
            and cert.support_y == sum((dy[i] for i in subset), Fraction(0))
            and cert.support_x == sum((max(dot(row), 0) for row in x.matrix), Fraction(0))
            and cert.support_y > cert.support_x
            and not _point_in_zonotope_lp(x, vertex))


@st.composite
def zonotope_pairs(draw):
    """(x, y) with h in {2, 3, 4}: x may repeat a hypothesis column, have
    fewer outcomes than hypotheses, or carry zero and proportional rows; y
    is a post-processing of x (so included) or drawn alone (often outside
    span(x) when x is rank-deficient)."""
    h = draw(st.integers(2, 4))

    def raw_rows(max_rows):
        rows = [draw(st.lists(st.integers(0, 4), min_size=h, max_size=h))
                for _ in range(draw(st.integers(1, max_rows)))]
        if draw(st.booleans()):
            rows.append([0] * h)
        if draw(st.booleans()):
            rows.append([draw(st.integers(1, 3)) * v for v in rows[0]])
        if draw(st.booleans()):
            for r in rows:
                r[-1] = r[0]
        if any(sum(r[c] for r in rows) == 0 for c in range(h)):
            rows.append([1] * h)
        return rows

    x = column_normalized(raw_rows(5))
    if draw(st.booleans()):
        y = draw(stochastic_maps(x.outcomes))(x)
    else:
        y = column_normalized(raw_rows(3))
    return x, y


def _reference_merged_rows(x):
    """The reduction before the integer form: proportional rows keyed by the
    row divided by its first nonzero entry, summed as Fractions."""
    groups = {}
    for row in x.matrix:
        pivot = next((v for v in row if v), None)
        if pivot is not None:
            key = tuple(v / pivot for v in row)
            groups[key] = [a + b for a, b in zip(groups.get(key, [Fraction(0)] * len(row)), row)]
    return list(groups.values())


@given(zonotope_pairs())
def test_merged_rows_match_fraction_reference(pair):
    for x in pair:
        assert [[Fraction(v, x.den) for v in row] for row in _merged_rows(x)] \
            == _reference_merged_rows(x)
    # a zero row, and rows 0 and 2 proportional but not equal
    x = _enc((2, 1), (0, 0), (4, 2), (2, 5))
    assert _merged_rows(x) == [[6, 3], [2, 5]] and x.den == 8


@given(zonotope_pairs())
def test_zonotope_includes_matches_reference(pair):
    x, y = pair
    cert = zonotope_certificate(x, y)
    assert (cert is None) == _reference_zonotope_includes(x, y)
    assert zonotope_includes(x, y) == (cert is None)
    if cert is not None:
        assert _refutation_replays(x, y, cert)


@given(zonotope_pairs())
def test_zonotope_non_inclusion_refutes_conversion(pair):
    """At every h, a normal along which Z(y) reaches past Z(x) is a Farkas
    vector of x -> y (``_normal_farkas``), and the checked decision agrees."""
    x, y = pair
    cert = zonotope_certificate(x, y)
    if cert is not None:
        farkas = _normal_farkas(x, y, cert.normal)
        assert _checked_refutation(x, y, farkas).farkas == tuple(farkas)
        assert not majorizes(x, y).convertible


def test_zonotope_inclusion_reach():
    # the replaced path solves 2^12 LPs here (about 2 s on a 2-core host);
    # the facet test checks C(8, 2) = 28 normals
    x, y = spread_pair(3, 8, 12, seed=1)
    assert (len(_merged_rows(x)), len(_merged_rows(y))) == (8, 12)
    start = time.perf_counter()
    assert zonotope_includes(x, y)
    assert time.perf_counter() - start < 0.25
    assert _reference_zonotope_includes(x, y)
    # h = 7: C(9, 6) = 84 normals, each from 7 determinants of order 6,
    # which cofactor expansion took 1.8 s to form on a 2-core host
    x, y = spread_pair(7, 9, 9, seed=0)
    start = time.perf_counter()
    assert zonotope_includes(x, y)
    assert time.perf_counter() - start < 0.25


def _expansion_det(m) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** c * v * _expansion_det([r[:c] + r[c + 1:] for r in m[1:]])
               for c, v in enumerate(m[0]) if v)


@st.composite
def normal_rows(draw):
    """k integer rows of length k + 1, k in 1..5, with many zeros (so pivots
    need row swaps); at k >= 2, one row may be made dependent on the others:
    zero, a copy of another, or the sum of two others."""
    k = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=k + 1, max_size=k + 1)) for _ in range(k)]
    if k >= 2:
        order = draw(st.permutations(range(k)))
        kind = draw(st.sampled_from(("none", "zero", "copy", "sum" if k >= 3 else "copy")))
        if kind == "zero":
            rows[order[0]] = [0] * (k + 1)
        elif kind == "copy":
            rows[order[0]] = list(rows[order[1]])
        elif kind == "sum":
            rows[order[0]] = [a + b for a, b in zip(rows[order[1]], rows[order[2]])]
    return rows


@given(normal_rows())
@example([[1, 2, 3], [2, 4, 6]])
@example([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
def test_cofactor_normal_matches_expansion_reference(rows):
    """The fraction-free determinant gives each cofactor that expansion
    gives, sign included: w is orthogonal to every row, and zero exactly
    when the rows are dependent."""
    k = len(rows)
    w = _cofactor_normal(rows)
    assert w == [(-1) ** (k + c) * _expansion_det([r[:c] + r[c + 1:] for r in rows])
                 for c in range(k + 1)]
    assert all(sum(a * b for a, b in zip(w, r)) == 0 for r in rows)
    assert any(w) == (rank(rows) == k)


def test_zonotope_certificate_pinned():
    assert zonotope_certificate(incomparable_x(), incomparable_y()) is None
    cert = zonotope_certificate(incomparable_y(), incomparable_x())
    assert cert.normal == (-1, 1, 1) and cert.subset == (0, 2, 3)
    assert (cert.support_y, cert.support_x) == (Fraction(3, 2), 1)
    # y outside span(x): the normal annihilates x's rows
    cert = zonotope_certificate(two_point_encoding(1, 1), Encoding.from_rows([[H, 0], [H, 1]]))
    assert cert.normal == (1, -1) and cert.subset == (0,)
    assert (cert.support_y, cert.support_x) == (H, 0)


def test_zonotope_guard_reports_count(monkeypatch):
    x, y = spread_pair(3, 8, 12, seed=1)
    monkeypatch.setenv("RTHY_ENUM_GUARD", "27")
    with pytest.raises(EnumerationTooLarge) as err:
        zonotope_includes(x, y)
    assert (err.value.count, err.value.guard) == (28, 27)
    assert str(err.value) == (
        "C(8, 2) candidate facet normals of the zonotope = 28, above the guard 27")
    monkeypatch.setenv("RTHY_ENUM_GUARD", "28")
    assert zonotope_includes(x, y)


def test_markotope_pinned():
    z = binary_image_of_x()
    assert markotope_contains(incomparable_x(), z, 2)
    assert not markotope_contains(incomparable_y(), z, 2)


def test_lorenz_pinned_curve():
    x = [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]
    r = [Fraction(1, 4)] * 4
    assert lorenz(x, r) == [
        (0, 0),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(5, 6)),
        (Fraction(3, 4), Fraction(11, 12)),
        (1, 1),
    ]


def test_lorenz_against_itself_is_diagonal():
    assert lorenz(["1"], ["1"]) == [(0, 0), (1, 1)]
    pts = lorenz([H, H], [H, H])
    assert pts == [(0, 0), (H, H), (1, 1)]


def test_lorenz_rejects():
    with pytest.raises(LengthMismatch):
        lorenz([1], [H, H])
    with pytest.raises(ZeroReference):
        lorenz([H, H], [1, 0])


@given(st.data())
def test_lorenz_concave_with_unit_endpoints(data):
    n = data.draw(st.integers(1, 5))
    weights = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)
                        .filter(lambda w: sum(w) > 0))
    refs = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    x = [Fraction(w, sum(weights)) for w in weights]
    r = [Fraction(w, sum(refs)) for w in refs]
    pts = lorenz(x, r)
    assert pts[0] == (0, 0) and pts[-1] == (1, 1)
    slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(pts, pts[1:])]
    assert all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))


def test_relative_majorization_incomparable_pair():
    x = [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]
    y = [Fraction(7, 8), Fraction(1, 8)]
    rx = [Fraction(1, 4)] * 4
    ry = [Fraction(1, 2)] * 2
    assert not relative_majorizes(x, rx, y, ry).convertible
    assert not relative_majorizes(y, ry, x, rx).convertible


def test_det_postprocessings_enumeration():
    maps = det_postprocessings(3, 2)
    assert len(maps) == 8
    assert len(set(maps)) == 8
    for t in maps:
        for j in range(3):
            col = [t.matrix[i][j] for i in range(2)]
            assert sorted(col) == [0, 1]
    # first map sends everything to outcome 0
    assert all(maps[0].matrix[0][j] == 1 for j in range(3))


def test_enumeration_guard(monkeypatch):
    monkeypatch.setenv("RTHY_ENUM_GUARD", "7")
    with pytest.raises(EnumerationTooLarge):
        det_postprocessings(3, 2)
    monkeypatch.setenv("RTHY_ENUM_GUARD", "8")
    assert len(det_postprocessings(3, 2)) == 8


def orbit_encoding(x, action) -> Encoding:
    """Encoding whose hypotheses are the symmetry-moved copies of x: column k
    is the push-forward of x along the k-th map of the action, so any
    distinguishability monotone of the result measures asymmetry of x."""
    xs = [Fraction(v) for v in x]
    if action.degree != len(xs):
        raise LengthMismatch(
            f"action permutes {action.degree} points, distribution has {len(xs)}")
    cols = []
    for mp in action.maps:
        col = [Fraction(0)] * len(xs)
        for j, v in enumerate(xs):
            col[mp[j]] += v
        cols.append(col)
    return Encoding.from_columns(cols)


CYCLE3 = PermutationAction([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
DEGREE3_ACTIONS = (
    CYCLE3,
    PermutationAction([(0, 1, 2)]),
    PermutationAction([(0, 1, 2), (1, 0, 2)]),
    FunctionAction([(0, 1, 2), (0, 0, 0)]),
)


def test_orbit_encoding_pinned():
    orbit = orbit_encoding([H, H, 0], CYCLE3)
    assert orbit == Encoding.from_columns([[H, H, 0], [0, H, H], [H, 0, H]])


@given(st.one_of(distributions(3),
                 st.sampled_from([[1, 0, 0], [Fraction(1, 3)] * 3, [H, H, 0]])),
       st.sampled_from(DEGREE3_ACTIONS))
def test_orbit_encoding_weight_vanishes_exactly_on_fixed_points(x, action):
    fixed = all(sum(x[j] for j in range(3) if mp[j] == i) == x[i]
                for mp in action.maps for i in range(3))
    assert (weight(orbit_encoding(x, action)) == 0) == fixed


def test_orbit_encoding_degree_mismatch():
    with pytest.raises(LengthMismatch):
        orbit_encoding([H, H], CYCLE3)
