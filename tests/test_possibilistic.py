import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rthy import (
    BoolEncoding,
    BoolStochasticMap,
    FormatError,
    HypothesisMismatch,
    bool_majorizes,
    ceil,
    to_hypergraph,
)
from rthy.instances import incomparable_x, incomparable_y

from conftest import ceil_map, encodings, stochastic_maps


def test_bool_encoding_validation():
    with pytest.raises(FormatError):
        BoolEncoding([[1, 2], [0, 1]])
    with pytest.raises(FormatError):
        BoolEncoding([[1, 0], [1, 0]])  # all-zero hypothesis column
    ok = BoolEncoding([[1, Fraction(0)], [True, 1]])
    assert ok.matrix == ((1, 0), (1, 1))


def test_bool_encoding_checks_entries_before_coercing():
    # int(1.7) would be 1, so the entry must be tested as given
    with pytest.raises(FormatError) as err:
        BoolEncoding([[1.7, 1]])
    assert str(err.value) == "boolean encoding entries must be 0 or 1"


def test_bool_encoding_rejects_ragged_rows():
    with pytest.raises(FormatError) as err:
        BoolEncoding([[1, 1], [1]])
    assert str(err.value) == "boolean encoding rows have unequal lengths"


def test_bool_map_validation():
    with pytest.raises(FormatError):
        BoolStochasticMap([[0], [0]])  # input 0 can produce nothing
    t = BoolStochasticMap([[1, 0], [1, 1]])
    assert t.n_from == 2 and t.n_to == 2


def test_bool_encoding_is_a_bool_map():
    assert issubclass(BoolEncoding, BoolStochasticMap)
    x = BoolEncoding([[1, 0], [1, 1]])
    assert (x.hypotheses, x.outcomes) == (x.n_from, x.n_to) == (2, 2)
    cases = [
        (lambda: BoolEncoding([[1, 2], [0, 1]]), "boolean encoding entries must be 0 or 1"),
        (lambda: BoolStochasticMap([[0, 1], [0, 1]]), "boolean map column 0 is all zero"),
    ]
    for build, message in cases:
        with pytest.raises(FormatError) as err:
            build()
        assert str(err.value) == message


def test_bool_map_application_and_composition():
    x = BoolEncoding([[1, 0], [0, 1]])
    swap = BoolStochasticMap([[0, 1], [1, 0]])
    assert swap(x).matrix == ((0, 1), (1, 0))
    merge = BoolStochasticMap([[1, 1]])
    assert merge(x).matrix == ((1, 1),)
    # composition is application to a map: applied to an encoding a map
    # gives an encoding, applied to a map a map
    assert merge(swap)(x) == merge(swap(x))
    assert type(merge(x)) is BoolEncoding and type(merge(swap)) is BoolStochasticMap
    for bad in (lambda: merge(BoolEncoding([[1]])), lambda: swap(merge)):
        with pytest.raises(FormatError):
            bad()


@given(encodings(), st.data())
def test_ceil_is_a_morphism(x, data):
    t = data.draw(stochastic_maps(x.outcomes))
    assert ceil(t(x)) == ceil_map(t)(ceil(x))


def _all_bool_maps(n_from, n_to):
    cols = [c for c in itertools.product((0, 1), repeat=n_to) if any(c)]
    for pick in itertools.product(cols, repeat=n_from):
        yield BoolStochasticMap(tuple(zip(*pick)))


bool_encodings = st.builds(
    BoolEncoding,
    st.integers(1, 3).flatmap(lambda h: st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=h, max_size=h),
            min_size=n, max_size=n)
        .filter(lambda rows: all(any(r[c] for r in rows) for c in range(h))))))


@given(bool_encodings, bool_encodings)
def test_bool_majorizes_matches_brute_force(x, y):
    if x.hypotheses != y.hypotheses:
        return
    res = bool_majorizes(x, y)
    brute = any(t(x) == y for t in _all_bool_maps(x.outcomes, y.outcomes))
    assert res.convertible == brute
    if res.convertible:
        assert res.witness(x) == y


def test_bundled_pair_boolean_shadow():
    bx, by = ceil(incomparable_x()), ceil(incomparable_y())
    assert bx.matrix == ((1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert by.matrix == ((1, 0, 1), (1, 1, 0), (0, 1, 1))
    assert not bool_majorizes(bx, by).convertible
    assert not bool_majorizes(by, bx).convertible


def test_hypergraph_views():
    assert to_hypergraph(ceil(incomparable_x())) == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]
    assert to_hypergraph(ceil(incomparable_y())) == [
        frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]


def test_hypothesis_mismatch():
    with pytest.raises(HypothesisMismatch):
        bool_majorizes(BoolEncoding([[1]]), BoolEncoding([[1, 1]]))


def test_witness_is_replayed_before_it_is_reported(monkeypatch):
    # a witness garbled on its way out (rows swapped) must not be reported
    monkeypatch.setattr("rthy.possibilistic.BoolStochasticMap",
                        lambda rows: BoolStochasticMap(list(reversed(rows))))
    x = BoolEncoding([[1, 0], [0, 1]])
    with pytest.raises(RuntimeError):
        bool_majorizes(x, x)


def test_wide_target_gets_the_all_ones_witness():
    # one x row may go to any of 2^25 - 1 nonempty subsets of y's 25 rows;
    # only the full one reaches every row
    res = bool_majorizes(BoolEncoding([[1]]), BoolEncoding([[1]] * 25))
    assert res.convertible
    assert res.witness.matrix == ((1,),) * 25


def test_quick_reject_precedes_guard():
    # every x row supports both hypotheses but y's columns share no row, so
    # the empty allowed-mask reject fires before the search-space guard
    wide = BoolEncoding([[1, 1]] * 25)
    y = BoolEncoding([[1, 0], [0, 1]])
    assert not bool_majorizes(wide, y).convertible


def _reference_bool_majorizes(x: BoolEncoding, y: BoolEncoding):
    """The column-wise backtracking search that the closed form replaced:
    column j of T tries every nonempty subset of its allowed rows in
    ascending order (so the first witness is the lexicographically least),
    pruned when the allowed later columns cannot cover what is left."""
    h, nx, ny = x.hypotheses, x.outcomes, y.outcomes
    xrow_support = [[c for c in range(h) if x.matrix[j][c]] for j in range(nx)]
    allowed = []
    for j in range(nx):
        mask = 0
        for i in range(ny):
            if all(y.matrix[i][c] for c in xrow_support[j]):
                mask |= 1 << i
        allowed.append(mask)
    if not all(allowed):
        return None
    # target (i, c) cells to cover, flattened as i*h + c
    target = sum(1 << (i * h + c) for i in range(ny) for c in range(h) if y.matrix[i][c])

    def column_cover(j, pick):
        return sum(1 << (i * h + c) for i in range(ny) if pick >> i & 1 for c in xrow_support[j])

    potential_suffix = [0] * (nx + 1)
    for j in range(nx - 1, -1, -1):
        potential_suffix[j] = potential_suffix[j + 1] | column_cover(j, allowed[j])
    choice = [0] * nx

    def search(j, covered):
        if j == nx:
            return covered == target
        if (covered | potential_suffix[j]) & target != target:
            return False
        for pick in range(1, 1 << ny):
            if pick & ~allowed[j]:
                continue
            choice[j] = pick
            if search(j + 1, covered | column_cover(j, pick)):
                return True
        return False

    if not search(0, 0):
        return None
    return tuple(tuple(choice[j] >> i & 1 for j in range(nx)) for i in range(ny))


@st.composite
def bool_pairs(draw):
    """Two Boolean encodings with 1-5 outcomes each and the same 1-4 hypotheses."""
    h = draw(st.integers(1, 4))

    def enc():
        # each hypothesis column is a nonzero mask over the n outcomes
        n = draw(st.integers(1, 5))
        cols = [draw(st.integers(1, (1 << n) - 1)) for _ in range(h)]
        return BoolEncoding([[col >> i & 1 for col in cols] for i in range(n)])

    return enc(), enc()


@given(bool_pairs())
def test_bool_majorizes_matches_reference(pair):
    x, y = pair
    res = bool_majorizes(x, y)
    expected = _reference_bool_majorizes(x, y)
    assert res.convertible == (expected is not None)
    if res.convertible:
        assert res.witness.matrix == expected
