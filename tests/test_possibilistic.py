import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rthy import (
    BoolEncoding,
    BoolStochasticMap,
    FormatError,
    HypothesisMismatch,
    SearchTooLarge,
    bool_majorizes,
    ceil,
    ceil_map,
    to_hypergraph,
)
from rthy.instances import incomparable_x, incomparable_y

from conftest import encodings, stochastic_maps


def test_bool_encoding_validation():
    with pytest.raises(FormatError):
        BoolEncoding([[1, 2], [0, 1]])
    with pytest.raises(FormatError):
        BoolEncoding([[1, 0], [1, 0]])  # all-zero hypothesis column
    ok = BoolEncoding([[1, Fraction(0)], [True, 1]])
    assert ok.matrix == ((1, 0), (1, 1))


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
    assert merge.compose(swap)(x) == merge(swap(x))
    # a map applied to an encoding gives an encoding, composed with a map a map
    assert type(merge(x)) is BoolEncoding and type(merge.compose(swap)) is BoolStochasticMap
    for bad in (lambda: merge(BoolEncoding([[1]])), lambda: swap.compose(merge)):
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


def test_search_guard_trips():
    x = BoolEncoding([[1]])
    y = BoolEncoding([[1]] * 25)
    with pytest.raises(SearchTooLarge):
        bool_majorizes(x, y)


def test_search_guard_reports_count():
    # one x row may go to any nonempty subset of y's 25 rows
    with pytest.raises(SearchTooLarge) as err:
        bool_majorizes(BoolEncoding([[1]]), BoolEncoding([[1]] * 25))
    assert (err.value.count, err.value.guard) == ((1 << 25) - 1, 1 << 24)
    assert str(err.value) == "boolean witness candidates = 33554431, above the guard 16777216"


def test_quick_reject_precedes_guard():
    # every x row supports both hypotheses but y's columns share no row, so
    # the empty allowed-mask reject fires before the search-space guard
    wide = BoolEncoding([[1, 1]] * 25)
    y = BoolEncoding([[1, 0], [0, 1]])
    assert not bool_majorizes(wide, y).convertible
