import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from rthy import (
    FinitePreorder,
    MINUS_INF,
    NotLeftInvariant,
    NotRightInvariant,
    PLUS_INF,
    PartialValuation,
    chain,
    cost,
    cost_witness,
    reachability,
    value_from_json,
    value_to_json,
    yield_,
    yield_witness,
)
from rthy.cli import SCHEMAS
from rthy.instances import (
    diamond_module,
    downset_module,
    three_chain_module,
    two_level_module,
)

from conftest import interesting_pairs, left_right_augmentations


def test_extended_value_json():
    assert value_to_json(PLUS_INF) == "+inf"
    assert value_to_json(MINUS_INF) == "-inf"
    assert value_to_json(Fraction(3, 4)) == "3/4"
    assert value_from_json("+inf") == PLUS_INF
    assert value_from_json("inf") == PLUS_INF  # accepted, and documented as such
    assert '"inf"' in SCHEMAS
    assert value_from_json("-5/2") == Fraction(-5, 2)


def test_infinities_are_ordered_sentinels_not_floats():
    import copy
    import pickle

    big = Fraction(10 ** 30)
    assert not isinstance(PLUS_INF, float) and not isinstance(MINUS_INF, float)
    assert MINUS_INF < -big < big < PLUS_INF and PLUS_INF > big > -big > MINUS_INF
    assert big <= PLUS_INF and PLUS_INF >= PLUS_INF and not PLUS_INF < PLUS_INF
    assert PLUS_INF != big and big != MINUS_INF and PLUS_INF != MINUS_INF
    assert max([big, PLUS_INF, 0]) is PLUS_INF and min([MINUS_INF, big]) is MINUS_INF
    assert max([MINUS_INF, big]) == big and min([PLUS_INF, 3]) == 3
    assert {PLUS_INF: 1, MINUS_INF: 2}[PLUS_INF] == 1
    assert copy.deepcopy(PLUS_INF) is PLUS_INF
    assert pickle.loads(pickle.dumps(MINUS_INF)) is MINUS_INF
    with pytest.raises(TypeError):
        PLUS_INF < "a"
    with pytest.raises(TypeError):
        PLUS_INF + 1


def test_valuation_roundtrip():
    f = PartialValuation({"a": Fraction(1, 3), "b": PLUS_INF})
    doc = {k: value_to_json(v) for k, v in f.values.items()}
    assert doc == {"a": "1/3", "b": "+inf"}
    assert PartialValuation.from_json(doc) == f
    assert f.domain == {"a", "b"}
    assert f("a") == Fraction(1, 3)


def test_diamond_cost_yield_table():
    m = diamond_module()
    free = sorted(m.free)
    f = PartialValuation({"0": 0, "1": 1, "2": 2})  # the primed copy is not gold
    assert yield_(m, free, f, "1p") == 0
    assert yield_(m, free, f, "2") == 2
    assert yield_(m, free, f, "1") == 1
    assert yield_(m, free, f, "0") == 0
    assert cost(m, free, f, "1p") == 2
    assert cost(m, free, f, "2") == 2
    assert cost(m, free, f, "1") == 1
    assert cost(m, free, f, "0") == 0


def test_two_level_shifted_tables():
    m, u = two_level_module()
    s, d = left_right_augmentations(m, [u])
    f = PartialValuation({"0": 0, "1": 1, "2": 2})
    assert yield_(m, d, f, "2p") == 1
    assert yield_(m, d, f, "1p") == 0
    assert yield_(m, d, f, "0p") == MINUS_INF
    assert cost(m, s, f, "2p") == PLUS_INF
    assert cost(m, s, f, "1p") == 2
    assert cost(m, s, f, "0p") == 1


def test_invariance_preconditions_enforced():
    m = three_chain_module()
    f = PartialValuation({"0": 0})
    with pytest.raises(NotRightInvariant):
        yield_(m, ["f012"], f, "0")  # the unit alone is not right-invariant
    with pytest.raises(NotLeftInvariant):
        cost(m, ["f012"], f, "0")


def test_empty_meets():
    m = diamond_module()
    nowhere = PartialValuation({})
    assert yield_(m, sorted(m.free), nowhere, "2") == MINUS_INF
    assert cost(m, sorted(m.free), nowhere, "2") == PLUS_INF


def test_witnesses_deterministic():
    m = diamond_module()
    free = sorted(m.free)
    f = PartialValuation({"0": 1, "1": 1, "2": 1})  # three tied maximizers below 2
    value, atom = yield_witness(m, free, f, "2")
    assert value == 1 and atom == "0"  # lowest atom index wins
    value, atom = cost_witness(m, free, f, "0")
    assert value == 1 and atom == "0"


def test_agreement_on_monotones():
    m = diamond_module()
    p = reachability(m)
    names = m.resources
    free = sorted(m.free)
    # indicator of an up-set is a monotone; check yield = cost = f on it
    ups = {"2"}, {"2", "1"}, {"2", "1", "1p"}, set(names)
    for up in ups:
        f = PartialValuation({x: (1 if x in up else 0) for x in names})
        for x in names:
            assert yield_(m, free, f, x) == f(x)
            assert cost(m, free, f, x) == f(x)


def test_interesting_pairs_two_chains():
    # two disjoint 2-chains x1 > x2 and y1 > y2 with f favoring the bottoms
    p = FinitePreorder(4, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 3)])
    names = ("x1", "x2", "y1", "y2")
    f = PartialValuation({"x1": 0, "x2": 1, "y1": 0, "y2": 1})
    assert interesting_pairs(p, f, names=names) == {("x1", "y2"), ("y1", "x2")}


def test_interesting_pairs_trivia():
    p = chain(3)
    names = ("0", "1", "2")
    const = PartialValuation({"0": 5, "1": 5, "2": 5})
    assert interesting_pairs(p, const, names=names) == frozenset()
    # a strictly increasing monotone separates every strictly-below pair
    agree = PartialValuation({"0": 0, "1": 1, "2": 2})
    assert interesting_pairs(p, agree, names=names) == {
        ("0", "1"), ("0", "2"), ("1", "2"),
    }


def test_more_informative_trivia():
    p = chain(3)
    names = ("0", "1", "2")
    f = PartialValuation({"0": 0, "1": 3, "2": 9})
    const = PartialValuation({"0": 1, "1": 1, "2": 1})
    assert interesting_pairs(p, f, names=names) >= interesting_pairs(p, f, names=names)
    assert interesting_pairs(p, f, names=names) >= interesting_pairs(p, const, names=names)


def test_more_informative_strict_example():
    # on an antichain, a two-valued f sees one pair, a finer g sees more
    p = FinitePreorder(3, [(0, 0), (1, 1), (2, 2)])
    coarse = PartialValuation({"0": 0, "1": 0, "2": 1})
    fine = PartialValuation({"0": 0, "1": 1, "2": 2})
    names = ("0", "1", "2")
    assert interesting_pairs(p, fine, names=names) >= interesting_pairs(p, coarse, names=names)
    assert not interesting_pairs(p, coarse, names=names) >= interesting_pairs(p, fine, names=names)


def test_transfer_needs_total_or_monotone_input():
    # Informativeness is NOT preserved by extension for arbitrary partial
    # maps: on two incomparable atoms the empty map is (vacuously) at least
    # as informative as g = {"1": 0}, yet yield of the empty map is the
    # constant -inf while yield of g still separates the atoms.  The
    # acceptance suite therefore checks the transfer law on total
    # valuations and on monotone valuations sharing a domain, where it
    # does hold.
    p = FinitePreorder(2, [(0, 0), (1, 1)])
    m = downset_module(p)
    names = m.resources
    everything = list(m.transformations)
    empty = PartialValuation({})
    g = PartialValuation({"1": Fraction(0)})
    assert interesting_pairs(p, empty, names=names) >= interesting_pairs(p, g, names=names)
    ye = PartialValuation({x: yield_(m, everything, empty, x) for x in names})
    yg = PartialValuation({x: yield_(m, everything, g, x) for x in names})
    assert set(ye.values.values()) == {MINUS_INF}
    assert interesting_pairs(p, yg, names=names) == {("0", "1")}
    assert not interesting_pairs(p, ye, names=names) >= interesting_pairs(p, yg, names=names)
    # cost side breaks symmetrically
    ce = PartialValuation({x: cost(m, everything, empty, x) for x in names})
    cg = PartialValuation({x: cost(m, everything, g, x) for x in names})
    assert set(ce.values.values()) == {PLUS_INF}
    assert not interesting_pairs(p, ce, names=names) >= interesting_pairs(p, cg, names=names)
