import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rthy import (
    FinitePreorder,
    IndexOutOfRange,
    NotReflexiveTransitive,
    all_downsets,
    chain,
    down_closure,
)
from rthy.order import _check_indices, _to_mask, _to_set


# The set-lifted orders, built on down_closure; only these tests use them.


def up_closure(p: FinitePreorder, subset) -> frozenset:
    """Everything dominating some member of ``subset``."""
    mask = _to_mask(p, subset)
    out = 0
    for i in range(p.size):
        if p.above[i] & mask:
            out |= 1 << i
    return _to_set(out)


def enhancement_geq(p: FinitePreorder, y, z) -> bool:
    """Set order where Y beats Z iff each member of Z is dominated from Y.

    Decided via inclusion of downward closures; the empty set is bottom.
    """
    return down_closure(p, y) >= down_closure(p, z)


def degradation_geq(p: FinitePreorder, y, z) -> bool:
    """Set order where Y beats Z iff Y survives a dominance-decreasing map into Z.

    Decided via inclusion of upward closures; the empty set is top.
    """
    return up_closure(p, y) <= up_closure(p, z)


def downsets_fixed(p: FinitePreorder, subset) -> bool:
    """True when ``subset`` is already downward closed."""
    s = _check_indices(p.size, subset) if not isinstance(subset, int) else _to_set(subset)
    return down_closure(p, s) == s


@st.composite
def preorders(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    return FinitePreorder(n, [(i, i) for i in range(n)] + extra)


def test_rejects_missing_reflexivity():
    with pytest.raises(NotReflexiveTransitive):
        FinitePreorder(2, [(0, 0), (0, 1)])


def test_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        FinitePreorder(2, [(0, 0), (1, 1), (0, 5)])


@given(preorders())
def test_closure_is_transitive_and_reflexive(p):
    for a in range(p.size):
        assert p.geq(a, a)
        for b in range(p.size):
            for c in range(p.size):
                if p.geq(a, b) and p.geq(b, c):
                    assert p.geq(a, c)


@given(preorders(), st.data())
def test_down_closure_is_a_downset(p, data):
    subset = data.draw(st.sets(st.integers(0, p.size - 1)))
    d = down_closure(p, subset)
    assert subset <= d
    for x in d:
        for y in range(p.size):
            if p.geq(x, y):
                assert y in d


@given(preorders(), st.data())
def test_up_down_duality(p, data):
    subset = data.draw(st.sets(st.integers(0, p.size - 1)))
    # up closure of the reversed order is the down closure
    rev = FinitePreorder(p.size, [(b, a) for a, b in p.pairs()])
    assert up_closure(p, subset) == down_closure(rev, subset)


# Brute-force oracles: the set liftings are defined by choice functions.


def _enhances(p, ys, zs):
    """Exists a choice c: zs -> ys with c(z) above z, i.e. every z is
    dominated by some y."""
    return all(any(p.geq(y, z) for y in ys) for z in zs)


def _degrades(p, ys, zs):
    return all(any(p.geq(y, z) for z in zs) for y in ys)


@given(preorders(max_size=4), st.data())
def test_enhancement_matches_choice_functions(p, data):
    ys = data.draw(st.sets(st.integers(0, p.size - 1)))
    zs = data.draw(st.sets(st.integers(0, p.size - 1)))
    assert enhancement_geq(p, ys, zs) == _enhances(p, ys, zs)
    # exhaustive check against explicit choice functions for nonempty zs
    if zs:
        explicit = any(
            all(p.geq(c[i], z) for i, z in enumerate(sorted(zs)))
            for c in itertools.product(sorted(ys), repeat=len(zs))
        ) if ys else False
        assert enhancement_geq(p, ys, zs) == explicit


@given(preorders(max_size=4), st.data())
def test_degradation_matches_choice_functions(p, data):
    ys = data.draw(st.sets(st.integers(0, p.size - 1)))
    zs = data.draw(st.sets(st.integers(0, p.size - 1)))
    assert degradation_geq(p, ys, zs) == _degrades(p, ys, zs)


def test_lifted_orders_pinned():
    c = chain(3)
    assert enhancement_geq(c, {2}, {0, 1})
    assert enhancement_geq(c, {1}, frozenset())
    assert degradation_geq(c, {0, 1}, {0})
    assert degradation_geq(c, frozenset(), {2})
    d = FinitePreorder(2, [(i, i) for i in range(2)])
    assert not enhancement_geq(d, {0}, {1})
    assert not degradation_geq(d, {0}, {1})


@given(preorders(max_size=4), st.data())
def test_enhancement_extension_and_union(p, data):
    ys = data.draw(st.sets(st.integers(0, p.size - 1)))
    zs = data.draw(st.sets(st.integers(0, p.size - 1), max_size=2))
    ws = data.draw(st.sets(st.integers(0, p.size - 1), max_size=2))
    if zs <= ys:
        assert enhancement_geq(p, ys, zs)
    if enhancement_geq(p, ys, zs) and enhancement_geq(p, ys, ws):
        assert enhancement_geq(p, ys, zs | ws)


@given(preorders(max_size=4))
def test_enhancement_is_a_preorder_on_subsets(p):
    subsets = [frozenset(s) for r in range(p.size + 1)
               for s in itertools.combinations(range(p.size), r)]
    for a in subsets:
        assert enhancement_geq(p, a, a)
    for a in subsets[:8]:
        for b in subsets[:8]:
            for c in subsets[:8]:
                if enhancement_geq(p, a, b) and enhancement_geq(p, b, c):
                    assert enhancement_geq(p, a, c)


def test_chain_and_discrete_shapes():
    c = chain(4)
    assert c.geq(3, 0) and not c.geq(0, 3)
    d = FinitePreorder(3, [(i, i) for i in range(3)])
    assert not d.geq(0, 1)
    assert len(all_downsets(chain(4))) == 5
    assert len(all_downsets(d)) == 8


def test_downsets_fixed_point():
    p = chain(3)
    for d in all_downsets(p):
        assert down_closure(p, d) == d
    assert downsets_fixed(p, [0]) and not downsets_fixed(p, [2])


@given(preorders(max_size=4))
def test_all_downsets_complete(p):
    downs = set(all_downsets(p))
    for r in range(p.size + 1):
        for s in itertools.combinations(range(p.size), r):
            fs = frozenset(s)
            assert (down_closure(p, fs) == fs) == (fs in downs)
