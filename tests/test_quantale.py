"""Finite quantale modules: law checking, reachability, augmentations,
symmetry, morphisms, and the commutative (UCRT) case."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rthy import (
    CommutativeQuantale,
    FinitePreorder,
    FiniteQuantaleModule,
    FormatError,
    FunctionAction,
    InvalidModule,
    NotReflexiveTransitive,
    PermutationAction,
    Violation,
    action_from_names,
    augment,
    catalytic_order,
    chain,
    cli,
    covariant_transformations,
    is_g_compatible,
    is_left_invariant,
    is_right_invariant,
    reachability,
    ucrt_order,
    validate,
    validate_quantale,
)
from rthy.instances import (
    boolean_pair_module,
    channel_x,
    channel_y,
    comb_witness_x,
    comb_witness_y,
    diamond_module,
    downset_module,
    function_module,
    incomparable_x,
    input_ignoring_channel,
    max_quantale,
    rotation_module,
    stochastic_pair_module,
    support_morphism,
    three_chain_module,
    two_level_module,
)
from rthy.quantale import _union

from conftest import left_right_augmentations


def _chain_doc():
    return three_chain_module().to_json()


def test_three_chain_is_lawful():
    assert validate(three_chain_module()) == []


def test_json_roundtrip():
    m = diamond_module()
    again = FiniteQuantaleModule.from_json(m.to_json())
    assert again == m


# sha256 of json.dumps(to_json(), sort_keys=True): any change to a table,
# to atom order or to a channel's column layout shows here
BUNDLED_DIGESTS = {
    "three_chain_module": "67232d7a9f2d20863eefc64fa4d71cc9e6368417f6d1cf546e1fc78fa3432812",
    "diamond_module": "5d06da95fea453aeb198a800d90a384b080085fee35d7fe300f05f40b2b6074a",
    "two_level_module": "164d3aab0f50383d8ab399b98f67fbd0e6cb73764c9483d77224c5c316bca027",
    "rotation_module": "322aa8a3f0891c2595b3465802805b0acfdbeb7408c92e322ca773d847641166",
    "stochastic_pair_module": "3335cf3b4475d008b3fa3a4a02a423bb52dd1471d7e63be172d66a8a95987279",
    "boolean_pair_module": "5692a15e218784f4eac4e491a53259358e38fe00a05f9dbe194cbaa737e8968d",
    "max_quantale": "6f19988d63a7a1bde82000d8d099ee44fc5558192e3d20b74a7d8135965ea257",
    "downset_module(chain(3))": "b44f33b85bf3e48fcb836250e6d1eda7e6df2627ee160261e97b33930bb2a54c",
    "function_module(chain(1))": "2f6d11abf6a74522a850e47b46f52417f5c305ceae809b93ddbc5f1bfcc7a207",
    "function_module(chain(1), all)": "2f6d11abf6a74522a850e47b46f52417f5c305ceae809b93ddbc5f1bfcc7a207",
    "function_module(chain(2))": "be4e292b0a3ce07bbdd7ef98d2e1e3a93082237957d550c36e57c700bc74b3e0",
    "function_module(chain(2), all)": "9b54e760e475d164ebac6f28aad91b179dbe34f830054e3bfc67ecc4009a8917",
    "function_module(chain(3))": "613766d7b8677d1e5e4e32ba1d9934a0b2ca7d8405c26291cd9fae5571e14257",
    "function_module(chain(3), all)": "67232d7a9f2d20863eefc64fa4d71cc9e6368417f6d1cf546e1fc78fa3432812",
    "channel_x": "d30cc97ce75823eac6a9e20d3b3e4fa22a06eefe7a9257390dedda7bca52e4ea",
    "channel_y": "c57ead4e1b106128732e4af5b56adf96ad42fac7237cf60e05b88a90011b4a44",
    "input_ignoring_channel(incomparable_x(), 2)":
        "d0a788833d593f12bbc34a7c06ae18be6747a7fa040148acd6330847784c73bf",
    "sigma of comb_witness_x": "2b9dc259ef0bd24304748115f839f29c135feb796b371f24bd4dd83b05333816",
    "sigma of comb_witness_y": "073f200da8c37e917a71138f69cc69e0e571e621cf60376c1720c25ce07a1dea",
}


def test_bundled_instances_pinned():
    built = {
        "three_chain_module": three_chain_module(),
        "diamond_module": diamond_module(),
        "two_level_module": two_level_module()[0],
        "rotation_module": rotation_module()[0],
        "stochastic_pair_module": stochastic_pair_module(),
        "boolean_pair_module": boolean_pair_module(),
        "max_quantale": max_quantale(),
        "downset_module(chain(3))": downset_module(chain(3)),
        "channel_x": channel_x(),
        "channel_y": channel_y(),
        "input_ignoring_channel(incomparable_x(), 2)": input_ignoring_channel(incomparable_x(), 2),
    }
    for n in (1, 2, 3):
        built[f"function_module(chain({n}))"] = function_module(chain(n))
        built[f"function_module(chain({n}), all)"] = function_module(chain(n), all_functions=True)
    docs = {name: m.to_json() for name, m in built.items()}
    # the witness JSON of `rthy channel simulate`
    docs["sigma of comb_witness_x"] = cli._sigma_json(comb_witness_x())
    docs["sigma of comb_witness_y"] = cli._sigma_json(comb_witness_y())
    digests = {name: hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
               for name, doc in docs.items()}
    assert digests == BUNDLED_DIGESTS
    assert two_level_module()[1] == "fx34x01"
    assert rotation_module()[1].maps == ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def test_comma_names_rejected():
    with pytest.raises(FormatError):
        FiniteQuantaleModule.build(
            transformations=["a,b"], resources=["x"],
            star={("a,b", "a,b"): ["a,b"]}, act={("a,b", "x"): ["x"]},
            unit=["a,b"], free=["a,b"])


def test_module_tables_read_in_one_pass():
    """``build`` takes a table as a dict or as pairs, and ``from_json`` reads
    each "a,b" key when it reaches it: star in file order, then act, so the
    first fault in that order is the one named."""
    m = three_chain_module()
    doc = m.to_json()
    star, act = ({tuple(k.split(",")): v for k, v in doc[t].items()} for t in ("star", "act"))
    args = (doc["T"], doc["X"])
    sets = (doc["unit"], doc["free"])
    assert (FiniteQuantaleModule.build(*args, star, act, *sets)
            == FiniteQuantaleModule.build(*args, iter(star.items()), act.items(), *sets)
            == FiniteQuantaleModule.from_json(doc) == m)
    unit_module = {"T": ["e"], "X": ["x"], "unit": ["e"], "free": ["e"]}
    for star, act, fault in (
            ({"e,q": ["e"], "e,e,e": ["e"]}, {"e": ["x"]}, "unknown atom"),
            ({"e,e,e": ["e"], "e,q": ["e"]}, {"e": ["x"]}, "not two comma-separated"),
            ({"e,e": ["q"]}, {"e": ["x"]}, "unknown atom 'q'"),
            ({"e,e": ["e"]}, {"e": ["x"]}, "not two comma-separated"),
            ({"e,e": ["e"]}, [["e", "x"]], "JSON object"),
            # one cell with bad names under a bad key: the names are named
            ({"e,q": ["z"]}, {"e,x": ["x"]}, "^unknown atom 'z'$"),
            ({"e,e,e": ["z"]}, {"e,x": ["x"]}, "'e,e,e' is not two comma-separated"),
            # an act key whose second atom is a transformation, not a resource
            ({"e,e": ["e"]}, {"e,e": ["x"]}, "table key 'e,e' names an unknown atom"),
            ({"e,e": ["e"]}, {"e,x,x": ["x"]}, "'e,x,x' is not two comma-separated")):
        with pytest.raises(FormatError, match=fault):
            FiniteQuantaleModule.from_json({**unit_module, "star": star, "act": act})
    # a box may give a cell and its mirror, with the same atoms
    q = max_quantale()
    box = q.to_json()["box"]
    both = {**box, **{",".join(key.split(",")[::-1]): out for key, out in box.items()}}
    assert len(both) > len(box)
    assert CommutativeQuantale.from_json({**q.to_json(), "box": both}) == q


def test_function_module_names_maps_apart_on_twelve_points():
    # run together, (0, 1, 10, ...) and (0, 11, 0, ...) would both read f0110...
    pairs = [(i, i) for i in range(12)] + [(1, 11), (2, 10), (2, 0)]
    module = function_module(FinitePreorder(12, pairs))
    rest = "3456789(10)(11)"
    assert len(module.transformations) == 6
    assert {"f01(10)" + rest, "f0(11)0" + rest} <= set(module.transformations)
    assert validate(module) == []


def _tamper(doc, **changes):
    doc = dict(doc)
    doc.update(changes)
    return FiniteQuantaleModule.from_json(doc)


def test_validate_catches_broken_unit_action():
    doc = _chain_doc()
    act = dict(doc["act"])
    act["f012,0"] = ["1"]  # identity atom no longer acts as identity
    kinds = {v.kind for v in validate(_tamper(doc, act=act))}
    assert "UnitActionViolation" in kinds


def test_validate_catches_broken_star_neutrality():
    doc = _chain_doc()
    star = dict(doc["star"])
    star["f012,f000"] = ["f111"]
    kinds = {v.kind for v in validate(_tamper(doc, star=star))}
    assert "UnitStarViolation" in kinds


def test_validate_catches_associativity():
    doc = _chain_doc()
    star = dict(doc["star"])
    star["f000,f000"] = ["f111"]  # const0 . const0 is definitely const0
    kinds = {v.kind for v in validate(_tamper(doc, star=star))}
    assert "AssociativityViolation" in kinds or "MixedAssociativityViolation" in kinds


def test_validate_catches_free_problems():
    doc = _chain_doc()
    no_unit = _tamper(doc, free=[t for t in doc["free"] if t != "f012"])
    assert "FreeNotReflexive" in {v.kind for v in validate(no_unit)}
    leaky = _tamper(doc, free=doc["free"] + ["f120"])  # a rotation: not closed
    assert "FreeNotIdempotent" in {v.kind for v in validate(leaky)}


def _product(table, left, right):
    """The product of two atom sets, by the definition: the union of the
    cells ``table[a][b]`` over a in ``left`` and b in ``right``."""
    out = 0
    while left:
        low = left & -left
        left ^= low
        row, cols = table[low.bit_length() - 1], right
        while cols:
            col = cols & -cols
            cols ^= col
            out |= row[col.bit_length() - 1]
    return out


def _reference_validate(m):
    """``validate`` by the textbook sweep: both associativity laws checked on
    every atom triple (i, j, k), one cell at a time, with products taken by
    ``_product``, not by the module's own ``star_set`` and ``act_set``."""
    out = []
    nt = len(m.transformations)
    nx = len(m.resources)
    tb, ab = m.star_table, m.act_table
    for i in range(nt):
        for j in range(nt):
            ij = tb[i][j]
            for k in range(nt):
                left = _product(tb, ij, 1 << k)
                right = _product(tb, 1 << i, tb[j][k])
                if left != right:
                    out.append(Violation("AssociativityViolation",
                                         (m.transformations[i], m.transformations[j],
                                          m.transformations[k])))
    for i in range(nt):
        for j in range(nt):
            ij = tb[i][j]
            for x in range(nx):
                left = _product(ab, ij, 1 << x)
                right = _product(ab, 1 << i, ab[j][x])
                if left != right:
                    out.append(Violation("MixedAssociativityViolation",
                                         (m.transformations[i], m.transformations[j],
                                          m.resources[x])))
    for x in range(nx):
        if _product(ab, m.unit_mask, 1 << x) != 1 << x:
            out.append(Violation("UnitActionViolation", (m.resources[x],)))
    for i in range(nt):
        if _product(tb, m.unit_mask, 1 << i) != 1 << i or _product(tb, 1 << i, m.unit_mask) != 1 << i:
            out.append(Violation("UnitStarViolation", (m.transformations[i],)))
    if m.unit_mask & ~m.free_mask:
        out.append(Violation("FreeNotReflexive"))
    if _product(tb, m.free_mask, m.free_mask) & ~m.free_mask:
        out.append(Violation("FreeNotIdempotent"))
    return out


def _reference_validate_quantale(q):
    """``validate_quantale`` by the textbook sweep over every atom triple."""
    out = []
    n = len(q.resources)
    box = q.star_table
    for i in range(n):
        for j in range(i + 1, n):
            if box[i][j] != box[j][i]:
                out.append(Violation("CommutativityViolation", (q.resources[i], q.resources[j])))
    for i in range(n):
        for j in range(n):
            ij = box[i][j]
            for k in range(n):
                if _product(box, ij, 1 << k) != _product(box, 1 << i, box[j][k]):
                    out.append(Violation("AssociativityViolation",
                                         (q.resources[i], q.resources[j], q.resources[k])))
    for i in range(n):
        if _product(box, q.unit_mask, 1 << i) != 1 << i:
            out.append(Violation("UnitStarViolation", (q.resources[i],)))
    if q.unit_mask & ~q.free_mask:
        out.append(Violation("FreeNotReflexive"))
    if _product(box, q.free_mask, q.free_mask) & ~q.free_mask:
        out.append(Violation("FreeNotIdempotent"))
    return out


def _sweep_masks(table, right_table):
    """How many distinct masks the associativity sweep of ``table`` over
    ``right_table`` meets: the cells of ``right_table``, each lifted through
    each row, and the left rows (the union of the rows of a cell's atoms)
    of the cells of ``table``.  Up to 256 it compares byte strings, past
    that tuples."""
    cells = set(itertools.chain.from_iterable(right_table))
    width = len(right_table[0])
    lifts = {_product(right_table, 1 << i, c) for i in range(len(right_table)) for c in cells}
    lefts = {_product(right_table, c, 1 << k)
             for c in set(itertools.chain.from_iterable(table)) for k in range(width)}
    return len(cells | lifts | lefts)


def _random_module(t, x, seed):
    """A module on ``t`` transformations and ``x`` resources whose every cell
    is a seeded random set, each atom in it with probability 1/4."""
    rng = random.Random(seed)

    def table(rows, cols):
        return tuple(tuple(rng.getrandbits(cols) & rng.getrandbits(cols) for _ in range(cols))
                     for _ in range(rows))

    return FiniteQuantaleModule(tuple(f"t{i}" for i in range(t)), tuple(f"x{i}" for i in range(x)),
                                table(t, t), table(t, x), 1, 1)


def _random_quantale(n, seed):
    """A commutative quantale on ``n`` atoms: ``_random_module``'s star
    table, mirrored from its upper triangle."""
    star = _random_module(n, 0, seed).star_table
    box = tuple(tuple(star[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    names = tuple(str(i) for i in range(n))
    return CommutativeQuantale(names, names, box, box, 1, 1)


def _all_functions_tampered():
    """The lawful 27-map module of every self-map of a 3-chain, with one star
    cell made the two-atom set {f000, f111}."""
    m = function_module(chain(3), all_functions=True)
    star = [list(row) for row in m.star_table]
    star[5][7] = m.tmask(["f000", "f111"])
    return FiniteQuantaleModule(m.transformations, m.resources, tuple(map(tuple, star)),
                                m.act_table, m.unit_mask, m.free_mask)


def _every_action_subset():
    """32 transformations, the cyclic group of order 32 under star, whose
    256 action cells over 8 resources are the 256 subsets of them, each once."""
    t = tuple(f"r{i}" for i in range(32))
    star = tuple(tuple(1 << (i + j) % 32 for j in range(32)) for i in range(32))
    act = tuple(tuple(range(8 * i, 8 * i + 8)) for i in range(32))
    return FiniteQuantaleModule(t, tuple(f"x{k}" for k in range(8)), star, act, 1, 1)


def _cell(width):
    """An atom set over ``width`` atoms: empty, one atom, or any set."""
    return st.one_of(st.just(0), st.integers(0, width - 1).map(lambda b: 1 << b),
                     st.integers(0, (1 << width) - 1))


def _redrawn(draw, table, width):
    """``table`` with zero to three cells redrawn (empty, one atom or any set)."""
    rows = [list(r) for r in table]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = draw(_cell(width))
    return tuple(tuple(r) for r in rows)


def _set_table(draw, rows, cols, base=None):
    """A random table, or ``base`` with up to three cells redrawn."""
    if base is None or draw(st.booleans()):
        return tuple(tuple(draw(_cell(cols)) for _ in range(cols)) for _ in range(rows))
    return _redrawn(draw, base, cols)


LAWFUL_MODULES = (diamond_module, boolean_pair_module, stochastic_pair_module,
                  lambda: rotation_module()[0])


@st.composite
def _modules(draw):
    base = draw(st.one_of(st.none(), st.sampled_from(LAWFUL_MODULES).map(lambda f: f())))
    if base is None:
        t = tuple(f"t{i}" for i in range(draw(st.integers(1, 5))))
        x = tuple(f"x{i}" for i in range(draw(st.integers(0, 4))))
        star = act = unit = free = None
    else:
        t, x = base.transformations, base.resources
        star, act, unit, free = base.star_table, base.act_table, base.unit_mask, base.free_mask
    if unit is None or draw(st.booleans()):
        unit, free = draw(_cell(len(t))), draw(_cell(len(t)))
    return FiniteQuantaleModule(t, x, _set_table(draw, len(t), len(t), star),
                                _set_table(draw, len(t), len(x), act), unit, free)


@st.composite
def _quantales(draw):
    base = draw(st.one_of(st.none(), st.just(max_quantale())))
    r = base.resources if base else tuple(str(i) for i in range(draw(st.integers(1, 5))))
    n = len(r)
    box = _set_table(draw, n, n, base.star_table if base else None)
    if draw(st.booleans()):  # keep it commutative: mirror the upper triangle
        box = tuple(tuple(box[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
    if base is None or draw(st.booleans()):
        unit, free = draw(_cell(n)), draw(_cell(n))
    else:
        unit, free = base.unit_mask, base.free_mask
    return CommutativeQuantale(r, r, box, box, unit, free)


@given(_modules(), _quantales(), st.none())
# random boxes whose sweeps meet exactly 256 masks (bytes, every id taken) and 364 (tuples)
@example(FiniteQuantaleModule(("e",), (), ((1,),), ((),), 1, 1), _random_quantale(10, 11), 256)
@example(FiniteQuantaleModule(("e",), (), ((1,),), ((),), 1, 1), _random_quantale(11, 11), 364)
def test_validate_matches_reference_sweep(m, q, box_masks):
    """The row sweep lists the same violations, in the same order, as the
    full atom-triple loops, on lawful, tampered and random tables, and on
    quantales whose box sweep meets exactly 256 masks and more."""
    if box_masks is not None:
        assert _sweep_masks(q.star_table, q.star_table) == box_masks
    assert validate(m) == _reference_validate(m)
    assert validate_quantale(q) == _reference_validate_quantale(q)
    assert validate(q) == _reference_validate(q)


@st.composite
def _larger_modules(draw):
    """A lawful function or downset module over a 3- or 4-point preorder
    (up to 27 transformations), with a few star and action cells redrawn."""
    n = draw(st.integers(3, 4))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    p = FinitePreorder(n, [(i, i) for i in range(n)] + extra)
    makers = [function_module, downset_module]
    if n == 3:  # every self-map of the 3 points: 27 transformations
        makers.append(lambda p: function_module(p, all_functions=True))
    m = draw(st.sampled_from(makers))(p)
    nt, nx = len(m.transformations), len(m.resources)
    return FiniteQuantaleModule(m.transformations, m.resources,
                                _redrawn(draw, m.star_table, nt), _redrawn(draw, m.act_table, nx),
                                m.unit_mask, m.free_mask)


@settings(max_examples=10)
@given(_larger_modules(), st.none())
@example(FiniteQuantaleModule(("e",), ("x",), ((1,),), ((1,),), 1, 1), None)  # T = 1
@example(FiniteQuantaleModule(("e",), ("x",), ((0,),), ((1,),), 1, 1), None)  # T = 1, mixed law fails
@example(FiniteQuantaleModule(("a", "b"), (), ((1, 2), (2, 3)), ((), ()), 1, 3), None)  # X = 0
@example(FiniteQuantaleModule(("a", "b"), ("x", "y"), ((0, 0), (0, 0)), ((3, 1), (0, 2)), 1, 1),
         None)  # empty star
@example(FiniteQuantaleModule(("a", "b"), ("x", "y"), ((1, 3), (2, 2)), ((0, 0), (0, 0)), 1, 1),
         None)  # empty action
# the (star, mixed) sweeps' distinct masks, each side of the 256 one-byte ids:
@example(_all_functions_tampered(), (30, 4))  # bytes, bytes
@example(_random_module(11, 3, 11), (844, 8))  # tuples, bytes
@example(_every_action_subset(), (32, 256))  # bytes, bytes with every id taken
def test_validate_matches_reference_on_larger_modules(m, masks):
    """The row sweep agrees with the atom-triple loops on lawful modules of
    realistic size with a few cells redrawn, on the 1 x 1, zero-column and
    all-empty tables, and on modules whose sweeps meet up to 256 distinct
    masks (byte strings) or more (tuples)."""
    if masks is not None:
        assert (_sweep_masks(m.star_table, m.star_table),
                _sweep_masks(m.star_table, m.act_table)) == masks
    assert validate(m) == _reference_validate(m)


def test_reachability_refuses_invalid():
    doc = _chain_doc()
    act = dict(doc["act"])
    act["f012,0"] = ["1"]
    broken = _tamper(doc, act=act)
    with pytest.raises(InvalidModule) as err:
        reachability(broken)
    assert err.value.violations


def test_three_chain_reachability_is_the_chain():
    p = reachability(three_chain_module())
    expect = chain(3)
    assert set(p.pairs()) == set(expect.pairs())


def test_free_image_is_down_closure():
    m = three_chain_module()
    for atom, image in (("2", {"0", "1", "2"}), ("0", {"0"})):
        assert m.x_set(m.act_set(m.free_mask, m.xmask([atom]))) == image


@given(st.integers(1, 4), st.data())
def test_downset_module_realizes_any_preorder(n, data):
    from rthy import FinitePreorder
    extra = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    p = FinitePreorder(n, [(i, i) for i in range(n)] + extra)
    m = downset_module(p)
    assert validate(m) == []
    q = reachability(m)
    assert set(q.pairs()) == set(p.pairs())


def test_augment_requires_submonoid():
    m = three_chain_module()
    with pytest.raises(NotReflexiveTransitive):
        augment(m, ["f000"])  # misses the unit
    with pytest.raises(NotReflexiveTransitive):
        augment(m, ["f012", "f120"])  # rotations alone are not star-closed here?
        # (f120 . f120 = f201, outside)


def test_augment_full_free_recovers_reachability():
    m = diamond_module()
    aug = augment(m, sorted(m.free))
    # classes are grouped by their free image; order matches inclusion
    images = {frozenset(c): img for c, img in zip(aug.classes, aug.images)}
    for ci, c in enumerate(aug.classes):
        for di, d in enumerate(aug.classes):
            want = images[frozenset(d)] <= images[frozenset(c)]
            assert aug.order.geq(ci, di) == want


def test_left_right_augmentations_on_unit():
    m = diamond_module()
    s, d = left_right_augmentations(m, sorted(m.unit))
    assert s == m.free and d == m.free
    assert is_left_invariant(m, s) and is_right_invariant(m, d)


def test_left_right_augmentations_two_level():
    m, u = two_level_module()
    s, d = left_right_augmentations(m, [u])
    assert is_left_invariant(m, s) and is_right_invariant(m, d)
    assert not is_left_invariant(m, [u]) and not is_right_invariant(m, [u])


def test_function_action_validation():
    FunctionAction([(0, 1), (1, 0), (0, 0), (1, 1)])  # id, swap, both constants
    with pytest.raises(FormatError):
        FunctionAction([(1, 0)])  # no identity
    with pytest.raises(FormatError):
        FunctionAction([(0, 1), (1, 0), (0, 0)])  # misses swap.const0 = const1
    with pytest.raises(FormatError):
        PermutationAction([(0, 1), (1, 1)])  # not bijective


def test_covariance_pinned():
    m, action = rotation_module()
    cov = covariant_transformations(m, action)
    assert cov == {"rot0", "rot1", "rot2", "to_base"}
    orbit_consts = ["const1", "const2", "const3"]
    assert is_g_compatible(m, orbit_consts, action)
    for t in orbit_consts:
        assert not is_g_compatible(m, [t], action)


def test_action_from_names_dict_and_list():
    m, _ = rotation_module()
    as_dict = action_from_names(
        m, [{"base": "base", "orb1": "orb2", "orb2": "orb3", "orb3": "orb1"},
            {"base": "base", "orb1": "orb3", "orb2": "orb1", "orb3": "orb2"},
            {"base": "base", "orb1": "orb1", "orb2": "orb2", "orb3": "orb3"}])
    as_list = action_from_names(
        m, [["base", "orb2", "orb3", "orb1"], ["base", "orb3", "orb1", "orb2"],
            ["base", "orb1", "orb2", "orb3"]])
    assert set(as_dict.maps) == set(as_list.maps)
    with pytest.raises(FormatError):
        action_from_names(m, [{"base": "nowhere"}])


def check_morphism(src, dst, ell: dict, f: dict, mode: str = "strict") -> list:
    """Check a pair of atom->subset tables as a (possibly oplax) morphism.

    ``ell`` sends each source transformation atom to a set of target
    transformation names, ``f`` likewise on resources; both lift to all
    sets by unions.  Strict mode demands on-the-nose equality of the
    star/action squares, oplax mode only inclusion (left side inside the
    right).  Free transformations must land inside the target free set in
    both modes.
    """
    if mode not in ("strict", "oplax"):
        raise FormatError(f"unknown morphism mode {mode!r}")
    ell_masks = [dst.tmask(ell[name]) for name in src.transformations]
    f_masks = [dst.xmask(f[name]) for name in src.resources]
    ok = (lambda a, b: a == b) if mode == "strict" else (lambda a, b: a & ~b == 0)
    out = []
    t, x = src.transformations, src.resources
    for i in range(len(t)):
        for j in range(len(t)):
            if not ok(_union(ell_masks, src.star_table[i][j]),
                      dst.star_set(ell_masks[i], ell_masks[j])):
                out.append(Violation("StarMismatch", (t[i], t[j])))
    for i in range(len(t)):
        for k in range(len(x)):
            if not ok(_union(f_masks, src.act_table[i][k]),
                      dst.act_set(ell_masks[i], f_masks[k])):
                out.append(Violation("ActionMismatch", (t[i], x[k])))
    if _union(ell_masks, src.free_mask) & ~dst.free_mask:
        out.append(Violation("FreePreservationViolation"))
    return out


def test_support_morphism_is_strict():
    ell, f = support_morphism()
    src, dst = stochastic_pair_module(), boolean_pair_module()
    assert validate(src) == [] and validate(dst) == []
    assert check_morphism(src, dst, ell, f, mode="strict") == []
    assert check_morphism(src, dst, ell, f, mode="oplax") == []


def test_tampered_morphism_reports_mismatch():
    ell, f = support_morphism()
    src, dst = stochastic_pair_module(), boolean_pair_module()
    bad = dict(ell)
    bad["mix"] = ["b10_01"]  # claims averaging has identity support
    kinds = {v.kind for v in check_morphism(src, dst, bad, f)}
    assert kinds & {"StarMismatch", "ActionMismatch"}


def test_morphism_free_preservation():
    ell, f = support_morphism()
    src, dst = stochastic_pair_module(), boolean_pair_module()
    # shrink the target free set so ell(mix) escapes it
    doc = dst.to_json()
    doc["free"] = ["b10_01"]
    smaller = FiniteQuantaleModule.from_json(doc)
    kinds = {v.kind for v in check_morphism(src, smaller, ell, f)}
    assert "FreePreservationViolation" in kinds


def test_oplax_vs_strict():
    m = downset_module(chain(2))
    every = sorted(m.transformations)
    ell = {t: every for t in m.transformations}
    f = {x: [x] for x in m.resources}
    assert check_morphism(m, m, ell, f, mode="oplax") == []
    assert check_morphism(m, m, ell, f, mode="strict") != []
    with pytest.raises(FormatError):
        check_morphism(m, m, ell, f, mode="lax")


def test_morphism_mode_unknown_rejected_before_work():
    m = downset_module(chain(2))
    with pytest.raises(FormatError):
        check_morphism(m, m, {}, {}, mode="sideways")


# --- commutative quantales -------------------------------------------------


def test_max_quantale_is_lawful():
    assert validate_quantale(max_quantale()) == []


def test_validate_quantale_reports_an_asymmetric_box():
    # built directly; JSON and ``build`` mirror only the cells a document leaves
    # out, so one that gives both cells differently is reported the same way
    q = max_quantale()
    box = [list(row) for row in q.star_table]
    box[1][2] = q.xmask(["1"])  # 1 box 2 = {1}, but 2 box 1 = {2}
    box = tuple(map(tuple, box))
    bad = CommutativeQuantale(q.resources, q.resources, box, box, q.unit_mask, q.free_mask)
    violations = validate_quantale(bad)
    assert violations[0] == Violation("CommutativityViolation", ("1", "2"))
    assert [v for v in violations if v.kind == "CommutativityViolation"] == violations[:1]
    doc = q.to_json()
    doc["box"]["2,1"] = ["1"]  # 1 box 2 = {2}, but 2 box 1 = {1}
    assert validate_quantale(CommutativeQuantale.from_json(doc))[0] == violations[0]
    # either triangle alone gives the symmetric table
    lower = {",".join(key.split(",")[::-1]): out for key, out in q.to_json()["box"].items()}
    assert CommutativeQuantale.from_json({**q.to_json(), "box": lower}) == q


def test_validate_quantale_associativity_matches_validate():
    names = ("0", "1", "2")
    box = {(a, b): [max(a, b)] for a in names for b in names}
    box[("2", "2")] = ["0"]  # commutative, but (1 box 2) box 2 = {0} and 1 box (2 box 2) = {1}
    q = CommutativeQuantale.build(names, box, unit=["0"], free=["0"])

    def triples(violations):
        return [v.witness for v in violations if v.kind == "AssociativityViolation"]

    assert triples(validate_quantale(q)) == triples(validate(q)) == [
        ("1", "2", "2"), ("2", "2", "1")]


def test_quantale_json_roundtrip():
    q = max_quantale()
    assert CommutativeQuantale.from_json(q.to_json()) == q


def test_catalysis_pinned():
    q = max_quantale()
    assert not ucrt_order(q, ["0"], ["1"])
    assert catalytic_order(q, "2", ["0"], ["1"])
    assert catalytic_order(q, "2", ["1"], ["0"])  # the catalyst flattens both sides


def test_ucrt_order_details():
    q = max_quantale()
    # free x S = {max(0,s)} = S, so T must be a subset of S
    assert ucrt_order(q, ["1"], ["1"])
    assert not ucrt_order(q, ["1"], ["2"])
    assert ucrt_order(q, ["2", "1"], ["1"])


def test_induced_module_matches_ucrt():
    """A commutative quantale is a module over itself: its reachability is
    the UCRT order."""
    q = max_quantale()
    assert isinstance(q, FiniteQuantaleModule)
    assert validate(q) == []
    p = reachability(q)
    names = q.resources
    for a in range(len(names)):
        for b in range(len(names)):
            assert p.geq(a, b) == ucrt_order(q, [names[a]], [names[b]])
