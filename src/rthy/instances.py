"""Bundled worked instances: encodings, channels and toy modules used in
tests, docs and the demo scripts.

The two 3-hypothesis encodings ``incomparable_x``/``incomparable_y`` are
the classic pair that is incomparable under hypothesis-independent
post-processing even though the 2-outcome reachable set of one contains
the other's; the toy modules exercise reachability, cost/yield and
covariance on hand-checkable carriers.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import Dict, List, Tuple

from .channels import ChannelEncoding
from .exactmath import F0, F1
from .majorize import Encoding
from .order import FinitePreorder, all_downsets, chain, down_closure
from .quantale import CommutativeQuantale, FiniteQuantaleModule, PermutationAction

H = Fraction(1, 2)


def incomparable_x() -> Encoding:
    """4-outcome encoding: a fair coin between outcome 0 and outcome h."""
    return Encoding.from_rows([
        [H, H, H],
        [H, F0, F0],
        [F0, H, F0],
        [F0, F0, H],
    ])


def incomparable_y() -> Encoding:
    """3-outcome encoding: a fair coin between outcomes h and h+2 (mod 3)."""
    return Encoding.from_rows([
        [H, F0, H],
        [H, H, F0],
        [F0, H, H],
    ])


def binary_image_of_x() -> Encoding:
    """2-outcome post-processing of incomparable_x (merge outcomes 0,2,3)
    that no post-processing of incomparable_y can reach."""
    return Encoding.from_rows([
        [H, F0, F0],
        [H, F1, F1],
    ])


def two_point_encoding(lam, nu) -> Encoding:
    """2x2 encoding with top row (lam, nu)."""
    lam, nu = Fraction(lam), Fraction(nu)
    return Encoding.from_rows([[lam, nu], [1 - lam, 1 - nu]])


# --------------------------------------------------------------------------
# Channel instances
# --------------------------------------------------------------------------


def channel_x() -> ChannelEncoding:
    """4-output channel: coin between output 0 and output a+h (mod 4), with
    hypotheses h in {1,2,3} and a a 4-valued input."""
    cols = []
    for h in (1, 2, 3):
        for a in range(4):
            col = [F0] * 4
            col[0] += H
            col[(a + h) % 4] += H
            cols.append(col)
    return ChannelEncoding.from_columns(cols, 4)


def channel_y() -> ChannelEncoding:
    """3-output channel: coin between outputs a+h and a+h+2 (mod 3), with
    hypotheses h in {1,2,3} and a 3-valued input."""
    cols = []
    for h in (1, 2, 3):
        for a in range(3):
            col = [F0] * 3
            col[(a + h) % 3] += H
            col[(a + h + 2) % 3] += H
            cols.append(col)
    return ChannelEncoding.from_columns(cols, 3)


def comb_witness_x() -> ChannelEncoding:
    """Deterministic post-processing sigma rebuilding channel_x from its a=0
    state encoding: keep output 0, otherwise add the input."""
    cols = []
    for b in range(4):
        for a in range(4):
            target = 0 if b == 0 else (b + a) % 4
            cols.append([F1 if o == target else F0 for o in range(4)])
    return ChannelEncoding.from_columns(cols, 4)


def comb_witness_y() -> ChannelEncoding:
    """Deterministic post-processing sigma rebuilding channel_y: add the input."""
    cols = []
    for b in range(3):
        for a in range(3):
            target = (b + a) % 3
            cols.append([F1 if o == target else F0 for o in range(3)])
    return ChannelEncoding.from_columns(cols, 3)


def input_ignoring_channel(x: Encoding, inputs: int) -> ChannelEncoding:
    """Channel that discards its input and emits the encoding x."""
    return ChannelEncoding.from_columns(
        [x.column(h) for h in range(x.hypotheses) for _ in range(inputs)], inputs)


# --------------------------------------------------------------------------
# Toy modules
# --------------------------------------------------------------------------


def _function_name(images: tuple) -> str:
    """``f`` then each image index, ``x`` where undefined; indices of 10 or
    more are bracketed (``f0(11)0``), so no two maps share a name."""
    return "f" + "".join("x" if i is None else str(i) if i < 10 else f"({i})" for i in images)


def _compose(f: tuple, g: tuple) -> tuple:
    """f after g, for maps given as image tuples; None marks an undefined point."""
    return tuple(None if gi is None else f[gi] for gi in g)


def _map_module(maps: dict, points: dict, compose, apply, unit, free) -> FiniteQuantaleModule:
    """Module of the named ``maps`` acting on the named ``points``.

    The star cell (a, b) names ``compose(maps[a], maps[b])`` and the action
    cell (a, x) names ``apply(maps[a], points[x])``; an ``apply`` that
    returns None leaves its cell empty.
    """
    map_name = {f: a for a, f in maps.items()}
    point_name = {v: x for x, v in points.items()}
    star = {(a, b): [map_name[compose(f, g)]] for a, f in maps.items() for b, g in maps.items()}
    act = {(a, x): [point_name[out]] for a, f in maps.items() for x, v in points.items()
           if (out := apply(f, v)) is not None}
    return FiniteQuantaleModule.build(list(maps), list(points), star, act, unit, free)


def function_module(p: FinitePreorder, names=None,
                    all_functions: bool = False) -> FiniteQuantaleModule:
    """Module of self-maps of a finite preorder's carrier.

    Free transformations are the non-increasing maps (f(x) below x);
    with ``all_functions`` the carrier of transformations is every map,
    otherwise just the free ones.  Action: f |> x = {f(x)}; composition
    is the star.
    """
    n = p.size
    if names is None:
        names = tuple(str(i) for i in range(n))
    downs = [sorted(i for i in range(n) if p.geq(x, i)) for x in range(n)]
    if all_functions:
        pool = list(itertools.product(range(n), repeat=n))
    else:
        pool = [tuple(c) for c in itertools.product(*downs)]
    pool = sorted(set(pool))
    maps = {_function_name(f): f for f in pool}
    free = [a for a, f in maps.items() if all(f[x] in downs[x] for x in range(n))]
    return _map_module(maps, {names[x]: x for x in range(n)}, _compose, operator.getitem,
                       unit=[_function_name(tuple(range(n)))], free=free)


def three_chain_module() -> FiniteQuantaleModule:
    """All 27 self-maps of a 3-chain, free = the 6 non-increasing ones."""
    return function_module(chain(3), all_functions=True)


def diamond_preorder() -> FinitePreorder:
    """2 above the incomparable pair 1, 1p, all above 0."""
    pairs = [(i, i) for i in range(4)] + [(3, 1), (3, 2), (1, 0), (2, 0)]
    return FinitePreorder(4, pairs)


def diamond_module() -> FiniteQuantaleModule:
    """Non-increasing maps of the diamond order on {0, 1, 1p, 2}."""
    return function_module(diamond_preorder(), names=("0", "1", "1p", "2"))


def downset_module(p: FinitePreorder) -> FiniteQuantaleModule:
    """Small canonical module realizing a given preorder as its reachability.

    One projection transformation per downset (acting by intersecting the
    down-closure), plus an identity; free is everything.  Its transformation
    count is #downsets + 1, which keeps exhaustive sweeps cheap.
    """
    n = p.size
    names = tuple(str(i) for i in range(n))
    downsets = all_downsets(p)
    dnames = []
    star = {}
    act = {}
    tags = {}
    for d in downsets:
        tag = "proj" + "".join(str(i) for i in sorted(d))
        tags[d] = tag
        dnames.append(tag)
    for d in downsets:
        for e in downsets:
            star[(tags[d], tags[e])] = [tags[frozenset(d & e)]]
        star[("ident", tags[d])] = [tags[d]]
        star[(tags[d], "ident")] = [tags[d]]
        for x in range(n):
            act[(tags[d], names[x])] = [names[i] for i in d & down_closure(p, [x])]
    star[("ident", "ident")] = ["ident"]
    for x in range(n):
        act[("ident", names[x])] = [names[x]]
    return FiniteQuantaleModule.build(
        transformations=["ident"] + dnames,
        resources=list(names),
        star=star,
        act=act,
        unit=["ident"],
        free=["ident"] + dnames,
    )


def two_level_module() -> Tuple[FiniteQuantaleModule, str]:
    """Two disjoint 3-chains 2>1>0 and 2p>1p>0p, free = per-chain
    non-increasing maps, plus one non-free level-drop map u sending
    2->1p, 1->0p, 2p->1, 1p->0 (undefined on the bottoms).

    Returns (module, name_of_u).  The transformation carrier is the
    star-closure of free + u (76 partial maps).
    """
    names = ("0", "1", "2", "0p", "1p", "2p")
    n = 6
    downs = [[0], [0, 1], [0, 1, 2], [3], [3, 4], [3, 4, 5]]
    free_pool = [tuple(c) for c in itertools.product(*downs)]
    u = (None, 3, 4, None, 0, 1)
    pool = set(free_pool) | {u}
    while True:
        snapshot = list(pool)
        fresh = {_compose(f, g) for f in snapshot for g in snapshot} - pool
        if not fresh:
            break
        pool |= fresh
    atoms = sorted(pool, key=lambda t: tuple(-1 if v is None else v for v in t))
    module = _map_module(
        {_function_name(f): f for f in atoms}, {names[x]: x for x in range(n)},
        _compose, operator.getitem,
        unit=[_function_name(tuple(range(n)))],
        free=[_function_name(f) for f in free_pool],
    )
    return module, _function_name(u)


def rotation_module() -> Tuple[FiniteQuantaleModule, PermutationAction]:
    """A base point plus a 3-cycle orbit; transformations are the three
    rotations, the collapse-to-base map, and the three constant maps onto
    orbit points.  Returns the module and the cyclic action."""

    def rot(k):
        return (0, 1 + (0 + k) % 3, 1 + (1 + k) % 3, 1 + (2 + k) % 3)

    maps = {
        "rot0": rot(0),
        "rot1": rot(1),
        "rot2": rot(2),
        "to_base": (0, 0, 0, 0),
        "const1": (1, 1, 1, 1),
        "const2": (2, 2, 2, 2),
        "const3": (3, 3, 3, 3),
    }
    points = {"base": 0, "orb1": 1, "orb2": 2, "orb3": 3}
    module = _map_module(maps, points, _compose, operator.getitem, unit=["rot0"], free=["rot0"])
    action = PermutationAction([rot(0), rot(1), rot(2)])
    return module, action


def max_quantale() -> CommutativeQuantale:
    """Levels {0,1,2} combined by max; only level 0 is free.

    A catalysis example: level 1 is not freely reachable from level 0,
    but in the presence of a level-2 catalyst both sides collapse to 2.
    """
    names = ("0", "1", "2")
    box = {}
    for i in range(3):
        for j in range(3):
            box[(names[i], names[j])] = [names[max(i, j)]]
    return CommutativeQuantale.build(names, box, unit=["0"], free=["0"])


# --------------------------------------------------------------------------
# A stochastic-to-Boolean morphism instance
# --------------------------------------------------------------------------


def stochastic_pair_module() -> FiniteQuantaleModule:
    """Five 2x2 stochastic matrices acting on {(1,0), (0,1), (1/2,1/2)}."""
    mats = {
        "id": ((F1, F0), (F0, F1)),
        "swap": ((F0, F1), (F1, F0)),
        "mix": ((H, H), (H, H)),
        "to0": ((F1, F1), (F0, F0)),
        "to1": ((F0, F0), (F1, F1)),
    }
    vecs = {"p0": (F1, F0), "p1": (F0, F1), "even": (H, H)}

    def dot(row, col):
        return sum((a * b for a, b in zip(row, col)), F0)

    return _map_module(
        mats, vecs,
        lambda ma, mb: tuple(tuple(dot(row, col) for col in zip(*mb)) for row in ma),
        lambda ma, v: tuple(dot(row, v) for row in ma),
        unit=["id"], free=["id", "mix"],
    )


def boolean_pair_module() -> FiniteQuantaleModule:
    """All nine 2x2 Boolean matrices with nonzero columns acting on supports."""
    cols = ((1, 0), (0, 1), (1, 1))
    code = {(1, 0): "10", (0, 1): "01", (1, 1): "11"}
    mats = {}
    for c0 in cols:
        for c1 in cols:
            mats[f"b{code[c0]}_{code[c1]}"] = ((c0[0], c1[0]), (c0[1], c1[1]))
    vecs = {"s10": (1, 0), "s01": (0, 1), "s11": (1, 1)}

    def dot(row, col):
        return int(any(a and b for a, b in zip(row, col)))

    return _map_module(
        mats, vecs,
        lambda ma, mb: tuple(tuple(dot(row, col) for col in zip(*mb)) for row in ma),
        lambda ma, v: tuple(dot(row, v) for row in ma),
        unit=["b10_01"], free=["b10_01", "b11_11"],
    )


def support_morphism() -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """The (ell, f) tables of the support-pattern morphism between the two
    modules above."""
    ell = {
        "id": ["b10_01"],
        "swap": ["b01_10"],
        "mix": ["b11_11"],
        "to0": ["b10_10"],
        "to1": ["b01_01"],
    }
    f = {"p0": ["s10"], "p1": ["s01"], "even": ["s11"]}
    return ell, f
