"""Finite quantale modules with designated free transformation sets.

Atoms (transformations and resources) are identified by name; subsets
travel through the API as frozensets of names and live internally as
bitmasks.  Composition/action tables are total, with absent entries
meaning the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, count, product
from operator import itemgetter, or_
from typing import Dict, FrozenSet, Iterable, Tuple

from .errors import FormatError, InvalidModule, NotReflexiveTransitive
from .order import FinitePreorder, _bits


@dataclass(frozen=True)
class Violation:
    """Named axiom failure with the witnessing atoms."""

    kind: str
    witness: tuple = ()

    def __str__(self):
        if self.witness:
            return f"{self.kind}{self.witness}"
        return self.kind


def _index_names(names) -> Tuple[tuple, dict]:
    names = tuple(names)
    for n in names:
        if not isinstance(n, str):
            raise FormatError(f"atom name {n!r} is not a string")
        if "," in n:
            raise FormatError(f"atom name {n!r} may not contain a comma")
    if len(set(names)) != len(names):
        raise FormatError("duplicate atom names")
    return names, {n: i for i, n in enumerate(names)}


def _atom_lists(doc, keys: tuple, message: str) -> list:
    """The JSON lists ``doc[key]`` for each key; ``message`` if one is not a list."""
    lists = [doc.get(k) for k in keys] if isinstance(doc, dict) else [None]
    if not all(isinstance(names, list) for names in lists):
        raise FormatError(message)
    return lists


def _mask_from(subset, index: dict) -> int:
    """Bitmask of a list (or set) of atom names, as read from JSON."""
    if not isinstance(subset, (list, tuple, set, frozenset)):
        raise FormatError(f"an atom set must be a list of names, not {type(subset).__name__}")
    mask = 0
    for item in subset:
        if not isinstance(item, str) or item not in index:
            raise FormatError(f"unknown atom {item!r}")
        mask |= 1 << index[item]
    return mask


def _as_mask(subset, index: dict) -> int:
    """``_mask_from``, except that an int is taken as a bitmask already."""
    return subset if isinstance(subset, int) else _mask_from(subset, index)


def _names_from(mask: int, names: tuple) -> FrozenSet[str]:
    return frozenset(names[i] for i in _bits(mask))


# Composition and action tables: ``table[i][j]`` is the bitmask of the
# product of row atom i and column atom j; JSON spells a cell ``"a,b"``.


def _json_cells(section):
    """The ``("a,b", names)`` cells of a JSON table."""
    if not isinstance(section, dict):
        raise FormatError("a table must be a JSON object with 'a,b' keys")
    return section.items()


def _key_cells(row_names: tuple, col_names: tuple):
    """Where each JSON key lands: ``{"a,b": i * len(col_names) + j}.get``."""
    return dict(zip(map(",".join, product(row_names, col_names)), count())).get


def _pair_cells(row_index: dict, col_index: dict):
    """Where each ``(a, b)`` key lands, as ``_key_cells`` places JSON keys."""
    width = len(col_index)

    def where(pair):
        a, b = pair
        try:
            return row_index[a] * width + col_index[b]
        except KeyError:
            return None
    return where


def _key_fault(key, out, col_index: dict) -> FormatError:
    """Why a cell's key has no place: a JSON key that is not two names, else
    a fault in the cell's names, else an atom the key names that is unknown."""
    if isinstance(key, str):
        if key.count(",") != 1:
            return FormatError(f"table key {key!r} is not two comma-separated atom names")
    else:
        key = "{},{}".format(*key)
    _mask_from(out, col_index)
    return FormatError(f"table key '{key}' names an unknown atom")


def _table(cells, nrows: int, col_index: dict, where, symmetric: bool = False) -> tuple:
    """Bitmask table of ``cells``; cells hold column atoms, absent cells are empty.

    ``cells`` is a dict or an iterable of ``(key, names)`` pairs, read in one
    pass; ``where(key)`` is the key's flat index ``i * len(col_index) + j``,
    or None, and only then is the key diagnosed (``_key_fault``).
    ``symmetric`` also fills the mirror of each cell where ``cells`` leaves it
    out, so one triangle gives a symmetric table and cells given both ways
    stay as given.  Each distinct list of names is read by ``_mask_from``
    once, at its first occurrence, so errors are raised as if every cell
    were read.
    """
    width = len(col_index)
    flat = [0] * (nrows * width)
    masks = {}  # tuple of a list's names -> its mask
    given = set()  # cells that ``cells`` names, when ``symmetric``
    for key, out in (cells.items() if isinstance(cells, dict) else cells):
        n = where(key)
        if n is None:
            raise _key_fault(key, out, col_index)
        names = tuple(out) if isinstance(out, list) else None
        try:
            mask = masks[names]
        except (KeyError, TypeError):  # a first occurrence, or names that are not hashable
            mask = _mask_from(out, col_index)
            if names is not None:
                masks[names] = mask
        flat[n] = mask
        if symmetric:
            given.add(n)
            i, j = divmod(n, width)
            if j * width + i not in given:
                flat[j * width + i] = mask
    return tuple(tuple(flat[i * width:(i + 1) * width]) for i in range(nrows))


def _table_to_json(table: tuple, row_names: tuple, col_names: tuple, upper: bool = False) -> dict:
    """Nonempty cells as ``{"a,b": sorted names}``; ``upper`` skips cells below the diagonal."""
    return {
        f"{a},{b}": sorted(_names_from(table[i][j], col_names))
        for i, a in enumerate(row_names)
        for j, b in enumerate(col_names)
        if table[i][j] and not (upper and j < i)
    }


def _lift(table: tuple, left: int, right: int) -> int:
    """Product of two atom sets: the union of the cells of ``left`` x ``right``.

    The atoms of ``right`` are resolved once, not per row of ``left``: one
    column is read by index, several by one ``itemgetter``.
    """
    if right & (right - 1):
        get = itemgetter(*_bits(right))
        return reduce(or_, chain.from_iterable(map(get, map(table.__getitem__, _bits(left)))), 0)
    if not right:
        return 0
    j = right.bit_length() - 1
    if left & (left - 1):
        return reduce(or_, [table[i][j] for i in _bits(left)], 0)
    return table[left.bit_length() - 1][j] if left else 0


def _union(images, mask: int) -> int:
    """Image of an atom set under an atom-wise map: the union of ``images[i]``."""
    out = 0
    for i in _bits(mask):
        out |= images[i]
    return out


def _assoc_sweep(table: tuple, right_table: tuple) -> list:
    """Atom triples (i, j, k) where (i·j)·k differs from i·(j·k), in i, j, k order.

    ``table`` composes the first two atoms (star, or box); ``right_table``
    applies the result to k (the same table, or the action).  Each row atom
    i compares two flat sequences over every (j, k).  The right one lifts
    each distinct cell of ``right_table`` through row i once (a singleton
    {b} to row_i[b], any other cell to a union) and spreads the lifts over
    the table; the left one chains, over j, the row of cell ``table[i][j]``:
    the union of the ``right_table`` rows of its atoms.  Only rows i whose
    sequences differ are scanned for their (j, k).

    The sequences are byte strings when the masks met (the cells, their
    lifts and the left rows) are at most 256, one byte id each.  The cells
    of ``right_table`` take the first ids, so the right side is the bytes
    of its cell ids translated through row i's lift ids, and a singleton's
    left row is a slice of those bytes.  Past 256 masks no byte names them
    all, and tuples of the masks themselves are compared instead.
    """
    width = len(right_table[0]) if right_table else 0
    if not width:
        return []
    cells = set(chain.from_iterable(right_table))
    singles = [c for c in cells if c and not c & (c - 1)]
    order = singles + list(cells.difference(singles))
    single_atoms = [c.bit_length() - 1 for c in singles]
    other_atoms = [tuple(_bits(c)) for c in order[len(singles):]]
    lifts = []  # lifts[i][n]: cell order[n] lifted through row i
    for row in right_table:
        get = row.__getitem__
        lift = list(map(get, single_atoms))
        lift += [reduce(or_, map(get, atoms), 0) for atoms in other_atoms]
        lifts.append(lift)
    # each distinct cell of ``table``: its one atom, or the union of its atoms' rows
    left_atom, left_union = {}, {}
    for c in set(chain.from_iterable(table)):
        if c and not c & (c - 1):
            left_atom[c] = c.bit_length() - 1
        else:
            row = (0,) * width
            for a in _bits(c):
                row = tuple(map(or_, row, right_table[a]))
            left_union[c] = row
    masks = cells.union(*lifts, *left_union.values())
    if len(masks) <= 256:
        idg = dict(zip(chain(order, masks.difference(cells)), count())).__getitem__
        flat = bytes(map(idg, chain.from_iterable(right_table)))
        pad = bytes(256 - len(order))
        left_of = {c: flat[a * width:(a + 1) * width] for c, a in left_atom.items()}
        left_of.update((c, bytes(map(idg, row))) for c, row in left_union.items())

        def spread(lift):
            return flat.translate(bytes(map(idg, lift)) + pad)
        join = b"".join
    else:
        index = {c: n for n, c in enumerate(order)}
        # T x width > 1 here (a 1 x 1 table meets at most three masks), so ``spread`` gives tuples
        spread = itemgetter(*map(index.__getitem__, chain.from_iterable(right_table)))
        left_of = {c: right_table[a] for c, a in left_atom.items()}
        left_of.update(left_union)

        def join(rows):
            return tuple(chain.from_iterable(rows))
    get = left_of.__getitem__
    out = []
    for i, lift in enumerate(lifts):
        right = spread(lift)
        left = join(map(get, table[i]))
        if left != right:
            out.extend((i, *divmod(n, width)) for n, (a, b) in enumerate(zip(left, right)) if a != b)
    return out


@dataclass(frozen=True)
class FiniteQuantaleModule:
    transformations: tuple
    resources: tuple
    star_table: tuple  # star_table[i][j] = bitmask over transformations
    act_table: tuple   # act_table[i][x]  = bitmask over resources
    unit_mask: int
    free_mask: int
    _tindex: dict = field(compare=False, repr=False, default=None)
    _xindex: dict = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_tindex", {n: i for i, n in enumerate(self.transformations)})
        object.__setattr__(self, "_xindex", {n: i for i, n in enumerate(self.resources)})

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(transformations, resources, star, act, unit, free) -> "FiniteQuantaleModule":
        """The module with these atoms; ``star`` and ``act`` map ``(a, b)`` to
        a list of names, as dicts or as iterables of pairs (see ``_table``)."""
        tnames, tindex = _index_names(transformations)
        xnames, xindex = _index_names(resources)
        return FiniteQuantaleModule(
            transformations=tnames,
            resources=xnames,
            star_table=_table(star, len(tnames), tindex, _pair_cells(tindex, tindex)),
            act_table=_table(act, len(tnames), xindex, _pair_cells(tindex, xindex)),
            unit_mask=_mask_from(unit, tindex),
            free_mask=_mask_from(free, tindex),
        )

    @staticmethod
    def from_json(doc) -> "FiniteQuantaleModule":
        """The module of a ``{"T", "X", "star", "act", "unit", "free"}`` document;
        each table is read through one ``"a,b"`` key map (``_key_cells``)."""
        tlist, xlist = _atom_lists(doc, ("T", "X"), "module JSON needs 'T' and 'X' atom lists")
        tnames, tindex = _index_names(tlist)
        xnames, xindex = _index_names(xlist)
        return FiniteQuantaleModule(
            transformations=tnames,
            resources=xnames,
            star_table=_table(_json_cells(doc.get("star", {})), len(tnames), tindex,
                              _key_cells(tnames, tnames)),
            act_table=_table(_json_cells(doc.get("act", {})), len(tnames), xindex,
                             _key_cells(tnames, xnames)),
            unit_mask=_mask_from(doc.get("unit", []), tindex),
            free_mask=_mask_from(doc.get("free", []), tindex),
        )

    def to_json(self) -> dict:
        t, x = self.transformations, self.resources
        return {
            "T": list(t),
            "X": list(x),
            "unit": sorted(self.t_set(self.unit_mask)),
            "free": sorted(self.t_set(self.free_mask)),
            "star": _table_to_json(self.star_table, t, t),
            "act": _table_to_json(self.act_table, t, x),
        }

    @property
    def free(self) -> FrozenSet[str]:
        return _names_from(self.free_mask, self.transformations)

    @property
    def unit(self) -> FrozenSet[str]:
        return _names_from(self.unit_mask, self.transformations)

    # -- masks and lifted operations ---------------------------------------

    def tmask(self, subset) -> int:
        return _as_mask(subset, self._tindex)

    def xmask(self, subset) -> int:
        return _as_mask(subset, self._xindex)

    def t_set(self, mask: int) -> FrozenSet[str]:
        return _names_from(mask, self.transformations)

    def x_set(self, mask: int) -> FrozenSet[str]:
        return _names_from(mask, self.resources)

    def star_set(self, left: int, right: int) -> int:
        return _lift(self.star_table, left, right)

    def act_set(self, tmask: int, xmask: int) -> int:
        return _lift(self.act_table, tmask, xmask)


def validate(m: FiniteQuantaleModule) -> list:
    """All module/free-set axiom violations, each naming its witnesses.

    Associativity of star and the mixed law (S*T) |> Y = S |> (T |> Y) are
    checked on atom triples (unions lift them to all sets) by
    ``_assoc_sweep``, a row at a time; violations are listed in triple
    order, star before mixed.
    """
    t, x = m.transformations, m.resources
    out = [Violation("AssociativityViolation", (t[i], t[j], t[k]))
           for i, j, k in _assoc_sweep(m.star_table, m.star_table)]
    out += [Violation("MixedAssociativityViolation", (t[i], t[j], x[k]))
            for i, j, k in _assoc_sweep(m.star_table, m.act_table)]
    # the unit is an identity for the action and neutral for star
    for k in range(len(x)):
        if m.act_set(m.unit_mask, 1 << k) != 1 << k:
            out.append(Violation("UnitActionViolation", (x[k],)))
    for i in range(len(t)):
        if m.star_set(m.unit_mask, 1 << i) != 1 << i or m.star_set(1 << i, m.unit_mask) != 1 << i:
            out.append(Violation("UnitStarViolation", (t[i],)))
    # free set: reflexive (contains the unit) and closed under star
    if m.unit_mask & ~m.free_mask:
        out.append(Violation("FreeNotReflexive"))
    if m.star_set(m.free_mask, m.free_mask) & ~m.free_mask:
        out.append(Violation("FreeNotIdempotent"))
    return out


def reachability(m: FiniteQuantaleModule) -> FinitePreorder:
    """Atom-level convertibility order: y dominates z iff z is in the free image of y."""
    violations = validate(m)
    if violations:
        raise InvalidModule(violations)
    pairs = []
    for y in range(len(m.resources)):
        image = m.act_set(m.free_mask, 1 << y)
        for z in _bits(image):
            pairs.append((y, z))
    return FinitePreorder(len(m.resources), pairs)


@dataclass(frozen=True)
class Augmentation:
    """Quotient of the resource atoms by equality of B-images."""

    classes: tuple  # tuple of frozensets of resource names
    images: tuple   # the shared B-image of each class
    order: FinitePreorder  # class order by inclusion of images


def augment(m: FiniteQuantaleModule, b_subset) -> Augmentation:
    bmask = m.tmask(b_subset)
    if m.unit_mask & ~bmask:
        raise NotReflexiveTransitive("augmentation set does not contain the unit")
    if m.star_set(bmask, bmask) & ~bmask:
        raise NotReflexiveTransitive("augmentation set not closed under star")
    by_image: Dict[int, list] = {}
    for x in range(len(m.resources)):
        img = m.act_set(bmask, 1 << x)
        by_image.setdefault(img, []).append(x)
    items = sorted(by_image.items(), key=lambda kv: kv[1][0])
    classes = tuple(frozenset(m.resources[i] for i in atoms) for _, atoms in items)
    images = tuple(m.x_set(img) for img, _ in items)
    pairs = []
    for i, (img_i, _) in enumerate(items):
        for j, (img_j, _) in enumerate(items):
            if img_j & ~img_i == 0:  # img_i contains img_j
                pairs.append((i, j))
    return Augmentation(classes=classes, images=images,
                        order=FinitePreorder(len(items), pairs))


def is_left_invariant(m: FiniteQuantaleModule, subset) -> bool:
    smask = m.tmask(subset)
    return m.star_set(m.free_mask, smask) & ~smask == 0


def is_right_invariant(m: FiniteQuantaleModule, subset) -> bool:
    smask = m.tmask(subset)
    return m.star_set(smask, m.free_mask) & ~smask == 0


# --------------------------------------------------------------------------
# Actions on the resource carrier (groups or plain monoids of functions)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionAction:
    """Composition-closed set of self-maps of the resource atoms.

    ``maps`` are tuples of atom indices; the identity must be present and
    the set closed under composition (a finite monoid of functions).
    """

    maps: tuple

    def __init__(self, maps: Iterable):
        maps = tuple(tuple(mp) for mp in maps)
        if not maps:
            raise FormatError("action needs at least the identity map")
        n = len(maps[0])
        if any(len(mp) != n for mp in maps):
            raise FormatError("action maps have inconsistent lengths")
        if any(not (0 <= v < n) for mp in maps for v in mp):
            raise FormatError("action map value out of range")
        pool = set(maps)
        if tuple(range(n)) not in pool:
            raise FormatError("action does not contain the identity map")
        for f in maps:
            for g in maps:
                comp = tuple(f[g[i]] for i in range(n))
                if comp not in pool:
                    raise FormatError("action is not closed under composition")
        object.__setattr__(self, "maps", maps)

    @property
    def degree(self) -> int:
        return len(self.maps[0])


class PermutationAction(FunctionAction):
    """A FunctionAction whose maps are all bijections (a permutation group)."""

    def __init__(self, maps: Iterable):
        super().__init__(maps)
        for mp in self.maps:
            if len(set(mp)) != len(mp):
                raise FormatError("permutation action contains a non-bijective map")


def action_from_names(m: FiniteQuantaleModule, maps, permutations: bool = True) -> FunctionAction:
    """Build an action from name-based maps: either dicts {atom: image} or
    lists where position k holds the image of resource atom k."""
    if not isinstance(maps, (list, tuple)):
        raise FormatError("action 'maps' must be a list of maps")
    idx = []
    for mp in maps:
        if not isinstance(mp, (dict, list, tuple)):
            raise FormatError("an action map must be a list of names or a {name: name} object")
        try:
            images = [mp[name] for name in m.resources] if isinstance(mp, dict) else mp
            idx.append([m._xindex[name] for name in images])
        except KeyError as exc:
            raise FormatError(f"action map mentions unknown atom {exc}") from exc
        except TypeError as exc:  # an image that is not a name, e.g. a list
            raise FormatError("action map images must be atom names") from exc
    cls = PermutationAction if permutations else FunctionAction
    return cls(idx)


def is_g_compatible(m: FiniteQuantaleModule, subset, action: FunctionAction) -> bool:
    """Set-level equivariance: the action of ``subset`` commutes with every map."""
    if action.degree != len(m.resources):
        raise FormatError("action degree does not match resource count")
    smask = m.tmask(subset)
    for mp in action.maps:
        images = [1 << v for v in mp]
        for x in range(len(m.resources)):
            lhs = _union(images, m.act_set(smask, 1 << x))
            rhs = m.act_set(smask, 1 << mp[x])
            if lhs != rhs:
                return False
    return True


def covariant_transformations(m: FiniteQuantaleModule, action: FunctionAction) -> FrozenSet[str]:
    """Atoms that individually commute with every map of the action."""
    if action.degree != len(m.resources):
        raise FormatError("action degree does not match resource count")
    out = []
    for t, name in enumerate(m.transformations):
        if is_g_compatible(m, 1 << t, action):
            out.append(name)
    return frozenset(out)


# --------------------------------------------------------------------------
# Commutative quantales and the catalytic order
# --------------------------------------------------------------------------


class CommutativeQuantale(FiniteQuantaleModule):
    """A commutative quantale R as the module it is over itself.

    Its transformations and its resources are both R, and one symmetric
    table (the quantale's product, ``box`` in JSON) serves as both
    ``star_table`` and ``act_table``.  So ``validate(q)`` and
    ``reachability(q)`` apply to q as they stand; only the JSON schema,
    ``{"R", "box", "unit", "free"}``, is its own.
    """

    @staticmethod
    def build(resources, box, unit, free) -> "CommutativeQuantale":
        names, index = _index_names(resources)
        return CommutativeQuantale._of(names, index, box, _pair_cells(index, index), unit, free)

    @staticmethod
    def from_json(doc) -> "CommutativeQuantale":
        names, = _atom_lists(doc, ("R",), "quantale JSON needs an 'R' atom list")
        names, index = _index_names(names)
        return CommutativeQuantale._of(names, index, _json_cells(doc.get("box", {})),
                                       _key_cells(names, names), doc.get("unit", []),
                                       doc.get("free", []))

    @staticmethod
    def _of(names, index, box, where, unit, free) -> "CommutativeQuantale":
        table = _table(box, len(names), index, where, symmetric=True)
        return CommutativeQuantale(names, names, table, table,
                                   _mask_from(unit, index), _mask_from(free, index))

    def to_json(self) -> dict:
        r = self.resources
        return {
            "R": list(r),
            "box": _table_to_json(self.star_table, r, r, upper=True),
            "unit": sorted(self.unit),
            "free": sorted(self.free),
        }


def validate_quantale(q: CommutativeQuantale) -> list:
    """All quantale axiom violations; associativity is checked by ``_assoc_sweep``."""
    r, box = q.resources, q.star_table
    n = len(r)
    out = [Violation("CommutativityViolation", (r[i], r[j]))
           for i in range(n) for j in range(i + 1, n) if box[i][j] != box[j][i]]
    out += [Violation("AssociativityViolation", (r[i], r[j], r[k]))
            for i, j, k in _assoc_sweep(box, box)]
    for i in range(n):
        if q.star_set(q.unit_mask, 1 << i) != 1 << i:
            out.append(Violation("UnitStarViolation", (r[i],)))
    if q.unit_mask & ~q.free_mask:
        out.append(Violation("FreeNotReflexive"))
    if q.star_set(q.free_mask, q.free_mask) & ~q.free_mask:
        out.append(Violation("FreeNotIdempotent"))
    return out


def ucrt_order(q: CommutativeQuantale, s_subset, t_subset) -> bool:
    """Uncatalysed convertibility: free * S covers T."""
    smask = q.xmask(s_subset)
    tmask = q.xmask(t_subset)
    return tmask & ~q.star_set(q.free_mask, smask) == 0


def catalytic_order(q: CommutativeQuantale, catalyst: str, s_subset, t_subset) -> bool:
    """Convertibility after tensoring both sides with a catalyst atom."""
    cmask = q.xmask([catalyst])
    return ucrt_order(q, q.star_set(cmask, q.xmask(s_subset)),
                      q.star_set(cmask, q.xmask(t_subset)))
