"""Yield/cost constructions over finite modules, from partial valuations
of their resource atoms.

Values live in the extended rationals: exact ``Fraction`` everywhere,
with ``PLUS_INF``/``MINUS_INF`` as pure order sentinels (they are never
fed into arithmetic, only compared, so exactness is preserved).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import FormatError, NotLeftInvariant, NotRightInvariant
from .exactmath import format_rational, parse_rational
from .quantale import FiniteQuantaleModule, is_left_invariant, is_right_invariant


@functools.total_ordering
class _Infinity:
    """+inf or -inf of the extended rationals: an order sentinel that equals
    only itself and compares with every rational in both directions
    (``Fraction`` hands a comparison with an unknown type back to it)."""

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "PLUS_INF" if self.sign > 0 else "MINUS_INF"

    def __reduce__(self):  # copies and unpickled values are the module's own two
        return repr(self)

    def __lt__(self, other):
        if not isinstance(other, (_Infinity, Rational)):
            return NotImplemented
        return self.sign < 0 and other is not self


PLUS_INF = _Infinity(1)
MINUS_INF = _Infinity(-1)


def value_to_json(v) -> str:
    if v == PLUS_INF:
        return "+inf"
    if v == MINUS_INF:
        return "-inf"
    return format_rational(v)


def value_from_json(s):
    if s in ("+inf", "inf"):
        return PLUS_INF
    if s == "-inf":
        return MINUS_INF
    return parse_rational(s)


@dataclass(frozen=True)
class PartialValuation:
    """Partial map from atoms to extended rationals; the dict *is* the domain."""

    values: dict

    def __post_init__(self):
        clean = {}
        for k, v in self.values.items():
            if v in (PLUS_INF, MINUS_INF):
                clean[k] = v
            else:
                clean[k] = Fraction(v)
        object.__setattr__(self, "values", clean)

    @property
    def domain(self) -> frozenset:
        return frozenset(self.values)

    def __call__(self, atom):
        return self.values[atom]

    @staticmethod
    def from_json(doc) -> "PartialValuation":
        try:
            return PartialValuation({k: value_from_json(v) for k, v in doc.items()})
        except (AttributeError, ValueError) as exc:
            raise FormatError("valuation JSON must map atom names to rationals") from exc



def yield_(m: FiniteQuantaleModule, d_subset, f: PartialValuation, x: str):
    """Best valuation reachable from ``x`` using transformations in D.

    D must absorb free post-processing on the right (D * free inside D),
    otherwise the construction is not a monotone and we refuse to run.
    """
    return yield_witness(m, d_subset, f, x)[0]


def yield_witness(m: FiniteQuantaleModule, d_subset, f: PartialValuation, x: str):
    """(value, maximizer) with the lowest-index maximizer, or (−inf, None)."""
    if not is_right_invariant(m, d_subset):
        raise NotRightInvariant("yield requires D * free to stay inside D")
    # resolved in document order, so an unknown atom is named the same way in every run
    reach = m.act_set(m.tmask(d_subset), m.xmask([x])) & m.xmask(list(f.values))
    best, arg = MINUS_INF, None
    for i, name in enumerate(m.resources):  # lowest atom index wins
        if reach >> i & 1 and f(name) > best:
            best, arg = f(name), name
    return best, arg


def cost(m: FiniteQuantaleModule, s_subset, f: PartialValuation, x: str):
    """Cheapest valuation of an atom that produces ``x`` via S.

    S must absorb free pre-processing on the left (free * S inside S).
    """
    return cost_witness(m, s_subset, f, x)[0]


def cost_witness(m: FiniteQuantaleModule, s_subset, f: PartialValuation, x: str):
    """(value, producer) with the lowest-index cheapest producer, or (+inf, None)."""
    if not is_left_invariant(m, s_subset):
        raise NotLeftInvariant("cost requires free * S to stay inside S")
    smask = m.tmask(s_subset)
    xbit = m.xmask([x])
    domain = m.xmask(list(f.values))
    best, arg = PLUS_INF, None
    for i, name in enumerate(m.resources):  # lowest atom index wins
        if domain >> i & 1 and f(name) < best and m.act_set(smask, 1 << i) & xbit:
            best, arg = f(name), name
    return best, arg
