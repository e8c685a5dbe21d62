"""Distinguishability of classical channels.

A channel encoding is the stochastic map from (hypothesis, input) pairs
to outputs; the input-a section, the state encoding obtained by feeding
the point input a, is the stride slice of its columns from a in steps of
the input count.  State encodings compare to channel encodings through
input-copy combs: feed the state's outcome together with a chosen input
into a post-processing sigma, itself a channel from (outcome, input)
pairs to outputs.  A state monotone extends to a channel by its best
value over the channel's delta inputs, which is the supremum over all
input distributions for a monotone that is quasi-convex in the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import FormatError, IndexOutOfRange, LengthMismatch
from .exactmath import F0, F1, _rational_pair, format_rational, json_int
from .majorize import (Convertible, Encoding, StochasticMap, _dot, _over_common_den,
                       conversions_from, is_distribution, majorizes)


@dataclass(frozen=True)
class ChannelEncoding(StochasticMap):
    """Stochastic map (hypothesis, input) -> outputs (matrix is outputs x
    hypotheses*inputs): column ``h*inputs + a`` is the output distribution
    under hypothesis h on input a.
    """

    inputs: int
    label = "channel"
    outputs = StochasticMap.n_to

    def __post_init__(self):
        super().__post_init__()
        if self.inputs < 1 or not self.n_from:
            raise FormatError("channel needs at least one hypothesis and input")
        if self.n_from % self.inputs:
            raise FormatError(f"channel has {self.n_from} columns, not a multiple "
                              f"of its {self.inputs} inputs")

    @property
    def hypotheses(self) -> int:
        return self.n_from // self.inputs

    @classmethod
    def from_json(cls, doc) -> "ChannelEncoding":
        try:
            h, a, bb = (json_int(doc[k], f"channel '{k}'")
                        for k in ("hypotheses", "input", "output"))
            cols = doc["columns"]
        except (KeyError, TypeError) as exc:
            raise FormatError(
                "channel JSON needs 'hypotheses', 'input', 'output', 'columns'") from exc
        if not isinstance(cols, dict):
            raise FormatError("channel 'columns' must be an object with 'h,a' keys")
        if h < 1 or a < 1:
            raise FormatError("channel needs at least one hypothesis and input")
        # counted before the columns are allocated, so their size is bounded by the document's
        if len(cols) != h * a:
            raise FormatError(f"channel has {len(cols)} columns, expected "
                              f"hypotheses * input = {h * a}")
        columns = [None] * (h * a)
        for key, col in cols.items():
            try:
                hh, aa = (int(v) for v in key.split(","))
            except ValueError:
                raise FormatError(f"channel column key {key!r} is not 'h,a'") from None
            if not (0 <= hh < h and 0 <= aa < a):
                raise FormatError(f"channel column key {key!r} out of range")
            if columns[hh * a + aa] is not None:
                raise FormatError(f"channel column {hh},{aa} is given twice")
            if not isinstance(col, list) or len(col) != bb:
                raise FormatError(f"channel column {key!r} is not a list of {bb} rationals")
            columns[hh * a + aa] = [_rational_pair(v) for v in col]
        # h * a distinct in-range keys: every column is present
        columns, den = _over_common_den(columns)
        return cls(cls._sized_rows(columns, bb), den, a)

    def to_json(self) -> dict:
        a = self.inputs
        return {
            "hypotheses": self.hypotheses,
            "input": a,
            "output": self.outputs,
            "columns": {f"{j // a},{j % a}": [format_rational(v) for v in col]
                        for j, col in enumerate(zip(*self.matrix))},
        }


def apply_input(psi: ChannelEncoding, mu: Sequence) -> Encoding:
    """State encoding obtained by feeding the input distribution mu: entry
    (i, h) is sum_a mu[a] psi[i][h*inputs + a], read in integers with mu
    cleared over the lcm of its denominators."""
    mu = [Fraction(v) for v in mu]
    if len(mu) != psi.inputs:
        raise LengthMismatch(f"channel takes {psi.inputs} inputs, got {len(mu)}")
    if not is_distribution(mu):
        raise FormatError("input must be a probability distribution")
    k, d = psi.inputs, lcm(*(v.denominator for v in mu))
    mu = [v.numerator * (d // v.denominator) for v in mu]
    return Encoding([[_dot(mu, row[h * k:(h + 1) * k]) for h in range(psi.hypotheses)]
                     for row in psi.ints], d * psi.den)


def delta_input(psi: ChannelEncoding, a: int) -> Encoding:
    """State encoding obtained by feeding the point input a: the input-a
    section, columns a, a + inputs, a + 2*inputs, ... of psi."""
    if not 0 <= a < psi.inputs:
        raise IndexOutOfRange(f"input index {a} is out of range for a channel with "
                              f"{psi.inputs} inputs")
    return Encoding([row[a::psi.inputs] for row in psi.ints], psi.den)


def check_comb_witness(x: Encoding, psi: ChannelEncoding, sigma: ChannelEncoding) -> bool:
    """Does wiring x's outcome and a copied input through sigma reproduce psi?

    sigma is a channel whose "hypotheses" are x's outcomes: column
    ``b*inputs + a`` is the output distribution on outcome b and input a.
    """
    if (x.hypotheses != psi.hypotheses or sigma.hypotheses != x.outcomes
            or sigma.inputs != psi.inputs):
        return False
    return all(delta_input(sigma, a)(x) == delta_input(psi, a) for a in range(psi.inputs))


def comb_simulates(x: Encoding, psi: ChannelEncoding):
    """Can an input-copy comb turn the state encoding x into the channel psi?

    A comb sigma(b'|b,a) acts on each input a on its own: sigma(.|.,a) is a
    stochastic map that must take x to ``delta_input(psi, a)``.  So this is
    one majorization of x per input, in input order, each LP re-solved from
    the last optimal one (``conversions_from``).  The first refuted
    input's ``NotConvertible`` is returned as it is: its Farkas vector
    refutes x -> ``delta_input(psi, a)``.  Otherwise the witness sigma is
    a ``ChannelEncoding`` whose input-a section is input a's witness map,
    built from the witnesses' integer rows over one common denominator.
    """
    convert = conversions_from(x)
    maps = []
    for a in range(psi.inputs):
        res = convert(delta_input(psi, a))
        if not res.convertible:
            return res
        maps.append(res.witness)
    den = lcm(*(t.den for t in maps))
    rows = [[t.ints[i][b] * (den // t.den) for b in range(x.outcomes) for t in maps]
            for i in range(psi.outputs)]
    return Convertible(witness=ChannelEncoding(rows, den, psi.inputs))


def _converts_to_all(x: Encoding, states) -> bool:
    """Does x majorize every encoding of ``states``?  The decision of
    ``comb_simulates`` when ``states`` are a channel's delta inputs, without
    its sigma."""
    convert = conversions_from(x)
    return all(convert(s).convertible for s in states)


def channel_equivalent(psi: ChannelEncoding, x: Encoding) -> bool:
    """Mutual simulation: x builds psi via a comb (x majorizes every delta
    input's encoding) and some fixed input plus post-processing of psi
    recovers x."""
    states = [delta_input(psi, a) for a in range(psi.inputs)]
    return _converts_to_all(x, states) and any(majorizes(s, x).convertible for s in states)


@dataclass(frozen=True)
class ChannelYield:
    value: object
    exact: bool
    maximizer: tuple  # the delta input achieving the value, as a distribution


def channel_yield(psi: ChannelEncoding, f: Callable[[Encoding], object]) -> ChannelYield:
    """Best value of a state monotone over the delta inputs of the channel.

    ``f`` is evaluated once on ``delta_input(psi, a)`` for each input a.
    ``apply_input`` is affine in the input distribution mu, so when ``f``
    is quasi-convex in the encoding (f of a mixture is at most the larger
    of the two values, as for weight, robustness, f_{m,k}, free robustness
    and nonconvexity) the value is the supremum of f(apply_input(psi, mu))
    over all input distributions mu.  ``exact`` certifies that the channel
    is equivalent to the state encoding x of some maximizing delta input:
    x majorizes every other delta input's encoding (its own by the
    identity, which is not checked; one ``conversions_from`` series, so
    each LP re-solves from the last optimal one), so an input-copy comb builds
    psi from x (the decision of ``comb_simulates``, without building its
    sigma), and feeding that input to psi gives back x.  ``maximizer`` is,
    as a distribution, the first maximizing delta input that certifies
    ``exact``, or the first maximizing delta input when none does.
    """
    states = [delta_input(psi, a) for a in range(psi.inputs)]
    values = [f(x) for x in states]
    best = max(values)
    maximizers = [a for a, value in enumerate(values) if value == best]
    certified = next((a for a in maximizers
                      if _converts_to_all(states[a], states[:a] + states[a + 1:])), None)
    shown = maximizers[0] if certified is None else certified
    return ChannelYield(value=best, exact=certified is not None,
                        maximizer=tuple(F1 if i == shown else F0 for i in range(psi.inputs)))
