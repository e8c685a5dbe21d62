"""Distinguishability of classical channels.

A channel encoding assigns to every (hypothesis, input) pair a
distribution over outputs.  State encodings compare to channel encodings
through input-copy combs: feed the state's outcome together with a
chosen input into a post-processing.  A state monotone extends to a
channel by its best value over the channel's delta inputs, which is the
supremum over all input distributions for a monotone that is
quasi-convex in the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import FormatError, IndexOutOfRange, LengthMismatch
from .exactmath import F0, F1, format_rational, json_int, parse_rational
from .majorize import Convertible, Encoding, StochasticMap, is_distribution, majorizes


@dataclass(frozen=True)
class ChannelEncoding:
    """Stochastic map (hypothesis, input) -> output distribution.

    ``tensor[h][a]`` is the tuple of output probabilities.
    """

    tensor: tuple

    def __init__(self, tensor):
        tensor = tuple(tuple(tuple(Fraction(v) for v in col) for col in per_h)
                       for per_h in tensor)
        if not tensor or not tensor[0]:
            raise FormatError("channel needs at least one hypothesis and input")
        b = len(tensor[0][0])
        for per_h in tensor:
            if len(per_h) != len(tensor[0]):
                raise FormatError("channel input count differs across hypotheses")
            for col in per_h:
                if len(col) != b:
                    raise FormatError("channel output count differs across columns")
                if not is_distribution(col):
                    raise FormatError("channel column is not a distribution")
        object.__setattr__(self, "tensor", tensor)

    @property
    def hypotheses(self) -> int:
        return len(self.tensor)

    @property
    def inputs(self) -> int:
        return len(self.tensor[0])

    @property
    def outputs(self) -> int:
        return len(self.tensor[0][0])

    @staticmethod
    def from_json(doc) -> "ChannelEncoding":
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
        # counted before the tensor is allocated, so its size is bounded by the document's
        if len(cols) != h * a:
            raise FormatError(f"channel has {len(cols)} columns, expected "
                              f"hypotheses * input = {h * a}")
        tensor = [[None] * a for _ in range(h)]
        for key, col in cols.items():
            try:
                hh, aa = (int(v) for v in key.split(","))
            except ValueError:
                raise FormatError(f"channel column key {key!r} is not 'h,a'") from None
            if not (0 <= hh < h and 0 <= aa < a):
                raise FormatError(f"channel column key {key!r} out of range")
            if tensor[hh][aa] is not None:
                raise FormatError(f"channel column {hh},{aa} is given twice")
            if not isinstance(col, list) or len(col) != bb:
                raise FormatError(f"channel column {key!r} is not a list of {bb} rationals")
            tensor[hh][aa] = [parse_rational(v) for v in col]
        # h * a distinct in-range keys: every column is present
        return ChannelEncoding(tensor)

    def to_json(self) -> dict:
        return {
            "hypotheses": self.hypotheses,
            "input": self.inputs,
            "output": self.outputs,
            "columns": {
                f"{h},{a}": [format_rational(v) for v in self.tensor[h][a]]
                for h in range(self.hypotheses)
                for a in range(self.inputs)
            },
        }


def apply_input(psi: ChannelEncoding, mu: Sequence) -> Encoding:
    """State encoding obtained by feeding the input distribution mu."""
    mu = [Fraction(v) for v in mu]
    if len(mu) != psi.inputs:
        raise LengthMismatch(f"channel takes {psi.inputs} inputs, got {len(mu)}")
    if not is_distribution(mu):
        raise FormatError("input must be a probability distribution")
    cols = []
    for h in range(psi.hypotheses):
        col = [F0] * psi.outputs
        for a, w in enumerate(mu):
            if w:
                for o in range(psi.outputs):
                    col[o] += w * psi.tensor[h][a][o]
        cols.append(col)
    return Encoding.from_columns(cols)


def delta_input(psi: ChannelEncoding, a: int) -> Encoding:
    """State encoding obtained by feeding the point input a."""
    if not 0 <= a < psi.inputs:
        raise IndexOutOfRange(f"input index {a} is out of range for a channel with "
                              f"{psi.inputs} inputs")
    return Encoding.from_columns([per_h[a] for per_h in psi.tensor])


@dataclass(frozen=True)
class CombWitness:
    """Post-processing sigma(b' | b, a): for each (state outcome, input) a
    distribution over channel outputs."""

    sigma: tuple  # sigma[b][a] = tuple over outputs


def check_comb_witness(x: Encoding, psi: ChannelEncoding, witness: CombWitness) -> bool:
    """Does wiring x's outcome and a copied input through sigma reproduce psi?"""
    if x.hypotheses != psi.hypotheses:
        return False
    sigma = witness.sigma
    if len(sigma) != x.outcomes or any(len(per_b) != psi.inputs for per_b in sigma):
        return False
    for a in range(psi.inputs):
        try:
            section = StochasticMap.from_columns([sigma[b][a] for b in range(x.outcomes)])
        except FormatError:
            return False
        if section(x) != delta_input(psi, a):
            return False
    return True


def comb_simulates(x: Encoding, psi: ChannelEncoding):
    """Can an input-copy comb turn the state encoding x into the channel psi?

    A comb sigma(b'|b,a) acts on each input a on its own: sigma(.|.,a) is a
    stochastic map that must take x to ``delta_input(psi, a)``.  So this is
    one majorization of x per input, in input order.  The first refuted
    input's ``NotConvertible`` is returned as it is: its Farkas vector
    refutes that input's conversion LP.  Otherwise ``sigma[b][a]`` is
    column b of input a's witness map.
    """
    maps = []
    for a in range(psi.inputs):
        res = majorizes(x, delta_input(psi, a))
        if not res.convertible:
            return res
        maps.append(res.witness.matrix)
    sigma = tuple(tuple(t.col(b) for t in maps) for b in range(x.outcomes))
    return Convertible(witness=CombWitness(sigma=sigma))


def channel_equivalent(psi: ChannelEncoding, x: Encoding) -> bool:
    """Mutual simulation: x builds psi via a comb, and some fixed input plus
    post-processing of psi recovers x."""
    if not comb_simulates(x, psi).convertible:
        return False
    for a in range(psi.inputs):
        if majorizes(delta_input(psi, a), x).convertible:
            return True
    return False


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
    over all input distributions mu.  ``maximizer`` is the first maximizing
    delta input, as a distribution.  ``exact`` certifies that the channel
    is equivalent to the state encoding x of some maximizing delta input:
    an input-copy comb builds psi from x, and feeding that input to psi
    gives back x.
    """
    states = [delta_input(psi, a) for a in range(psi.inputs)]
    values = [f(x) for x in states]
    best = max(values)
    maximizers = [a for a, value in enumerate(values) if value == best]
    exact = any(comb_simulates(states[a], psi).convertible for a in maximizers)
    return ChannelYield(value=best, exact=exact,
                        maximizer=tuple(F1 if i == maximizers[0] else F0
                                        for i in range(psi.inputs)))
