import os
import random
from fractions import Fraction

from hypothesis import HealthCheck, settings, strategies as st

from rthy import (
    BoolStochasticMap,
    Encoding,
    LpProblem,
    NotLeftInvariant,
    NotRightInvariant,
    ShapeMismatch,
    StochasticMap,
    is_left_invariant,
    is_right_invariant,
)
from rthy.exactmath import F0, F1, _scaled, row_echelon
from rthy.measures import _assignments, _mixture_weight

settings.register_profile(
    "default",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


def rationals(lo=-4, hi=4, den=4):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=den)


@st.composite
def distributions(draw, size, weight_cap=6):
    """A length-`size` rational probability vector with small denominators.

    One drawn index gets a weight in 1..`weight_cap`, so the sum is positive
    with no draw thrown away; every other weight is in 0..`weight_cap`.
    """
    weights = draw(st.lists(st.integers(0, weight_cap), min_size=size, max_size=size))
    lead = draw(st.integers(0, size - 1))
    weights[lead] = draw(st.integers(1, weight_cap))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def encodings(draw, max_outcomes=4, max_hypotheses=3, min_hypotheses=2):
    n = draw(st.integers(2, max_outcomes))
    h = draw(st.integers(min_hypotheses, max_hypotheses))
    cols = [draw(distributions(n)) for _ in range(h)]
    return Encoding.from_columns(cols)


@st.composite
def supports(draw, n, h):
    """One nonempty set of the n outcomes per hypothesis, as sorted tuples."""
    return tuple(tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
                 for _ in range(h))


@st.composite
def supported_encodings(draw, n, support):
    """An encoding with n outcomes whose column c has positive mass on the
    outcomes ``support[c]`` and no other."""
    cols = []
    for outcomes in support:
        weights = [draw(st.integers(1, 6)) if i in outcomes else 0 for i in range(n)]
        cols.append([Fraction(w, sum(weights)) for w in weights])
    return Encoding.from_columns(cols)


def support_of(x: Encoding) -> tuple:
    """The outcomes of each column of x with positive mass."""
    return tuple(tuple(i for i in range(x.outcomes) if x.matrix[i][c])
                 for c in range(x.hypotheses))


@st.composite
def stochastic_maps(draw, n_from, max_to=4):
    n_to = draw(st.integers(1, max_to))
    cols = [draw(distributions(n_to)) for _ in range(n_from)]
    rows = [[cols[j][i] for j in range(n_from)] for i in range(n_to)]
    return StochasticMap.from_rows(rows)


def identity_map(n: int) -> StochasticMap:
    """The n x n identity map."""
    return StochasticMap([[int(i == j) for j in range(n)] for i in range(n)], 1)


def column_normalized(rows) -> Encoding:
    """The encoding whose columns are those of the nonnegative integer
    ``rows``, each scaled to sum to 1."""
    cols = [[Fraction(r[c], sum(q[c] for q in rows)) for r in rows] for c in range(len(rows[0]))]
    return Encoding.from_columns(cols)


def spread_pair(h, n_x, n_y, seed):
    """A random x with n_x outcomes and a post-processing y of it with n_y
    outcomes, so Z(y) lies inside Z(x); entries are drawn from 1..9, so rows
    are almost never proportional."""
    rng = random.Random(seed)
    x = column_normalized([[rng.randint(1, 9) for _ in range(h)] for _ in range(n_x)])
    t = column_normalized([[rng.randint(1, 9) for _ in range(n_x)] for _ in range(n_y)])
    return x, StochasticMap.from_rows(t.matrix)(x)


def full_conversion_problem(x: Encoding, target_rows) -> LpProblem:
    """The conversion LP with all h*n_y + n_x rows: row (c, i) for every
    hypothesis c and output i asks ``sum_j t[i][j] x[j][c] = target[i][c]``,
    then one row per input j asks that column j of t sums to 1.  The tests'
    reference for ``majorize._conversion_problem``, which leaves out each row
    (c, n_y - 1); a printed Farkas vector has this layout."""
    n_from, n_to = x.outcomes, len(target_rows)
    width = n_to * n_from
    a_rows, b = [], []
    for c in range(x.hypotheses):
        for i in range(n_to):
            row = [0] * width
            row[i * n_from:(i + 1) * n_from] = x.column(c)
            a_rows.append(row)
            b.append(target_rows[i][c])
    for j in range(n_from):
        a_rows.append([1 if k % n_from == j else 0 for k in range(width)])
        b.append(1)
    return LpProblem(c=[0] * width, a_rows=a_rows, b=b)


def full_mixture_problem(x: Encoding, vertices, n_primary: int) -> LpProblem:
    """The mixture LP with all n*h entry rows: min the weight on the first
    ``n_primary`` vertices over weights that sum to 1 and mix the vertices
    into x.  The tests' reference for ``measures._mixture_weight``, which
    leaves out the entry rows (n - 1, c), and, in ``weight_fmk``, also the
    entry rows where x is 0 and the vertices with a one there."""
    n, h = x.outcomes, x.hypotheses
    a_rows = [[v.matrix[i][c] for v in vertices] for i in range(n) for c in range(h)]
    return LpProblem(c=[1] * n_primary + [0] * (len(vertices) - n_primary),
                     a_rows=a_rows + [[1] * len(vertices)],
                     b=[v for row in x.matrix for v in row] + [1])


# --------------------------------------------------------------------------
# Reference constructions the tests build on; the library does not need them
# --------------------------------------------------------------------------


def left_curtain_reference(x: Encoding, y: Encoding):
    """The left-curtain coupling of ``majorize._left_curtain``, swept in
    ``Fraction``s: the rows of t with t * x = y, or None.  Atom j of x has
    mass m_j = x_j0 + x_j1 and type x_j0 / m_j; y's rows, in increasing
    type, each take the leftmost window of what is left of x, contiguous in
    type order, whose first-coordinate sum is theirs; zero rows of x go to
    outcome 0."""
    mass = [a + b for a, b in x.matrix]
    theta = [a / m if m else F0 for (a, _), m in zip(x.matrix, mass)]
    order = sorted((j for j, m in enumerate(mass) if m), key=theta.__getitem__)
    rest = list(mass)
    rows = [[F0] * x.outcomes for _ in range(y.outcomes)]
    targets = sorted((c / (c + d), i) for i, (c, d) in enumerate(y.matrix) if c + d)
    for _, i in targets:
        c, d = y.matrix[i]
        live = [j for j in order if rest[j]]
        need, value, e = c + d, F0, 0
        while True:
            j = live[e]
            part = min(rest[j], need)
            value += theta[j] * part
            need -= part
            if not need:
                break
            e += 1
        s, start_room, end_room = 0, rest[live[0]], rest[j] - part
        while value < c:
            if not end_room:
                e += 1
                if e == len(live):
                    return None
                end_room = rest[live[e]]
                continue
            if not start_room:
                s += 1
                start_room = rest[live[s]]
            step = min(start_room, end_room)
            slope = theta[live[e]] - theta[live[s]]
            if slope and value + step * slope >= c:
                step, value = (c - value) / slope, c
            else:
                value += step * slope
            start_room -= step
            end_room -= step
        if value > c:
            return None
        window = [(live[s], c + d if s == e else start_room)]
        if s != e:
            window += [(j, rest[j]) for j in live[s + 1:e]]
            window.append((live[e], rest[live[e]] - end_room))
        for j, part in window:
            rest[j] -= part
            rows[i][j] = part / mass[j]
    for j, m in enumerate(mass):
        if not m:
            rows[0][j] = F1
    return rows


def rank(rows) -> int:
    """Rank of rational ``rows``: each row cleared of its denominators, then
    fraction-free elimination."""
    return len(row_echelon([_scaled(row)[0] for row in rows])[1])


def det_postprocessings(n: int, k: int):
    """All k^n deterministic (0/1) column-stochastic maps n -> k,
    lexicographic in the assignment of an output to each input."""
    return [StochasticMap.from_rows([[F1 if a[j] == i else F0 for j in range(n)] for i in range(k)])
            for a in _assignments(k, [range(k)] * n)]


def deterministic_encodings(n: int, h: int):
    """All n^h encodings with delta columns, lexicographic in the outcome
    assignment: the vertices ``weight_fmk`` writes as 0/1 columns."""
    return [Encoding.from_columns([[F1 if i == a_c else F0 for i in range(n)] for a_c in a])
            for a in _assignments(n, [range(n)] * h)]


def convex_combination_weight(x: Encoding, primary, base):
    """min sum of weights on ``primary`` vertices over all convex combinations
    of primary + base vertices equal to x; +inf when x is outside the hull.
    Membership of x in the hull of ``base`` is ``... [], base) == 0``."""
    n, h = x.outcomes, x.hypotheses
    verts = [*primary, *base]
    if any((e.outcomes, e.hypotheses) != (n, h) for e in verts):
        raise ShapeMismatch("mixture vertices must match the target's shape")
    entries = [(i, c) for i in range(n - 1) for c in range(h)]
    entry_rows = [[e.matrix[i][c] for e in verts] for i, c in entries]
    return _mixture_weight(entry_rows, entries, len(primary), len(verts))(x)


def ceil_map(t) -> BoolStochasticMap:
    """Support pattern of a rational stochastic map."""
    return BoolStochasticMap([[int(v > 0) for v in row] for row in t.matrix])


def left_right_augmentations(m, u_subset):
    """Smallest left-invariant (free * U) and right-invariant (U * free)
    extensions of U, as sets of transformation names."""
    umask = m.tmask(u_subset)
    smask = m.star_set(m.free_mask, umask)
    dmask = m.star_set(umask, m.free_mask)
    if not is_left_invariant(m, smask):
        raise NotLeftInvariant("free * U is not left invariant; module is broken")
    if not is_right_invariant(m, dmask):
        raise NotRightInvariant("U * free is not right invariant; module is broken")
    return m.t_set(smask), m.t_set(dmask)


def interesting_pairs(p, f, names=None) -> frozenset:
    """Pairs (x, y) on the domain of the valuation f with f(x) < f(y) while x
    does not dominate y in the preorder p: monotonicity of any extension of
    f certifies that x cannot be converted into y.  ``names`` translates
    string keys to p's integer carrier when f is name-based."""
    def index(key):
        return key if names is None else names.index(key)

    dom = sorted(f.values, key=index)
    return frozenset((x, y) for x in dom for y in dom
                     if f(x) < f(y) and not p.geq(index(x), index(y)))
