import os
import random
from fractions import Fraction

from hypothesis import HealthCheck, settings, strategies as st

from rthy import Encoding, StochasticMap

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
    """A length-`size` rational probability vector with small denominators."""
    weights = draw(st.lists(st.integers(0, weight_cap), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def encodings(draw, max_outcomes=4, max_hypotheses=3, min_hypotheses=2):
    n = draw(st.integers(2, max_outcomes))
    h = draw(st.integers(min_hypotheses, max_hypotheses))
    cols = [draw(distributions(n)) for _ in range(h)]
    return Encoding.from_columns(cols)


@st.composite
def stochastic_maps(draw, n_from, max_to=4):
    n_to = draw(st.integers(1, max_to))
    cols = [draw(distributions(n_to)) for _ in range(n_from)]
    rows = [[cols[j][i] for j in range(n_from)] for i in range(n_to)]
    return StochasticMap(rows)


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
    return x, StochasticMap(t.matrix)(x)
