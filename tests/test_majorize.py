import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rthy import (
    Encoding,
    EnumerationTooLarge,
    FormatError,
    FunctionAction,
    HypothesisMismatch,
    INFEASIBLE,
    LengthMismatch,
    LpOutcome,
    OPTIMAL,
    PermutationAction,
    RthyError,
    StochasticMap,
    ZeroReference,
    comb_simulates,
    det_postprocessings,
    lorenz,
    majorizes,
    markotope_contains,
    orbit_encoding,
    relative_majorizes,
    verify_certificate,
    weight,
    zonotope,
    zonotope_includes,
)
from rthy.instances import (
    binary_image_of_x,
    channel_x,
    incomparable_x,
    incomparable_y,
    two_point_encoding,
)

from conftest import distributions, encodings, stochastic_maps

H = Fraction(1, 2)


def test_encoding_json_roundtrip():
    x = incomparable_x()
    assert Encoding.from_json(x.to_json()) == x
    assert x.to_json()["columns"][0] == ["1/2", "1/2", "0", "0"]


def test_encoding_json_rejects():
    with pytest.raises(FormatError):
        Encoding.from_json({"hypotheses": 2, "columns": [["1"], ["1"]]})
    with pytest.raises(FormatError):
        Encoding.from_json(
            {"hypotheses": 2, "outcomes": 2, "columns": [["1", "0"]]})
    with pytest.raises(FormatError):
        Encoding.from_columns([["1", "0"], ["1"]])


def test_stochastic_map_json_rejects():
    good = {"from": 2, "to": 2, "columns": [["1", "0"], ["0", "1"]]}
    assert StochasticMap.from_json(good) == StochasticMap.identity(2)
    for bad in ({**good, "columns": 5}, {**good, "columns": [5, 6]},
                {**good, "columns": ["10", "01"]}, {**good, "from": 2.5},
                {**good, "to": True}, {**good, "from": "2"}, {"from": 2, "to": 2}):
        with pytest.raises(FormatError):
            StochasticMap.from_json(bad)


def test_stochastic_map_json_roundtrip():
    t = StochasticMap.from_rows([[H, 1], [H, 0]])
    assert StochasticMap.from_json(t.to_json()) == t
    assert t.to_json() == {"from": 2, "to": 2, "columns": [["1/2", "1/2"], ["1", "0"]]}


@given(encodings(), st.data())
def test_postprocessed_encoding_is_reachable(x, data):
    t = data.draw(stochastic_maps(x.outcomes))
    res = majorizes(x, t(x))
    assert res.convertible
    assert res.witness(x) == t(x)  # the found map need not equal t


@given(encodings())
def test_self_majorization(x):
    res = majorizes(x, x)
    assert res.convertible
    assert res.witness(x) == x


def test_bundled_pair_incomparable_with_certificates():
    x, y = incomparable_x(), incomparable_y()
    for a, b in ((x, y), (y, x)):
        res = majorizes(a, b)
        assert not res.convertible
        replay = LpOutcome(status=INFEASIBLE, farkas=list(res.farkas))
        assert verify_certificate(res.problem, replay)


def test_witness_is_replayed_before_it_is_reported(monkeypatch):
    def collapsing_solver(problem):
        # stochastic, but sends every outcome to outcome 0: t[0][j] is column j,
        # and the last row (input n_from - 1) has its first 1 in column n_from - 1
        n_from = problem.a_rows[-1].index(1) + 1
        return LpOutcome(status=OPTIMAL, primal=[
            Fraction(k < n_from) for k in range(problem.ncols)])

    monkeypatch.setattr("rthy.majorize.lp_solve", collapsing_solver)
    x = incomparable_x()
    for decide in (lambda: majorizes(x, x),
                   lambda: comb_simulates(x, channel_x()),
                   lambda: markotope_contains(x, binary_image_of_x(), 2)):
        with pytest.raises(RuntimeError) as err:
            decide()
        assert not isinstance(err.value, RthyError)


def test_hypothesis_count_mismatch():
    with pytest.raises(HypothesisMismatch):
        majorizes(incomparable_x(), two_point_encoding(H, H))


def test_zonotope_pinned_vertices():
    eighth = two_point_encoding(Fraction(1, 8), H)
    assert zonotope(eighth).vertices == (
        (0, 0), (Fraction(7, 8), H), (1, 1), (Fraction(1, 8), H))
    quarter = two_point_encoding(Fraction(1, 4), Fraction(3, 4))
    assert zonotope(quarter).vertices == (
        (0, 0), (Fraction(3, 4), Fraction(1, 4)), (1, 1),
        (Fraction(1, 4), Fraction(3, 4)))


def test_zonotope_mutual_non_inclusion():
    eighth = two_point_encoding(Fraction(1, 8), H)
    quarter = two_point_encoding(Fraction(1, 4), Fraction(3, 4))
    assert not zonotope_includes(eighth, quarter)
    assert not zonotope_includes(quarter, eighth)


def test_zonotope_includes_bundled_pair():
    assert zonotope_includes(incomparable_x(), incomparable_y())
    assert not zonotope_includes(incomparable_y(), incomparable_x())


@given(encodings(max_hypotheses=2))
def test_zonotope_centrally_symmetric(x):
    vs = zonotope(x).vertices
    assert vs[0] == (0, 0)
    flipped = {(1 - a, 1 - b) for a, b in vs}
    assert flipped == set(vs)


@given(encodings(max_outcomes=3, max_hypotheses=2))
def test_zonotope_contains_all_subset_sums(x):
    z = zonotope(x)
    rows = [x.matrix.row(i) for i in range(x.outcomes)]
    for picks in itertools.product((0, 1), repeat=len(rows)):
        point = [sum((r[c] for r, p in zip(rows, picks) if p), Fraction(0))
                 for c in range(2)]
        assert tuple(point) in z


@given(encodings(max_outcomes=4, max_hypotheses=2, min_hypotheses=2))
def test_zonotope_inclusion_matches_lp_decision(x):
    # with two hypotheses the polygon test and the conversion LP agree
    y = two_point_encoding(Fraction(1, 3), Fraction(2, 3))
    assert zonotope_includes(x, y) == majorizes(x, y).convertible


def test_markotope_pinned():
    z = binary_image_of_x()
    assert markotope_contains(incomparable_x(), z, 2)
    assert not markotope_contains(incomparable_y(), z, 2)


def test_lorenz_pinned_curve():
    x = [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]
    r = [Fraction(1, 4)] * 4
    assert lorenz(x, r) == [
        (0, 0),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(5, 6)),
        (Fraction(3, 4), Fraction(11, 12)),
        (1, 1),
    ]


def test_lorenz_against_itself_is_diagonal():
    assert lorenz(["1"], ["1"]) == [(0, 0), (1, 1)]
    pts = lorenz([H, H], [H, H])
    assert pts == [(0, 0), (H, H), (1, 1)]


def test_lorenz_rejects():
    with pytest.raises(LengthMismatch):
        lorenz([1], [H, H])
    with pytest.raises(ZeroReference):
        lorenz([H, H], [1, 0])


@given(st.data())
def test_lorenz_concave_with_unit_endpoints(data):
    n = data.draw(st.integers(1, 5))
    weights = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)
                        .filter(lambda w: sum(w) > 0))
    refs = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    x = [Fraction(w, sum(weights)) for w in weights]
    r = [Fraction(w, sum(refs)) for w in refs]
    pts = lorenz(x, r)
    assert pts[0] == (0, 0) and pts[-1] == (1, 1)
    slopes = [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(pts, pts[1:])]
    assert all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))


def test_relative_majorization_incomparable_pair():
    x = [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]
    y = [Fraction(7, 8), Fraction(1, 8)]
    rx = [Fraction(1, 4)] * 4
    ry = [Fraction(1, 2)] * 2
    assert not relative_majorizes(x, rx, y, ry).convertible
    assert not relative_majorizes(y, ry, x, rx).convertible


def test_det_postprocessings_enumeration():
    maps = det_postprocessings(3, 2)
    assert len(maps) == 8
    assert len(set(maps)) == 8
    for t in maps:
        for j in range(3):
            col = [t.matrix[i, j] for i in range(2)]
            assert sorted(col) == [0, 1]
    # first map sends everything to outcome 0
    assert all(maps[0].matrix[0, j] == 1 for j in range(3))


def test_enumeration_guard(monkeypatch):
    monkeypatch.setenv("RTHY_ENUM_GUARD", "7")
    with pytest.raises(EnumerationTooLarge):
        det_postprocessings(3, 2)
    monkeypatch.setenv("RTHY_ENUM_GUARD", "8")
    assert len(det_postprocessings(3, 2)) == 8


CYCLE3 = PermutationAction([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
DEGREE3_ACTIONS = (
    CYCLE3,
    PermutationAction([(0, 1, 2)]),
    PermutationAction([(0, 1, 2), (1, 0, 2)]),
    FunctionAction([(0, 1, 2), (0, 0, 0)]),
)


def test_orbit_encoding_pinned():
    orbit = orbit_encoding([H, H, 0], CYCLE3)
    assert orbit == Encoding.from_columns([[H, H, 0], [0, H, H], [H, 0, H]])


@given(st.one_of(distributions(3),
                 st.sampled_from([[1, 0, 0], [Fraction(1, 3)] * 3, [H, H, 0]])),
       st.sampled_from(DEGREE3_ACTIONS))
def test_orbit_encoding_weight_vanishes_exactly_on_fixed_points(x, action):
    fixed = all(sum(x[j] for j in range(3) if mp[j] == i) == x[i]
                for mp in action.maps for i in range(3))
    assert (weight(orbit_encoding(x, action)) == 0) == fixed


def test_orbit_encoding_degree_mismatch():
    with pytest.raises(LengthMismatch):
        orbit_encoding([H, H], CYCLE3)
