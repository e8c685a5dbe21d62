from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rthy import (
    INFEASIBLE,
    ChannelEncoding,
    Convertible,
    Encoding,
    FormatError,
    HypothesisMismatch,
    LengthMismatch,
    LpOutcome,
    apply_input,
    channel_equivalent,
    channel_yield,
    check_comb_witness,
    comb_simulates,
    delta_input,
    free_robustness,
    majorizes,
    nonconvexity,
    robustness,
    verify_certificate,
    weight,
    weight_fmk,
)
from rthy.instances import (
    channel_x,
    channel_y,
    comb_witness_x,
    comb_witness_y,
    incomparable_x,
    incomparable_y,
    input_ignoring_channel,
)

from conftest import distributions, encodings, full_conversion_problem, stochastic_maps

H = Fraction(1, 2)
Q = Fraction(1, 4)


def _channel(tensor):
    """The channel whose column for hypothesis h and input a is tensor[h][a]."""
    return ChannelEncoding.from_columns([col for per_h in tensor for col in per_h],
                                        len(tensor[0]))


def _reference_comb_simulates(x, psi):
    """comb_simulates as one majorization of the copied encoding x (x) id_A.

    Outcome (b, a) of the copy sits at b*A + a and hypothesis (h, a) at
    h*A + a; psi is read as an encoding with the same hypothesis order, and
    the witness is read back through the same layout.
    """
    nb, na, hs = x.outcomes, psi.inputs, range(psi.hypotheses)
    copied = Encoding.from_columns(
        [[x.matrix[b][h] if a2 == a else 0 for b in range(nb) for a2 in range(na)]
         for h in hs for a in range(na)])
    res = majorizes(copied, Encoding(psi.matrix))
    if not res.convertible:
        return res
    t = res.witness
    return Convertible(witness=ChannelEncoding.from_columns(
        [t.column(b * na + a) for b in range(nb) for a in range(na)], na))


@st.composite
def comb_pairs(draw):
    """x with 1-4 outcomes and 1-3 hypotheses, and a channel psi with 1-3
    inputs and outputs; half the time psi is x wired through a random comb."""
    n, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    x = Encoding.from_columns([draw(distributions(n)) for _ in range(h)])
    na, nout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        sigma = [[draw(distributions(nout)) for _ in range(na)] for _ in range(n)]
        tensor = [[[sum(x.matrix[b][c] * sigma[b][a][o] for b in range(n))
                    for o in range(nout)] for a in range(na)] for c in range(h)]
    else:
        tensor = [[draw(distributions(nout)) for _ in range(na)] for _ in range(h)]
    return x, _channel(tensor)


def test_channel_validation():
    with pytest.raises(FormatError):
        ChannelEncoding.from_columns([], 1)
    with pytest.raises(FormatError):
        ChannelEncoding.from_columns([[H, H]] * 3, 0)
    with pytest.raises(FormatError):
        ChannelEncoding.from_columns([[H, H]] * 3, 2)  # 3 columns over 2 inputs
    with pytest.raises(FormatError):
        ChannelEncoding.from_columns([[H, H], [1]], 1)  # ragged outputs
    with pytest.raises(FormatError):
        ChannelEncoding.from_columns([[H, Q]], 1)  # column does not sum to one
    psi = channel_x()
    assert (psi.hypotheses, psi.inputs, psi.outputs) == (3, 4, 4)
    # errors name the flat column index h*inputs + a, as for any stochastic map
    doc = psi.to_json()
    doc["columns"]["1,1"] = ["1/2", "1/2", "1/2", "0"]
    with pytest.raises(FormatError, match="^channel column 5 does not sum to 1$"):
        ChannelEncoding.from_json(doc)


def test_channel_json_roundtrip():
    psi = channel_y()
    assert ChannelEncoding.from_json(psi.to_json()) == psi
    with pytest.raises(FormatError):
        ChannelEncoding.from_json({"hypotheses": 1, "inputs": 1})


def test_delta_inputs_recover_pinned_encodings():
    assert delta_input(channel_x(), 0) == incomparable_x()
    assert delta_input(channel_y(), 0) == incomparable_y()


def test_apply_input_checks():
    psi = channel_x()
    with pytest.raises(LengthMismatch):
        apply_input(psi, [1])
    with pytest.raises(FormatError):
        apply_input(psi, [H, H, H, H])


def test_apply_input_affine():
    psi = channel_x()
    a, b = delta_input(psi, 0), delta_input(psi, 2)
    mixed = apply_input(psi, [H, 0, H, 0])
    for i in range(mixed.outcomes):
        for c in range(mixed.hypotheses):
            assert mixed.matrix[i][c] == H * a.matrix[i][c] + H * b.matrix[i][c]


def test_pinned_comb_witnesses():
    assert check_comb_witness(incomparable_x(), channel_x(), comb_witness_x())
    assert check_comb_witness(incomparable_y(), channel_y(), comb_witness_y())


def test_comb_witness_rejects_tampering():
    x, psi, w = incomparable_x(), channel_x(), comb_witness_x()
    cols = [list(col) for col in zip(*w.matrix)]
    tampered = list(cols)
    tampered[1 * 4 + 1] = cols[1 * 4 + 2]  # outcome 1 on input 1 acts as on input 2
    assert not check_comb_witness(x, psi, ChannelEncoding.from_columns(tampered, 4))
    assert not check_comb_witness(x, channel_y(), w)  # wrong shape entirely
    assert not check_comb_witness(x, psi, ChannelEncoding.from_columns(cols, 2))
    # a sigma with short or empty columns cannot be built at all
    for length in (0, 3):
        with pytest.raises(FormatError):
            ChannelEncoding.from_columns([col[:length] for col in cols], 4)


def test_comb_simulates_pinned():
    for x, psi in ((incomparable_x(), channel_x()), (incomparable_y(), channel_y())):
        res = comb_simulates(x, psi)
        assert res.convertible
        assert check_comb_witness(x, psi, res.witness)
    with pytest.raises(HypothesisMismatch):
        comb_simulates(incomparable_x(), _channel([[[1]]]))


def test_cross_simulation_fails():
    res = comb_simulates(incomparable_y(), channel_x())
    assert not res.convertible
    assert res.farkas is not None


@given(comb_pairs())
def test_comb_simulates_matches_reference(pair):
    x, psi = pair
    res, ref = comb_simulates(x, psi), _reference_comb_simulates(x, psi)
    assert res.convertible == ref.convertible
    if res.convertible:
        # witnesses are not unique: with two hypotheses a map comes from a
        # martingale coupling, and with more the per-input LPs, priced
        # cyclically, need not stop at the vertex the reference's one LP
        # reaches
        assert check_comb_witness(x, psi, res.witness)
        return
    # the vector refutes x -> delta_input(psi, a) for the first input a that fails
    state = next(s for s in map(delta_input, [psi] * psi.inputs, range(psi.inputs))
                 if not majorizes(x, s).convertible)
    assert res.farkas == majorizes(x, state).farkas
    assert verify_certificate(full_conversion_problem(x, state.matrix),
                              LpOutcome(status=INFEASIBLE, farkas=res.farkas))


@given(encodings(max_outcomes=3, max_hypotheses=2, min_hypotheses=2), st.data())
def test_input_ignoring_channels_are_simulable(x, data):
    n_inputs = data.draw(st.integers(1, 3))
    psi = input_ignoring_channel(x, n_inputs)
    res = comb_simulates(x, psi)
    assert res.convertible
    assert check_comb_witness(x, psi, res.witness)
    assert channel_equivalent(psi, x)


@given(encodings(max_outcomes=3, max_hypotheses=2, min_hypotheses=2), st.data())
def test_simulation_respects_preprocessing(x, data):
    # anything above x in the majorization order also builds x's channels
    t = data.draw(stochastic_maps(x.outcomes))
    tx = t(x)
    psi = input_ignoring_channel(tx, 2)
    assert comb_simulates(tx, psi).convertible
    res = comb_simulates(x, psi)
    assert res.convertible
    assert check_comb_witness(x, psi, res.witness)


def test_channel_equivalent_pinned():
    assert channel_equivalent(channel_x(), incomparable_x())
    assert channel_equivalent(channel_y(), incomparable_y())
    assert not channel_equivalent(channel_x(), incomparable_y())


def test_channel_yield_pinned_exact():
    res = channel_yield(channel_x(), lambda e: weight_fmk(e, 2, 3))
    assert res.value == Q and res.exact
    res = channel_yield(channel_y(), lambda e: weight_fmk(e, 1, 3))
    assert res.value == 1 and res.exact
    assert res.maximizer == (1, 0, 0)


def test_channel_yield_evaluates_each_input_once():
    calls = []

    def f(e):
        calls.append(e)
        return weight_fmk(e, 1, 3)

    channel_yield(channel_y(), f)
    assert calls == [delta_input(channel_y(), a) for a in range(3)]


@given(encodings(max_outcomes=3, max_hypotheses=2, min_hypotheses=2))
def test_channel_yield_input_ignoring_lift(x):
    res = channel_yield(input_ignoring_channel(x, 2), weight)
    assert res.value == weight(x)
    assert res.exact


MONOTONES = {"weight": weight, "robustness": robustness, "free-robustness": free_robustness,
             "nonconvexity": nonconvexity}


@st.composite
def tied_channels(draw, min_hypotheses=1):
    """A channel with 1-3 hypotheses, inputs and outputs; half the time one
    input copies another for every hypothesis, so the maximizers tie."""
    h = draw(st.integers(min_hypotheses, 3))
    na, nout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    tensor = [[draw(distributions(nout)) for _ in range(na)] for _ in range(h)]
    if na > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(na)))[:2]
        for per_h in tensor:
            per_h[dst] = per_h[src]
    return _channel(tensor)


@given(tied_channels(), st.data())
def test_apply_input_matches_delta_input_reference(psi, data):
    """apply_input(psi, mu) is sum_a mu[a] delta_input(psi, a), entry by entry."""
    mu = data.draw(distributions(psi.inputs))
    mixed = apply_input(psi, mu)
    deltas = [delta_input(psi, a) for a in range(psi.inputs)]
    assert (mixed.outcomes, mixed.hypotheses) == (psi.outputs, psi.hypotheses)
    assert all(mixed.matrix[i][c] == sum((m * d.matrix[i][c] for m, d in zip(mu, deltas)),
                                         Fraction(0))
               for i in range(mixed.outcomes) for c in range(mixed.hypotheses))


@pytest.mark.parametrize("name", [*MONOTONES, "fmk"])
@given(data=st.data())
def test_channel_yield_is_the_supremum_and_exact_is_equivalence(name, data):
    # every CLI monotone is quasi-convex in the encoding, so a delta input
    # reaches the supremum over all input distributions
    psi = data.draw(tied_channels(min_hypotheses=2 if name == "fmk" else 1))
    if name == "fmk":
        k = data.draw(st.integers(2, psi.hypotheses))
        m = data.draw(st.integers(1, k - 1))
        f = lambda e: weight_fmk(e, m, k)
    else:
        f = MONOTONES[name]
    res = channel_yield(psi, f)
    values = [f(delta_input(psi, a)) for a in range(psi.inputs)]
    maximizers = [a for a, value in enumerate(values) if value == max(values)]
    assert res.value == max(values)
    # the first maximizer whose encoding certifies exact, else the first maximizer
    certifying = [a for a in maximizers
                  if comb_simulates(delta_input(psi, a), psi).convertible]
    shown = certifying[0] if res.exact else maximizers[0]
    assert res.maximizer == tuple(int(i == shown) for i in range(psi.inputs))
    for _ in range(3):
        assert res.value >= f(apply_input(psi, data.draw(distributions(psi.inputs))))
    assert res.exact == any(channel_equivalent(psi, delta_input(psi, a)) for a in maximizers)
