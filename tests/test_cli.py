import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rthy import (
    INFEASIBLE,
    ChannelEncoding,
    FormatError,
    LpOutcome,
    cli,
    majorizes,
    verify_certificate,
)
from rthy.cli import run
from rthy.instances import (
    binary_image_of_x,
    channel_x,
    channel_y,
    diamond_module,
    incomparable_x,
    incomparable_y,
    max_quantale,
    rotation_module,
    stochastic_pair_module,
    three_chain_module,
    two_point_encoding,
)
from rthy.majorize import _conversion_problem

from conftest import full_conversion_problem, spread_pair


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def files(tmp_path):
    def save(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return save


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def _json_out(capsys):
    out, _ = _out(capsys)
    return json.loads(out)


def test_check_order_convertible(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    assert run(["check-order", x, x]) == 0
    doc = _json_out(capsys)
    assert doc["convertible"] is True
    assert doc["witness"]["from"] == 4


def test_check_order_certificate(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    assert run(["check-order", x, y]) == 0
    doc = _json_out(capsys)
    assert doc["convertible"] is False
    assert doc["certificate"]["verified"] is True
    assert doc["certificate"]["farkas"]


def test_check_order_pinned_layouts(files, capsys):
    """The conversion LP's column and row order reaches stdout through the
    witness and the Farkas vector, so both are pinned here exactly.  The LP
    leaves out row (c, n_y - 1) of each hypothesis c, and the printed vector
    has 0 there: it keeps the full LP's h*n_y + n_x layout and replays on it."""
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    z = files("z.json", binary_image_of_x().to_json())
    expected = [
        (x, y, {"certificate": {"farkas": ["1", "1", "0", "-1", "0", "0", "0", "-1", "0", "0",
                                           "-1/2", "0", "0"], "verified": True},
                "convertible": False}),
        (y, x, {"certificate": {"farkas": ["0", "1", "-1", "0", "0", "-1", "1", "0", "0",
                                           "-1", "-1", "0", "0", "0", "0"], "verified": True},
                "convertible": False}),
        (x, z, {"convertible": True,
                "witness": {"columns": [["0", "1"], ["1", "0"], ["0", "1"], ["0", "1"]],
                            "from": 4, "to": 2}}),
    ]
    for a, b, doc in expected:
        assert run(["check-order", a, b]) == 0
        out, _ = _out(capsys)
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for a, b, shape, full_shape in ((incomparable_x(), incomparable_y(), (10, 12), (13, 12)),
                                    (incomparable_y(), incomparable_x(), (12, 12), (15, 12))):
        problem = _conversion_problem(a, b.matrix)
        assert (problem.nrows, problem.ncols) == shape
        full = full_conversion_problem(a, b.matrix)
        assert (full.nrows, full.ncols) == full_shape
        replay = LpOutcome(status=INFEASIBLE, farkas=majorizes(a, b).farkas)
        assert verify_certificate(full, replay)


def test_check_order_dichotomy_answers_under_any_guard(files, capsys, monkeypatch):
    """With two hypotheses neither the coupling nor the scan over the n_x
    normals of Z(x) is an enumeration, so a guard of 1 does not trip."""
    monkeypatch.setenv("RTHY_ENUM_GUARD", "1")
    x = files("x.json", two_point_encoding("1/8", "1/2").to_json())
    y = files("y.json", two_point_encoding("1/4", "3/4").to_json())
    # w = (4, -7) is normal to x's row (7/8, 1/2); y's row (3/4, 1/4) crosses it
    refuted = {"certificate": {"farkas": ["0", "4", "0", "-7", "0", "0"], "verified": True},
               "convertible": False}
    assert run(["check-order", x, y]) == 0
    assert _json_out(capsys) == refuted
    assert run(["check-order", x, x]) == 0
    assert _json_out(capsys) == {"convertible": True, "witness": {
        "columns": [["1", "0"], ["0", "1"]], "from": 2, "to": 2}}
    # the zonotope test runs the same scan, so it does not trip either, and
    # its normal is the Farkas vector's w = (4, -7)
    assert run(["zonotope", x, "--contains", y]) == 0
    assert _json_out(capsys) == {"includes": False, "certificate": {
        "normal": ["4", "-7"], "subset": [1], "support_y": "5/4", "support_x": "0"}}


def test_zonotope_vertices_and_csv(files, capsys):
    x = files("x.json", two_point_encoding("1/8", "1/2").to_json())
    assert run(["zonotope", x]) == 0
    doc = _json_out(capsys)
    assert doc["vertices"] == [["0", "0"], ["7/8", "1/2"], ["1", "1"], ["1/8", "1/2"]]
    assert run(["zonotope", x, "--format", "csv"]) == 0
    out, _ = _out(capsys)
    assert out == "0,0\n7/8,1/2\n1,1\n1/8,1/2\n"


def test_zonotope_inclusion(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    assert run(["zonotope", x, "--contains", y]) == 0
    assert _out(capsys) == ('{\n  "includes": true\n}\n', "")
    assert run(["zonotope", y, "--contains", x]) == 0
    assert _json_out(capsys) == {"includes": False, "certificate": {
        "normal": ["-1", "1", "1"], "subset": [0, 2, 3],
        "support_y": "3/2", "support_x": "1"}}


def test_zonotope_guard_counts_facet_normals(files, capsys, monkeypatch):
    # C(8, 2) = 28 candidate normals; y's 2^12 subset sums no longer count
    x, y = spread_pair(3, 8, 12, seed=1)
    argv = ["zonotope", files("x.json", x.to_json()), "--contains", files("y.json", y.to_json())]
    monkeypatch.setenv("RTHY_ENUM_GUARD", "27")
    assert run(argv) == 3
    out, err = _out(capsys)
    assert out == ""
    assert "= 28, above the guard 27" in err
    monkeypatch.setenv("RTHY_ENUM_GUARD", "28")
    assert run(argv) == 0
    assert _json_out(capsys) == {"includes": True}


def test_csv_rejected_off_vertices(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    assert run(["zonotope", x, "--contains", y, "--format", "csv"]) == 2
    _, err = _out(capsys)
    assert "schemas" in err


def test_lorenz_uniform_and_explicit(files, capsys):
    x = files("x.json", ["3/4", "1/12", "1/12", "1/12"])
    assert run(["lorenz", x]) == 0
    doc = _json_out(capsys)
    assert doc["vertices"] == [
        ["0", "0"], ["1/4", "3/4"], ["1/2", "5/6"], ["3/4", "11/12"], ["1", "1"]]
    r = files("r.json", ["1/2", "1/6", "1/6", "1/6"])
    assert run(["lorenz", x, "--ref", r, "--format", "csv"]) == 0
    out, _ = _out(capsys)
    assert out.splitlines()[0] == "0,0"


def test_markotope(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    z = files("z.json", binary_image_of_x().to_json())
    assert run(["markotope", x, z]) == 0
    assert _json_out(capsys) == {"contains": True, "k": 2}
    assert run(["markotope", y, z, "--k", "2"]) == 0
    assert _json_out(capsys)["contains"] is False


def test_weight_flags(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    assert run(["weight", x]) == 0
    assert _json_out(capsys)["value"] == "1/2"
    assert run(["weight", x, "--m", "2", "--k", "3"]) == 0
    assert _json_out(capsys) == {"k": 3, "m": 2, "value": "1/4"}
    assert run(["weight", x, "--m", "2"]) == 2
    # outside the low-rank hull: infinity is reported, not a crash
    assert run(["weight", x, "--m", "1", "--k", "2"]) == 0
    assert _json_out(capsys)["value"] == "+inf"


def test_robustness_kinds(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    for kind, value in (("global", "1/2"), ("free", "+inf"), ("nonconvexity", "+inf")):
        assert run(["robustness", x, "--kind", kind]) == 0
        assert _json_out(capsys) == {"kind": kind, "value": value}


def test_possibilistic_modes(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    assert run(["possibilistic", x]) == 0
    assert _json_out(capsys)["edges"] == [[0, 1], [0, 2], [0, 3]]
    assert run(["possibilistic", x, y]) == 0
    doc = _json_out(capsys)
    assert doc == {"certificate": {"exhaustive": True}, "convertible": False}
    assert run(["possibilistic", x, x]) == 0
    assert _json_out(capsys)["convertible"] is True


def test_possibilistic_decides_wide_supports(files, capsys):
    # every outcome of the uniform 5-outcome encoding may go to any nonempty
    # set of its 5 outcomes: 31^5 candidate witnesses, decided without a search
    u = files("u.json", {"hypotheses": 2, "outcomes": 5, "columns": [["1/5"] * 5] * 2})
    assert run(["possibilistic", u, u]) == 0
    doc = _json_out(capsys)
    assert doc["convertible"] is True
    assert doc["witness"]["rows"] == [[1, 1, 1, 1, 0]] + [[0, 0, 0, 0, 1]] * 4


def test_encoding_with_no_outcomes_exits_2(files, capsys):
    empty = files("e.json", {"hypotheses": 2, "outcomes": 0, "columns": [[], []]})
    x = files("x.json", incomparable_x().to_json())
    for argv in (["check-order", empty, x], ["weight", empty]):
        assert run(argv) == 2
        _, err = _out(capsys)
        assert err.startswith("rthy: encoding column 0 does not sum to 1\n")
    assert run(["possibilistic", empty]) == 2


def test_possibilistic_names_the_refusal(files):
    # the column sums to 5/4; the reason reaches stderr, prefixed by the path
    bad = files("bad.json", {"hypotheses": 2, "outcomes": 2,
                             "columns": [["1/2", "3/4"], ["1/2", "1/2"]]})
    out, err, code = _fresh_process(["possibilistic", bad, bad])
    assert code == 2 and out == ""
    assert err.startswith(f"rthy: {bad}: encoding column 0 does not sum to 1\n")
    assert "Traceback" not in err


def test_channel_subcommands(files, capsys):
    psi = files("psi.json", channel_x().to_json())
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())

    assert run(["channel", "apply", psi, "--delta", "0"]) == 0
    assert _json_out(capsys)["encoding"] == incomparable_x().to_json()
    assert run(["channel", "apply", psi, "--input", "1,0,0,0"]) == 0
    assert _json_out(capsys)["encoding"] == incomparable_x().to_json()
    assert run(["channel", "apply", psi]) == 2
    # one input distribution at a time: --delta does not silently win
    assert run(["channel", "apply", psi, "--delta", "0", "--input", "1,0,0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err

    assert run(["channel", "simulate", x, psi]) == 0
    assert _json_out(capsys)["convertible"] is True
    assert run(["channel", "simulate", y, psi]) == 0
    doc = _json_out(capsys)
    assert doc["convertible"] is False and doc["certificate"]["verified"] is True

    assert run(["channel", "equivalent", psi, x]) == 0
    assert _json_out(capsys)["equivalent"] is True
    assert run(["channel", "equivalent", psi, y]) == 0
    assert _json_out(capsys)["equivalent"] is False


def test_channel_yield(files, capsys):
    psix = files("psix.json", channel_x().to_json())
    psiy = files("psiy.json", channel_y().to_json())
    assert run(["channel", "yield", psix, "--monotone", "fmk", "--m", "2", "--k", "3"]) == 0
    doc = _json_out(capsys)
    assert doc["value"] == "1/4" and doc["exact"] is True
    assert run(["channel", "yield", psiy, "--monotone", "fmk", "--m", "1", "--k", "3"]) == 0
    doc = _json_out(capsys)
    assert doc["value"] == "1" and doc["exact"] is True
    assert run(["channel", "yield", psix, "--monotone", "fmk"]) == 2
    # --m and --k belong to fmk alone, as weight refuses a lone --m
    assert run(["channel", "yield", psix, "--monotone", "weight", "--m", "5", "--k", "1"]) == 2
    out, err = _out(capsys)
    assert out == "" and "--m and --k apply only to --monotone fmk" in err
    # delta inputs only: the removed --mode flag is an argparse usage error
    assert run(["channel", "yield", psix, "--monotone", "weight", "--mode", "grid:2"]) == 2
    out, err = _out(capsys)
    assert out == "" and "unrecognized arguments: --mode grid:2" in err


# inputs 0 and 1 tie on free robustness, and only input 1's encoding
# simulates the channel
TIED_CHANNEL = {"hypotheses": 3, "input": 2, "output": 2,
                "columns": {"0,0": ["3/5", "2/5"], "0,1": ["1/4", "3/4"],
                            "1,0": ["1", "0"], "1,1": ["1", "0"],
                            "2,0": ["1", "0"], "2,1": ["1", "0"]}}


def test_channel_yield_reports_the_certifying_maximizer(files, capsys):
    psi = files("tied.json", TIED_CHANNEL)
    assert run(["channel", "yield", psi, "--monotone", "free-robustness"]) == 0
    doc = _json_out(capsys)
    assert doc == {"value": "+inf", "exact": True, "maximizer": ["0", "1"]}
    for a, convertible in (("0", False), ("1", True)):
        assert run(["channel", "apply", psi, "--delta", a]) == 0
        x = files(f"delta{a}.json", _json_out(capsys)["encoding"])
        assert run(["channel", "simulate", x, psi]) == 0
        assert _json_out(capsys)["convertible"] is convertible


def test_module_subcommands(files, capsys):
    m = diamond_module()
    mod = files("m.json", m.to_json())
    gold = files("gold.json", {"0": "0", "1": "1", "2": "2"})

    assert run(["module", "validate", mod]) == 0
    assert _json_out(capsys) == {"valid": True, "violations": []}

    assert run(["module", "order", mod]) == 0
    doc = _json_out(capsys)
    assert doc["atoms"] == ["0", "1", "1p", "2"]
    assert ["2", "0"] in doc["pairs"]

    assert run(["module", "yield", mod, "--gold", gold, "--at", "1p"]) == 0
    assert _json_out(capsys) == {"at": "1p", "value": "0"}
    assert run(["module", "cost", mod, "--gold", gold, "--at", "1p"]) == 0
    assert _json_out(capsys) == {"at": "1p", "value": "2"}


def test_module_empty_set_spellings_agree(files, capsys):
    """``--set ""`` names the empty set, as ``--set ","`` does; only a
    missing ``--set`` means the free set."""
    mod = files("chain.json", three_chain_module().to_json())
    gold = files("gold.json", {"0": "0", "1": "1", "2": "2"})
    for cmd, empty in (("yield", "-inf"), ("cost", "+inf")):
        base = ["module", cmd, mod, "--gold", gold, "--at", "2"]
        assert run(base) == 0
        assert _json_out(capsys) == {"at": "2", "value": "2"}
        for spelling in ("", ","):
            assert run(base + ["--set", spelling]) == 0
            assert _json_out(capsys) == {"at": "2", "value": empty}, (cmd, spelling)


def test_module_validate_pinned_violations(files, capsys):
    """Every violating triple is listed, in triple order, star before mixed."""
    doc = stochastic_pair_module().to_json()
    star, act = dict(doc["star"]), dict(doc["act"])
    star["swap,swap"] = ["id", "swap"]
    star["to0,mix"] = ["to1"]
    act["mix,p0"] = ["even", "p0"]
    mod = files("m.json", {**doc, "star": star, "act": act})
    triples = [
        ("AssociativityViolation", "swap swap to0"),
        ("AssociativityViolation", "swap swap to1"),
        ("AssociativityViolation", "swap to0 mix"),
        ("AssociativityViolation", "swap to1 mix"),
        ("AssociativityViolation", "to0 to0 mix"),
        ("AssociativityViolation", "to0 to1 mix"),
        ("MixedAssociativityViolation", "swap swap p0"),
        ("MixedAssociativityViolation", "swap swap p1"),
        ("MixedAssociativityViolation", "swap mix p0"),
        ("MixedAssociativityViolation", "mix swap p0"),
        ("MixedAssociativityViolation", "mix swap p1"),
        ("MixedAssociativityViolation", "mix to0 p1"),
        ("MixedAssociativityViolation", "mix to0 even"),
        ("MixedAssociativityViolation", "mix to1 p0"),
        ("MixedAssociativityViolation", "to0 mix p0"),
        ("MixedAssociativityViolation", "to0 mix p1"),
        ("MixedAssociativityViolation", "to0 mix even"),
    ]
    expected = {"valid": False,
                "violations": [{"kind": k, "witness": w.split()} for k, w in triples]}
    assert run(["module", "validate", mod]) == 0
    out, _ = _out(capsys)
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_module_covariant(files, capsys):
    m, action = rotation_module()
    mod = files("m.json", m.to_json())
    act = files("act.json", {
        "maps": [[m.resources[i] for i in mp] for mp in action.maps],
        "permutations": True})
    assert run(["module", "covariant", mod, "--action", act]) == 0
    assert _json_out(capsys)["covariant"] == ["rot0", "rot1", "rot2", "to_base"]


def test_module_augment(files, capsys):
    m = diamond_module()
    mod = files("m.json", m.to_json())
    assert run(["module", "augment", mod, "--set",
                ",".join(sorted(m.free))]) == 0
    doc = _json_out(capsys)
    assert set(doc) == {"classes", "images", "order"}


def test_ucrt_commands(files, capsys):
    q = files("q.json", max_quantale().to_json())
    assert run(["ucrt", "order", q, "--source", "1", "--target", "0"]) == 0
    assert _json_out(capsys) == {"related": False}
    assert run(["ucrt", "catalytic", q, "--source", "1", "--target", "0",
                "--catalyst", "2"]) == 0
    assert _json_out(capsys) == {"catalyst": "2", "related": True}


def test_ucrt_asymmetric_box_exits_2(files, capsys):
    # a cell and its mirror both given, with different atoms: neither wins
    doc = max_quantale().to_json()
    doc["box"]["2,1"] = ["1"]  # 1 box 2 = {2}, but 2 box 1 = {1}
    q = files("q.json", doc)
    for argv in (["ucrt", "order", q, "--source", "1", "--target", "0"],
                 ["ucrt", "catalytic", q, "--source", "1", "--target", "0", "--catalyst", "2"]):
        assert run(argv) == 2
        out, err = _out(capsys)
        assert out == ""
        assert err.startswith("rthy: quantale axioms violated: CommutativityViolation('1', '2')\n")


def test_exit_codes(files, capsys, monkeypatch):
    bad = files("bad.json", {"hypotheses": 2})
    assert run(["check-order", bad, bad]) == 2
    _, err = _out(capsys)
    assert "rthy:" in err

    notjson = files("garbage.json", "not json")
    # the fixture serializes the string, so write raw bytes instead
    import pathlib
    pathlib.Path(notjson).write_text("{nope")
    assert run(["weight", notjson]) == 2

    x = files("x.json", incomparable_x().to_json())
    monkeypatch.setenv("RTHY_ENUM_GUARD", "1")
    assert run(["weight", x, "--m", "1", "--k", "3"]) == 3
    _, err = _out(capsys)
    assert "search too large" in err

    assert run(["no-such-command"]) == 2

    empty = files("empty.json", {"hypotheses": 0, "outcomes": 3, "columns": []})
    for argv in (["weight", empty], ["robustness", empty],
                 ["robustness", empty, "--kind", "free"]):
        assert run(argv) == 2
        _, err = _out(capsys)
        assert "Traceback" not in err and "hypothesis" in err

    mod = files("m.json", diamond_module().to_json())
    for name, gold in (("zero_den.json", {"0": "1/0"}), ("float.json", {"0": 0.5})):
        path = files(name, gold)
        assert run(["module", "yield", mod, "--gold", path, "--at", "1p"]) == 2
        _, err = _out(capsys)
        assert "Traceback" not in err
    # a valuation atom that is not a resource of the module
    chain_mod = files("chain.json", three_chain_module().to_json())
    for name, gold in (("nope", {"nope": "1"}), ("zap", {"0": "1", "zap": "1", "nope": "2"})):
        path = files(f"{name}.json", gold)
        for cmd in ("cost", "yield"):
            assert run(["module", cmd, chain_mod, "--gold", path, "--at", "0"]) == 2
            out, err = _out(capsys)
            assert out == "" and f"rthy: unknown atom '{name}'" in err  # the first, in file order

    # malformed tables: not an object, a key of wrong arity, or an unknown atom
    unit_module = {"T": ["e"], "X": ["x"], "star": {"e,e": ["e"]},
                   "act": {"e,x": ["x"]}, "unit": ["e"], "free": ["e"]}
    psi = channel_x().to_json()
    bad_docs = [
        (["module", "validate"], [], {**unit_module, "act": [["e", "x"]]}),
        (["module", "validate"], [], {**unit_module, "star": {"e,e,e": ["e"]}}),
        (["module", "validate"], [], {**unit_module, "star": {"e,q": ["e"]}}),
        (["ucrt", "order"], ["--source", "0", "--target", "0"],
         {**max_quantale().to_json(), "box": {"0": ["0"]}}),
        (["ucrt", "order"], ["--source", "0", "--target", "0"],
         {**max_quantale().to_json(), "box": {"0,7": ["0"]}}),
    ]
    for key in ("0", "0,1,2", "a,0", "00,1"):  # "00,1" names column 0,1 a second time
        cols = dict(psi["columns"])
        cols[key] = cols.pop("0,0")
        bad_docs.append((["channel", "apply"], ["--delta", "0"], {**psi, "columns": cols}))
    # channel columns that are not an object of lists
    bad_docs.append((["channel", "apply"], ["--delta", "0"],
                     {**psi, "columns": list(psi["columns"].values())}))
    bad_docs.append((["channel", "apply"], ["--delta", "0"],
                     {**psi, "columns": {**psi["columns"], "0,0": 1}}))
    # channel sizes that are not JSON integers
    for key, size in (("hypotheses", 3.5), ("input", 4.9), ("output", "4"),
                      ("hypotheses", True)):
        bad_docs.append((["channel", "apply"], ["--delta", "0"], {**psi, key: size}))
    # atom sets given as JSON integers rather than lists of names
    chain = three_chain_module().to_json()
    quantale = max_quantale().to_json()
    for doc in ({**chain, "free": 64}, {**chain, "unit": 1},
                {**unit_module, "star": {"e,e": 8}}, {**unit_module, "act": {"e,x": 1}}):
        bad_docs.append((["module", "validate"], [], doc))
    for doc in ({**quantale, "free": 1}, {**quantale, "box": {"0,0": 1}}):
        bad_docs.append((["ucrt", "order"], ["--source", "0", "--target", "0"], doc))
    # JSON booleans are not rationals
    bad_docs.append((["weight"], [], {"hypotheses": 2, "outcomes": 2,
                                      "columns": [[True, False], [False, True]]}))
    # entries outside the rational grammar, in an encoding and in a channel
    for entry in ("1/0", "1/2/3", "", "x", 0.5, True):
        bad_docs.append((["weight"], [], {"hypotheses": 2, "outcomes": 2,
                                          "columns": [[entry, "0"], ["0", "1"]]}))
        bad_docs.append((["channel", "apply"], ["--delta", "0"],
                         {**psi, "columns": {**psi["columns"],
                                             "0,0": [entry] + psi["columns"]["0,0"][1:]}}))
    # columns that are not a list of lists, and sizes that are not JSON integers
    ident = {"hypotheses": 2, "outcomes": 2, "columns": [["1", "0"], ["0", "1"]]}
    for doc in ({**ident, "columns": 5}, {**ident, "columns": [5, 6]},
                {**ident, "columns": ["10", "01"]}, {**ident, "hypotheses": 2.5},
                {**ident, "hypotheses": True}):
        bad_docs.append((["weight"], [], doc))
        bad_docs.append((["check-order", files("ident.json", ident)], [], doc))
    # action files whose maps are not a list of name lists or {name: name} objects
    rot = files("rot.json", rotation_module()[0].to_json())
    for action in ({"maps": 5}, {"maps": [5]}, {"maps": [{"base": ["x"]}]},
                   {"maps": [[["base"], "orb1", "orb2", "orb3"]]}):
        bad_docs.append((["module", "covariant", rot, "--action"], [], action))
    # "permutations" must be a JSON boolean
    rm, ra = rotation_module()
    rot_maps = [[rm.resources[i] for i in mp] for mp in ra.maps]
    for flag in ("false", 0):
        bad_docs.append((["module", "covariant", rot, "--action"], [],
                         {"maps": rot_maps, "permutations": flag}))
    # atom names that are not strings, and atom lists that are not JSON lists
    for doc in ({"T": [1, 2], "X": ["x"]}, {**unit_module, "T": "e"},
                {**unit_module, "X": {"x": 1}}):
        bad_docs.append((["module", "validate"], [], doc))
    for doc in ({"R": [0, 1]}, {**quantale, "R": "012"}):
        bad_docs.append((["ucrt", "order"], ["--source", "0", "--target", "0"], doc))
    # a table that breaks the quantale laws: "a" is no unit for "b", and the
    # free set {a} is not idempotent
    broken = {"R": ["a", "b"], "box": {"a,a": ["b"]}, "unit": ["a"], "free": ["a"]}
    bad_docs.append((["ucrt", "order"], ["--source", "a", "--target", "b"], broken))
    bad_docs.append((["ucrt", "catalytic"], ["--source", "a", "--target", "b",
                                             "--catalyst", "a"], broken))
    # lorenz inputs that are not distributions: a negative entry, a sum
    # below 1, and a reference that sums to 2
    for dist in (["2", "-1"], ["1/2", "1/4"]):
        bad_docs.append((["lorenz"], [], dist))
    bad_docs.append((["lorenz", files("half.json", ["1/2", "1/2"]), "--ref"], [], ["1", "1"]))
    for cmd, extra, doc in bad_docs:
        assert run([*cmd, files("malformed.json", doc), *extra]) == 2
        _, err = _out(capsys)
        assert "rthy:" in err and "Traceback" not in err

    # broken laws are named one by one, for what was read
    assert run(["ucrt", "order", files("broken.json", broken),
                "--source", "a", "--target", "b"]) == 2
    _, err = _out(capsys)
    assert err.startswith("rthy: quantale axioms violated: UnitStarViolation('a',), "
                          "UnitStarViolation('b',), FreeNotIdempotent\n")
    bad_module = {**unit_module, "T": ["e", "f"], "free": ["f"]}
    assert run(["module", "order", files("bad_module.json", bad_module)]) == 2
    _, err = _out(capsys)
    assert err.startswith("rthy: module axioms violated: UnitStarViolation('f',), "
                          "FreeNotReflexive\n")


def test_undecodable_files_exit_2(files, tmp_path):
    # JSON nested past the parser's recursion limit, bytes that are not
    # UTF-8 (a UTF-16 byte-order mark), and an integer past Python's
    # digit limit for int(): each reader of each document kind refuses them
    hostile = {"deep.json": b"[" * 200000 + b"]" * 200000,
               "utf16.json": b"\xff\xfe{\x00}\x00",
               "digits.json": b'{"hypotheses": ' + b"9" * 5000 + b"}"}
    x = files("x.json", incomparable_x().to_json())
    mod = files("m.json", rotation_module()[0].to_json())
    for name, blob in hostile.items():
        bad = tmp_path / name
        bad.write_bytes(blob)
        for argv in (["check-order", bad, x], ["lorenz", bad],
                     ["channel", "apply", bad, "--delta", "0"], ["module", "validate", bad],
                     ["ucrt", "order", bad, "--source", "0", "--target", "0"],
                     ["module", "yield", mod, "--gold", bad, "--at", "orb1"],
                     ["module", "covariant", mod, "--action", bad]):
            code, err = _run_quietly(argv)
            assert code == 2, (name, argv)
            assert "rthy:" in err and "Traceback" not in err


def test_channel_delta_out_of_range_names_index(files, capsys):
    psi = files("psi.json", channel_x().to_json())
    for a in ("7", "-1"):
        assert run(["channel", "apply", psi, "--delta", a]) == 2
        _, err = _out(capsys)
        assert f"input index {a} " in err and "4 inputs" in err


def test_oversized_channel_is_refused_before_allocation(files, capsys):
    # 3000 x 3000 declared columns and none given: refused by the column
    # count, before a table of the declared size is built
    doc = {"hypotheses": 3000, "input": 3000, "output": 1, "columns": {}}
    path = files("huge.json", doc)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as refused:
            ChannelEncoding.from_json(doc)
        code = run(["channel", "apply", path, "--delta", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert code == 2 and "0 columns, expected" in str(refused.value)
    _, err = _out(capsys)
    assert "= 9000000" in err and "Traceback" not in err


SIZE_JUNK = (0, -1, -4, 1, 2, 5, 3.0, 0.5, True, False, None, "3", [3], 10 ** 6, 10 ** 12, 2 ** 64)
VALUE_JUNK = (None, True, 0, 1, -1, 0.5, "1/0", "x", "-1", "", [], {}, ["1"], {"0": "1"})
KEY_JUNK = ("", "0", "0,0,0", "a,0", "00,0", " 1,2", "1,1", "3,3", "2,4", "-1,0",
            f"{10 ** 12},0", "0,1.0")


def _junk(values):
    """One of ``values``, copied: a drawn list or dict can be changed in place
    by a later mutation, and must not change the constant it came from."""
    return st.sampled_from(values).map(copy.deepcopy)


def _mutate(doc, data):
    """One random change to a JSON document: the whole document replaced; a
    key dropped, renamed or given a size of the wrong type or range; or an
    entry of a nested table (a channel's or an encoding's columns, an atom
    list, a table of atom sets, a list of maps) dropped, repeated or renamed,
    replaced by junk, or given the wrong arity.  A list document is its own
    table."""
    kind = data.draw(st.sampled_from(("drop", "rename", "size", "drop-col", "rename-col",
                                      "col", "arity", "entry", "whole")))
    if kind == "whole" or not isinstance(doc, (dict, list)):
        return data.draw(st.sampled_from((None, 3, "channel", [doc], [])))
    if isinstance(doc, list):
        tables = [doc] if doc else []
    else:
        tables = [doc[k] for k in sorted(doc) if isinstance(doc[k], (dict, list)) and doc[k]]
    if isinstance(doc, dict) and (kind in ("drop", "rename", "size") or not tables):
        key = data.draw(st.sampled_from(sorted(doc) or ["hypotheses"]))
        if kind == "drop":
            doc.pop(key, None)
        elif kind == "rename":
            doc[data.draw(st.sampled_from(("inputs", "Hypotheses", "outputs", "cols")))] = \
                doc.pop(key, None)
        else:
            doc[key] = data.draw(_junk(SIZE_JUNK))
        return doc
    if not tables:
        return data.draw(st.sampled_from((None, 3, [])))
    cols = data.draw(st.sampled_from(tables))
    key = data.draw(st.sampled_from(sorted(cols) if isinstance(cols, dict) else range(len(cols))))
    if kind == "drop-col":
        del cols[key]
    elif kind == "rename-col":
        if isinstance(cols, dict):
            cols[data.draw(st.sampled_from(KEY_JUNK))] = cols.pop(key)
        else:
            cols.append(cols[key])
    elif kind == "col":
        cols[key] = data.draw(_junk(VALUE_JUNK))
    elif not isinstance(cols[key], list) or not cols[key]:
        cols[key] = ["1"]
    elif kind == "arity":
        cols[key] = cols[key][:-1] if data.draw(st.booleans()) else cols[key] + ["0"]
    else:
        cols[key][data.draw(st.integers(0, len(cols[key]) - 1))] = \
            data.draw(_junk(VALUE_JUNK))
    return doc


def _run_quietly(argv):
    """``run(argv)`` with stdout and stderr captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    return code, err.getvalue()


@given(data=st.data())
def test_channel_subcommands_fuzzed_documents_exit_cleanly(tmp_path_factory, data):
    # exit 0, 2 or 3 and never a traceback, whatever the channel document holds
    doc = channel_x().to_json()
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    folder = tmp_path_factory.mktemp("fuzz")
    psi, x = folder / "psi.json", folder / "x.json"
    psi.write_text(json.dumps(doc))
    x.write_text(json.dumps(incomparable_x().to_json()))
    for argv in (["apply", psi, "--delta", "0"], ["apply", psi, "--input", "1,0,0,0"],
                 ["simulate", x, psi], ["equivalent", psi, x],
                 ["yield", psi, "--monotone", "weight"]):
        code, err = _run_quietly(["channel", *argv])
        assert code in (0, 2, 3), (argv, doc)
        assert "Traceback" not in err


def _bundled_documents():
    """Each other document kind: a bundled document of that kind, and the
    argument lists (FILE standing for it) of the subcommands that read it."""
    m, action = rotation_module()
    rot_maps = [[m.resources[i] for i in mp] for mp in action.maps]
    return {
        "encoding": (incomparable_x().to_json(), [
            ["check-order", "FILE", "y.json"], ["check-order", "y.json", "FILE"],
            ["weight", "FILE"], ["weight", "FILE", "--m", "1", "--k", "2"],
            ["robustness", "FILE", "--kind", "free"], ["markotope", "y.json", "FILE"],
            ["zonotope", "FILE", "--contains", "y.json"], ["possibilistic", "FILE", "y.json"],
            ["channel", "simulate", "FILE", "psi.json"]]),
        "distribution": (["1/2", "1/4", "1/4"], [
            ["lorenz", "FILE"], ["lorenz", "r.json", "--ref", "FILE"]]),
        "module": (m.to_json(), [
            ["module", "validate", "FILE"], ["module", "order", "FILE"],
            ["module", "yield", "FILE", "--gold", "gold.json", "--at", "orb1"],
            ["module", "cost", "FILE", "--gold", "gold.json", "--at", "orb1"],
            ["module", "covariant", "FILE", "--action", "action.json"],
            ["module", "augment", "FILE", "--set", "rot1"]]),
        "quantale": (max_quantale().to_json(), [
            ["ucrt", "order", "FILE", "--source", "1", "--target", "0"],
            ["ucrt", "catalytic", "FILE", "--source", "1", "--target", "0", "--catalyst", "2"]]),
        "valuation": ({"base": "0", "orb1": "1", "orb2": "+inf", "orb3": "-1/2"}, [
            ["module", "yield", "m.json", "--gold", "FILE", "--at", "orb1"],
            ["module", "cost", "m.json", "--gold", "FILE", "--at", "orb2"]]),
        "action": ({"maps": rot_maps, "permutations": True}, [
            ["module", "covariant", "m.json", "--action", "FILE"]]),
    }


@pytest.mark.parametrize("kind", ["encoding", "distribution", "module", "quantale",
                                  "valuation", "action"])
@given(data=st.data())
def test_fuzzed_documents_of_every_kind_exit_cleanly(tmp_path_factory, kind, data):
    # exit 0, 2 or 3 and never a traceback, whatever the document holds
    docs = _bundled_documents()
    doc, commands = docs[kind]
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    folder = tmp_path_factory.mktemp("fuzz")
    saved = {"y.json": incomparable_y().to_json(), "psi.json": channel_x().to_json(),
             "r.json": ["1/3", "1/3", "1/3"], "m.json": docs["module"][0],
             "gold.json": docs["valuation"][0], "action.json": docs["action"][0],
             "FILE": doc}
    for name, content in saved.items():
        (folder / name).write_text(json.dumps(content))
    for argv in commands:
        code, err = _run_quietly([folder / a if a in saved else a for a in argv])
        assert code in (0, 2, 3), (argv, doc, err)
        assert "Traceback" not in err


def test_output_is_deterministic(files, capsys):
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    assert run(["check-order", x, y]) == 0
    first, _ = _out(capsys)
    assert run(["check-order", x, y]) == 0
    second, _ = _out(capsys)
    assert first == second
    assert first.endswith("\n")
    json.loads(first)  # single well-formed document


def test_help_mentions_schemas(capsys):
    assert run(["--help"]) == 0
    out, _ = _out(capsys)
    assert "file formats" in out and "encoding" in out


def _fresh_process(argv):
    """``python -m rthy.cli argv`` in a new interpreter: (stdout, stderr, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "rthy.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    return res.stdout, res.stderr, res.returncode


def test_reused_parser_matches_fresh_processes(files, capsys, monkeypatch):
    """One process builds one parser, and every call through it, including
    help and usage errors after a successful call, prints what a fresh
    ``rthy`` process prints."""
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal width
    x = files("x.json", incomparable_x().to_json())
    y = files("y.json", incomparable_y().to_json())
    z = files("z.json", two_point_encoding("1/8", "1/2").to_json())
    m = files("m.json", three_chain_module().to_json())
    sequence = [
        ["check-order", x, y],
        ["--help"],
        ["check-order", x],
        ["no-such-command"],
        ["zonotope", z, "--format", "csv"],
        ["zonotope", z],
        ["module", "validate", m],
        ["module", "--help"],
        ["zonotope", "--help"],
        ["weight", x, "--m", "1"],
    ]
    cli._build_parser.cache_clear()
    seen = []
    for argv in sequence:
        code = run(argv)
        out, err = _out(capsys)
        assert (out, err, code) == _fresh_process(argv), argv
        seen.append((out, err, code))
    assert [code for _, _, code in seen] == [0, 0, 2, 2, 0, 0, 0, 0, 0, 2]
    assert "following arguments are required: y" in seen[2][1]
    assert "invalid choice: 'no-such-command'" in seen[3][1]
    assert seen[4][0] == "0,0\n7/8,1/2\n1,1\n1/8,1/2\n"
    assert json.loads(seen[5][0])["vertices"][1] == ["7/8", "1/2"]
    assert json.loads(seen[6][0]) == {"valid": True, "violations": []}
    assert "--m and --k must be given together" in seen[9][1]
    assert cli._build_parser.cache_info().misses == 1


def test_enumeration_guard_read_on_every_call(files, capsys, monkeypatch):
    x = files("x.json", incomparable_x().to_json())
    argv = ["weight", x, "--m", "1", "--k", "3"]
    monkeypatch.delenv("RTHY_ENUM_GUARD", raising=False)
    assert run(argv) == 0
    assert "value" in _json_out(capsys)
    monkeypatch.setenv("RTHY_ENUM_GUARD", "1")
    assert run(argv) == 3
    _, err = _out(capsys)
    assert "search too large" in err
