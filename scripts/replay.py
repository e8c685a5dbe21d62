#!/usr/bin/env python3
"""Replay the evidence behind rthy's answers with fractions only.

Each answer comes from ``python -m rthy.cli``; its evidence is checked here,
not trusted.  Conversion and Boolean witnesses are applied, Farkas vectors and
zonotope certificates are read as decision problems (Blackwell 1953), the comb
behind an exact channel yield rebuilds the channel, a module's associativity
violation and a catalytic conversion are recomputed from their tables, and
Beale's (1955) cycling LP's optimum replays with its duals.  Run
``PYTHONPATH=src python3 scripts/replay.py``.
"""

import json
import random
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

from rthy.exactmath import OPTIMAL, LpProblem, lp_solve
from rthy.instances import (binary_image_of_x, channel_x, channel_y, incomparable_x,
                            incomparable_y, max_quantale, three_chain_module,
                            two_level_module, two_point_encoding)

# inputs 0 and 1 tie on free robustness; only input 1's encoding simulates the channel
TIED_CHANNEL = {"hypotheses": 3, "input": 2, "output": 2, "columns": {
    "0,0": ["3/5", "2/5"], "0,1": ["1/4", "3/4"], "1,0": ["1", "0"], "1,1": ["1", "0"],
    "2,0": ["1", "0"], "2,1": ["1", "0"]}}


def rthy(*argv, code=0):
    """Run ``python -m rthy.cli argv``: its JSON document, or its stderr when ``code`` != 0."""
    res = subprocess.run([sys.executable, "-m", "rthy.cli", *argv], capture_output=True, text=True)
    assert res.returncode == code, (argv, res.returncode, res.stderr)
    return json.loads(res.stdout) if code == 0 else res.stderr


def save(tmp, name, doc):
    path = Path(tmp, f"{name}.json")
    path.write_text(json.dumps(doc))
    return path


def enc(rows):
    """The encoding document of rows[i][c] (outcome i, hypothesis c)."""
    return {"hypotheses": len(rows[0]), "outcomes": len(rows),
            "columns": [[str(v) for v in col] for col in zip(*rows)]}


def rows(doc):
    """rows[i][c] of a column-major document, columns[c][i]: an encoding or a witness."""
    cols = [[F(v) for v in col] for col in doc["columns"]]
    assert len({len(col) for col in cols}) == 1, doc
    return [list(row) for row in zip(*cols)]


def dot(a, b):
    return sum((p * q for p, q in zip(a, b)), F(0))


def product(t, x):
    return [[dot(t_i, x_c) for x_c in zip(*x)] for t_i in t]


def check_distributions(cols, size):
    for col in cols:
        assert len(col) == size and min(col) >= 0 and sum(col) == 1, col


def replay_witness(witness, x, y):
    """The witness t, t[i][j] = columns[j][i], sends outcome j of x to outcome i of y."""
    t = rows(witness)
    assert all(len(t_i) == len(x) for t_i in t), (t, x)
    check_distributions(zip(*t), len(y))
    assert product(t, x) == y, (t, x, y)
    return f"t is {len(t)}x{len(x)}"


def replay_bool_witness(witness, x, y):
    """The witness T is row-major over {0, 1}, and ceil keeps supports."""
    big_t, cx = witness["rows"], [[int(v > 0) for v in x_j] for x_j in x]
    assert all(len(t_i) == len(x) for t_i in big_t), big_t
    assert all(any(col) for col in zip(*big_t)), big_t
    assert [[int(any(t_ij and x_j[c] for t_ij, x_j in zip(t_i, cx))) for c in range(len(cx[0]))]
            for t_i in big_t] == [[int(v > 0) for v in y_i] for y_i in y], (big_t, cx, y)
    return f"T is {len(big_t)}x{len(x)}"


def decision_problem(x, y, u, g):
    """Action i (an outcome of y) has utility u_i, and g_j + max_i u_i.x_j <= 0
    on every outcome j of x, while sum_i u_i.y_i + sum_j g_j > 0: y earns more on
    u than any post-processing of x.  Returns what y pays and the most x pays."""
    best = [max(dot(u_i, x_j) for u_i in u) for x_j in x]
    pay_y = sum(dot(u_i, y_i) for u_i, y_i in zip(u, y))
    assert all(b + g_j <= 0 for b, g_j in zip(best, g)), (best, g)
    assert pay_y + sum(g) > 0, (pay_y, g)
    return pay_y, sum(best)


def replay_farkas(cert, x, y):
    """The Farkas vector f refutes x -> y: the conversion LP's f.A <= 0 and
    f.b > 0, regrouped with u_i[c] = f[c*n_y + i] and g_j = f[h*n_y + j]."""
    assert cert["verified"] is True, cert
    f, h, n_y = [F(v) for v in cert["farkas"]], len(x[0]), len(y)
    assert len(f) == h * n_y + len(x), (len(f), h, n_y, len(x))
    pay_y, pay_x = decision_problem(x, y, [f[i:h * n_y:n_y] for i in range(n_y)], f[h * n_y:])
    return f"y pays {pay_y}, x at most {pay_x}"


def replay_zonotope_certificate(cert, x, y):
    """(w, S) shows Z(y) is not inside Z(x): the decision problem with u_i = w
    for i in S, else 0, and g_j = -max(0, w.x_j); its two sides are the supports."""
    w = [F(v) for v in cert["normal"]]
    assert cert["subset"] == [i for i, y_i in enumerate(y) if dot(w, y_i) > 0], cert
    u = [w if i in cert["subset"] else [F(0)] * len(w) for i in range(len(y))]
    g = [-max(F(0), dot(w, x_j)) for x_j in x]
    assert F(cert["support_y"]) == decision_problem(x, y, u, g)[0], cert
    assert F(cert["support_x"]) == -sum(g), cert
    return f"{cert['support_y']} > {cert['support_x']} on {cert['normal']}"


def replay_comb(sigma, x, tensor):
    """sigma["b,a"] is the output distribution for outcome b of x and input a,
    and sum_b x[b][c] sigma["b,a"] is the channel's column tensor[c][a]."""
    n_in, n_out = len(tensor[0]), len(tensor[0][0])
    sigma = {k: [F(v) for v in col] for k, col in sigma.items()}
    check_distributions([sigma[f"{b},{a}"] for b in range(len(x)) for a in range(n_in)], n_out)
    for c, channel_c in enumerate(tensor):
        for a, column in enumerate(channel_c):
            assert [dot([x_b[c] for x_b in x], [sigma[f"{b},{a}"][o] for b in range(len(x))])
                    for o in range(n_out)] == column, (c, a, column)


def replay_channel_yields(tmp):
    both = (["weight"], ["fmk", "--m", "1", "--k", "3"])
    replayed = []
    for name, doc, monotones in (("channel_x", channel_x().to_json(), both),
                                 ("channel_y", channel_y().to_json(), both),
                                 ("tied", TIED_CHANNEL, (["free-robustness"],))):
        path, n_in = save(tmp, name, doc), doc["input"]
        tensor = [[[F(v) for v in doc["columns"][f"{c},{a}"]] for a in range(n_in)]
                  for c in range(doc["hypotheses"])]
        assert "unrecognized arguments: --mode" in rthy(
            "channel", "yield", path, "--monotone", "weight", "--mode", "grid:2", code=2)
        for monotone in monotones:
            res = rthy("channel", "yield", path, "--monotone", *monotone)
            assert res["exact"] is True, res
            mu = [F(v) for v in res["maximizer"]]
            assert sorted(mu) == [0] * (n_in - 1) + [1], mu  # a delta input
            a = mu.index(1)
            x = rthy("channel", "apply", path, "--delta", str(a))["encoding"]
            assert rows(x) == rows({"columns": [channel_c[a] for channel_c in tensor]}), x
            delta = save(tmp, f"{name}_delta{a}", x)
            if monotone[0] in ("weight", "fmk"):
                # the value is the monotone of the maximizer, evaluated on its own
                own = rthy("weight", delta, *monotone[1:])
                assert own["value"] == res["value"], (own, res)
            sim = rthy("channel", "simulate", delta, path)
            assert sim["convertible"] is True, sim
            replay_comb(sim["witness"]["sigma"], rows(x), tensor)
            replayed.append(f"{name} {monotone[0]} (delta {a}, value {res['value']})")
    return replayed


def conversion_fixtures():
    # x12 -> y12 has 12 outcomes, 4 hypotheses and y = t.x for a t with weights
    # 1..9 per column: y's large denominators sit on the LP's right-hand side only
    def normalized(weights):
        sums = [sum(col) for col in zip(*weights)]
        return [[F(v, s) for v, s in zip(row, sums)] for row in weights]
    rng = random.Random(0)
    big_x = normalized([[rng.randint(1, 9) for _ in range(4)] for _ in range(12)])
    big_t = normalized([[rng.randint(1, 9) for _ in range(12)] for _ in range(12)])
    # x has a zero row and two rows of equal type; y = t.x takes row 0 and half
    # of row 2, halves of rows 2 and 3, then half of row 3; z has a row of type
    # 7/10, above every type of x.  x3, y3 are the bundled incomparable pair and
    # b3 a binary image of x3; d has rank 2 at h = 3, e is a coarse-graining of it
    H = F(1, 2)
    return {"x12": enc(big_x), "y12": enc(product(big_t, big_x)),
            # uniform on 5 outcomes: 31^5 candidate Boolean witnesses
            "u": {"hypotheses": 2, "outcomes": 5, "columns": [["1/5"] * 5] * 2},
            "x": enc([[F(1, 4), F(1, 8)], [F(0), F(0)], [H, F(1, 4)], [F(1, 4), F(5, 8)]]),
            "y": enc([[H, F(1, 4)], [F(3, 8), F(7, 16)], [F(1, 8), F(5, 16)]]),
            "z": enc([[F(7, 8), F(3, 8)], [F(1, 8), F(5, 8)]]),
            "eighth": two_point_encoding("1/8", "1/2").to_json(),
            "quarter": two_point_encoding("1/4", "3/4").to_json(),
            "x3": incomparable_x().to_json(), "y3": incomparable_y().to_json(),
            "b3": binary_image_of_x().to_json(),
            "d": enc([[H, H, F(0)], [H, H, H], [F(0), F(0), H]]),
            "e": enc([[F(1), F(1), H], [F(0), F(0), H]])}


def replay_conversions(tmp):
    docs = conversion_fixtures()
    path = {name: save(tmp, name, doc) for name, doc in docs.items()}
    enc_rows = {name: rows(doc) for name, doc in docs.items()}
    # h = 2 pairs take check-order's LP-free paths; at h = 3 the LP leaves out row
    # (c, n_y - 1) of each hypothesis c, and replaying d -> e checks those rows too;
    # b3 -> x3 is refuted by a normal on hypotheses 0 and 1, x3 <-> y3 by the LP
    lines = []
    for cmd, convertible, replay, pairs in (
            ("check-order", True, replay_witness,
             (("x3", "b3"), ("x12", "y12"), ("x", "y"), ("d", "e"))),
            ("possibilistic", True, replay_bool_witness, (("x3", "b3"), ("u", "u"))),
            ("check-order", False, replay_farkas,
             (("x", "z"), ("eighth", "quarter"), ("b3", "x3"), ("x3", "y3"), ("y3", "x3")))):
        for src, dst in pairs:
            doc = rthy(cmd, path[src], path[dst])
            assert doc["convertible"] is convertible, doc
            evidence = doc["witness"] if convertible else doc["certificate"]
            lines.append(f"{src} -> {dst}: {replay(evidence, enc_rows[src], enc_rows[dst])}")
    # Z(quarter) leaves Z(eighth) along the pair scan's normal, Z(x3) leaves
    # Z(y3) along a facet normal, since no pair of hypotheses separates them
    assert rthy("zonotope", path["d"], "--contains", path["e"]) == {"includes": True}
    for src, dst in (("eighth", "quarter"), ("y3", "x3")):
        doc = rthy("zonotope", path[src], "--contains", path[dst])
        assert doc["includes"] is False, doc
        cert = replay_zonotope_certificate(doc["certificate"], enc_rows[src], enc_rows[dst])
        lines.append(f"Z({dst}) not inside Z({src}): {cert}")
    return lines


def lift(cell, left, right):
    """The product of two atom sets: the union of ``cell(a, b)`` over their pairs."""
    return {c for a in left for b in right for c in cell(a, b)}


def replay_first_violation(tmp, doc):
    """``rthy module validate`` refuses ``doc``, and its first violation
    (i, j, k) is one of associativity: recomputed as sets from the tables,
    (i*j)*k and i*(j*k) differ (with the action as the last product when k
    is a resource)."""
    res = rthy("module", "validate", save(tmp, "tampered", doc))
    first = res["violations"][0]
    kinds = ("AssociativityViolation", "MixedAssociativityViolation")
    assert res["valid"] is False and first["kind"] in kinds, first
    i, j, k = first["witness"]

    def star(a, b):
        return doc["star"].get(f"{a},{b}", ())

    def act(a, x):
        return doc["act"].get(f"{a},{x}", ())

    last = star if first["kind"] == kinds[0] else act
    left, right = lift(last, lift(star, {i}, {j}), {k}), lift(last, {i}, lift(last, {j}, {k}))
    assert left != right, (first, left, right)
    return f"({i}*{j})*{k} = {sorted(left)}, {i}*({j}*{k}) = {sorted(right)}"


def replay_modules(tmp):
    """The bundled three-chain module (all 27 self-maps of a 3-chain) and the
    two-level module validate.  Copies of the three-chain module with one cell
    changed do not, and their first violations replay as sets: f000*f000 =
    f111, a star cell of two atoms, and an action cell moved.  On the max
    quantale, catalyst 2 relates source 0 to target 1: target*2 lies inside
    free*(source*2), by its box table."""
    three_chain = three_chain_module().to_json()
    for name, doc in (("three_chain", three_chain), ("two_level", two_level_module()[0].to_json())):
        res = rthy("module", "validate", save(tmp, name, doc))
        assert res == {"valid": True, "violations": []}, (name, res)
    lines = []
    for label, table, key, out in (("broken", "star", "f000,f000", ["f111"]),
                                   ("two-atom star cell", "star", "f000,f111", ["f000", "f111"]),
                                   ("moved action cell", "act", "f120,0", ["2"])):
        doc = json.loads(json.dumps(three_chain))
        doc[table][key] = out
        lines.append(f"{label} module: {replay_first_violation(tmp, doc)}")
    doc = max_quantale().to_json()

    def box(a, b):  # the table gives one triangle of the symmetric product
        return doc["box"].get(f"{a},{b}", doc["box"].get(f"{b},{a}", ()))

    res = rthy("ucrt", "catalytic", save(tmp, "max_quantale", doc),
               "--source", "0", "--target", "1", "--catalyst", "2")
    related = lift(box, {"1"}, {"2"}) <= lift(box, doc["free"], lift(box, {"0"}, {"2"}))
    assert res == {"related": related, "catalyst": "2"} and related, res
    return lines + ["max quantale: 0 -> 1 with catalyst 2"]


def replay_beale():
    # minimize -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7; x1, x2, x3 are the rows' slacks
    beale = LpProblem(c=[F(v) for v in (0, 0, 0, "-3/4", 20, "-1/2", 6)],
                      a_rows=[[F(v) for v in row] for row in ((1, 0, 0, "1/4", -8, -1, 9),
                                                             (0, 1, 0, "1/2", -12, "-1/2", 3),
                                                             (0, 0, 1, 0, 0, 1, 0))],
                      b=[F(0), F(0), F(1)])
    out = lp_solve(beale)
    assert out.status == OPTIMAL and out.objective == F(-5, 4), out
    # x is feasible, y is dual feasible, complementary slackness holds, and y.b = c.x
    x, y = out.primal, out.dual
    assert min(x) >= 0 and [dot(row, x) for row in beale.a_rows] == beale.b, x
    reduced = [c_j - dot(y, col) for c_j, col in zip(beale.c, zip(*beale.a_rows))]
    assert min(reduced) >= 0, reduced
    assert all(r == 0 for r, x_j in zip(reduced, x) if x_j > 0), (reduced, x)
    assert dot(y, beale.b) == dot(beale.c, x) == F(-5, 4), (y, x)
    return (f"Beale's LP solves to {out.objective} in {out.stats.phase1_pivots} + "
            f"{out.stats.phase2_pivots} pivots, with duals {[str(v) for v in y]}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        print("exact channel yields replayed:", "; ".join(replay_channel_yields(tmp)))
        print("conversions replayed:", "; ".join(replay_conversions(tmp)))
        print("module tables replayed:", "; ".join(replay_modules(tmp)))
    print(replay_beale())


if __name__ == "__main__":
    main()
