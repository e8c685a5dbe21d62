#!/usr/bin/env python3
"""Dossier for the bundled pair of incomparable 3-hypothesis encodings.

Walks the whole stack on one worked example, printing exact rationals:

  * conversion decisions in both directions, each refuting Farkas vector
    replayed on x and y as a decision problem on which y pays more than
    any post-processing of x;
  * the gauge values that separate the pair (weight, robustness, and the
    rank-stratum weights), and which direction each gauge blocks;
  * the geometry: zonotope inclusion holds one way even though conversion
    fails, while a binary image separates the 2-outcome Markotopes;
  * the possibilistic shadows: entrywise ceilings, the Boolean order in
    both directions, and the hypothesis hypergraphs;
  * the channel layer: both bundled channels are equivalent to their state
    encodings, and channel yields of the rank-stratum gauges are exact.

Run from the repository root:

    python3 scripts/incomparability_demo.py
"""

from fractions import Fraction

from rthy import (
    bool_majorizes,
    ceil,
    channel_equivalent,
    channel_yield,
    check_comb_witness,
    comb_simulates,
    delta_input,
    format_rational,
    lorenz,
    majorizes,
    markotope_contains,
    relative_majorizes,
    robustness,
    to_hypergraph,
    weight,
    weight_fmk,
    zonotope_includes,
)
from rthy.instances import (
    binary_image_of_x,
    channel_x,
    channel_y,
    comb_witness_x,
    comb_witness_y,
    incomparable_x,
    incomparable_y,
)


def show(encoding, label):
    print(f"{label}  ({encoding.outcomes} outcomes x {encoding.hypotheses} hypotheses)")
    cells = [[format_rational(encoding.matrix[i][c])
              for c in range(encoding.hypotheses)]
             for i in range(encoding.outcomes)]
    width = max(len(s) for row in cells for s in row)
    for row in cells:
        print("    " + "  ".join(s.rjust(width) for s in row))


def dot(a, b):
    return sum((p * q for p, q in zip(a, b)), Fraction(0))


def decide(x, y, label):
    res = majorizes(x, y)
    print(f"{label}: {'convertible' if res.convertible else 'NOT convertible'}")
    if not res.convertible:
        # the Farkas vector f is a decision problem: action i (an outcome of
        # y) has utility u_i[c] = f at row (c, i), and g_j = f at x's
        # column-sum row j bounds what any action earns on x's outcome j
        f, h, n_y = res.farkas, x.hypotheses, y.outcomes
        u, g = [f[i:h * n_y:n_y] for i in range(n_y)], f[h * n_y:]
        best = [max(dot(u_i, x.matrix[j]) for u_i in u) for j in range(x.outcomes)]
        pay_y = sum(dot(u_i, y.matrix[i]) for i, u_i in enumerate(u))
        assert all(b + g_j <= 0 for b, g_j in zip(best, g)) and pay_y + sum(g) > 0
        print(f"    Farkas vector over {len(f)} constraints, replayed as a decision "
              f"problem: the target pays {format_rational(pay_y)}, any post-processing "
              f"of the source at most {format_rational(sum(best))}")
    return res


def main():
    x, y = incomparable_x(), incomparable_y()
    show(x, "encoding x")
    show(y, "encoding y")

    print("\n== conversion decisions ==")
    decide(x, y, "x -> y")
    decide(y, x, "y -> x")

    print("\n== gauges ==")
    gauges = [
        ("weight", weight),
        ("robustness", robustness),
        ("f_{1,3}", lambda e: weight_fmk(e, 1, 3)),
        ("f_{2,3}", lambda e: weight_fmk(e, 2, 3)),
    ]
    for name, g in gauges:
        gx, gy = g(x), g(y)
        print(f"{name}:  x = {format_rational(gx)},  y = {format_rational(gy)}")
    # every gauge is non-increasing along conversions, so a strict increase
    # in either direction is a no-go certificate for that direction
    assert weight_fmk(x, 1, 3) < weight_fmk(y, 1, 3)
    print("f_{1,3} rises from x to y: blocks x -> y")
    assert weight_fmk(x, 2, 3) > weight_fmk(y, 2, 3)
    print("f_{2,3} rises from y to x: blocks y -> x")

    print("\n== geometry ==")
    print(f"zonotope(x) contains zonotope(y): {zonotope_includes(x, y)}")
    print(f"zonotope(y) contains zonotope(x): {zonotope_includes(y, x)}")
    print("    one-way inclusion at 3 hypotheses does NOT imply conversion")
    z = binary_image_of_x()
    print(f"binary image z of x in Markotope_2(x): {markotope_contains(x, z, 2)}")
    print(f"same z in Markotope_2(y):              {markotope_contains(y, z, 2)}")

    print("\n== possibilistic shadows ==")
    bx, by = ceil(x), ceil(y)
    for b, label in ((bx, "ceil x"), (by, "ceil y")):
        print(f"{label}: " + "; ".join(
            "".join("1" if b.matrix[i][h] else "0" for h in range(b.hypotheses))
            for i in range(b.outcomes)))
    print(f"ceil x -> ceil y in the Boolean order: "
          f"{bool_majorizes(bx, by).convertible}")
    print(f"ceil y -> ceil x in the Boolean order: "
          f"{bool_majorizes(by, bx).convertible}")
    for b, label in ((bx, "ceil x"), (by, "ceil y")):
        edges = sorted(sorted(e) for e in to_hypergraph(b))
        print(f"hypergraph of {label}: {edges}")

    print("\n== channel layer ==")
    px, py = channel_x(), channel_y()
    print(f"psi_x: {px.hypotheses} hypotheses, {px.inputs} inputs")
    print(f"psi_y: {py.hypotheses} hypotheses, {py.inputs} inputs")
    assert check_comb_witness(x, px, comb_witness_x())
    assert check_comb_witness(y, py, comb_witness_y())
    print("bundled comb witnesses accepted for both channels")
    print(f"psi_x equivalent to x: {channel_equivalent(px, x)}")
    print(f"psi_y equivalent to y: {channel_equivalent(py, y)}")
    cross = comb_simulates(y, px)
    print(f"y builds psi_x through a comb: {cross.convertible}")
    assert delta_input(px, 0) == x
    res = channel_yield(px, lambda e: weight_fmk(e, 2, 3))
    print(f"channel yield of f_{{2,3}} on psi_x: {format_rational(res.value)}"
          f" (exact: {res.exact})")
    res = channel_yield(py, lambda e: weight_fmk(e, 1, 3))
    print(f"channel yield of f_{{1,3}} on psi_y: {format_rational(res.value)}"
          f" (exact: {res.exact})")

    print("\n== coda: an incomparable pair seen on Lorenz curves ==")
    a = [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]
    b = [Fraction(7, 8), Fraction(1, 8)]
    ra = [Fraction(1, 4)] * 4
    rb = [Fraction(1, 2)] * 2
    for dist, ref, label in ((a, ra, "a"), (b, rb, "b")):
        pts = ", ".join(f"({format_rational(u)},{format_rational(v)})"
                        for u, v in lorenz(dist, ref))
        print(f"lorenz({label} | uniform): {pts}")
    print(f"(a|u4) -> (b|u2): {relative_majorizes(a, ra, b, rb).convertible}")
    print(f"(b|u2) -> (a|u4): {relative_majorizes(b, rb, a, ra).convertible}")
    print("\ncrossing Lorenz curves, incomparable both ways")


if __name__ == "__main__":
    main()
