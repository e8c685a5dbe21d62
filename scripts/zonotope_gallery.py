#!/usr/bin/env python3
"""Export zonotope vertex lists for a gallery of 2-hypothesis encodings.

Writes one CSV per encoding (same row format as ``rthy zonotope --format
csv``: one ``abscissa,ordinate`` line per vertex, exact rationals, counter-
clockwise from the origin) and prints the pairwise inclusion table, which
for 2 hypotheses coincides with the conversion order.

Usage:

    python3 scripts/zonotope_gallery.py [outdir]    # default: zonotope_csv
"""

import sys
from fractions import Fraction
from pathlib import Path

from rthy import Encoding, format_rational, zonotope, zonotope_includes
from rthy.instances import two_point_encoding


def gallery():
    half = Fraction(1, 2)
    members = [
        ("flat", two_point_encoding(half, half)),
        ("skew_18_12", two_point_encoding(Fraction(1, 8), half)),
        ("skew_14_34", two_point_encoding(Fraction(1, 4), Fraction(3, 4))),
        ("extremal", two_point_encoding(Fraction(1), Fraction(0))),
        ("three_outcome", Encoding.from_columns([
            [half, Fraction(1, 3), Fraction(1, 6)],
            [Fraction(1, 6), Fraction(1, 3), half],
        ])),
    ]
    return members


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("zonotope_csv")
    outdir.mkdir(parents=True, exist_ok=True)
    members = gallery()

    for name, enc in members:
        verts = zonotope(enc)
        path = outdir / f"{name}.csv"
        path.write_text("".join(
            f"{format_rational(a)},{format_rational(b)}\n" for a, b in verts))
        print(f"{path}  ({len(verts)} vertices)")

    print("\npairwise inclusion (row's zonotope contains column's):")
    names = [name for name, _ in members]
    width = max(len(n) for n in names)
    print(" " * (width + 2) + "  ".join(n.ljust(width) for n in names))
    for name_a, a in members:
        row = ["yes" if zonotope_includes(a, b) else "no "
               for _, b in members]
        print(name_a.ljust(width + 2) + "  ".join(c.ljust(width) for c in row))

    skew_a = dict(members)["skew_18_12"]
    skew_b = dict(members)["skew_14_34"]
    assert not zonotope_includes(skew_a, skew_b)
    assert not zonotope_includes(skew_b, skew_a)
    print("\nskew_18_12 and skew_14_34 are mutually non-inclusive: "
          "neither converts to the other")


if __name__ == "__main__":
    main()
