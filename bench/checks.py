"""Answer checks, with the benchmark's own exact arithmetic.

``check(query, code, stdout, reference)`` returns ``None`` for a correct
answer and a short reason otherwise.  A query is correct when the CLI exits
0, prints one JSON document, replays its evidence (witnesses are re-applied,
Farkas answers carry ``"verified": true``), agrees with every answer known by
construction or by closed form, stays within the bounds its construction
gives, and, where the default-seed reference has its digest, agrees with the
recorded decision or value.
"""

from __future__ import annotations

import json
from fractions import Fraction

F0 = Fraction(0)


def parse(text):
    if "/" in text:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(text))


# ---------------------------------------------------------------------------
# the part of each answer that a correct solver cannot change
# ---------------------------------------------------------------------------

CONVERSIONS = ("check-order", "channel-simulate", "possibilistic")
_DECISION = dict.fromkeys(CONVERSIONS, ("convertible",)) | {
    "markotope": ("contains", "k"),
    "zonotope": ("includes",),
}


def answer_key(kind: str, doc: dict) -> dict:
    """Decisions and values only: witnesses and Farkas vectors are not unique."""
    fields = _DECISION.get(kind)
    if fields is None:
        return doc
    return {f: doc[f] for f in fields}


# ---------------------------------------------------------------------------
# replays
# ---------------------------------------------------------------------------


def _is_dist(col) -> bool:
    return all(v >= 0 for v in col) and sum(col, F0) == 1


def _replay_map(witness, x, y) -> bool:
    """t * x = y for a stochastic t given column-major as in the CLI output."""
    cols = [[parse(v) for v in col] for col in witness["columns"]]
    if len(cols) != len(x[0]) or not all(_is_dist(c) and len(c) == len(y[0]) for c in cols):
        return False
    return all(
        sum((cols[j][i] * xc[j] for j in range(len(xc))), F0) == yc[i]
        for xc, yc in zip(x, y) for i in range(len(yc)))


def _replay_comb(sigma_doc, x, psi) -> bool:
    """sum_b x(b|h) sigma(b'|b,a) = psi(b'|h,a), each sigma(.|b,a) a distribution."""
    inputs, outputs = len(psi[0]), len(psi[0][0])
    sigma = {}
    for b in range(len(x[0])):
        for a in range(inputs):
            col = [parse(v) for v in sigma_doc.get(f"{b},{a}", ())]
            if len(col) != outputs or not _is_dist(col):
                return False
            sigma[b, a] = col
    return all(
        sum((xc[b] * sigma[b, a][bp] for b in range(len(xc))), F0) == psi[h][a][bp]
        for h, xc in enumerate(x) for a in range(inputs) for bp in range(outputs))


def _replay_bool(witness, x, y) -> bool:
    """T o ceil(x) = ceil(y) over the Boolean semiring, every column of T nonzero."""
    rows = witness["rows"]
    nx = len(x[0])
    if len(rows) != len(y[0]) or any(len(r) != nx for r in rows):
        return False
    if not all(any(r[j] for r in rows) for j in range(nx)):
        return False
    return all(
        bool(any(rows[i][j] and xc[j] > 0 for j in range(nx))) == (yc[i] > 0)
        for xc, yc in zip(x, y) for i in range(len(yc)))


def _conversion(query, doc):
    if doc["convertible"]:
        r = query.replay
        if query.kind == "channel-simulate":
            ok = _replay_comb(doc["witness"]["sigma"], r["x"], r["psi"])
        elif query.kind == "possibilistic":
            ok = _replay_bool(doc["witness"], r["x"], r["y"])
        else:
            ok = _replay_map(doc["witness"], r["x"], r["y"])
        return None if ok else "witness does not replay"
    cert = doc.get("certificate", {})
    if query.kind == "possibilistic":
        return None if cert.get("exhaustive") is True else "no exhaustive certificate"
    if cert.get("verified") is not True or not cert.get("farkas"):
        return "Farkas certificate missing or not verified"
    return None


def _fmk_bounds(query, doc):
    """f_mk of x = sum_i w_i D_i is at most the mass on components of rank
    above m, when no component has rank above k; otherwise it may be +inf."""
    text = doc["value"]
    upper = query.replay["upper"]
    if text == "+inf":
        return None if upper is None else "+inf for an encoding inside the hull"
    v = parse(text)
    if not F0 <= v <= (1 if upper is None else upper):
        return "value above the mixture it was built from"
    return None


def check(query, code, out, reference):
    if code != 0:
        return f"exit {code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        for key, want in query.expect.items():
            if doc.get(key) != want:
                return f"{key} differs from the known answer"
        if query.kind in CONVERSIONS:
            why = _conversion(query, doc)
            if why:
                return why
        if query.kind == "fmk":
            why = _fmk_bounds(query, doc)
            if why:
                return why
        want = reference.get(query.digest)
        if want is not None and answer_key(query.kind, doc) != want:
            return "differs from the default-seed reference"
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as exc:
        return f"malformed answer ({type(exc).__name__}: {exc})"
    return None
