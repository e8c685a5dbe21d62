"""Seeded inputs for the three benchmark workloads.

A workload is a pool of rounds; a round is a short list of CLI queries whose
mix (commands, sizes, strata) is fixed, and repeats every ROUND_BLOCK
rounds, so any whole number of blocks runs the same mix.  The seed only
changes the contents of the input files, and not all of them: the inputs
whose time swings most with their contents (decide's check-order pairs of 6
or more outcomes, measure's shapes with n^h >= 128) are drawn from their
round index alone, so that a handful of them cannot set a run's figures.
Every query carries the answers known by construction (``expect``) and the
data needed to replay its evidence (``replay``).

Inputs are built with the standard library, except the bundled channels
(``measure``) and toy modules (``modules``), which come from
``rthy.instances``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("decide", "measure", "modules")
DEFAULT_SEED = 0

# Rounds per pool.  At this size one pass over the decide and measure pools
# takes 25 to 35 s on a 2-core machine, and one over the modules pool about 7 s.
ROUNDS = {"decide": 24, "measure": 16, "modules": 24}


# measure: one encoding shape per n^h bucket, and the (m, k) strata drawn for
# it.  Strata are limited to k <= 4; see bench/baseline.json for why.
MEASURE_SHAPES = ((2, 3), (4, 2), (2, 5), (4, 3), (2, 7), (2, 8))
MAX_STRATUM_K = 4
WIDE_PERIOD = 4
WIDE_NH = 128                   # n^h from which a shape's inputs ignore the seed
WIDE_FMK_PERIOD = {4: 2, 5: WIDE_PERIOD}   # shape index -> f_mk every this many rounds
ROBUSTNESS_KINDS = ("global", "free", "nonconvexity")
CHANNEL_MONOTONES = (("weight",), ("robustness",), ("free-robustness",),
                     ("nonconvexity",), ("fmk", 1, 2), ("fmk", 1, 3), ("fmk", 2, 3))
# Every (channel, monotone) pair once per WIDE_PERIOD rounds, 4 a round.
# Weight and f_1,2 on channel x (about 0.5 s each, next below the two f_mk
# yields with k = 3 and the n^h = 256 f_mk query) come twice, so that the
# 95th percentile of a block falls inside a group of fixed-input queries and
# not between groups, where it would swing with the seed.
YIELDS = [(c, mono) for c in (0, 1) for mono in CHANNEL_MONOTONES]
YIELDS += [(0, ("weight",)), (0, ("fmk", 1, 2))]
# modules: transformation counts of the seeded modules, cycling per round
FUNCTION_MODULE_SIZES = (8, 12, 16, 18, 24, 27, 32, 36)
DOWNSET_MODULE_SIZES = (8, 9, 11, 13)
# Period, in rounds, of each workload's size schedule: runs stop only after
# whole blocks, so the mix of sizes is the same in every run.
ROUND_BLOCK = {"decide": 6, "measure": WIDE_PERIOD, "modules": len(FUNCTION_MODULE_SIZES)}


def fmt(v: Fraction) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass
class Query:
    qid: str
    kind: str
    argv: list
    digest: str = ""
    expect: dict = field(default_factory=dict)     # answer fields known by construction
    replay: dict = field(default_factory=dict)     # data for witness replay / bounds


class _Writer:
    """Writes JSON input files into one directory and remembers their bytes."""

    def __init__(self, directory: str):
        self.dir = directory
        self.data = {}
        os.makedirs(directory, exist_ok=True)

    def file(self, name: str, doc) -> str:
        path = os.path.join(self.dir, name)
        blob = (json.dumps(doc, sort_keys=True) + "\n").encode()
        with open(path, "wb") as fh:
            fh.write(blob)
        self.data[path] = blob
        return path

    def query(self, qid, kind, argv, **kw) -> Query:
        h = hashlib.sha256()
        for arg in argv:
            h.update(self.data.get(arg, arg.encode()))
            h.update(b"\0")
        return Query(qid=qid, kind=kind, argv=argv, digest=h.hexdigest()[:20], **kw)


# ---------------------------------------------------------------------------
# exact random objects (column-major: cols[c][i] is entry i of column c)
# ---------------------------------------------------------------------------


def _dist(rng, n, zero_p=0.0, units=24):
    """Random distribution whose entries are multiples of 1/units."""
    keep = [i for i in range(n) if rng.random() >= zero_p] or [rng.randrange(n)]
    counts = [0] * n
    for i in keep:
        counts[i] = 1
    for _ in range(units - len(keep)):
        counts[rng.choice(keep)] += 1
    return [Fraction(c, units) for c in counts]


def _encoding(rng, n, h, zero_p=0.0):
    return [_dist(rng, n, zero_p=zero_p) for _ in range(h)]


def _stochastic(rng, n_to, n_from, zero_p=0.0):
    """Column-major stochastic map: cols[j] is the output distribution of input j."""
    return [_dist(rng, n_to, zero_p=zero_p) for _ in range(n_from)]


def _apply(t_cols, x_cols):
    n_to = len(t_cols[0])
    return [[sum((t_cols[j][i] * col[j] for j in range(len(col))), Fraction(0))
             for i in range(n_to)] for col in x_cols]


def enc_doc(cols):
    return {"hypotheses": len(cols), "outcomes": len(cols[0]),
            "columns": [[fmt(v) for v in col] for col in cols]}


def _comb_channel(x_cols, sigma, inputs, outputs):
    """psi(b'|h,a) = sum_b x(b|h) sigma[b][a][b']."""
    return [[[sum((col[b] * sigma[b][a][bp] for b in range(len(col))), Fraction(0))
              for bp in range(outputs)] for a in range(inputs)] for col in x_cols]


def channel_doc(tensor):
    return {"hypotheses": len(tensor), "input": len(tensor[0]),
            "output": len(tensor[0][0]),
            "columns": {f"{h},{a}": [fmt(v) for v in tensor[h][a]]
                        for h in range(len(tensor)) for a in range(len(tensor[0]))}}


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _decide_round(rng, w, r):
    """22 queries; shapes cycle with the round index, so every seed runs the same mix.

    LP time grows steeply with size (a 3-outcome pair takes about 10 ms, an
    8-outcome pair with 4 hypotheses about 1 s), so pairs above 6 outcomes
    come once per round each and keep 2 hypotheses.
    """
    qs = []

    def q(kind, argv, **kw):
        qid = f"r{r:02d}q{len(qs):02d}"
        qs.append(w.query(qid, kind, argv, **kw))

    def pair(n, h, convertible, n_to, src=rng):
        x = _encoding(src, n, h)
        if convertible:
            return x, _apply(_stochastic(src, n_to, n), x)
        return x, _encoding(src, n_to, h)

    def files(suffix, *docs):
        tag = f"r{r:02d}q{len(qs):02d}"
        return [w.file(f"{tag}{c}.json", d) for c, d in zip(suffix, docs)]

    # check-order: one constructed and one random pair per outcome count
    shapes = [(n, 2 + (n + r + conv) % 3, conv) for n in range(3, 7) for conv in (True, False)]
    shapes += [(7 + r % 2, 2, True), (7 + r % 2, 2, False)]
    for n, h, conv in shapes:
        # pairs of 6 or more outcomes are the same for every seed: they set
        # the 95th percentile, and their time swings 3x with the input
        src = random.Random(f"decide-wide:{r}:{n}:{conv}") if n >= 6 else rng
        x, y = pair(n, h, conv, n, src)
        fx, fy = files("xy", enc_doc(x), enc_doc(y))
        q("check-order", ["check-order", fx, fy],
          expect={"convertible": True} if conv else {}, replay={"x": x, "y": y})
    # markotope: is z a k-outcome image of x?
    for i, conv in enumerate((True, False, True, False)):
        n, h, k = 3 + (2 * r + i) % 6, 2 + (r + i) % 3, 2 + i % 2
        x, z = pair(n, h, conv, k)
        fx, fz = files("xz", enc_doc(x), enc_doc(z))
        q("markotope", ["markotope", fx, fz, "--k", str(k)],
          expect={"contains": True, "k": k} if conv else {"k": k})
    # zonotope inclusion: two hypotheses take the exact polygon path; three or
    # more take one LP per zonotope vertex of y, so y keeps at most 4 outcomes
    for i, (h, conv) in enumerate(((2, True), (2, False), (3, True), (4, False))):
        n = 3 + (2 * r + i + 1) % 6
        x, y = pair(n, h, conv, n if h == 2 else 2 + (r + i) % 3)
        fx, fy = files("xy", enc_doc(x), enc_doc(y))
        q("zonotope", ["zonotope", fx, "--contains", fy],
          expect={"includes": True} if conv else {})
    # channel simulate: channels built from x by an input-copy comb, or random
    for i, conv in enumerate((True, False, True, False)):
        n, h = 3 + (r + i) % 3, 2 + (r + 2 * i) % 3
        n_in, n_out = 2 + (r + i) % 2, 2 + (r + i // 2) % 2
        x = _encoding(rng, n, h)
        if conv:
            sigma = [[_dist(rng, n_out) for _ in range(n_in)] for _ in range(n)]
            psi = _comb_channel(x, sigma, n_in, n_out)
        else:
            psi = [[_dist(rng, n_out) for _ in range(n_in)] for _ in range(h)]
        fx, fp = files("xp", enc_doc(x), channel_doc(psi))
        q("channel-simulate", ["channel", "simulate", fx, fp],
          expect={"convertible": True} if conv else {}, replay={"x": x, "psi": psi})
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def _strata(h):
    return [(m, k) for m in range(1, h) for k in range(m + 1, min(h, MAX_STRATUM_K) + 1)]


def _det_mixture(rng, n, h):
    """x = sum_i w_i D_i over random deterministic encodings D_i.

    Returns the columns and the (weight, rank) of each component; the rank of
    a deterministic encoding is the number of distinct outcomes it uses.
    """
    parts = []
    for _ in range(rng.randint(2, 5)):
        assign = [rng.randrange(n) for _ in range(h)]
        parts.append((rng.randint(1, 6), assign))
    total = sum(wt for wt, _ in parts)
    cols = [[Fraction(0)] * n for _ in range(h)]
    comps = []
    for wt, assign in parts:
        share = Fraction(wt, total)
        for c, i in enumerate(assign):
            cols[c][i] += share
        comps.append((share, len(set(assign))))
    return cols, comps


def _measure_round(rng, w, r, channel_files):
    qs = []

    def q(kind, argv, **kw):
        qid = f"r{r:02d}q{len(qs):02d}"
        qs.append(w.query(qid, kind, argv, **kw))

    for s, (n, h) in enumerate(MEASURE_SHAPES):
        # The two widest shapes (n^h = 128 and 256) are the same for every
        # seed: their f_mk time swings 2x with the input, and the few of
        # them a run holds cannot average that out.
        src = random.Random(f"measure-wide:{r}:{s}") if n ** h >= WIDE_NH else rng
        x, comps = _det_mixture(src, n, h)
        fx = w.file(f"r{r:02d}s{s}x.json", enc_doc(x))
        # closed forms: the largest constant part of x has mass sum_i min_c x[i,c],
        # and mixing in y makes every row constant once (1-lam) sum_i max_c x[i,c] <= 1
        free = all(col == x[0] for col in x)
        low = sum((min(col[i] for col in x) for i in range(n)), Fraction(0))
        high = sum((max(col[i] for col in x) for i in range(n)), Fraction(0))
        q("weight", ["weight", fx], expect={"value": fmt(1 - low)})
        kind = ROBUSTNESS_KINDS[(r + s) % len(ROBUSTNESS_KINDS)]
        value = fmt(1 - 1 / high) if kind == "global" else "0" if free else "+inf"
        q("robustness", ["robustness", fx, "--kind", kind],
          expect={"kind": kind, "value": value})
        # the two widest shapes take 0.1-0.5 s and 0.3-2 s per query, and
        # their cost varies most with the seed: every 2nd and every 4th round
        period = WIDE_FMK_PERIOD.get(s, 1)
        if r % period != period // 2:
            continue
        strata = _strata(h)
        if n ** h == 256:
            # strata (2, 4) and (3, 4) take 0.5-1.2 s here; the others swing
            # from 0.4 to 2.3 s with the input and would set the spread
            strata = [(m, k) for m, k in strata if m >= 2 and k == MAX_STRATUM_K]
        m, k = strata[(r // period) % len(strata)]
        upper = None
        if all(rk <= k for _, rk in comps):
            upper = sum((wt for wt, rk in comps if rk > m), Fraction(0))
        q("fmk", ["weight", fx, "--m", str(m), "--k", str(k)],
          replay={"upper": upper})
    for j in range(len(YIELDS) * r // WIDE_PERIOD, len(YIELDS) * (r + 1) // WIDE_PERIOD):
        which, mono = YIELDS[j % len(YIELDS)]
        argv = ["channel", "yield", channel_files[which], "--monotone", mono[0]]
        if mono[0] == "fmk":
            argv += ["--m", str(mono[1]), "--k", str(mono[2])]
        q("channel-yield", argv)
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def _closure(n, pairs):
    """Reflexive transitive closure as above[a] = set of b with a >= b."""
    above = [{a} for a in range(n)]
    for a, b in pairs:
        above[a].add(b)
    for k in range(n):
        for a in range(n):
            if k in above[a]:
                above[a] |= above[k]
    return above


def _random_preorder(rng, n):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < 0.3]
    return _closure(n, pairs)


def _preorder_obj(above):
    from rthy.order import FinitePreorder
    n = len(above)
    return FinitePreorder(n, [(a, b) for a in range(n) for b in above[a]])


def _automorphisms(above):
    n = len(above)
    out = []
    for perm in itertools.permutations(range(n)):
        if all((perm[b] in above[perm[a]]) == (b in above[a])
               for a in range(n) for b in range(n)):
            out.append(perm)
    return out


def _order_doc(above, names):
    n = len(above)
    return {"atoms": list(names),
            "pairs": sorted([names[a], names[b]] for a in range(n) for b in above[a] if a != b)}


def _augment_doc(above, names):
    """Expected augmentation by the whole free set: atoms grouped by down-set."""
    by_image = {}
    for x in range(len(above)):
        by_image.setdefault(frozenset(above[x]), []).append(x)
    items = sorted(by_image.items(), key=lambda kv: kv[1][0])
    order = sorted([i, j] for i, (a, _) in enumerate(items) for j, (b, _) in enumerate(items)
                   if i != j and b <= a)
    return {"classes": [sorted(names[x] for x in xs) for _, xs in items],
            "images": [sorted(names[x] for x in img) for img, _ in items],
            "order": order}


def _extreme(vals, pick, empty):
    return fmt(pick(vals)) if vals else empty


def _function_count(above):
    """Transformations of function_module: one per choice of f(x) below each x."""
    count = 1
    for down in above:
        count *= len(down)
    return count


def _downset_count(above):
    """Transformations of downset_module: one per down-set, plus the identity."""
    n = len(above)
    sets = ({i for i in range(n) if mask >> i & 1} for mask in range(1 << n))
    return 1 + sum(all(above[a] <= s for a in s) for s in sets)


def _module_pick(rng, make, count, target):
    """A random preorder whose module has exactly `target` transformations.

    Quantale.validate costs about T^3, so the sizes follow a fixed schedule
    and only the preorders change with the seed.
    """
    while True:
        above = _random_preorder(rng, rng.randint(3, 5))
        if count(above) == target:
            return above, make(_preorder_obj(above))


def _covariant_doc(mdoc, maps):
    act = {}
    for key, out in mdoc["act"].items():
        t, x = key.split(",")
        act[(t, x)] = frozenset(out)
    expected = []
    for t in mdoc["T"]:
        if all(frozenset(g[v] for v in act.get((t, x), ())) == act.get((t, g[x]), frozenset())
               for g in maps for x in mdoc["X"]):
            expected.append(t)
    return {"covariant": sorted(expected)}


def _ucrt_related(box, free, s, t):
    image = {out for a in free for b in s for out in box[(a, b)]}
    return set(t) <= image


def _modules_round(rng, w, r, fixed):
    from rthy import instances

    qs = []

    def q(kind, argv, **kw):
        qid = f"r{r:02d}q{len(qs):02d}"
        qs.append(w.query(qid, kind, argv, **kw))

    tag = f"r{r:02d}"
    fa, fm = _module_pick(rng, instances.function_module, _function_count,
                          FUNCTION_MODULE_SIZES[r % len(FUNCTION_MODULE_SIZES)])
    da, dm = _module_pick(rng, instances.downset_module, _downset_count,
                          DOWNSET_MODULE_SIZES[r % len(DOWNSET_MODULE_SIZES)])
    fdoc, ddoc = fm.to_json(), dm.to_json()
    ff, fd = w.file(f"{tag}fm.json", fdoc), w.file(f"{tag}dm.json", ddoc)
    fnames, dnames = list(fm.resources), list(dm.resources)
    valid = {"valid": True, "violations": []}
    q("module-validate", ["module", "validate", ff], expect=valid)
    q("module-validate", ["module", "validate", fd], expect=valid)
    q("module-order", ["module", "order", ff], expect=_order_doc(fa, fnames))
    q("module-order", ["module", "order", fd], expect=_order_doc(da, dnames))
    q("module-augment", ["module", "augment", fd, "--set", ",".join(ddoc["free"])],
      expect=_augment_doc(da, dnames))
    for cmd, above, names, path in (("yield", fa, fnames, ff), ("cost", da, dnames, fd)):
        gold = {names[i]: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for i in rng.sample(range(len(names)), rng.randint(1, len(names)))}
        fg = w.file(f"{tag}{cmd}gold.json", {k: fmt(v) for k, v in gold.items()})
        at = rng.randrange(len(names))
        if cmd == "yield":  # best gold value in the down-set of the atom
            value = _extreme([gold[names[b]] for b in above[at] if names[b] in gold], max, "-inf")
        else:  # cheapest gold atom whose down-set holds the atom
            value = _extreme([gold[names[a]] for a in range(len(names))
                              if at in above[a] and names[a] in gold], min, "+inf")
        q(f"module-{cmd}", ["module", cmd, path, "--gold", fg, "--at", names[at]],
          expect={"value": value, "at": names[at]})
    maps = [{fnames[i]: fnames[p[i]] for i in range(len(p))} for p in _automorphisms(fa)]
    fact = w.file(f"{tag}action.json", {"maps": maps, "permutations": True})
    q("module-covariant", ["module", "covariant", ff, "--action", fact],
      expect=_covariant_doc(fdoc, maps))
    # max quantale on a chain of levels, free = the lowest levels
    levels = [str(i) for i in range(rng.randint(3, 8))]
    free = levels[:rng.randint(1, len(levels) - 1)]
    box = {(a, b): [max(a, b, key=int)] for a in levels for b in levels}
    fq = w.file(f"{tag}quantale.json", {
        "R": levels, "unit": ["0"], "free": free,
        "box": {f"{a},{b}": out for (a, b), out in box.items() if int(a) <= int(b)}})
    s = sorted(rng.sample(levels, rng.randint(1, 3)), key=int)
    t = sorted(rng.sample(levels, rng.randint(1, 3)), key=int)
    c = rng.choice(levels)
    q("ucrt-order", ["ucrt", "order", fq, "--source", ",".join(s), "--target", ",".join(t)],
      expect={"related": _ucrt_related(box, free, s, t)})
    s2 = {o for b in s for o in box[(c, b)]}
    t2 = {o for b in t for o in box[(c, b)]}
    q("ucrt-catalytic", ["ucrt", "catalytic", fq, "--source", ",".join(s),
                         "--target", ",".join(t), "--catalyst", c],
      expect={"related": _ucrt_related(box, free, s2, t2), "catalyst": c})
    # Boolean shadows: one constructed pair, one random pair, and the
    # hypergraph of the random pair's source
    for conv in (True, False):
        nx, h = rng.randint(3, 4), rng.randint(2, 4)
        x = _encoding(rng, nx, h, zero_p=0.4)
        ny = rng.randint(2, 4)
        if conv:
            y = _apply(_stochastic(rng, ny, nx, zero_p=0.5), x)
        else:
            y = _encoding(rng, ny, h, zero_p=0.4)
        fx = w.file(f"{tag}b{int(conv)}x.json", enc_doc(x))
        fy = w.file(f"{tag}b{int(conv)}y.json", enc_doc(y))
        q("possibilistic", ["possibilistic", fx, fy],
          expect={"convertible": True} if conv else {}, replay={"x": x, "y": y})
    q("hypergraph", ["possibilistic", fx],
      expect={"edges": [sorted(i for i in range(nx) if col[i]) for col in x]})
    # two bundled instances per round, cycling through the fixed list
    for j in (2 * r, 2 * r + 1):
        kind, argv, expect = fixed[j % len(fixed)]
        q(kind, argv, expect=expect)
    rng.shuffle(qs)
    return qs


def _fixed_module_queries(w):
    """Queries on the bundled toy modules; identical for every seed."""
    from rthy import instances

    chain3 = instances.three_chain_module()
    diamond = instances.diamond_module()
    rot, action = instances.rotation_module()
    f3 = w.file("three_chain.json", chain3.to_json())
    fd = w.file("diamond.json", diamond.to_json())
    fr = w.file("rotation.json", rot.to_json())
    fs = w.file("stochastic_pair.json", instances.stochastic_pair_module().to_json())
    fb = w.file("boolean_pair.json", instances.boolean_pair_module().to_json())
    fq = w.file("max_quantale.json", instances.max_quantale().to_json())
    fg = w.file("diamond_gold.json", {"0": "0", "1": "1", "1p": "2", "2": "5/2"})
    names = list(rot.resources)
    fa = w.file("rotation_action.json", {
        "maps": [{names[i]: names[mp[i]] for i in range(len(mp))} for mp in action.maps],
        "permutations": True})
    valid = {"valid": True, "violations": []}
    return [
        ("module-validate", ["module", "validate", f3], valid),
        ("module-order", ["module", "order", fd], {}),
        ("module-covariant", ["module", "covariant", fr, "--action", fa], {}),
        ("module-yield", ["module", "yield", fd, "--gold", fg, "--at", "2"], {}),
        ("module-validate", ["module", "validate", fs], valid),
        ("module-cost", ["module", "cost", fd, "--gold", fg, "--at", "0"], {}),
        ("module-validate", ["module", "validate", fb], valid),
        ("module-augment", ["module", "augment", f3, "--set", ",".join(sorted(chain3.free))], {}),
        ("ucrt-catalytic", ["ucrt", "catalytic", fq, "--source", "0", "--target", "1",
                            "--catalyst", "2"], {"related": True, "catalyst": "2"}),
        ("module-order", ["module", "order", f3], {}),
    ]


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, directory: str, rounds: int = 0):
    """Write the workload's input files into ``directory``; return its rounds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(directory)
    count = rounds or ROUNDS[workload]
    if workload == "decide":
        return [_decide_round(rng, w, r) for r in range(count)]
    if workload == "measure":
        from rthy import instances
        channels = [w.file(f"channel_{c}.json", ch.to_json())
                    for c, ch in (("x", instances.channel_x()), ("y", instances.channel_y()))]
        return [_measure_round(rng, w, r, channels) for r in range(count)]
    fixed = _fixed_module_queries(w)
    return [_modules_round(rng, w, r, fixed) for r in range(count)]
