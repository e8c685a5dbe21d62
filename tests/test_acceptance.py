"""Headline guarantees, one test per criterion.

Each test prints ``criterion N: PASS`` on success (run with ``pytest -s``
to see the lines); everything is exact rational arithmetic, tolerance zero.
"""

import itertools
import random
from fractions import Fraction

from rthy import (
    Encoding,
    FinitePreorder,
    INFEASIBLE,
    LpOutcome,
    LpProblem,
    MINUS_INF,
    NotConvertible,
    OPTIMAL,
    PLUS_INF,
    PartialValuation,
    UNBOUNDED,
    all_downsets,
    bool_majorizes,
    ceil,
    channel_equivalent,
    channel_yield,
    check_comb_witness,
    cost,
    covariant_transformations,
    down_closure,
    free_robustness,
    is_g_compatible,
    lorenz,
    lp_solve,
    majorizes,
    markotope_contains,
    nonconvexity,
    reachability,
    relative_majorizes,
    robustness,
    to_hypergraph,
    verify_certificate,
    weight,
    weight_fmk,
    yield_,
    zonotope,
    zonotope_includes,
)
from rthy.instances import (
    binary_image_of_x,
    channel_x,
    channel_y,
    comb_witness_x,
    comb_witness_y,
    diamond_module,
    downset_module,
    incomparable_x,
    incomparable_y,
    rotation_module,
    two_level_module,
    two_point_encoding,
)

from conftest import ceil_map, full_conversion_problem, interesting_pairs, left_right_augmentations

H = Fraction(1, 2)
Q = Fraction(1, 4)


def _done(label):
    print(f"criterion {label}: PASS")


def _replay_infeasible(res, x, y) -> bool:
    out = LpOutcome(status=INFEASIBLE, primal=None, dual=None,
                    farkas=tuple(res.farkas), ray=None)
    return verify_certificate(full_conversion_problem(x, y.matrix), out)


def test_criterion_1_incomparability_with_certificates():
    x, y = incomparable_x(), incomparable_y()
    for a, b in ((x, y), (y, x)):
        res = majorizes(a, b)
        assert isinstance(res, NotConvertible)
        assert _replay_infeasible(res, a, b)
    _done(1)


def test_criterion_2_rank_weight_values():
    x, y = incomparable_x(), incomparable_y()
    assert weight_fmk(x, 1, 3) == H
    assert weight_fmk(x, 2, 3) == Q
    assert weight_fmk(y, 1, 3) == 1
    assert weight_fmk(y, 2, 3) == 0
    _done(2)


def test_criterion_3_zonotope_gap():
    x, y = incomparable_x(), incomparable_y()
    assert zonotope_includes(x, y)
    assert not zonotope_includes(y, x)
    z = binary_image_of_x()
    assert markotope_contains(x, z, 2)
    assert not markotope_contains(y, z, 2)
    _done(3)


def test_criterion_4_figure_reproductions():
    x4 = [Fraction(3, 4), Fraction(1, 12), Fraction(1, 12), Fraction(1, 12)]
    y2 = [Fraction(7, 8), Fraction(1, 8)]
    r4 = [Fraction(1, 4)] * 4
    r2 = [Fraction(1, 2)] * 2
    assert lorenz(x4, r4) == [
        (0, 0), (Q, Fraction(3, 4)), (H, Fraction(5, 6)),
        (Fraction(3, 4), Fraction(11, 12)), (1, 1)]
    assert lorenz(y2, r2) == [(0, 0), (H, Fraction(7, 8)), (1, 1)]

    eighth = two_point_encoding(Fraction(1, 8), H)
    quarter = two_point_encoding(Q, Fraction(3, 4))
    assert not zonotope_includes(eighth, quarter)
    assert not zonotope_includes(quarter, eighth)

    assert not relative_majorizes(x4, r4, y2, r2).convertible
    assert not relative_majorizes(y2, r2, x4, r4).convertible
    _done(4)


def test_criterion_5_toy_cost_yield_tables():
    m = diamond_module()
    p = reachability(m)
    names = m.resources
    idx = {nm: i for i, nm in enumerate(names)}
    strict = {(a, b) for a in names for b in names
              if a != b and p.geq(idx[a], idx[b])}
    assert strict == {("1", "0"), ("1p", "0"), ("2", "0"), ("2", "1"), ("2", "1p")}
    free = sorted(m.free)
    f = PartialValuation({"0": 0, "1": 1, "2": 2})
    expected = {"0": (0, 0), "1": (1, 1), "2": (2, 2), "1p": (0, 2)}
    for atom, (y_val, c_val) in expected.items():
        assert yield_(m, free, f, atom) == y_val
        assert cost(m, free, f, atom) == c_val

    m2, u = two_level_module()
    s, d = left_right_augmentations(m2, [u])
    shifted = {"2p": (1, PLUS_INF), "1p": (0, 2), "0p": (MINUS_INF, 1)}
    for atom, (y_val, c_val) in shifted.items():
        assert yield_(m2, d, f, atom) == y_val
        assert cost(m2, s, f, atom) == c_val
    _done(5)


def test_criterion_6_possibilistic_exhaustive():
    bx, by = ceil(incomparable_x()), ceil(incomparable_y())
    assert isinstance(bool_majorizes(bx, by), NotConvertible)
    assert isinstance(bool_majorizes(by, bx), NotConvertible)
    assert to_hypergraph(bx) == [
        frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})]  # star at 0
    assert to_hypergraph(by) == [
        frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]  # triangle
    _done(6)


def test_criterion_7_channel_values():
    x, y = incomparable_x(), incomparable_y()
    px, py = channel_x(), channel_y()
    assert check_comb_witness(x, px, comb_witness_x())
    assert check_comb_witness(y, py, comb_witness_y())
    assert channel_equivalent(px, x)
    assert channel_equivalent(py, y)
    res = channel_yield(px, lambda e: weight_fmk(e, 2, 3))
    assert res.value == Q and res.exact
    res = channel_yield(py, lambda e: weight_fmk(e, 1, 3))
    assert res.value == 1 and res.exact
    _done(7)


def test_criterion_8_covariance():
    m, action = rotation_module()
    assert covariant_transformations(m, action) == {
        "rot0", "rot1", "rot2", "to_base"}
    orbit = ["const1", "const2", "const3"]
    assert is_g_compatible(m, orbit, action)
    assert all(not is_g_compatible(m, [t], action) for t in orbit)
    _done(8)


# ---------------------------------------------------------------------------
# criterion 9: property suites (seeded, exact)
# ---------------------------------------------------------------------------


def _random_distribution(rng, n, den=6):
    weights = [rng.randrange(0, den + 1) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _random_encoding(rng, n, h):
    return Encoding.from_columns([_random_distribution(rng, n) for _ in range(h)])


def _random_stochastic(rng, n_from, n_to):
    from rthy import StochasticMap
    cols = [_random_distribution(rng, n_to) for _ in range(n_from)]
    return StochasticMap.from_rows(list(zip(*cols)))


def test_criterion_9a_lp_self_certification():
    rng = random.Random(190405)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(500):
        free = [rng.random() < 0.3 for _ in range(rng.randrange(1, 5))]
        # (variable, sign) per column: a free variable is a +/- column pair
        cols = [(v, s) for v, f in enumerate(free) for s in ((1, -1) if f else (1,))]
        a_rows, b, kinds = [], [], []
        for _ in range(rng.randrange(1, 4)):
            coeffs = [Fraction(rng.randrange(-3, 4)) for _ in free]
            b.append(Fraction(rng.randrange(-4, 5)))
            kinds.append(rng.choice([0, 1, -1]))  # =, <= (slack +1), >= (surplus -1)
            a_rows.append([s * coeffs[v] for v, s in cols])
        # the slack and surplus columns follow the variable columns, in row order
        ineq = [r for r, kind in enumerate(kinds) if kind]
        for r, row in enumerate(a_rows):
            row += [Fraction(kinds[r] if q == r else 0) for q in ineq]
        cost = [Fraction(rng.randrange(-2, 3)) for _ in free]
        problem = LpProblem(c=[s * cost[v] for v, s in cols] + [Fraction(0)] * len(ineq),
                            a_rows=a_rows, b=b)
        outcome = lp_solve(problem)
        statuses[outcome.status] += 1
        assert verify_certificate(problem, outcome)
    assert all(count > 0 for count in statuses.values())  # all three kinds hit
    _done("9a")


def test_criterion_9b_measure_monotonicity():
    rng = random.Random(271828)
    violations = 0
    for trial in range(200):
        h = 3 if trial % 4 == 0 else 2
        n = rng.randrange(2, 4 if h == 3 else 5)
        x = _random_encoding(rng, n, h)
        t = _random_stochastic(rng, n, rng.randrange(2, n + 2))
        tx = t(x)
        gauges = [weight, robustness, free_robustness, nonconvexity]
        gauges += [lambda e, m=m, k=k: weight_fmk(e, m, k)
                   for m in range(1, h) for k in range(m + 1, h + 1)]
        for gauge in gauges:
            if gauge(tx) > gauge(x):
                violations += 1
    assert violations == 0
    _done("9b")


def test_criterion_9c_zonotope_matches_lp():
    rng = random.Random(314159)
    for _ in range(200):
        x = _random_encoding(rng, rng.randrange(1, 5), 2)
        y = _random_encoding(rng, rng.randrange(1, 5), 2)
        lp = lp_solve(full_conversion_problem(x, y.matrix)).status == OPTIMAL
        assert zonotope_includes(x, y) == lp
    _done("9c")


def _all_preorders(n):
    diag = [(i, i) for i in range(n)]
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for bits in range(1 << len(off)):
        pairs = [off[i] for i in range(len(off)) if bits >> i & 1]
        p = FinitePreorder(n, diag + pairs)
        if sum(bin(row).count("1") for row in p.above) == n + len(pairs):
            out.append(p)  # already transitively closed: counted exactly once
    return out


def _interesting(p, valuation, names):
    return interesting_pairs(p, valuation, names=names)


def _is_monotone_on_domain(p, fd, idx):
    return all(fd[a] >= fd[b]
               for a in fd for b in fd if p.geq(idx[a], idx[b]))


def _extension_info(m, p, names, maps):
    """(domain, interesting sets of f, yield_f, cost_f) per partial map."""
    everything = list(m.transformations)
    out = []
    for fd in maps:
        f = PartialValuation(fd)
        yv = PartialValuation({x: yield_(m, everything, f, x) for x in names})
        cv = PartialValuation({x: cost(m, everything, f, x) for x in names})
        out.append((frozenset(fd), fd, _interesting(p, f, names),
                    _interesting(p, yv, names), _interesting(p, cv, names)))
    return out


def test_criterion_9d_extension_laws_exhaustive():
    counts = []
    for n in range(1, 5):
        preorders = _all_preorders(n)
        counts.append(len(preorders))
        for p in preorders:
            m = downset_module(p)
            names = m.resources
            idx = {nm: i for i, nm in enumerate(names)}
            assert reachability(m).above == p.above  # faithful realization
            everything = list(m.transformations)

            # monotones extend to themselves: yield = f = cost on the domain
            downs = all_downsets(p)
            ups = [frozenset(range(n)) - d for d in downs]
            height = {nm: Fraction(len(down_closure(p, [idx[nm]]))) for nm in names}
            monotone_family = [{nm: Fraction(1 if idx[nm] in u else 0) for nm in names}
                               for u in ups]
            monotone_family.append(height)
            monotone_family += [{nm: height[nm] for nm in names if idx[nm] in d}
                                for d in downs if d]
            for fd in monotone_family:
                f = PartialValuation(fd)
                for atom in fd:
                    assert yield_(m, everything, f, atom) == f(atom)
                    assert cost(m, everything, f, atom) == f(atom)

            # informativeness transfer, forward for total valuations
            # (the implication genuinely fails for some partial domains;
            # see test_monotone.test_transfer_needs_total_or_monotone_input)
            if n <= 3:
                total = [{nm: Fraction(v) for nm, v in zip(names, vals)}
                         for vals in itertools.product((0, 1, 2), repeat=n)]
            else:
                total = [{nm: Fraction(v) for nm, v in zip(names, vals)}
                         for vals in itertools.product((0, 1), repeat=n)]
            info = _extension_info(m, p, names, total)
            for _, _, i_f, iy_f, ic_f in info:
                for _, _, i_g, iy_g, ic_g in info:
                    if i_f >= i_g:
                        assert iy_f >= iy_g
                        assert ic_f >= ic_g
            # forward + converse for monotone valuations sharing a domain;
            # n <= 3 sweeps every partial domain, n = 4 the total ones
            if n <= 3:
                cands = [{nm: Fraction(v) for nm, v in zip(names, vals) if v is not None}
                         for vals in itertools.product((None, 0, 1), repeat=n)]
                pinfo = _extension_info(
                    m, p, names,
                    [fd for fd in cands if _is_monotone_on_domain(p, fd, idx)])
            else:
                pinfo = [row for row in info
                         if _is_monotone_on_domain(p, row[1], idx)]
            for dom_f, _, i_f, iy_f, ic_f in pinfo:
                for dom_g, _, i_g, iy_g, ic_g in pinfo:
                    if dom_f != dom_g:
                        continue
                    if i_f >= i_g:
                        assert iy_f >= iy_g
                        assert ic_f >= ic_g
                    if iy_f >= iy_g or ic_f >= ic_g:
                        assert i_f >= i_g
    assert counts == [1, 4, 29, 355]
    _done("9d")


def test_criterion_9e_ceil_morphism_soundness():
    rng = random.Random(161803)
    for _ in range(100):
        h = rng.randrange(2, 4)
        n = rng.randrange(2, 5)
        x = _random_encoding(rng, n, h)
        t = _random_stochastic(rng, n, rng.randrange(1, 5))
        y = t(x)
        assert ceil_map(t)(ceil(x)) == ceil(y)
        assert bool_majorizes(ceil(x), ceil(y)).convertible
    _done("9e")
