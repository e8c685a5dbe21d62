"""Command-line front end.

One subcommand per operation family, one JSON document on stdout per
invocation.  Exit status: 0 when a computation ran (whatever the decision),
2 on usage or input-format problems, 3 when an enumeration guard tripped.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import channels as ch
from . import majorize as mj
from . import measures as ms
from . import monotone as mn
from . import possibilistic as ps
from . import quantale as qt
from .errors import FormatError, GuardError, InvalidModule, RthyError
from .exactmath import format_rational, parse_rational

SCHEMAS = """\
file formats (all rationals are strings like "3/4"; "+inf" (or "inf") and
"-inf" allowed only where noted):

  encoding      {"hypotheses": h, "outcomes": n,
                 "columns": [[n rationals] per hypothesis]}   (column-major)
  distribution  [rational, ...]                                (one column)
  stochastic    {"from": n, "to": m, "columns": [[m rationals] per input]}
  channel       {"hypotheses": h, "input": a, "output": b,
                 "columns": {"h,a": [b rationals]}}            (0-based keys)
  module        {"T": [names], "X": [names],
                 "star": {"t,u": [names]}, "act": {"t,x": [names]},
                 "unit": [names], "free": [names]}             (omitted keys = empty)
  quantale      {"R": [names], "box": {"a,b": [names]},
                 "unit": [names], "free": [names]}
  valuation     {"atom name": rational or "+inf"/"inf"/"-inf", ...}
  action        {"maps": [{"x": "y", ...}, ...], "permutations": bool}

atom names must not contain commas.
"""


def _read_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or past a parser limit
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _encoding(path: str) -> mj.Encoding:
    return mj.Encoding.from_json(_read_doc(path))


def _distribution(path: str):
    doc = _read_doc(path)
    if not isinstance(doc, list) or not doc:
        raise FormatError(f"{path}: a distribution is a nonempty JSON list of rationals")
    xs = [parse_rational(v) for v in doc]
    if not mj.is_distribution(xs):
        raise FormatError(f"{path}: a distribution has nonnegative entries that sum to 1")
    return xs


def _names(text: str):
    return [t for t in (s.strip() for s in text.split(",")) if t]


def _vertices_json(points):
    return [[format_rational(p), format_rational(q)] for p, q in points]


def _emit(doc: dict, fmt: str = "json") -> None:
    if fmt == "csv":
        if "vertices" not in doc:
            raise FormatError("--format csv is only available for vertex/curve output")
        for p, q in doc["vertices"]:
            sys.stdout.write(f"{p},{q}\n")
        return
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _conversion_doc(res, witness_json) -> dict:
    if res.convertible:
        return {"convertible": True, "witness": witness_json(res.witness)}
    if res.farkas is None:
        return {"convertible": False, "certificate": {"exhaustive": True}}
    # majorizes raises rather than return a vector that fails the check
    return {"convertible": False, "certificate": {
        "farkas": [format_rational(v) for v in res.farkas], "verified": True}}


def _bool_map_json(t: ps.BoolStochasticMap) -> dict:
    return {"to": t.n_to, "from": t.n_from,
            "rows": [list(row) for row in t.matrix]}


def _sigma_json(sigma: ch.ChannelEncoding) -> dict:
    return {"sigma": sigma.to_json()["columns"]}


def _monotone_from_args(args):
    kind = args.monotone
    if kind == "fmk":
        if args.m is None or args.k is None:
            raise FormatError("--monotone fmk needs --m and --k")
        return ms.fmk(args.m, args.k)
    if args.m is not None or args.k is not None:
        raise FormatError(f"--m and --k apply only to --monotone fmk, not {kind}")
    table = {
        "weight": ms.weight,
        "robustness": ms.robustness,
        "free-robustness": ms.free_robustness,
        "nonconvexity": ms.nonconvexity,
    }
    return table[kind]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_check_order(args) -> dict:
    x = _encoding(args.x)
    y = _encoding(args.y)
    return _conversion_doc(mj.majorizes(x, y), mj.StochasticMap.to_json)


def _cmd_zonotope(args) -> dict:
    x = _encoding(args.x)
    if args.contains:
        cert = mj.zonotope_certificate(x, _encoding(args.contains))
        if cert is None:
            return {"includes": True}
        return {"includes": False, "certificate": {
            "normal": [format_rational(v) for v in cert.normal],
            "subset": list(cert.subset),
            "support_y": format_rational(cert.support_y),
            "support_x": format_rational(cert.support_x),
        }}
    return {"vertices": _vertices_json(mj.zonotope(x))}


def _cmd_lorenz(args) -> dict:
    xs = _distribution(args.x)
    if args.ref == "uniform":
        rs = [Fraction(1, len(xs))] * len(xs)
    else:
        rs = _distribution(args.ref)
    return {"vertices": _vertices_json(mj.lorenz(xs, rs))}


def _cmd_markotope(args) -> dict:
    x = _encoding(args.x)
    z = _encoding(args.z)
    k = args.k if args.k is not None else z.outcomes
    return {"contains": mj.markotope_contains(x, z, k), "k": k}


def _cmd_weight(args) -> dict:
    x = _encoding(args.x)
    if (args.m is None) != (args.k is None):
        raise FormatError("--m and --k must be given together")
    if args.m is not None:
        return {"value": mn.value_to_json(ms.weight_fmk(x, args.m, args.k)),
                "m": args.m, "k": args.k}
    return {"value": format_rational(ms.weight(x))}


def _cmd_robustness(args) -> dict:
    x = _encoding(args.x)
    fn = {"global": ms.robustness, "free": ms.free_robustness,
          "nonconvexity": ms.nonconvexity}[args.kind]
    return {"kind": args.kind, "value": mn.value_to_json(fn(x))}


def _coerce_bool_encoding(path: str) -> ps.BoolEncoding:
    doc = _read_doc(path)
    try:
        return ps.ceil(mj.Encoding.from_json(doc))
    except RthyError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _cmd_possibilistic(args) -> dict:
    x = _coerce_bool_encoding(args.x)
    if args.y is None:
        edges = ps.to_hypergraph(x)
        return {"edges": [sorted(e) for e in edges]}
    y = _coerce_bool_encoding(args.y)
    return _conversion_doc(ps.bool_majorizes(x, y), _bool_map_json)


def _channel(path: str) -> ch.ChannelEncoding:
    return ch.ChannelEncoding.from_json(_read_doc(path))


def _cmd_channel_apply(args) -> dict:
    psi = _channel(args.psi)
    if args.delta is not None:
        enc = ch.delta_input(psi, args.delta)
    elif args.input is not None:
        mu = [parse_rational(v) for v in _names(args.input)]
        enc = ch.apply_input(psi, mu)
    else:
        raise FormatError("channel apply needs --delta A or --input p1,p2,...")
    return {"encoding": enc.to_json()}


def _cmd_channel_simulate(args) -> dict:
    x = _encoding(args.x)
    return _conversion_doc(ch.comb_simulates(x, _channel(args.psi)), _sigma_json)


def _cmd_channel_equivalent(args) -> dict:
    psi = _channel(args.psi)
    return {"equivalent": ch.channel_equivalent(psi, _encoding(args.x))}


def _cmd_channel_yield(args) -> dict:
    psi = _channel(args.psi)
    res = ch.channel_yield(psi, _monotone_from_args(args))
    return {
        "value": mn.value_to_json(res.value),
        "exact": res.exact,
        "maximizer": [format_rational(v) for v in res.maximizer],
    }


def _module(path: str) -> qt.FiniteQuantaleModule:
    return qt.FiniteQuantaleModule.from_json(_read_doc(path))


def _violations_json(violations) -> list:
    return [{"kind": v.kind, "witness": [str(w) for w in v.witness]}
            for v in violations]


def _cmd_module_validate(args) -> dict:
    violations = qt.validate(_module(args.module))
    return {"valid": not violations, "violations": _violations_json(violations)}


def _cmd_module_order(args) -> dict:
    m = _module(args.module)
    p = qt.reachability(m)
    pairs = sorted([m.resources[a], m.resources[b]] for a, b in p.pairs() if a != b)
    return {"atoms": list(m.resources), "pairs": pairs}


def _cmd_module_best(best, args) -> dict:
    """``module yield`` or ``module cost``, as ``best`` is ``mn.yield_`` or ``mn.cost``."""
    m = _module(args.module)
    f = mn.PartialValuation.from_json(_read_doc(args.gold))
    d = sorted(m.free) if args.set is None else _names(args.set)
    return {"value": mn.value_to_json(best(m, d, f, args.at)), "at": args.at}


def _cmd_module_covariant(args) -> dict:
    m = _module(args.module)
    doc = _read_doc(args.action)
    try:
        maps, perm = doc["maps"], doc.get("permutations", True)
    except (KeyError, TypeError) as exc:
        raise FormatError("action JSON needs a 'maps' list") from exc
    if not isinstance(perm, bool):
        raise FormatError("action 'permutations' must be true or false")
    action = qt.action_from_names(m, maps, permutations=perm)
    return {"covariant": sorted(qt.covariant_transformations(m, action))}


def _cmd_module_augment(args) -> dict:
    m = _module(args.module)
    aug = qt.augment(m, _names(args.set))
    order_pairs = sorted([a, b] for a, b in aug.order.pairs() if a != b)
    return {
        "classes": [sorted(c) for c in aug.classes],
        "images": [sorted(i) for i in aug.images],
        "order": order_pairs,
    }


def _quantale(path: str) -> qt.CommutativeQuantale:
    q = qt.CommutativeQuantale.from_json(_read_doc(path))
    violations = qt.validate_quantale(q)
    if violations:
        raise InvalidModule(violations, "quantale")
    return q


def _cmd_ucrt_order(args) -> dict:
    q = _quantale(args.quantale)
    return {"related": qt.ucrt_order(q, _names(args.source), _names(args.target))}


def _cmd_ucrt_catalytic(args) -> dict:
    q = _quantale(args.quantale)
    return {"related": qt.catalytic_order(q, args.catalyst, _names(args.source),
                                          _names(args.target)),
            "catalyst": args.catalyst}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later ``run``.

    Parsing keeps no state in the parser: each call gets a fresh namespace,
    and help and usage text are formatted when they are printed.
    """
    parser = argparse.ArgumentParser(
        prog="rthy",
        description="exact decisions and monotones for finite resource theories",
        epilog=SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check-order", help="matrix majorization decision with witness/certificate")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=_cmd_check_order)

    p = sub.add_parser("zonotope", help="2-hypothesis zonotope vertices, or inclusion with --contains")
    p.add_argument("x")
    p.add_argument("--contains", metavar="Y")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_zonotope)

    p = sub.add_parser("lorenz", help="Lorenz curve vertices of a distribution vs a reference")
    p.add_argument("x")
    p.add_argument("--ref", default="uniform", metavar="uniform|r.json")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_lorenz)

    p = sub.add_parser("markotope", help="membership of a k-outcome encoding in Markotope_k(x)")
    p.add_argument("x")
    p.add_argument("z")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_markotope)

    p = sub.add_parser("weight", help="weight of an encoding; with --m/--k the rank-stratified f_{m,k}")
    p.add_argument("x")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_weight)

    p = sub.add_parser("robustness", help="robustness-family measures")
    p.add_argument("x")
    p.add_argument("--kind", choices=("global", "free", "nonconvexity"), default="global")
    p.set_defaults(fn=_cmd_robustness)

    p = sub.add_parser("possibilistic",
                       help="Boolean-order decision for two encodings, or hypergraph export for one")
    p.add_argument("x")
    p.add_argument("y", nargs="?", default=None)
    p.set_defaults(fn=_cmd_possibilistic)

    p = sub.add_parser("channel", help="channel-theory operations")
    csub = p.add_subparsers(dest="channel_cmd", required=True)
    c = csub.add_parser("apply", help="state encoding of a channel under an input distribution")
    c.add_argument("psi")
    mu = c.add_mutually_exclusive_group()
    mu.add_argument("--delta", type=int, default=None, metavar="A")
    mu.add_argument("--input", default=None, metavar="p1,p2,...")
    c.set_defaults(fn=_cmd_channel_apply)
    c = csub.add_parser("simulate", help="can post-processing of x with copied input rebuild the channel?")
    c.add_argument("x")
    c.add_argument("psi")
    c.set_defaults(fn=_cmd_channel_simulate)
    c = csub.add_parser("equivalent", help="mutual simulation of a channel and a state encoding")
    c.add_argument("psi")
    c.add_argument("x")
    c.set_defaults(fn=_cmd_channel_equivalent)
    c = csub.add_parser("yield", help="max of a state monotone over the channel's delta inputs")
    c.add_argument("psi")
    c.add_argument("--monotone", required=True,
                   choices=("fmk", "weight", "robustness", "free-robustness", "nonconvexity"))
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--k", type=int, default=None)
    c.set_defaults(fn=_cmd_channel_yield)

    p = sub.add_parser("module", help="finite quantale-module operations")
    msub = p.add_subparsers(dest="module_cmd", required=True)
    for name, fn, hlp in (
            ("validate", _cmd_module_validate, "check module laws, listing violations"),
            ("order", _cmd_module_order, "reachability preorder induced by the free set")):
        mp = msub.add_parser(name, help=hlp)
        mp.add_argument("module")
        mp.set_defaults(fn=fn)
    for name, best, hlp in (("yield", mn.yield_, "best gold value reachable from an atom"),
                            ("cost", mn.cost, "cheapest gold atom reaching an atom")):
        mp = msub.add_parser(name, help=hlp)
        mp.add_argument("module")
        mp.add_argument("--gold", required=True, metavar="valuation.json")
        mp.add_argument("--at", required=True, metavar="ATOM")
        mp.add_argument("--set", default=None, metavar="t1,t2,...",
                        help="transformation subset (default: the free set)")
        mp.set_defaults(fn=functools.partial(_cmd_module_best, best))
    mp = msub.add_parser("covariant", help="transformations commuting with a symmetry action")
    mp.add_argument("module")
    mp.add_argument("--action", required=True, metavar="action.json")
    mp.set_defaults(fn=_cmd_module_covariant)
    mp = msub.add_parser("augment", help="quotient classes and order induced by a submonoid")
    mp.add_argument("module")
    mp.add_argument("--set", required=True, metavar="t1,t2,...")
    mp.set_defaults(fn=_cmd_module_augment)

    p = sub.add_parser("ucrt", help="universally combinable resource theories")
    usub = p.add_subparsers(dest="ucrt_cmd", required=True)
    u = usub.add_parser("order", help="free convertibility between resource sets")
    u.add_argument("quantale")
    u.add_argument("--source", required=True, metavar="a,b,...")
    u.add_argument("--target", required=True, metavar="c,d,...")
    u.set_defaults(fn=_cmd_ucrt_order)
    u = usub.add_parser("catalytic", help="convertibility in the presence of a catalyst")
    u.add_argument("quantale")
    u.add_argument("--source", required=True, metavar="a,b,...")
    u.add_argument("--target", required=True, metavar="c,d,...")
    u.add_argument("--catalyst", required=True, metavar="ATOM")
    u.set_defaults(fn=_cmd_ucrt_catalytic)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.fn(args)
        _emit(doc, getattr(args, "format", "json"))
        return 0
    except GuardError as exc:
        sys.stderr.write(f"rthy: search too large: {exc}\n")
        return 3
    except RthyError as exc:
        sys.stderr.write(f"rthy: {exc}\n")
        sys.stderr.write("rthy: run with --help for the input schemas\n")
        return 2


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
