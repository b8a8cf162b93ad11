"""Command line front end.  All arithmetic happens in the library modules."""
from __future__ import annotations

import argparse
import json
import re
import sys

# let arguments like "-7/5" and "-2;1/2,2/3,-1/3" parse as values: no flag starts with -<digit>
_VALUE_PATTERN = re.compile(r"^-\d")
# an error line keeps at most this many UTF-8 bytes of its message, so an echoed input cannot make it long
MAX_ERROR_BYTES = 150

# farey, floer, theta and selftest are imported by the one command that runs each
from . import report
from .classify import EXACT, INFINITE, UNKNOWN, classify
from .contfrac import capped_count, leg_of, read_leg, reverse_shift, shifted_product
from .convex import limit_regime, measured_slope, slope_coeffs, v3_slope, v3_slope_limit
from .seifert import detect_family, h1_order, linking_matrix, parse_manifold
from .slopes import Slope, parse_int


def _cmd_cf(args) -> int:
    x = Slope.parse(args.slope)
    entries, (p, q, u, v) = read_leg(*leg_of(x))
    capped_count(entries)
    shifted = reverse_shift(entries)
    shifted_value = Slope(p - q, v - u)  # equals selftest.ncf_eval(shifted.entries())
    t = shifted_product(entries)  # T(p/q), read off the expansion of -q/p
    if args.json:
        print(report.report("cf", {
            "slope": x,
            "entries": entries,
            "p": p, "q": q, "u": u, "v": v,
            "t": t,
            "reverse_shift": shifted,
            "reverse_shift_value": shifted_value,
        }))
    else:
        print(f"{x} = {list(entries.entries())}")
        print(f"convergents: p={p} q={q} u={u} v={v}")
        print(f"tight count T({p}/{q}) = {t}")
        print(f"reverse shift: {list(shifted.entries())} = {shifted_value}")
    return 0


def _cmd_bypass(args) -> int:
    from .farey import bypass_attach, checked_bypass

    dividing = Slope.parse(args.dividing)
    ruling = Slope.parse(args.ruling)
    result = (checked_bypass if args.oracle else bypass_attach)(dividing, ruling, args.side)
    if args.json:
        body = {"dividing": dividing, "ruling": ruling, "side": args.side, "result": result}
        if args.oracle:
            body["oracle"] = result
        print(report.report("bypass", body))
    else:
        print(f"{result} (oracle agrees)" if args.oracle else result)
    return 0


def _cmd_seifert(args) -> int:
    sd = parse_manifold(args.manifold)
    family = detect_family(sd)
    h1 = h1_order(sd)
    matrix = linking_matrix(sd)
    if args.json:
        p, q, u, v = zip(*sd.conv)
        print(report.report("seifert", {"e0": sd.e0, "r": sd.r, "p": p, "q": q, "u": u, "v": v,
                                        "family": str(family), "h1": h1, "matrix": matrix}))
    else:
        print(sd)
        print(f"family: {family}")
        print(f"|H_1| = {h1}" + ("  (degenerate: surface bundle)" if h1 == 0 else ""))
        print("linking matrix:")
        for row in matrix:
            print("  " + " ".join(f"{x:3d}" for x in row))
    return 0


def _cmd_slopes(args) -> int:
    n1 = parse_int(args.n1)
    sd = parse_manifold(args.manifold)
    if n1 >= 0:
        raise ValueError("twisting --n1 must be negative")
    coeffs = slope_coeffs(sd)
    measured = [measured_slope(i, sd, n1) for i in (1, 2, 3)]
    closed = v3_slope(coeffs, n1)
    limit = None
    if limit_regime(coeffs):
        limit = v3_slope_limit(sd, coeffs)
    if args.json:
        body = {"manifold": sd, "n1": n1, "measured": measured, "coeffs": coeffs, "v3_slope": closed}
        if limit is not None:
            body["limit"] = limit
        print(report.report("slopes", body))
    else:
        print(sd)
        for i, s in enumerate(measured, start=1):
            print(f"s_{i}(n={n1}) = {s}")
        print("coeffs: " + " ".join(f"{name}={Slope(*pair)}" for name, pair in zip("ACFD", coeffs)))
        print(f"v3 slope at n1={n1}: {closed}")
        if limit is not None:
            print(f"limit: {limit.limit}  increasing={limit.increasing}  "
                  f"threshold_ok={limit.threshold_ok}")
        else:
            print("limit: gap region (0 <= A < 1/4)")
    return 0


def _cmd_floer(args) -> int:
    from .floer import ContactIndex, expansion, grid, index_set, laurent_image, pairwise_distinct, stein_obstructed

    n = parse_int(args.n)
    distinct = pairwise_distinct(n)  # refuses the n that index_set refuses, with its messages
    if args.index:
        parts = args.index.split(",")
        if len(parts) != 2:
            raise ValueError(f"--index expected 'i,j', got {args.index!r}")
        indices = [ContactIndex(n, *map(parse_int, parts))]
    else:
        indices = index_set(n)
    positions = list(grid(n))
    rows = [{
        "i": idx.i, "j": idx.j,
        "coeffs": list(expansion(idx).coeffs),
        "laurent": laurent_image(idx),
        "stein_obstructed": stein_obstructed(idx),
    } for idx in indices]
    obstructed = sum(r["stein_obstructed"] for r in rows)
    if args.json:
        print(report.report("floer", {"n": n, "grid": positions, "classes": rows,
                                      "pairwise_distinct": distinct, "obstructed_count": obstructed}))
    else:
        print(f"n = {n}, basis positions {positions}")
        for r in rows:
            flag = "  [not Stein fillable]" if r["stein_obstructed"] else ""
            print(f"(i={r['i']}, j={r['j']}): {r['coeffs']}  {r['laurent']}{flag}")
        print(f"pairwise distinct: {distinct}")
        print(f"obstructed: {obstructed}")
    return 0


def _cmd_theta(args) -> int:
    from .theta import SurgeryDiagram, theta_parts

    with open(args.diagram, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=parse_int)
        except RecursionError:
            raise ValueError("diagram JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("diagram must be a JSON object with keys L and rot")
    for key in ("L", "rot"):
        if key not in data:
            raise ValueError(f"diagram has no key {key!r}")
    diagram = SurgeryDiagram(data["L"], data["rot"])
    parts = theta_parts(diagram)
    if args.json:
        print(report.report("theta", parts))
    else:
        print(f"c1^2 = {parts.c1sq}")
        print(f"sigma = {parts.sigma}")
        print(f"chi = {parts.chi}")
        print(f"theta = {parts.theta}")
    return 0


def _cmd_classify(args) -> int:
    sd = parse_manifold(args.manifold)
    res = classify(sd)
    if args.json:
        print(report.report("classify", res))
    else:
        print(res.manifold)
        if res.status == EXACT:
            print(f"exactly {res.count} tight contact structures")
        elif res.status == INFINITE:
            print("infinitely many tight contact structures")
        else:
            print(f"unknown: {res.certificate['reason']}")
        fill = res.fillability
        bits = [fill.kind] + [f"{name}={bound}" for name in ("stein_lower", "non_stein_lower", "all_strong")
                              if (bound := getattr(fill, name)) is not None]
        print("fillability: " + "  ".join(bits))
        print(f"certificate: {res.certificate['case']}")
    if res.status == UNKNOWN:
        return 2
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all  # the oracles load only when they run

    results = run_all()
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        failed += not ok
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so that main prints it as one `error: ` line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tightsf",
        description="Exact slope calculus and tight contact structure counts "
                    "for Seifert fibered spaces over S^2 with three singular fibers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _VALUE_PATTERN
        p.add_argument("--json", action="store_true", help="machine readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("cf", _cmd_cf, "negative continued fraction data of a slope < -1")
    p.add_argument("slope")

    p = add("bypass", _cmd_bypass, "dividing slope after a bypass attachment")
    p.add_argument("--dividing", required=True)
    p.add_argument("--ruling", required=True)
    p.add_argument("--side", choices=("front", "back"), default="front")  # farey's FRONT and BACK, so the parser loads no farey
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")

    p = add("seifert", _cmd_seifert, "normalized invariants, homology, family, linking matrix")
    p.add_argument("manifold", help="'e0;r1,r2,r3' or 'r1,r2,r3'")

    p = add("slopes", _cmd_slopes, "measured slopes, rounding coefficients, closed form")
    p.add_argument("manifold")
    p.add_argument("--n1", required=True, help="negative twisting")

    p = add("floer", _cmd_floer, "contact class expansions on a sphere family member")
    p.add_argument("--n", required=True)
    p.add_argument("--index", help="single class 'i,j'")

    p = add("theta", _cmd_theta, "plane field invariant from a framed link file")
    p.add_argument("--diagram", required=True, help="JSON file with keys L and rot")

    p = add("classify", _cmd_classify, "count tight contact structures with certificate")
    p.add_argument("manifold")

    sub.add_parser("selftest", help="run the built-in consistency suites").set_defaults(fn=_cmd_selftest)
    return parser


# an interpreter without an int/str digit limit (before 3.10.7) has none to lift
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def main(argv=None) -> int:
    digits = _get_digits()
    try:
        args = build_parser().parse_args(argv)
        # every integer a command reads from text goes through parse_int, under
        # MAX_INPUT_DIGITS, so each integer it prints, text or JSON, is printed whole
        _set_digits(0)
        return args.fn(args)
    except SystemExit as exc:  # --help prints and exits 0
        return 1 if exc.code else 0
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        message = "\\n".join(str(exc).splitlines())  # one line, even for an argument holding a newline
        head = message.encode("utf-8", "backslashreplace")
        if len(head) > MAX_ERROR_BYTES:
            message = f"{head[:MAX_ERROR_BYTES].decode('utf-8', 'ignore')}... ({len(message)} characters)"
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        _set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
