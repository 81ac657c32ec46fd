"""Command-line front end.

Labels are accepted either as JSON (the schema used for output) or in a
compact syntax: D+(r,s)@l, D-(r,s)@l, L(r)@l, E(lam;r,s)@l on the affine
side and M(r,s)xPi(l;lam) on the extended side.  Exact rationals are
written p/q and the formal irrational is written w (e.g. 1/5+w).

Exit codes: 0 success, 1 failed check, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .arithmetic import (
    NotAdmissible,
    OutOfKacTable,
    Weight,
    admissible_level,
    kac_data,
)
from . import weight_cat as wc
from . import local_cat as lc
from . import functors as fn
from . import fusion as fu
from . import sl2_oracle as so
from .pipeline import SampleConfig, run_pipeline


def parse_weight(text: str) -> Weight:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty weight")
    a = Fraction(0)
    b = Fraction(0)
    try:
        for term in re.findall(r"[+-]?[^+-]+", s):
            if term.endswith("w"):
                coef = term[:-1].rstrip("*")
                if coef in ("", "+"):
                    b += 1
                elif coef == "-":
                    b -= 1
                else:
                    b += Fraction(coef)
            else:
                a += Fraction(term)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight {text!r}") from None
    return Weight(a, b)


_C_RE = re.compile(r"^(?P<kind>D\+|D-|L|E)\((?P<args>[^)]*)\)(?:@(?P<flow>-?\d+))?$")
_A_RE = re.compile(r"^M\((?P<r>\d+),(?P<s>\d+)\)xPi\((?P<flow>-?\d+);(?P<lam>[^)]*)\)$")


def parse_clabel(level, text: str) -> wc.SimpleCLabel:
    s = text.strip()
    if s.startswith("{"):
        return wc.label_from_json(level, json.loads(s))
    m = _C_RE.match(s.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse C-label {text!r}")
    kind, flow = m.group("kind"), int(m.group("flow") or 0)
    if kind == "E":
        lam_text, rs = m.group("args").split(";")
        r, s_ = (int(x) for x in rs.split(","))
        return wc.typical(level, r, s_, parse_weight(lam_text), flow)
    # L(r) is the alias D+(r,0)
    args = [int(x) for x in m.group("args").split(",")] + ([0] if kind == "L" else [])
    if len(args) != 2:
        raise ValueError(f"cannot parse C-label {text!r}: wrong number of arguments")
    return (wc.dminus if kind == "D-" else wc.dplus)(level, *args, flow)


def parse_alabel(level, text: str) -> lc.SimpleALabel:
    s = text.strip()
    if s.startswith("{"):
        return lc.label_from_json(level, json.loads(s))
    m = _A_RE.match(s.replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse A-label {text!r}")
    return lc.simple_a(
        level, int(m.group("r")), int(m.group("s")), int(m.group("flow")), parse_weight(m.group("lam"))
    )


def parse_aobject(level, text: str) -> lc.AObject:
    s = text.strip()
    if s.startswith("{"):
        return lc.aobject_from_json(level, json.loads(s))
    return lc.ASimple(parse_alabel(level, s))


def _level(args):
    m = re.match(r"^(\d+)/(\d+)$", args.level.strip())
    if not m:
        raise NotAdmissible(f"--level expects u/v, got {args.level!r}")
    return admissible_level(int(m.group(1)), int(m.group(2)))


def _dump(data) -> None:
    print(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _cmd_kac(args) -> int:
    level = _level(args)
    rows = [kac_data(level, r, s) for r in range(1, level.u) for s in range(0, level.v + 1)]
    if args.json:
        _dump([
            {
                "r": d.r, "s": d.s,
                "lam": str(d.lam), "delta": str(d.delta), "nu": str(d.nu),
                "h": None if d.h is None else str(d.h),
            }
            for d in rows
        ])
        return 0
    print(f"Kac table at level k = {level.k} (t = {level}, c = {level.c_k})")
    print(f"{'r':>3} {'s':>3} {'lambda':>10} {'Delta':>10} {'nu':>10} {'h':>10}")
    for d in rows:
        h = "-" if d.h is None else str(d.h)
        print(f"{d.r:>3} {d.s:>3} {str(d.lam):>10} {str(d.delta):>10} {str(d.nu):>10} {h:>10}")
    return 0


def _cmd_fuse(args) -> int:
    level = _level(args)
    x = parse_clabel(level, args.lhs)
    y = parse_clabel(level, args.rhs)
    obj = fu.catalogued_fusion(level, x, y)
    try:
        kclass = fu.groth_fuse_C(level, wc.GrothC.of(x), wc.GrothC.of(y))
    except fu.Ambiguous as exc:
        print(f"ambiguous: {len(exc.solutions)} effective solutions", file=sys.stderr)
        for sol in exc.solutions:
            print(f"  {sol}", file=sys.stderr)
        return 1
    except fu.NoSolution as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _dump({
            "kclass": [[wc.label_to_json(lbl), n] for lbl, n in kclass.sorted_items()],
            "object": None if obj is None else wc.cobject_to_json(obj),
        })
        return 0
    print(f"[{x}] x [{y}] = {kclass}")
    if obj is not None:
        print(f"object: {obj}")
    return 0


def _cmd_induce(args) -> int:
    level = _level(args)
    x = parse_clabel(level, args.label)
    obj = fn.induce_simple(level, x)
    if args.json:
        _dump(lc.aobject_to_json(obj))
        return 0
    print(f"F({x}) = {obj}")
    for line in lc.loewy_lines(obj):
        print(line)
    return 0


def _cmd_restrict(args) -> int:
    level = _level(args)
    y = parse_alabel(level, args.label)
    obj = fn.restrict_simple(level, y)
    if args.json:
        _dump(wc.cobject_to_json(obj))
        return 0
    print(f"G({y}) = {obj}")
    print(f"factors: {wc.comp_factors(level, obj)}")
    return 0


def _cmd_dual(args) -> int:
    level = _level(args)
    if args.gv:
        y = parse_alabel(level, args.label)
        out = lc.gv_dual(level, y)
        payload = lc.label_to_json(out)
    else:
        obj = parse_aobject(level, args.label)
        out = lc.rigid_dual(level, obj)
        payload = lc.aobject_to_json(out)
    if args.json:
        _dump(payload)
    else:
        print(str(out))
    return 0


def _cmd_pipeline(args) -> int:
    level = _level(args)
    config = SampleConfig()
    if args.flows:
        m = re.match(r"^(-?\d+)\.\.(-?\d+)$", args.flows)
        if not m:
            raise ValueError(f"--flows expects a..b, got {args.flows!r}")
        lo, hi = int(m.group(1)), int(m.group(2))
        config = SampleConfig(flows=tuple(range(lo, hi + 1)))
    report = run_pipeline(level, config)
    if args.json:
        _dump(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.verdict else 1


def _cmd_oracle(args) -> int:
    level_needed = args.oracle_command == "singular"
    if level_needed:
        level = _level(args)
        ok = so.verify_affine_singular(level)
        print(f"singular vector annihilated by e_0, e_1, f_1, h_1: {ok}")
        return 0 if ok else 1
    lam = parse_weight(args.lam)
    casimir = parse_weight(args.casimir)
    window = so.build_relaxed(lam, casimir, args.sign, args.window)
    points = so.reducibility_points(lam, casimir, args.sign, args.window)
    brackets = window.check_brackets()
    casimir_ok = window.check_casimir()
    print(f"reducibility points: {[str(p) for p in points] or 'none (irreducible over the window)'}")
    print(f"bracket relations: {brackets}; Casimir eigencheck: {casimir_ok}")
    return 0 if brackets and casimir_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2wt",
        description="exact computations in the weight-module category of affine sl2 at admissible level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--level", required=True, help="admissible level as u/v")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("fuse", _cmd_fuse, "Grothendieck fusion of two simple labels")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add("induce", _cmd_induce, "induction of a simple label to the extension")
    p.add_argument("--label", required=True)

    p = add("restrict", _cmd_restrict, "restriction of a simple extended label")
    p.add_argument("--label", required=True)

    p = add("dual", _cmd_dual, "rigid (default) or Grothendieck-Verdier dual")
    p.add_argument("--label", required=True)
    p.add_argument("--gv", action="store_true")

    add("kac", _cmd_kac, "print the Kac table (lambda, Delta, nu, h)")

    p = add("pipeline", _cmd_pipeline, "run the four-step rigidity verification")
    p.add_argument("--flows", help="flow sample range a..b (default -2..2)")

    po = sub.add_parser("oracle", help="finite-window sl2 oracle checks")
    osub = po.add_subparsers(dest="oracle_command", required=True)
    ps = osub.add_parser("singular", help="check the depth-1 singular vector")
    ps.add_argument("--level", required=True)
    ps.set_defaults(func=_cmd_oracle)
    pr = osub.add_parser("relaxed", help="relaxed-module window checks")
    pr.add_argument("--lam", required=True)
    pr.add_argument("--casimir", required=True)
    pr.add_argument("--sign", choices=("minus", "plus"), default="minus")
    pr.add_argument("--window", type=int, default=20)
    pr.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotAdmissible, OutOfKacTable, wc.NotSimple, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
