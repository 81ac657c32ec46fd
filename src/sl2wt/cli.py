"""Command-line front end.

Labels are JSON in the schema used for output (see ``weight_cat`` and
``local_cat``, whose readers are the only ones), or compact text that is
shorthand for it:

    D+(r,s)@l          {"cat":"C","flow":l,"base":{"type":"D+","r":r,"s":s}}
    D-(r,s)@l          {"cat":"C","flow":l,"base":{"type":"D-","r":r,"s":s}}
    L(r)@l             {"cat":"C","flow":l,"base":{"type":"L","r":r}}
    E(lam;r,s)@l       {"cat":"C","flow":l,"base":{"type":"E","r":r,"s":s,"lam":lam}}
    M(r,s)xPi(l;lam)   {"cat":"A","r":r,"s":s,"flow":l,"lam":lam}

"@l" may be left out (flow 0); JSON D+ and D- need "s".  Every integer,
in labels and in --level u/v, --flows a..b and --window, is ASCII -?[0-9]+.
A weight lam is a signed sum of terms p, p/q and [p/q][*]w, where w is the
formal irrational (e.g. 1/5+w); in JSON it is {"a":[p,q],"b":[p,q]}.

A value that starts with "-" takes "=" (--lam=-1/3, --casimir=-1/2,
--flows=-2..2): argparse reads "--lam -1/3" as two options and exits 2.

Exit codes: 0 success, 1 failed check, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Union

from .arithmetic import Weight, admissible_level, kac_data
from . import weight_cat as wc
from . import local_cat as lc
from . import functors as fn
from . import fusion as fu
from . import sl2_oracle as so
from .pipeline import FLOWS, MAX_FLOWS, run_pipeline

_INT = r"-?[0-9]+"
_COMPACT = {
    "C": re.compile(rf"(?P<type>D\+|D-|L|E)\((?:(?P<lam>[^;()]+);)?(?P<r>{_INT})(?:,(?P<s>{_INT}))?\)(?:@(?P<flow>{_INT}))?"),
    "A": re.compile(rf"(?P<type>M)\((?P<r>{_INT}),(?P<s>{_INT})\)xPi\((?P<flow>{_INT});(?P<lam>[^;()]+)\)"),
}


def parse_weight(text: str) -> Weight:
    """a + b*w from a signed sum of terms p, p/q and [p/q][*]w."""
    pieces = re.split(r"([+-])", text.replace(" ", ""))
    pieces = pieces[1:] if pieces[0] == "" and len(pieces) > 1 else ["+"] + pieces
    a = b = Fraction(0)
    for sign, term in zip(pieces[::2], pieces[1::2]):
        m = re.fullmatch(r"(?:([0-9]+)(?:/([0-9]+))?)?(\*?w)?", term)
        if not (term and m):
            raise ValueError(f"cannot parse weight {text!r}: bad term {term!r}")
        p, q, w = m.groups()
        if q is not None and int(q) == 0:
            raise ValueError(f"zero denominator in weight {text!r}")
        c = Fraction(int(p or 1), int(q or 1)) * (-1 if sign == "-" else 1)
        a, b = (a, b + c) if w else (a + c, b)
    return Weight(a, b)


def _label_json(cat: str, text: str) -> dict:
    """The JSON label schema for JSON or compact text of category cat (C or A)."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    m = _COMPACT[cat].fullmatch(text.replace(" ", ""))
    kind = m and m["type"]
    # lam belongs to E and M only, and only L goes without s
    if not m or (m["lam"] is None) == (kind in ("E", "M")) or (m["s"] is None) != (kind == "L"):
        raise ValueError(f"cannot parse {cat}-label {text!r}")
    fields = {key: int(m[key]) for key in ("r", "s") if m[key] is not None}
    if m["lam"] is not None:
        fields["lam"] = parse_weight(m["lam"]).to_json()
    flow = int(m["flow"] or 0)
    if cat == "A":
        return {"cat": "A", "flow": flow, **fields}
    return {"cat": "C", "flow": flow, "base": {"type": kind, **fields}}


def _read_label(reader, level, cat: str, text: str):
    """reader applied to the JSON schema of text; nesting too deep for the
    JSON decoder or the recursive readers is a usage error."""
    try:
        return reader(level, _label_json(cat, text))
    except RecursionError:
        raise ValueError(f"{cat}-label is nested too deeply to read") from None


def parse_clabel(level, text: str) -> wc.SimpleCLabel:
    return _read_label(wc.label_from_json, level, "C", text)


def parse_alabel(level, text: str) -> lc.SimpleALabel:
    return _read_label(lc.label_from_json, level, "A", text)


def parse_aobject(level, text: str) -> Union[lc.AObject, lc.DirectSum]:
    return _read_label(lc.aobject_from_json, level, "A", text)


def _ints(form: str, text: str, option: str) -> list:
    """The integers of an option value written as form, each N an integer -?[0-9]+."""
    m = re.fullmatch(re.escape(form).replace("N", f"({_INT})"), text.strip())
    if not m:
        raise ValueError(f"{option} expects {form} with N an ASCII integer, got {text!r}")
    return [int(n) for n in m.groups()]


def _level(args):
    return admissible_level(*_ints("N/N", args.level, "--level"))


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
    flows = FLOWS
    if args.flows:
        lo, hi = _ints("N..N", args.flows, "--flows")
        flows = range(lo, hi + 1)
    report = run_pipeline(level, flows)
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
    (n,) = _ints("N", args.window, "--window")
    window = so.build_relaxed(lam, casimir, args.sign, n)
    points = so.reducibility_points(lam, casimir, args.sign, n)
    brackets = window.check_brackets()
    casimir_ok = window.check_casimir()
    print(f"reducibility points: {[str(p) for p in points] or 'none (irreducible over the window)'}")
    print(f"bracket relations: {brackets}; Casimir eigencheck: {casimir_ok}")
    return 0 if brackets and casimir_ok else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors print one line, `error: <message>`,
    like every other usage error, and exit 2; its subparsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--flows", help=f"flow sample range a..b (default -2..2, at most {MAX_FLOWS} flows; "
                   "a negative a takes '=': --flows=-2..2)")

    po = sub.add_parser("oracle", help="finite-window sl2 oracle checks")
    osub = po.add_subparsers(dest="oracle_command", required=True)
    ps = osub.add_parser("singular", help="check the depth-1 singular vector")
    ps.add_argument("--level", required=True)
    ps.set_defaults(func=_cmd_oracle)
    pr = osub.add_parser("relaxed", help="relaxed-module window checks")
    pr.add_argument("--lam", required=True, help="the weight lam (a negative one takes '=': --lam=-1/3)")
    pr.add_argument("--casimir", required=True, help="the Casimir eigenvalue (a negative one takes '=': --casimir=-1/2)")
    pr.add_argument("--sign", choices=("minus", "plus"), default="minus")
    pr.add_argument("--window", default="20")
    pr.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # NotAdmissible, OutOfKacTable and NotSimple among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
