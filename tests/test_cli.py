import contextlib
import hashlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2wt import OMEGA, admissible_level, wt
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
from sl2wt import sl2_oracle as so
from sl2wt.cli import main, parse_clabel, parse_alabel, parse_weight


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_weight():
    assert parse_weight("1/2") == wt(F(1, 2))
    assert parse_weight("-5/6") == wt(F(-5, 6))
    assert parse_weight("w") == OMEGA
    assert parse_weight("-w") == -OMEGA
    assert parse_weight("1/5+w") == wt(F(1, 5), 1)
    assert parse_weight("1/2-3w") == wt(F(1, 2), -3)
    assert parse_weight("2/3w") == wt(0, F(2, 3))
    # round trip through rendering
    for w in (wt(0), OMEGA, wt(F(1, 5), 1), wt(F(1, 2), F(-3, 4))):
        assert parse_weight(str(w)) == w


def test_parse_labels():
    lv = admissible_level(5, 3)
    assert parse_clabel(lv, "D+(1,1)@0") == wc.atypical(lv, 1, 1, 0)
    assert parse_clabel(lv, "D-(1,1)@0") == wc.dminus(lv, 1, 1, 0)
    assert parse_clabel(lv, "L(2)@1") == wc.lr0(lv, 2, 1)
    assert parse_clabel(lv, "E(w;1,2)@-1") == wc.typical(lv, 1, 2, OMEGA, -1)
    assert parse_clabel(lv, "D+(2,1)") == wc.atypical(lv, 2, 1, 0)
    assert parse_alabel(lv, "M(1,2)xPi(1;-5/6)") == lc.simple_a(lv, 1, 2, 1, wt(F(-5, 6)))


def test_fuse_command(capsys):
    code, out, _ = run(
        capsys, "fuse", "--level", "5/3", "--lhs", "D+(1,1)@0", "--rhs", "D-(1,1)@0"
    )
    assert code == 0
    assert "D+(4,2)@-1" in out  # canonical L_{1,0}
    assert "E(0;1,2)@0" in out
    assert "object:" in out


def test_kac_not_admissible(capsys):
    code, _, err = run(capsys, "kac", "--level", "4/2")
    assert code == 2
    assert "not coprime" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["kac"])  # missing --level
    assert exc.value.code == 2


def test_bad_label_exit_code(capsys):
    code, _, err = run(capsys, "induce", "--level", "5/3", "--label", "Z(1,1)")
    assert code == 2


def _a_json(**fields):
    label = {"cat": "A", "r": 1, "s": 1, "flow": 1, "lam": {"a": [1, 3], "b": [0, 1]}}
    return json.dumps({**label, **fields})


def _c_json(flow=0, **base):
    return json.dumps({"cat": "C", "flow": flow, "base": {"type": "D+", "r": 1, "s": 1, **base}})


def _nested_sum(depth):
    """An A-object sum whose first part is a sum, depth times over, built as text."""
    head = '{"cat":"A","tag":"sum","parts":['
    return head * depth + _a_json() + ("," + _a_json() + "]}") * depth


@pytest.mark.parametrize(
    "argv",
    [
        ("fuse", "--level", "5/3", "--lhs", "E(1/0;1,1)", "--rhs", "D+(1,1)"),
        ("fuse", "--level", "5/3", "--lhs", "D+(1)@0", "--rhs", "D+(1,1)"),
        ("oracle", "relaxed", "--lam", "1/0", "--casimir", "0"),
        ("restrict", "--level", "5/3", "--label", _a_json(lam={"a": [1, 0], "b": [0, 1]})),
        ("restrict", "--level", "5/3", "--label", _a_json(r=True)),
        ("restrict", "--level", "5/3", "--label", _a_json(r="1")),
        ("restrict", "--level", "5/3", "--label", _a_json(r=1.0)),
        ("restrict", "--level", "5/3", "--label", _a_json(flow=1.5)),
        ("induce", "--level", "5/3", "--label", _c_json(r=True)),
        ("induce", "--level", "5/3", "--label", _c_json(s=False)),
        ("induce", "--level", "5/3", "--label", _c_json(flow=1.5)),
        ("dual", "--level", "5/3", "--label", _a_json(tag="M", s=2, flow=1.5)),
        ("pipeline", "--level", "5/3", "--flows=5..1"),
        ("oracle", "relaxed", "--lam", "0", "--casimir", "0", "--window", str(so.MAX_WINDOW + 1)),
        # malformed JSON shapes
        ("induce", "--level", "5/3", "--label", json.dumps({"cat": "C", "flow": 0, "base": [1]})),
        ("restrict", "--level", "5/3", "--label", _a_json(lam=5)),
        ("restrict", "--level", "5/3", "--label", _a_json(lam={"a": 5, "b": [0, 1]})),
        ("dual", "--level", "5/3", "--label", json.dumps({"cat": "A", "tag": "sum", "parts": 5})),
        ("dual", "--level", "5/3", "--label", json.dumps({"cat": "A", "tag": "sum", "parts": [5]})),
        ("restrict", "--level", "5/3", "--label", _a_json(lam=[1, 3])),
        ("dual", "--level", "5/3", "--label", json.dumps({"cat": "A", "tag": "R", "r": 1, "s": 1, "flow": 0})),
        ("induce", "--level", "5/3", "--label", json.dumps({"cat": "C", "base": {"type": "D+", "r": 1}})),
        # integers outside the ASCII grammar -?[0-9]+
        ("induce", "--level", "5/3", "--label", "D+(+1,1)"),
        ("induce", "--level", "5/3", "--label", "D+(0_1,1)"),
        ("induce", "--level", "5/3", "--label", "D+(1,1)@\u0661"),
        ("kac", "--level", "\u0665/\u0663"),
        ("pipeline", "--level", "5/3", "--flows=\u0660..\u0660"),
        ("oracle", "relaxed", "--lam", "0", "--casimir", "0", "--window", "1_0"),
        ("oracle", "relaxed", "--lam", "\u0661/\u0663", "--casimir", "0"),
        ("oracle", "relaxed", "--lam", "1.5", "--casimir", "0"),
        # a direct sum has at least two parts
        ("dual", "--level", "5/3", "--label", json.dumps({"cat": "A", "tag": "sum", "parts": []})),
        ("dual", "--level", "5/3", "--label", json.dumps({"cat": "A", "tag": "sum", "parts": [json.loads(_a_json())]})),
        # lam belongs to E only, and only L goes without s
        ("induce", "--level", "5/3", "--label", "L(1,2)"),
        ("induce", "--level", "5/3", "--label", "D+(w;1,1)"),
        ("induce", "--level", "5/3", "--label", "E(1,2)"),
        # a bool is not an int, and an unknown base type is refused
        ("restrict", "--level", "5/3", "--label", _a_json(flow=True)),
        ("induce", "--level", "5/3", "--label", _c_json(type="Z")),
        # nesting deeper than the readers recurse
        ("dual", "--level", "5/3", "--label", _nested_sum(600)),
        ("restrict", "--level", "5/3", "--label", '{"cat":"A","lam":' + "[" * 100_000),
        # deep enough to overflow the stack while the result is printed
        ("dual", "--level", "5/3", "--label", _nested_sum(300)),
        ("dual", "--level", "5/3", "--label", _nested_sum(450)),
        # a flow range longer than MAX_FLOWS, refused before it is built
        ("pipeline", "--level", "5/3", "--flows=0..9999999999"),
        ("pipeline", "--level", "5/3", "--flows=0..99999999999999999999999"),
        # a Kac table above MAX_KAC_TABLE, refused before the run
        ("pipeline", "--level", "1001/1000"),
    ],
)
def test_invalid_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "verdict" not in out


def test_sum_nesting_cap(capsys):
    code, out, _ = run(capsys, "dual", "--level", "5/3", "--label", _nested_sum(lc.MAX_SUM_DEPTH))
    assert code == 0 and out.count("(+)") == lc.MAX_SUM_DEPTH
    code, _, err = run(capsys, "dual", "--level", "5/3", "--label", _nested_sum(lc.MAX_SUM_DEPTH + 1))
    assert code == 2 and f"more than {lc.MAX_SUM_DEPTH} deep" in err


def test_pipeline_command(capsys):
    code, out, _ = run(capsys, "pipeline", "--level", "3/2")
    assert code == 0
    assert "verdict: PASS" in out
    code, out, _ = run(capsys, "pipeline", "--level", "2/3", "--flows=-1..1", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] is True


# sha256 of the whole `pipeline --json` output, newline included
PIPELINE_JSON_SHA256 = {
    "13/8": "1770a882d07b41632798e5e2eea1f287b4d83dc9118c5ca7faccfa326dc598fc",
    "5/3": "740ac8a8c6325007cc4da1731495f884304c96cff555101ecf1555a331d42ecf",
    "23/12": "082c3e812756e696caa269f8cdd520e3878d37b4fea043eec29354602836af9f",
}


@pytest.mark.parametrize("level", sorted(PIPELINE_JSON_SHA256))
def test_pipeline_json_bytes_are_pinned(capsys, level):
    code, out, _ = run(capsys, "pipeline", "--level", level, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PIPELINE_JSON_SHA256[level]


def test_induce_restrict_dual(capsys):
    code, out, _ = run(capsys, "induce", "--level", "5/3", "--label", "E(w;1,2)@0")
    assert code == 0 and "R(1,2;" in out
    code, out, _ = run(capsys, "restrict", "--level", "5/3", "--label", "M(1,1)xPi(0;0)")
    assert code == 0 and "E-(4,2)@1" in out
    code, out, _ = run(capsys, "dual", "--level", "5/3", "--label", "M(1,2)xPi(1;1/6)")
    assert code == 0 and "M(1,2)xPi(-1;5/6)" in out
    code, out, _ = run(capsys, "dual", "--gv", "--level", "5/3", "--label", "M(1,1)xPi(0;0)")
    assert code == 0 and "M(1,1)xPi(-2;2/3)" in out


def test_oracle_commands(capsys):
    code, out, _ = run(capsys, "oracle", "singular", "--level", "3/2")
    assert code == 0 and "True" in out
    code, out, _ = run(
        capsys, "oracle", "relaxed", "--lam", "0", "--casimir", "0", "--window", "5"
    )
    assert code == 0 and "-2" in out


def test_fuse_typical_pair_has_no_object_line(capsys):
    code, out, _ = run(
        capsys, "fuse", "--level", "5/3", "--lhs", "E(w;1,2)@0", "--rhs", "D+(2,1)@-1"
    )
    assert code == 0
    assert "object:" not in out  # solver-only result, no catalogued theorem
    assert "E(" in out
    code, out, _ = run(
        capsys, "fuse", "--level", "5/3", "--lhs", "E(w;1,2)@0", "--rhs", "D+(2,1)@-1", "--json"
    )
    assert json.loads(out)["object"] is None


def test_gv_dual_rejects_non_simple(capsys):
    blob = json.dumps({"cat": "A", "tag": "R", "r": 1, "s": 1, "flow": 0,
                       "lam": {"a": [0, 1], "b": [1, 1]}})
    code, _, err = run(capsys, "dual", "--gv", "--level", "5/3", "--label", blob)
    assert code == 2


def test_pipeline_failure_exit_code(capsys, monkeypatch):
    from sl2wt import local_cat as lc_mod

    monkeypatch.setattr(lc_mod, "vir_fuse", lambda level, r, s, rp, sp: [(1, 1)])
    code, out, _ = run(capsys, "pipeline", "--level", "5/3")
    assert code == 1
    assert "verdict: FAIL" in out


def test_fuse_failure_exit_code(capsys, monkeypatch):
    from sl2wt import local_cat as lc_mod

    monkeypatch.setattr(lc_mod, "vir_fuse", lambda level, r, s, rp, sp: [(1, 1)])
    code, out, err = run(capsys, "fuse", "--level", "5/3", "--lhs", "D+(1,1)@0", "--rhs", "D-(1,1)@0")
    assert code == 1
    assert out == ""
    assert err.startswith("no solution: coefficient ")
    assert "Traceback" not in err


def test_json_output_round_trips_byte_identically(capsys):
    code, out, _ = run(
        capsys, "induce", "--level", "5/3", "--label", "D+(1,2)@0", "--json"
    )
    assert code == 0
    lv = admissible_level(5, 3)
    parsed = lc.aobject_from_json(lv, json.loads(out))
    again = json.dumps(lc.aobject_to_json(parsed), sort_keys=True, separators=(",", ":"))
    assert again == out.strip()
    # the same for a C-label emitted by fuse --json
    code, out, _ = run(
        capsys, "fuse", "--level", "5/3", "--lhs", "D+(1,1)@0", "--rhs", "D-(1,1)@0", "--json"
    )
    data = json.loads(out)
    for label_blob, mult in data["kclass"]:
        label = wc.label_from_json(lv, label_blob)
        assert wc.label_to_json(label) == label_blob
        assert mult >= 1


_SEEDS = {  # per category: compact text and JSON of valid labels
    "C": ["D+(1,1)@0", "D-(2,1)@-1", "L(1)@2", "E(1/5+w;1,2)@-1", "E(w;2,1)", _c_json(), _c_json(type="E", lam={"a": [1, 3], "b": [0, 1]})],
    "A": ["M(1,2)xPi(1;-5/6)", "M(2,1)xPi(-2;w)", _a_json(), _a_json(tag="R"), _a_json(tag="M", s=2)],
}
_FUZZ_CHARS = "0123456789+-/*,;()@ wxPiMEDL{}\"_.\u0661\u0663"
_JSON_KEYS = ["cat", "flow", "base", "type", "r", "s", "lam", "a", "b", "tag", "parts"]
_JSON_LEAVES = st.sampled_from(
    ["C", "A", "D+", "D-", "L", "E", "R", "M", "sum", 0, 1, 2, -1, True, 1.5, [1, 3], [1, 0], {"a": [1, 3], "b": [0, 1]}]
) | st.none() | st.integers() | st.floats() | st.text(max_size=3)
_json_values = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(_JSON_KEYS), kids, max_size=5),
    max_leaves=10,
)


@st.composite
def _mutated_label(draw, cat):
    text = draw(st.sampled_from(_SEEDS[cat]))
    if text.startswith("{") and draw(st.booleans()):
        # replace or delete one field, at the top or in base or lam
        label = json.loads(text)
        where = draw(st.sampled_from([label, label.get("base", label), label.get("lam", label)]))
        key = draw(st.sampled_from(sorted(where) + ["s"]))
        if draw(st.booleans()):
            where.pop(key, None)
        else:
            where[key] = draw(_json_values)
        return json.dumps(label)
    chars = list(text)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(chars) - 1))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        chars[i:i + (op != "insert")] = [] if op == "delete" else [draw(st.sampled_from(_FUZZ_CHARS))]
    return "".join(chars)


@st.composite
def _fuzz_argv(draw):
    cmd = draw(st.sampled_from(["induce", "restrict", "dual", "fuse"]))
    argv = [cmd, "--level", draw(st.sampled_from(["3/2", "5/3", "7/4"]))]
    names = ["--lhs", "--rhs"] if cmd == "fuse" else ["--label"]
    cat = "C" if cmd in ("induce", "fuse") else "A"
    for name in names:  # one label in four is an arbitrary JSON value
        text = draw(_json_values.map(json.dumps) if draw(st.integers(0, 3)) == 0 else _mutated_label(cat))
        argv.append(f"{name}={text}")
    if cmd == "dual" and draw(st.booleans()):
        argv.append("--gv")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_fuzz_argv())
@example(argv=["restrict", "--level", "5/3", "--label=" + _a_json(lam=[1, 3])])
@example(argv=["dual", "--level", "5/3", "--label=" + json.dumps({"cat": "A", "tag": "sum", "parts": [5]})])
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()


def _printing_commands(level: str) -> dict:
    """Per command, the argument lists whose output the pins below cover: R,
    M and simple objects from induce, E-, typical and E- sums from restrict,
    catalogued and solver-only products from fuse, and dual on a simple, R,
    M and a sum of the three."""
    u, v = (int(n) for n in level.split("/"))
    simple = {"cat": "A", "r": 1, "s": 1, "flow": 1, "lam": {"a": [1, 3], "b": [0, 1]}}
    r_obj = {"cat": "A", "tag": "R", "r": 1, "s": 1, "flow": 0, "lam": {"a": [0, 1], "b": [1, 1]}}
    m_obj = {"cat": "A", "tag": "M", "r": 1, "s": min(2, v), "flow": 1}
    a_sum = {"cat": "A", "tag": "sum", "parts": [r_obj, m_obj, simple]}
    return {
        "induce": [
            ["--label", x]
            for x in ("E(w;1,1)@0", "E(1/7;1,1)@1", "D+(1,1)@0", f"D+({u - 1},{v - 1})@-1", "D-(1,1)@2")
        ],
        "restrict": [
            ["--label", y]
            for y in ("M(1,1)xPi(0;0)", "M(1,1)xPi(0;w)", "M(1,1)xPi(1;1/2)", f"M({u - 1},1)xPi(-1;1/3)")
        ],
        "fuse": [
            ["--lhs", x, "--rhs", y]
            for x, y in (("D+(1,1)@0", "D-(1,1)@0"), ("D+(1,1)@1", "D+(1,1)@1"), ("E(w;1,1)@0", "D+(1,1)@-1"))
        ],
        "dual": [["--label", json.dumps(obj)] for obj in (simple, r_obj, m_obj, a_sum)],
    }


# sha256 over the exit code and the whole stdout of each command of
# _printing_commands, text then --json
PRINTING_SHA256 = {
    ("3/2", "induce"): "647d99d0eaaef442387492114bba7d8e0f430d82f79d8ee849ac73209292eb03",
    ("3/2", "restrict"): "3acff38cd4928a2d953f2b47cf95f2d2052f9fe7a47542434c8f779220fda401",
    ("3/2", "fuse"): "9ea3e4c966afd391f9623b227eac2e02ad88a7b8d077237e336325d8302937d5",
    ("3/2", "dual"): "b53f2506aeab12ad57a216ede98dd69c1da59ea0a9e49a5ca9196ec8dc8834b6",
    ("5/3", "induce"): "d8ea5229b3d7ce26d67a19c5534b4eac3ecaeb389b56b4b2059b667db5cb94a0",
    ("5/3", "restrict"): "7b5c37395fc44885629cd4e7a1febd93329b191baeedc35f70c0d5a56cc16cb8",
    ("5/3", "fuse"): "e9b91931da85a9a7c3357ebcaecfe407b32a44bc40cbdef84cd413c485a18933",
    ("5/3", "dual"): "7ee68fea8962d698b3485f5640f048626b39f379ce7f223ffbbdbf7587ad92f8",
    ("13/8", "induce"): "98032ba2275a696069eea46cfb9b4f23bf82c8ee5df2a73e4bb23086c034319a",
    ("13/8", "restrict"): "f728e506b80150ae64b0ff6963077bd9239c2a27bb0d43a3279ad7d6cf162735",
    ("13/8", "fuse"): "f8eeaa5e6f31196111cd3caa6a5290d5c06bf1e72a49c23f88c18475e3796d80",
    ("13/8", "dual"): "a36d965d94e1e803e2bd58916020a68c0967b3d6a010f19aa9f8042c7db3a0b0",
}


@pytest.mark.parametrize("level, command", sorted(PRINTING_SHA256))
def test_object_printing_bytes_are_pinned(capsys, level, command):
    digest = hashlib.sha256()
    for args in _printing_commands(level)[command]:
        for mode in ([], ["--json"]):
            code, out, _ = run(capsys, command, "--level", level, *args, *mode)
            assert code == 0
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == PRINTING_SHA256[level, command]
