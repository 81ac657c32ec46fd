import json
from fractions import Fraction as F

import pytest

from sl2wt import OMEGA, admissible_level, wt
from sl2wt import weight_cat as wc
from sl2wt import local_cat as lc
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
    ],
)
def test_invalid_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "verdict" not in out


def test_pipeline_command(capsys):
    code, out, _ = run(capsys, "pipeline", "--level", "3/2")
    assert code == 0
    assert "verdict: PASS" in out
    code, out, _ = run(capsys, "pipeline", "--level", "2/3", "--flows=-1..1", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] is True


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
