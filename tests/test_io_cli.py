import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from catalog import symmetric

import twistk as tk
import twistk.cli
import twistk.regularity
from twistk.cli import main
from twistk.freeprod import FreeProduct, FreeProductMultiplier
from twistk.groups import cyclic
from twistk.io import (
    SchemaError,
    decode_multiplier,
    encode_multiplier,
    encode_word,
    parse_fraction,
)
from twistk.lattices import G3Multiplier, LatticeMultiplier
from twistk.multipliers import normalize, trivial_multiplier
from twistk.torus import rot


def test_multiplier_round_trips():
    specs = [
        tk.klein(4, 1),
        trivial_multiplier(symmetric(3)).to_table(),
        normalize(tk.klein(2, 1))[0],
    ]
    for sigma in specs:
        data = encode_multiplier(sigma)
        back = decode_multiplier(data)
        assert back.group.table == sigma.group.table
        for a in sigma.group.elements():
            for b in sigma.group.elements():
                assert back.value(a, b) == sigma.value(a, b)


def test_torus_spec_round_trip():
    data = {
        "type": "torus",
        "n": 2,
        "theta": {"1,2": {"rat": "1/3", "irr": {"t": "1/2"}}},
        "basis": ["t"],
    }
    sigma = decode_multiplier(data)
    assert isinstance(sigma, LatticeMultiplier)
    assert sigma.value((1, 0), (0, 1)) == rot("1/3", {"t": "1/2"})
    back = encode_multiplier(sigma)
    assert back["theta"]["1,2"]["rat"] == "1/3"


def test_g3_spec():
    data = {"type": "g3", "mu": {"11": {"rat": "1/5", "irr": {}}}, "basis": []}
    sigma = decode_multiplier(data)
    assert isinstance(sigma, G3Multiplier)
    assert sigma.mu.row_matrix()[0][0] == rot("1/5")
    with pytest.raises(SchemaError):
        decode_multiplier({"type": "g3", "mu": {"31": {"rat": "1/5"}}})


def test_free_product_spec():
    data = {
        "type": "free_product",
        "sigma1": {"type": "trivial", "group": cyclic(2).to_json()},
        "sigma2": {"type": "trivial", "group": cyclic(3).to_json()},
    }
    sigma = decode_multiplier(data)
    assert isinstance(sigma, FreeProductMultiplier)


def test_schema_errors():
    with pytest.raises(SchemaError):
        decode_multiplier({"type": "nope"})
    with pytest.raises(SchemaError):
        decode_multiplier({"type": "klein", "n": 1, "k": 0})
    with pytest.raises(SchemaError):
        decode_multiplier({"type": "torus", "n": 2, "theta": {"bad": {"rat": "0"}}, "basis": []})
    with pytest.raises(SchemaError):
        parse_fraction("not-a-number")


def test_word_serialization():
    fp = FreeProduct(cyclic(3), cyclic(2))
    word = ((1, 2), (2, 1), (1, 1))
    data = encode_word(fp, word)
    assert data == [["1", "2"], ["2", "1"], ["1", "1"]]


def _run(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_condition_k_klein(capsys):
    code, out, err = _run(
        capsys, ["condition-k", "--inline", json.dumps({"type": "klein", "n": 5, "k": 2})]
    )
    assert code == 0
    report = json.loads(out)
    assert report["condition_k"] is True and report["seed"] == 0
    assert "ok" in err


def test_cli_center_klein_4_2(capsys):
    code, out, _ = _run(capsys, ["center", "--inline", json.dumps({"type": "klein", "n": 4, "k": 2})])
    assert code == 0
    report = json.loads(out)
    assert report["combinatorial"] == 4 and report["numeric"] == 4
    assert report["matrix_algebra"] is None


def test_cli_center_matrix_algebra(capsys):
    code, out, _ = _run(capsys, ["center", "--inline", json.dumps({"type": "klein", "n": 3, "k": 1})])
    report = json.loads(out)
    assert code == 0 and report["matrix_algebra"] == 3


def test_cli_validate_broken_table_exits_1(capsys):
    table = tk.klein(2, 1).to_table()
    data = encode_multiplier(table)
    data["values"][3][3] = {"rat": "1/3", "irr": {}}
    code, out, _ = _run(capsys, ["validate", "--inline", json.dumps(data)])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["witness"] is not None


def test_cli_center_routes_disagree_exits_1(capsys, monkeypatch):
    # sigma(1, 0) broken: the identity stops being regular (combinatorial 0)
    # while the numeric oracle still counts one dimension.  The multiplier
    # proof refuses this table first; without it the routes disagree.
    data = encode_multiplier(tk.klein(2, 1).to_table())
    data["values"][1][0] = {"rat": "1/3", "irr": {}}
    code, out, err = _run(capsys, ["center", "--inline", json.dumps(data)])
    assert code == 1 and len(err.splitlines()) == 1
    assert json.loads(out)["witness"] == [1, 0]
    monkeypatch.setattr(twistk.cli, "require_multiplier", lambda sigma: None)
    code, out, err = _run(capsys, ["center", "--inline", json.dumps(data)])
    assert code == 1 and len(err.splitlines()) == 1
    report = json.loads(out)
    assert report["combinatorial"] == 0 and report["numeric"] == 1
    assert report["error"] == "center routes disagree" and report["matrix_algebra"] is None
    assert "witness" not in report


def test_cli_class_inconsistency_exits_1(capsys, monkeypatch):
    # sigma(t, e) broken for one transposition t of S3: t is no longer
    # regular while the other two transpositions in its class still are.
    # The multiplier proof refuses this table first, at the identity pair
    # (t, e); without it the class inconsistency is refused.
    data = encode_multiplier(trivial_multiplier(symmetric(3)))
    data["values"][1][0] = {"rat": "1/2", "irr": {}}
    for command in ("center", "condition-k", "regular-classes"):
        code, out, err = _run(capsys, [command, "--inline", json.dumps(data)])
        assert code == 1 and len(err.splitlines()) == 1, command
        report = json.loads(out)
        assert report["error"] == "not a multiplier" and report["witness"] == [1, 0], command
    monkeypatch.setattr(twistk.cli, "require_multiplier", lambda sigma: None)
    for command in ("center", "condition-k", "regular-classes"):
        code, out, err = _run(capsys, [command, "--inline", json.dumps(data)])
        assert code == 1 and len(err.splitlines()) == 1, command
        report = json.loads(out)
        assert report["error"] == "not a multiplier" and "mixes regular" in report["detail"], command


def test_cli_center_computes_each_dimension_once(capsys, monkeypatch):
    calls = {"regular_classes": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    classes = counted("regular_classes", twistk.regularity.regular_classes)
    monkeypatch.setattr(twistk.cli, "regular_classes", classes)
    monkeypatch.setattr(twistk.regularity, "regular_classes", classes)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    code, out, _ = _run(capsys, ["center", "--inline", json.dumps({"type": "klein", "n": 3, "k": 1})])
    assert code == 0 and json.loads(out)["matrix_algebra"] == 3
    assert calls == {"regular_classes": 1, "svd": 1}


def test_cli_center_ill_conditioned_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.full(min(a.shape), 1.0))
    code, out, err = _run(capsys, ["center", "--seed", "5", "--inline", json.dumps({"type": "klein", "n": 3, "k": 1})])
    assert code == 1 and len(err.splitlines()) == 1
    report = json.loads(out)
    assert report == {"command": "center", "seed": 5, "error": "ill-conditioned", "detail": report["detail"]}
    assert "no singular value below tol" in report["detail"]


def test_cli_group_of_order_one(capsys):
    # the trivial group has an empty generating set: its multiplier proof
    # checks the identity row and column only, and its center is C
    trivial = {"type": "trivial", "group": {"table": [[0]]}}
    table = {"type": "table", "group": {"table": [[0]]}, "values": [[{"rat": "0", "irr": {}}]]}
    f = {"table": [[{"rat": "0", "irr": {}}]]}
    product = {"type": "direct_product", "sigma1": trivial, "sigma2": table, "f": f}
    commands = ["validate", "condition-k", "regular-classes", "center"]
    for data, extra in ((trivial, []), (table, []), (product, ["f-degeneracy"])):
        for command in commands + extra:
            code, out, err = _run(capsys, [command, "--inline", json.dumps(data)])
            assert code == 0 and len(err.splitlines()) == 1, (data["type"], command, err)
            report = json.loads(out)
            if command == "validate":
                assert report["ok"] is True
            elif command == "center":
                assert (report["combinatorial"], report["numeric"], report["matrix_algebra"]) == (1, 1, 1)
            else:
                assert report["condition_k"] is True


def test_cli_validate_torus_fuzz(capsys):
    data = {"type": "torus", "n": 3, "theta": {"1,2": {"rat": "0", "irr": {"t": "1"}}}, "basis": ["t"]}
    code, out, _ = _run(capsys, ["validate", "--inline", json.dumps(data), "--fuzz", "200"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["mode"] == "fuzz" and report["checked"] == 200


def test_cli_malformed_input_exits_2(capsys):
    code, _, err = _run(capsys, ["condition-k", "--inline", "{not json"])
    assert code == 2
    code, _, err = _run(capsys, ["condition-k", "--inline", json.dumps({"type": "zzz"})])
    assert code == 2


def test_cli_center_symbolic_table_refuses(capsys):
    # a coboundary with a symbolic exponent: valid, but a symbol has no
    # float value, so the numeric center oracle cannot evaluate it, with
    # hints or without, alone or as a factor of a product
    data = {
        "type": "table",
        "group": cyclic(2).to_json(),
        "values": [
            [{"rat": "0", "irr": {}}, {"rat": "0", "irr": {}}],
            [{"rat": "0", "irr": {}}, {"rat": "0", "irr": {"t": "2"}}],
        ],
    }
    product = {
        "type": "direct_product",
        "sigma1": {"type": "trivial", "group": cyclic(3).to_json()},
        "sigma2": data,
        "f": {"table": [[{"rat": "0"}] * 2] * 3},
    }
    for spec in (data, {**data, "hints": {"t": 0.3}}, product):
        code, out, err = _run(capsys, ["center", "--inline", json.dumps(spec)])
        assert code == 2 and out == ""
        assert err == "bad job: the numeric center needs a table without symbols, and this table has symbol 't'\n"
        code, _, _ = _run(capsys, ["validate", "--inline", json.dumps(spec)])
        assert code == 0


def _named(*names):
    return {"table": [[(a + b) % len(names) for b in range(len(names))] for a in range(len(names))], "names": list(names)}


# each spec, and the name that repeats in it
DUPLICATE_NAMES = {
    "table": ({"type": "table", "group": _named("a", "a"), "values": [[{"rat": "0"}] * 2] * 2}, "a"),
    "trivial": ({"type": "trivial", "group": _named("e", "x", "x")}, "x"),
    "free_product factor": (
        {
            "type": "free_product",
            "sigma1": {"type": "trivial", "group": cyclic(3).to_json()},
            "sigma2": {"type": "trivial", "group": _named("e", "a", "b", "a")},
        },
        "a",
    ),
}


@pytest.mark.parametrize("kind", DUPLICATE_NAMES)
def test_cli_duplicate_names_refused(kind, capsys, monkeypatch):
    # a witness word names its letters, so two elements may not share a name
    spec, repeated = DUPLICATE_NAMES[kind]
    monkeypatch.setattr(twistk.cli, "run", lambda args, sigma: pytest.fail("a decision ran"))
    for command in twistk.cli.COMMANDS:
        code, out, err = _run(capsys, [command, "--inline", json.dumps(spec)])
        assert code == 2 and out == ""
        assert err == f"bad job: names must be distinct; {repeated!r} repeats\n"


def _product_spec(sigma1, sigma2, orders):
    return {"type": "direct_product", "sigma1": sigma1, "sigma2": sigma2, "f": {"table": [[{"rat": "0"}] * orders[1]] * orders[0]}}


# distinct factor names whose product names "(x,z)", "(x,y,z)", "(x,y,z)", "(x,y,y,z)" collide
COLLIDING = _product_spec({"type": "trivial", "group": _named("x", "x,y")}, {"type": "trivial", "group": _named("z", "y,z")}, (2, 2))
Z2 = {"type": "trivial", "group": _named("a", "b")}
PRODUCT_NAME_COLLISIONS = {
    "first factor": {"type": "free_product", "sigma1": COLLIDING, "sigma2": Z2},
    "second factor": {"type": "free_product", "sigma1": Z2, "sigma2": COLLIDING},
    "nested": {"type": "free_product", "sigma1": _product_spec(Z2, COLLIDING, (2, 4)), "sigma2": Z2},
}


@pytest.mark.parametrize("kind", PRODUCT_NAME_COLLISIONS)
def test_cli_product_name_collision_refused(kind, capsys, monkeypatch):
    # a free product reads its factors' names at decode, so a product's names
    # that collide are refused before any decision runs
    spec = PRODUCT_NAME_COLLISIONS[kind]
    monkeypatch.setattr(twistk.cli, "run", lambda args, sigma: pytest.fail("a decision ran"))
    for command in twistk.cli.COMMANDS:
        code, out, err = _run(capsys, [command, "--fuzz", "50", "--box", "4", "--inline", json.dumps(spec)])
        assert code == 2 and out == ""
        assert err == "bad job: bad multiplier spec: GroupTableError: product element names must be distinct; '(x,y,z)' repeats\n"


def test_product_names_kept(capsys):
    # names that do not collide read "(a1,a2)" as before, nested too; a
    # direct product outside a free product never reads its names and is decided
    sigma = decode_multiplier({**PRODUCT_NAME_COLLISIONS["nested"], "sigma1": _product_spec(Z2, _product_spec(Z2, Z2, (2, 2)), (2, 4))})
    assert sigma.fp.g1.names == tuple(f"({p},({q},{r}))" for p in "ab" for q in "ab" for r in "ab")
    code, _, _ = _run(capsys, ["condition-k", "--inline", json.dumps(COLLIDING)])
    assert code == 0


def test_cli_unsupported_combination_exits_2(capsys):
    data = {
        "type": "free_product",
        "sigma1": {"type": "trivial", "group": cyclic(2).to_json()},
        "sigma2": {"type": "trivial", "group": cyclic(2).to_json()},
    }
    code, _, _ = _run(capsys, ["condition-k", "--inline", json.dumps(data)])
    assert code == 2


def test_cli_condition_k_torus_with_witness(capsys):
    data = {"type": "torus", "n": 2, "theta": {"1,2": {"rat": "2/5", "irr": {}}}, "basis": []}
    code, out, _ = _run(capsys, ["condition-k", "--inline", json.dumps(data)])
    assert code == 0
    report = json.loads(out)
    assert report["condition_k"] is False and report["witness"] == [5, 0]


def test_cli_condition_k_g3(capsys):
    data = {"type": "g3", "mu": {}, "basis": []}
    code, out, _ = _run(capsys, ["condition-k", "--inline", json.dumps(data)])
    report = json.loads(out)
    assert code == 0 and report["condition_k"] is False and report["witness"] == [1, 0, 0]


def test_cli_regular_classes(capsys):
    code, out, _ = _run(
        capsys, ["regular-classes", "--inline", json.dumps({"type": "klein", "n": 6, "k": 2})]
    )
    assert code == 0
    report = json.loads(out)
    regular = [c for c in report["classes"] if c["regular"]]
    assert len(regular) == 4 and report["condition_k"] is False


def test_cli_f_degeneracy(capsys):
    z5 = {"type": "trivial", "group": cyclic(5).to_json()}
    f_table = [
        [{"rat": f"{(2 * x * y) % 5}/5", "irr": {}} for y in range(5)] for x in range(5)
    ]
    data = {"type": "direct_product", "sigma1": z5, "sigma2": z5, "f": {"table": f_table}}
    code, out, _ = _run(capsys, ["f-degeneracy", "--inline", json.dumps(data)])
    assert code == 0
    report = json.loads(out)
    assert report["f_degeneracy"] is True and report["condition_k"] is True


def test_cli_decompose(capsys):
    data = {
        "type": "free_product",
        "sigma1": {"type": "trivial", "group": cyclic(2).to_json()},
        "sigma2": {"type": "trivial", "group": cyclic(3).to_json()},
    }
    code, out, _ = _run(capsys, ["decompose", "--inline", json.dumps(data), "--fuzz", "100", "--box", "5"])
    assert code == 0
    report = json.loads(out)
    assert report["similar"] is True and report["pairs_checked"] == 100
    assert report["restrictions_match"] is True


def test_cli_reports_are_byte_identical(capsys, tmp_path):
    payload = json.dumps({"type": "klein", "n": 4, "k": 2})
    path = tmp_path / "job.json"
    path.write_text(payload)
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["center", "--input", str(path), "--seed", "7"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cli_pretty_flag(capsys):
    code, out, _ = _run(
        capsys, ["condition-k", "--inline", json.dumps({"type": "klein", "n": 2, "k": 1}), "--pretty"]
    )
    assert code == 0 and out.startswith("{\n")


def test_cli_builds_no_parser_per_job(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = json.dumps({"type": "klein", "n": 3, "k": 1})
    for command in ("condition-k", "validate", "center"):
        code, _, _ = _run(capsys, [command, "--inline", spec])
        assert code == 0
    assert built == []


def _fresh_cli(*argv):
    src = str(Path(twistk.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, "-m", "twistk.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_module_in_fresh_interpreter(capsys):
    argv = ["condition-k", "--inline", json.dumps({"type": "klein", "n": 3, "k": 1})]
    code, out, _ = _run(capsys, argv)
    done = _fresh_cli(*argv)
    assert code == 0 and done.returncode == 0 and done.stdout == out
    shown = _fresh_cli("--help")
    assert shown.returncode == 0
    assert all(command in shown.stdout for command in twistk.cli.COMMANDS)
